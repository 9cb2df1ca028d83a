import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import bgwkem
from bgwkem.cli import main

# Seeds found by searching random.Random draw sequences:
# SETUP_SEED makes setup draw alpha=2 then gamma=3 at p=101;
# ENCAPS_SEED makes encaps draw t=5.
SETUP_SEED = 11896
ENCAPS_SEED = 43


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def keys(tmp_path):
    outdir = tmp_path / "keys"
    assert run("setup", "--users", 2, "--backend", "mock", "--p", 101,
               "--seed", SETUP_SEED, "--out", outdir) == 0
    return outdir


def test_setup_writes_expected_files(keys):
    assert sorted(f.name for f in keys.iterdir()) == [
        "pk.bgw", "user_1.sk", "user_2.sk",
    ]
    lines = (keys / "pk.bgw").read_text().splitlines()
    assert lines[0] == "BGW1 mock p=101 n=2"
    # forced alpha=2, gamma=3: traces (g, g1, g2, g4, v) = (1, 2, 4, 16, 3)
    assert lines[1:] == ["g=6d01", "g1=6d02", "g2=6d04", "g4=6d10", "v=6d03"]


def test_setup_is_deterministic(tmp_path):
    for name in ("a", "b"):
        assert run("setup", "--users", 3, "--p", 101, "--seed", 7,
                   "--out", tmp_path / name) == 0
    for fname in ("pk.bgw", "user_1.sk", "user_3.sk"):
        assert (tmp_path / "a" / fname).read_bytes() == \
            (tmp_path / "b" / fname).read_bytes()


def test_setup_parameter_errors(tmp_path, capsys):
    assert run("setup", "--users", 0, "--p", 101, "--out", tmp_path / "x") == 2
    assert run("setup", "--users", 4, "--backend", "curve", "--q", 59,
               "--p", 5, "--out", tmp_path / "x") == 2
    assert "2n" in capsys.readouterr().err
    assert run("setup", "--users", 2, "--backend", "mock", "--p", 100,
               "--out", tmp_path / "x") == 2


def test_encaps_decaps_pinned(keys, tmp_path, capsys):
    hdr = tmp_path / "hdr"
    keyfile = tmp_path / "key"
    assert run("encaps", "--pk", keys / "pk.bgw", "--set", "1,2",
               "--seed", ENCAPS_SEED, "--hdr-out", hdr, "--key-out", keyfile) == 0
    # t=5 against alpha=2, gamma=3: header traces (5, 45), K trace 40
    assert hdr.read_text() == "BGWHDR1\nC0=6d05\nC1=6d2d\nS=1,2\n"
    assert keyfile.read_text() == "7428\n"
    for sk in ("user_1.sk", "user_2.sk"):
        capsys.readouterr()
        assert run("decaps", "--pk", keys / "pk.bgw", "--sk", keys / sk,
                   "--hdr", hdr) == 0
        assert capsys.readouterr().out.strip() == "7428"


def test_encaps_is_deterministic(keys, tmp_path):
    blobs = []
    for name in ("1", "2"):
        hdr = tmp_path / f"hdr{name}"
        keyfile = tmp_path / f"key{name}"
        assert run("encaps", "--pk", keys / "pk.bgw", "--set", "1,2",
                   "--seed", 99, "--hdr-out", hdr, "--key-out", keyfile) == 0
        blobs.append(hdr.read_bytes() + keyfile.read_bytes())
    assert blobs[0] == blobs[1]


def test_decaps_non_recipient_exits_3(keys, tmp_path, capsys):
    hdr = tmp_path / "hdr"
    assert run("encaps", "--pk", keys / "pk.bgw", "--set", "1",
               "--seed", 1, "--hdr-out", hdr, "--key-out", tmp_path / "k") == 0
    assert run("decaps", "--pk", keys / "pk.bgw", "--sk", keys / "user_2.sk",
               "--hdr", hdr) == 3
    assert "not a recipient" in capsys.readouterr().err


def test_decaps_parse_failure_exits_2(keys, tmp_path):
    hdr = tmp_path / "hdr"
    assert run("encaps", "--pk", keys / "pk.bgw", "--set", "1,2",
               "--seed", 1, "--hdr-out", hdr, "--key-out", tmp_path / "k") == 0
    hdr.write_text(hdr.read_text().splitlines()[0] + "\n")  # truncate
    assert run("decaps", "--pk", keys / "pk.bgw", "--sk", keys / "user_1.sk",
               "--hdr", hdr) == 2
    assert run("decaps", "--pk", keys / "pk.bgw", "--sk", keys / "user_1.sk",
               "--hdr", tmp_path / "missing") == 2


def test_encaps_bad_set_exits_2(keys, tmp_path):
    assert run("encaps", "--pk", keys / "pk.bgw", "--set", "3",
               "--seed", 1, "--hdr-out", tmp_path / "h",
               "--key-out", tmp_path / "k") == 2
    assert run("encaps", "--pk", keys / "pk.bgw", "--set", "1,1",
               "--seed", 1, "--hdr-out", tmp_path / "h",
               "--key-out", tmp_path / "k") == 2


def test_seal_open_round_trip(keys, tmp_path):
    payload = bytes(range(256)) * 4  # 1 KiB
    infile = tmp_path / "msg"
    infile.write_bytes(payload)
    ct = tmp_path / "msg.ct"
    out = tmp_path / "msg.out"
    assert run("seal", "--pk", keys / "pk.bgw", "--set", "1,2",
               "--in", infile, "--out", ct, "--seed", 4) == 0
    assert run("open", "--pk", keys / "pk.bgw", "--set", "1,2",
               "--sk", keys / "user_1.sk", "--in", ct, "--out", out) == 0
    assert out.read_bytes() == payload


def test_open_tampered_exits_4(keys, tmp_path, capsys):
    infile = tmp_path / "msg"
    infile.write_bytes(b"broadcast me")
    ct = tmp_path / "msg.ct"
    assert run("seal", "--pk", keys / "pk.bgw", "--set", "1,2",
               "--in", infile, "--out", ct, "--seed", 4) == 0
    data = bytearray(ct.read_bytes())
    data[-40] ^= 0x20  # inside the body
    ct.write_bytes(bytes(data))
    assert run("open", "--pk", keys / "pk.bgw", "--set", "1,2",
               "--sk", keys / "user_1.sk", "--in", ct, "--out", tmp_path / "o") == 4
    assert "authentication failure" in capsys.readouterr().err


def test_open_by_non_recipient_exits_3(keys, tmp_path):
    infile = tmp_path / "msg"
    infile.write_bytes(b"members only")
    ct = tmp_path / "msg.ct"
    assert run("seal", "--pk", keys / "pk.bgw", "--set", "1",
               "--in", infile, "--out", ct, "--seed", 4) == 0
    assert run("open", "--pk", keys / "pk.bgw", "--set", "1",
               "--sk", keys / "user_2.sk", "--in", ct, "--out", tmp_path / "o") == 3


def test_simulate_matrix(capsys):
    assert run("simulate", "--users", 4, "--set", "1,3", "--p", 101,
               "--seed", 5) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "user  in-set  outcome"
    rows = [line.split() for line in out[1:5]]
    assert rows == [
        ["1", "yes", "OK"],
        ["2", "no", "REFUSED"],
        ["3", "yes", "OK"],
        ["4", "no", "REFUSED"],
    ]
    assert out[5] == "header-bytes=4"


def test_simulate_header_size_constant_across_sets(capsys):
    sizes = []
    for recipients in ("1", "1,2,3,4"):
        assert run("simulate", "--users", 4, "--set", recipients, "--p", 101,
                   "--seed", 5) == 0
        out = capsys.readouterr().out.splitlines()
        sizes.append(next(l for l in out if l.startswith("header-bytes=")))
    assert sizes[0] == sizes[1]


def test_simulate_single_user(capsys):
    assert run("simulate", "--users", 1, "--set", "1", "--p", 101,
               "--seed", 5) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["1", "yes", "OK"]


def test_simulate_on_curve_backend(capsys):
    assert run("simulate", "--users", 3, "--set", "2", "--backend", "curve",
               "--q", 103, "--p", 13, "--seed", 6) == 0
    out = capsys.readouterr().out.splitlines()
    assert [r.split()[2] for r in out[1:4]] == ["REFUSED", "OK", "REFUSED"]


ANALYZE_59_5 = """\
base field q        : 59
subgroup order p    : 5
embedding degree k  : 2
input size          : 6 bits (base field)
working size        : 12 bits (degree-k extension)
at 1024-bit working scale (160-bit-input reference): no

q=59
p=5
k=2
base_bits=6
working_bits=12
divisibility_witness=696
reaches_reference_working_size=false
"""


def test_analyze_output(capsys):
    assert run("analyze", "--q", 59, "--p", 5) == 0
    out = capsys.readouterr().out
    assert "k=2" in out
    assert "working_bits=12" in out
    assert "base_bits=6" in out
    assert "divisibility_witness=696" in out
    assert out == ANALYZE_59_5
    assert run("analyze", "--q", 11, "--p", 5) == 0
    assert "k=1" in capsys.readouterr().out


def test_analyze_prints_a_witness_past_the_int_str_limit(capsys):
    # k = 1018, so the witness has about 38 900 digits: beyond the 4300 that
    # str() allows an int by default
    q, p = 2**127 - 1, 1019
    assert run("analyze", "--q", q, "--p", p) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "embedding degree k  : 1018"
    assert out[-2].startswith("divisibility_witness=")
    assert int(Decimal(out[-2].split("=")[1])) == (q**1018 - 1) // p
    assert out[-1] == "reaches_reference_working_size=true"


def test_analyze_rejects_composites(capsys):
    assert run("analyze", "--q", 10, "--p", 5) == 2
    assert run("analyze", "--q", 11, "--p", 9) == 2


def test_seed_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("BGW_SEED", "7")
    assert run("setup", "--users", 2, "--p", 101, "--out", tmp_path / "env") == 0
    monkeypatch.delenv("BGW_SEED")
    assert run("setup", "--users", 2, "--p", 101, "--seed", 7,
               "--out", tmp_path / "flag") == 0
    assert (tmp_path / "env" / "pk.bgw").read_bytes() == \
        (tmp_path / "flag" / "pk.bgw").read_bytes()


def test_seed_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BGW_SEED", "1000")
    assert run("setup", "--users", 2, "--p", 101, "--seed", 7,
               "--out", tmp_path / "a") == 0
    monkeypatch.setenv("BGW_SEED", "2000")
    assert run("setup", "--users", 2, "--p", 101, "--seed", 7,
               "--out", tmp_path / "b") == 0
    assert (tmp_path / "a" / "pk.bgw").read_bytes() == \
        (tmp_path / "b" / "pk.bgw").read_bytes()


def test_bad_env_seed_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BGW_SEED", "not-a-number")
    assert run("setup", "--users", 2, "--p", 101, "--out", tmp_path / "x") == 2
    assert "BGW_SEED" in capsys.readouterr().err


def test_missing_subcommand_exits_2(capsys):
    assert run() == 2


def test_module_entry_point(tmp_path):
    # the child imports the same bgwkem as this process, installed or not
    source = str(Path(bgwkem.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "bgwkem", "analyze", "--q", "59", "--p", "5"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "k=2" in result.stdout
