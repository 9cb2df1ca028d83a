"""The CLI's outputs, pinned byte for byte.

A fixed list of ``cli.main`` calls runs in-process, in one directory, with
every path relative to it, so no output names a temporary path. The calls
cover setup, encaps, decaps (as a member, a non-member, with a share of
another setup, with a CRLF key, a truncated header and a C0 outside G),
seal, open (of a good, a flipped and a truncated file), simulate and
analyze, on the mock at p = 101 and on the curves q59/p5, q103/p13,
q139/p7 and the 160-bit ladder pair, plus parameter errors. For each call
the test compares the exit code and the SHA-256 of stdout, of stderr and of
every file the call wrote with the entry in transcript.json.

Regenerate the manifest, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_transcript.py

and name each changed entry and the reason for it in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from bgwkem.cli import main

MANIFEST = Path(__file__).resolve().with_name("transcript.json")

Q160 = 730750818665451459101842416358141509827966272147

# (directory, backend flags, users, recipient set, a user outside the set)
SETUPS = [
    ("mock101", ["--backend", "mock", "--p", "101"], 3, "1,3", 2),
    ("q59", ["--backend", "curve", "--q", "59", "--p", "5"], 1, "1", None),
    ("q103", ["--backend", "curve", "--q", "103", "--p", "13"], 3, "1,2", 3),
    ("q139", ["--backend", "curve", "--q", "139", "--p", "7"], 2, "2", 1),
    ("q160", ["--backend", "curve", "--q", str(Q160), "--p", str((Q160 + 1) // 4)],
     4, "1,4", 3),
]

PLAINTEXT = bytes(range(256)) * 4


def _derive(src, dst, change):
    Path(dst).write_bytes(change(Path(src).read_bytes()))


def _crlf(data):
    return data.replace(b"\n", b"\r\n")


def _drop_last_line(data):
    return b"".join(data.splitlines(keepends=True)[:-1])


def _flip_middle_byte(data):
    data = bytearray(data)
    data[len(data) // 2] ^= 1
    return bytes(data)


def _c0_plus_two_torsion(q):
    """The header with C0 + (0, 0) for C0: on the curve, of order 2p, outside G."""

    def change(data):
        lines = data.decode().split("\n")
        c0 = bytes.fromhex(lines[1][3:])
        width = (len(c0) - 1) // 2
        x, y = int.from_bytes(c0[1:1 + width], "big"), int.from_bytes(c0[1 + width:], "big")
        x, y = pow(x, -1, q), -y * pow(x, -2, q) % q
        lines[1] = "C0=01" + (x.to_bytes(width, "big") + y.to_bytes(width, "big")).hex()
        return "\n".join(lines).encode()

    return change


def steps():
    """The transcript: CLI argument lists, with the derived inputs made in between."""
    yield lambda: Path("plain").write_bytes(PLAINTEXT)
    for d, flags, n, chosen, outsider in SETUPS:
        users = ["--users", str(n)]
        yield ["setup", *users, *flags, "--seed", "1", "--out", d]
        yield ["setup", *users, *flags, "--seed", "2", "--out", f"{d}-other"]
        pk, member = f"{d}/pk.bgw", f"{d}/user_{chosen.split(',')[0]}.sk"
        yield ["encaps", "--pk", pk, "--set", chosen, "--seed", "3",
               "--hdr-out", f"{d}/hdr", "--key-out", f"{d}/key"]
        yield ["decaps", "--pk", pk, "--sk", member, "--hdr", f"{d}/hdr"]
        if outsider is not None:
            yield ["decaps", "--pk", pk, "--sk", f"{d}/user_{outsider}.sk", "--hdr", f"{d}/hdr"]
        yield ["decaps", "--pk", pk, "--sk", f"{d}-other/user_1.sk", "--hdr", f"{d}/hdr"]
        yield lambda d=d: _derive(f"{d}/pk.bgw", f"{d}/crlf.bgw", _crlf)
        yield ["encaps", "--pk", f"{d}/crlf.bgw", "--set", chosen, "--seed", "3",
               "--hdr-out", f"{d}/hdr-crlf", "--key-out", f"{d}/key-crlf"]
        yield lambda d=d: _derive(f"{d}/hdr", f"{d}/hdr-cut", _drop_last_line)
        yield ["decaps", "--pk", pk, "--sk", member, "--hdr", f"{d}/hdr-cut"]
        if flags[1] == "curve":
            outside = _c0_plus_two_torsion(int(flags[3]))
            yield lambda d=d, outside=outside: _derive(f"{d}/hdr", f"{d}/hdr-outside", outside)
            yield ["decaps", "--pk", pk, "--sk", member, "--hdr", f"{d}/hdr-outside"]
        yield ["seal", "--pk", pk, "--set", chosen, "--in", "plain",
               "--out", f"{d}/sealed", "--seed", "4"]
        yield lambda d=d: _derive(f"{d}/sealed", f"{d}/flipped", _flip_middle_byte)
        yield lambda d=d: _derive(f"{d}/sealed", f"{d}/cut", lambda data: data[:-1])
        for sealed in ("sealed", "flipped", "cut"):
            yield ["open", "--pk", pk, "--set", chosen, "--sk", member,
                   "--in", f"{d}/{sealed}", "--out", f"{d}/{sealed}.out"]
        yield ["simulate", *users, "--set", chosen, *flags, "--seed", "5"]
    # parameter errors: a short composite q, q = 1 mod 4, p not dividing
    # q + 1, p^2 dividing it, a composite mock order
    for flags in (["--backend", "curve", "--q", "63", "--p", "5"],
                  ["--backend", "curve", "--q", "61", "--p", "5"],
                  ["--backend", "curve", "--q", "59", "--p", "7"],
                  ["--backend", "curve", "--q", "199", "--p", "5"],
                  ["--backend", "mock", "--p", "100"]):
        yield ["setup", "--users", "1", *flags, "--seed", "1", "--out", "refused"]
    # a valid pair, q = 0, and a search stopped by MAX_WORKING_BITS
    for q, p in (("59", "5"), ("0", "5"), ("3", "400087")):
        yield ["analyze", "--q", q, "--p", p]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files() -> dict:
    return {str(path): _sha256(path.read_bytes())
            for path in sorted(Path(".").rglob("*")) if path.is_file()}


def transcript() -> list:
    """Run every step in the current directory; one entry per CLI call."""
    entries = []
    for step in steps():
        if callable(step):
            step()
            continue
        before = _files()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(step)
        after = _files()
        entries.append({
            "argv": step,
            "exit": status,
            "stdout": _sha256(out.getvalue().encode()),
            "stderr": _sha256(err.getvalue().encode()),
            "files": {path: sha for path, sha in after.items() if before.get(path) != sha},
        })
    return entries


def test_cli_transcript_matches_the_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BGW_SEED", raising=False)
    expected = json.loads(MANIFEST.read_text())
    actual = transcript()
    assert [e["argv"] for e in actual] == [e["argv"] for e in expected]
    for got, want in zip(actual, expected):
        assert got == want, " ".join(want["argv"])


if __name__ == "__main__":
    os.environ.pop("BGW_SEED", None)
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        entries = transcript()
    MANIFEST.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"{len(entries)} calls written to {MANIFEST}", file=sys.stderr)
