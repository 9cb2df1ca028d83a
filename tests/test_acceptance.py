"""Acceptance suite: one test per criterion, one PASS line per criterion.

Every expected value asserted here is either pinned from an independent
oracle (exponent-trace arithmetic, brute-force search, CRT, direct
divisibility) or an exact structural requirement. Run with -s to see the
per-criterion lines.
"""

import itertools
import random

import pytest

import oracles
from bgwkem import (
    AuthenticationError,
    BroadcastCiphertext,
    CurveParams,
    DhParams,
    decaps,
    decrypt_gt,
    dh_derive,
    encaps,
    encode_header,
    encrypt_gt,
    make_curve_group,
    make_mock_group,
    open_bytes,
    rsa_decrypt,
    rsa_encrypt,
    rsa_keygen,
    seal_bytes,
    setup,
)
from bgwkem.analyzer import embedding_degree, security_report
from bgwkem.cli import main as cli_main
from bgwkem.fileformats import read_public_key, write_public_key
from bgwkem.primes import is_prime
from conftest import ScriptedRng, gt_element
from test_analyzer import P512, Q512


def _pass(criterion, detail):
    print(f"[acceptance] {criterion}: PASS - {detail}")


def _subsets(n):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def test_c1_kem_correctness_exhaustive():
    group = make_mock_group(101)
    checks = 0
    for n in range(1, 7):
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            pk, shares = setup(n, group, rng)
            for subset in _subsets(n):
                header, key = encaps(subset, pk, rng)
                for i in subset:
                    assert decaps(subset, i, shares[i - 1], header, pk) == key
                    checks += 1
    _pass("C1", f"decaps == encaps key for {checks} (n, S, i, seed) cases")


def test_c2_worked_example_pin():
    group = make_mock_group(101)
    pk, shares = setup(2, group, ScriptedRng([2, 3]))
    assert pk.g.value == 1
    assert {i: e.value for i, e in pk.powers.items()} == {1: 2, 2: 4, 4: 16}
    assert pk.v.value == 3
    header, key = encaps({1, 2}, pk, ScriptedRng([5]))
    assert (header.c0.value, header.c1.value) == (5, 45)
    assert key.k.value == 40
    for i in (1, 2):
        assert decaps({1, 2}, i, shares[i - 1], header, pk).k.value == 40
    # cross-check every stage against the independent trace oracle
    for i in (1, 2):
        trace = oracles.kem_traces(101, 2, 2, 3, 5, (1, 2), i)
        assert trace["pk"] == {"g": 1, "g1": 2, "g2": 4, "g4": 16, "v": 3}
        assert (trace["c0"], trace["c1"], trace["k"]) == (5, 45, 40)
        assert trace["recovered"] == 40
    _pass("C2", "PK (1,2,4,16,3), header (5,45), K 40, decaps 40 for i=1,2")


def _curve_pairs(limit=200):
    """Oracle search for valid parameter pairs: q = 3 mod 4, p >= 5, and
    p | q+1 exactly once (p^2 | q+1 would degenerate the pairing)."""
    pairs = []
    for q in range(7, limit):
        if q % 4 != 3 or not is_prime(q):
            continue
        for p in range(5, q):
            if is_prime(p) and (q + 1) % p == 0 and (q + 1) % (p * p) != 0:
                pairs.append((q, p))
    return pairs


def test_c3_curve_backend_validity():
    pairs = _curve_pairs()
    assert (59, 5) in pairs
    rnd = random.Random(2025)
    for q, p in pairs:
        group = make_curve_group(CurveParams(q=q, p=p))
        g = group.generator()
        e = group.pair(g, g)
        assert e != group.identity_gt()
        for _ in range(200):
            a, b = rnd.randrange(p), rnd.randrange(p)
            out = group.pair(g ** a, g ** b)
            assert out == e ** (a * b)
            # output lies in F_{q^2} and has order dividing p
            va, vb = out.value
            assert 0 <= va < q and 0 <= vb < q
            assert oracles.fq2_pow(out.value, p, q) == (1, 0)
    _pass("C3", f"bilinearity + non-degeneracy + mu_p membership on {len(pairs)} "
          "curve parameter sets, 200 samples each")


def test_c4_cross_backend_agreement():
    mock = make_mock_group(13)
    curve = make_curve_group(CurveParams(q=103, p=13))
    script = random.Random(404)
    mock_out, curve_out = [], []
    for round_index in range(100):
        n = script.randrange(1, 6)  # 2n < 12 keeps setup feasible
        subset = tuple(sorted(script.sample(range(1, n + 1), script.randrange(1, n + 1))))
        seed = 10_000 + round_index
        for group, sink in ((mock, mock_out), (curve, curve_out)):
            rng = random.Random(seed)
            pk, shares = setup(n, group, rng)
            header, key = encaps(subset, pk, rng)
            sink.append(header.c0)
            sink.append(header.c1)
            sink.append(key.k)
            for i in subset:
                sink.append(decaps(subset, i, shares[i - 1], header, pk).k)
    assert len(mock_out) == len(curve_out)
    mismatches = 0
    for i in range(len(mock_out)):
        for j in range(i + 1, len(mock_out)):
            if (mock_out[i] == mock_out[j]) != (curve_out[i] == curve_out[j]):
                mismatches += 1
    assert mismatches == 0
    _pass("C4", f"equality patterns of {len(mock_out)} values agree across "
          "backends over 100 KEM rounds")


def test_c5_hybrid_round_trip():
    group = make_mock_group(101)
    rng = random.Random(55)
    for n in (1, 2, 3):
        pk, shares = setup(n, group, rng)
        for subset in _subsets(n):
            for m in range(101):
                message = gt_element(group, m)
                ct = encrypt_gt(subset, pk, message, rng)
                for i in subset:
                    assert decrypt_gt(subset, i, shares[i - 1], ct, pk) == message
    # byte mode: round trips and bit-flip rejection
    pk, shares = setup(2, group, rng)
    for length in (0, 1, 31, 32, 33, 1000):
        plaintext = random.Random(length).randbytes(length)
        ct = seal_bytes({1, 2}, pk, plaintext, rng)
        assert len(ct.body) == length
        for i in (1, 2):
            assert open_bytes({1, 2}, i, shares[i - 1], ct, pk) == plaintext
    target = seal_bytes({1, 2}, pk, random.Random(7).randbytes(1000), rng)
    flip_rng = random.Random(8)
    positions = flip_rng.sample(range(1000 * 8), 256)
    for position in positions:
        body = bytearray(target.body)
        body[position // 8] ^= 1 << (position % 8)
        tampered = BroadcastCiphertext(
            header=target.header, nonce=target.nonce, body=bytes(body),
            tag=target.tag,
        )
        with pytest.raises(AuthenticationError):
            open_bytes({1, 2}, 1, shares[0], tampered, pk)
    _pass("C5", "GT round trip exhaustive at p=101, n<=3; byte mode round "
          "trips 6 lengths and rejects 256 sampled bit flips")


def test_c6_header_constancy():
    group = make_mock_group(101)
    rng = random.Random(66)
    sizes = set()
    for n in (1, 4, 8):
        pk, _ = setup(n, group, rng)
        for subset in _subsets(n):
            header, _ = encaps(subset, pk, rng)
            sizes.add(len(encode_header(group, header)))
    assert len(sizes) == 1
    _pass("C6", f"header is {sizes.pop()} bytes across every S at n in {{1,4,8}}")


def test_c7_classical_baselines():
    params = DhParams(p=23, g=5)
    publics = {x: pow(5, x, 23) for x in range(1, 22)}
    for x in range(1, 22):
        for y in range(1, 22):
            assert dh_derive(publics[y], x, params) == dh_derive(publics[x], y, params)
    assert dh_derive(publics[15], 6, params) == 2  # pinned modexp oracle case
    kp = rsa_keygen(5, 11, 3)
    assert (kp.n, kp.e, kp.d) == (55, 3, 27)
    for m in range(55):
        c = rsa_encrypt(m, kp.n, kp.e)
        assert rsa_decrypt(c, kp) == m
        assert oracles.crt_rsa_decrypt(c, kp.d, 5, 11) == m
    _pass("C7", "DH agreement exhaustive on [1,21]^2 with K(6,15)=2; RSA "
          "round trip exhaustive on Z_55 with (e,d)=(3,27)")


def test_c8_parameter_analysis():
    primes = [x for x in range(2, 200) if is_prime(x)]
    checked = 0
    for q in primes:
        for p in primes:
            if p == q:
                continue
            k = embedding_degree(q, p)
            assert k == oracles.naive_embedding_degree(q, p)
            checked += 1
    assert embedding_degree(59, 5) == 2
    assert embedding_degree(11, 5) == 1
    assert embedding_degree(7, 5) == 4
    report = security_report(Q512, P512)
    assert report.base_bits == 512
    assert report.k == 2
    assert report.working_bits == 1024
    _pass("C8", f"embedding degree matches direct minimality on {checked} "
          "prime pairs; 512-bit base at k=2 reports 1024-bit working size")


def test_c9_hole_preservation(tmp_path):
    group = make_mock_group(101)
    for seed in range(100):
        n = seed % 6 + 1
        pk, _ = setup(n, group, random.Random(seed))
        alpha = pk.powers[1].value
        hole = pow(alpha, n + 1, 101)
        traces = {pk.g.value, pk.v.value} | {e.value for e in pk.powers.values()}
        assert hole not in traces
        path = tmp_path / f"pk_{seed}.bgw"
        write_public_key(path, pk)
        element_lines = path.read_text().splitlines()[1:]
        assert len(element_lines) == 2 * n + 1
        assert read_public_key(path) == pk
    _pass("C9", "no hole-power trace in any of 100 seeded PKs; serialized "
          "PK always holds exactly 2n+1 elements")


def test_c10_cli_contract(tmp_path, capsys):
    def run(*argv):
        return cli_main([str(a) for a in argv])

    keys = tmp_path / "keys"
    keys2 = tmp_path / "keys2"
    for out in (keys, keys2):
        assert run("setup", "--users", 3, "--p", 101, "--seed", 42,
                   "--out", out) == 0
    assert (keys / "pk.bgw").read_bytes() == (keys2 / "pk.bgw").read_bytes()
    assert (keys / "user_2.sk").read_bytes() == (keys2 / "user_2.sk").read_bytes()

    # write/read closure across every command pairing
    hdr, keyfile = tmp_path / "hdr", tmp_path / "K"
    assert run("encaps", "--pk", keys / "pk.bgw", "--set", "1,3",
               "--seed", 9, "--hdr-out", hdr, "--key-out", keyfile) == 0
    hdr2, keyfile2 = tmp_path / "hdr2", tmp_path / "K2"
    assert run("encaps", "--pk", keys / "pk.bgw", "--set", "1,3",
               "--seed", 9, "--hdr-out", hdr2, "--key-out", keyfile2) == 0
    assert hdr.read_bytes() == hdr2.read_bytes()
    assert keyfile.read_bytes() == keyfile2.read_bytes()
    for user in (1, 3):
        capsys.readouterr()
        assert run("decaps", "--pk", keys / "pk.bgw",
                   "--sk", keys / f"user_{user}.sk", "--hdr", hdr) == 0
        assert capsys.readouterr().out.strip() == keyfile.read_text().strip()

    message = tmp_path / "msg"
    message.write_bytes(b"the broadcast payload" * 20)
    sealed, opened = tmp_path / "msg.ct", tmp_path / "msg.out"
    assert run("seal", "--pk", keys / "pk.bgw", "--set", "2,3",
               "--in", message, "--out", sealed, "--seed", 5) == 0
    assert run("open", "--pk", keys / "pk.bgw", "--set", "2,3",
               "--sk", keys / "user_3.sk", "--in", sealed, "--out", opened) == 0
    assert opened.read_bytes() == message.read_bytes()

    # exit code contract: 2 parameter/parse, 3 membership, 4 authentication
    assert run("setup", "--users", 0, "--p", 101, "--out", tmp_path / "x") == 2
    assert run("encaps", "--pk", keys / "pk.bgw", "--set", "9",
               "--hdr-out", tmp_path / "h", "--key-out", tmp_path / "k") == 2
    broken = tmp_path / "broken.bgw"
    broken.write_text((keys / "pk.bgw").read_text() + "junk line\n")
    assert run("decaps", "--pk", broken, "--sk", keys / "user_1.sk",
               "--hdr", hdr) == 2
    assert run("decaps", "--pk", keys / "pk.bgw", "--sk", keys / "user_2.sk",
               "--hdr", hdr) == 3
    assert run("open", "--pk", keys / "pk.bgw", "--set", "2,3",
               "--sk", keys / "user_1.sk", "--in", sealed,
               "--out", tmp_path / "no") == 3
    tampered = bytearray(sealed.read_bytes())
    tampered[-40] ^= 0x04
    bad = tmp_path / "bad.ct"
    bad.write_bytes(bytes(tampered))
    assert run("open", "--pk", keys / "pk.bgw", "--set", "2,3",
               "--sk", keys / "user_3.sk", "--in", bad,
               "--out", tmp_path / "no") == 4
    _pass("C10", "file closure, deterministic reruns, and exit codes 0/2/3/4")
