"""The mock backend as an exact oracle of the curve, value by value.

Under one seed, the mock of order p and the curve (q, p) draw the same
exponents, so every value the protocol computes on the curve must be
phi(mock value), where phi(a) = g^a on G and e(g, g)^a on GT. C4 compares
only equality patterns; this compares the values themselves, on a tiny
curve and on the ladder's 64- and 160-bit curves.
"""

import random

import pytest

from bgwkem import (
    CurveParams,
    GElement,
    decaps,
    decrypt_gt,
    encaps,
    encrypt_gt,
    make_curve_group,
    make_mock_group,
    open_bytes,
    seal_bytes,
    setup,
)
from bgwkem.cli import main as cli_main

Q64 = 9223372036854782251
Q160 = 730750818665451459101842416358141509827966272147
# (q, p, rounds); the largest n is 5 at p = 13, where 2n < p - 1
CASES = [(103, 13, 40), (Q64, (Q64 + 1) // 4, 10), (Q160, (Q160 + 1) // 4, 8)]
PAYLOAD = b"the same bytes on both backends"


def _protocol_values(group, n, subset, seed):
    """Every G and GT value of one seeded run of the protocol."""
    rng = random.Random(seed)
    pk, shares = setup(n, group, rng)
    values = [pk.g, pk.v, *(pk.powers[i] for i in sorted(pk.powers))]
    values += [share.d for share in shares]

    header, key = encaps(subset, pk, rng)
    values += [header.c0, header.c1, key.k]
    values += [decaps(subset, i, shares[i - 1], header, pk).k for i in subset]

    message = group.pair(pk.g, pk.g) ** rng.randrange(group.order)
    ct = encrypt_gt(subset, pk, message, rng)
    values += [message, ct.header.c0, ct.header.c1, ct.c]
    values += [decrypt_gt(subset, i, shares[i - 1], ct, pk) for i in subset]

    # sealed bytes differ between backends, so compare the header and the
    # GT key each recipient recovers from it
    sealed = seal_bytes(subset, pk, PAYLOAD, rng)
    values += [sealed.header.c0, sealed.header.c1]
    for i in subset:
        values.append(decaps(subset, i, shares[i - 1], sealed.header, pk).k)
        assert open_bytes(subset, i, shares[i - 1], sealed, pk) == PAYLOAD
    return values


@pytest.mark.parametrize("q, p, rounds", CASES, ids=["q103", "q64", "q160"])
def test_curve_values_are_phi_of_mock_values(q, p, rounds):
    mock = make_mock_group(p)
    curve = make_curve_group(CurveParams(q=q, p=p))
    g = curve.generator()
    e = curve.pair(g, g)
    script = random.Random(q)
    compared = 0
    for round_index in range(rounds):
        n = script.randrange(1, 6)
        subset = sorted(script.sample(range(1, n + 1), script.randrange(1, n + 1)))
        seed = 20_000 + round_index
        mock_values = _protocol_values(mock, n, subset, seed)
        curve_values = _protocol_values(curve, n, subset, seed)
        assert len(mock_values) == len(curve_values)
        for position, (m, c) in enumerate(zip(mock_values, curve_values)):
            base = g if isinstance(m, GElement) else e
            assert type(m) is type(c), position
            assert base ** m.value == c, (round_index, position)
        compared += len(mock_values)
    # n = |S| = 1 gives the fewest: 4 key values, 4 + 5 + 3 run values
    assert compared >= 16 * rounds


@pytest.mark.parametrize("q, p", [(103, 13), (Q64, (Q64 + 1) // 4)])
def test_simulate_matrix_agrees_across_backends(q, p, capsys):
    outputs = []
    for flags in (["--p", p], ["--backend", "curve", "--q", q, "--p", p]):
        argv = ["simulate", "--users", 5, "--set", "1,3,4", *flags, "--seed", 9]
        assert cli_main([str(a) for a in argv]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    mock_rows, curve_rows = outputs
    assert mock_rows[:-1] == curve_rows[:-1]
    assert [row.split()[2] for row in mock_rows[1:-1]] == \
        ["OK", "REFUSED", "OK", "OK", "REFUSED"]
    assert mock_rows[-1].startswith("header-bytes=")
    assert curve_rows[-1].startswith("header-bytes=")
