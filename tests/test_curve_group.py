import random

import pytest

import oracles
from bgwkem import CurveParams, DecodeError, ParameterError, make_curve_group
from bgwkem.groups import MAX_MODULUS_BITS
from conftest import time_limit


@pytest.fixture(scope="module")
def curve59():
    return make_curve_group(CurveParams(q=59, p=5))


def test_curve_order_matches_enumeration():
    # oracle: brute-force count of E(F_59) is q + 1 = 60, cofactor 12
    points = oracles.enumerate_curve(59)
    assert len(points) + 1 == 60
    assert 60 % 5 == 0
    assert CurveParams(q=59, p=5).cofactor == 12


def test_invalid_params_rejected():
    with pytest.raises(ParameterError):
        CurveParams(q=59, p=7)  # 7 does not divide 60
    with pytest.raises(ParameterError):
        CurveParams(q=13, p=7)  # 13 = 1 mod 4
    with pytest.raises(ParameterError):
        CurveParams(q=58, p=5)  # q not prime
    with pytest.raises(ParameterError):
        CurveParams(q=59, p=6)  # p not prime
    with pytest.raises(ParameterError):
        CurveParams(q=59, p=3)  # p below 5


def test_generator_has_exact_order(curve59):
    g = curve59.generator()
    assert g.value is not None
    assert g ** 5 == curve59.identity_g()
    seen = {(g ** k).value for k in range(5)}
    assert len(seen) == 5


def test_generator_point_is_on_curve(curve59):
    x, y = curve59.generator().value
    assert (y * y - (x * x * x + x)) % 59 == 0
    assert curve59.generator().value in oracles.enumerate_curve(59)


def test_pairing_non_degenerate(curve59):
    e = curve59.pair(curve59.generator(), curve59.generator())
    assert e != curve59.identity_gt()
    assert e ** 5 == curve59.identity_gt()
    # independent order check, not routed through exp's mod-p reduction
    assert oracles.fq2_pow(e.value, 5, 59) == (1, 0)


def test_bilinearity_exhaustive(curve59):
    g = curve59.generator()
    e = curve59.pair(g, g)
    for a in range(5):
        for b in range(5):
            assert curve59.pair(g ** a, g ** b) == e ** (a * b)


def test_pairing_symmetry(curve59):
    g = curve59.generator()
    rnd = random.Random(7)
    for _ in range(20):
        P = g ** rnd.randrange(5)
        Q = g ** rnd.randrange(5)
        assert curve59.pair(P, Q) == curve59.pair(Q, P)


def test_pairing_with_identity(curve59):
    g = curve59.generator()
    assert curve59.pair(g, curve59.identity_g()) == curve59.identity_gt()
    assert curve59.pair(curve59.identity_g(), g) == curve59.identity_gt()


def test_larger_parameter_sets():
    for q, p in ((103, 13), (151, 19), (227, 19)):
        group = make_curve_group(CurveParams(q=q, p=p))
        g = group.generator()
        e = group.pair(g, g)
        assert e != group.identity_gt()
        rnd = random.Random(q)
        for _ in range(10):
            a, b = rnd.randrange(p), rnd.randrange(p)
            assert group.pair(g ** a, g ** b) == e ** (a * b)


def test_group_law_via_scalars(curve59):
    g = curve59.generator()
    for a in range(5):
        for b in range(5):
            assert (g ** a) * (g ** b) == g ** (a + b)
            assert (g ** a) / (g ** b) == g ** (a - b)


def test_encoding_round_trip(curve59):
    g = curve59.generator()
    for a in range(5):
        x = g ** a
        assert curve59.decode_g(curve59.encode(x)) == x


def test_encoding_fixed_width_and_canonical(curve59):
    g = curve59.generator()
    blobs = [curve59.encode(g ** a) for a in range(5)]
    assert {len(b) for b in blobs} == {curve59.g_encoded_size}
    assert len(set(blobs)) == 5
    assert curve59.encode(curve59.identity_g()) == b"\x00\x00\x00"
    gt = curve59.pair(g, g)
    gt_blobs = [curve59.encode(gt ** a) for a in range(5)]
    assert {len(b) for b in gt_blobs} == {curve59.gt_encoded_size}
    assert len(set(gt_blobs)) == 5
    # q of 160 bits takes 20 bytes a coordinate: a tag byte and x, y in G;
    # a and b in GT
    q160 = 730750818665451459101842416358141509827966272147
    group = make_curve_group(CurveParams(q=q160, p=(q160 + 1) // 4))
    assert (group.g_encoded_size, group.gt_encoded_size) == (41, 40)


def test_decode_rejects_off_curve_point(curve59):
    # (1, 1): 1 != 1 + 1 mod 59, so not on the curve
    assert (1 * 1 - (1 + 1)) % 59 != 0
    with pytest.raises(DecodeError, match=r"is not on y\^2 = x\^3 \+ x"):
        curve59.decode_g(b"\x01" + bytes([1, 1]))
    # the subgroup check reads x alone, and x of a point of G passes it, so
    # only the on-curve check refuses a G point with y + 1
    q = 730750818665451459101842416358141509827966272147
    group = make_curve_group(CurveParams(q=q, p=(q + 1) // 4))
    x, y = (group.generator() ** 12345).value
    assert group._in_subgroup(x, y + 1)
    blob = b"\x01" + x.to_bytes(20, "big") + (y + 1).to_bytes(20, "big")
    with pytest.raises(DecodeError, match=r"is not on y\^2 = x\^3 \+ x"):
        group.decode_g(blob)


def test_decode_rejects_non_reduced_coordinate(curve59):
    with pytest.raises(DecodeError):
        curve59.decode_g(b"\x01" + bytes([59, 0]))


def test_decode_rejects_wrong_subgroup_point(curve59):
    # find an on-curve point outside the order-5 subgroup via the oracle
    subgroup = {(curve59.generator() ** a).value for a in range(1, 5)}
    outsider = next(
        pt for pt in oracles.enumerate_curve(59) if pt not in subgroup
    )
    with pytest.raises(DecodeError):
        curve59.decode_g(b"\x01" + bytes(outsider))


# Curves near MAX_MODULUS_BITS: two whose cofactors are the large powers of
# two 2^460 and 2^248, and q = 8p - 1 with p of 509 bits, the largest p
# whose test is [p]P, where decode_g is at its slowest. CAP_P is the first
# p = random.Random(0).getrandbits(509) | 2^508 | 1 with p and 8p - 1 both
# prime.
CAP_P = int(
    "11779005104903553935535606927616712680517373859474227986781532447126328830"
    "00988705870257183801689387569711838394453096247373653827613980455819020128768159"
)
CAP_CURVES = [(17 * 2**460 - 1, 17), (5 * 2**248 - 1, 5), (8 * CAP_P - 1, CAP_P)]


@pytest.mark.parametrize("q, p", CAP_CURVES, ids=["17*2^460-1", "5*2^248-1", "8p-1"])
def test_decode_g_is_fast_at_the_cap(q, p):
    group = make_curve_group(CurveParams(q=q, p=p))
    assert q.bit_length() <= MAX_MODULUS_BITS == (8 * CAP_P - 1).bit_length()
    g = group.generator()
    x, y = g.value
    # g + (0, 0) = (1/x, -y/x^2) is on the curve and has order 2p
    width = (q.bit_length() + 7) // 8
    outside = (b"\x01" + pow(x, -1, q).to_bytes(width, "big")
               + (-y * pow(x, -2, q) % q).to_bytes(width, "big"))
    inside = group.encode(g)
    with time_limit(0.1):
        assert group.decode_g(inside) == g
        with pytest.raises(DecodeError, match="not in the order-"):
            group.decode_g(outside)


def test_decode_rejects_malformed(curve59):
    with pytest.raises(DecodeError):
        curve59.decode_g(b"\x01\x00")  # truncated
    with pytest.raises(DecodeError):
        curve59.decode_g(b"\x02" + bytes(2))  # unknown tag
    with pytest.raises(DecodeError):
        curve59.decode_g(b"\x00" + bytes([0, 1]))  # dirty infinity


def test_mock_traces_predict_curve_equalities(curve59):
    """Same scalar script on both backends: equal mock traces must mean
    equal curve elements, and unequal traces unequal elements."""
    from bgwkem import make_mock_group

    mock = make_mock_group(5)
    rnd = random.Random(42)
    mock_vals, curve_vals = [], []
    for _ in range(40):
        a, b, c = rnd.randrange(5), rnd.randrange(5), rnd.randrange(5)
        for group, sink in ((mock, mock_vals), (curve59, curve_vals)):
            g = group.generator()
            sink.append((g ** a) * (g ** b))
            sink.append(group.pair(g ** a, g ** b) ** c)
    for i in range(len(mock_vals)):
        for j in range(i + 1, len(mock_vals)):
            assert (mock_vals[i] == mock_vals[j]) == (curve_vals[i] == curve_vals[j])


def test_gt_inverse_is_conjugate_for_subgroup_members(curve59):
    # mu_p members have norm 1, so inverse == conjugate; checked indirectly
    e = curve59.pair(curve59.generator(), curve59.generator())
    inv = curve59.inverse(e)
    assert e * inv == curve59.identity_gt()
    a, b = e.value
    assert inv.value == (a, (-b) % 59)
