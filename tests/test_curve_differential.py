"""The curve backend against the affine, vertical-line oracles.

The backend computes points in Jacobian coordinates, drops line
denominators and verticals, and uses the Frobenius in the final
exponentiation. oracles.py keeps the direct algorithms: affine points with
Fermat inversions and a Miller loop that divides by every vertical before
the full (q^2 - 1)/p power. Both must agree bit for bit.
"""

import itertools
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bgwkem import CurveParams, UsageError, make_curve_group, make_mock_group

LADDER_Q = {
    "q16": 32971,
    "q64": 9223372036854782251,
    "q160": 730750818665451459101842416358141509827966272147,
}
CURVES = [(59, 5)] + [(q, (q + 1) // 4) for q in LADDER_Q.values()]
CURVE_IDS = ["q59"] + list(LADDER_Q)
# A second tiny curve: #E = 140 = 4 * 5 * 7, so with p = 7 the cofactor 20 is
# not a power of two and E has points of orders 5, 10, 14, 20, 28, 35, 70.
TINY_CURVES = [(59, 5), (139, 7)]


@pytest.fixture(scope="module", params=CURVES, ids=CURVE_IDS)
def curve(request):
    q, p = request.param
    return make_curve_group(CurveParams(q=q, p=p))


@settings(max_examples=25)
@given(data=st.data())
def test_pair_matches_oracle(curve, data):
    q, p = curve.q, curve.order
    a = data.draw(st.integers(0, p - 1), label="a")
    b = data.draw(st.integers(0, p - 1), label="b")
    g = curve.generator()
    P, Q = g ** a, g ** b
    assert P.value == oracles.ec_mul(a, g.value, q)
    assert Q.value == oracles.ec_mul(b, g.value, q)
    assert curve.pair(P, Q).value == oracles.tate_pairing(P.value, Q.value, q, p)


def test_exp_matches_oracle_at_edge_scalars(curve):
    q, p = curve.q, curve.order
    for k in (0, 1, p - 1, p, -1, 2 * p + 3):
        for P in (curve.generator(), curve.generator() ** (p // 3)):
            assert curve.exp(P, k).value == oracles.ec_mul(k, P.value, q), k


@settings(max_examples=25)
@given(data=st.data())
def test_exp_matches_oracle(curve, data):
    q, p = curve.q, curve.order
    a = data.draw(st.integers(1, p - 1), label="a")
    k = data.draw(st.integers(-3 * p, 3 * p), label="k")
    P = curve.generator() ** a
    assert curve.exp(P, k).value == oracles.ec_mul(k, P.value, q)


@pytest.mark.parametrize("q, p", TINY_CURVES)
def test_scalar_multiplication_exhaustive_on_whole_curve(q, p):
    # Points outside G reach R = P and R = -P inside the mixed addition,
    # which must double and give infinity respectively.
    group = make_curve_group(CurveParams(q=q, p=p))
    points = [None] + oracles.enumerate_curve(q)
    assert len(points) == q + 1
    for P in points:
        for k in range(2 * (q + 1)):
            assert group._pt_mul(k, P) == oracles.ec_mul(k, P, q), (P, k)


@pytest.mark.parametrize("q, p", TINY_CURVES)
def test_mul_and_inverse_exhaustive_on_g(q, p):
    # Every pair, so the identity, P * P (the R = P doubling inside the mixed
    # addition) and P * P^-1 (R = -P, giving infinity) all occur.
    group = make_curve_group(CurveParams(q=q, p=p))
    elements = [group.generator() ** k for k in range(p)]
    assert elements[0] == group.identity_g()
    for a in elements:
        assert group.inverse(a).value == oracles.ec_mul(-1, a.value, q)
        for b in elements:
            assert (a * b).value == oracles.ec_add(a.value, b.value, q), (a, b)


@settings(max_examples=25)
@given(data=st.data())
def test_mul_matches_oracle(curve, data):
    q, p = curve.q, curve.order
    a = data.draw(st.integers(0, p - 1), label="a")
    b = data.draw(st.one_of(st.just(a), st.just(-a % p), st.integers(0, p - 1)), label="b")
    g = curve.generator()
    P, Q = g ** a, g ** b
    assert (P * Q).value == oracles.ec_add(P.value, Q.value, q)


def _valid_curves(bound):
    """Every valid (q, p) with q < bound."""
    return [
        (q, p)
        for q in range(3, bound, 4) if oracles.prime_factors(q) == [q]
        for p in oracles.prime_factors(q + 1) if p >= 5 and (q + 1) % (p * p)
    ]


def test_generators_unchanged():
    # every valid (q, p) with q < 1200, then the ladder and q256
    sweep = _valid_curves(1200)
    assert {(59, 5), *TINY_CURVES} <= set(sweep)
    assert make_curve_group(CurveParams(q=59, p=5)).generator().value == (35, 31)
    for q in [*LADDER_Q.values(), TABLE_Q["q256"]]:
        sweep.append((q, (q + 1) // 4))
    for q, p in sweep:
        group = make_curve_group(CurveParams(q=q, p=p))
        assert group.generator().value == oracles.curve_generator(q, p), (q, p)


# -- decode_g's subgroup check: one halving or [p]P, against the oracle's [p]P

def test_subgroup_check_is_the_p_multiple_test_on_every_small_curve():
    sweep = _valid_curves(600)
    assert {(59, 5), (103, 13), (139, 7)} <= set(sweep)
    # points seen on curves whose cofactor is 4 (one halving) and is not
    seen = {True: 0, False: 0}
    for q, p in sweep:
        group = make_curve_group(CurveParams(q=q, p=p))
        for P in oracles.enumerate_curve(q):
            assert group._in_subgroup(*P) == (oracles.ec_mul(p, P, q) is None), (q, p, P)
            seen[(q + 1) // p == 4] += 1
    assert (len(sweep), seen[True], seen[False]) == (47, 2187, 12214)


def _lift(group, x):
    """The first point of E(F_q) with x-coordinate x, x + 1, and so on."""
    q = group.q
    while True:
        rhs = (x * x * x + x) % q
        y = pow(rhs, (q + 1) // 4, q)
        if y * y % q == rhs:
            return x, y
        x = (x + 1) % q


@settings(max_examples=25)
@given(data=st.data())
def test_subgroup_check_is_the_p_multiple_test(table_curve, data):
    group, q, p = table_curve, table_curve.q, table_curve.order
    g = group.generator()
    inside = (g ** data.draw(st.integers(1, p - 1), label="k")).value
    R = _lift(group, data.draw(st.integers(0, q - 1), label="x"))
    # R is in G with chance 1/4; R + (0, 0) and [2]R have other 2-parts
    for P in (inside, R, oracles.ec_add(R, (0, 0), q), oracles.ec_add(R, R, q),
              oracles.ec_add(R, inside, q)):
        if P is not None:
            assert group._in_subgroup(*P) == (oracles.ec_mul(p, P, q) is None), P


def test_gt_inverse_is_oracle_inverse_on_all_of_mu_p():
    group = make_curve_group(CurveParams(q=59, p=5))
    g = group.generator()
    members = [group.pair(g, g) ** k for k in range(5)]
    mu_p = [
        (a, b) for a in range(59) for b in range(59)
        if oracles.fq2_pow((a, b), 5, 59) == (1, 0)
    ]
    assert len(mu_p) == 5
    assert sorted(x.value for x in members) == mu_p
    for x in members:
        inv = group.inverse(x)
        assert inv.value == oracles.fq2_inv(x.value, 59)
        assert x * inv == group.identity_gt()


def _fold_ec_add(points, q):
    return reduce(lambda P, Q: oracles.ec_add(P, Q, q), points)


@settings(max_examples=25)
@given(data=st.data())
def test_product_matches_oracle_fold(curve, data):
    # the pool makes the identity, P next to -P and repeated points common
    q, p = curve.q, curve.order
    a = data.draw(st.integers(1, p - 1), label="a")
    pool = [0, a, p - a, data.draw(st.integers(0, p - 1), label="b")]
    exponents = data.draw(
        st.lists(st.one_of(st.sampled_from(pool), st.integers(0, p - 1)),
                 min_size=1, max_size=8),
        label="exponents",
    )
    g = curve.generator()
    elements = [g ** k for k in exponents]
    expected = _fold_ec_add([x.value for x in elements], q)
    assert curve.product(elements).value == expected


@pytest.mark.parametrize("q, p", TINY_CURVES)
def test_product_exhaustive_on_short_lists(q, p):
    group = make_curve_group(CurveParams(q=q, p=p))
    elements = [group.generator() ** k for k in range(p)]
    for size in (1, 2, 3):
        for operands in itertools.product(elements, repeat=size):
            expected = _fold_ec_add([x.value for x in operands], q)
            assert group.product(list(operands)).value == expected, operands


@settings(max_examples=25)
@given(traces=st.lists(st.integers(0, 100), min_size=1, max_size=8))
def test_mock_product_is_the_trace_sum(traces):
    group = make_mock_group(101)
    elements = [group.generator() ** t for t in traces]
    assert group.product(elements).value == sum(traces) % 101


@pytest.mark.parametrize("q, p", TINY_CURVES)
def test_generator_exp_matches_oracle_over_two_periods(q, p):
    # two periods either side of 0
    group = make_curve_group(CurveParams(q=q, p=p))
    g = group.generator()
    for k in range(-2 * p, 2 * p):
        assert group.exp(g, k).value == oracles.ec_mul(k, g.value, q), k
    # the one-row table holds [d]g for d < 16, so [p]g and [2p]g are infinity
    assert group._generator_table[0][p] is None
    assert group._generator_table[0][2 * p] is None


@settings(max_examples=25)
@given(data=st.data())
def test_generator_exp_matches_oracle(curve, data):
    p = curve.order
    k = data.draw(st.integers(-3 * p, 3 * p), label="k")
    g = curve.generator()
    assert curve.exp(g, k).value == oracles.ec_mul(k, g.value, curve.q)


# -- g's radix-16 table against double-and-add --------------------------

TABLE_Q = dict(LADDER_Q, q256=(
    57896044618658097711785492504343953926634992332820282019728792003956564988963))


@pytest.fixture(scope="module", params=list(TABLE_Q.values()), ids=list(TABLE_Q))
def table_curve(request):
    q = request.param
    return make_curve_group(CurveParams(q=q, p=(q + 1) // 4))


def _table_edges(p):
    """0, 1, p - 1, and per row 16^j, 15 * 16^j and 16^(j+1) - 1."""
    edges = {0, 1, p - 1}
    for j in range(-(-p.bit_length() // 4)):
        edges |= {16**j, 15 * 16**j, 16 ** (j + 1) - 1}
    return sorted(edges)


def test_generator_table_matches_double_and_add_at_edge_scalars(table_curve):
    g = table_curve.generator()
    for k in _table_edges(table_curve.order):
        assert (g ** k).value == table_curve._pt_mul(k % table_curve.order, g.value), k


@settings(max_examples=25)
@given(data=st.data())
def test_generator_table_matches_double_and_add(table_curve, data):
    k = data.draw(st.integers(0, table_curve.order - 1), label="k")
    g = table_curve.generator()
    assert (g ** k).value == table_curve._pt_mul(k, g.value)


def test_generator_table_exhaustive_on_a_four_row_table():
    # p = 8243 = 0x2033: four rows, and every entry of the lower three is read
    q = LADDER_Q["q16"]
    group = make_curve_group(CurveParams(q=q, p=(q + 1) // 4))
    g = group.generator()
    assert len(group._generator_table) == 4
    for k in range(group.order):
        assert (g ** k).value == group._pt_mul(k, g.value), k


# -- GT powers: squaring through the norm ---------------------------------

@pytest.mark.parametrize("q, p", TINY_CURVES)
def test_gt_exp_matches_oracle_on_all_of_mu_p(q, p):
    group = make_curve_group(CurveParams(q=q, p=p))
    g = group.generator()
    base = group.pair(g, g)
    for a in range(p):
        x = base ** a
        for k in range(-2 * p, 2 * p):
            assert (x ** k).value == oracles.fq2_pow(x.value, k % p, q), (a, k)


@settings(max_examples=25)
@given(data=st.data())
def test_gt_exp_matches_oracle(curve, data):
    q, p = curve.q, curve.order
    g = curve.generator()
    x = curve.pair(g ** data.draw(st.integers(1, p - 1), label="a"), g)
    k = data.draw(st.integers(-3 * p, 3 * p), label="k")
    assert curve.exp(x, k).value == oracles.fq2_pow(x.value, k % p, q)


@pytest.mark.parametrize(
    "group", [make_mock_group(101), make_curve_group(CurveParams(q=59, p=5))],
    ids=["mock", "curve"],
)
def test_product_refuses_empty_and_gt_operands(group):
    g = group.generator()
    gt = group.pair(g, g)
    with pytest.raises(UsageError):
        group.product([])
    for operands in ([gt], [g, gt], [gt, g], [g, g, gt]):
        with pytest.raises(UsageError):
            group.product(operands)


# -- fixed-argument pairing: the line chain an element keeps ------------

@pytest.mark.parametrize("q, p", TINY_CURVES)
def test_pair_exhaustive_on_g(q, p):
    # each first argument builds its chain once and is then evaluated at
    # every element of G, the identity included
    group = make_curve_group(CurveParams(q=q, p=p))
    elements = [group.generator() ** k for k in range(p)]
    for P in elements:
        for Q in elements:
            expected = oracles.tate_pairing(P.value, Q.value, q, p)
            assert group.pair(P, Q).value == expected, (P, Q)


@settings(max_examples=10)
@given(data=st.data())
def test_stored_chain_pairs_like_the_oracle(curve, data):
    q, p = curve.q, curve.order
    g = curve.generator()
    P = g ** data.draw(st.integers(1, p - 1), label="a")
    exponents = data.draw(st.lists(st.integers(1, p - 1), min_size=2, max_size=3),
                          label="b")
    for b in exponents:
        Q = g ** b
        assert curve.pair(P, Q).value == oracles.tate_pairing(P.value, Q.value, q, p)
    assert P._cache is not None


@settings(max_examples=10)
@given(data=st.data())
def test_alternating_first_arguments_keep_their_own_chains(curve, data):
    q, p = curve.q, curve.order
    g = curve.generator()
    a1 = data.draw(st.integers(1, p - 1), label="a1")
    a2 = data.draw(st.integers(1, p - 1).filter(lambda a: a != a1), label="a2")
    firsts = (g ** a1, g ** a2)
    Q = g ** data.draw(st.integers(1, p - 1), label="b")
    R = g ** data.draw(st.integers(1, p - 1), label="c")
    for first, second in ((0, Q), (1, Q), (0, R), (1, R)):
        P = firsts[first]
        expected = oracles.tate_pairing(P.value, second.value, q, p)
        assert curve.pair(P, second).value == expected, first


def test_chain_stored_through_one_group_serves_an_equal_group():
    q = LADDER_Q["q64"]
    first = make_curve_group(CurveParams(q=q, p=(q + 1) // 4))
    second = make_curve_group(CurveParams(q=q, p=(q + 1) // 4))
    assert first is not second and first == second
    g = first.generator()
    P, Q = g ** 12345, g ** 678
    value = first.pair(P, Q)
    chain = P._cache
    assert chain is not None
    assert second.pair(P, Q) == value
    assert P._cache is chain
    assert value.value == oracles.tate_pairing(P.value, Q.value, q, first.order)


def test_identity_operands_pair_to_the_identity(curve):
    g, one = curve.generator(), curve.identity_gt()
    identity = curve.identity_g()
    curve.pair(g, g)
    assert g._cache is not None
    assert curve.pair(g, identity) == one
    assert curve.pair(identity, g) == one
    assert curve.pair(identity, identity) == one
    assert identity._cache is None


def test_stored_chain_is_invisible_to_equality_hash_repr_and_encode(curve):
    g = curve.generator()
    P, twin = g ** 3, g ** 3
    seen = (hash(P), repr(P), curve.encode(P))
    curve.pair(P, g)
    assert P._cache is not None and twin._cache is None
    assert P == twin and hash(P) == hash(twin)
    assert (hash(P), repr(P), curve.encode(P)) == seen
    assert (repr(twin), curve.encode(twin)) == seen[1:]
    assert len({P, twin}) == 1


def test_mock_pair_leaves_the_cache_slot_empty():
    group = make_mock_group(101)
    P = group.generator() ** 3
    group.pair(P, P)
    assert P._cache is None
