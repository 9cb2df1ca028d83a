import pytest
from hypothesis import given, strategies as st

from bgwkem import (
    CurveParams,
    DecodeError,
    ParameterError,
    UsageError,
    make_curve_group,
    make_group,
    make_mock_group,
)
from bgwkem.groups import GElement, GTElement


def test_rejects_bad_order():
    for bad in (0, 1, 4, -7, 100):
        with pytest.raises(ParameterError):
            make_mock_group(bad)
    # primes below 5 are also out
    with pytest.raises(ParameterError):
        make_mock_group(3)


def test_generator_and_identities(mock101):
    assert mock101.generator().value == 1
    assert mock101.identity_g().value == 0
    assert mock101.identity_gt().value == 0


def test_exp_traces(mock101):
    g = mock101.generator()
    assert (g ** 8).value == 8
    assert (g ** 0) == mock101.identity_g()
    assert ((g ** 2) ** 3).value == 6  # exponent oracle: 2 * 3


def test_mul_div_traces(mock101):
    g = mock101.generator()
    assert ((g ** 3) * (g ** 4)).value == 7
    x = g ** 29
    assert x / x == mock101.identity_g()
    gt = mock101.pair(g, g)
    assert ((gt ** 90) / (gt ** 50)).value == 40


def test_pair_traces(mock101):
    g = mock101.generator()
    assert mock101.pair(g ** 2, g ** 45).value == 90  # 2 * 45 mod 101
    assert mock101.pair(g ** 10, g ** 5).value == 50
    assert mock101.pair(mock101.identity_g(), g ** 37) == mock101.identity_gt()
    assert mock101.pair(g, mock101.identity_g()) == mock101.identity_gt()


def test_pair_small_prime():
    group = make_mock_group(5)
    g = group.generator()
    assert group.pair(g ** 3, g ** 4).value == 2  # 12 mod 5


def test_bilinearity_exhaustive_grid(mock101):
    g = mock101.generator()
    e = mock101.pair(g, g)
    for a in range(0, 101, 7):
        for b in range(0, 101, 5):
            assert mock101.pair(g ** a, g ** b) == e ** (a * b)


def test_element_orders(mock101):
    g = mock101.generator()
    assert (g ** 13) ** 101 == mock101.identity_g()
    gt = mock101.pair(g ** 3, g ** 7)
    assert gt ** 101 == mock101.identity_gt()


@given(a=st.integers(0, 100), b=st.integers(0, 100))
def test_mul_matches_trace_addition(a, b):
    group = make_mock_group(101)
    g = group.generator()
    assert ((g ** a) * (g ** b)).value == (a + b) % 101


@given(a=st.integers(0, 100), k=st.integers(-300, 300))
def test_exp_reduces_mod_order(a, k):
    group = make_mock_group(101)
    x = group.generator() ** a
    assert (x ** k).value == a * (k % 101) % 101


def test_encoding_round_trip(mock101):
    g = mock101.generator()
    for a in (0, 1, 40, 100):
        x = g ** a
        assert mock101.decode_g(mock101.encode(x)) == x
        y = mock101.pair(g, g) ** a
        assert mock101.decode_gt(mock101.encode(y)) == y


def test_encoding_is_canonical_and_fixed_width(mock101):
    g = mock101.generator()
    blobs = {mock101.encode(g ** a) for a in range(101)}
    assert len(blobs) == 101
    assert {len(b) for b in blobs} == {mock101.g_encoded_size}
    assert mock101.encode(mock101.identity_g()) == b"\x6d\x00"
    gt = mock101.pair(g, g)
    gt_blobs = {mock101.encode(gt ** a) for a in range(101)}
    assert len(gt_blobs) == 101
    assert {len(b) for b in gt_blobs} == {mock101.gt_encoded_size}


def test_decode_rejects_malformed(mock101):
    with pytest.raises(DecodeError):
        mock101.decode_g(b"\x6d")  # truncated
    with pytest.raises(DecodeError):
        mock101.decode_g(b"\x00\x05")  # bad tag
    with pytest.raises(DecodeError):
        mock101.decode_g(b"\x6d\x65")  # trace 101 not reduced
    with pytest.raises(DecodeError):
        mock101.decode_gt(b"\x6d\x05")  # G tag fed to GT decoder


# (build a group, build one with other parameters) per backend
_GROUP_PAIRS = {
    "mock": (lambda: make_mock_group(101), lambda: make_mock_group(103)),
    "curve": (lambda: make_curve_group(CurveParams(q=59, p=5)),
              lambda: make_curve_group(CurveParams(q=139, p=7))),
}


@pytest.mark.parametrize("backend", sorted(_GROUP_PAIRS))
def test_cross_group_mixing_is_rejected(backend):
    build, build_other = _GROUP_PAIRS[backend]
    group, other = build(), build_other()
    with pytest.raises(UsageError):
        group.mul(group.generator(), other.generator())
    with pytest.raises(UsageError):
        group.pair(group.generator(), other.generator())
    assert group != other
    assert group.generator() != other.generator()


@pytest.mark.parametrize("backend", sorted(_GROUP_PAIRS))
def test_groups_with_equal_parameters_are_one_group(backend):
    # key files are read into separately built groups, which must mix
    build, _ = _GROUP_PAIRS[backend]
    group, twin = build(), build()
    assert group is not twin
    assert group == twin and hash(group) == hash(twin)
    g, h = group.generator(), twin.generator()
    assert g == h and hash(g) == hash(h)
    e, f = group.pair(g, g), twin.pair(h, h)
    assert e == f and hash(e) == hash(f)
    assert group.mul(g, h) == twin.mul(h, g) == g ** 2
    assert group.pair(g, h) == twin.pair(h, g) == e


@pytest.mark.parametrize("backend", sorted(_GROUP_PAIRS))
def test_make_group_inverts_describe(backend):
    group = _GROUP_PAIRS[backend][0]()
    name, *fields = group.describe().split()
    rebuilt = make_group(name, **{k: int(v) for k, v in (f.split("=") for f in fields)})
    assert rebuilt == group
    assert rebuilt.describe() == group.describe()


def test_describe_strings_are_pinned():
    assert make_mock_group(101).describe() == "mock p=101"
    assert make_curve_group(CurveParams(q=59, p=5)).describe() == "curve q=59 p=5"


@pytest.mark.parametrize("backend, params", [
    ("weird", {"p": 101}),
    ("mock", {}),
    ("mock", {"p": 101, "q": 59}),
    ("mock", {"backend": 101}),
    ("curve", {"p": 5}),
    ("curve", {"q": 59, "p": 7}),  # 7 does not divide q + 1
    ("mock", {"p": 100}),
])
def test_make_group_rejects_bad_parameters(backend, params):
    with pytest.raises(ParameterError):
        make_group(backend, **params)


@pytest.mark.parametrize("backend", sorted(_GROUP_PAIRS))
def test_g_and_gt_do_not_mix(backend):
    group = _GROUP_PAIRS[backend][0]()
    g = group.generator()
    gt = group.pair(g, g)
    for a, b in ((g, gt), (gt, g)):
        with pytest.raises(UsageError):
            group.mul(a, b)
        with pytest.raises(UsageError):
            group.div(a, b)
        with pytest.raises(UsageError):
            group.pair(a, b)
    with pytest.raises(UsageError):
        group.pair(gt, gt)
    assert isinstance(g, GElement)
    assert isinstance(gt, GTElement)
    assert g != gt


@pytest.mark.parametrize("backend", sorted(_GROUP_PAIRS))
def test_non_elements_and_non_int_exponents_are_refused(backend):
    # both backends refuse the same calls, with the same error
    group = _GROUP_PAIRS[backend][0]()
    g = group.generator()
    gt = group.pair(g, g)
    for bad in (None, 3, g.value, gt.value):
        for call in (group.inverse, group.encode, lambda x: group.exp(x, 2),
                     lambda x: group.mul(g, x), lambda x: group.mul(x, gt)):
            with pytest.raises(UsageError):
                call(bad)
    for x in (g, gt):
        for exponent in (2.5, 2.0, "3", None):
            with pytest.raises(UsageError):
                group.exp(x, exponent)
            with pytest.raises(UsageError):
                x ** exponent
