import itertools
import random

import pytest

import oracles
from bgwkem import (
    CurveParams,
    MembershipError,
    ParameterError,
    PrivateKeyShare,
    PublicKey,
    RecipientSet,
    SetError,
    UsageError,
    decaps,
    encaps,
    encode_header,
    decode_header,
    make_curve_group,
    setup,
    verify_share,
)


@pytest.fixture
def worked_example(mock101, scripted):
    """The running example: p=101, alpha=2, gamma=3, n=2."""
    pk, shares = setup(2, mock101, scripted([2, 3]))
    return mock101, pk, shares


class TestRecipientSet:
    def test_sorts_indices(self):
        assert RecipientSet([3, 1, 2]).indices == (1, 2, 3)

    def test_rejects_empty(self):
        with pytest.raises(SetError):
            RecipientSet([])

    def test_rejects_duplicates(self):
        with pytest.raises(SetError):
            RecipientSet([1, 1, 2])

    def test_rejects_non_positive_and_non_int(self):
        for bad in ([0], [-1], [1.5], ["2"], [True]):
            with pytest.raises(SetError):
                RecipientSet(bad)

    def test_parse(self):
        assert RecipientSet.parse("2,1").indices == (1, 2)
        with pytest.raises(SetError):
            RecipientSet.parse("1,x")
        with pytest.raises(SetError):
            RecipientSet.parse("")
        with pytest.raises(SetError):
            RecipientSet.parse("1,1")

    def test_coerce_passthrough(self):
        s = RecipientSet([1, 2])
        assert RecipientSet.coerce(s) is s
        assert RecipientSet.coerce({2, 1}) == s


class TestSetup:
    def test_worked_example_public_key(self, worked_example):
        _, pk, shares = worked_example
        assert pk.g.value == 1
        assert {i: e.value for i, e in pk.powers.items()} == {1: 2, 2: 4, 4: 16}
        assert pk.v.value == 3
        assert [(s.index, s.d.value) for s in shares] == [(1, 6), (2, 12)]

    def test_hole_power_absent(self, worked_example):
        _, pk, _ = worked_example
        # alpha^3 = 8 is the hole; no published trace equals it
        traces = {pk.g.value, pk.v.value} | {e.value for e in pk.powers.values()}
        assert 8 not in traces
        assert 3 not in pk.powers
        with pytest.raises(UsageError):
            pk.power(3)

    def test_public_key_refuses_the_hole(self, worked_example):
        group, pk, _ = worked_example
        powers = {**pk.powers, 3: pk.g ** 8}
        with pytest.raises(UsageError, match="hole"):
            PublicKey(n=pk.n, group=group, g=pk.g, powers=powers, v=pk.v)

    def test_public_key_element_count(self, worked_example):
        _, pk, _ = worked_example
        assert 2 + len(pk.powers) == 2 * pk.n + 1

    def test_public_key_powers_are_read_only(self, worked_example):
        group, pk, _ = worked_example
        with pytest.raises(TypeError):
            pk.powers[3] = pk.g
        assert 3 not in pk.powers
        passed = dict(pk.powers)
        copy = PublicKey(n=pk.n, group=group, g=pk.g, powers=passed, v=pk.v)
        passed[3] = pk.g
        del passed[1]
        assert dict(copy.powers) == dict(pk.powers)
        assert copy == pk and hash(copy) == hash(pk)

    def test_parameter_errors(self, mock101):
        rng = random.Random(0)
        with pytest.raises(ParameterError):
            setup(0, mock101, rng)
        with pytest.raises(ParameterError):
            setup(51, mock101, rng)  # 2n >= p
        with pytest.raises(ParameterError):
            setup(50, mock101, rng)  # 2n = p - 1: no usable alpha order

    def test_alpha_low_order_redraw(self, mock101, scripted):
        # 100 has order 2 mod 101, so it must be rejected for n >= 1
        pk, _ = setup(1, mock101, scripted([100, 2, 3]))
        assert pk.powers[1].value == 2
        assert pk.v.value == 3

    def test_gamma_avoids_hole_exponent(self, mock101, scripted):
        # alpha = 2, n = 2: hole exponent is 8; gamma = 8 must be redrawn
        pk, _ = setup(2, mock101, scripted([2, 8, 3]))
        assert pk.v.value == 3

    def test_share_well_formedness(self, worked_example):
        _, pk, shares = worked_example
        for share in shares:
            assert verify_share(pk, share)
        forged = PrivateKeyShare(index=1, d=shares[1].d)
        assert not verify_share(pk, forged)

    def test_determinism(self, mock101):
        pk1, shares1 = setup(3, mock101, random.Random(99))
        pk2, shares2 = setup(3, mock101, random.Random(99))
        assert pk1 == pk2
        assert shares1 == shares2
        h1, k1 = encaps({1, 3}, pk1, random.Random(7))
        h2, k2 = encaps({1, 3}, pk2, random.Random(7))
        assert encode_header(mock101, h1) == encode_header(mock101, h2)
        assert mock101.encode(k1.k) == mock101.encode(k2.k)


class TestEncaps:
    def test_worked_example_full_set(self, worked_example, scripted):
        _, pk, _ = worked_example
        header, key = encaps({1, 2}, pk, scripted([5]))
        assert (header.c0.value, header.c1.value) == (5, 45)
        assert key.k.value == 40

    def test_worked_example_singleton(self, worked_example, scripted):
        _, pk, _ = worked_example
        header, key = encaps({1}, pk, scripted([5]))
        assert (header.c0.value, header.c1.value) == (5, 35)
        assert key.k.value == 40

    def test_out_of_range_recipient(self, worked_example):
        _, pk, _ = worked_example
        with pytest.raises(SetError):
            encaps({3}, pk, random.Random(0))

    def test_caller_cannot_choose_key(self, worked_example):
        import inspect

        _, pk, _ = worked_example
        params = inspect.signature(encaps).parameters
        assert set(params) == {"recipients", "pk", "rng"}  # no key input

    def test_distinct_t_gives_distinct_keys(self, worked_example, scripted):
        _, pk, _ = worked_example
        _, k1 = encaps({1, 2}, pk, scripted([5]))
        _, k2 = encaps({1, 2}, pk, scripted([6]))
        assert k1 != k2


class TestDecaps:
    def test_worked_example_both_users(self, worked_example, scripted):
        _, pk, shares = worked_example
        header, key = encaps({1, 2}, pk, scripted([5]))
        for i in (1, 2):
            recovered = decaps({1, 2}, i, shares[i - 1], header, pk)
            assert recovered.k.value == 40
            assert recovered == key

    def test_decaps_intermediates_match_oracle(self, worked_example, scripted):
        _, pk, shares = worked_example
        header, _ = encaps({1, 2}, pk, scripted([5]))
        expected = oracles.kem_traces(101, 2, 2, 3, 5, (1, 2), 2)
        assert header.c1.value == expected["c1"]
        recovered = decaps({1, 2}, 2, shares[1], header, pk)
        assert recovered.k.value == expected["recovered"] == expected["k"]

    def test_non_member_refused(self, worked_example, scripted):
        _, pk, shares = worked_example
        header, _ = encaps({1}, pk, scripted([5]))
        with pytest.raises(MembershipError):
            decaps({1}, 2, shares[1], header, pk)

    def test_share_index_mismatch(self, worked_example, scripted):
        _, pk, shares = worked_example
        header, _ = encaps({1, 2}, pk, scripted([5]))
        with pytest.raises(UsageError):
            decaps({1, 2}, 1, shares[1], header, pk)

    def test_forged_share_recovers_wrong_key(self, worked_example, scripted):
        _, pk, shares = worked_example
        header, key = encaps({1, 2}, pk, scripted([5]))
        # claim index 1 but carry user 2's share value (trace 12)
        forged = PrivateKeyShare(index=1, d=shares[1].d)
        recovered = decaps({1, 2}, 1, forged, header, pk)
        # oracle: numerator 2*45=90, denominator (12+4)*5=80, 90-80=10
        assert recovered.k.value == 10
        assert recovered != key

    def test_correctness_sweep(self, mock101):
        for n in range(1, 5):
            for seed in (0, 1):
                rng = random.Random(seed)
                pk, shares = setup(n, mock101, rng)
                for size in range(1, n + 1):
                    for subset in itertools.combinations(range(1, n + 1), size):
                        header, key = encaps(subset, pk, rng)
                        for i in subset:
                            assert decaps(subset, i, shares[i - 1], header, pk) == key

    def test_curve_backend_round_trip(self):
        group = make_curve_group(CurveParams(q=103, p=13))
        rng = random.Random(5)
        pk, shares = setup(4, group, rng)
        header, key = encaps({1, 3, 4}, pk, rng)
        for i in (1, 3, 4):
            assert decaps({1, 3, 4}, i, shares[i - 1], header, pk) == key
        with pytest.raises(MembershipError):
            decaps({1, 3, 4}, 2, shares[1], header, pk)


class TestHeaderEncoding:
    def test_round_trip(self, worked_example, scripted):
        group, pk, _ = worked_example
        header, _ = encaps({1, 2}, pk, scripted([5]))
        data = encode_header(group, header)
        assert decode_header(group, data) == header

    def test_size_independent_of_set(self, mock101):
        rng = random.Random(1)
        sizes = set()
        for n in (1, 4):
            pk, _ = setup(n, mock101, rng)
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(1, n + 1), size):
                    header, _ = encaps(subset, pk, rng)
                    sizes.add(len(encode_header(mock101, header)))
        assert len(sizes) == 1
