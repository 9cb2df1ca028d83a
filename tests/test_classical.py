import inspect
import random

import pytest

import oracles
from bgwkem import (
    DhParams,
    ParameterError,
    dh_contribute,
    dh_derive,
    rsa_decrypt,
    rsa_encrypt,
    rsa_keygen,
)
from conftest import time_limit


class TestDiffieHellman:
    def test_params_accept_generator(self):
        DhParams(p=23, g=5)
        DhParams(p=23, g=7)

    def test_params_reject_non_generator(self):
        # 2 has order 11 mod 23 (2^11 = 2048 = 1 mod 23)
        assert pow(2, 11, 23) == 1
        with pytest.raises(ParameterError):
            DhParams(p=23, g=2)
        with pytest.raises(ParameterError):
            DhParams(p=23, g=1)
        for g in (0, 23):
            with pytest.raises(ParameterError, match="out of range"):
                DhParams(p=23, g=g)

    def test_params_decide_large_p_quickly(self):
        # p = 2r + 1 with r prime: 2 is a square mod p, so its order is r
        p = 1208925819614629174708367
        with time_limit(5):
            with pytest.raises(ParameterError, match="does not generate"):
                DhParams(p=p, g=2)
            DhParams(p=p, g=5)
            # p - 1 = 4 * 43 * m with m a composite of primes above 2^16, and
            # 5's order does not divide 4 * 43: the order cannot be checked
            with pytest.raises(ParameterError, match="not found"):
                DhParams(p=182687704666362864775460604089535377456991568037, g=5)

    def test_params_reject_composite_modulus(self):
        with pytest.raises(ParameterError):
            DhParams(p=21, g=2)

    def test_contribute_forced_exponents(self, scripted):
        params = DhParams(p=23, g=5)
        contribution = dh_contribute(params, scripted([6]))
        assert contribution.public == 8  # 5^6 mod 23, modexp oracle
        assert contribution.private == 6
        assert dh_contribute(params, scripted([15])).public == 19
        assert dh_contribute(params, scripted([1])).public == 5

    def test_exponent_range(self):
        params = DhParams(p=23, g=5)
        for seed in range(50):
            x = dh_contribute(params, random.Random(seed)).private
            assert 1 <= x <= 21  # [1, p-2]

    def test_agreement_pinned_case(self):
        params = DhParams(p=23, g=5)
        ka = dh_derive(pow(5, 15, 23), 6, params)
        kb = dh_derive(pow(5, 6, 23), 15, params)
        assert ka == kb == 2

    @pytest.mark.parametrize("p,g", [(23, 5), (47, 5), (101, 2)])
    def test_agreement_exhaustive_small(self, p, g):
        params = DhParams(p=p, g=g)
        publics = {x: pow(g, x, p) for x in range(1, p - 1)}
        for x in range(1, p - 1):
            for y in range(1, p - 1):
                assert dh_derive(publics[y], x, params) == dh_derive(
                    publics[x], y, params
                )

    def test_degenerate_and_invalid_peer(self):
        params = DhParams(p=23, g=5)
        assert dh_derive(1, 13, params) == 1
        with pytest.raises(ParameterError):
            dh_derive(0, 13, params)
        with pytest.raises(ParameterError):
            dh_derive(23, 13, params)


class TestRsa:
    def test_keygen(self):
        kp = rsa_keygen(5, 11, 3)
        assert (kp.n, kp.d) == (55, 27)
        assert 3 * 27 % 40 == 1
        # independent extended-Euclid oracle
        assert oracles.egcd_inverse(3, 40) == 27

    def test_keygen_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            rsa_keygen(5, 11, 5)  # gcd(5, 40) = 5
        with pytest.raises(ParameterError):
            rsa_keygen(5, 5, 3)  # p = q
        with pytest.raises(ParameterError):
            rsa_keygen(4, 11, 3)  # composite
        with pytest.raises(ParameterError):
            rsa_keygen(2, 11, 3)  # even prime
        for q in (2, 9):
            with pytest.raises(ParameterError, match="q = "):
                rsa_keygen(5, q, 3)

    def test_encrypt_pinned(self):
        assert rsa_encrypt(7, 55, 3) == 13  # 7^3 = 343 = 13 mod 55
        assert rsa_encrypt(0, 55, 3) == 0
        assert rsa_encrypt(1, 55, 3) == 1

    def test_decrypt_pinned_and_crt_oracle(self):
        kp = rsa_keygen(5, 11, 3)
        assert rsa_decrypt(13, kp) == 7
        assert oracles.crt_rsa_decrypt(13, kp.d, 5, 11) == 7

    def test_message_range_enforced(self):
        kp = rsa_keygen(5, 11, 3)
        with pytest.raises(ParameterError):
            rsa_encrypt(55, 55, 3)
        with pytest.raises(ParameterError):
            rsa_encrypt(-1, 55, 3)
        with pytest.raises(ParameterError):
            rsa_decrypt(55, kp)

    def test_bijection_on_z55(self):
        kp = rsa_keygen(5, 11, 3)
        images = {rsa_encrypt(m, kp.n, kp.e) for m in range(55)}
        assert images == set(range(55))
        for m in range(55):
            c = rsa_encrypt(m, kp.n, kp.e)
            assert rsa_decrypt(c, kp) == m
            assert oracles.crt_rsa_decrypt(c, kp.d, 5, 11) == m

    def test_non_unit_messages_round_trip(self):
        kp = rsa_keygen(5, 11, 3)
        for m in (5, 11, 22, 25, 50):  # all share a factor with 55
            assert rsa_decrypt(rsa_encrypt(m, kp.n, kp.e), kp) == m


class TestApiShape:
    """The structural distinction: messages are inputs, keys are outputs."""

    def test_rsa_takes_a_preexisting_message(self):
        params = inspect.signature(rsa_encrypt).parameters
        assert list(params) == ["m", "n", "e"]

    def test_dh_returns_the_key(self):
        params = inspect.signature(dh_derive).parameters
        assert "k" not in {name.lower() for name in params}
        assert list(params) == ["peer_public", "own_private", "params"]

    def test_no_operation_accepts_a_session_key(self):
        import bgwkem.classical as classical
        import bgwkem.kem as kem

        for module in (classical, kem):
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if name.startswith("_"):
                    continue
                for parameter in inspect.signature(fn).parameters.values():
                    label = parameter.name.lower()
                    assert "session" not in label
                    assert label not in {"k", "key", "shared_key"}, (name, label)
