import pytest
from hypothesis import given, strategies as st

from bgwkem import ParameterError
from bgwkem.primes import is_prime, jacobi, multiplicative_order, order_up_to
from oracles import prime_factors

PRIMES_BELOW_1000 = [n for n in range(2, 1000) if is_prime(n)]
Q160 = 730750818665451459101842416358141509827966272147
# 4 * P160 - 1 is the q160 ladder curve's q. P160 - 1 = 4 * 43 * m, where m
# is a 150-bit composite with no prime factor up to 2^16.
P160 = 182687704666362864775460604089535377456991568037


def test_is_prime_small():
    primes_below_100 = {
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
        53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    }
    for n in range(-5, 100):
        assert is_prime(n) == (n in primes_below_100)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(41041)
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime((2**31 - 1) * (2**61 - 1))


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(22) == [2, 11]
    assert prime_factors(60) == [2, 3, 5]
    assert prime_factors(97) == [97]
    assert prime_factors(2**10 * 3**4) == [2, 3]
    with pytest.raises(ValueError):
        prime_factors(0)


@given(data=st.data())
def test_order_up_to_matches_a_pow_scan(data):
    p = data.draw(st.sampled_from(PRIMES_BELOW_1000))
    # every residue class, 0 among them, with multiples of p drawn often
    a = data.draw(st.integers(-2 * p, 2 * p) | st.integers(-3, 3).map(lambda m: m * p))
    bound = data.draw(st.integers(0, p))
    naive = next((k for k in range(1, bound + 1) if pow(a, k, p) == 1), None)
    assert order_up_to(a, p, bound) == naive


def test_multiplicative_order_matches_order_up_to():
    for p in range(2, 3000):
        if is_prime(p):
            for a in {*range(1, min(p, 12)), p - 1, p + 2, -3}:
                if a % p:
                    assert multiplicative_order(a, p) == order_up_to(a, p, p - 1), (a, p)
    with pytest.raises(ParameterError):
        multiplicative_order(2 * 101, 101)


def test_multiplicative_order_past_the_trial_division_bound():
    m = (P160 - 1) // (4 * 43)
    assert m.bit_length() == 150 and not is_prime(m)
    assert all(m % d for d in range(2, 2**16 + 1))
    # q160 = -1 mod P160, so its order divides the factored part 4 * 43
    assert multiplicative_order(4 * P160 - 1, P160) == 2
    assert multiplicative_order(P160 - 1, P160) == 2
    assert multiplicative_order(1, P160) == 1
    # 5's order is not inside the factored part, and m cannot be split
    assert pow(5, 4 * 43, P160) != 1
    with pytest.raises(ParameterError, match="composite factor"):
        multiplicative_order(5, P160)


def _euler(a, p):
    """The Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    power = pow(a, (p - 1) // 2, p)
    return -1 if power == p - 1 else power


def _multiplicity(r, n):
    k = 0
    while n % r == 0:
        n //= r
        k += 1
    return k


def test_jacobi_is_eulers_criterion_for_odd_primes():
    for n in range(3, 2000, 2):
        if is_prime(n):
            for a in range(n):
                assert jacobi(a, n) == _euler(a, n), (a, n)
    assert jacobi(-1, 7) == -1 and jacobi(9, 7) == jacobi(2, 7) == 1


def test_jacobi_is_the_product_of_legendre_symbols_for_odd_composites():
    legendre = {}
    for n in range(1, 2000, 2):
        if is_prime(n):
            continue
        # n = 1 has no prime factor, and (a/1) = 1
        factors = [r for r in prime_factors(n) for _ in range(_multiplicity(r, n))]
        for r in factors:
            legendre.setdefault(r, [_euler(a, r) for a in range(r)])
        for a in range(n):
            expected = 1
            for r in factors:
                expected *= legendre[r][a % r]
            assert jacobi(a, n) == expected, (a, n)


@given(a=st.integers(-(2**170), 2**170))
def test_jacobi_is_eulers_criterion_at_160_bits(a):
    assert jacobi(a, Q160) == _euler(a, Q160)
    assert jacobi(a, P160) == _euler(a, P160)


def test_jacobi_refuses_even_and_nonpositive_moduli():
    for n in (0, -3, 2, 100):
        with pytest.raises(ValueError, match="odd n > 0"):
            jacobi(1, n)
