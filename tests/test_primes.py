import pytest
from hypothesis import given, strategies as st

from bgwkem.primes import is_prime, order_up_to, prime_factors

PRIMES_BELOW_1000 = [n for n in range(2, 1000) if is_prime(n)]


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
