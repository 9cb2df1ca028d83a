"""Small number-theory helpers: primality testing, trial-division factoring
and a bounded multiplicative-order search.

Everything here targets desk-scale inputs. The Miller-Rabin test is
deterministic below 3.3 * 10**24 via a fixed witness set and falls back to
64 pseudo-random rounds above that, which is ample for test-sized moduli.
"""

import random

# Deterministic Miller-Rabin witnesses for n < 3,317,044,064,679,887,385,961,981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Return True iff n is prime."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_BOUND:
        witnesses = _MR_WITNESSES
    else:
        rnd = random.Random(n)
        witnesses = tuple(rnd.randrange(2, n - 1) for _ in range(64))
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def order_up_to(a: int, p: int, bound: int) -> int | None:
    """The smallest k in 1..bound with a^k = 1 (mod p), else None.

    It takes at most bound multiplications.
    """
    acc = 1
    for k in range(1, bound + 1):
        acc = acc * a % p
        if acc == 1:
            return k
    return None


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n in ascending order, by trial division."""
    if n < 1:
        raise ValueError("n must be positive")
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors
