"""Small number-theory helpers: primality testing, the Jacobi symbol and
two bounded multiplicative-order computations.

Everything here targets desk-scale inputs. The Miller-Rabin test is
deterministic below 3.3 * 10**24 via a fixed witness set and falls back to
64 pseudo-random rounds above that, which is ample for test-sized moduli.

order_up_to scans a^1, a^2, ... up to a caller's bound. multiplicative_order
works from the factors of p - 1 instead, found by trial division up to
TRIAL_DIVISION_BOUND, so its work does not grow with p: it either finds the
order or raises ParameterError.
"""

import random

from .errors import ParameterError

# Deterministic Miller-Rabin witnesses for n < 3,317,044,064,679,887,385,961,981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

# multiplicative_order trial-divides p - 1 by 2 and the odd numbers up to
# this bound, about 33 000 divisions at most.
TRIAL_DIVISION_BOUND = 2**16


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


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n), 0, 1 or -1, for odd n > 0.

    The binary algorithm (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 1.4.10): strip the factors of two, each of which flips the
    sign when n = 3 or 5 mod 8, then swap a and n by reciprocity, which
    flips it when both are 3 mod 4. For a prime n it is Euler's criterion,
    a^((n-1)/2) mod n, in about half the time at 160 bits.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"the Jacobi symbol needs an odd n > 0, got {n}")
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos % 2 and n % 8 in (3, 5):
            result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


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


def multiplicative_order(a: int, p: int) -> int:
    """The order of a mod a prime p that does not divide a.

    Trial division up to TRIAL_DIVISION_BOUND splits p - 1 = F * R, where
    F is the product of the prime powers found. When R is 1 or prime, p - 1
    is fully factored and the order is p - 1 reduced prime by prime. When R
    is composite, its factors are unknown; the order is still found when it
    divides F, that is when a^F = 1, and otherwise ParameterError is raised.
    """
    if a % p == 0:
        raise ParameterError(f"{a} has no multiplicative order mod {p}")
    rest = p - 1
    factors = []
    d = 2
    while d <= TRIAL_DIVISION_BOUND and d * d <= rest:
        if rest % d == 0:
            factors.append(d)
            while rest % d == 0:
                rest //= d
        d += 1 if d == 2 else 2
    order = p - 1
    if is_prime(rest):
        factors.append(rest)
    elif rest > 1:
        order //= rest
        if pow(a, order, p) != 1:
            raise ParameterError(
                f"the order of {a} mod {p} is not found: p - 1 has a composite "
                f"factor with no prime factor up to {TRIAL_DIVISION_BOUND}"
            )
    for r in factors:
        while order % r == 0 and pow(a, order // r, p) == 1:
            order //= r
    return order
