"""Textbook Diffie-Hellman key agreement and RSA encryption.

These are the two classical reference points the broadcast KEM is compared
against: DH produces a shared key that neither party chose beforehand,
while RSA transports a caller-supplied message. Both are deliberately
bare-bones (no padding, no hashing, desk-scale parameters).
"""

import math
from dataclasses import dataclass

from .errors import ParameterError
from .primes import is_prime, multiplicative_order


@dataclass(frozen=True)
class DhParams:
    """Public prime p and generator g of the full group Z_p^*."""

    p: int
    g: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ParameterError(f"p = {self.p} is not prime")
        if not 1 <= self.g <= self.p - 1:
            raise ParameterError(f"generator {self.g} out of range")
        order = multiplicative_order(self.g, self.p)
        if order != self.p - 1:
            raise ParameterError(
                f"{self.g} does not generate Z_{self.p}^* (its order is {order})"
            )


@dataclass(frozen=True)
class DhContribution:
    """One party's exchange message g^x and the private exponent behind it."""

    public: int
    private: int


def dh_contribute(params: DhParams, rng) -> DhContribution:
    """Draw x uniformly from [1, p-2] and publish g^x mod p."""
    x = rng.randrange(1, params.p - 1)
    return DhContribution(public=pow(params.g, x, params.p), private=x)


def dh_derive(peer_public: int, own_private: int, params: DhParams) -> int:
    """Shared key K = peer^x mod p; both sides compute the same value."""
    if not 1 <= peer_public <= params.p - 1:
        raise ParameterError(f"peer value {peer_public} outside [1, p-1]")
    return pow(peer_public, own_private, params.p)


@dataclass(frozen=True)
class RsaKeyPair:
    n: int
    e: int
    d: int
    p: int
    q: int


def rsa_keygen(p: int, q: int, e: int) -> RsaKeyPair:
    """Build a keypair from two distinct odd primes and a public exponent."""
    if not is_prime(p) or p == 2:
        raise ParameterError(f"p = {p} is not an odd prime")
    if not is_prime(q) or q == 2:
        raise ParameterError(f"q = {q} is not an odd prime")
    if p == q:
        raise ParameterError("p and q must be distinct")
    phi = (p - 1) * (q - 1)
    if e < 1 or math.gcd(e, phi) != 1:
        raise ParameterError(f"e = {e} is not invertible mod phi = {phi}")
    d = pow(e, -1, phi)
    return RsaKeyPair(n=p * q, e=e, d=d, p=p, q=q)


def rsa_encrypt(m: int, n: int, e: int) -> int:
    """c = m^e mod n for a pre-existing message m in Z_n."""
    if not 0 <= m < n:
        raise ParameterError(f"message {m} outside Z_{n}")
    return pow(m, e, n)


def rsa_decrypt(c: int, keypair: RsaKeyPair) -> int:
    """m = c^d mod n."""
    if not 0 <= c < keypair.n:
        raise ParameterError(f"ciphertext {c} outside Z_{keypair.n}")
    return pow(c, keypair.d, keypair.n)
