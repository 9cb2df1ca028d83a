"""Boneh-Gentry-Waters broadcast key encapsulation.

Setup publishes PK = (g, g_1, ..., g_n, g_{n+2}, ..., g_{2n}, v) with
g_i = g^(alpha^i) and v = g^gamma; the power g_{n+1} is the deliberate hole
in the sequence. User i holds d_i = g_i^gamma. A broadcaster picks t and
sends the constant-size header (C0, C1) = (g^t, (v * prod_{j in S}
g_{n+1-j})^t); the session key is K = e(g_{n+1}, g)^t, which the
broadcaster obtains without knowing g_{n+1} as e(g_n, g_1)^t. Recipient
i in S recovers

    K = e(g_i, C1) / e(d_i * prod_{j in S, j != i} g_{n+1-j+i}, C0)

where every required power sits at an index other than n+1, precisely
because j != i. Users outside S would need the hole itself, so
decapsulation refuses them outright.

All randomness comes from an explicit rng with the random.Random
interface, making every output reproducible from a seed.
"""

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .errors import DecodeError, MembershipError, ParameterError, SetError, UsageError
from .groups import BilinearGroup, GElement, GTElement


class RecipientSet:
    """Sorted, duplicate-free set of 1-based recipient indices."""

    __slots__ = ("indices",)

    def __init__(self, indices: Iterable[int]):
        idx = list(indices)
        if not idx:
            raise SetError("recipient set is empty")
        for i in idx:
            if not isinstance(i, int) or isinstance(i, bool) or i < 1:
                raise SetError(f"invalid recipient index {i!r}")
        if len(set(idx)) != len(idx):
            raise SetError("duplicate recipient index")
        self.indices = tuple(sorted(idx))

    @classmethod
    def coerce(cls, value: Union["RecipientSet", Iterable[int]]) -> "RecipientSet":
        if isinstance(value, cls):
            return value
        return cls(value)

    @classmethod
    def parse(cls, text: str) -> "RecipientSet":
        """Parse a comma-separated index list such as '1,3,4'."""
        try:
            indices = [int(tok) for tok in text.split(",")]
        except ValueError:
            raise SetError(f"cannot parse recipient set {text!r}") from None
        return cls(indices)

    def check_bound(self, n: int) -> None:
        if self.indices[-1] > n:
            raise SetError(
                f"recipient index {self.indices[-1]} exceeds user count {n}"
            )

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __eq__(self, other):
        if not isinstance(other, RecipientSet):
            return NotImplemented
        return self.indices == other.indices

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return f"RecipientSet({list(self.indices)})"


@dataclass(frozen=True, eq=True)
class PublicKey:
    """The published tuple: g, the 2n-1 powers around the hole, and v."""

    n: int
    group: BilinearGroup
    g: GElement
    # index -> GElement for 1..n and n+2..2n; n+1 is refused. Stored as
    # a read-only copy of the mapping passed in, so no caller can add the
    # hole later. Compared by == but left out of the hash, since a mapping
    # has none.
    powers: Mapping[int, GElement] = field(hash=False)
    v: GElement

    def __post_init__(self):
        object.__setattr__(self, "powers", MappingProxyType(dict(self.powers)))
        if self.n + 1 in self.powers:
            raise UsageError(f"power {self.n + 1} is the hole and is never published")

    def power(self, i: int) -> GElement:
        if i == self.n + 1:
            raise UsageError(f"power {i} is the hole and is never published")
        try:
            return self.powers[i]
        except KeyError:
            raise UsageError(f"power index {i} out of range for n={self.n}") from None


@dataclass(frozen=True)
class PrivateKeyShare:
    """User i's decapsulation share d_i = g_i^gamma."""

    index: int
    d: GElement


@dataclass(frozen=True)
class Header:
    """Broadcast header (C0, C1); always exactly two G elements."""

    c0: GElement
    c1: GElement


@dataclass(frozen=True)
class SessionKey:
    """The encapsulated GT element shared by broadcaster and recipients."""

    k: GTElement


def _order_exceeds(a: int, p: int, bound: int) -> bool:
    """True iff the multiplicative order of a mod p is greater than bound."""
    acc = 1
    for _ in range(bound):
        acc = acc * a % p
        if acc == 1:
            return False
    return True


def check_user_count(n: int, p: int) -> None:
    """Raise ParameterError unless setup can serve n users in a group of order p.

    setup needs an alpha whose multiplicative order mod p exceeds 2n, and
    every element of Z_p^* has order at most p - 1, hence 2n < p - 1.
    """
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"user count must be a positive integer, got {n!r}")
    if 2 * n >= p - 1:
        raise ParameterError(
            f"no element of Z_{p}^* has order above 2n={2 * n}; reduce n"
        )


def setup(n: int, group: BilinearGroup, rng) -> tuple[PublicKey, list[PrivateKeyShare]]:
    """Generate the public key and all n private shares.

    alpha is redrawn until its multiplicative order exceeds 2n, so the hole
    power alpha^(n+1) cannot collide with any published power at desk-sized
    moduli; check_user_count guarantees that such an alpha exists.
    """
    p = group.order
    check_user_count(n, p)

    alpha = rng.randrange(1, p)
    while not _order_exceeds(alpha, p, 2 * n):
        alpha = rng.randrange(1, p)
    # gamma must avoid alpha^(n+1), else v = g^gamma would reveal the hole
    # power and break the published-tuple invariant.
    hole_exponent = pow(alpha, n + 1, p)
    gamma = rng.randrange(1, p)
    while gamma == hole_exponent:
        gamma = rng.randrange(1, p)

    g = group.generator()
    powers = {}
    apow = 1
    for i in range(1, 2 * n + 1):
        apow = apow * alpha % p
        powers[i] = group.exp(g, apow)
    # The hole: materialized like every other power, then dropped so that
    # nothing downstream can ever see or serialize it.
    powers.pop(n + 1)

    v = group.exp(g, gamma)
    pk = PublicKey(n=n, group=group, g=g, powers=powers, v=v)
    shares = [
        PrivateKeyShare(index=i, d=group.exp(powers[i], gamma))
        for i in range(1, n + 1)
    ]
    return pk, shares


def encaps(recipients, pk: PublicKey, rng) -> tuple[Header, SessionKey]:
    """Encapsulate a fresh session key to the recipient set.

    Returns (Header, SessionKey); the caller never chooses the key, it is a
    function of the broadcaster's randomness t.
    """
    s = RecipientSet.coerce(recipients)
    s.check_bound(pk.n)
    p = pk.group.order
    t = rng.randrange(1, p)

    base = pk.v
    for j in s:
        base = base * pk.power(pk.n + 1 - j)
    header = Header(c0=pk.g ** t, c1=base ** t)
    # e(g_{n+1}, g) is unobtainable directly (the hole), but equals
    # e(g_n, g_1) by bilinearity.
    k = pk.group.pair(pk.power(pk.n), pk.power(1)) ** t
    return header, SessionKey(k)


def decaps(recipients, i: int, share: PrivateKeyShare, header: Header,
           pk: PublicKey) -> SessionKey:
    """Recover the session key as user i, who must be in the recipient set."""
    s = RecipientSet.coerce(recipients)
    s.check_bound(pk.n)
    if i not in s:
        raise MembershipError(f"user {i} is not a recipient")
    if share.index != i:
        raise UsageError(f"share is for user {share.index}, not user {i}")

    numerator = pk.group.pair(pk.power(i), header.c1)
    acc = share.d
    for j in s:
        if j != i:
            acc = acc * pk.power(pk.n + 1 - j + i)
    denominator = pk.group.pair(acc, header.c0)
    return SessionKey(numerator / denominator)


def verify_share(pk: PublicKey, share: PrivateKeyShare) -> bool:
    """Publicly check share well-formedness: e(d_i, g) == e(g_i, v)."""
    if not 1 <= share.index <= pk.n:
        return False
    lhs = pk.group.pair(share.d, pk.g)
    rhs = pk.group.pair(pk.power(share.index), pk.v)
    return lhs == rhs


def encode_header(group: BilinearGroup, header: Header) -> bytes:
    """Fixed-width header bytes: encode(C0) || encode(C1)."""
    return group.encode(header.c0) + group.encode(header.c1)


def decode_header(group: BilinearGroup, data: bytes) -> Header:
    size = group.g_encoded_size
    if len(data) != 2 * size:
        raise DecodeError(f"header must be {2 * size} bytes, got {len(data)}")
    return Header(c0=group.decode_g(data[:size]), c1=group.decode_g(data[size:]))
