"""Backend-independent interface for a symmetric prime-order pairing.

A :class:`BilinearGroup` bundles a source group G, a target group GT of the
same prime order p, and a non-degenerate symmetric map pair: G x G -> GT
with pair(g^a, g^b) = pair(g, g)^(a*b). Elements are opaque wrappers whose
``value`` field only the owning backend interprets; all arithmetic goes
through the group object, which refuses to mix elements from different
backends or parameter sets. A group is identified by its parameters alone:
two separately built groups with equal parameters are equal, and their
elements mix freely.

Every public op checks its operands with ``_claim`` and exp its exponent
with ``_exponent``: backends only compute, so both refuse misuse alike.

Elements support ``*``, ``/`` and ``**`` so protocol formulas read like the
algebra they implement. Groups and elements are immutable after
construction, except for one backend-private cache in each element (and,
on the curve, the group's radix-16 fixed-base table of g), filled on first
use and never part of equality, hashing, repr or encoding. Both are safe
to share across threads: two threads that race to fill a cache only
compute the same value twice. No randomness is consumed anywhere in this
package.
"""

from abc import ABC, abstractmethod
from collections.abc import Sequence
from functools import reduce

from ..errors import UsageError


class _Element:
    # _cache is the backend's to fill from value, once, on first use
    __slots__ = ("group", "value", "_cache")

    def __init__(self, group: "BilinearGroup", value):
        self.group = group
        self.value = value
        self._cache = None

    def __mul__(self, other):
        return self.group.mul(self, other)

    def __truediv__(self, other):
        return self.group.div(self, other)

    def __pow__(self, exponent: int):
        return self.group.exp(self, exponent)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.group == other.group and self.value == other.value

    def __hash__(self):
        return hash((type(self).__name__, self.group.params, self.value))

    def __repr__(self):
        return f"{type(self).__name__}({self.value!r})"


class GElement(_Element):
    """Element of the source group G."""


class GTElement(_Element):
    """Element of the pairing target group GT."""


_NO_OPERAND = object()  # _claim's default b; None is an operand passed by mistake


class BilinearGroup(ABC):
    """Symmetric pairing context of prime order ``self.order``.

    A backend is its group law, its pairing and its codec. Its constructor
    sets, once, the values that are facts about the group:

    - ``order``, the prime p;
    - ``params``, the group's identity: the backend name followed by
      (name, value) pairs, e.g. ``("curve", ("q", 59), ("p", 5))``;
    - ``g_encoded_size`` and ``gt_encoded_size``, the byte length of every
      encoded G and GT element;
    - ``_g``, ``_identity_g`` and ``_identity_gt``, the backend values of
      the canonical generator g of G and of the neutral elements of G and GT.

    This class derives the rest from them: ``generator()``, ``identity_g()``
    and ``identity_gt()`` wrap the three values, and equality, hashing and
    ``describe()`` come from ``params``, which ``groups.make_group`` inverts.
    """

    order: int
    params: tuple
    g_encoded_size: int
    gt_encoded_size: int
    _g: object
    _identity_g: object
    _identity_gt: object

    # -- construction-side values ------------------------------------

    def generator(self) -> GElement:
        """The canonical generator g of G."""
        return GElement(self, self._g)

    def identity_g(self) -> GElement:
        """Neutral element of G."""
        return GElement(self, self._identity_g)

    def identity_gt(self) -> GTElement:
        """Neutral element of GT."""
        return GTElement(self, self._identity_gt)

    # -- arithmetic ----------------------------------------------------

    @abstractmethod
    def mul(self, a, b):
        """Group law applied to two elements of the same group."""

    @abstractmethod
    def inverse(self, a):
        """Group inverse."""

    def div(self, a, b):
        return self.mul(a, self.inverse(b))

    def product(self, elements: Sequence[GElement]) -> GElement:
        """The product of a non-empty sequence of G elements.

        Raises UsageError on an empty sequence or on any operand that is not
        a G element of this group. This version folds mul, whose own checks
        cover every operand after the first; a backend with a cheaper n-ary
        law overrides it.
        """
        if not elements:
            raise UsageError("product of an empty sequence")
        self._claim(elements[0], kind=GElement)
        return reduce(self.mul, elements)

    @abstractmethod
    def exp(self, x, exponent: int):
        """x raised to an integer power; the exponent is reduced mod order."""

    @abstractmethod
    def pair(self, p: GElement, q: GElement) -> GTElement:
        """The bilinear map applied to two G elements."""

    # -- serialization ---------------------------------------------------

    @abstractmethod
    def encode(self, x) -> bytes:
        """Canonical fixed-width encoding; equal elements encode equally."""

    @abstractmethod
    def decode_g(self, data: bytes) -> GElement:
        """Inverse of encode for G elements; validates membership."""

    @abstractmethod
    def decode_gt(self, data: bytes) -> GTElement:
        """Inverse of encode for GT elements; validates membership."""

    # -- shared plumbing ---------------------------------------------

    def _claim(self, a, b=_NO_OPERAND, kind=None):
        """The kind, GElement or GTElement, of a and of b if given.

        Raises UsageError unless each operand is an element of this group,
        both are of one kind, and that kind is ``kind`` where one is given.
        """
        found = type(a)
        if found is not GElement and found is not GTElement:
            raise UsageError(f"expected a group element, got {found.__name__}")
        kind = kind or found
        if found is not kind or (b is not _NO_OPERAND and type(b) is not kind):
            raise UsageError(f"operands must all be {kind.__name__}")
        if (a.group is not self and a.group.params != self.params) or (
            b is not _NO_OPERAND and b.group is not self and b.group.params != self.params
        ):
            raise UsageError("element belongs to a different group")
        return found

    def _exponent(self, exponent) -> int:
        """exponent mod the group order; raises UsageError unless it is an int."""
        if not isinstance(exponent, int):
            raise UsageError(f"exponent must be an int, got {type(exponent).__name__}")
        return exponent % self.order

    def describe(self) -> str:
        """Stable parameter string, e.g. 'mock p=101' or 'curve q=59 p=5'."""
        backend, *fields = self.params
        return " ".join([backend] + [f"{name}={value}" for name, value in fields])

    def __eq__(self, other):
        if not isinstance(other, BilinearGroup):
            return NotImplemented
        return self.params == other.params

    def __hash__(self):
        return hash(self.params)

    def __repr__(self):
        return f"<{type(self).__name__} {self.describe()}>"
