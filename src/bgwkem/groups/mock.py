"""Exponent-trace mock backend.

Every element of G and GT is stored as its discrete log relative to the
canonical generator, so the whole pairing algebra collapses to integer
arithmetic mod p: exp adds a factor to the trace, mul adds traces, and
pair multiplies them. That makes every protocol identity checkable by
hand, which is the entire point of this backend.
"""

from ..errors import DecodeError, ParameterError, quote_value
from ..primes import is_prime
from .base import BilinearGroup, GElement, GTElement, check_modulus_bits

_G_TAG = 0x6D  # ASCII 'm'
_GT_TAG = 0x74  # ASCII 't'


class MockGroup(BilinearGroup):
    """Pairing group whose elements carry their own discrete logs."""

    def __init__(self, p: int):
        check_modulus_bits("group order", p)
        if not isinstance(p, int) or p < 5 or not is_prime(p):
            raise ParameterError(f"group order must be a prime >= 5, got {quote_value(p)}")
        self.order = p
        self.params = ("mock", ("p", p))
        self._width = (p.bit_length() + 7) // 8
        self.g_encoded_size = self.gt_encoded_size = 1 + self._width
        self._g = 1
        self._identity_g = self._identity_gt = 0

    # -- arithmetic ----------------------------------------------------

    def mul(self, a, b):
        kind = self._claim(a, b)
        return kind(self, (a.value + b.value) % self.order)

    def inverse(self, a):
        kind = self._claim(a)
        return kind(self, (-a.value) % self.order)

    def exp(self, x, exponent: int):
        kind = self._claim(x)
        return kind(self, x.value * self._exponent(exponent) % self.order)

    def pair(self, p: GElement, q: GElement) -> GTElement:
        self._claim(p, q, GElement)
        return GTElement(self, p.value * q.value % self.order)

    # -- serialization ---------------------------------------------------

    def encode(self, x) -> bytes:
        tag = _GT_TAG if self._claim(x) is GTElement else _G_TAG
        return bytes([tag]) + x.value.to_bytes(self._width, "big")

    def decode_g(self, data: bytes) -> GElement:
        if len(data) != self.g_encoded_size:
            raise DecodeError(f"expected {self.g_encoded_size} bytes, got {len(data)}")
        if data[0] != _G_TAG:
            raise DecodeError(f"bad element tag {data[0]:#04x}")
        trace = int.from_bytes(data[1:], "big")
        if trace >= self.order:
            raise DecodeError(f"trace {trace} not reduced mod {self.order}")
        return GElement(self, trace)


def make_mock_group(p: int) -> MockGroup:
    """Mock pairing group of prime order p (p >= 5)."""
    return MockGroup(p)
