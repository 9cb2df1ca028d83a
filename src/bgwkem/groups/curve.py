"""Concrete pairing backend on a small supersingular curve.

The curve is E: y^2 = x^3 + x over F_q with q a prime congruent to 3 mod 4.
For such q the curve is supersingular with #E(F_q) = q + 1 and the group of
rational points is cyclic, so any prime p >= 5 dividing q + 1 gives an
order-p subgroup with embedding degree 2. G is that subgroup; GT is the
order-p subgroup mu_p of F_{q^2}*, where F_{q^2} = F_q[i] with i^2 = -1
(-1 is a non-residue precisely because q = 3 mod 4).

The pairing is the reduced Tate pairing composed with the distortion map
phi(x, y) = (-x, i*y), which moves the second argument off the rational
subgroup and makes the map symmetric and non-degenerate on G x G:

    pair(P, Q) = f_{p,P}(phi(Q)) ^ ((q^2 - 1) / p)

with f computed by Miller's double-and-add loop. No step of the loop
inverts. R runs in Jacobian coordinates (X, Y, Z), standing for
(X/Z^2, Y/Z^3), and each line through R is evaluated at phi(Q) after
scaling by a factor in F_q* that clears its denominator. The final exponent
is a multiple of q - 1, so those factors map to 1, and so do the vertical
lines (their values at phi(Q) lie in F_q*), which are therefore dropped
(Barreto-Kim-Lynn-Scott, CRYPTO 2002). None of the remaining lines vanishes
at phi(Q): its imaginary part is a nonzero multiple of y_Q.

The final exponentiation uses the Frobenius: f^q = conj(f) in F_{q^2}, so
f^(q-1) = conj(f) / f, which is then raised to the small cofactor (q+1)/p.
Every GT element has norm 1, so its inverse is its conjugate.

Every G operation (mul, exp and the subgroup check of decode_g) runs in
Jacobian coordinates through one doubling and one mixed addition, and
inverts once, in _to_affine. The Miller loop moves R with the same two step
functions and builds its lines from the values they return.

Points are affine (x, y) tuples with None for infinity; Jacobian triples
live only inside the G operations and the Miller loop. F_{q^2} values are
(real, imag) tuples. Both stay opaque inside GElement/GTElement wrappers.
"""

from dataclasses import dataclass

from ..errors import DecodeError, ParameterError
from ..primes import is_prime
from .base import BilinearGroup, GElement, GTElement

_INFINITY_TAG = 0x00
_AFFINE_TAG = 0x01

# Generator search scans candidate x-coordinates starting at 1; a valid
# parameter set yields one almost immediately, so a miss this deep means
# the parameters are wrong, not that the search was unlucky.
_GENERATOR_SEARCH_BOUND = 10_000


@dataclass(frozen=True)
class CurveParams:
    """Parameters (q, p) of the supersingular backend; h is derived.

    Validates: q prime with q = 3 mod 4, p prime >= 5, and p dividing q + 1
    exactly once. Divisibility gives embedding degree 2; exactness is what
    keeps the pairing alive, because if p^2 | q+1 the rational order-p
    subgroup sits inside p*E(F_{q^2}) and the reduced Tate pairing maps all
    of G x G to 1.
    """

    q: int
    p: int

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2 or not is_prime(self.q):
            raise ParameterError(f"base field size must be prime, got {self.q!r}")
        if self.q % 4 != 3:
            raise ParameterError(f"q = {self.q} is not 3 mod 4")
        if not isinstance(self.p, int) or self.p < 5 or not is_prime(self.p):
            raise ParameterError(f"subgroup order must be a prime >= 5, got {self.p!r}")
        if (self.q + 1) % self.p != 0:
            raise ParameterError(f"p = {self.p} does not divide q + 1 = {self.q + 1}")
        if (self.q + 1) % (self.p * self.p) == 0:
            raise ParameterError(
                f"p^2 = {self.p * self.p} divides q + 1, which degenerates the pairing"
            )

    @property
    def cofactor(self) -> int:
        return (self.q + 1) // self.p


class CurveGroup(BilinearGroup):
    """Order-p subgroup of E(F_q) paired into mu_p in F_{q^2}."""

    def __init__(self, params: CurveParams):
        self.q = params.q
        self.order = params.p
        self.params = ("curve", ("q", params.q), ("p", params.p))
        self._cofactor = params.cofactor
        self._qwidth = (self.q.bit_length() + 7) // 8
        self._gen = self._find_generator()

    # -- F_q and F_{q^2} helpers ---------------------------------------

    def _finv(self, a: int) -> int:
        return pow(a, -1, self.q)

    def _f2mul(self, A, B):
        a, b = A
        c, d = B
        q = self.q
        return ((a * c - b * d) % q, (a * d + b * c) % q)

    def _f2conj(self, A):
        return (A[0], -A[1] % self.q)

    def _f2pow(self, A, e: int):
        result = (1, 0)
        base = A
        while e > 0:
            if e & 1:
                result = self._f2mul(result, base)
            base = self._f2mul(base, base)
            e >>= 1
        return result

    # -- point arithmetic over F_q ---------------------------------------

    def _on_curve(self, x: int, y: int) -> bool:
        return (y * y - (x * x * x + x)) % self.q == 0

    def _pt_neg(self, P):
        if P is None:
            return None
        return (P[0], -P[1] % self.q)

    # Jacobian (X, Y, Z) stands for the affine point (X/Z^2, Y/Z^3); any
    # triple with Z = 0 is infinity.

    def _jac_double(self, X, Y, Z):
        """2R as (X', Y', Z'), then M = 3X^2 + Z^4, Y^2 and Z^2.

        The last three are the tangent's inputs in the Miller loop.
        """
        # a point with Y = 0 has order 2, and Z' = 2YZ = 0 makes it infinity
        q = self.q
        YY = Y * Y % q
        ZZ = Z * Z % q
        M = (3 * X * X + ZZ * ZZ) % q
        S = 4 * X * YY % q
        X3 = (M * M - 2 * S) % q
        return X3, (M * (S - X3) - 8 * YY * YY) % q, 2 * Y * Z % q, M, YY, ZZ

    def _jac_add_affine(self, X, Y, Z, xp, yp):
        """R + P for Jacobian R and affine P = (xp, yp), as (X', Y', Z', r).

        r = yp*Z^3 - Y is the chord's input in the Miller loop (0 when R is
        infinity or R = P, where there is no chord). R = -P gives Z' = 0.
        """
        if Z == 0:
            return xp, yp, 1, 0
        q = self.q
        ZZ = Z * Z % q
        H = (xp * ZZ - X) % q
        r = (yp * ZZ * Z - Y) % q
        if H == 0:
            # same x: R = P when the y's agree too, otherwise R = -P
            if r == 0:
                return *self._jac_double(X, Y, Z)[:3], 0
            return 1, 1, 0, r
        HH = H * H % q
        HHH = H * HH % q
        V = X * HH % q
        X3 = (r * r - HHH - 2 * V) % q
        return X3, (r * (V - X3) - Y * HHH) % q, Z * H % q, r

    def _to_affine(self, X, Y, Z):
        """The affine point (X/Z^2, Y/Z^3), or None when Z = 0."""
        if Z == 0:
            return None
        q = self.q
        zinv = self._finv(Z)
        zz = zinv * zinv % q
        return (X * zz % q, Y * zz * zinv % q)

    def _pt_mul(self, k: int, P):
        """[k]P for k >= 0 by left-to-right double-and-add, inverting once."""
        if k == 0 or P is None:
            return None
        xp, yp = P
        X, Y, Z = xp, yp, 1
        for bit in bin(k)[3:]:
            X, Y, Z = self._jac_double(X, Y, Z)[:3]
            if bit == "1":
                X, Y, Z, _ = self._jac_add_affine(X, Y, Z, xp, yp)
        return self._to_affine(X, Y, Z)

    def _find_generator(self):
        """First cofactor-cleared point of exact order p, scanning x upward."""
        q = self.q
        h = self._cofactor
        for x in range(1, min(q, _GENERATOR_SEARCH_BOUND)):
            # rhs != 0 here: x > 0 and x^2 = -1 has no root when q = 3 mod 4
            rhs = (x * x * x + x) % q
            if pow(rhs, (q - 1) // 2, q) != 1:
                continue
            y = pow(rhs, (q + 1) // 4, q)
            candidate = self._pt_mul(h, (x, y))
            if candidate is not None and self._pt_mul(self.order, candidate) is None:
                return candidate
        raise ParameterError(
            f"no order-{self.order} generator found on y^2 = x^3 + x over F_{q}"
        )

    # -- pairing ----------------------------------------------------------

    def _miller(self, P, Q):
        """f_{p,P}(phi(Q)) times some factor in F_q*, for P, Q of order p.

        Lines are scaled by F_q* factors and verticals dropped, both of
        which the final exponentiation sends to 1 (see the module notes).
        """
        q = self.q
        xp, yp = P
        xt = -Q[0] % q
        yt = Q[1]
        a, b = 1, 0  # f = a + b*i
        X, Y, Z = xp, yp, 1
        for bit in bin(self.order)[3:]:
            # tangent at R, times 2*Y*Z^3:
            # (M*(X - xt*Z^2) - 2*Y^2) + (Z' * Z^2 * yt)*i, Z' = 2*Y*Z
            X3, Y, Z, M, YY, ZZ = self._jac_double(X, Y, Z)
            l0 = (M * (X - xt * ZZ) - 2 * YY) % q
            l1 = Z * ZZ % q * yt % q
            X = X3
            a, b = (a + b) * (a - b) % q, 2 * a * b % q
            a, b = (a * l0 - b * l1) % q, (a * l1 + b * l0) % q
            if bit == "1":
                # chord through R and P, times Z' = Z*H:
                # (-yp*Z' - r*(xt - xp)) + (Z' * yt)*i
                X, Y, Z, r = self._jac_add_affine(X, Y, Z, xp, yp)
                if Z == 0:
                    # R = -P, which happens only at the last bit: the line is
                    # vertical and R + P = O, so the loop is done
                    break
                l0 = (-yp * Z - r * (xt - xp)) % q
                l1 = Z * yt % q
                a, b = (a * l0 - b * l1) % q, (a * l1 + b * l0) % q
        return a, b

    def _final_power(self, f):
        """f^((q^2 - 1)/p) as (conj(f)/f)^((q+1)/p), since f^q = conj(f)."""
        a, b = f
        q = self.q
        # conj(f)/f = conj(f)^2 / N(f), N(f) = a^2 + b^2 = f * conj(f)
        ninv = self._finv((a * a + b * b) % q)
        u = ((a * a - b * b) * ninv % q, -2 * a * b * ninv % q)
        return self._f2pow(u, self._cofactor)

    # -- construction-side values ------------------------------------

    def generator(self) -> GElement:
        return GElement(self, self._gen)

    def identity_g(self) -> GElement:
        return GElement(self, None)

    def identity_gt(self) -> GTElement:
        return GTElement(self, (1, 0))

    # -- arithmetic ----------------------------------------------------

    def mul(self, a, b):
        if self._claim(a, b) is GTElement:
            return GTElement(self, self._f2mul(a.value, b.value))
        P, Q = a.value, b.value
        if P is None or Q is None:
            return GElement(self, Q if P is None else P)
        X, Y, Z, _ = self._jac_add_affine(*P, 1, *Q)
        return GElement(self, self._to_affine(X, Y, Z))

    def inverse(self, a):
        if self._claim(a) is GTElement:
            # every GT element has norm 1, so its inverse is its conjugate
            return GTElement(self, self._f2conj(a.value))
        return GElement(self, self._pt_neg(a.value))

    def exp(self, x, exponent: int):
        if self._claim(x) is GTElement:
            return GTElement(self, self._f2pow(x.value, self._exponent(exponent)))
        return GElement(self, self._pt_mul(self._exponent(exponent), x.value))

    def pair(self, p: GElement, q: GElement) -> GTElement:
        self._claim(p, q, GElement)
        if p.value is None or q.value is None:
            return self.identity_gt()
        f = self._miller(p.value, q.value)
        return GTElement(self, self._final_power(f))

    # -- serialization ---------------------------------------------------

    def encode(self, x) -> bytes:
        if self._claim(x) is GTElement:
            a, b = x.value
            return a.to_bytes(self._qwidth, "big") + b.to_bytes(self._qwidth, "big")
        if x.value is None:
            return bytes([_INFINITY_TAG]) + bytes(2 * self._qwidth)
        px, py = x.value
        return (
            bytes([_AFFINE_TAG])
            + px.to_bytes(self._qwidth, "big")
            + py.to_bytes(self._qwidth, "big")
        )

    def decode_g(self, data: bytes) -> GElement:
        if len(data) != 1 + 2 * self._qwidth:
            raise DecodeError(
                f"expected {1 + 2 * self._qwidth} bytes, got {len(data)}"
            )
        x = int.from_bytes(data[1 : 1 + self._qwidth], "big")
        y = int.from_bytes(data[1 + self._qwidth :], "big")
        if data[0] == _INFINITY_TAG:
            if x or y:
                raise DecodeError("non-canonical infinity encoding")
            return self.identity_g()
        if data[0] != _AFFINE_TAG:
            raise DecodeError(f"bad point tag {data[0]:#04x}")
        if x >= self.q or y >= self.q:
            raise DecodeError("coordinate not reduced mod q")
        if not self._on_curve(x, y):
            raise DecodeError(f"({x}, {y}) is not on y^2 = x^3 + x")
        if self._pt_mul(self.order, (x, y)) is not None:
            raise DecodeError(f"({x}, {y}) is not in the order-{self.order} subgroup")
        return GElement(self, (x, y))

    def decode_gt(self, data: bytes) -> GTElement:
        if len(data) != 2 * self._qwidth:
            raise DecodeError(f"expected {2 * self._qwidth} bytes, got {len(data)}")
        a = int.from_bytes(data[: self._qwidth], "big")
        b = int.from_bytes(data[self._qwidth :], "big")
        if a >= self.q or b >= self.q:
            raise DecodeError("component not reduced mod q")
        if self._f2pow((a, b), self.order) != (1, 0):
            raise DecodeError(f"value is not in the order-{self.order} subgroup")
        return GTElement(self, (a, b))

    @property
    def g_encoded_size(self) -> int:
        return 1 + 2 * self._qwidth

    @property
    def gt_encoded_size(self) -> int:
        return 2 * self._qwidth


def make_curve_group(params: CurveParams) -> CurveGroup:
    """Pairing group on y^2 = x^3 + x over F_q with subgroup order params.p."""
    return CurveGroup(params)
