"""Concrete pairing backend on a small supersingular curve.

The curve is E: y^2 = x^3 + x over F_q with q a prime congruent to 3 mod 4.
For such q the curve is supersingular with #E(F_q) = q + 1 and the group of
rational points is cyclic, so any prime p >= 5 dividing q + 1 gives an
order-p subgroup with embedding degree 2. G is that subgroup; GT is the
order-p subgroup mu_p of F_{q^2}*, where F_{q^2} = F_q[i] with i^2 = -1
(-1 is a non-residue precisely because q = 3 mod 4).

The generator g is the first [h](x, y) other than infinity for x = 1, 2,
and so on, where h = (q + 1)/p and y = rhs^((q+1)/4), the square root of
rhs = x^3 + x when rhs has one. Since #E(F_q) = h*p, [p][h]P = O for every
rational P, so that point has order p with no further check.

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

The loop runs in two steps, a fixed-argument pairing (Scott, Pairing 2007;
Costello-Stebila, LATINCRYPT 2010). Every scaled line is
(A - B*x_t) + (C*y_t)*i at phi(Q) = (x_t, y_t*i), where (A, B, C) depend on
P alone; _lines walks R and returns them as P's line chain, and _evaluate
accumulates f from the chain at phi(Q). pair keeps the chain in the cache
slot of P's element, so it lives exactly as long as the element, and every
later pairing with that element as first argument skips all of R's point
arithmetic.
The protocol pairs long-lived public-key points first (g_n in encaps, g_i
in decaps), so those are the elements that keep chains: about 26 KiB each
at q of 160 bits.

The final exponentiation uses the Frobenius: f^q = conj(f) in F_{q^2}, so
f^(q-1) = conj(f) / f, which is then raised to the small cofactor (q+1)/p.
Every GT element has norm 1, so its inverse is its conjugate and it
squares in two multiplications: (a + b*i)^2 = (2a^2 - 1) + 2ab*i.

Every G operation runs in Jacobian coordinates through one doubling and
one mixed addition (Cohen-Miyaji-Ono, ASIACRYPT 1998), and inverts once, in
_to_affine_all. mul, product and exp of the generator are one Jacobian sum of
affine points (_sum): product adds all its operands before that single
inversion, and g^k adds one entry per nonzero base-16 digit of k from a
radix-16 fixed-base table (Brickell-Gordon-McCurley-Wilson, EUROCRYPT
1992). Row j of the table holds [d*16^j]g for the digits d, one row per
base-16 digit of p, so g^k costs at most that many mixed additions (40 at
p of 158 bits) and one inversion. The table is a cached property of the
group, built on its first g^k with the same two step functions; its row
bases [16^j]g, and then all of its entries, are normalised with one
inversion each (Montgomery's trick, in _to_affine_all).
exp of any other base doubles and adds in _pt_mul. _lines moves R with the
same two step functions and builds its lines from the values they return.

decode_g proves membership in G without computing [p]P. Since
G = [h]E(F_q), it tests P for membership in [2^a]E(F_q), 2^a being the
largest power of two dividing h, by a 2-descent: x(P) mod squares is the
descent map of a 2-isogeny (Silverman, The Arithmetic of Elliptic Curves,
ch. X), and each level halves P through x alone. That costs a few Jacobi
symbols and square roots; it is the Tate-pairing test of subgroup
membership (Koshelev, J. Cryptogr. Eng. 2023) for l = 2. The odd part m of
h takes [2^a*p]P = O in _pt_mul, and only when m > 1. _in_subgroup carries
the argument.

Points are affine (x, y) tuples with None for infinity; Jacobian triples
live only inside the G operations and the Miller loop. F_{q^2} values are
(real, imag) tuples. Both stay opaque inside GElement/GTElement wrappers.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from ..errors import DecodeError, ParameterError, UsageError
from ..primes import is_prime, jacobi
from .base import BilinearGroup, GElement, GTElement

_INFINITY_TAG = 0x00
_AFFINE_TAG = 0x01

# Generator search scans candidate x-coordinates starting at 1; a valid
# parameter set yields one almost immediately, so a miss this deep means
# the parameters are wrong, not that the search was unlucky.
_GENERATOR_SEARCH_BOUND = 10_000

# A fixed-base table row holds [d * 16^j]P for every base-16 digit d.
_RADIX_BITS = 4
_RADIX = 1 << _RADIX_BITS


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
        self.g_encoded_size = 1 + 2 * self._qwidth
        self.gt_encoded_size = 2 * self._qwidth
        self._g = self._find_generator()
        self._identity_g = None
        self._identity_gt = (1, 0)
        # per line of a chain: whether f is squared before it, which holds
        # for each bit's tangent and not for a set bit's chord
        squarings = []
        for bit in bin(self.order)[3:]:
            squarings.append(True)
            if bit == "1":
                squarings.append(False)
        self._squarings = tuple(squarings)

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
        """A^e for e >= 0 and A of norm 1, i.e. a^2 + b^2 = 1 for A = a + b*i.

        The norm lets each squaring take two multiplications,
        (a + b*i)^2 = (2a^2 - 1) + 2ab*i; for any other A the result is wrong.
        """
        q = self.q
        result = (1, 0)
        a, b = A
        while e > 0:
            if e & 1:
                result = self._f2mul(result, (a, b))
            a, b = (2 * a * a - 1) % q, 2 * a * b % q
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

    def _to_affine_all(self, points):
        """The affine forms of Jacobian (X, Y, Z) triples, inverting once.

        Montgomery's trick: invert the product of all nonzero Z, then peel
        each 1/Z off it from the last point back. Z = 0 gives None.
        """
        q = self.q
        prefixes = []
        product = 1
        for _, _, Z in points:
            prefixes.append(product)
            if Z:
                product = product * Z % q
        inverse = self._finv(product)
        affine = [None] * len(points)
        for i in reversed(range(len(points))):
            X, Y, Z = points[i]
            if Z:
                zinv = inverse * prefixes[i] % q
                inverse = inverse * Z % q
                zz = zinv * zinv % q
                affine[i] = (X * zz % q, Y * zz * zinv % q)
        return affine

    def _sum(self, points):
        """The affine sum of affine points (None is infinity), inverting once."""
        X, Y, Z = 1, 1, 0
        for P in points:
            if P is not None:
                X, Y, Z, _ = self._jac_add_affine(X, Y, Z, *P)
        return self._to_affine_all([(X, Y, Z)])[0]

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
        return self._to_affine_all([(X, Y, Z)])[0]

    def _in_subgroup(self, x: int, y: int) -> bool:
        """Whether a point P = (x, y) of E(F_q) lies in G; P must be on the curve.

        E(F_q) is cyclic of order h*p, so G = [h]E(F_q). Write h = 2^a * m
        with m odd; a >= 2, because q = 3 mod 4. P is in G exactly when it
        is in [2^a]E(F_q) and [2^a * p]P = O, and the second test is needed
        only when m > 1. The first is a 2-descent (Silverman, AEC, ch. X;
        Koshelev, J. Cryptogr. Eng. 2023, for l = 2):

        - P != O is in 2E(F_q) exactly when x is a nonzero square. x mod
          squares is the descent map of the 2-isogeny to Y^2 = X(X^2 - 4):
          its kernel has index 2 and contains 2E(F_q), since
          x(2R) = ((x_R^2 - 1) / (2*y_R))^2, and a cyclic group has one
          subgroup of index 2. The test fails on (0, 0), which has order 2
          and so is outside G anyway.
        - A half R of P has x_R a root of t^2 - u*t + 1, where
          u = x_R + 1/x_R = 2(x +- sqrt(x^2 + 1)). Only the halves in E(F_q)
          have x_R in F_q, so the sign is the one for which u^2 - 4 is a
          square. The other root is x of R + (0, 0), which lies in
          2E(F_q) exactly when R does, so either root serves for the next
          level.
        - (x_R + 1)^2 = (u + 2) * x_R, so x_R is a square exactly when u + 2
          is one (u - 2 would serve too, as (u + 2)(u - 2) is a square), and
          x_R itself is found only when another level follows.
        """
        q = self.q
        h = self._cofactor
        a = (h & -h).bit_length() - 1
        root = (q + 1) // 4  # s^root is a square root of any square s
        if jacobi(x, q) != 1:
            return False
        t, u = x, None
        for _ in range(a - 1):
            if u is not None:
                t = (u + pow(u * u - 4, root, q)) * ((q + 1) // 2) % q
            s = pow(t * t + 1, root, q)
            u = 2 * (t + s) % q
            if jacobi(u * u - 4, q) != 1:
                u = 2 * (t - s) % q
            if jacobi(u + 2, q) != 1:
                return False
        return h >> a == 1 or self._pt_mul(self.order << a, (x, y)) is None

    def _fixed_base_table(self, P):
        """Rows [d * 16^j]P, 0 <= d < 16, one per base-16 digit of p.

        P must have order p. Entry 0 of each row is infinity (None), so a
        digit of the exponent indexes its row directly. The row bases
        [16^j]P are four doublings apart; each row's other entries double an
        entry or add the base, and one inversion normalises each of the two
        batches.
        """
        rows = -(-self.order.bit_length() // _RADIX_BITS)
        X, Y, Z = *P, 1
        bases = [(X, Y, Z)]
        for _ in range(rows - 1):
            for _ in range(_RADIX_BITS):
                X, Y, Z = self._jac_double(X, Y, Z)[:3]
            bases.append((X, Y, Z))
        multiples = []
        for xb, yb in self._to_affine_all(bases):
            row = [None, (xb, yb, 1)]
            for d in range(2, _RADIX):
                if d % 2:
                    row.append(self._jac_add_affine(*row[d - 1], xb, yb)[:3])
                else:
                    row.append(self._jac_double(*row[d // 2])[:3])
            multiples += row[1:]
        points = self._to_affine_all(multiples)
        width = _RADIX - 1
        return [[None] + points[j * width:(j + 1) * width] for j in range(rows)]

    @cached_property
    def _generator_table(self):
        """g's fixed-base table, built on the first read."""
        return self._fixed_base_table(self._g)

    def _find_generator(self):
        """First [h](x, y) other than infinity, scanning x upward (module notes)."""
        q = self.q
        h = self._cofactor
        for x in range(1, min(q, _GENERATOR_SEARCH_BOUND)):
            rhs = (x * x * x + x) % q
            y = pow(rhs, (q + 1) // 4, q)
            if y * y % q != rhs:
                continue
            candidate = self._pt_mul(h, (x, y))
            if candidate is not None:
                return candidate
        raise ParameterError(
            f"no order-{self.order} generator found on y^2 = x^3 + x over F_{q}"
        )

    # -- pairing ----------------------------------------------------------

    def _lines(self, P):
        """P's line chain, for P of order p: (A, B, C) per line, flattened.

        The line at phi(Q) = (x_t, y_t*i) is (A - B*x_t) + (C*y_t)*i, scaled
        by a factor in F_q*, with verticals dropped; the final
        exponentiation sends both to 1 (see the module notes). The tuple
        holds ints only, so the garbage collector untracks it on its first
        pass over it.
        """
        q = self.q
        xp, yp = P
        lines = []
        X, Y, Z = xp, yp, 1
        for bit in bin(self.order)[3:]:
            # tangent at R, times 2*Y*Z^3:
            # (M*X - 2*Y^2 - M*Z^2*x_t) + (Z' * Z^2 * y_t)*i, Z' = 2*Y*Z
            X3, Y, Z, M, YY, ZZ = self._jac_double(X, Y, Z)
            lines += ((M * X - 2 * YY) % q, M * ZZ % q, Z * ZZ % q)
            X = X3
            if bit == "1":
                # chord through R and P, times Z' = Z*H:
                # (r*x_P - y_P*Z' - r*x_t) + (Z' * y_t)*i
                X, Y, Z, r = self._jac_add_affine(X, Y, Z, xp, yp)
                if Z == 0:
                    # R = -P, which happens only at the last bit: the line is
                    # vertical and R + P = O, so the chain is complete
                    break
                lines += ((r * xp - yp * Z) % q, r, Z)
        return tuple(lines)

    def _evaluate(self, lines, Q):
        """f_{p,P}(phi(Q)) times some factor in F_q*, from P's line chain."""
        q = self.q
        xt = -Q[0] % q
        yt = Q[1]
        a, b = 1, 0  # f = a + b*i
        it = iter(lines)
        # zip stops with the chain, which has no chord for the last bit
        for square, A, B, C in zip(self._squarings, it, it, it):
            if square:
                a, b = (a + b) * (a - b) % q, 2 * a * b % q
            l0 = (A - B * xt) % q
            l1 = C * yt % q
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

    # -- arithmetic ----------------------------------------------------

    def mul(self, a, b):
        if self._claim(a, b) is GTElement:
            return GTElement(self, self._f2mul(a.value, b.value))
        return GElement(self, self._sum((a.value, b.value)))

    def product(self, elements: Sequence[GElement]) -> GElement:
        if not elements:
            raise UsageError("product of an empty sequence")
        for x in elements:
            self._claim(x, kind=GElement)
        return GElement(self, self._sum([x.value for x in elements]))

    def inverse(self, a):
        if self._claim(a) is GTElement:
            # every GT element has norm 1, so its inverse is its conjugate
            return GTElement(self, self._f2conj(a.value))
        return GElement(self, self._pt_neg(a.value))

    def exp(self, x, exponent: int):
        kind = self._claim(x)
        k = self._exponent(exponent)
        if kind is GTElement:
            return GTElement(self, self._f2pow(x.value, k))
        if x.value == self._g:
            table = self._generator_table
            terms = [row[(k >> _RADIX_BITS * j) % _RADIX] for j, row in enumerate(table)]
            return GElement(self, self._sum(terms))
        return GElement(self, self._pt_mul(k, x.value))

    def pair(self, p: GElement, q: GElement) -> GTElement:
        self._claim(p, q, GElement)
        if p.value is None or q.value is None:
            return self.identity_gt()
        lines = p._cache
        if lines is None:
            lines = p._cache = self._lines(p.value)
        f = self._evaluate(lines, q.value)
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
        if len(data) != self.g_encoded_size:
            raise DecodeError(f"expected {self.g_encoded_size} bytes, got {len(data)}")
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
        if not self._in_subgroup(x, y):
            raise DecodeError(f"({x}, {y}) is not in the order-{self.order} subgroup")
        return GElement(self, (x, y))

    def decode_gt(self, data: bytes) -> GTElement:
        if len(data) != self.gt_encoded_size:
            raise DecodeError(f"expected {self.gt_encoded_size} bytes, got {len(data)}")
        a = int.from_bytes(data[: self._qwidth], "big")
        b = int.from_bytes(data[self._qwidth :], "big")
        if a >= self.q or b >= self.q:
            raise DecodeError("component not reduced mod q")
        # mu_p lies in the norm-1 group, and _f2pow needs norm 1
        if (a * a + b * b) % self.q != 1 or self._f2pow((a, b), self.order) != (1, 0):
            raise DecodeError(f"value is not in the order-{self.order} subgroup")
        return GTElement(self, (a, b))


def make_curve_group(params: CurveParams) -> CurveGroup:
    """Pairing group on y^2 = x^3 + x over F_q with subgroup order params.p."""
    return CurveGroup(params)
