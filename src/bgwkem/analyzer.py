"""Embedding-degree and working-parameter-size analysis.

Pairing values live in the degree-k extension of the base field, where k is
the embedding degree: the least k >= 1 with p | q^k - 1, i.e. the
multiplicative order of q mod p. So while protocol inputs (curve points)
are sized by the base field, all pairing arithmetic runs k times wider.
The report makes that gap explicit and flags when the working size reaches
the classic 1024-bit scale that a 160-bit-input design actually implies at
the 80-bit security level.
"""

from dataclasses import dataclass
from decimal import Decimal

from .errors import ParameterError
from .primes import is_prime

# The classic 80-bit-security sizing: 160-bit pairing-group inputs paired
# into a field whose size must compare to 1024-bit discrete-log moduli.
REFERENCE_INPUT_BITS = 160
REFERENCE_WORKING_BITS = 1024


@dataclass(frozen=True)
class ParamReport:
    q: int
    p: int
    k: int
    base_bits: int
    working_bits: int
    divisibility_witness: int  # (q^k - 1) // p
    reaches_reference_working_size: bool

    def __repr__(self):
        # the generated repr would run str() on the witness; see decimal_string
        values = ", ".join(
            f"{name}={decimal_string(v) if type(v) is int else repr(v)}"
            for name, v in vars(self).items()
        )
        return f"ParamReport({values})"


def decimal_string(n: int) -> str:
    """str(n) for an int of any length.

    str() refuses ints longer than sys.get_int_max_str_digits() (4300 by
    default), and the witness (q^k - 1) / p has about k*log10(q) digits.
    Decimal converts exactly without that limit.
    """
    return str(Decimal(n))


def embedding_degree(q: int, p: int, k_max: int | None = None) -> int:
    """Smallest k with p | q^k - 1, searched by iterating powers of q mod p.

    k_max defaults to p - 1, which always suffices because the order of
    q mod p divides p - 1.
    """
    if not is_prime(q):
        raise ParameterError(f"q = {q} is not prime")
    if not is_prime(p):
        raise ParameterError(f"p = {p} is not prime")
    if p == q:
        raise ParameterError("q and p must be distinct primes")
    if k_max is None:
        k_max = p - 1
    if k_max < 1:
        raise ParameterError(f"k_max must be at least 1, got {k_max}")
    acc = q % p
    for k in range(1, k_max + 1):
        if acc == 1:
            return k
        acc = acc * q % p
    raise ParameterError(f"no embedding degree found up to k_max = {k_max}")


def security_report(q: int, p: int, k_max: int | None = None) -> ParamReport:
    """Full report: embedding degree, input size, and working size."""
    k = embedding_degree(q, p, k_max)
    base_bits = q.bit_length()
    working_bits = k * base_bits
    return ParamReport(
        q=q,
        p=p,
        k=k,
        base_bits=base_bits,
        working_bits=working_bits,
        divisibility_witness=(q**k - 1) // p,
        reaches_reference_working_size=working_bits >= REFERENCE_WORKING_BITS,
    )
