"""Embedding-degree and working-parameter-size analysis.

Pairing values live in the degree-k extension of the base field, where k is
the embedding degree: the least k >= 1 with p | q^k - 1, i.e. the
multiplicative order of q mod p. So while protocol inputs (curve points)
are sized by the base field, all pairing arithmetic runs k times wider.
The report makes that gap explicit and flags when the working size reaches
the classic 1024-bit scale that a 160-bit-input design actually implies at
the 80-bit security level.

Both public functions first check that q and p are distinct primes.
embedding_degree then takes k = primes.multiplicative_order(q, p), which
works from the factors of p - 1 and raises ParameterError when it cannot
find them. security_report scans with primes.order_up_to, only up to the k
whose working size reaches MAX_WORKING_BITS.
"""

from dataclasses import dataclass
from decimal import Decimal

from .errors import ParameterError
from .primes import is_prime, multiplicative_order, order_up_to

# The classic 80-bit-security sizing: 160-bit pairing-group inputs paired
# into a field whose size must compare to 1024-bit discrete-log moduli.
REFERENCE_WORKING_BITS = 1024

# The largest working size k * base_bits a report computes. It bounds both
# the embedding-degree search and the witness (q^k - 1) / p, whose decimal
# string takes time quadratic in its length: 2^18 bits is about 79 000
# digits, converted in well under a second.
MAX_WORKING_BITS = 2**18


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


def _check_primes(q: int, p: int) -> None:
    if not is_prime(q):
        raise ParameterError(f"q = {q} is not prime")
    if not is_prime(p):
        raise ParameterError(f"p = {p} is not prime")
    if p == q:
        raise ParameterError("q and p must be distinct primes")


def embedding_degree(q: int, p: int) -> int:
    """Smallest k >= 1 with p | q^k - 1: the multiplicative order of q mod p.

    Raises ParameterError when p - 1 keeps a composite factor that trial
    division does not split and that the order does not avoid (see
    primes.multiplicative_order).
    """
    _check_primes(q, p)
    return multiplicative_order(q, p)


def security_report(q: int, p: int) -> ParamReport:
    """Full report: embedding degree, input size, and working size.

    The search stops where the working size would pass MAX_WORKING_BITS,
    and a k beyond that raises ParameterError naming the limit.
    """
    _check_primes(q, p)
    base_bits = q.bit_length()
    limit = MAX_WORKING_BITS // base_bits
    k = order_up_to(q, p, limit)
    if k is None:
        raise ParameterError(
            f"the working-size limit MAX_WORKING_BITS = {MAX_WORKING_BITS} "
            f"bits stopped the search: no embedding degree up to k = {limit} "
            f"for a {base_bits}-bit q"
        )
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
