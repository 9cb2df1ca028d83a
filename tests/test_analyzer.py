import pytest

import oracles
from bgwkem import CurveParams, ParameterError, make_curve_group
from bgwkem.analyzer import (
    REFERENCE_WORKING_BITS,
    embedding_degree,
    security_report,
)
from bgwkem.primes import is_prime

# 512-bit prime q = 4 * 1021 * m - 1, generated once and frozen; 1021 | q+1
# and q = 3 mod 4, so the embedding degree of 1021 relative to q is 2.
Q512 = 13323489669416174197339659819441162788402464768079157351075430746984890193016637395180758810345073505939668164824752900749532282987118193253720588479282647
P512 = 1021


def test_pinned_cases():
    assert embedding_degree(59, 5) == 2  # 5 divides 59^2-1 = 3480 but not 58
    assert embedding_degree(11, 5) == 1  # 5 divides 10
    assert embedding_degree(7, 5) == 4  # 7 mod 5 = 2, which has order 4


def test_against_naive_oracle_exhaustive():
    primes = [n for n in range(2, 200) if is_prime(n)]
    for q in primes:
        for p in primes:
            if p == q:
                continue
            k = embedding_degree(q, p)
            assert k == oracles.naive_embedding_degree(q, p)
            assert (q**k - 1) % p == 0
            for j in range(1, k):
                assert (q**j - 1) % p != 0
            assert (p - 1) % k == 0  # order of q mod p divides p-1


def test_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        embedding_degree(10, 5)
    with pytest.raises(ParameterError):
        embedding_degree(11, 4)
    with pytest.raises(ParameterError):
        embedding_degree(7, 7)
    with pytest.raises(ParameterError):
        embedding_degree(7, 5, k_max=0)


def test_k_max_bound():
    assert embedding_degree(7, 5, k_max=4) == 4
    with pytest.raises(ParameterError):
        embedding_degree(7, 5, k_max=3)


def test_report_small_case():
    report = security_report(59, 5)
    assert report.k == 2
    assert report.base_bits == 6
    assert report.working_bits == 12
    assert report.divisibility_witness == (59**2 - 1) // 5 == 696
    assert not report.reaches_reference_working_size


def test_report_repr_shows_a_witness_past_the_int_str_limit():
    report = security_report(2**127 - 1, 1019)
    assert report.k == 1018
    text = repr(report)
    assert text.startswith(
        "ParamReport(q=170141183460469231731687303715884105727, p=1019, k=1018, "
        "base_bits=127, working_bits=129286, divisibility_witness="
    )
    assert text.endswith(", reaches_reference_working_size=True)")
    assert repr(security_report(59, 5)) == (
        "ParamReport(q=59, p=5, k=2, base_bits=6, working_bits=12, "
        "divisibility_witness=696, reaches_reference_working_size=False)"
    )


def test_report_k1_means_no_inflation():
    report = security_report(11, 5)
    assert report.k == 1
    assert report.working_bits == report.base_bits


def test_report_512_bit_reference_case():
    assert is_prime(Q512) and Q512.bit_length() == 512
    report = security_report(Q512, P512)
    assert report.k == 2
    assert report.base_bits == 512
    assert report.working_bits == 1024 == REFERENCE_WORKING_BITS
    assert report.reaches_reference_working_size
    assert report.divisibility_witness * P512 == Q512**2 - 1


def test_consistency_with_curve_backend():
    """make_curve_group accepts (q, p) exactly when k = 2 and p || q+1."""
    primes = [n for n in range(2, 200) if is_prime(n)]
    for q in primes:
        if q % 4 != 3:
            continue
        for p in primes:
            if p < 5 or p == q:
                continue
            try:
                make_curve_group(CurveParams(q=q, p=p))
                accepted = True
            except ParameterError:
                accepted = False
            divides_once = (q + 1) % p == 0 and (q + 1) % (p * p) != 0
            assert accepted == divides_once
            if accepted:
                assert embedding_degree(q, p) == 2
