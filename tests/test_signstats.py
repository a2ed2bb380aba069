"""Tests for sign statistics, growth profiles, and the coefficient bound."""

from fractions import Fraction
from math import gcd

import pytest

from qprime.exactnum import primes_up_to
from qprime.forms import QuasiForm, cusp_basis, delta
from qprime.signstats import (
    EIGENFORM_WEIGHTS,
    count_sign_changes,
    deligne_check,
    deligne_scan,
    exponent_profile,
    partial_sum_report,
    prime_coefficients,
)

DELTA_FORM = QuasiForm(cusp={(12, 0, 0): 1})


def test_prime_coefficients_delta():
    pairs = prime_coefficients(DELTA_FORM, 10)
    assert pairs == [(2, -24), (3, 252), (5, 4830), (7, -16744)]


def test_prime_coefficients_g4():
    pairs = prime_coefficients(QuasiForm(eis={(4, 0): 1}), 5)
    assert pairs == [(2, 9), (3, 28), (5, 126)]


def test_prime_coefficients_zero_form():
    assert all(v == 0 for _, v in prime_coefficients(QuasiForm(), 50))


def test_count_sign_changes_basics():
    assert count_sign_changes([1, 2, 3]) == 0
    assert count_sign_changes([1, -1, 1, -1]) == 3
    assert count_sign_changes([]) == 0
    assert count_sign_changes([0, 0]) == 0
    # zeros are skipped, not treated as sign boundaries
    assert count_sign_changes([1, 0, 2, 0, -3]) == 1
    assert count_sign_changes([Fraction(1, 2), Fraction(-1, 3)]) == 1


def test_count_sign_changes_scaling_invariance():
    values = [3, -2, 0, 5, -7, -1, 4]
    base = count_sign_changes(values)
    assert count_sign_changes([Fraction(7, 3) * v for v in values]) == base
    assert count_sign_changes([-v for v in values]) == base


def test_tau_sign_changes_golden():
    changes = count_sign_changes(v for _, v in prime_coefficients(DELTA_FORM, 1000))
    assert changes == 98
    assert changes >= 10


def test_exponent_profile_delta():
    profile = exponent_profile(DELTA_FORM)
    assert profile.alpha0 == Fraction(13, 2)
    assert profile.beta0 == 12
    assert profile.m_set == (0,)
    assert profile.eigenbasis


def test_exponent_profile_d_delta():
    profile = exponent_profile(QuasiForm(cusp={(12, 0, 1): 1}))
    assert profile.alpha0 == Fraction(15, 2)
    assert profile.beta0 == 14


def test_exponent_profile_mixed_terms():
    form = QuasiForm(cusp={(12, 0, 0): 1, (12, 0, 1): -2})
    profile = exponent_profile(form)
    assert profile.alpha0 == Fraction(15, 2)
    # only the derivative term attains the max
    assert len(profile.m_set) == 1
    (m, i, j, coeff, alpha, beta) = profile.terms[profile.m_set[0]]
    assert (m, i, j) == (12, 0, 1)
    assert all(t[5] == 2 * t[4] - 1 for t in profile.terms)


def test_exponent_profile_eigenbasis_flag():
    profile = exponent_profile(QuasiForm(cusp={(24, 1, 0): 1}))
    assert not profile.eigenbasis
    assert profile.alpha0 == Fraction(25, 2)


def test_exponent_profile_rejects_eisenstein_and_zero():
    with pytest.raises(ValueError):
        exponent_profile(QuasiForm(eis={(4, 0): 1}, cusp={(12, 0, 0): 1}))
    with pytest.raises(ValueError):
        exponent_profile(QuasiForm())


def test_partial_sums_match_naive_loop():
    report = partial_sum_report(DELTA_FORM, 1000, grid=[10, 100, 1000])
    d = delta(1000)
    for (x, s), (_, sq) in zip(report.partial_sum, report.partial_sum_sq):
        naive = sum(d.coeffs[p] for p in primes_up_to(x))
        naive_sq = sum(d.coeffs[p] ** 2 for p in primes_up_to(x))
        assert s == naive
        assert sq == naive_sq


def test_partial_sums_zero_form():
    report = partial_sum_report(QuasiForm(), 100, grid=[10, 100])
    assert all(s == 0 for _, s in report.partial_sum)
    assert all(s == 0 for _, s in report.partial_sum_sq)
    assert report.normalized_sq == ()  # no growth profile for the zero form


def test_partial_sum_sq_increasing():
    report = partial_sum_report(DELTA_FORM, 2000, grid=[10, 50, 200, 1000, 2000])
    values = [s for _, s in report.partial_sum_sq]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(s > 0 for s in values)


def test_cancellation_present():
    d = delta(1000)
    for x in (10, 100, 1000):
        signed = sum(d.coeffs[p] for p in primes_up_to(x))
        absolute = sum(abs(d.coeffs[p]) for p in primes_up_to(x))
        assert abs(signed) < absolute


def test_report_normalized_only_for_cusp_forms():
    with_eis = partial_sum_report(QuasiForm(eis={(4, 0): 1}), 100)
    assert with_eis.normalized_sq == ()
    cusp_only = partial_sum_report(DELTA_FORM, 100, grid=[10, 100])
    assert len(cusp_only.normalized_sq) == 2
    assert all(isinstance(v, float) for _, v in cusp_only.normalized_sq)


def test_report_grid_validation():
    with pytest.raises(ValueError):
        partial_sum_report(DELTA_FORM, 100, grid=[10, 200])
    with pytest.raises(ValueError, match="negative"):
        partial_sum_report(DELTA_FORM, 100, grid=[-3, 10])
    assert partial_sum_report(DELTA_FORM, 100, grid=[0]).partial_sum == ((0, 0),)


def test_report_serialization():
    data = partial_sum_report(DELTA_FORM, 10, grid=[10]).to_dict()
    assert data["sign_changes"] == 2
    assert data["partial_sum"] == [[10, "-11686"]]


def test_deligne_eigenforms_small():
    for m in EIGENFORM_WEIGHTS:
        report = deligne_check(m, 500)
        assert report.passed, m
        assert report.failures == ()
        assert 0 < report.worst_ratio < 1


def test_deligne_rejects_other_weights():
    for m in (14, 24, 28, 11):
        with pytest.raises(ValueError):
            deligne_check(m, 100)


def test_deligne_synthetic_violation():
    coeffs = delta(100).coeffs
    coeffs[2] = 100  # 100^2 > 4 * 2^11
    report = deligne_scan(coeffs, 12, 100)
    assert not report.passed
    assert report.failures == ((2, 100),)
    assert report.worst_prime == 2
    assert report.worst_ratio > 1


def test_eigenform_multiplicativity():
    # dim-1 echelon elements are normalized eigenforms, so coefficients
    # are multiplicative; this exercises the basis construction end to end
    for m in (16, 18, 20, 22, 26):
        (f,) = cusp_basis(m, 200)
        for a in range(2, 14):
            for b in range(2, 200 // a):
                if gcd(a, b) == 1:
                    assert f.coeffs[a * b] == f.coeffs[a] * f.coeffs[b], (m, a, b)
