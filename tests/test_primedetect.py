"""Tests for prime-coefficient extraction and the finite vanishing check.

prime_polynomial and coefficient_at_prime are written independently and
used as each other's oracle here; the root-counting soundness argument
is exercised both through the advertised interface and through an
explicit exact Vandermonde solve.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprime.exactnum import first_primes, solve_exact
from qprime.forms import QuasiForm, hk, hk_quasiform
from qprime.primedetect import (
    IN_OMEGA_TILDE,
    INSUFFICIENT_PRIMES,
    NOT_ALL_PRIMES,
    NOT_IN_OMEGA_TILDE,
    VANISHES_AT_ALL_PRIMES,
    coefficient_at_prime,
    finite_check,
    omega_scan,
    omega_tilde_decide,
    prime_polynomial,
    primes_needed,
)


def _random_eis_form(rng, max_weight=12):
    eis = {}
    for _ in range(rng.randint(1, 4)):
        k = 2 * rng.randint(1, max_weight // 2)
        l = rng.randint(0, (max_weight - k) // 2)
        eis[(k, l)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return QuasiForm(eis=eis)


# -- prime polynomial -------------------------------------------------------


def test_prime_polynomial_g4():
    poly = prime_polynomial(QuasiForm(eis={(4, 0): 1}))
    assert poly.degree_bound == 3
    assert list(poly.betas) == [1, 0, 0, 1]


def test_prime_polynomial_dg2():
    poly = prime_polynomial(QuasiForm(eis={(2, 1): 1}))
    assert poly.degree_bound == 2
    assert list(poly.betas) == [0, 1, 1]


def test_prime_polynomial_h8_cancels():
    # top contribution is (4, 2): l + k - 1 = 5
    poly = prime_polynomial(hk_quasiform(8))
    assert poly.degree_bound == 5
    assert poly.is_zero()
    assert len(poly.betas) == 6


def test_prime_polynomial_hk_all_cancel():
    for k in (6, 8, 10, 12, 14, 16):
        assert prime_polynomial(hk_quasiform(k)).is_zero(), k


def test_prime_polynomial_rejects_cusp():
    with pytest.raises(ValueError):
        prime_polynomial(QuasiForm(cusp={(12, 0, 0): 1}))


def test_prime_polynomial_ignores_constant_slot():
    poly = prime_polynomial(QuasiForm(eis={(0, 0): 5, (4, 0): 1}))
    assert list(poly.betas) == [1, 0, 0, 1]
    assert prime_polynomial(QuasiForm.constant(3)).is_zero()


def test_polynomial_matches_direct_evaluation():
    rng = random.Random(23)
    for _ in range(40):
        form = _random_eis_form(rng)
        poly = prime_polynomial(form)
        for p in (2, 3, 5, 31, 97):
            assert poly.evaluate(p) == coefficient_at_prime(form, p), form


def test_polynomial_matches_expansion_coefficients():
    rng = random.Random(29)
    forms = [hk_quasiform(6), hk_quasiform(10), QuasiForm(eis={(4, 0): 1})]
    forms += [_random_eis_form(rng) for _ in range(5)]
    for form in forms:
        poly = prime_polynomial(form)
        coeffs = form.expand(1000).coeffs
        for p in first_primes(50):
            assert poly.evaluate(p) == coeffs[p], form


def test_polynomial_always_divisible_by_x_plus_one():
    # each term alpha p^l (1 + p^{k-1}) has even k, so x = -1 kills it
    rng = random.Random(31)
    for _ in range(40):
        poly = prime_polynomial(_random_eis_form(rng))
        assert poly.evaluate(-1) == 0


# -- finite check -----------------------------------------------------------


def test_finite_check_zero_form():
    result = finite_check(QuasiForm(), [2, 3])
    assert result.verdict == VANISHES_AT_ALL_PRIMES
    assert finite_check(QuasiForm(), []).verdict == VANISHES_AT_ALL_PRIMES


def test_finite_check_g4_witness():
    result = finite_check(QuasiForm(eis={(4, 0): 1}), [2])
    assert result.verdict == NOT_ALL_PRIMES
    assert result.witness == (2, 9)


def test_finite_check_h8_both_paths():
    form = hk_quasiform(8)
    d = prime_polynomial(form).degree_bound
    result = finite_check(form, first_primes(d + 1))
    assert result.verdict == VANISHES_AT_ALL_PRIMES
    assert result.degree_bound == d


def test_finite_check_insufficient():
    form = hk_quasiform(8)  # degree bound 5, so 6 primes needed
    result = finite_check(form, [2, 3, 5])
    assert result.verdict == INSUFFICIENT_PRIMES
    assert result.needed == 6
    assert result.degree_bound == 5
    assert finite_check(form, []).verdict == INSUFFICIENT_PRIMES


def test_finite_check_collapses_repeats():
    form = hk_quasiform(8)
    result = finite_check(form, [2, 2, 2, 3, 3, 5])
    assert result.verdict == INSUFFICIENT_PRIMES


def test_finite_check_rejects_composites():
    with pytest.raises(ValueError):
        finite_check(QuasiForm(eis={(4, 0): 1}), [2, 4])


def test_finite_check_never_fooled_by_planted_roots():
    # build (x+1) * prod (x - p_i) out of pure G_2-derivative terms:
    # alpha_{2,l} contributes p^l + p^{l+1}, so coefficients q_l of Q give
    # the polynomial (1+x) Q(x), nonzero yet vanishing at every p_i
    planted = [2, 3, 5, 7]
    q = [Fraction(1)]
    for p in planted:
        # multiply by (x - p): new[i] = q[i-1] - p q[i], low power first
        q = [a - p * b for a, b in zip([Fraction(0)] + q, q + [Fraction(0)])]
    form = QuasiForm(eis={(2, l): c for l, c in enumerate(q) if c != 0})
    poly = prime_polynomial(form)
    assert not poly.is_zero()
    for p in planted:
        assert coefficient_at_prime(form, p) == 0
    result = finite_check(form, planted)
    assert result.verdict == INSUFFICIENT_PRIMES  # 4 roots < needed
    assert result.needed == poly.degree_bound + 1
    # supplying enough primes exposes the fraud
    enough = first_primes(poly.degree_bound + 1)
    exposed = finite_check(form, enough)
    assert exposed.verdict == NOT_ALL_PRIMES


def test_every_verdict_uses_the_one_root_count():
    # finite_check's needed and omega_tilde_decide's primes come from
    # primes_needed: one past the degree bound
    h8 = hk_quasiform(8)
    d = prime_polynomial(h8).degree_bound
    assert primes_needed(h8) == d + 1
    assert finite_check(h8, [2]).needed == d + 1
    assert finite_check(h8, first_primes(d)).verdict == INSUFFICIENT_PRIMES
    assert omega_tilde_decide(h8).verdict == IN_OMEGA_TILDE
    assert primes_needed(QuasiForm.constant(3)) == 1


def test_vandermonde_soundness_explicit_solve():
    # forcing a degree-d polynomial to vanish at d+1 distinct primes via
    # the exact Vandermonde system only admits the zero solution
    rng = random.Random(41)
    for _ in range(10):
        d = rng.randint(1, 6)
        points = list(first_primes(d + 1))
        rows = [[Fraction(p) ** j for j in range(d + 1)] for p in points]
        assert solve_exact(rows, [0] * (d + 1)) == [0] * (d + 1)


def test_finite_check_agrees_with_polynomial_on_random_forms():
    rng = random.Random(43)
    for _ in range(60):
        form = _random_eis_form(rng)
        poly = prime_polynomial(form)
        result = finite_check(form, first_primes(poly.degree_bound + 1))
        if poly.is_zero():
            assert result.verdict == VANISHES_AT_ALL_PRIMES
        else:
            assert result.verdict == NOT_ALL_PRIMES


def test_finite_check_serialization():
    data = finite_check(QuasiForm(eis={(4, 0): 1}), [2]).to_dict()
    assert data["verdict"] == NOT_ALL_PRIMES
    assert data["witness"] == {"p": 2, "value": "9"}
    data = finite_check(hk_quasiform(8), [2]).to_dict()
    assert data["needed"] == 6 and data["degree_bound"] == 5


# -- omega scan -------------------------------------------------------------


def test_omega_scan_h6_passes():
    report = omega_scan(hk_quasiform(6), 100)
    assert report.passed
    assert report.nonneg_ok and report.zero_set_equals_primes
    assert report.violations == ()
    assert report.total_violations == 0


def test_omega_scan_g4_fails_at_primes():
    report = omega_scan(QuasiForm(eis={(4, 0): 1}), 10)
    assert not report.zero_set_equals_primes
    assert report.nonneg_ok
    assert (2, 9, "nonzero at prime") in report.violations


def test_omega_scan_delta_fails_negativity():
    report = omega_scan(QuasiForm(cusp={(12, 0, 0): 1}), 10)
    assert not report.nonneg_ok
    assert (2, -24, "negative") in report.violations


def test_omega_scan_include_small_flags_h6_at_one():
    # the weight-6 combination vanishes at n = 1, which is not prime
    report = omega_scan(hk_quasiform(6), 50, include_small=True)
    assert not report.passed
    assert any(n == 1 and reason == "zero at non-prime" for n, _, reason in report.violations)
    assert omega_scan(hk_quasiform(6), 50, include_small=False).passed


def test_omega_scan_violation_cap():
    report = omega_scan(QuasiForm(eis={(4, 0): 1}), 200, max_violations=5)
    assert len(report.violations) == 5
    assert report.total_violations > 5
    data = report.to_dict()
    assert len(data["violations"]) == 5
    assert data["total_violations"] == report.total_violations


def test_omega_scan_rejects_tiny_bound():
    with pytest.raises(ValueError):
        omega_scan(hk_quasiform(6), 1)


def test_omega_scan_rejects_negative_violation_cap():
    # a negative cap would list no violation next to a nonzero total
    with pytest.raises(ValueError, match="max_violations"):
        omega_scan(QuasiForm(eis={(4, 0): 1}), 50, max_violations=-1)
    report = omega_scan(QuasiForm(eis={(4, 0): 1}), 50, max_violations=0)
    assert report.violations == ()
    assert report.total_violations > 0


# -- membership decision ----------------------------------------------------


def test_omega_tilde_hk_members():
    for k in (6, 8, 10, 12):
        result = omega_tilde_decide(hk_quasiform(k))
        assert result.verdict == IN_OMEGA_TILDE, k
        assert result.witness is None


def test_omega_tilde_derivatives_of_hk():
    for k in (6, 8, 10):
        for n in (1, 2, 3):
            form = hk_quasiform(k).derivative(n)
            assert omega_tilde_decide(form).verdict == IN_OMEGA_TILDE


def test_omega_tilde_cusp_witness_comes_first():
    form = QuasiForm(eis={(4, 0): 1}, cusp={(12, 0, 0): Fraction(1, 3)})
    result = omega_tilde_decide(form)
    assert result.verdict == NOT_IN_OMEGA_TILDE
    assert result.witness == ("cusp", (12, 0, 0), Fraction(1, 3))


def test_omega_tilde_prime_witness():
    result = omega_tilde_decide(QuasiForm(eis={(4, 0): 1}))
    assert result.verdict == NOT_IN_OMEGA_TILDE
    kind, p, value = result.witness
    assert kind == "prime" and p == 2 and value == 9


def test_omega_tilde_constant_is_member():
    # constants have no coefficients at n >= 1 at all
    assert omega_tilde_decide(QuasiForm.constant(7)).verdict == IN_OMEGA_TILDE


def test_omega_tilde_serialization():
    data = omega_tilde_decide(QuasiForm(eis={(4, 0): 1})).to_dict()
    assert data == {"verdict": "Not", "witness": {"type": "prime", "p": 2, "value": "9"}}
    data = omega_tilde_decide(hk_quasiform(8)).to_dict()
    assert data == {"verdict": "InOmegaTilde"}
    data = omega_tilde_decide(QuasiForm(cusp={(16, 0, 1): 2})).to_dict()
    assert data["witness"] == {"type": "cusp", "key": [16, 0, 1], "value": "2"}


_COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)


@st.composite
def _eisenstein_forms(draw):
    # sum of c D^n H_k, which vanishes at every prime, plus D^l G_k terms
    form = QuasiForm()
    hks = st.tuples(st.integers(3, 10), st.integers(0, 3), _COEFFS)
    for half, n, c in draw(st.lists(hks, max_size=3)):
        form = form + c * hk_quasiform(2 * half).derivative(n)
    keys = st.tuples(st.sampled_from(range(2, 14, 2)), st.integers(0, 3))
    return form + QuasiForm(eis=draw(st.dictionaries(keys, _COEFFS, max_size=3)))


@settings(max_examples=200, deadline=None)
@given(_eisenstein_forms())
def test_omega_tilde_verdict_matches_prime_polynomial(form):
    # prime_polynomial is the independent path: omega_tilde_decide does not
    # call it
    poly = prime_polynomial(form)
    result = omega_tilde_decide(form)
    assert (result.verdict == IN_OMEGA_TILDE) == poly.is_zero()
    if result.verdict == NOT_IN_OMEGA_TILDE:
        kind, p, value = result.witness
        assert kind == "prime" and value == poly.evaluate(p)
        primes = first_primes(poly.degree_bound + 1)
        assert p == next(q for q in primes if poly.evaluate(q) != 0)
