"""Tests for series constructors and the canonical representation.

The discriminant form gets an independent oracle (the normalized
weight-4/weight-6 cube-minus-square identity), from_monomials is checked
against a hand-derived rewrite of G_2^2 and against eigenform identities,
and every conversion is re-expanded far past the rows its solve checks.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

import qprime.forms as forms_module
from oracles import cusp_basis_by_gauss_jordan, eta24_by_recurrence, sigma
from qprime.exactnum import apply_factor, bernoulli, sigma_array, solve_exact, solves
from qprime.forms import (
    QuasiForm,
    cusp_basis,
    cusp_dim,
    delta,
    eisenstein_g,
    expand_monomials,
    from_monomials,
    hk,
    hk_quasiform,
    spanning_keys,
    _classicalize,
)
from qprime.qseries import QExpansion, linear_combination


def _e_normalized(k, n):
    # 1 - (2k/B_k) sum sigma_{k-1} q^m, built from scratch as an oracle
    from qprime.exactnum import bernoulli

    factor = Fraction(-2 * k) / bernoulli(k)
    coeffs = [1] + [factor * sigma(k - 1, m) for m in range(1, n + 1)]
    return QExpansion(coeffs, n)


# -- Eisenstein series ------------------------------------------------------


def test_eisenstein_constants():
    assert eisenstein_g(2, 2).coeffs[0] == Fraction(1, 24)
    assert eisenstein_g(4, 2).coeffs[0] == Fraction(-1, 240)
    assert eisenstein_g(6, 2).coeffs[0] == Fraction(1, 504)
    assert eisenstein_g(4, 2, "classical").coeffs[0] == Fraction(1, 240)


def test_eisenstein_coefficients_are_divisor_sums():
    for k in (2, 4, 6, 8, 12):
        g = eisenstein_g(k, 50)
        for n in range(1, 51):
            assert g.coeffs[n] == sigma(k - 1, n)


def test_eisenstein_conventions_agree_past_the_constant():
    paper = eisenstein_g(6, 30)
    classical = eisenstein_g(6, 30, "classical")
    assert paper.coeffs[1:] == classical.coeffs[1:]
    assert paper.coeffs[0] == -classical.coeffs[0]


def test_eisenstein_rejects_bad_weight():
    for k in (0, -2, 3, 5):
        with pytest.raises(ValueError):
            eisenstein_g(k, 10)
    with pytest.raises(ValueError):
        eisenstein_g(4, 10, "other")


# -- discriminant form ------------------------------------------------------


def test_delta_small_coefficients():
    d = delta(12)
    assert d.coeffs[0] == 0
    assert d.coeffs[1] == 1
    assert d.coeffs[2] == -24
    assert d.coeffs[3] == 252
    assert d.coeffs[6] == -6048
    assert d.coeffs[6] == d.coeffs[2] * d.coeffs[3]


def test_delta_against_eisenstein_identity():
    # 1728 Delta = E_4^3 - E_6^2 with the normalized series
    n = 200
    e4 = _e_normalized(4, n)
    e6 = _e_normalized(6, n)
    lhs = 1728 * delta(n)
    rhs = e4 * e4 * e4 - e6 * e6
    assert lhs.coeffs == rhs.coeffs


def test_delta_coefficients_multiplicative():
    from math import gcd

    d = delta(400)
    for a in range(2, 20):
        for b in range(2, 400 // a):
            if gcd(a, b) == 1:
                assert d.coeffs[a * b] == d.coeffs[a] * d.coeffs[b], (a, b)


def test_delta_against_eisenstein_identity_past_the_cutoff():
    # the same identity where every product runs through Kronecker substitution
    n = 1000
    e4 = _e_normalized(4, n)
    e6 = _e_normalized(6, n)
    assert (1728 * delta(n)).coeffs == (e4 * e4 * e4 - e6 * e6).coeffs


def test_delta_matches_the_recurrence_oracle():
    assert delta(2000).coeffs == [0] + eta24_by_recurrence(1999)


def test_ramanujan_congruence_mod_691():
    # tau(n) = sigma_11(n) (mod 691) for every n
    n = 10**4
    tau = delta(n).coeffs
    sig = sigma_array(11, n)
    assert all((tau[m] - sig[m]) % 691 == 0 for m in range(1, n + 1))


def test_eta24_cache_grown_in_two_steps_equals_a_fresh_build(monkeypatch):
    # first below the Kronecker cutoff, then above it
    monkeypatch.setattr(forms_module, "_ETA24", [1])
    small = delta(100).coeffs
    grown = delta(1500).coeffs
    assert len(forms_module._ETA24) == 1500
    assert delta(100).coeffs == small == grown[:101]
    monkeypatch.setattr(forms_module, "_ETA24", [1])
    assert delta(1500).coeffs == grown


def test_delta_requires_positive_precision():
    with pytest.raises(ValueError):
        delta(0)


# -- cusp bases -------------------------------------------------------------


def test_cusp_dim_values():
    expected = {4: 0, 10: 0, 12: 1, 14: 0, 16: 1, 18: 1, 20: 1, 22: 1,
                24: 2, 26: 1, 28: 2, 30: 2, 32: 2, 34: 2, 36: 3}
    for m, d in expected.items():
        assert cusp_dim(m) == d, m
    assert cusp_dim(13) == 0


def test_cusp_dim_counts_the_monomials_e4_e6():
    # dim S_m is the number of (a, b) with 4a + 6b = m - 12, by the
    # structure theorem; the closed form must agree, and a huge weight
    # (as a JSON key can carry) must not cost a loop over it
    for m in range(-4, 3001):
        count = sum(1 for b in range((m - 12) // 6 + 1) if (m - 12 - 6 * b) % 4 == 0)
        assert cusp_dim(m) == (count if m % 2 == 0 else 0), m
    assert cusp_dim(12 * 10**30) == 10**30
    assert cusp_dim(12 * 10**30 + 2) == 10**30 - 1


def test_cusp_basis_trivial_weights():
    assert cusp_basis(4, 10) == []
    assert cusp_basis(14, 10) == []


def test_cusp_basis_weight_12_is_delta():
    (b,) = cusp_basis(12, 30)
    assert b.coeffs == delta(30).coeffs


def test_cusp_basis_echelon_shape():
    for m in (24, 28, 36):
        basis = cusp_basis(m, 20)
        d = len(basis)
        assert d == cusp_dim(m)
        for i, f in enumerate(basis):
            assert f.coeffs[0] == 0
            for j in range(d):
                assert f.coeffs[j + 1] == (1 if i == j else 0), (m, i, j)


def test_cusp_basis_weight_26_is_the_monomial():
    # dim 1 and the defining monomial is already normalized
    n = 25
    (b,) = cusp_basis(26, n)
    e4 = _e_normalized(4, n)
    e6 = _e_normalized(6, n)
    direct = delta(n) * e4 * e4 * e6
    assert b.coeffs == direct.coeffs


def test_cusp_basis_spans_the_monomials():
    # delta * E_4^3 must be an exact combination of the echelon basis
    n = 30
    basis = cusp_basis(24, n)
    e4 = _e_normalized(4, n)
    target = delta(n) * e4 * e4 * e4
    rows = [[b.coeffs[i] for b in basis] for i in range(n + 1)]
    sol = solve_exact(rows, target.coeffs)
    assert sol is not None
    recon = sol[0] * basis[0] + sol[1] * basis[1]
    assert recon.coeffs == target.coeffs


@pytest.mark.parametrize("m", [36, 40, 48])
def test_cusp_basis_spans_every_monomial_past_the_cutoff(m):
    # the basis is built from Miller's rows Delta^{j+1} E_{m-12-12j}; each
    # delta * E_4^a * E_6^b, multiplied out one factor at a time, must be an
    # exact combination of it
    n = 200
    basis = cusp_basis(m, n)
    e4 = _e_normalized(4, n)
    e6 = _e_normalized(6, n)
    rows = [[b.coeffs[i] for b in basis] for i in range(n + 1)]
    r = m - 12
    for b in range(r // 6 + 1):
        if (r - 6 * b) % 4:
            continue
        target = delta(n)
        for _ in range((r - 6 * b) // 4):
            target = target * e4
        for _ in range(b):
            target = target * e6
        sol = solve_exact(rows, target.coeffs)
        assert sol is not None, (m, b)
        assert target.coeffs[1 : len(basis) + 1] == sol


# the oracle basis at q^1000 serves two tests
_gauss_jordan = lru_cache(maxsize=None)(cusp_basis_by_gauss_jordan)


def _typed(coeffs):
    return [(type(c), c) for c in coeffs]


@pytest.mark.parametrize("n", [100, 400, 1000])
def test_cusp_basis_matches_the_gauss_jordan_oracle(monkeypatch, n):
    # Miller's rows with integer back-substitution against the monomials
    # Delta E4^a E6^b with Gauss-Jordan over Fraction: the echelon basis is
    # unique, so values and types must agree, on both sides of the
    # Kronecker cutoff
    for m in range(12, 74, 2):
        monkeypatch.setattr(forms_module, "_CUSP_CACHE", {})
        basis = cusp_basis(m, n)
        assert len(basis) == cusp_dim(m), m
        expected = _gauss_jordan(m, n)
        assert [[(type(c), c) for c in f.coeffs] for f in basis] == [
            [(type(c), c) for c in row] for row in expected
        ], m


def test_cusp_basis_at_a_high_weight_matches_the_oracle(monkeypatch):
    # dimension 20: the back-substitution divides each updated row by its
    # content, without which the entries reach millions of bits here
    monkeypatch.setattr(forms_module, "_CUSP_CACHE", {})
    basis = cusp_basis(240, 21)
    expected = cusp_basis_by_gauss_jordan(240, 21)
    assert [[(type(c), c) for c in f.coeffs] for f in basis] == [
        [(type(c), c) for c in row] for row in expected
    ]


@pytest.mark.parametrize("n", [383, 384, 1000])
def test_expand_of_a_cusp_combination_matches_the_basis_and_the_oracle(monkeypatch, n):
    # from the cutoff on, expand evaluates the combination by Horner's rule
    # in Delta and builds no basis; below it, it combines the cached basis
    monkeypatch.setattr(forms_module, "_MILLER_TRANSFORMS", {})
    rng = random.Random(n)
    for m in range(12, 74, 2):
        d = cusp_dim(m)
        if d == 0:
            continue
        indices = rng.sample(range(d), rng.randint(1, d))
        gammas = {i: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
                  for i in indices}
        l = rng.randint(0, 2)
        monkeypatch.setattr(forms_module, "_CUSP_CACHE", {})
        got = QuasiForm(cusp={(m, i, l): g for i, g in gammas.items()}).expand(n)
        assert (m in forms_module._MILLER_TRANSFORMS) == (n >= 384), m
        assert (m in forms_module._CUSP_CACHE) == (n < 384), m
        rows = [f.coeffs for f in cusp_basis(m, n)]
        for basis in (rows, _gauss_jordan(m, n)):
            expected = linear_combination(
                [(g, QExpansion(basis[i], n).derivative(l)) for i, g in gammas.items()], n
            )
            assert _typed(got.coeffs) == _typed(expected.coeffs), (m, n)


def test_expand_past_the_horner_dimension_combines_the_basis(monkeypatch):
    # dimension 7: the transform's entries outgrow the basis rows, so expand
    # keeps to the basis even above the cutoff
    monkeypatch.setattr(forms_module, "_MILLER_TRANSFORMS", {})
    assert cusp_dim(84) == forms_module._HORNER_MAX_DIM + 1
    form = QuasiForm(cusp={(84, 0, 1): Fraction(2, 3), (84, 6, 1): -5})
    got = form.expand(400)
    basis = cusp_basis(84, 400)
    expected = linear_combination(
        [(Fraction(2, 3), basis[0].derivative()), (-5, basis[6].derivative())], 400
    )
    assert _typed(got.coeffs) == _typed(expected.coeffs)
    assert forms_module._MILLER_TRANSFORMS == {}


def test_cusp_basis_rejects_odd_weight_and_tiny_precision():
    with pytest.raises(ValueError):
        cusp_basis(13, 10)
    with pytest.raises(ValueError):
        cusp_basis(24, 1)


# -- the H_k family ---------------------------------------------------------


def test_h6_known_values():
    h = hk(6, 10)
    assert h.coeffs[0] == Fraction(11, 1440)
    assert h.coeffs[4] == 3
    assert h.coeffs[6] == 20


def test_h6_matches_displayed_combination():
    n = 40
    g2 = eisenstein_g(2, n)
    g4 = eisenstein_g(4, n)
    direct = Fraction(1, 6) * (g2.derivative(2) - g2.derivative() + g2 - g4)
    assert hk(6, n).coeffs == direct.coeffs


def test_hk_matches_displayed_combination():
    n = 40
    for k in (8, 10, 12, 16):
        a = eisenstein_g(k - 6, n)
        b = eisenstein_g(k - 4, n)
        c = eisenstein_g(k - 2, n)
        direct = Fraction(1, 24) * (-a.derivative(2) + b.derivative(2) + b - c)
        assert hk(k, n).coeffs == direct.coeffs


def test_hk_vanishes_at_small_primes():
    from qprime.exactnum import primes_up_to

    for k in (6, 8, 10, 12, 14):
        h = hk(k, 200)
        for p in primes_up_to(200):
            assert h.coeffs[p] == 0, (k, p)


def test_hk_quasiform_expansion_is_hk():
    for k in (6, 8, 12):
        assert hk_quasiform(k).expand(50).coeffs == hk(k, 50).coeffs


def test_hk_rejects_bad_weight():
    for k in (4, 5, 7, 0):
        with pytest.raises(ValueError):
            hk_quasiform(k)


# -- QuasiForm --------------------------------------------------------------


def test_quasiform_drops_zeros_and_normalizes():
    f = QuasiForm(eis={(4, 0): Fraction(2, 1), (6, 1): 0}, cusp={(12, 0, 0): 0})
    assert f.eis == {(4, 0): 2}
    assert isinstance(f.eis[(4, 0)], int)
    assert f.cusp == {}
    assert not f.is_zero()
    assert QuasiForm().is_zero()


def test_quasiform_key_validation():
    with pytest.raises(ValueError):
        QuasiForm(eis={(3, 0): 1})
    with pytest.raises(ValueError):
        QuasiForm(eis={(4, -1): 1})
    with pytest.raises(ValueError):
        QuasiForm(eis={(0, 1): 1})
    with pytest.raises(ValueError):
        QuasiForm(cusp={(10, 0, 0): 1})
    with pytest.raises(ValueError):
        QuasiForm(cusp={(12, 1, 0): 1})  # S_12 has only index 0
    QuasiForm(eis={(0, 0): 5})  # the constant slot is legal


def test_quasiform_linear_structure():
    f = QuasiForm(eis={(4, 0): 1, (2, 1): Fraction(1, 2)})
    g = QuasiForm(eis={(4, 0): -1}, cusp={(12, 0, 0): 3})
    s = f + g
    assert s.eis == {(2, 1): Fraction(1, 2)}
    assert s.cusp == {(12, 0, 0): 3}
    assert (f - f).is_zero()
    assert (2 * f).eis == {(4, 0): 2, (2, 1): 1}
    assert (0 * f).is_zero()


def test_quasiform_derivative_shifts_and_kills_constant():
    f = QuasiForm(eis={(0, 0): 7, (4, 1): 2}, cusp={(12, 0, 0): 1})
    df = f.derivative()
    assert df.eis == {(4, 2): 2}
    assert df.cusp == {(12, 0, 1): 1}
    assert f.derivative(0) is f
    # expansion commutes with derivative
    assert df.expand(20).coeffs == f.expand(20).derivative().coeffs


def test_quasiform_expansion_examples():
    assert QuasiForm(eis={(4, 0): 1}).expand(20).coeffs == eisenstein_g(4, 20).coeffs
    c = Fraction(1, 6)
    h6_map = QuasiForm(eis={(2, 2): c, (2, 1): -c, (2, 0): c, (4, 0): -c})
    assert h6_map.expand(30).coeffs == hk(6, 30).coeffs
    dd = QuasiForm(cusp={(12, 0, 1): 1})
    assert dd.expand(5).coeffs[2] == -48


def test_quasiform_constant_expansion():
    f = QuasiForm.constant(Fraction(3, 7))
    assert f.expand(4).coeffs == [Fraction(3, 7), 0, 0, 0, 0]


def test_quasiform_json_round_trip():
    f = QuasiForm(
        eis={(4, 0): Fraction(-5, 12), (0, 0): 3, (2, 5): 1},
        cusp={(12, 0, 2): Fraction(7, 2), (24, 1, 0): -1},
    )
    data = f.to_dict()
    assert data["eis"] == [[0, 0, "3"], [2, 5, "1"], [4, 0, "-5/12"]]
    assert data["cusp"] == [[12, 0, 2, "7/2"], [24, 1, 0, "-1"]]
    g = QuasiForm.from_json(f.to_json())
    assert g == f


def test_quasiform_from_dict_rejects_duplicates():
    with pytest.raises(ValueError):
        QuasiForm.from_dict({"eis": [[4, 0, "1"], [4, 0, "2"]], "cusp": []})


@pytest.mark.parametrize("value", [True, False, 0.5, 2.0, None, "1", 1j])
def test_quasiform_coefficients_are_int_or_fraction(value):
    # a bool would print as "True" in JSON, a float is inexact
    with pytest.raises(TypeError):
        QuasiForm(eis={(4, 0): value})
    with pytest.raises(TypeError):
        QuasiForm(cusp={(12, 0, 0): value})


def test_quasiform_stores_integral_fractions_as_ints():
    f = QuasiForm(eis={(4, 0): Fraction(6, 3), (2, 1): Fraction(1, 2)})
    assert type(f.eis[(4, 0)]) is int and f.eis[(2, 1)] == Fraction(1, 2)
    assert f.to_dict()["eis"] == [[2, 1, "1/2"], [4, 0, "2"]]


# -- spanning sets and monomial conversion ----------------------------------


def test_spanning_keys_counts():
    eis, cusp = spanning_keys(12)
    assert eis == [(12, 0), (10, 1), (8, 2), (6, 3), (4, 4), (2, 5)]
    assert cusp == [(12, 0, 0)]
    eis24, cusp24 = spanning_keys(24)
    assert len(eis24) == 12
    assert len(cusp24) == 7
    eis2, cusp2 = spanning_keys(2)
    assert eis2 == [(2, 0)] and cusp2 == []

    def dim_m(k):
        # M_* = C[E_4, E_6]: one basis element E_4^a E_6^b per 4a + 6b = k
        return sum(1 for b in range(k // 6 + 1) if (k - 6 * b) % 4 == 0)

    # the structure theorem: M~_w = sum_j D^j M_{w-2j} + C D^{w/2-1} G_2
    for w in range(2, 31, 2):
        eis, cusp = spanning_keys(w)
        expected = sum(dim_m(w - 2 * j) for j in range(w // 2) if w - 2 * j >= 4) + 1
        assert len(eis) + len(cusp) == expected, w


def test_spanning_sets_have_full_rank_through_weight_30():
    for w in range(2, 31, 2):
        eis_keys, cusp_keys = spanning_keys(w)
        ncols = len(eis_keys) + len(cusp_keys)
        prec = ncols + 10
        cols = [
            eisenstein_g(k, prec, "classical").derivative(l).coeffs
            for (k, l) in eis_keys
        ]
        cols += [
            cusp_basis(m, prec)[i].derivative(l).coeffs for (m, i, l) in cusp_keys
        ]
        rows = [[col[n] for col in cols] for n in range(prec + 1)]
        # full column rank makes the homogeneous system uniquely solvable
        assert solve_exact(rows, [0] * (prec + 1)) == [0] * ncols


def test_expand_monomials_basics():
    assert expand_monomials({}, 5).coeffs == [0] * 6
    assert expand_monomials({(0, 0, 0): Fraction(1, 3)}, 3).coeffs[0] == Fraction(1, 3)
    assert expand_monomials({(1, 0, 0): 2}, 10).coeffs == (2 * eisenstein_g(2, 10)).coeffs
    prod = expand_monomials({(1, 1, 0): 1}, 15)
    direct = eisenstein_g(2, 15) * eisenstein_g(4, 15)
    assert prod.coeffs == direct.coeffs
    with pytest.raises(ValueError):
        expand_monomials({(-1, 0, 0): 1}, 5)


def test_from_monomials_single_generators():
    assert from_monomials({(0, 1, 0): 1}) == QuasiForm(eis={(4, 0): 1})
    assert from_monomials({(0, 0, 1): 1}) == QuasiForm(eis={(6, 0): 1})
    assert from_monomials({(1, 0, 0): 1}) == QuasiForm(eis={(2, 0): 1})
    assert from_monomials({}).is_zero()
    assert from_monomials({(0, 0, 0): 4}) == QuasiForm.constant(4)


def test_from_monomials_g2_squared():
    # hand-derived: G_2^2 = -1/288 + (1/6) G_2 - (1/2) DG_2 + (5/12) G_4
    r = from_monomials({(2, 0, 0): 1})
    assert r.cusp == {}
    assert r.eis == {
        (0, 0): Fraction(-1, 288),
        (2, 0): Fraction(1, 6),
        (2, 1): Fraction(-1, 2),
        (4, 0): Fraction(5, 12),
    }


def test_from_monomials_weight_10_has_no_cusp_part():
    r = from_monomials({(0, 1, 1): 1})
    assert r.cusp == {}
    assert (10, 0) in r.eis


def test_from_monomials_eigenform_identity():
    # the weight-12 cusp component of G_4^3 comes from the classical
    # cube identity E_4^3 = E_12 + (432000/691) Delta, scaled by 240^-3
    r = from_monomials({(0, 3, 0): 1})
    assert r.cusp == {(12, 0, 0): Fraction(1, 22112)}
    assert Fraction(432000, 691) / 240**3 == Fraction(1, 22112)


def test_from_monomials_certificate_random_combos():
    # the solve checked on its own rows holds far beyond them, in both
    # conventions, through weight 24
    rng = random.Random(99)
    for sign in ("paper", "classical"):
        for _ in range(10):
            monomials = {}
            for _ in range(rng.randint(1, 3)):
                a, b, c = rng.randint(0, 6), rng.randint(0, 4), rng.randint(0, 3)
                if 2 * a + 4 * b + 6 * c > 24:
                    continue
                monomials[(a, b, c)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            form = from_monomials(monomials, constant_sign=sign)
            assert form.expand(60, sign) == expand_monomials(monomials, 60, sign)


def test_from_monomials_classical_convention():
    monomials = {(2, 0, 0): 1, (0, 1, 0): Fraction(1, 2)}
    # n_guard is accepted and ignored, for callers that pass it by name
    form = from_monomials(monomials, n_guard=30, constant_sign="classical")
    lhs = form.expand(30, constant_sign="classical")
    rhs = expand_monomials(monomials, 30, constant_sign="classical")
    assert lhs.coeffs == rhs.coeffs
    # classical monomials are homogeneous, so no constant leaks in
    assert (0, 0) not in form.eis


def test_from_monomials_rejects_negative_exponents():
    with pytest.raises(ValueError):
        from_monomials({(0, -1, 0): 1})


# -- the per-weight solve cache ---------------------------------------------


def _uncached_system(weight):
    # the weight's spanning system built from scratch, as from_monomials did
    # before it cached a factored copy
    eis_keys, cusp_keys = spanning_keys(weight)
    prec = len(eis_keys) + len(cusp_keys) + 10
    cols = [eisenstein_g(k, prec, "classical").derivative(l).coeffs for (k, l) in eis_keys]
    cols += [cusp_basis(m, prec)[i].derivative(l).coeffs for (m, i, l) in cusp_keys]
    rows = [[col[n] for col in cols] for n in range(prec + 1)]
    return eis_keys + cusp_keys, prec, rows


def _monomials_of_weight(weight):
    return [
        (a, b, c)
        for a in range(weight // 2 + 1)
        for b in range(weight // 4 + 1)
        for c in range(weight // 6 + 1)
        if 2 * a + 4 * b + 6 * c == weight
    ]


def test_weight_cache_matches_direct_solve_for_every_monomial(monkeypatch):
    monkeypatch.setattr(forms_module, "_WEIGHT_SYSTEMS", {})
    # each classical monomial solved once, directly and without the cache
    direct = {}
    for weight in range(2, 25, 2):
        keys, prec, rows = _uncached_system(weight)
        for mono in _monomials_of_weight(weight):
            target = expand_monomials({mono: 1}, prec, "classical")
            solution = solve_exact(rows, target.coeffs)
            assert solution is not None
            direct[mono] = {key: v for key, v in zip(keys, solution) if v != 0}

    def assemble(classical_monomials, paper):
        # the canonical form from the direct per-monomial solutions
        eis, cusp = {}, {}
        const = Fraction(classical_monomials.get((0, 0, 0), 0))
        for mono, coeff in classical_monomials.items():
            for key, value in direct.get(mono, {}).items():
                part = eis if len(key) == 2 else cusp
                part[key] = part.get(key, 0) + coeff * value
                if paper and len(key) == 2 and key[1] == 0:
                    const -= coeff * value * bernoulli(key[0]) / key[0]
        eis[(0, 0)] = const
        return QuasiForm(eis=eis, cusp=cusp)

    for weight in range(2, 25, 2):
        for mono in _monomials_of_weight(weight):
            classical = from_monomials({mono: 1}, constant_sign="classical")
            assert classical == assemble({mono: 1}, paper=False), mono
            paper = from_monomials({mono: 1})
            assert paper == assemble(_classicalize({mono: 1}), paper=True), mono
    # one factored system per weight, whatever the convention
    assert sorted(forms_module._WEIGHT_SYSTEMS) == list(range(2, 25, 2))


def test_weight_cache_keeps_the_consistency_check():
    weight = 16
    _, _, prec, matrix, scale, factor = forms_module._weight_system(weight)
    keys, _, rows = _uncached_system(weight)
    # the cached integer matrix is the spanning rows over one scale
    assert [[Fraction(x, scale) for x in row] for row in matrix] == rows
    target = expand_monomials({(2, 0, 2): 1}, prec, "classical").nums
    assert solves(matrix, apply_factor(factor, target), target)
    # a right-hand side off the span, caught by the all-rows check
    perturbed = list(target)
    perturbed[-1] += 1
    assert not solves(matrix, apply_factor(factor, perturbed), perturbed)
    assert solve_exact(rows, perturbed) is None


def test_inconsistent_weight_solve_raises(monkeypatch):
    # a target that the spanning set cannot reproduce must not be solved
    real = forms_module.expand_monomials

    def off_by_one(monomials, precision, constant_sign="paper"):
        series = real(monomials, precision, constant_sign)
        if constant_sign == "classical":
            series = series + QExpansion([0] * precision + [1], precision)
        return series

    monkeypatch.setattr(forms_module, "expand_monomials", off_by_one)
    with pytest.raises(ValueError, match="inconsistent solve"):
        from_monomials({(2, 1, 0): 1}, constant_sign="classical")


def test_corrupted_weight_cache_trips_the_guard(monkeypatch):
    # swap the recorded operations of two solution rows: only the check of
    # the solution against every row of the matrix can notice
    eis_keys, cusp_keys, prec, matrix, scale, factor = forms_module._weight_system(12)
    swapped = (factor[1], factor[0], *factor[2:])
    bad = (eis_keys, cusp_keys, prec, matrix, scale, swapped)
    monkeypatch.setitem(forms_module._WEIGHT_SYSTEMS, 12, bad)
    with pytest.raises(ValueError, match="inconsistent solve at weight 12"):
        from_monomials({(0, 3, 0): 1}, constant_sign="classical")


@pytest.mark.parametrize("m", [m for m in range(12, 84, 2) if 1 <= cusp_dim(m) <= 6])
def test_miller_transform_inverts_its_block(m):
    d = cusp_dim(m)
    transform = forms_module._miller_transform(m)
    block = [row.coeffs[1:] for row in forms_module._miller_rows(m, d)]
    product = [[sum(t * b[c] for t, b in zip(row, block)) for c in range(d)] for row in transform]
    assert product == [[int(i == c) for c in range(d)] for i in range(d)]
    # and it maps Miller's rows to the echelon basis, built by its own reduction
    prec = 2 * d + 5
    rows = list(forms_module._miller_rows(m, prec))
    for row, element in zip(transform, cusp_basis(m, prec)):
        assert linear_combination(list(zip(row, rows)), prec) == element
