"""The one-pass Eisenstein expansion and the input checks around it.

QuasiForm.expand sums its Eisenstein part in one integer pass over the
sigma tables; it must give the numerators and the denominator of the
term-by-term sum of eisenstein_g derivatives exactly.  _classicalize
builds its binomial factors once per monomial and must agree with the
Fraction rewrite that recomputes them for every exponent triple.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import classicalize_by_fractions, eisenstein_part_termwise, sigma
from qprime.exactnum import bernoulli
from qprime.forms import QuasiForm, _classicalize, eisenstein_g, expand_monomials, from_monomials
from qprime.qseries import QExpansion

_coefficient = st.one_of(
    st.just(0),
    st.integers(-(10**12), 10**12),
    st.fractions(max_denominator=10**6),
)
_eis_key = st.one_of(
    st.just((0, 0)),
    st.tuples(st.integers(1, 20).map(lambda h: 2 * h), st.integers(0, 6)),
)
_eis_map = st.dictionaries(_eis_key, _coefficient, max_size=8)
_sign = st.sampled_from(["paper", "classical"])


def _assert_same(series, expected):
    assert series.precision == expected.precision
    assert series.den == expected.den
    assert series.nums == expected.nums
    assert gcd(series.den, *series.nums) == 1


@settings(max_examples=150, deadline=None)
@given(_eis_map, _sign, st.sampled_from([0, 1, 60]))
def test_eisenstein_part_matches_the_termwise_sum(eis, sign, precision):
    form = QuasiForm(eis=eis)
    _assert_same(form.expand(precision, sign), eisenstein_part_termwise(form.eis, precision, sign))


@pytest.mark.parametrize("sign", ["paper", "classical"])
def test_eisenstein_part_matches_the_termwise_sum_at_400(sign):
    eis = {
        (0, 0): Fraction(-7, 3),
        (2, 0): Fraction(1, 6),
        (2, 1): -1,
        (2, 2): Fraction(5, 12),
        (4, 0): 3,
        (12, 3): Fraction(-11, 691),
        (24, 0): Fraction(2, 7),
        (40, 5): 10**20,
    }
    form = QuasiForm(eis=eis)
    _assert_same(form.expand(400, sign), eisenstein_part_termwise(form.eis, 400, sign))


def test_mixed_form_adds_the_cusp_terms():
    form = QuasiForm(eis={(4, 0): Fraction(1, 240), (0, 0): 2}, cusp={(12, 0, 1): 3, (16, 0, 0): -1})
    expected = eisenstein_part_termwise(form.eis, 30) + QuasiForm(cusp=form.cusp).expand(30)
    _assert_same(form.expand(30), expected)


@pytest.mark.parametrize("sign", ["paper", "classical"])
def test_eisenstein_g_numerators_over_the_constant_denominator(sign):
    n = 12
    for k in range(2, 61, 2):
        const = (1 if sign == "paper" else -1) * bernoulli(k) / (2 * k)
        g = eisenstein_g(k, n, sign)
        assert g.den == const.denominator, k
        assert gcd(g.den, *g.nums) == 1, k
        assert g.coeffs == [const] + [sigma(k - 1, m) for m in range(1, n + 1)], k


_monomials = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 4), st.integers(0, 3)),
    _coefficient,
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(_monomials)
def test_classicalize_matches_the_fraction_rewrite(monomials):
    got = _classicalize(monomials)
    expected = classicalize_by_fractions(monomials)
    assert got == expected
    assert all(type(v) is Fraction for v in got.values())


def test_expand_rejects_a_negative_precision():
    for form in (QuasiForm(), QuasiForm(eis={(4, 0): 1}), QuasiForm(cusp={(12, 0, 0): 1})):
        with pytest.raises(ValueError, match="precision must be >= 0, got -1"):
            form.expand(-1)
    with pytest.raises(ValueError, match="precision must be >= 0"):
        eisenstein_g(4, -1)


@pytest.mark.parametrize("convert", [from_monomials, lambda m: expand_monomials(m, 10)])
def test_monomials_are_checked_at_the_boundary(convert):
    for value in (True, 0.5, "1"):
        with pytest.raises(TypeError, match=r"monomial \(1, 0, 0\)"):
            convert({(1, 0, 0): value})
    for key in ((1, 0), (1, 0, 0, 0), (1, -1, 0), (1.0, 0, 0), (True, 0, 0), "G4"):
        with pytest.raises(ValueError, match="tuple of three non-negative ints"):
            convert({key: 1})


def test_a_bool_is_no_scalar():
    form = QuasiForm(eis={(4, 0): 1})
    series = QExpansion([1, 2])
    for left, right in ((form, True), (True, form), (series, True), (False, series)):
        with pytest.raises(TypeError):
            left * right
