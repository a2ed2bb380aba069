"""Tests for truncated q-series arithmetic.

The multiplication fast path must agree with schoolbook convolution on
random inputs, and the ring axioms are exercised with seeded random
series rather than hand-picked ones.
"""

import decimal
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprime.exactnum import integer_numerators, rationals_over
from qprime.qseries import (
    _FAST_MUL_MIN_PRECISION,
    QExpansion,
    _mul_kronecker,
    _mul_schoolbook,
    linear_combination,
)


def _typed(coeffs):
    return [(type(c), c) for c in coeffs]


def _random_series(rng, precision, rational=False):
    coeffs = []
    for _ in range(precision + 1):
        c = rng.randint(-50, 50)
        if rational and rng.random() < 0.3:
            c = Fraction(c, rng.randint(1, 12))
        coeffs.append(c)
    return QExpansion(coeffs, precision)


def test_constructor_pads_and_truncates():
    f = QExpansion([1, 2], 4)
    assert f.coeffs == [1, 2, 0, 0, 0]
    g = QExpansion([1, 2, 3, 4], 2)
    assert g.coeffs == [1, 2, 3]
    assert QExpansion([5]).precision == 0


def test_getitem_bounds():
    f = QExpansion([1, 2, 3])
    assert f[2] == 3
    with pytest.raises(IndexError):
        f[3]
    with pytest.raises(IndexError):
        f[-1]


def test_add_truncates_to_common_precision():
    f = QExpansion([1, 1, 1, 1], 3)
    g = QExpansion([1, 2], 1)
    h = f + g
    assert h.precision == 1
    assert h.coeffs == [2, 3]


def test_scalar_operations():
    f = QExpansion([1, 2, 3])
    assert (3 * f).coeffs == [3, 6, 9]
    assert (f * Fraction(1, 2)).coeffs == [Fraction(1, 2), 1, Fraction(3, 2)]
    assert (f + 10).coeffs == [11, 2, 3]
    assert (10 - f).coeffs == [9, -2, -3]


def test_mul_small_example():
    # (1 + q)(1 - q) = 1 - q^2
    f = QExpansion([1, 1, 0])
    g = QExpansion([1, -1, 0])
    assert (f * g).coeffs == [1, 0, -1]


def test_geometric_series_inverse():
    n = 30
    one_minus_q = QExpansion([1, -1] + [0] * (n - 1), n)
    geom = QExpansion([1] * (n + 1), n)
    assert (one_minus_q * geom).coeffs == [1] + [0] * n


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(0, 20)
        f = _random_series(rng, n, rational=True)
        g = _random_series(rng, n, rational=True)
        h = _random_series(rng, n, rational=True)
        assert (f + g).coeffs == (g + f).coeffs
        assert (f * g).coeffs == (g * f).coeffs
        assert ((f + g) * h).coeffs == (f * h + g * h).coeffs
        assert ((f * g) * h).coeffs == (f * (g * h)).coeffs
        assert (f + QExpansion.zero(n)).coeffs == f.coeffs
        assert (f * QExpansion.one(n)).coeffs == f.coeffs
        assert (f - f).is_zero()


def test_derivative_leibniz():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 15)
        f = _random_series(rng, n)
        g = _random_series(rng, n)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs.coeffs == rhs.coeffs


def test_derivative_composition():
    rng = random.Random(13)
    f = _random_series(rng, 12, rational=True)
    assert f.derivative(3).coeffs == f.derivative().derivative().derivative().coeffs
    assert f.derivative(0) is f
    assert f.derivative(2).coeffs == [n * n * c for n, c in enumerate(f.coeffs)]


def test_kronecker_matches_schoolbook():
    # _mul_kronecker multiplies integer lists; rational operands reach it
    # scaled to integer numerators, as QExpansion.__mul__ does
    rng = random.Random(42)
    for trial in range(8):
        n = rng.randint(50, 400)
        a = [rng.randint(-10**6, 10**6) for _ in range(n + 1)]
        b = [rng.randint(-10**6, 10**6) for _ in range(n + 1)]
        if trial % 2 == 0:
            a = [Fraction(c, rng.randint(1, 30)) for c in a]
        ia, den = integer_numerators(a)
        product = _mul_kronecker(ia, b, n)
        assert product == _mul_schoolbook(ia, b, n)
        assert rationals_over(product, den) == _mul_schoolbook(a, b, n)


def test_kronecker_edge_cases():
    assert _mul_kronecker([0, 0, 0], [1, 2, 3], 2) == [0, 0, 0]
    assert _mul_kronecker([1], [1], 0) == [1]
    # a zero operand times coefficients past the default int/str digit limit
    huge = [10**5000, -(10**5000), 1]
    assert _mul_kronecker([0, 0, 0], huge, 2) == [0, 0, 0]
    assert _mul_kronecker(huge, [0, 0, 0], 2) == [0, 0, 0]
    # huge coefficients must not overflow the limb width
    big = 10**40
    assert _mul_kronecker([big, -big], [big, big], 1) == [big * big, 0]


def test_large_product_uses_fast_path_and_is_exact():
    n = 600
    f = QExpansion([(i % 7) - 3 for i in range(n + 1)], n)
    g = QExpansion([(i % 5) - 2 for i in range(n + 1)], n)
    prod = f * g
    direct = _mul_schoolbook(f.coeffs, g.coeffs, n)
    assert prod.coeffs == direct


def test_equality_truncating():
    f = QExpansion([1, 2, 3, 4], 3)
    g = QExpansion([1, 2], 1)
    assert f == g
    assert g == f
    assert f != QExpansion([1, 3], 1)


def test_json_round_trip():
    f = QExpansion([1, Fraction(-7, 3), 0, 42], 3)
    data = f.to_dict()
    assert data["precision"] == 3
    assert data["coeffs"] == ["1", "-7/3", "0", "42"]
    g = QExpansion.from_json(f.to_json())
    assert g.precision == f.precision
    assert g.coeffs == f.coeffs
    assert isinstance(g.coeffs[0], int)
    assert isinstance(g.coeffs[1], Fraction)


def test_from_dict_length_mismatch():
    with pytest.raises(ValueError):
        QExpansion.from_dict({"precision": 3, "coeffs": ["1", "2"]})


@pytest.mark.parametrize(
    "data, message",
    [
        # a float precision would be truncated, a bool read as 1
        ({"precision": 2.9, "coeffs": ["1", "2", "3"]}, "precision"),
        ({"precision": True, "coeffs": ["1", "2"]}, "precision"),
        ({"precision": "2", "coeffs": ["1", "2", "3"]}, "precision"),
        ({"precision": -1, "coeffs": []}, "precision"),
        # a float coefficient would enter the exact domain as 1/2
        ({"precision": 1, "coeffs": ["1", 0.5]}, "must be an integer"),
        ({"precision": 1, "coeffs": ["1", True]}, "must be an integer"),
        ({"precision": 1, "coeffs": ["1", None]}, "must be an integer"),
        ({"precision": 1, "coeffs": ["1", ["2"]]}, "must be an integer"),
        ({"precision": 1, "coeffs": ["1", "0.5"]}, "not a rational"),
        ({"precision": 1, "coeffs": ["1", "1e999999999"]}, "not a rational"),
        ({"precision": 1, "coeffs": ["1", " 2"]}, "not a rational"),
        ({"precision": 1, "coeffs": ["1", "1/0"]}, "not a rational"),
        ({"precision": 1, "coeffs": ["1", "x"]}, "not a rational"),
        ({"precision": 1, "coeffs": "12"}, "must be a list of 2"),
        ({"precision": 3, "coeffs": ["1", "2"]}, "must be a list of 4"),
        ({"precision": 1}, "must be an object"),
        ({"coeffs": ["1"]}, "must be an object"),
        ({"precision": 0, "coeffs": ["1"], "extra": 0}, "must be an object"),
        ([1, 2], "must be an object"),
        ("G4", "must be an object"),
        (None, "must be an object"),
    ],
)
def test_from_dict_rejects_malformed_input(data, message):
    with pytest.raises(ValueError, match=message):
        QExpansion.from_dict(data)


def test_from_dict_reads_ints_and_rational_strings():
    f = QExpansion.from_dict({"precision": 3, "coeffs": [7, "-7/3", "4/2", "-0"]})
    assert f.coeffs == [7, Fraction(-7, 3), 2, 0]
    assert [type(c) for c in f.coeffs] == [int, Fraction, int, int]


def test_float_coefficients_raise_in_products_and_sums():
    # int and Fraction are the only coefficient types: a float series
    # cannot be built, and a float scalar has no exact product or sum
    with pytest.raises(TypeError):
        QExpansion([0.5, 1.0, 2.0])
    g = QExpansion([1, 2, 3])
    with pytest.raises(TypeError):
        linear_combination([(0.5, g)], 2)
    for total in (lambda: g * 0.5, lambda: 0.5 * g, lambda: g + 0.5, lambda: 0.5 - g):
        with pytest.raises(TypeError):
            total()


@pytest.mark.parametrize(
    "total",
    [lambda g: g + True, lambda g: True + g, lambda g: g - True, lambda g: True - g,
     lambda g: linear_combination([(True, g)], 1)],
    ids=["add", "radd", "sub", "rsub", "linear_combination"],
)
def test_bool_is_refused_in_sums(total):
    # a bool is an int to Python, and would add as 1 or 0
    with pytest.raises(TypeError):
        total(QExpansion([1, 2]))


@pytest.mark.parametrize("bad", [True, False, 0.5, 2.0, None, "1", 1j])
def test_constructor_rejects_what_is_not_an_int_or_a_fraction(bad):
    # the rule of QuasiForm's coefficients: a bool would print as "True"
    with pytest.raises(TypeError):
        QExpansion([1, bad])
    with pytest.raises(TypeError):
        QExpansion([bad, 0], 3)


def test_results_are_ints_wherever_integral():
    # values and types: a Fraction of denominator 1 is never stored
    assert _typed((QExpansion([2, 4]) * Fraction(1, 2)).coeffs) == [(int, 1), (int, 2)]
    f = QExpansion([Fraction(1, 2), 1, Fraction(1, 3)])
    assert _typed(f.derivative().coeffs) == [(int, 0), (int, 1), (Fraction, Fraction(2, 3))]
    assert _typed((f * 6).coeffs) == [(int, 3), (int, 6), (int, 2)]
    assert _typed(f.truncate(1).derivative().coeffs) == [(int, 0), (int, 1)]
    assert type(f.derivative()[0]) is int


def test_sums_are_exact_and_normalized():
    half = QExpansion([Fraction(1, 2), Fraction(1, 3), 2])
    total = half + half
    assert total.coeffs == [1, Fraction(2, 3), 4]
    assert [type(c) for c in total.coeffs] == [int, Fraction, int]
    assert (half - half).coeffs == [0, 0, 0]
    assert (half + Fraction(1, 2)).coeffs == [1, Fraction(1, 3), 2]
    assert (2 - half).coeffs == [Fraction(3, 2), Fraction(-1, 3), -2]
    assert (half + QExpansion([1, 1])).coeffs == [Fraction(3, 2), Fraction(4, 3)]


def test_truncate():
    f = QExpansion([1, 2, 3, 4], 3)
    assert f.truncate(1).coeffs == [1, 2]
    assert f.truncate(3) is f
    with pytest.raises(ValueError):
        f.truncate(5)


# -- QExpansion.__mul__ against a plain Fraction oracle ---------------------


def _oracle_product(a, b):
    """Schoolbook product over Fraction, truncated to the shorter operand.

    Integer coefficients stay ints (a Fraction with denominator 1 compares
    equal to them), which keeps the oracle fast on integer series.
    """
    n = min(len(a), len(b)) - 1
    a = [c if type(c) is int else Fraction(c) for c in a[: n + 1]]
    b = [c if type(c) is int else Fraction(c) for c in b[: n + 1]]
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def _canonical(coeffs):
    # an int wherever the value is integral, a Fraction only otherwise
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in coeffs)


_coefficient = st.one_of(
    st.just(0),
    st.integers(-(10**30), 10**30),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
)
_small_precision = st.integers(0, 24)


@settings(max_examples=150, deadline=None)
@given(st.data(), _small_precision, _small_precision)
def test_mul_matches_fraction_oracle(data, na, nb):
    a = QExpansion(data.draw(st.lists(_coefficient, min_size=na + 1, max_size=na + 1)), na)
    b = QExpansion(data.draw(st.lists(_coefficient, min_size=nb + 1, max_size=nb + 1)), nb)
    product = a * b
    assert product.precision == min(na, nb)
    assert product.coeffs == _oracle_product(a.coeffs, b.coeffs)
    assert _canonical(product.coeffs)
    square = a * a
    assert square.coeffs == _oracle_product(a.coeffs, a.coeffs)
    assert _canonical(square.coeffs)


def _seeded_coeffs(seed, precision, zero_share, fraction_share):
    rng = random.Random(seed)
    out = []
    for _ in range(precision + 1):
        u = rng.random()
        if u < zero_share:
            out.append(0)
        elif u < zero_share + fraction_share:
            out.append(Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**3)))
        else:
            out.append(rng.randint(-(10**12), 10**12))
    return out


@pytest.mark.parametrize(
    "na, nb",
    # products at precision 383 (schoolbook) and 384 (Kronecker), with
    # operands of equal and of different precisions
    [(_FAST_MUL_MIN_PRECISION - 1, _FAST_MUL_MIN_PRECISION + 6),
     (_FAST_MUL_MIN_PRECISION, _FAST_MUL_MIN_PRECISION),
     (_FAST_MUL_MIN_PRECISION + 2, _FAST_MUL_MIN_PRECISION)],
)
@settings(max_examples=2, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.0, 0.1, 1.0]),
)
def test_mul_matches_fraction_oracle_at_the_cutoff(na, nb, seed, zero_share, fraction_share):
    a = QExpansion(_seeded_coeffs(seed, na, zero_share, fraction_share), na)
    b = QExpansion(_seeded_coeffs(seed + 1, nb, zero_share, 0.0), nb)
    product = a * b
    assert product.coeffs == _oracle_product(a.coeffs, b.coeffs)
    assert (b * a).coeffs == product.coeffs
    assert _canonical(product.coeffs)
    assert (a * a).coeffs == _oracle_product(a.coeffs, a.coeffs)


@pytest.mark.parametrize("n", [0, 5, _FAST_MUL_MIN_PRECISION - 1, _FAST_MUL_MIN_PRECISION])
def test_mul_all_zero_operands(n):
    zero = QExpansion.zero(n)
    f = QExpansion([Fraction(i + 1, 3) for i in range(n + 1)], n)
    assert (zero * f).coeffs == [0] * (n + 1)
    assert (f * zero).coeffs == [0] * (n + 1)
    assert (zero * zero).coeffs == [0] * (n + 1)
    assert all(type(c) is int for c in (zero * f).coeffs)


@settings(max_examples=3, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(_FAST_MUL_MIN_PRECISION, _FAST_MUL_MIN_PRECISION + 8),
    st.sampled_from(["mixed", "negative", "positive"]),
    st.booleans(),
)
def test_mul_matches_fraction_oracle_with_huge_coefficients(seed, n, signs, fractions):
    # one coefficient in ten has 4300 to 4400 digits, past the default
    # int/str conversion limit, so the limbs are that wide too
    rng = random.Random(seed)

    def coeff():
        digits = rng.randint(4300, 4400) if rng.random() < 0.1 else rng.randint(1, 30)
        c = rng.randrange(10 ** (digits - 1), 10**digits)
        if signs == "negative" or (signs == "mixed" and rng.random() < 0.5):
            c = -c
        if fractions and rng.random() < 0.2:
            return Fraction(c, rng.randint(1, 30))
        return c

    a = QExpansion([coeff() for _ in range(n + 1)], n)
    b = QExpansion([coeff() for _ in range(n + 3)], n + 2)
    assert (a * b).coeffs == _oracle_product(a.coeffs, b.coeffs)
    assert (a * a).coeffs == _oracle_product(a.coeffs, a.coeffs)


def test_kronecker_ignores_the_int_str_digit_limit():
    # 700-digit coefficients, against the lowest limit an interpreter allows
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        n = _FAST_MUL_MIN_PRECISION
        big = 10**700
        a = [big + i for i in range(n + 1)]
        b = [-big + i for i in range(n + 1)]
        product = _mul_kronecker(a, b, n)
        square = _mul_kronecker(a, a, n)
    finally:
        sys.set_int_max_str_digits(limit)
    assert product == _mul_schoolbook(a, b, n)
    assert square == _mul_schoolbook(a, a, n)


def _limb_digits(a, b, n):
    # the limb width _mul_kronecker picks: w + 1 digits with 10^w above
    # max|a| * max|b| * (n + 1), found through 30103/100000 > log10(2)
    bound = max(map(abs, a)) * max(map(abs, b)) * (n + 1)
    return bound.bit_length() * 30103 // 100000 + 2


@pytest.mark.parametrize("digits", [639, 640, 641])
def test_kronecker_limbs_around_the_lowest_digit_limit(digits):
    # limbs of 640 digits convert through str and int under the lowest limit
    # an interpreter allows, limbs of 641 through Decimal
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    rng = random.Random(digits)
    n = 6
    b = [rng.randrange(-(2**1000), 2**1000) for _ in range(n + 1)]
    bits = next(t for t in range(1, 4400) if _limb_digits([2**t], b, n) == digits)
    top = 2**bits
    a = [rng.choice((-1, 1)) * rng.randrange(top) for _ in range(n)] + [-top]
    square_bits = next(t for t in range(1, 4400) if _limb_digits([2**t], [2**t], n) == digits)
    top = 2**square_bits
    s = [rng.choice((-1, 1)) * rng.randrange(top) for _ in range(n)] + [top]
    rng.shuffle(s)
    assert _limb_digits(a, b, n) == _limb_digits(s, s, n) == digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        product = _mul_kronecker(a, b, n)
        swapped = _mul_kronecker(b, a, n)
        square = _mul_kronecker(s, s, n)
    finally:
        sys.set_int_max_str_digits(limit)
    assert product == swapped == _oracle_product(a, b)
    assert square == _oracle_product(s, s)


@pytest.mark.parametrize("n", [_FAST_MUL_MIN_PRECISION, 1000])
def test_mul_signs_and_sparse_operands(n):
    rng = random.Random(n)
    negative = QExpansion([-rng.randint(1, 10**40) for _ in range(n + 1)], n)
    other_negative = QExpansion([-rng.randint(1, 10**9) for _ in range(n + 1)], n)
    top = QExpansion([0] * n + [-(10**30)], n)
    constant = QExpansion([7] + [0] * n, n)
    pairs = [(negative, other_negative), (negative, negative), (negative, top),
             (top, top), (top, constant), (constant, negative)]
    for a, b in pairs:
        product = (a * b).coeffs
        assert product == _oracle_product(a.coeffs, b.coeffs)
        assert all(type(c) is int for c in product)
    # a single nonzero top coefficient only reaches q^n times a constant
    assert (top * top).coeffs == [0] * (n + 1)
    assert (top * constant).coeffs == [0] * n + [-7 * 10**30]


def test_kronecker_leaves_the_decimal_context_alone():
    def state(ctx):
        return (ctx.prec, ctx.Emax, ctx.Emin, ctx.rounding, ctx.capitals, ctx.clamp,
                dict(ctx.flags), dict(ctx.traps))

    n = 600
    f = QExpansion([(-1) ** i * 10**50 * (i + 1) for i in range(n + 1)], n)
    g = QExpansion([Fraction(i, 7) for i in range(n + 1)], n)
    # a thread context that would round or trap on any product run through it
    with decimal.localcontext() as context:
        context.prec = 3
        context.Emax = 9
        context.traps[decimal.Inexact] = True
        context.traps[decimal.Rounded] = True
        before = state(context)
        assert (f * g).coeffs == _oracle_product(f.coeffs, g.coeffs)
        assert (f * f).coeffs == _oracle_product(f.coeffs, f.coeffs)
        assert decimal.getcontext() is context
        assert state(context) == before
