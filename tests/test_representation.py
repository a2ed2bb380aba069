"""Property tests for the stored representation of a QExpansion.

A series is integer numerators over one denominator in lowest terms, and
every operation must leave it so.  Its coefficients must read back, in
value and in type, as the same operation done coefficient by coefficient
in Fraction arithmetic: an int wherever the value is integral, a
Fraction otherwise.
"""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from qprime.qseries import _FAST_MUL_MIN_PRECISION, QExpansion, linear_combination

_coefficient = st.one_of(
    st.just(0),
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**6),
)
_scalar = st.one_of(st.integers(-(10**9), 10**9), st.fractions(max_denominator=10**4))
_values = st.lists(_coefficient, min_size=1, max_size=30)


def _checked(series) -> list:
    """The (type, value) pairs of a series, once its form is checked."""
    assert series.den >= 1
    assert gcd(series.den, *series.nums) == 1
    assert len(series.nums) == series.precision + 1
    return [(type(c), c) for c in series.coeffs]


def _expected(values) -> list:
    """(type, value) pairs of exact values: an int wherever integral."""
    values = map(Fraction, values)
    return [(int, v.numerator) if v.denominator == 1 else (Fraction, v) for v in values]


def _product(a, b) -> list:
    n = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        if a[i]:
            for j in range(n + 1 - i):
                out[i + j] += Fraction(a[i]) * b[j]
    return out


def _long_values(rng, n) -> list:
    # zeros, big integers and fractions with small denominators
    out = []
    for _ in range(n + 1):
        u = rng.random()
        if u < 0.3:
            out.append(0)
        elif u < 0.5:
            out.append(Fraction(rng.randint(-(10**9), 10**9), rng.randint(1, 60)))
        else:
            out.append(rng.randint(-(10**20), 10**20))
    return out


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2**32), st.integers(-4, 4), st.integers(-2, 2))
def test_products_on_both_sides_of_the_cutoff(seed, shift, skew):
    # schoolbook below the cutoff, Kronecker from it on
    rng = random.Random(seed)
    n = _FAST_MUL_MIN_PRECISION + shift
    a, b = _long_values(rng, n), _long_values(rng, n + skew)
    fa, fb = QExpansion(a), QExpansion(b)
    assert _checked(fa * fb) == _expected(_product(a, b))
    assert _checked(fa * fa) == _expected(_product(a, a))


@settings(max_examples=150, deadline=None)
@given(_values, _values)
def test_small_products(a, b):
    assert _checked(QExpansion(a) * QExpansion(b)) == _expected(_product(a, b))


@settings(max_examples=150, deadline=None)
@given(_values, _values, _scalar)
def test_sums_and_scalar_multiples(a, b, c):
    fa, fb = QExpansion(a), QExpansion(b)
    n = min(len(a), len(b))
    assert _checked(fa + fb) == _expected([x + Fraction(y) for x, y in zip(a, b)])
    assert _checked(fa - fb) == _expected([x - Fraction(y) for x, y in zip(a, b)])
    assert _checked(-fa) == _expected([-Fraction(x) for x in a])
    assert _checked(fa * c) == _expected([Fraction(x) * c for x in a])
    assert _checked(c * fa) == _checked(fa * c)
    assert _checked(fa + c) == _expected([a[0] + Fraction(c)] + a[1:])
    assert _checked(c - fa) == _expected([c - Fraction(a[0])] + [-Fraction(x) for x in a[1:]])
    assert _checked(fa + fb) == _checked(fb + fa)
    assert (fa == fb) == (a[:n] == b[:n])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_scalar, _values), min_size=1, max_size=5), st.integers(0, 29))
def test_linear_combinations(terms, precision):
    precision = min(precision, *(len(values) - 1 for _, values in terms))
    got = linear_combination([(c, QExpansion(values)) for c, values in terms], precision)
    expected = [Fraction(0)] * (precision + 1)
    for c, values in terms:
        expected = [x + c * Fraction(y) for x, y in zip(expected, values)]
    assert _checked(got) == _expected(expected)


@settings(max_examples=150, deadline=None)
@given(_values, st.integers(0, 3), st.integers(0, 29))
def test_derivatives_and_truncations(a, order, precision):
    f = QExpansion(a)
    derivative = [n**order * Fraction(x) for n, x in enumerate(a)]
    assert _checked(f.derivative(order)) == _expected(derivative)
    precision = min(precision, f.precision)
    assert _checked(f.truncate(precision)) == _expected(a[: precision + 1])
    assert [f[n] for n in range(precision + 1)] == f.truncate(precision).coeffs
    assert all(type(f[n]) is t for n, (t, _) in enumerate(_expected(a)))
