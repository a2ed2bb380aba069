"""Truncated formal power series in q with exact rational coefficients.

A QExpansion stores coefficients for exponents 0..precision inclusive.
Arithmetic between two expansions truncates to the smaller precision, and
equality likewise compares only up to the common precision; the precision
is explicit data, never implicit.

Coefficients are Python ints where possible and Fraction otherwise (they
interoperate freely).  Every product of rational series runs on integers:
each operand is scaled once to integer numerators over the lcm of its
denominators, the integer lists are multiplied, and the product is divided
back once.  Sums of many scaled series (linear_combination) accumulate
integer numerators over one denominator the same way.  Only ComplexRational
coefficients take the generic coefficientwise route.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from operator import mul

from .exactnum import ComplexRational, integer_numerators, rationals_over

__all__ = ["QExpansion", "linear_combination"]

# products at or above this precision go through Kronecker substitution;
# below it schoolbook convolution wins (and keeps small cases simple)
_FAST_MUL_MIN_PRECISION = 384


class QExpansion:
    """Truncated q-series: coefficients c(0), ..., c(N) for exponents up to N.

    Treat instances as immutable; operations always build new ones.
    """

    __slots__ = ("precision", "coeffs")

    def __init__(self, coeffs, precision: int | None = None):
        coeffs = list(coeffs)
        if precision is None:
            if not coeffs:
                raise ValueError("QExpansion: empty coefficient list needs an explicit precision")
            precision = len(coeffs) - 1
        if precision < 0:
            raise ValueError(f"QExpansion: precision must be >= 0, got {precision}")
        if len(coeffs) < precision + 1:
            coeffs.extend([0] * (precision + 1 - len(coeffs)))
        elif len(coeffs) > precision + 1:
            coeffs = coeffs[: precision + 1]
        self.precision = precision
        self.coeffs = coeffs

    # -- basic accessors ----------------------------------------------------

    @classmethod
    def zero(cls, precision: int) -> "QExpansion":
        return cls([0] * (precision + 1), precision)

    @classmethod
    def one(cls, precision: int) -> "QExpansion":
        return cls([1] + [0] * precision, precision)

    def __getitem__(self, n: int):
        if not 0 <= n <= self.precision:
            raise IndexError(f"coefficient of q^{n} not known at precision {self.precision}")
        return self.coeffs[n]

    def truncate(self, precision: int) -> "QExpansion":
        if precision > self.precision:
            raise ValueError(
                f"cannot extend precision {self.precision} to {precision} by truncation"
            )
        if precision == self.precision:
            return self
        return QExpansion(self.coeffs[: precision + 1], precision)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.precision > 5 else ""
        return f"QExpansion(N={self.precision}; {shown}{tail})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QExpansion):
            n = min(self.precision, other.precision)
            return QExpansion(
                [a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])], n
            )
        if isinstance(other, (int, Fraction, ComplexRational)):
            out = list(self.coeffs)
            out[0] = out[0] + other
            return QExpansion(out, self.precision)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QExpansion([-c for c in self.coeffs], self.precision)

    def __mul__(self, other):
        if isinstance(other, QExpansion):
            n = min(self.precision, other.precision)
            a = self.coeffs[: n + 1]
            sa = integer_numerators(a)
            sb = sa if other is self else integer_numerators(other.coeffs[: n + 1])
            if sa is None or sb is None:
                return QExpansion(_mul_schoolbook(a, other.coeffs[: n + 1], n), n)
            (ia, den_a), (ib, den_b) = sa, sb
            mul_int = _mul_kronecker if n >= _FAST_MUL_MIN_PRECISION else _mul_schoolbook
            return QExpansion(rationals_over(mul_int(ia, ib, n), den_a * den_b), n)
        if isinstance(other, (int, Fraction, ComplexRational)):
            return QExpansion([c * other for c in self.coeffs], self.precision)
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self, order: int = 1) -> "QExpansion":
        """Apply D = q d/dq `order` times: c(n) becomes n^order * c(n)."""
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        if order == 0:
            return self
        return QExpansion(
            [(n**order) * c for n, c in enumerate(self.coeffs)], self.precision
        )

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        """Equality up to the common precision (explicitly truncating)."""
        if not isinstance(other, QExpansion):
            return NotImplemented
        n = min(self.precision, other.precision)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    __hash__ = None  # equality is truncating, so hashing would mislead

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "coeffs": [str(Fraction(c)) for c in self.coeffs],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "QExpansion":
        precision = int(data["precision"])
        coeffs = [_coeff_from_str(s) for s in data["coeffs"]]
        if len(coeffs) != precision + 1:
            raise ValueError(
                f"QExpansion: expected {precision + 1} coefficients, got {len(coeffs)}"
            )
        return cls(coeffs, precision)

    @classmethod
    def from_json(cls, text: str) -> "QExpansion":
        return cls.from_dict(json.loads(text))


def _coeff_from_str(s: str):
    f = Fraction(s)
    return int(f) if f.denominator == 1 else f


def linear_combination(terms, precision: int) -> QExpansion:
    """sum of c * f over the (c, f) pairs, truncated at q^precision.

    Every series must be known to at least that precision.  Rational terms
    add up as integer numerators over one common denominator, divided back
    once at the end; a ComplexRational scalar or coefficient anywhere sends
    the whole sum through plain coefficientwise arithmetic.
    """
    terms = [(c, f.truncate(precision)) for c, f in terms]
    scaled = []
    den = 1
    for c, f in terms:
        nums = integer_numerators(f.coeffs)
        if nums is None or not isinstance(c, (int, Fraction)):
            total = QExpansion.zero(precision)
            for c, f in terms:
                total = total + c * f
            return total
        ints, d = nums
        c = Fraction(c, d)
        scaled.append((c, ints))
        den = lcm(den, c.denominator)
    acc = [0] * (precision + 1)
    for c, ints in scaled:
        m = c.numerator * (den // c.denominator)
        acc = [x + m * y for x, y in zip(acc, ints)]
    return QExpansion(rationals_over(acc, den), precision)


# ---------------------------------------------------------------------------
# multiplication backends
# ---------------------------------------------------------------------------


def _mul_schoolbook(a, b, n: int):
    """Cauchy product truncated at q^n of two length-(n+1) lists, by diagonals.

    Works for any coefficients that multiply and add; the rational products
    in QExpansion.__mul__ hand it integers.
    """
    rb = b[::-1]
    return [sum(map(mul, a[: k + 1], rb[n - k :])) for k in range(n + 1)]


def _mul_kronecker(a, b, n: int):
    """Exact product of two integer lists via Kronecker substitution.

    The coefficients are split into positive and negative parts, packed
    into huge integers with fixed-width limbs, and multiplied once per sign
    pair; Python's big-int multiplication is subquadratic, which is what
    makes precision ~10^4 products cheap.
    """
    ap = [c if c > 0 else 0 for c in a]
    an = [-c if c < 0 else 0 for c in a]
    bp = [c if c > 0 else 0 for c in b]
    bn = [-c if c < 0 else 0 for c in b]

    width = _limb_width(max(ap + an), max(bp + bn), n + 1)
    pp = _packed_mul(ap, bp, width, n)
    nn = _packed_mul(an, bn, width, n)
    pn = _packed_mul(ap, bn, width, n)
    np_ = _packed_mul(an, bp, width, n)
    return [pp[i] + nn[i] - pn[i] - np_[i] for i in range(n + 1)]


def _limb_width(max_a: int, max_b: int, length: int) -> int:
    # any convolution coefficient is at most max_a * max_b * length
    bound = max(max_a, 1) * max(max_b, 1) * length
    return bound.bit_length() // 8 + 1


def _packed_mul(a, b, width: int, n: int):
    if not any(a) or not any(b):
        return [0] * (n + 1)
    pa = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")
    pb = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in b), "little")
    prod = (pa * pb).to_bytes(width * (len(a) + len(b)), "little")
    return [
        int.from_bytes(prod[i * width : (i + 1) * width], "little") for i in range(n + 1)
    ]
