"""Truncated formal power series in q with exact rational coefficients.

A QExpansion stores coefficients for exponents 0..precision inclusive.
Arithmetic between two expansions truncates to the smaller precision, and
equality likewise compares only up to the common precision; the precision
is explicit data, never implicit.

A series is stored as integer numerators `nums` over one denominator
`den` >= 1, in lowest terms: gcd(den, *nums) == 1.  The constructor scales
its int/Fraction input once, over the lcm of the denominators, and every
operation then works on the numerators: a product multiplies the two
integer lists and the denominators, a linear combination adds numerators
over the lcm of its denominators, and each result is reduced by one gcd.
`coeffs` reads the values back, an int wherever the value is integral and
a Fraction otherwise; int and Fraction are the only coefficient types,
and a complex combination is held as two real series.
"""

from __future__ import annotations

import json
import re
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .exactnum import integer_numerators, is_exact, rationals_over

__all__ = ["QExpansion", "coeff_from_json", "linear_combination"]

# products at or above this precision go through Kronecker substitution;
# below it schoolbook convolution runs (and keeps small cases simple).
# QuasiForm.expand switches at the same precision from the cached cusp basis
# to Horner's rule in Delta.  The benchmark checks CLI output against
# expansions at q^300 that must take the schoolbook and basis paths,
# independent of the Kronecker and Horner ones; keep the cutoff above 300
_FAST_MUL_MIN_PRECISION = 384

# exact arithmetic for the Kronecker product, kept apart from the thread's
# decimal context
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

# the lowest int/str digit limit an interpreter accepts
# (sys.int_info.str_digits_check_threshold): a Kronecker limb of at most
# this many digits converts through str and int under every limit
_STR_DIGITS = 640


class QExpansion:
    """Truncated q-series: coefficients c(0), ..., c(N) for exponents up to N.

    c(n) = nums[n] / den.  Treat instances as immutable; operations always
    build new ones.
    """

    __slots__ = ("precision", "nums", "den")

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
        # raises TypeError for anything but an int or a Fraction (a bool
        # too); over the lcm of the denominators the numerators share no
        # factor with it, so the result is in lowest terms
        self.nums, self.den = integer_numerators(coeffs)

    @property
    def coeffs(self) -> list:
        """The coefficients as a new list: an int where integral, else a Fraction."""
        return rationals_over(self.nums, self.den)

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
        return rationals_over(self.nums[n : n + 1], self.den)[0]

    def truncate(self, precision: int) -> "QExpansion":
        if precision > self.precision:
            raise ValueError(
                f"cannot extend precision {self.precision} to {precision} by truncation"
            )
        if precision == self.precision:
            return self
        return _series(self.nums[: precision + 1], self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __repr__(self):
        shown = ", ".join(map(str, rationals_over(self.nums[:6], self.den)))
        tail = ", ..." if self.precision > 5 else ""
        return f"QExpansion(N={self.precision}; {shown}{tail})"

    # -- ring operations ----------------------------------------------------

    def _plus(self, sign: int, other):
        # self + sign * other, for a series or an exact scalar other
        if isinstance(other, QExpansion):
            n = min(self.precision, other.precision)
            return linear_combination([(1, self), (sign, other)], n)
        if is_exact(other):
            one = QExpansion.one(self.precision)
            return linear_combination([(1, self), (sign * other, one)], self.precision)
        return NotImplemented

    def __add__(self, other):
        return self._plus(1, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(-1, other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _series([-x for x in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, QExpansion):
            n = min(self.precision, other.precision)
            a = self.nums[: n + 1]
            # a square hands _mul_kronecker one list twice, which packs it once
            b = a if other is self else other.nums[: n + 1]
            mul_int = _mul_kronecker if n >= _FAST_MUL_MIN_PRECISION else _mul_schoolbook
            return _series(mul_int(a, b, n), self.den * other.den)
        if is_exact(other):
            p = other.numerator
            return _series([p * x for x in self.nums], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self, order: int = 1) -> "QExpansion":
        """Apply D = q d/dq `order` times: c(n) becomes n^order * c(n)."""
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        if order == 0:
            return self
        return _series([(n**order) * x for n, x in enumerate(self.nums)], self.den)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        """Equality up to the common precision (explicitly truncating)."""
        if not isinstance(other, QExpansion):
            return NotImplemented
        n = min(self.precision, other.precision)
        # both in lowest terms, so equal values have equal numerators
        a, b = self.truncate(n), other.truncate(n)
        return a.den == b.den and a.nums == b.nums

    __hash__ = None  # equality is truncating, so hashing would mislead

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {"precision": self.precision, "coeffs": list(map(str, self.coeffs))}

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "QExpansion":
        """Read the to_dict layout back; anything else raises ValueError.

        The precision must be a JSON integer >= 0 and every coefficient an
        integer or a "num/den" string, so that no float is ever read into
        an exact coefficient or a truncated precision.
        """
        if not isinstance(data, dict) or set(data) != {"precision", "coeffs"}:
            raise ValueError('QExpansion JSON must be an object of "precision" and "coeffs"')
        precision, coeffs = data["precision"], data["coeffs"]
        if type(precision) is not int or precision < 0:
            raise ValueError(f"QExpansion JSON: precision {precision!r} must be an integer >= 0")
        if not isinstance(coeffs, list) or len(coeffs) != precision + 1:
            raise ValueError(f"QExpansion JSON: coeffs must be a list of {precision + 1} entries")
        coeffs = [coeff_from_json(c, "QExpansion JSON", f"q^{n}") for n, c in enumerate(coeffs)]
        return cls(coeffs, precision)

    @classmethod
    def from_json(cls, text: str) -> "QExpansion":
        return cls.from_dict(json.loads(text))


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def coeff_from_json(value, source: str, where):
    """An exact coefficient from JSON: an integer, or a "num/den" string.

    Anything else (a float, a bool, a decimal string) raises ValueError
    naming the source and the position.
    """
    if type(value) is int:
        return value
    if not isinstance(value, str):
        raise ValueError(
            f"{source}: coefficient {value!r} at {where} must be an integer "
            'or a "num/den" string'
        )
    try:
        # the pattern keeps out decimals and exponents ("1e999999999"
        # would build a billion-digit integer); int() can still refuse a
        # numeral past its digit limit, and the denominator can be zero
        f = Fraction(value) if _RATIONAL.fullmatch(value) else None
    except (ValueError, ZeroDivisionError):
        f = None
    if f is None:
        raise ValueError(
            f'{source}: coefficient {value!r} at {where} is not a rational "num/den" string'
        )
    return f.numerator if f.denominator == 1 else f


def _series(nums: list, den: int = 1) -> QExpansion:
    # the series nums/den of precision len(nums) - 1, for den >= 1 and
    # integer nums, reduced by one gcd
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    f = object.__new__(QExpansion)
    f.precision, f.nums, f.den = len(nums) - 1, nums, den
    return f


def linear_combination(terms, precision: int) -> QExpansion:
    """sum of c * f over the (c, f) pairs, truncated at q^precision.

    Every series must be known to at least that precision.  The terms add
    up as integer numerators over the lcm of their denominators.
    """
    scaled = []
    den = 1
    for c, f in terms:
        if not is_exact(c):
            raise TypeError(f"linear_combination: coefficient {c!r} is not an int or a Fraction")
        f = f.truncate(precision)
        c = Fraction(c, f.den)
        scaled.append((c, f.nums))
        den = lcm(den, c.denominator)
    acc = [0] * (precision + 1)
    for c, nums in scaled:
        m = c.numerator * (den // c.denominator)
        acc = [x + m * y for x, y in zip(acc, nums)]
    return _series(acc, den)


# ---------------------------------------------------------------------------
# multiplication backends
# ---------------------------------------------------------------------------


def _mul_schoolbook(a, b, n: int):
    """Cauchy product truncated at q^n of two length-(n+1) lists, by diagonals.

    Works for any coefficients that multiply and add; QExpansion.__mul__
    hands it integer numerators.
    """
    rb = b[::-1]
    return [sum(map(mul, a[: k + 1], rb[n - k :])) for k in range(n + 1)]


def _mul_kronecker(a, b, n: int):
    """Product truncated at q^n of two integer lists, by Kronecker substitution.

    Each list is packed once into a decimal number with base-10^(w+1)
    limbs (a square packs once), and the two numbers are multiplied once
    on a private exact decimal context; libmpdec multiplies huge operands
    with a number-theoretic transform, where CPython ints stop at
    Karatsuba.  Every coefficient c of either operand or of the full
    product satisfies |c| < 10^w, so c + 5*10^w has exactly w+1 digits: a
    limb is written and read with that offset: the packed operands take
    the offsets off in one subtraction, and the product puts back those of
    its low n + 1 limbs, the only ones read.  Limbs convert through str
    and int while they fit under every int/str digit limit an interpreter
    allows, and through Decimal beyond it, so coefficients of any size
    pack.
    """
    bound = max(map(abs, a)) * max(map(abs, b)) * (n + 1)
    if not bound:
        # a zero operand: the other one need not fit any limb
        return [0] * (n + 1)
    # 10^w > bound, as 30103/100000 exceeds log10(2)
    w = bound.bit_length() * 30103 // 100000 + 1
    half = 5 * 10**w
    if w < _STR_DIGITS:
        to_str, to_int = str, int
    else:
        def to_str(c):
            return str(_EXACT.create_decimal(c))

        def to_int(s):
            return int(_EXACT.create_decimal(s))

    size = (w + 1) * (n + 1)
    offsets = _EXACT.create_decimal(("5" + "0" * w) * (n + 1))

    def pack(c):
        digits = "".join([to_str(x + half) for x in reversed(c)])
        return _EXACT.subtract(_EXACT.create_decimal(digits), offsets)

    pa = pack(a)
    pb = pa if b is a else pack(b)
    # with the offsets, the low n + 1 limbs are c_k + 5*10^w, no borrow
    # between them.  What lies above them is less than 10^(2 size) in
    # magnitude, so adding that power keeps the number positive.  The
    # exponent is 0 and the low limbs have w+1 digits each, so the string
    # is the plain digits, most significant first, and they are its tail
    top = Decimal((0, (1,), 2 * size))
    shifted = _EXACT.add(_EXACT.add(_EXACT.multiply(pa, pb), offsets), top)
    digits = str(shifted)[-size:]
    return [to_int(digits[i - w - 1 : i]) - half for i in range(size, 0, -w - 1)]
