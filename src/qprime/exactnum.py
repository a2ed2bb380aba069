"""Exact integer and rational arithmetic utilities.

Everything in this module is exact: Bernoulli numbers and all derived
rationals are `fractions.Fraction`, divisor sums and primes are Python
integers.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, gcd, isqrt, lcm
from operator import add, mul

__all__ = [
    "Fraction",
    "bernoulli",
    "sigma_array",
    "primes_up_to",
    "prime_mask",
    "is_prime",
    "integer_numerators",
    "rationals_over",
    "factor_exact",
    "apply_factor",
    "solve_exact",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

# cache of B_0, B_2, B_4, ... (even indices only)
_BERNOULLI_EVEN: list[Fraction] = [Fraction(1)]


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k for even k >= 0.

    Convention: generating function x/(e^x - 1), so B_1 = -1/2 and
    B_2 = 1/6, B_4 = -1/30.  Only even indices are accepted; odd ones
    vanish for k >= 3 and a request for them is almost certainly a bug
    upstream, so they are rejected rather than silently returning 0.
    """
    if k < 0 or k % 2 != 0:
        raise ValueError(f"bernoulli: index must be even and nonnegative, got {k}")
    half = k // 2
    while len(_BERNOULLI_EVEN) <= half:
        # binomial recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0, written over
        # even j only; the lone odd contribution is B_1 = -1/2.
        n = 2 * len(_BERNOULLI_EVEN)
        s = Fraction(n + 1, -2)  # C(n+1, 1) * B_1
        for j, b in enumerate(_BERNOULLI_EVEN):
            s += comb(n + 1, 2 * j) * b
        _BERNOULLI_EVEN.append(-s / (n + 1))
    return _BERNOULLI_EVEN[half]


# ---------------------------------------------------------------------------
# Divisor-power sums
# ---------------------------------------------------------------------------


def sigma_array(r: int, n_max: int) -> list[int]:
    """[0, sigma_r(1), ..., sigma_r(n_max)]: all divisor-power sums at once.

    Direct divisor accumulation over the pairs (d, j) with d j <= n_max,
    split at s = isqrt(n_max): each d <= s adds d^r along arr[d::d], and
    each multiplier j <= n_max // (s + 1) adds the powers of the d > s
    with d j <= n_max along arr[j(s+1)::j], one slice per d or j.  Index 0
    is a placeholder 0.
    """
    if n_max < 0:
        raise ValueError(f"sigma_array: n_max must be >= 0, got {n_max}")
    arr = [0] * (n_max + 1)
    s = isqrt(n_max)
    for d in range(1, s + 1):
        arr[d::d] = map(add, arr[d::d], repeat(d**r))
    # powers[i] = (s + 1 + i)^r
    powers = [d**r for d in range(s + 1, n_max + 1)]
    for j in range(1, n_max // (s + 1) + 1):
        cut = slice(j * (s + 1), n_max + 1, j)
        arr[cut] = map(add, arr[cut], powers)
    return arr


# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------


def prime_mask(x: int) -> bytearray:
    """Sieve of Eratosthenes: mask[n] == 1 iff n is prime, for 0 <= n <= x."""
    if x < 0:
        raise ValueError(f"prime_mask: bound must be >= 0, got {x}")
    mask = bytearray(b"\x01") * (x + 1)
    mask[0 : min(2, x + 1)] = b"\x00" * min(2, x + 1)
    for i in range(2, isqrt(x) + 1):
        if mask[i]:
            start = i * i
            mask[start :: i] = b"\x00" * ((x - start) // i + 1)
    return mask


def primes_up_to(x: int) -> tuple[int, ...]:
    """Every prime <= x, ascending."""
    if x < 1:
        raise ValueError(f"primes_up_to: bound must be >= 1, got {x}")
    mask = prime_mask(x)
    return tuple(i for i in range(2, x + 1) if mask[i])


def is_prime(n: int) -> bool:
    """Trial-division primality test; meant for isolated queries, not scans."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def first_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes."""
    if count < 0:
        raise ValueError(f"first_primes: count must be >= 0, got {count}")
    if count == 0:
        return ()
    # p_n < n(ln n + ln ln n) for n >= 6; small cases padded by the constant
    bound = 15
    while True:
        primes = primes_up_to(bound)
        if len(primes) >= count:
            return primes[:count]
        bound *= 2


# ---------------------------------------------------------------------------
# rationals as integers over one denominator
# ---------------------------------------------------------------------------


def integer_numerators(values):
    """(nums, den) with values[i] == nums[i] / den, den the lcm of denominators.

    Every value must be an int or a Fraction, the only coefficient types;
    anything else (a float, or a bool, which would print as "True") raises
    TypeError.  The result is in lowest terms: gcd(den, *nums) == 1.
    """
    den = 1
    all_int = True
    for v in values:
        if type(v) is not int:
            if type(v) is bool or not isinstance(v, (int, Fraction)):
                raise TypeError(f"expected an int or a Fraction, got {type(v).__name__}")
            all_int = False
            den = lcm(den, v.denominator)
    if all_int:
        return list(values), 1
    return [v.numerator * (den // v.denominator) for v in values], den


def rationals_over(nums, den: int) -> list:
    """nums[i] / den for each i: an int where it divides, else a Fraction."""
    if den == 1:
        return list(nums)
    return [x // den if x % den == 0 else Fraction(x, den) for x in nums]


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def factor_exact(rows) -> tuple:
    """Gauss-Jordan elimination of an m x n matrix of full column rank.

    The row operations are recorded as the m x m integer matrix T they
    compose to: T times the matrix is diag(pivots) above m - n zero rows.
    Returns (solution_ops, residual_ops): solution_ops holds (row i of T,
    pivot i) for i < n, residual_ops the remaining m - n rows of T.

    Entries must be int or Fraction.  The elimination is fraction-free:
    each row is scaled to integers, a row operation cross-multiplies by
    the pivot, and every new row is divided by the gcd of its entries.
    A rank-deficient matrix raises ValueError: every caller here relies
    on uniqueness, so a solvable but underdetermined system indicates a
    bug, not an answer.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = []
    for i, row in enumerate(rows):
        nums, den = integer_numerators(row)
        # the identity block, times the scaling that made row i integral
        aug.append(nums + [den if j == i else 0 for j in range(m)])
    for c in range(n):
        pr = next((i for i in range(c, m) if aug[i][c] != 0), None)
        if pr is None:
            raise ValueError("solve_exact: coefficient matrix is rank-deficient")
        aug[c], aug[pr] = aug[pr], aug[c]
        prow = aug[c]
        pv = prow[c]
        for i in range(m):
            f = aug[i][c]
            if i != c and f != 0:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * x - b * y for x, y in zip(aug[i], prow)]
                g = gcd(*row)
                aug[i] = [x // g for x in row] if g > 1 else row
    solution_ops = []
    for i, row in enumerate(aug[:n]):
        sign = 1 if row[i] > 0 else -1
        solution_ops.append((tuple(sign * x for x in row[n:]), sign * row[i]))
    return tuple(solution_ops), tuple(tuple(row[n:]) for row in aug[n:])


def apply_factor(factor, rhs):
    """The unique x with A x = rhs for A factored by factor_exact, or None.

    One matrix-vector product T rhs: its first n entries over their pivots
    are x, and every one of the remaining m - n must vanish for the system
    to be consistent (None otherwise).
    """
    solution_ops, residual_ops = factor
    m = len(solution_ops) + len(residual_ops)
    if len(rhs) != m:
        raise ValueError(f"solve_exact: {m} rows but {len(rhs)} right-hand sides")
    y, den = integer_numerators(rhs)
    if any(sum(map(mul, t, y)) for t in residual_ops):
        return None
    return [Fraction(sum(map(mul, t, y)), pv * den) for t, pv in solution_ops]


def solve_exact(rows, rhs):
    """Solve the linear system rows @ x = rhs exactly over the rationals.

    The system may be overdetermined; entries must be int or Fraction.
    Returns the unique solution as a list of Fractions, or None if the
    system is inconsistent.  A rank-deficient coefficient matrix raises
    ValueError (see factor_exact).
    """
    if len(rows) != len(rhs):
        raise ValueError(f"solve_exact: {len(rows)} rows but {len(rhs)} right-hand sides")
    return apply_factor(factor_exact(rows), rhs)
