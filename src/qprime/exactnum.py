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
    "bernoulli",
    "sigma_array",
    "primes_up_to",
    "prime_mask",
    "is_prime",
    "first_primes",
    "is_exact",
    "integer_numerators",
    "rationals_over",
    "factor_exact",
    "apply_factor",
    "solves",
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


# the 13 primes <= 41: the trial divisors and the Miller-Rabin bases of is_prime
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# no composite below this bound is a strong probable prime to all 13 bases
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017);
# the bound itself is one
_MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly, for every n below 3317044064679887385961981.

    Trial division by the primes <= 41 decides every n < 41^2.  Above that,
    Miller-Rabin with those 13 primes as bases, which no composite below
    the bound passes (Sorenson-Webster).  An n at or above the bound raises
    ValueError rather than answer without proof.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(
            f"is_prime: {n} is not below {_MILLER_RABIN_BOUND}, "
            "where the Miller-Rabin test is proven exact"
        )
    # n - 1 = d 2^s with d odd
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def first_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes."""
    if count < 0:
        raise ValueError(f"first_primes: count must be >= 0, got {count}")
    if count == 0:
        return ()
    # sieve up to 15, 30, 60, ... until it holds count primes
    bound = 15
    while True:
        primes = primes_up_to(bound)
        if len(primes) >= count:
            return primes[:count]
        bound *= 2


# ---------------------------------------------------------------------------
# rationals as integers over one denominator
# ---------------------------------------------------------------------------


def is_exact(x) -> bool:
    """Whether x is an int or a Fraction; never a bool, which would print as "True"."""
    return type(x) is not bool and isinstance(x, (int, Fraction))


def integer_numerators(values):
    """(nums, den) with values[i] == nums[i] / den, den the lcm of denominators.

    Every value must be exact (is_exact): anything else, a float or a bool,
    raises TypeError.  The result is in lowest terms: gcd(den, *nums) == 1.
    """
    den = 1
    all_int = True
    for v in values:
        if type(v) is not int:
            if not is_exact(v):
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
    Returns the n pairs (row i of T, pivot i > 0); the m - n rows of T
    below them are dropped, as solves checks a solution on every row.

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
            raise ValueError("factor_exact: coefficient matrix is rank-deficient")
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
    factor = []
    for i, row in enumerate(aug[:n]):
        sign = 1 if row[i] > 0 else -1
        factor.append((tuple(sign * x for x in row[n:]), sign * row[i]))
    return tuple(factor)


def apply_factor(factor, rhs) -> list:
    """x_i = (T rhs)_i / pivot i, for A factored by factor_exact: one product.

    x solves A x = rhs if any x does; only solves(A, x, rhs) can tell.
    """
    # no unknowns: any right-hand side, and x is empty
    m = len(factor[0][0]) if factor else len(rhs)
    if len(rhs) != m:
        raise ValueError(f"apply_factor: {m} rows but {len(rhs)} right-hand sides")
    y, den = integer_numerators(rhs)
    return [Fraction(sum(map(mul, t, y)), pv * den) for t, pv in factor]


def solves(rows, x, rhs) -> bool:
    """Whether rows @ x == rhs exactly on every row; entries int or Fraction."""
    if len(rhs) != len(rows):
        raise ValueError(f"solves: {len(rows)} rows but {len(rhs)} right-hand sides")
    nums, den = integer_numerators(x)
    return all(sum(map(mul, row, nums)) == den * b for row, b in zip(rows, rhs))


def solve_exact(rows, rhs):
    """Solve the linear system rows @ x = rhs exactly over the rationals.

    The system may be overdetermined; entries must be int or Fraction.
    Returns the unique solution as a list of Fractions, or None if the
    system is inconsistent.  A rank-deficient coefficient matrix raises
    ValueError (see factor_exact).
    """
    x = apply_factor(factor_exact(rows), rhs)
    return x if solves(rows, x, rhs) else None
