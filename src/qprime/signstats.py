"""Sign-change and growth diagnostics for prime-indexed coefficients.

Everything asserted here is a finite, exact statement: sign-change
counts, partial sums over primes, and the squared-coefficient bound
a(p)^2 <= 4 p^{m-1} checked in integer arithmetic.  Asymptotic behavior
is out of reach of a finite computation, so the only floating-point
output is a clearly separated "normalized" column meant for plotting,
never for assertions.

For a cusp combination sum gamma_{m,i,j} D^j S_{m,i} the growth scale of
the coefficient at p is governed per term by

    alpha = j + (m+1)/2,    beta = 2 alpha - 1,

and the profile records which terms attain the maximum.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .exactnum import primes_up_to
from .forms import QuasiForm, cusp_basis, cusp_dim

__all__ = [
    "prime_coefficients",
    "count_sign_changes",
    "ExponentProfile",
    "exponent_profile",
    "SignStatsReport",
    "partial_sum_report",
    "DeligneReport",
    "deligne_check",
    "deligne_scan",
    "EIGENFORM_WEIGHTS",
    "MAX_FAILURES",
]

# weights whose cusp space is one-dimensional, so the echelon basis
# element is the normalized eigenform; cusp_dim(m) >= 2 from m = 28 on
EIGENFORM_WEIGHTS = tuple(m for m in range(2, 28, 2) if cusp_dim(m) == 1)

# failures a DeligneReport lists; the verdict counts every prime
MAX_FAILURES = 20


def prime_coefficients(form: QuasiForm, x_max: int) -> list:
    """Exact (p, c_F(p)) for all primes p <= x_max, from one expansion."""
    if x_max < 2:
        raise ValueError(f"prime_coefficients: bound must be >= 2, got {x_max}")
    series = form.expand(x_max)
    return [(p, series[p]) for p in primes_up_to(x_max)]


def count_sign_changes(values) -> int:
    """Adjacent pairs of opposite sign, with zero entries skipped over."""
    changes = 0
    prev = 0
    for value in values:
        if value == 0:
            continue
        if prev != 0 and (value > 0) != (prev > 0):
            changes += 1
        prev = value
    return changes


# ---------------------------------------------------------------------------
# exponent profiles
# ---------------------------------------------------------------------------


class ExponentProfile(namedtuple("ExponentProfile", "terms alpha0 beta0 m_set eigenbasis")):
    """Growth exponents per cusp term and their maxima.

    terms is sorted by key; each entry is (m, i, j, coefficient, alpha,
    beta).  m_set holds the indices into terms attaining beta0.  The
    eigenbasis flag records whether every referenced weight has a
    one-dimensional cusp space; when it is False the per-term data
    describe echelon basis elements rather than eigenforms, which leaves
    alpha0 and beta0 unchanged (they depend only on (m, j)).
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "terms": [
                {
                    "weight": m,
                    "index": i,
                    "derivative": j,
                    "coefficient": str(c),
                    "alpha": str(alpha),
                    "beta": str(beta),
                }
                for (m, i, j, c, alpha, beta) in self.terms
            ],
            "alpha0": str(self.alpha0),
            "beta0": str(self.beta0),
            "m_set": list(self.m_set),
            "eigenbasis": self.eigenbasis,
        }


def exponent_profile(form: QuasiForm) -> ExponentProfile:
    """Per-term growth exponents of a cusp-only combination."""
    if form.eis:
        raise ValueError(
            "exponent_profile: form has Eisenstein terms; profile growth "
            "exponents only describe cusp combinations"
        )
    if not form.cusp:
        raise ValueError("exponent_profile: the zero form has no exponents")
    terms = []
    for (m, i, j), coeff in sorted(form.cusp.items()):
        alpha = j + Fraction(m + 1, 2)
        terms.append((m, i, j, coeff, alpha, 2 * alpha - 1))
    alpha0 = max(t[4] for t in terms)
    beta0 = 2 * alpha0 - 1
    m_set = tuple(idx for idx, t in enumerate(terms) if t[5] == beta0)
    eigenbasis = all(cusp_dim(t[0]) == 1 for t in terms)
    return ExponentProfile(
        terms=tuple(terms),
        alpha0=alpha0,
        beta0=beta0,
        m_set=m_set,
        eigenbasis=eigenbasis,
    )


# ---------------------------------------------------------------------------
# partial sums over primes
# ---------------------------------------------------------------------------


class SignStatsReport(
    namedtuple(
        "SignStatsReport", "x_max sign_changes partial_sum partial_sum_sq normalized_sq"
    )
):
    """Exact prime-sum data at grid points, plus one floating column.

    partial_sum and partial_sum_sq are exact; normalized_sq holds
    (x, sum * log(x) / x^beta0) as floats for plotting, None at the points
    where that value leaves the float range, and is empty when the form
    has Eisenstein terms (no growth profile applies).
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "x_max": self.x_max,
            "sign_changes": self.sign_changes,
            "partial_sum": [[x, str(s)] for x, s in self.partial_sum],
            "partial_sum_sq": [[x, str(s)] for x, s in self.partial_sum_sq],
            "normalized_sq": [[x, v] for x, v in self.normalized_sq],
        }


def partial_sum_report(form: QuasiForm, x_max: int, grid=None) -> SignStatsReport:
    """Sum c_F(p) and c_F(p)^2 over p <= x for each grid value x.

    Grid values must lie in 0..x_max; they are deduplicated and sorted.
    Sums are exact; the normalized column is attached only for cusp-only
    nonzero forms, where a growth exponent beta0 exists.
    """
    if grid is None:
        grid = [x_max]
    grid = sorted(set(grid))
    if grid and grid[-1] > x_max:
        raise ValueError(f"grid point {grid[-1]} exceeds the bound {x_max}")
    if grid and grid[0] < 0:
        raise ValueError(f"grid point {grid[0]} is negative")
    pairs = prime_coefficients(form, x_max)
    sign_changes = count_sign_changes(v for _, v in pairs)

    sums, sums_sq = [], []
    acc = 0
    acc_sq = 0
    idx = 0
    for x in grid:
        while idx < len(pairs) and pairs[idx][0] <= x:
            value = pairs[idx][1]
            acc += value
            acc_sq += value * value
            idx += 1
        sums.append((x, acc))
        sums_sq.append((x, acc_sq))

    normalized = ()
    if not form.eis and form.cusp:
        beta0 = exponent_profile(form).beta0
        normalized = tuple((x, _normalized(s, x, beta0)) for x, s in sums_sq if x >= 2)
    return SignStatsReport(
        x_max=x_max,
        sign_changes=sign_changes,
        partial_sum=tuple(sums),
        partial_sum_sq=tuple(sums_sq),
        normalized_sq=normalized,
    )


def _normalized(s, x: int, beta0) -> float | None:
    # s * log(x) / x^beta0 as a float, or None where a float cannot hold it
    try:
        value = float(s) * math.log(x) / x ** float(beta0)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


# ---------------------------------------------------------------------------
# the coefficient bound at primes
# ---------------------------------------------------------------------------


class DeligneReport(
    namedtuple(
        "DeligneReport",
        "weight x_max passed worst_prime worst_ratio failures",
        defaults=((),),
    )
):
    """Outcome of checking a(p)^2 <= 4 p^{m-1} for all primes p <= x_max.

    The pass/fail decision is exact integer arithmetic; worst_ratio is
    the floating value max |a(p)| / (2 p^{(m-1)/2}), diagnostic only.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "weight": self.weight,
            "x_max": self.x_max,
            "passed": self.passed,
            "worst_prime": self.worst_prime,
            "worst_ratio": self.worst_ratio,
            "failures": [[p, str(a)] for p, a in self.failures],
        }


def deligne_scan(coeffs, weight: int, x_max: int) -> DeligneReport:
    """Check the squared bound against an arbitrary coefficient sequence.

    Split out from deligne_check so tests can feed a synthetic sequence
    that violates the bound; coeffs[n] must be defined for n <= x_max.
    """
    worst_prime = 0
    worst = Fraction(0)  # max a(p)^2 / (4 p^{m-1}), exact while scanning
    failures = []
    passed = True
    for p in primes_up_to(x_max):
        a = coeffs[p]
        ratio = Fraction(a * a, 4 * p ** (weight - 1))
        if ratio > worst:
            worst = ratio
            worst_prime = p
        if ratio > 1:
            passed = False
            if len(failures) < MAX_FAILURES:
                failures.append((p, a))
    return DeligneReport(
        weight=weight,
        x_max=x_max,
        passed=passed,
        worst_prime=worst_prime,
        worst_ratio=math.sqrt(worst),
        failures=tuple(failures),
    )


def deligne_check(m: int, x_max: int) -> DeligneReport:
    """Verify the prime-coefficient bound for the weight-m eigenform."""
    if m not in EIGENFORM_WEIGHTS:
        raise ValueError(
            f"deligne_check: weight {m} has no one-dimensional cusp space; "
            f"supported weights are {EIGENFORM_WEIGHTS}"
        )
    if x_max < 2:
        raise ValueError(f"deligne_check: bound must be >= 2, got {x_max}")
    (eigenform,) = cusp_basis(m, x_max)
    return deligne_scan(eigenform.coeffs, m, x_max)
