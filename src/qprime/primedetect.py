"""Prime-coefficient diagnostics for quasimodular combinations.

For an Eisenstein combination f = sum alpha_{k,l} D^l G_k, the
coefficient at a prime p collapses to a polynomial in p:

    c_f(p) = sum alpha_{k,l} p^l (1 + p^{k-1})

because sigma_{k-1}(p) = 1 + p^{k-1}.  Collecting powers gives the
PrimePolynomial; its degree is bounded by d = max(l + k - 1), so d+1
distinct primes with c_f(p) = 0 force the polynomial (hence every prime
coefficient) to vanish.  finite_check applies that root count directly;
prime polynomial extraction stays a separate code path so the two can
cross-check each other.

Membership in the cone of prime-detecting combinations splits into a
cusp obstruction (read off the canonical representation) and the
polynomial-vanishing condition; omega_tilde_decide runs both, while
omega_scan is bounded empirical verification over 2 <= n <= N.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction

from .exactnum import first_primes, is_prime, prime_mask
from .forms import QuasiForm

__all__ = [
    "PrimePolynomial",
    "degree_bound",
    "prime_polynomial",
    "coefficient_at_prime",
    "FiniteCheckResult",
    "finite_check",
    "OmegaReport",
    "omega_scan",
    "OmegaTildeResult",
    "omega_tilde_decide",
    "VANISHES_AT_ALL_PRIMES",
    "NOT_ALL_PRIMES",
    "INSUFFICIENT_PRIMES",
    "IN_OMEGA_TILDE",
    "NOT_IN_OMEGA_TILDE",
]

VANISHES_AT_ALL_PRIMES = "VanishesAtAllPrimes"
NOT_ALL_PRIMES = "NotAllPrimes"
INSUFFICIENT_PRIMES = "InsufficientPrimes"
IN_OMEGA_TILDE = "InOmegaTilde"
NOT_IN_OMEGA_TILDE = "Not"


# ---------------------------------------------------------------------------
# the prime polynomial
# ---------------------------------------------------------------------------


class PrimePolynomial(namedtuple("PrimePolynomial", "betas degree_bound")):
    """Coefficients beta_0..beta_d of c_f(p) as a polynomial in p.

    The array length is the structural degree bound d = max(l + k - 1),
    not the true degree: cancellation can zero any entry including the
    last (that is the interesting case).
    """

    __slots__ = ()

    def is_zero(self) -> bool:
        return all(b == 0 for b in self.betas)

    def evaluate(self, x):
        acc = 0
        for b in reversed(self.betas):
            acc = acc * x + b
        return acc

    def to_dict(self) -> dict:
        return {
            "degree_bound": self.degree_bound,
            "betas": [str(b) for b in self.betas],
        }


def _eisenstein_keys(form: QuasiForm) -> list:
    if form.cusp:
        raise ValueError(
            "not an Eisenstein combination: cusp map has "
            f"{len(form.cusp)} nonzero entries"
        )
    # the constant slot never touches coefficients at n >= 1
    return [key for key in form.eis if key[0] != 0]


def degree_bound(form: QuasiForm) -> int:
    """The structural degree bound d = max(l + k - 1) over the D^l G_k terms.

    0 when the form has no Eisenstein term beyond the constant; the cusp
    map is not looked at.
    """
    return max((l + k - 1 for (k, l) in form.eis if k != 0), default=0)


def prime_polynomial(form: QuasiForm) -> PrimePolynomial:
    """Collect like powers of p in c_f(p) = sum alpha p^l (1 + p^{k-1})."""
    if not _eisenstein_keys(form):
        return PrimePolynomial(betas=(0,), degree_bound=0)
    d = degree_bound(form)
    betas = [Fraction(0)] * (d + 1)
    for (k, l), alpha in form.eis.items():
        if k == 0:
            continue
        betas[l] += alpha
        betas[l + k - 1] += alpha
    return PrimePolynomial(
        betas=tuple(int(b) if b.denominator == 1 else b for b in betas),
        degree_bound=d,
    )


def coefficient_at_prime(form: QuasiForm, p: int):
    """c_f(p) by direct evaluation of the displayed per-prime formula.

    Deliberately does not share code with prime_polynomial: each is the
    other's oracle in the cross-check tests.
    """
    return sum((alpha * p**l * (1 + p ** (k - 1)) for (k, l), alpha in form.eis.items() if k != 0), 0)


# ---------------------------------------------------------------------------
# the finite check
# ---------------------------------------------------------------------------


class FiniteCheckResult(
    namedtuple(
        "FiniteCheckResult", "verdict degree_bound needed witness", defaults=(None, None)
    )
):
    """Outcome of the root-counting check over a supplied list of primes.

    verdict is one of VanishesAtAllPrimes, NotAllPrimes (witness holds
    the offending prime and its coefficient), or InsufficientPrimes
    (needed is the sufficient count d+1; degree_bound is d itself, so
    both numbers behind the count are visible); witness is (p, c_f(p)).
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.verdict, "degree_bound": self.degree_bound}
        if self.needed is not None:
            out["needed"] = self.needed
        if self.witness is not None:
            out["witness"] = {"p": self.witness[0], "value": str(self.witness[1])}
        return out

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def finite_check(form: QuasiForm, primes) -> FiniteCheckResult:
    """Decide prime-coefficient vanishing from finitely many evaluations.

    With d the structural degree bound, d+1 distinct vanishing primes
    certify that every prime coefficient is zero; one nonzero evaluation
    refutes it; anything less is reported as insufficient evidence, never
    as a verdict.
    """
    if not _eisenstein_keys(form):
        # no Eisenstein terms at all: c_f(n) = 0 for n >= 1 structurally
        return FiniteCheckResult(verdict=VANISHES_AT_ALL_PRIMES, degree_bound=0)
    d = degree_bound(form)
    needed = d + 1
    seen = sorted(set(primes))
    for p in seen:
        if not is_prime(p):
            raise ValueError(f"finite_check: {p} is not prime")
    vanished = 0
    for p in seen:
        value = coefficient_at_prime(form, p)
        if value != 0:
            return FiniteCheckResult(
                verdict=NOT_ALL_PRIMES, degree_bound=d, witness=(p, value)
            )
        vanished += 1
        if vanished >= needed:
            return FiniteCheckResult(verdict=VANISHES_AT_ALL_PRIMES, degree_bound=d)
    return FiniteCheckResult(
        verdict=INSUFFICIENT_PRIMES, degree_bound=d, needed=needed
    )


# ---------------------------------------------------------------------------
# bounded scan of the defining inequalities
# ---------------------------------------------------------------------------


class OmegaReport(
    namedtuple(
        "OmegaReport",
        "range_checked nonneg_ok zero_set_equals_primes violations total_violations "
        "include_small",
        defaults=((), 0, False),
    )
):
    """Result of scanning c_f(n) >= 0 and (c_f(n) = 0 iff n prime).

    violations holds at most the configured cap of (n, value, reason)
    entries; total_violations counts all of them, capped or not.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.nonneg_ok and self.zero_set_equals_primes

    def to_dict(self) -> dict:
        return {
            "range_checked": self.range_checked,
            "include_small": self.include_small,
            "nonneg_ok": self.nonneg_ok,
            "zero_set_equals_primes": self.zero_set_equals_primes,
            "violations": [[n, str(v), reason] for n, v, reason in self.violations],
            "total_violations": self.total_violations,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def omega_scan(
    form: QuasiForm,
    n_max: int,
    include_small: bool = False,
    max_violations: int = 20,
    constant_sign: str = "paper",
) -> OmegaReport:
    """Check the sign and zero-set conditions for 2 <= n <= n_max.

    include_small widens the range to 0 <= n <= n_max; the small indices
    are excluded by default because the zero-set condition is genuinely
    ambiguous there (the weight-6 combination vanishes at n = 1).
    """
    if n_max < 2:
        raise ValueError(f"omega_scan: scan bound must be >= 2, got {n_max}")
    if max_violations < 0:
        raise ValueError(f"omega_scan: max_violations must be >= 0, got {max_violations}")
    # signs and zeros read off the numerators, as the denominator is >= 1
    series = form.expand(n_max, constant_sign=constant_sign)
    mask = prime_mask(n_max)
    start = 0 if include_small else 2
    violations = []
    total = 0
    nonneg_ok = True
    zero_set_ok = True

    def record(n, reason):
        nonlocal total
        total += 1
        if len(violations) < max_violations:
            violations.append((n, series[n], reason))

    for n, num in enumerate(series.nums[start:], start):
        if num < 0:
            nonneg_ok = False
            record(n, "negative")
        if mask[n] and num != 0:
            zero_set_ok = False
            record(n, "nonzero at prime")
        elif not mask[n] and num == 0:
            zero_set_ok = False
            record(n, "zero at non-prime")
    return OmegaReport(
        range_checked=n_max,
        nonneg_ok=nonneg_ok,
        zero_set_equals_primes=zero_set_ok,
        violations=tuple(violations),
        total_violations=total,
        include_small=include_small,
    )


# ---------------------------------------------------------------------------
# the complete membership decision
# ---------------------------------------------------------------------------


class OmegaTildeResult(namedtuple("OmegaTildeResult", "verdict witness", defaults=(None,))):
    """InOmegaTilde, or Not with a witness.

    The witness is ("cusp", (m, i, l), coefficient) when the canonical
    representation has a cuspidal component (checked first), else
    ("prime", p, c_f(p)) for a prime where the coefficient is nonzero.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.witness is not None:
            kind, where, value = self.witness
            out["witness"] = {
                "type": kind,
                ("key" if kind == "cusp" else "p"): list(where)
                if isinstance(where, tuple)
                else where,
                "value": str(value),
            }
        return out

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def omega_tilde_decide(form: QuasiForm) -> OmegaTildeResult:
    """Decide whether every prime coefficient of the form vanishes.

    The decision is complete: a cuspidal component is an immediate
    witness.  Otherwise c_f(p) is a polynomial in p of degree at most d,
    so by root count finite_check over the first d+1 primes decides it:
    In when all of them vanish, else Not with the first prime that does
    not as the witness.
    """
    if form.cusp:
        key = min(form.cusp)
        return OmegaTildeResult(
            verdict=NOT_IN_OMEGA_TILDE, witness=("cusp", key, form.cusp[key])
        )
    check = finite_check(form, first_primes(degree_bound(form) + 1))
    if check.witness is None:
        return OmegaTildeResult(verdict=IN_OMEGA_TILDE)
    p, value = check.witness
    return OmegaTildeResult(verdict=NOT_IN_OMEGA_TILDE, witness=("prime", p, value))
