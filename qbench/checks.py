"""Output checks, each along a path independent of the one that produced it.

A check raises CheckFailed; the caller counts that job as failed.  Checks
run between jobs, outside the timed intervals.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

from qprime.forms import QuasiForm, expand_monomials
from qprime.formspec import parse_form_spec
from qprime.primedetect import IN_OMEGA_TILDE, VANISHES_AT_ALL_PRIMES, prime_polynomial
from qprime.qseries import QExpansion

from jobs import CUSP_DIMS, EIGENFORMS, LOW_PRECISION

# decompose jobs are re-expanded at this precision, as in acceptance criterion 5
RECONSTRUCT_PRECISION = 60
# CLI results are compared with an expansion computed in this process at
# LOW_PRECISION, below the Kronecker cutoff, so through the schoolbook product


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# arithmetic written here, independent of qprime
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def divisor_sums(r: int, n: int) -> tuple:
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        power = d**r
        for multiple in range(d, n + 1, d):
            out[multiple] += power
    return tuple(out)


@lru_cache(maxsize=None)
def prime_flags(n: int) -> tuple:
    flags = [False, False] + [True] * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            for multiple in range(p * p, n + 1, p):
                flags[multiple] = False
    return tuple(flags[: n + 1])


@lru_cache(maxsize=None)
def macmahon_brute(a: int, n: int) -> int:
    """M_a(n) by enumerating part sizes s_1 < ... < s_a and multiplicities."""

    def count(parts_left, smallest, remaining):
        if parts_left == 0:
            return 1 if remaining == 0 else 0
        total = 0
        for size in range(smallest, remaining + 1):
            for mult in range(1, remaining // size + 1):
                total += mult * count(parts_left - 1, size + 1, remaining - mult * size)
        return total

    return count(a, 1, n)


BRUTE_LIMIT = 30


def check_macmahon_values(a_max: int, n_max: int, rows, identity) -> None:
    """rows[a-1][n-1] = M_a(n); identity[n-1] is the prime identity column."""
    require(len(rows) == a_max and all(len(row) == n_max for row in rows),
            "table has the wrong shape")
    s1, s3 = divisor_sums(1, n_max), divisor_sums(3, n_max)
    flags = prime_flags(n_max)
    for n in range(1, n_max + 1):
        require(rows[0][n - 1] == s1[n], f"M_1({n}) != sigma_1({n})")
        if a_max >= 2:
            require(8 * rows[1][n - 1] == (1 - 2 * n) * s1[n] + s3[n],
                    f"8 M_2({n}) != (1-2n) sigma_1 + sigma_3")
        if n >= 3:
            require(identity[n - 1] == flags[n],
                    f"identity column at {n} is {identity[n - 1]}, primality {flags[n]}")
    for a in range(1, a_max + 1):
        for n in range(1, min(n_max, BRUTE_LIMIT) + 1):
            require(rows[a - 1][n - 1] == macmahon_brute(a, n),
                    f"M_{a}({n}) differs from enumeration")


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def monomial_expansion(mono) -> tuple:
    return tuple(expand_monomials({mono: 1}, RECONSTRUCT_PRECISION).coeffs)


def check_decompose(job, output) -> None:
    result, decision, verdict = output
    eis, cusp = result.eis_part, result.cusp_part
    require(not eis.cusp and not cusp.eis, "split parts are not separated")
    # expand_monomials is linear, so its per-monomial expansions are cached
    poly = job.inputs["poly"]
    expected = [sum(c * monomial_expansion(m)[n] for m, c in poly.items())
                for n in range(RECONSTRUCT_PRECISION + 1)]
    require((eis + cusp).expand(RECONSTRUCT_PRECISION).coeffs == expected,
            "eis_part + cusp_part does not reproduce the product expansion")
    vanishes = prime_polynomial(eis).is_zero()
    require((verdict.verdict == VANISHES_AT_ALL_PRIMES) == vanishes,
            f"finite_check says {verdict.verdict}, prime polynomial zero: {vanishes}")
    require((decision.verdict == IN_OMEGA_TILDE) == (vanishes and not cusp.cusp),
            f"omega_tilde_decide says {decision.verdict}")


def check_partitions(job, output) -> None:
    table, identity = output
    a, n = job.inputs["a"], job.inputs["n"]
    require((table.a_max, table.n_max) == (a, n), "table has the wrong bounds")
    rows = [row[1:] for row in table.values]
    check_macmahon_values(a, n, rows, identity)


# ---------------------------------------------------------------------------
# cli_series
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def low_expansion(spec: str) -> tuple:
    return tuple(parse_form_spec(spec).expand(LOW_PRECISION).coeffs)


def _prime_values(spec: str):
    coeffs = low_expansion(spec)
    flags = prime_flags(LOW_PRECISION)
    return [(p, coeffs[p]) for p in range(LOW_PRECISION + 1) if flags[p]]


def _sign_changes(values) -> int:
    nonzero = [v for v in values if v != 0]
    return sum(1 for x, y in zip(nonzero, nonzero[1:]) if (x > 0) != (y > 0))


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _check_expand(job, text: str) -> None:
    argv = job.inputs["argv"]
    spec, precision = argv[1], int(_flag(argv, "--precision"))
    series = QExpansion.from_json(text)
    require(series.precision == precision, "expansion has the wrong precision")
    require(series.to_json(indent=2) == text.rstrip("\n"), "JSON does not round-trip")
    require(tuple(series.coeffs[: LOW_PRECISION + 1]) == low_expansion(spec),
            "leading coefficients differ from the low-precision expansion")
    a = series.coeffs
    if job.kind == "expand_eigen":
        k = EIGENFORMS[spec]
        require(a[1] == 1, "eigenform is not normalized")
        for m in range(2, 60):
            for n in range(m + 1, min(60, precision // m) + 1):
                if math.gcd(m, n) == 1:
                    require(a[m * n] == a[m] * a[n], f"a({m}*{n}) != a({m}) a({n})")
        flags = prime_flags(math.isqrt(precision))
        for p in range(2, math.isqrt(precision) + 1):
            if flags[p]:
                require(a[p * p] == a[p] ** 2 - p ** (k - 1), f"a({p}^2) fails the Hecke relation")
    if job.kind == "expand_cusp":
        m, i = (int(x) for x in spec[1:].split("."))
        dim = CUSP_DIMS[m]
        require(a[0] == 0 and [a[j + 1] for j in range(dim)] == [int(j == i) for j in range(dim)],
                "cusp basis element is not in echelon form")


def _check_signstats(job, data: dict) -> None:
    argv = job.inputs["argv"]
    spec, bound = argv[1], int(_flag(argv, "--bound"))
    require(data["x_max"] == bound, "wrong x_max")
    if job.kind == "signstats_delta":
        require(data["sign_changes"] == 628, f"tau has {data['sign_changes']} sign changes, not 628")
        return
    values = [v for _, v in _prime_values(spec)]
    grid = [x for x, _ in data["partial_sum"]]
    require(grid == [LOW_PRECISION, bound], f"unexpected grid {grid}")
    (_, s_low), _ = data["partial_sum"]
    (_, sq_low), (_, sq_all) = data["partial_sum_sq"]
    require(Fraction(s_low) == sum(values), "partial sum at 300 differs")
    require(Fraction(sq_low) == sum(v * v for v in values), "partial square sum at 300 differs")
    require(Fraction(sq_all) >= Fraction(sq_low), "square sums decrease")
    require(data["sign_changes"] >= _sign_changes(values), "fewer sign changes than below 300")


def _check_deligne(job, data: dict) -> None:
    argv = job.inputs["argv"]
    m, bound = int(_flag(argv, "--weight")), int(_flag(argv, "--bound"))
    require(data["passed"] and not data["failures"], "Deligne bound reported as failing")
    require((data["weight"], data["x_max"]) == (m, bound), "wrong weight or bound")
    p = data["worst_prime"]
    require(2 <= p <= bound and prime_flags(bound)[p], "worst prime is not a prime in range")
    spec = {k: s for s, k in EIGENFORMS.items()}[m]
    low = max(a * a / (4 * p ** (m - 1)) for p, a in _prime_values(spec))
    require(math.sqrt(low) <= data["worst_ratio"] * (1 + 1e-9) <= 1 + 1e-9,
            "worst ratio below the ratio seen under 300, or above 1")


def _check_decide(job, data: dict, code: int) -> None:
    argv = job.inputs["argv"]
    form = parse_form_spec(argv[1])
    split = data["decomposition"]
    eis, cusp = QuasiForm.from_dict(split["eis_part"]), QuasiForm.from_dict(split["cusp_part"])
    require(eis + cusp == form and not eis.cusp and not cusp.eis, "decomposition is wrong")
    scan = data["scan"]
    require(scan["range_checked"] == int(_flag(argv, "--bound")), "wrong scan bound")
    if job.kind == "decide_hk":
        require(code == 0, f"exit code {code}")
        require(data["verdict"]["verdict"] == IN_OMEGA_TILDE, "H_k not in Omega-tilde")
        require(scan["nonneg_ok"] and scan["zero_set_equals_primes"], "H_k scan fails")
    else:
        require(code == 1, f"exit code {code}")
        witness = data["verdict"].get("witness", {})
        require(witness.get("type") == "cusp" and tuple(witness["key"]) == min(form.cusp),
                "no cusp witness")


def _check_decompose_cli(job, data: dict) -> None:
    argv = job.inputs["argv"]
    eis, cusp = QuasiForm.from_dict(data["eis_part"]), QuasiForm.from_dict(data["cusp_part"])
    require(eis + cusp == parse_form_spec(argv[1]), "parts do not add up to the form")
    require(not eis.cusp and not cusp.eis, "parts are not separated")
    require(data["certificate_precision"] == int(_flag(argv, "--precision")),
            "wrong certificate precision")


def _check_finite(job, data: dict, code: int) -> None:
    values = dict(_prime_values(job.inputs["argv"][1]))
    vanishes = not any(values.values())
    require(code == (0 if vanishes else 1), f"exit code {code}, vanishes below 300: {vanishes}")
    if vanishes:
        require(data["verdict"] == VANISHES_AT_ALL_PRIMES, f"verdict {data['verdict']}")
    else:
        p, value = data["witness"]["p"], Fraction(data["witness"]["value"])
        require(values.get(p) == value != 0, f"witness at {p} does not match the expansion")


def _check_macmahon_cli(job, data: dict) -> None:
    argv = job.inputs["argv"]
    a, n = int(_flag(argv, "--amax")), int(_flag(argv, "--bound"))
    require((data["a_max"], data["n_max"]) == (a, n), "wrong table bounds")
    check_macmahon_values(a, n, data["m"], data["identity_holds"])


def check_cli(job, code: int, text: str) -> None:
    """Check one CLI job from its exit code and the file it wrote."""
    kind = job.kind
    if kind not in ("decide_hk", "decide_not", "finite_check"):
        require(code == 0, f"exit code {code}")
    if kind.startswith("expand"):
        _check_expand(job, text)
        return
    data = json.loads(text)
    if kind.startswith("signstats"):
        _check_signstats(job, data)
    elif kind == "deligne":
        _check_deligne(job, data)
    elif kind.startswith("decide"):
        _check_decide(job, data, code)
    elif kind == "decompose":
        _check_decompose_cli(job, data)
    elif kind == "finite_check":
        _check_finite(job, data, code)
    elif kind == "macmahon":
        _check_macmahon_cli(job, data)
    else:
        raise CheckFailed(f"no check for job kind {kind}")
