"""Seeded job streams for the three workloads.

Every stream is infinite; a run takes a prefix of it.  The seed fixes the
inputs.  The property that sets a job's cost (cusp weight, precision, table
size, or for decompose an estimate of the cost) is drawn with a
golden-ratio sequence instead of independently: any prefix then covers its
range evenly, so runs with different seeds do the same amount of work and
their figures agree.  Everything else (monomials, coefficients, basis
indices) is drawn at random.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

GOLDEN = 0.6180339887498949

WORKLOADS = ("decompose", "cli_series", "partitions")


class Job(NamedTuple):
    kind: str
    inputs: dict


def _spread(i: int, phase: float) -> float:
    """The i-th point of a golden-ratio sequence in [0, 1), shifted by phase."""
    return (phase + i * GOLDEN) % 1.0


def stratum(i: int, phase: float, choices):
    return choices[int(_spread(i, phase) * len(choices))]


def band(i: int, phase: float, lo: int, hi: int) -> int:
    return lo + int(_spread(i, phase) * (hi - lo + 1))


def jobs(workload: str, seed: int):
    """The infinite job stream of a workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    return {
        "decompose": _decompose_jobs,
        "cli_series": _cli_jobs,
        "partitions": _partition_jobs,
    }[workload](rng)


# ---------------------------------------------------------------------------
# decompose: products of generators, as in acceptance criterion 5
# ---------------------------------------------------------------------------

def weight(mono) -> int:
    a, b, c = mono
    return 2 * a + 4 * b + 6 * c


MONOMIALS = tuple(
    (a, b, c)
    for a in range(13)
    for b in range(7)
    for c in range(5)
    if 0 < weight((a, b, c)) <= 24
)
# Top weight 10 has no cusp part, so the prime polynomial decides those jobs.
TOP_WEIGHTS = (10, 18, 20, 22, 24)
# combinations drawn per seed; job i is the one whose estimated cost sits
# at the i-th golden-ratio quantile among them
CANDIDATES = 4096


def _rational(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12))


def _combination(rng) -> dict:
    top = rng.choice(TOP_WEIGHTS)
    anchor = rng.choice([m for m in MONOMIALS if weight(m) == top])
    rest = rng.sample(
        [m for m in MONOMIALS if weight(m) <= top and m != anchor], rng.randint(1, 5)
    )
    return {m: _rational(rng) for m in (anchor, *rest)}


def decompose_cost(poly) -> float:
    """Estimated log cost of decomposing a combination.

    Rewriting in the classical convention turns every monomial into all the
    monomials that divide it, and the series products behind them grow with
    their degrees; the exact solves grow with the top weight.  A fit of log
    job time to log sum(degree^2) and the top weight leaves a residual of
    about 15%; only the order of the estimates matters here.
    """
    divisors = {
        (x, y, z)
        for a, b, c in poly
        for x in range(a + 1)
        for y in range(b + 1)
        for z in range(c + 1)
    }
    return math.log(sum(sum(d) ** 2 for d in divisors)) + 0.092 * max(map(weight, poly))


def _decompose_jobs(rng):
    phase = rng.random()
    candidates = sorted((_combination(rng) for _ in range(CANDIDATES)), key=decompose_cost)
    for i in itertools.count():
        u = _spread(i, phase)
        # twice as many jobs near the median cost as at the ends, so that the
        # median job is measured on many alike
        u += 0.5 * math.sin(2 * math.pi * u) / (2 * math.pi)
        yield Job("decompose", {"poly": candidates[int(u * CANDIDATES)]})


# ---------------------------------------------------------------------------
# partitions: MacMahon tables with the prime identity column
# ---------------------------------------------------------------------------

# table sizes per number of part sizes a.  The DP cost grows like n^2 and
# with a; each band costs 0.7-0.8 ref_s (see reference.py), so that the
# median and the tail job sit in a dense cluster and move only with the
# program, not with which tables a seed drew.
PARTITION_BANDS = {2: (1480, 1600), 3: (1050, 1135), 4: (855, 920)}


def _partition_jobs(rng):
    phases = {a: rng.random() for a in PARTITION_BANDS}
    order = list(PARTITION_BANDS)
    for r in itertools.count():
        rng.shuffle(order)
        for a in order:
            n = band(r, phases[a], *PARTITION_BANDS[a])
            yield Job("partitions", {"a": a, "n": n})


# ---------------------------------------------------------------------------
# cli_series: one fresh CLI process per job, every subcommand
# ---------------------------------------------------------------------------

# signstats jobs also report partial sums at this bound, which the check
# recomputes from an expansion to this precision
LOW_PRECISION = 300

EIGENFORMS = {"DELTA": 12, "S16.0": 16, "S18.0": 18, "S20.0": 20, "S22.0": 22, "S26.0": 26}
CUSP_DIMS = {12: 1, 16: 1, 18: 1, 20: 1, 22: 1, 24: 2, 26: 1, 28: 2, 30: 2, 32: 2,
             34: 2, 36: 3, 38: 2, 40: 3}


def _coeff(rng) -> str:
    num, den = rng.randint(1, 9), rng.choice((1, 1, 2, 3, 5, 7))
    return str(num) if den == 1 else f"{num}/{den}"


def _cusp(rng, m) -> str:
    return f"S{m}.{rng.randrange(CUSP_DIMS[m])}"


def _variant(i, phase, table):
    """A (weight or form, size) pair from the table, the size jittered by 5%.

    Sizes are set so that every entry of one table costs about the same,
    which keeps a kind's share of a run's time independent of the seed.
    """
    choice, size = stratum(i, phase, table)
    fraction = _spread(i, phase) * len(table) % 1.0
    return choice, int(size * (0.95 + 0.1 * fraction))


def _mixed_form(rng, m) -> str:
    """A weight-m cusp term, an Eisenstein derivative of weight 12..40, D DELTA."""
    k = rng.randrange(4, 31, 2)
    l = rng.randint(max(0, (12 - k) // 2), (40 - k) // 2)
    return (f"{_coeff(rng)} {_cusp(rng, m)} {rng.choice('+-')} {_coeff(rng)} D^{l} G{k}"
            f" - {_coeff(rng)} D DELTA")


# (form or weight, precision or bound), each about 1 ref_s (see
# reference.py) at the commit that added the benchmark.  DELTA and weight 12
# are left out: capped at 10^4 they cost half as much, and signstats_delta
# covers them.
EIGEN_SIZES = (("S16.0", 9600), ("S18.0", 8100), ("S20.0", 6700), ("S22.0", 6900),
               ("S26.0", 4900))
CUSP_SIZES = ((28, 3200), (30, 2800), (32, 2600), (34, 2600), (36, 1900), (38, 2300),
              (40, 1600))
MIXED_SIZES = ((20, 6000), (24, 3700), (28, 3000), (32, 2800))
SIGNSTATS_SIZES = ((16, 9200), (18, 8000), (20, 7200), (22, 6300), (24, 3600), (26, 4800),
                   (28, 3100))
DELIGNE_SIZES = ((16, 9800), (18, 8700), (20, 7000), (22, 6400), (26, 5000))


def _expand_eigen(rng, i, phase):
    form, precision = _variant(i, phase, EIGEN_SIZES)
    return ["expand", form, "--precision", str(precision)]


def _expand_cusp(rng, i, phase):
    m, precision = _variant(i, phase, CUSP_SIZES)
    return ["expand", _cusp(rng, m), "--precision", str(precision)]


def _expand_mixed(rng, i, phase):
    m, precision = _variant(i, phase, MIXED_SIZES)
    return ["expand", _mixed_form(rng, m), "--precision", str(precision)]


def _signstats_delta(rng, i, phase):
    return ["signstats", "DELTA", "--bound", "10000"]


def _signstats_cusp(rng, i, phase):
    m, bound = _variant(i, phase, SIGNSTATS_SIZES)
    spec = f"{_coeff(rng)} {_cusp(rng, m)} {rng.choice('+-')} {_coeff(rng)} D DELTA"
    return ["signstats", spec, "--bound", str(bound), "--grid", f"{LOW_PRECISION},{bound}"]


def _deligne(rng, i, phase):
    m, bound = _variant(i, phase, DELIGNE_SIZES)
    return ["deligne", "--weight", str(m), "--bound", str(bound)]


def _decide_hk(rng, i, phase):
    k = rng.randrange(6, 41, 2)
    return ["decide", f"H{k}", "--bound", str(band(i, phase, 5000, 10000))]


def _decide_not(rng, i, phase):
    k, coeff = rng.randrange(6, 31, 2), _coeff(rng)
    spec = f"H{k} + {coeff} {_cusp(rng, rng.choice((12, 16, 18, 20, 24)))}"
    return ["decide", spec, "--bound", str(band(i, phase, 500, 1500))]


def _decompose_cli(rng, i, phase):
    spec = _mixed_form(rng, stratum(i, phase, (16, 24, 32, 36)))
    return ["decompose", spec, "--precision", str(band(i, phase, 60, 400))]


def _finite_check(rng, i, phase):
    j = rng.randint(0, 4)
    if i % 2 == 0:  # vanishes at every prime
        spec = f"H{rng.randrange(6, 31, 2)} - {_coeff(rng)} D^{j} H{rng.randrange(6, 31, 2)}"
    else:
        k = rng.randrange(4, 31, 2)
        k2 = rng.choice([x for x in range(4, 31, 2) if x != k])
        spec = f"G{k} - {_coeff(rng)} D^{j} G{k2}"
    return ["finite-check", spec]


def _macmahon(rng, i, phase):
    a = stratum(i, phase, (2, 3))
    return ["macmahon", "--amax", str(a), "--bound", str(band(i, phase, 600, 1000))]


CLI_KINDS = {
    "expand_eigen": _expand_eigen,
    "expand_cusp": _expand_cusp,
    "expand_mixed": _expand_mixed,
    "signstats_delta": _signstats_delta,
    "signstats_cusp": _signstats_cusp,
    "deligne": _deligne,
    "decide_hk": _decide_hk,
    "decide_not": _decide_not,
    "decompose": _decompose_cli,
    "finite_check": _finite_check,
    "macmahon": _macmahon,
}


# One round of the CLI stream is these twenty jobs.  Fourteen are dominated
# by big-integer series products and cost about the same, so the median job
# and the tail job are among them and move with them; the other six cover
# the remaining subcommands and cost less.
PRODUCT_KINDS = (
    "expand_eigen", "expand_eigen", "expand_cusp", "expand_cusp", "expand_cusp",
    "expand_mixed", "expand_mixed", "expand_mixed", "signstats_cusp", "signstats_cusp",
    "signstats_cusp", "deligne", "deligne", "deligne",
)
OTHER_KINDS = ("signstats_delta", "decide_hk", "decide_not", "decompose", "finite_check",
               "macmahon")
CLI_ROUND = PRODUCT_KINDS + OTHER_KINDS


def _cli_jobs(rng):
    phases = {kind: rng.random() for kind in CLI_KINDS}
    drawn = dict.fromkeys(CLI_KINDS, 0)
    n, k = len(CLI_ROUND), len(OTHER_KINDS)
    while True:
        product, other = list(PRODUCT_KINDS), list(OTHER_KINDS)
        rng.shuffle(product)
        rng.shuffle(other)
        for i in range(n):
            # the other kinds spread evenly through the round, so that a run
            # cut off mid-round still has the round's mix
            kind = other.pop() if (i + 1) * k // n > i * k // n else product.pop()
            yield Job(kind, {"argv": CLI_KINDS[kind](rng, drawn[kind], phases[kind])})
            drawn[kind] += 1
