"""Spans around qprime's public functions, for the traced run.

The wrappers live here, outside the package.  qprime's modules import one
another's functions by name (``from .forms import cusp_basis``), so each
wrapper is rebound in every loaded ``qprime`` module that holds the
original, and methods are replaced on their class.  Spans stay in memory
and are turned into per-layer metrics once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

LAYERS_FILE = Path(__file__).with_name("layers.json")


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float
    job: int
    attrs: dict | None


def _bits(c) -> int:
    if isinstance(c, int):
        return c.bit_length()
    if isinstance(c, Fraction):
        return c.numerator.bit_length() + c.denominator.bit_length()
    return 0


def _series_bits(series) -> int:
    # length times the largest coefficient size, in bits
    coeffs = series.coeffs
    try:
        widest = max(map(int.bit_length, coeffs), default=0)
    except TypeError:  # some coefficients are Fractions
        widest = max(map(_bits, coeffs), default=0)
    return len(coeffs) * widest


def _mul_attrs(args, kwargs, result):
    bits = sum(_series_bits(x) for x in args if hasattr(x, "coeffs"))
    return {"operand_bits": bits}


def _solve_attrs(args, kwargs, result):
    rows = args[0]
    return {"cells": len(rows) * (len(rows[0]) if rows else 0)}


def _bound(fn, *names):
    """An attrs function reading the named arguments, defaults included."""
    signature = inspect.signature(fn)

    def attrs(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {name: bound.arguments[name] for name in names}

    return attrs


def _sigma_attrs(args, kwargs, result):
    return {"entries": len(result)}


def _macmahon_attrs(args, kwargs, result):
    return {"cells": result.a_max * result.n_max}


def _finite_check_attrs(args, kwargs, result):
    # how many primes finite_check evaluated before it reached its verdict
    primes = sorted(set(args[1] if len(args) > 1 else kwargs["primes"]))
    if result.witness is not None:
        evaluated = primes.index(result.witness[0]) + 1
    elif result.verdict == "VanishesAtAllPrimes":
        # degree bound 0 means no Eisenstein terms, decided without evaluating
        evaluated = result.degree_bound + 1 if result.degree_bound else 0
    else:
        evaluated = len(primes)
    return {"primes_evaluated": evaluated}


# (layer name, module, attribute or Class.method, attrs factory or None)
TARGETS = (
    ("qseries.mul", "qprime.qseries", "QExpansion.__mul__", lambda fn: _mul_attrs),
    ("qseries.add", "qprime.qseries", "QExpansion.__add__", None),
    ("qseries.derivative", "qprime.qseries", "QExpansion.derivative", None),
    ("qseries.to_dict", "qprime.qseries", "QExpansion.to_dict", None),
    ("exactnum.solve_exact", "qprime.exactnum", "solve_exact", lambda fn: _solve_attrs),
    ("exactnum.sigma_array", "qprime.exactnum", "sigma_array", lambda fn: _sigma_attrs),
    ("exactnum.primes", "qprime.exactnum", "prime_mask", None),
    ("exactnum.primes", "qprime.exactnum", "primes_up_to", None),
    ("exactnum.primes", "qprime.exactnum", "first_primes", None),
    ("exactnum.primes", "qprime.exactnum", "is_prime", None),
    ("forms.eisenstein_g", "qprime.forms", "eisenstein_g", None),
    ("forms.delta", "qprime.forms", "delta", None),
    ("forms.cusp_basis", "qprime.forms", "cusp_basis", None),
    ("forms.expand", "qprime.forms", "QuasiForm.expand", lambda fn: _bound(fn, "precision")),
    ("forms.expand_monomials", "qprime.forms", "expand_monomials",
     lambda fn: _bound(fn, "precision")),
    ("forms.from_monomials", "qprime.forms", "from_monomials", lambda fn: _bound(fn, "n_guard")),
    ("decompose.split_eis_cusp", "qprime.decompose", "split_eis_cusp", None),
    ("primedetect.prime_polynomial", "qprime.primedetect", "prime_polynomial", None),
    ("primedetect.finite_check", "qprime.primedetect", "finite_check",
     lambda fn: _finite_check_attrs),
    ("primedetect.omega_scan", "qprime.primedetect", "omega_scan", None),
    ("primedetect.omega_tilde_decide", "qprime.primedetect", "omega_tilde_decide", None),
    ("macmahon.macmahon_table", "qprime.macmahon", "macmahon_table",
     lambda fn: _macmahon_attrs),
    ("macmahon.prime_identity", "qprime.macmahon", "prime_identity", None),
    ("signstats.prime_coefficients", "qprime.signstats", "prime_coefficients", None),
    ("signstats.partial_sum_report", "qprime.signstats", "partial_sum_report", None),
    ("signstats.deligne_scan", "qprime.signstats", "deligne_scan", None),
    ("formspec.parse_form_spec", "qprime.formspec", "parse_form_spec", None),
    ("cli.main", "qprime.cli", "main", None),
)


class Tracer:
    """Records one span per call of a wrapped function.

    Everything runs on one thread, so a stack of open spans gives each new
    span its parent.  Spans are tagged with the current ``job``.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list = []

    def wrap(self, name, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
            info = attrs(args, kwargs, result) if attrs else None
            tracer.spans.append(Span(sid, parent, name, start, end, tracer.job, info))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every qprime module that holds it."""
        for _, module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qprime" or n.startswith("qprime."))]
        for name, module_name, attr, factory in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[method]
                wrapper = self.wrap(name, original, factory(original) if factory else None)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        self._rebind(cls, key, wrapper, original)
            else:
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, factory(original) if factory else None)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, wrapper, original)

    def _rebind(self, holder, key, wrapper, original) -> None:
        setattr(holder, key, wrapper)
        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([list(span) for span in self.spans], fh)

    def absorb(self, path, job: int) -> None:
        """Add the spans a child process dumped, renumbered, as one job's."""
        with open(path) as fh:
            raw = json.load(fh)
        first = self._next_id
        for sid, parent, name, start, end, _, attrs in raw:
            self.spans.append(Span(sid + first, parent + first if parent >= 0 else -1,
                                   name, start, end, job, attrs))
            self._next_id = max(self._next_id, sid + first + 1)

    def root_cover(self, job: int) -> float:
        """Time of one job covered by its root spans."""
        return covered(float("-inf"), float("inf"),
                       [(s.start, s.end) for s in self.spans if s.job == job and s.parent < 0])


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - covered(span.start, span.end, children[span.id])
        for span in spans
    }


def _ancestors(span, by_id):
    while span.parent >= 0:
        span = by_id[span.parent]
        yield span


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer totals over all spans, and the base of every share.

    Returns (values, bases): values maps each per-layer metric name that
    the spans determine to its total; bases maps a share's name to its
    (numerator, denominator) in seconds.
    """
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    attr_sum = defaultdict(int)
    solve_under_fm = guard = recheck = 0.0
    for span in spans:
        duration = span.end - span.start
        calls[span.name] += 1
        self_s[span.name] += selfs[span.id]
        total_s[span.name] += duration
        for key, value in (span.attrs or {}).items():
            if key not in ("precision", "n_guard"):
                attr_sum[f"{span.name}.{key}"] += value
        parent = by_id.get(span.parent)
        if span.name == "exactnum.solve_exact" and any(
            a.name == "forms.from_monomials" for a in _ancestors(span, by_id)
        ):
            solve_under_fm += duration
        if parent is None:
            continue
        if (parent.name == "forms.from_monomials"
                and span.name in ("forms.expand", "forms.expand_monomials")
                and span.attrs["precision"] == parent.attrs["n_guard"]):
            guard += duration
        if parent.name == "decompose.split_eis_cusp" and span.name == "forms.expand":
            recheck += duration

    values = {}
    for name in calls:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_s[name]
    values.update(attr_sum)
    fm_total = total_s["forms.from_monomials"]
    split_total = total_s["decompose.split_eis_cusp"]
    values["forms.from_monomials.solve_s"] = solve_under_fm
    values["forms.from_monomials.guard_s"] = guard
    values["forms.from_monomials.guard_share"] = guard / fm_total if fm_total else 0.0
    values["decompose.split_eis_cusp.recheck_s"] = recheck
    values["decompose.split_eis_cusp.recheck_share"] = recheck / split_total if split_total else 0.0
    bases = {
        "forms.from_monomials.guard_share": (guard, fm_total),
        "decompose.split_eis_cusp.recheck_share": (recheck, split_total),
    }
    return values, bases


def layer_definitions() -> list[dict]:
    with open(LAYERS_FILE) as fh:
        return json.load(fh)["metrics"]
