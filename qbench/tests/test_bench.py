"""Tests of the benchmark itself: job streams, span arithmetic, names, checks.

    python3 -m pytest qbench/tests
"""

import itertools
import json
import re
import statistics
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import jobs
import reference
import run
from reference import REFERENCE_S
from spans import Span, Tracer, covered, layer_definitions, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def take(workload, seed, n=40):
    return list(itertools.islice(jobs.jobs(workload, seed), n))


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_fixed_seed_gives_same_jobs(workload):
    assert take(workload, 7) == take(workload, 7)
    assert take(workload, 7) != take(workload, 8)


def test_cli_stream_uses_every_subcommand():
    used = {job.inputs["argv"][0] for job in take("cli_series", 3, len(jobs.CLI_ROUND))}
    assert used == {"expand", "decompose", "decide", "finite-check", "macmahon",
                    "signstats", "deligne"}


def test_decompose_costs_agree_across_seeds():
    costs = [[jobs.decompose_cost(job.inputs["poly"]) for job in take("decompose", seed, 60)]
             for seed in range(1, 5)]
    medians = [statistics.median(c) for c in costs]
    assert max(medians) - min(medians) < 0.1
    tops = {max(map(jobs.weight, job.inputs["poly"])) for job in take("decompose", 5, 60)}
    assert tops == set(jobs.TOP_WEIGHTS)


def span(sid, parent, start, end, name="x", attrs=None):
    return Span(sid, parent, name, start, end, 0, attrs)


def test_self_time_subtracts_union_of_children():
    spans = [
        span(0, -1, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 3.5, 6.0),  # overlaps its sibling: covered once
        span(4, 0, 9.0, 12.0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx({0: 4.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 3.0})


def test_covered_merges_and_clips():
    assert covered(0, 10, [(2, 4), (3, 5), (8, 20), (-5, -1)]) == pytest.approx(5.0)
    assert covered(0, 10, []) == 0.0


def test_guard_and_recheck_come_from_the_span_tree():
    spans = [
        span(0, -1, 0.0, 10.0, "decompose.split_eis_cusp"),
        span(1, 0, 0.0, 6.0, "forms.from_monomials", {"n_guard": 60}),
        span(2, 1, 0.5, 2.0, "exactnum.solve_exact", {"cells": 12}),
        span(3, 1, 2.0, 2.5, "forms.expand_monomials", {"precision": 19}),
        span(4, 1, 3.0, 4.0, "forms.expand", {"precision": 60}),
        span(5, 1, 4.0, 6.0, "forms.expand_monomials", {"precision": 60}),
        span(6, 0, 7.0, 9.0, "forms.expand", {"precision": 60}),
    ]
    values, bases = layer_metrics(spans)
    assert values["forms.from_monomials.guard_s"] == pytest.approx(3.0)
    assert values["forms.from_monomials.guard_share"] == pytest.approx(0.5)
    assert values["forms.from_monomials.solve_s"] == pytest.approx(1.5)
    assert values["decompose.split_eis_cusp.recheck_s"] == pytest.approx(2.0)
    assert values["decompose.split_eis_cusp.self_s"] == pytest.approx(2.0)
    assert values["forms.from_monomials.self_s"] == pytest.approx(1.0)
    assert values["exactnum.solve_exact.cells"] == 12
    assert values["forms.expand.calls"] == 2
    assert bases["forms.from_monomials.guard_share"] == pytest.approx((3.0, 6.0))


def test_tracer_wraps_names_imported_across_modules():
    import qprime.forms
    from qprime.forms import QuasiForm

    original = qprime.forms.cusp_basis
    tracer = Tracer()
    tracer.install()
    try:
        assert qprime.forms.cusp_basis is not original
        QuasiForm(cusp={(24, 1, 0): 1}).expand(30)
    finally:
        tracer.uninstall()
    assert qprime.forms.cusp_basis is original
    names = {s.name for s in tracer.spans}
    assert {"forms.expand", "forms.cusp_basis", "qseries.add"} <= names
    expand = next(s for s in tracer.spans if s.name == "forms.expand")
    assert expand.parent == -1 and expand.attrs == {"precision": 30}


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = [(d["name"], d["unit"]) for d in layer_definitions()]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)


class FakeWorkload:
    def run(self, job, index, tracer=None):
        return 0.01 * (index + 1), job

    def check(self, job, output):
        pass

    def peak_rss_mb(self):
        return 20.0


def test_end_to_end_metrics_are_the_declared_ones():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, _ = run.measure(FakeWorkload(), take("partitions", 1), 0.1, run.Ledger(),
                             lambda: 0.05)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert set(metrics) == set(declared)
    assert all(declared[name] == unit for name, (_, unit) in metrics.items())


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    value, p, beyond = run.tail(list(range(60, 0, -1)))
    assert (value, beyond) == (50, 10) and p == pytest.approx(100 * 50 / 60)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_reference_seconds_cancel_a_uniform_slowdown():
    times, refs = [1.0, 2.0, 1.5], [0.02, 0.02, 0.08, 0.02]  # one reference run stalled
    scaled = run.reference_seconds(times, refs)
    assert scaled == pytest.approx([t * REFERENCE_S / 0.02 for t in times])
    slower = run.reference_seconds([1.5 * t for t in times], [1.5 * r for r in refs])
    assert slower == pytest.approx(scaled)


def test_reference_computation_repeats():
    assert reference.reference_work() == reference.EXPECTED
    assert reference.time_reference() > 0


# ---------------------------------------------------------------------------
# corrupted outputs count as failures
# ---------------------------------------------------------------------------


def corrupted(workload, mutate):
    class Corrupting(type(workload)):
        def run(self, job, index, tracer=None):
            seconds, output = super().run(job, index, tracer)
            return seconds, mutate(output)

    corrupting = Corrupting.__new__(Corrupting)
    corrupting.__dict__.update(workload.__dict__)
    return corrupting


def error_rate(workload, job):
    ledger = run.Ledger()
    ledger.attempt(workload, job, 0)
    return ledger.failed / ledger.attempted


def test_partitions_pass_and_corruption_counts():
    job = jobs.Job("partitions", {"a": 3, "n": 60})
    workload = run.LibraryWorkload("partitions")
    assert error_rate(workload, job) == 0

    def flip_identity(output):
        table, identity = output
        identity[10] = not identity[10]
        return table, identity

    assert error_rate(corrupted(workload, flip_identity), job) == 1


def test_decompose_corruption_counts():
    from qprime.decompose import DecompositionResult
    from qprime.forms import QuasiForm

    job = jobs.Job("decompose", {"poly": {(1, 1, 0): Fraction(3, 5), (0, 0, 2): Fraction(-2)}})
    workload = run.LibraryWorkload("decompose")
    assert error_rate(workload, job) == 0

    def bump_eisenstein(output):
        result, decision, verdict = output
        eis = result.eis_part + QuasiForm(eis={(4, 0): Fraction(1, 7)})
        return DecompositionResult(eis, result.cusp_part, 60), decision, verdict

    assert error_rate(corrupted(workload, bump_eisenstein), job) == 1


def test_cli_corruption_counts(tmp_path):
    workload = run.CliWorkload(tmp_path)
    job = jobs.Job("expand_eigen", {"argv": ["expand", "DELTA", "--precision", "500"]})
    assert error_rate(workload, job) == 0

    def change_tau_7(output):
        code, text, stderr = output
        data = json.loads(text)
        data["coeffs"][7] = str(int(data["coeffs"][7]) + 1)
        return code, json.dumps(data, indent=2) + "\n", stderr

    assert error_rate(corrupted(workload, change_tau_7), job) == 1

    def wrong_exit(output):
        return 1, output[1], output[2]

    assert error_rate(corrupted(workload, wrong_exit), job) == 1


def test_cli_checks_accept_a_round_of_real_jobs(tmp_path):
    workload = run.CliWorkload(tmp_path)
    ledger = run.Ledger()
    for index, job in enumerate(take("cli_series", 11, len(jobs.CLI_ROUND))):
        argv = job.inputs["argv"]
        # the same kinds at small sizes, to keep the test quick
        for flag, small in (("--precision", "400"), ("--bound", "400"),
                            ("--grid", f"{checks.LOW_PRECISION},400")):
            if flag in argv and job.kind != "signstats_delta":
                argv[argv.index(flag) + 1] = small
        ledger.attempt(workload, job, index)
    assert (ledger.attempted, ledger.failed) == (len(jobs.CLI_ROUND), 0)
    assert checks.LOW_PRECISION < 400
