"""Benchmark for qprime: one command, three workloads, checked outputs.

    python3 qbench/run.py --workload decompose|cli_series|partitions
                          --seed N --seconds S --trace 0|1

Run it from the repository root.  The load is a closed loop with one
client: one job at a time, no threads, no pool.  ``decompose`` and
``partitions`` call the library in this process; each ``cli_series`` job is
a fresh ``python -m qprime.cli`` process.  Every output is checked between
jobs, outside the timed intervals, along an independent path.

--trace 0 measures the end-to-end metrics, job times in reference seconds
(see reference.py) so that a shared host's drifting speed cancels out;
--trace 1 runs a fixed job list
twice, plain and with spans around qprime's public functions, and reports
the per-layer metrics.  The last line of standard output is one JSON
object; the lines before it print every metric with its unit and the run
environment.  The exit code is 1 when any job failed, 2 on a usage error or
when the qprime sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from jobs import WORKLOADS, jobs
from reference import REFERENCE_S, REFERENCE_WINDOW, WARMUP_RUNS, time_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# checks.py imports qprime, so it is imported only once main() has found SRC

# interpreter spawns behind setup_s, spread over the run so that they see
# the same machine as the jobs do
SETUP_SPAWNS = 12
# job_tail_s is the slowest job time that has this many samples beyond it
TAIL_BEYOND = 10
# a CLI job running longer than this counts as failed
CLI_TIMEOUT_S = 30
# no new job starts after this much wall time, so a run ends within 180 s
WALL_CAP_S = 140
# on a host slower than the reference speed, a run still stops once its jobs
# have taken this many wall seconds per second of --seconds
MAX_SLOWDOWN = 1.3


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond): the eleventh slowest job,
    which is the nearest-rank percentile 100 (n - 10) / n.  With ten
    samples or fewer no percentile qualifies, and the slowest is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return ordered[n - 1 - beyond], 100 * (n - beyond) / n, beyond


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn_setup(workdir: Path) -> float:
    """Seconds to start an interpreter and import qprime and qprime.cli."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import qprime, qprime.cli"], env=child_env(),
                   cwd=workdir, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qprime").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# workloads: run one job, check its output
# ---------------------------------------------------------------------------


class LibraryWorkload:
    """decompose and partitions: library calls in this warm process."""

    def __init__(self, name: str):
        import checks

        self.execute = {"decompose": _decompose, "partitions": _partitions}[name]
        self.check = {"decompose": checks.check_decompose,
                      "partitions": checks.check_partitions}[name]

    def run(self, job, index: int, tracer=None):
        if tracer is not None:
            tracer.job = index
            tracer.install()
        try:
            start = perf_counter()
            output = self.execute(job)
            return perf_counter() - start, output
        finally:
            if tracer is not None:
                tracer.uninstall()

    def output_bytes(self, output) -> int:
        return 0

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _decompose(job):
    # modules, not names, so that the traced run's wrappers are called
    from qprime import decompose, exactnum, primedetect

    result = decompose.split_eis_cusp(job.inputs["poly"])
    decision = primedetect.omega_tilde_decide(result.eis_part + result.cusp_part)
    degree = max((l + k - 1 for k, l in result.eis_part.eis if k != 0), default=0)
    verdict = primedetect.finite_check(result.eis_part, exactnum.first_primes(degree + 1))
    return result, decision, verdict


def _partitions(job):
    from qprime import macmahon

    a, n = job.inputs["a"], job.inputs["n"]
    table = macmahon.macmahon_table(a, n)
    identity = [macmahon.prime_identity(k, table)[0] for k in range(1, n + 1)]
    return table, identity


class CliWorkload:
    """cli_series: a fresh CLI process per job, writing with --output."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def run(self, job, index: int, tracer=None):
        out = self.workdir / f"job{index}.out"
        spans = self.workdir / f"job{index}.spans"
        tail_argv = [*job.inputs["argv"], "--output", str(out)]
        if tracer is None:
            cmd = [sys.executable, "-m", "qprime.cli", *tail_argv]
        else:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans), "--", *tail_argv]
        start = perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=self.workdir, timeout=CLI_TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        seconds = perf_counter() - start
        text = out.read_text() if out.exists() else ""
        out.unlink(missing_ok=True)
        if tracer is not None:
            tracer.absorb(spans, index)
            spans.unlink()
        return seconds, (proc.returncode, text, proc.stderr)

    def check(self, job, output) -> None:
        import checks

        code, text, stderr = output
        if code not in (0, 1):
            raise checks.CheckFailed(f"exit code {code}: {stderr.strip()[-500:]}")
        checks.check_cli(job, code, text)

    def output_bytes(self, output) -> int:
        return len(output[1].encode())

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class Ledger:
    """Counts attempted and failed jobs and says why each failure happened."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, workload, job, index: int, tracer=None):
        """Run and check one job; returns (seconds, output), output None on failure."""
        import checks

        self.attempted += 1
        start = perf_counter()
        try:
            seconds, output = workload.run(job, index, tracer)
        except Exception:
            self._fail(job, traceback.format_exc(limit=3))
            return perf_counter() - start, None
        try:
            workload.check(job, output)
        except (checks.CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
            self._fail(job, f"{type(exc).__name__}: {exc}")
            return seconds, None
        return seconds, output

    def _fail(self, job, why: str) -> None:
        self.failed += 1
        print(f"FAILED {job.kind} {job.inputs!r:.300}: {why}",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def reference_seconds(times, refs) -> list:
    """Job times in reference seconds; refs[i] and refs[i + 1] bracket job i.

    One reference run is short and the host's speed flickers, so job i is
    scaled by the median of the REFERENCE_WINDOW reference runs on either
    side of it, not by its two neighbours alone.
    """
    k = REFERENCE_WINDOW
    return [t * REFERENCE_S / statistics.median(refs[max(0, i + 1 - k): i + 1 + k])
            for i, t in enumerate(times)]


def measure(workload, job_stream, seconds: float, ledger: Ledger, setup_probe) -> tuple[dict, list]:
    """Closed loop until the jobs have been busy for `seconds` reference seconds.

    A reference run precedes the first job and follows every job, so each
    job's time is converted to reference seconds with the host speed
    measured around it.  The run length is counted in reference
    seconds too, so that a slower host does not run fewer jobs: the tail
    percentile depends on the job count.
    """
    setup_probe()  # the first spawn pays for cold file caches; not counted
    for _ in range(WARMUP_RUNS):
        time_reference()
    refs = [time_reference()]
    setup = []
    times = []
    busy = wall_busy = 0.0
    completed = 0
    wall = perf_counter()
    for index, job in enumerate(job_stream):
        dt, output = ledger.attempt(workload, job, index)
        refs.append(time_reference())
        times.append(dt)
        wall_busy += dt
        # the run's length in reference seconds, from the runs so far
        busy += dt * REFERENCE_S / statistics.median(refs[-2 * REFERENCE_WINDOW:])
        completed += output is not None
        if len(setup) < SETUP_SPAWNS and busy >= len(setup) * seconds / SETUP_SPAWNS:
            setup.append(setup_probe())
        if (busy >= seconds or wall_busy >= MAX_SLOWDOWN * seconds
                or perf_counter() - wall >= WALL_CAP_S):
            break
    setup += [setup_probe() for _ in range(SETUP_SPAWNS - len(setup))]
    scaled = reference_seconds(times, refs)
    tail_value, tail_p, beyond = tail(scaled)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_p50_s": (statistics.median(scaled), "ref_s"),
        "job_tail_s": (tail_value, "ref_s"),
        "jobs_per_s": (completed / sum(scaled), "1/ref_s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    ref_q = statistics.quantiles(refs, n=4)
    notes = [
        f"setup_s is the median of {len(setup)} interpreter spawns between jobs",
        f"job_p50_s over n={len(times)} jobs",
        f"job_tail_s is p{tail_p:.1f} of n={len(times)}, {beyond} samples beyond it",
        f"jobs_per_s = {completed} completed jobs / {sum(scaled):.3f} ref_s busy",
        f"ref_s: {len(refs)} reference runs, median {statistics.median(refs):.5f} s "
        f"(q1 {ref_q[0]:.5f}, q3 {ref_q[2]:.5f}), nominal {REFERENCE_S} s",
        f"wall clock: job p50 {statistics.median(times):.4f} s, tail {tail(times)[0]:.4f} s, "
        f"{completed} completed jobs / {wall_busy:.3f} s busy = {completed / wall_busy:.4f} 1/s",
    ]
    return metrics, notes


def measure_traced(workload, job_stream, count: int, ledger: Ledger) -> tuple[dict, list]:
    """Each of `count` jobs runs plain and traced, alternating which goes first."""
    from spans import Tracer, layer_definitions, layer_metrics

    tracer = Tracer()
    plain = traced = unattributed = 0.0
    output_bytes = 0
    wall = perf_counter()
    for index, job in enumerate(itertools.islice(job_stream, count)):
        if perf_counter() - wall >= WALL_CAP_S:
            break
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            dt, output = ledger.attempt(workload, job, index, tracer if with_trace else None)
            if not with_trace:
                plain += dt
                continue
            traced += dt
            unattributed += dt - tracer.root_cover(index)
            if output is not None:
                output_bytes += workload.output_bytes(output)
    values, bases = layer_metrics(tracer.spans)
    values["cli.output_bytes"] = output_bytes
    values["trace.overhead_share"] = (traced - plain) / plain if plain else 0.0
    values["trace.unattributed_s"] = unattributed
    bases["trace.overhead_share"] = (traced - plain, plain)
    metrics = {d["name"]: (values.get(d["name"], 0), d["unit"]) for d in layer_definitions()}
    notes = [f"traced {count} jobs, each also run plain; {len(tracer.spans)} spans"]
    notes += [f"{name} = {num:.4f} s / {den:.4f} s" for name, (num, den) in bases.items()]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qprime" / "__init__.py").is_file():
        print(f"error: qprime sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(args)
    workdir = Path(tempfile.mkdtemp(prefix=".qbench-", dir=ROOT))
    try:
        workload = (CliWorkload(workdir) if args.workload == "cli_series"
                    else LibraryWorkload(args.workload))
        ledger = Ledger()
        stream = jobs(args.workload, args.seed)
        if args.trace:
            # a fixed job list, so that counts repeat exactly for a seed
            metrics, notes = measure_traced(workload, stream, max(2, round(args.seconds)),
                                            ledger)
        else:
            metrics, notes = measure(workload, stream, args.seconds, ledger,
                                     lambda: spawn_setup(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env.update(attempted=ledger.attempted, failed=ledger.failed,
               error_rate=ledger.failed / ledger.attempted)
    print("env " + json.dumps(env))
    for note in notes:
        print("note " + note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {env['error_rate']:.6g} ({ledger.failed} failed "
          f"of {ledger.attempted} attempted)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
