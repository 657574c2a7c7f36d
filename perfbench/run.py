#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the volterra library and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload face-check --seed 1 --seconds 10 --trace 0

Workloads: face-check, trajectory, invert, cli (see README.md).  One
caller runs the workload's passes in a closed loop, in this process, until
``--seconds`` of wall time have passed; BLAS and OpenMP pools are pinned
to one thread and the process to one CPU.  Every call is checked by the
oracle outside its timed interval, and timed as a multiple of a fixed
probe run right before and after it (calibrate.py).

With ``--trace 0`` the metrics are the ``end_to_end`` list of
BENCHMARK.json; with ``--trace 1`` they are the ``per_layer`` list, from
runs of pass 0 with spans wrapped around the program's public functions,
alternated with untraced runs of the same pass to price the tracing.

The last line of stdout is the result object; the line before it is a
report with provenance, the workload's named work rate, raw wall
figures, the tail percentile, every failure and every known defect.
Spans of the traced run are written to perfbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from calibrate import calibrated, pin_to_one_cpu, probes

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
#: Operators are built at least SETUP_REPS times and for SETUP_SECONDS.
SETUP_REPS = 7
SETUP_SECONDS = 1.0
COLD_START_RUNS = 15
FLOOR_RUNS = 5


def load_program() -> None:
    """Put the checkout's src/ first on the path and import the program."""
    package = ROOT / "src" / "volterra" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import volterra

    if Path(volterra.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported volterra from {volterra.__file__}, not from {package}")


class Tally:
    """Outcomes of the timed calls of one loop.

    Latencies are kept calibrated (see calibrate.py) and raw.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.wall_latencies: list[float] = []
        #: Call position in the pass -> [(calibrated latency, wall latency, completed work, completed)].
        self.by_position: dict[int, list[tuple[float, float, int, bool]]] = {}
        self.busy = 0.0
        self.probes: list[float] = []
        self.attempted = 0
        self.failures: Counter = Counter()
        self.known: Counter = Counter()
        self.examples: dict[str, str] = {}
        self.wrong = 0

    def record(self, position: int, call, elapsed: float, probe_s: float, failure) -> None:
        self.busy += elapsed
        self.probes.append(probe_s)
        latency = calibrated(elapsed, probe_s)
        work = 0
        if failure is None:
            self.latencies.append(latency)
            self.wall_latencies.append(elapsed)
            work = call.work
        self.record_failure(call.label, failure)
        self.by_position.setdefault(position, []).append((latency, elapsed, work, failure is None))

    def record_failure(self, label: str, failure) -> None:
        """Count one attempted operation; ``failure`` None means it passed.

        A known defect is attempted and not completed, but not failed.
        """
        self.attempted += 1
        if failure is None:
            return
        key = f"{label}: {failure.kind}"
        self.examples.setdefault(key, failure.message)
        if failure.kind == "known":
            self.known[key] += 1
            return
        self.failures[key] += 1
        self.wrong += failure.kind == "wrong"

    def absorb(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.wall_latencies += other.wall_latencies
        for position, samples in other.by_position.items():
            self.by_position.setdefault(position, []).extend(samples)
        self.busy += other.busy
        self.probes += other.probes
        self.attempted += other.attempted
        self.failures.update(other.failures)
        self.known.update(other.known)
        for key, message in other.examples.items():
            self.examples.setdefault(key, message)
        self.wrong += other.wrong

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def rate(self, wall: bool = False) -> float:
        """Completed work of one pass over the pass's time at median latencies.

        Each call of the pass contributes its median latency across passes
        and its mean completed work, so a burst of load on the machine that
        covers less than half of a call's repetitions does not move the rate.
        """
        k = 1 if wall else 0
        work = sum(statistics.fmean(s[2] for s in samples) for samples in self.by_position.values())
        time_ = sum(statistics.median(s[k] for s in samples) for samples in self.by_position.values())
        return work / time_ if time_ > 0 else 0.0

    def p50(self, wall: bool = False) -> float:
        """Median over the pass's calls of each call's median completed latency.

        With whole passes every call of the pass is equally frequent, so this
        is the median latency of a completed call, with each call's own median
        standing in for its repetitions.
        """
        k = 1 if wall else 0
        medians = [statistics.median(s[k] for s in samples if s[3])
                   for samples in self.by_position.values() if any(s[3] for s in samples)]
        return statistics.median(medians) if medians else 0.0


def run_pass(workload, index: int, tally: Tally, tracer=None, between=None) -> None:
    for position, call in enumerate(workload.make_pass(index)):
        before = probes()
        if tracer is not None:
            tracer.label, tracer.active = call.label, True
        start = time.perf_counter()
        try:
            result, exc = call.run(), None
        except Exception as caught:  # recorded as a failure unless the oracle expects it
            result, exc = None, caught
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.label, tracer.active = None, False
        probe_s = (before + probes()) / 2.0
        tally.record(position, call, elapsed, probe_s, call.check(result, exc))
        if between is not None:
            between()


def measure(workload, seconds: float, tally: Tally, interleave, count: int) -> int:
    """Closed loop of whole passes until ``seconds`` of wall time have passed.

    ``interleave`` runs ``count`` times between calls, at even steps of
    the wall time, so its samples see the machine over the whole run.
    """
    done = 0
    start = time.perf_counter()

    def between():
        nonlocal done
        while done < count and time.perf_counter() - start >= done * seconds / count:
            interleave()
            done += 1

    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        run_pass(workload, passes, tally, between=between)
        passes += 1
    while done < count:
        interleave()
        done += 1
    return passes


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """Latency at ``percentile`` (linear interpolation) and the calls beyond it.

    Each workload fixes its percentile (``Workload.tail_percentile``).
    """
    ordered = sorted(latencies)
    position = (len(ordered) - 1) * percentile / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return value, sum(t > value for t in ordered)


def setup_times(workload) -> tuple[list[float], list[float]]:
    """Calibrated and wall times of repeated builds of the workload's operators."""
    times, wall = [], []
    start = time.perf_counter()
    while len(times) < SETUP_REPS or time.perf_counter() - start < SETUP_SECONDS:
        before = probes()
        elapsed = workload.build()
        times.append(calibrated(elapsed, (before + probes()) / 2.0))
        wall.append(elapsed)
    return times, wall


def provenance() -> dict:
    import numpy

    # The ceiling keeps git from reporting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def layer_values(tracer) -> dict[str, float]:
    values: dict[str, float] = {}
    for name, t in tracer.self_s.items():
        values[f"{name}.self_s"] = t
    for name, c in tracer.calls.items():
        values[f"{name}.calls"] = c
    for name, c in tracer.errors.items():
        values[f"{name}.errors"] = c
    for label, t in tracer.eval_s.items():
        values[f"{label}.eval_s"] = t
    values.update(tracer.counts)
    return values


COUNTER_SOURCES = {
    "generating.f_evals": "generating.values",
    "simplex.points_built": "simplex.points_built",
    "dynamics.steps": "dynamics.iterate",
    "inversion.sweeps": "inversion.invert_fixed_point",
    "inversion.nonconverged": "inversion.invert_fixed_point",
    "cli.output_bytes": "cli.main",
}


def source_found(name: str, tracer) -> bool:
    """Whether the program still has what a per-layer metric measures."""
    if name.startswith("trace.") or name.endswith("_ms"):
        return True
    if name in COUNTER_SOURCES:
        return COUNTER_SOURCES[name] in tracer.found
    if name.endswith(".eval_s"):
        return "generating.values" in tracer.found
    return name.rsplit(".", 1)[0] in tracer.found


def traced_run(workload, seconds: float, tally: Tally, out_path: Path):
    """Alternate untraced and traced runs of pass 0 until ``seconds`` pass.

    A first untimed run of the pass warms up.  Each traced run also builds
    the operators once, so set-up layers get spans.  Layer values are
    medians over the traced runs; counts repeat exactly because every run
    does the same work.
    """
    from tracing import Tracer

    run_pass(workload, 0, tally)  # warm-up, so the first untraced run is not the coldest
    ratios, per_run = [], []
    first = None
    start = time.perf_counter()
    while not per_run or time.perf_counter() - start < seconds:
        plain = Tally()
        run_pass(workload, 0, plain)
        tracer = Tracer()
        traced = Tally()
        workload.tracer = tracer
        tracer.install()
        try:
            tracer.active = True
            workload.build()
            tracer.active = False
            run_pass(workload, 0, traced, tracer)
        finally:
            tracer.uninstall()
            workload.tracer = None
        tally.absorb(plain)
        tally.absorb(traced)
        ratios.append(traced.rate() / plain.rate() if plain.rate() > 0 else 0.0)
        per_run.append(layer_values(tracer))
        first = first or tracer
    first.write_spans(out_path)
    names = set().union(*per_run)
    layers = {name: statistics.median(run.get(name, 0) for run in per_run) for name in names}
    return first, layers, statistics.median(ratios), len(per_run)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run(WORKLOADS[args.workload], args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(workload_cls, args, tmp: Path) -> int:
    from workloads import ColdStart, import_floors

    workload = workload_cls(args.seed, tmp)
    tally = Tally()
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "provenance": provenance(), "pinned_cpu": pin_to_one_cpu()}

    if args.trace:
        workload.build()
        tracer_run, layers, overhead, runs = traced_run(
            workload, args.seconds, tally, OUT / f"spans-{workload.name}-{args.seed}.jsonl")
        layers.update(import_floors(ROOT, FLOOR_RUNS))
        layers["trace.overhead_ratio"] = overhead
        declared = declared_metrics("per_layer")
        metrics, absent = {}, []
        for name, unit in declared.items():
            if source_found(name, tracer_run):
                metrics[name] = {"value": float(layers.get(name, 0)), "unit": unit}
            else:
                absent.append(name)
        report.update({"traced_runs": runs, "absent": absent, "spans_dropped": tracer_run.dropped})
    else:
        builds, wall_builds = setup_times(workload)
        cold = ColdStart(ROOT, tmp, args.seed)
        passes = measure(workload, args.seconds, tally, cold, COLD_START_RUNS)
        for failure in cold.checks:
            tally.record_failure("cold_start", failure)
        percentile = workload.tail_percentile
        tail_s, beyond = tail(tally.latencies, percentile) if tally.latencies else (0.0, 0)
        values = {
            "work_per_s": tally.rate(),
            "call_p50_ms": tally.p50() * 1000.0,
            "call_tail_ms": tail_s * 1000.0,
            "cold_start_ms": statistics.median(cold.times) * 1000.0,
            "setup_s": statistics.median(builds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = declared_metrics("end_to_end")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
        wall_tail = tail(tally.wall_latencies, percentile)[0] if tally.wall_latencies else 0.0
        report.update({
            workload.rate: values["work_per_s"],
            "wall": {
                workload.rate: tally.rate(wall=True),
                "call_p50_ms": tally.p50(wall=True) * 1000.0,
                "call_tail_ms": wall_tail * 1000.0,
                "cold_start_ms": statistics.median(cold.wall_times) * 1000.0,
                "setup_s": statistics.median(wall_builds),
            },
            "passes": passes,
            "completed_calls": len(tally.latencies),
            "tail_percentile": percentile,
            "tail_calls_beyond": beyond,
            "busy_s": tally.busy,
            "completed_work": sum(s[2] for samples in tally.by_position.values() for s in samples),
        })

    report.update({
        "probe_ms_median": statistics.median(tally.probes) * 1000.0 if tally.probes else None,
        "fail_ratio": (tally.failed + sum(tally.known.values())) / tally.attempted if tally.attempted else 0.0,
        "failures": {key: {"count": n, "example": tally.examples[key]} for key, n in sorted(tally.failures.items())},
        "known_defects": {key: {"count": n, "example": tally.examples[key]} for key, n in sorted(tally.known.items())},
        "expected_failures": workload.expected,
    })
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    load_program()
    sys.exit(main())
