"""The four benchmark workloads.

Each workload builds its operators from JSON specs through
``cli.build_operator`` and then yields passes: lists of ``Call`` objects,
each one public call of the program with its oracle.  Inputs of pass p
come from ``rng_for(seed, workload key, p)``.  The calls go only through
the top-level functions ``check_conditions``, ``check_pair_condition``,
``iterate``, ``detect_fixed_points_on_face``, ``invert_triangular``,
``invert_fixed_point`` and ``cli.main``, looked up on their modules at
call time so the tracer's wrappers apply.

Why each workload exists is written next to it below and in README.md,
with the failures it expects at the seed.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as _now
from typing import Callable

import numpy as np

from volterra import cli, cubic, dynamics, errors, generating, inversion, simplex

import oracle
from calibrate import FLOOR_S, calibrated
from oracle import Failure, known_defect, unexpected, wrong
from specs import (
    EXAMPLE31,
    EXAMPLE32,
    SINE,
    Reference,
    compose_spec,
    convex_spec,
    dense,
    example31_tensor_spec,
    flat_point,
    point_from_masses,
    rng_for,
    skew_spec,
    sparse_skew_spec,
)

#: Samples per check call: the CLI default.
SAMPLES = 1000
#: Trajectory length.  example32 trajectories hit NormalizationFailure
#: at steps 20-24 at support 1000, so T must stay above that.
STEPS = 30
#: Earliest step at which the example32 NormalizationFailure counts as the
#: known defect rather than a new failure.
DEFECT_FIRST_STEP = 10
#: Fixed-point inverter settings: the CLI defaults.
TOL = 1e-10
MAX_ITER = 10_000


@dataclass
class Call:
    """One timed public call and the oracle for its outcome."""

    label: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], Failure | None]
    work: int = 1


def _seed_from(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _expect_result(check):
    """Oracle wrapper for calls that must return: any exception fails."""

    def oracle_(result, exc):
        if exc is not None:
            return unexpected(exc)
        return check(result)

    return oracle_


class Workload:
    name = ""
    key = 0
    #: Name of the work rate this workload reports as ``work_per_s``.
    rate = ""
    #: Failures expected at the seed, echoed in the report.
    expected = ""
    #: Percentile of completed-call latency reported as ``call_tail_ms``.
    #: It is fixed per workload, inside the latency range of one kind of
    #: call, so that the tail does not jump from one kind of call to the
    #: next as the number of passes in a run changes; it leaves at least
    #: ten completed calls beyond it in a run of 25 s on a slow machine.
    tail_percentile: float

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.specs: dict[str, dict] = {}
        self.ops: dict[str, object] = {}
        #: The tracer while a traced run is on; the cli oracle counts output bytes into it.
        self.tracer = None

    def pass_rng(self, index: int) -> np.random.Generator:
        return rng_for(self.seed, self.key, index)

    def build(self) -> float:
        """Build every operator once; return the time inside build_operator."""
        total = 0.0
        ops = {}
        for label, spec in self.specs.items():
            start = _now()
            ops[label] = cli.build_operator(spec)
            total += _now() - start
        self.ops = ops
        return total

    def make_pass(self, index: int) -> list[Call]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# face-check
# ---------------------------------------------------------------------------


class FaceCheck(Workload):
    """Sampled checks of conditions 2-4 and of the pairwise condition.

    Why: nearly all the time goes to face sampling and generating-map
    evaluation of many small dense-face points, the path a batched
    ``values(X, face)`` would change.  Inversion and dynamics do no work
    here, and ``apply`` runs only inside ``compose``.
    """

    name = "face-check"
    key = 1
    rate = "samples_per_s"
    expected = ("no failures; sine failing interior_strict_bound and example32 failing the "
                "pair check with vertex-pair value 1 are required verdicts")
    #: 16 calls a pass, 4 or more passes: inside the third-slowest call (the tensor pair check).
    tail_percentile = 84.0

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        rng = rng_for(seed, self.key)
        q20 = skew_spec(rng, 20)
        tensor = example31_tensor_spec(rng, 10)
        # label -> (spec, face, report expectations, pair expectations)
        self.inputs = {
            "cubic.example31.d20": (EXAMPLE31, "1..20", {"expect_all_passed": True},
                                    {"expect_passed": True, "square_sum": True}),
            "cubic.example32.d20": (EXAMPLE32, "1..20", {}, {"expect_passed": False}),
            "quadratic.skew20": (q20, "1..20", {"expect_all_passed": True}, {"expect_passed": True}),
            "generating.compose.d20": (compose_spec(EXAMPLE31, q20), "1..20", {}, {}),
            "generating.convex.d20": (convex_spec(EXAMPLE31, q20, 0.3), "1..20", {}, {}),
            "cubic.example31.d100": (EXAMPLE31, "1..100", {"expect_all_passed": True},
                                     {"expect_passed": True, "square_sum": True}),
            "cubic.tensor10": (tensor, "1..10", {"expect_all_passed": True},
                               {"expect_passed": True, "square_sum": True}),
            "cubic.sine": (SINE, "1,2", {"expect_failed": ("interior_strict_bound",)}, {}),
        }
        self.specs = {label: spec for label, (spec, *_) in self.inputs.items()}
        self.refs = {label: Reference(spec) for label, spec in self.specs.items()}
        self.faces = {label: simplex.FaceSpec.parse(face) for label, (_, face, *_) in self.inputs.items()}
        # The ordered-triple-sum oracle for tensor images.
        self.tensor = cubic.validate_tensor(tensor["triples"])

    def _tensor_images(self, report: dict) -> Failure | None:
        """Images of the report's witnesses agree with ``cubic_apply``."""
        ref = self.refs["cubic.tensor10"]
        for verdict in report["conditions"]:
            w = verdict["witness"]
            image = simplex.point_to_obj(cubic.cubic_apply(self.tensor, simplex.point_from_obj(w)))
            err = oracle.image_error(ref, w, image, 10)
            if err > oracle.VALUE_TOL:
                return wrong(f"cubic_apply image differs from the generating map by {err:.3g}")
        return None

    def make_pass(self, index: int) -> list[Call]:
        seed = _seed_from(self.pass_rng(index))
        calls = []
        for label, (_, _, report_kw, pair_kw) in self.inputs.items():
            op, face, ref = self.ops[label], self.faces[label], self.refs[label]

            def check_report(report, ref=ref, kw=report_kw, label=label):
                obj = report.to_obj()
                failure = oracle.check_report(obj, ref, **kw)
                if failure is None and label == "cubic.tensor10":
                    failure = self._tensor_images(obj)
                return failure

            def check_pair(report, ref=ref, kw=pair_kw, label=label):
                obj = report.to_obj()
                failure = oracle.check_pair_report(obj, ref, **kw)
                if failure is None and label == "cubic.example32.d20" and obj["max_value"] < 1.0 - oracle.VALUE_TOL:
                    failure = wrong(f"example32 pair maximum {obj['max_value']!r} is below the vertex-pair value 1")
                return failure

            calls.append(Call(
                label,
                lambda op=op, face=face: generating.check_conditions(op, face, samples=SAMPLES, seed=seed),
                _expect_result(check_report),
                SAMPLES,
            ))
            calls.append(Call(
                label,
                lambda op=op, face=face: generating.check_pair_condition(op, face, samples=SAMPLES, seed=seed),
                _expect_result(check_pair),
                SAMPLES,
            ))
        return calls


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


def _normalization_defect(exc: BaseException | None) -> bool:
    """Whether ``exc`` is the known example32 defect of ``iterate``.

    The raw image totals ``iterate`` feeds back drift from 1, tripling
    their error each step, until ``apply`` raises NormalizationFailure
    (steps 20-24 at support 1000).  Any other error, or this one on an
    early step, is a failure.
    """
    return (isinstance(exc, errors.TrajectoryError)
            and isinstance(exc.cause, errors.NormalizationFailure)
            and DEFECT_FIRST_STEP <= exc.step < STEPS)


class Trajectory(Workload):
    """Fixed-length trajectories from seeded interior starts.

    Why: the time goes to image assembly, point construction and
    ``l1_distance`` on one large sparse point per step, the opposite shape
    from face-check.  The two quadratic inputs sit on either side of the
    dense-cache limit (dimension 512): dense400 uses the dense cache,
    sparse2000 the sparse fallback.
    """

    name = "trajectory"
    key = 2
    rate = "steps_per_s"
    expected = ("every example32 trajectory stops with TrajectoryError (NormalizationFailure "
                "at steps 20-24): iterate feeds raw image totals back and their error triples "
                "each step; these are known defects, counted in fail_ratio and known_defects "
                "but not in failed, and nothing else fails")
    #: 4 completed calls a pass, 13 or more passes: inside the sparse2000 trajectory.
    tail_percentile = 80.0

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        rng = rng_for(seed, self.key)
        self.specs = {
            "cubic.example31.s1000": EXAMPLE31,
            "cubic.example32.s1000": EXAMPLE32,
            "quadratic.dense400": skew_spec(rng, 400),
            "quadratic.sparse2000": sparse_skew_spec(rng, 2000, 20),
            "cubic.example31.fixed5": EXAMPLE31,
        }
        self.refs = {label: Reference(spec) for label, spec in self.specs.items()}
        self.face5 = simplex.FaceSpec.parse("1..5")

    def _start(self, rng, label: str) -> tuple[dict, int]:
        if label == "quadratic.dense400":
            return flat_point(rng, range(1, 401)), 400
        if label == "quadratic.sparse2000":
            support = np.sort(rng.choice(np.arange(1, 2001), size=300, replace=False))
            return flat_point(rng, support.tolist()), 2000
        return flat_point(rng, range(1, 1001)), 1000

    def make_pass(self, index: int) -> list[Call]:
        rng = self.pass_rng(index)
        calls = []
        for label in ("cubic.example31.s1000", "cubic.example32.s1000",
                      "quadratic.dense400", "quadratic.sparse2000"):
            start, dim = self._start(rng, label)
            x0 = simplex.point_from_obj(start)
            op, ref = self.ops[label], self.refs[label]

            def check(trajectory, exc, ref=ref, dim=dim, label=label):
                if label == "cubic.example32.s1000" and _normalization_defect(exc):
                    return known_defect(f"NormalizationFailure at step {exc.step}")
                if exc is not None:
                    return unexpected(exc)
                return oracle.check_trajectory(trajectory.to_records(), ref, STEPS, dim)

            calls.append(Call(label, lambda op=op, x0=x0: dynamics.iterate(op, x0, STEPS), check, STEPS))

        seed = _seed_from(rng)
        label = "cubic.example31.fixed5"
        ref = self.refs[label]

        def check_fixed(points):
            found = [simplex.point_to_obj(p) for p in points]
            for p in found:
                if oracle.image_error(ref, p, p, 5) > oracle.VALUE_TOL:
                    return wrong(f"{p} is not a fixed point")
            known = [{str(k): 1.0} for k in range(1, 6)] + [{str(k): 0.2 for k in range(1, 6)}]
            for q in known:
                if not any(np.abs(dense(p, 5) - dense(q, 5)).sum() <= 1e-8 for p in found):
                    return wrong(f"fixed point {q} was not found")
            return None

        calls.append(Call(
            label,
            lambda: dynamics.detect_fixed_points_on_face(self.ops[label], self.face5, seed=seed),
            _expect_result(check_fixed),
            0,
        ))
        return calls


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------


class Invert(Workload):
    """Triangular and damped fixed-point inversion of seeded images.

    Why: the time goes to bisection and to the damped sweep (map
    evaluation, renormalization, forward apply, l1 residual) on small
    points, while sampling and the checkers stay idle.  One example32
    fixed-point target per pass, with x_1 near 0.025, sweeps to max_iter
    and raises NonConvergence: it prices a sweep when the inverter cannot
    converge.  A verified preimage and an honest NonConvergence (its
    residual is the true residual of its best iterate) both count as
    completed.
    """

    name = "invert"
    key = 3
    rate = "inversions_per_s"
    expected = "no failures"
    #: 9 calls a pass, 23 or more passes: inside the example32 stall.
    tail_percentile = 95.0

    FIXED_POINT = (
        ("cubic.example31.d20", 20),
        ("quadratic.skew20", 20),
        ("generating.compose.d20", 20),
        ("cubic.example31.d100", 100),
        ("quadratic.skew100", 100),
        ("generating.compose.d100", 100),
    )

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        rng = rng_for(seed, self.key)
        q20, q100 = skew_spec(rng, 20), skew_spec(rng, 100)
        self.specs = {
            "cubic.example32": EXAMPLE32,
            "cubic.example31.d20": EXAMPLE31,
            "quadratic.skew20": q20,
            "generating.compose.d20": compose_spec(EXAMPLE31, q20),
            "cubic.example31.d100": EXAMPLE31,
            "quadratic.skew100": q100,
            "generating.compose.d100": compose_spec(EXAMPLE31, q100),
        }
        self.refs = {label: Reference(spec) for label, spec in self.specs.items()}

    def _target(self, ref: Reference, x: dict, dim: int) -> dict:
        indices = range(1, dim + 1)
        return point_from_masses(indices, ref.image(dense(x, dim)))

    def _oracle(self, ref: Reference, y: dict):
        def check(result, exc):
            if isinstance(exc, errors.NonConvergence):
                return oracle.check_nonconvergence(
                    simplex.point_to_obj(exc.best), exc.residual, ref, y, TOL)
            if exc is not None:
                return unexpected(exc)
            return oracle.check_inversion(result.to_obj(), ref, y)

        return check

    def make_pass(self, index: int) -> list[Call]:
        rng = self.pass_rng(index)
        ref32 = self.refs["cubic.example32"]
        calls = []
        for n in (100, 1000):
            x = flat_point(rng, range(1, n + 1))
            y = self._target(ref32, x, n)
            target = simplex.point_from_obj(y)
            calls.append(Call(f"cubic.example32.tri{n}",
                              lambda target=target: inversion.invert_triangular(target),
                              self._oracle(ref32, y)))

        for label, dim in self.FIXED_POINT:
            ref = self.refs[label]
            y = self._target(ref, flat_point(rng, range(1, dim + 1)), dim)
            target = simplex.point_from_obj(y)
            calls.append(Call(
                label,
                lambda op=self.ops[label], target=target: inversion.invert_fixed_point(
                    op, target, tol=TOL, max_iter=MAX_ITER),
                self._oracle(ref, y),
            ))

        a, b = rng.uniform(0.02, 0.03), rng.uniform(0.35, 0.45)
        y = self._target(ref32, {"1": a, "2": b, "3": 1.0 - a - b}, 3)
        target = simplex.point_from_obj(y)
        calls.append(Call(
            "cubic.example32.stall",
            lambda: inversion.invert_fixed_point(self.ops["cubic.example32"], target, tol=TOL, max_iter=MAX_ITER),
            self._oracle(ref32, y),
        ))
        return calls


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``volterra.cli.main(argv)`` in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class Cli(Workload):
    """The six commands through ``volterra.cli.main`` on JSON files.

    Why: only this workload pays argparse, JSON parsing and emission and
    ``build_operator`` from files on every call.  The subprocess cold
    start, measured on every workload, adds interpreter start and imports.
    Exit codes are checked against the contract: 0 success, 1 condition
    failure (pair-check on example32), 3 malformed input.
    """

    name = "cli"
    key = 4
    rate = "commands_per_s"
    expected = "no failures"
    #: 7 completed commands a pass, 29 or more passes: inside the check command.
    tail_percentile = 95.0

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        rng = rng_for(seed, self.key)
        self.specs = {"ex31": EXAMPLE31, "ex32": EXAMPLE32, "quad20": skew_spec(rng, 20)}
        self.refs = {label: Reference(spec) for label, spec in self.specs.items()}
        self.files = {label: self._write(f"{label}.json", spec) for label, spec in self.specs.items()}
        self.files["bad"] = tmp / "bad.json"
        self.files["bad"].write_text('{"type": "quadratic", "matrix": [[1, 2')

    def _write(self, name: str, obj) -> str:
        path = self.tmp / name
        path.write_text(json.dumps(obj))
        return str(path)

    def _command(self, label: str, argv: list[str], code: int, check=None, output: Path | None = None) -> Call:
        def oracle_(result, exc):
            if exc is not None:
                return unexpected(exc)
            got, stdout = result
            if self.tracer is not None:
                size = output.stat().st_size if output is not None and output.exists() else 0
                self.tracer.counts["cli.output_bytes"] += len(stdout.encode()) + size
            if got != code:
                return wrong(f"exit code {got}, expected {code}")
            return None if check is None else check(stdout)

        return Call(f"cli.{label}", lambda: run_cli(argv), oracle_)

    def make_pass(self, index: int) -> list[Call]:
        rng = self.pass_rng(index)
        seed = _seed_from(rng)
        ref31, ref32, refq = self.refs["ex31"], self.refs["ex32"], self.refs["quad20"]
        x20 = flat_point(rng, range(1, 21))
        x200 = flat_point(rng, range(1, 201))
        y20 = point_from_masses(range(1, 21), ref31.image(dense(flat_point(rng, range(1, 21)), 20)))
        x20_file, x200_file, y20_file = (self._write(f"{n}.json", p) for n, p in
                                        (("x20", x20), ("x200", x200), ("y20", y20)))
        trajectory_file = self.tmp / "trajectory.jsonl"
        if trajectory_file.exists():
            trajectory_file.unlink()
        files = self.files

        def builtin(stdout):
            spec = json.loads(stdout)
            if spec.get("type") != "example31" or spec.get("dimension") != 5 or len(spec.get("tensor", [])) != 35:
                return wrong("builtin example31 --dimension 5 emitted the wrong spec")
            return None

        def pair(stdout):
            report = json.loads(stdout)
            failure = oracle.check_pair_report(report, ref32, expect_passed=False)
            if failure is None and report["max_value"] < 1.0 - oracle.VALUE_TOL:
                failure = wrong("example32 pair maximum is below the vertex-pair value 1")
            return failure

        def applied(stdout):
            err = oracle.image_error(ref31, x20, json.loads(stdout), 20)
            return wrong(f"apply image is off by {err:.3g}") if err > oracle.VALUE_TOL else None

        def simulated(stdout):
            records = [json.loads(line) for line in trajectory_file.read_text().splitlines()]
            return oracle.check_trajectory(records, ref31, STEPS, 200)

        return [
            self._command("builtin", ["builtin", "--name", "example31", "--dimension", "5"], 0, builtin),
            self._command("check", ["check", "--operator", files["quad20"], "--face", "1..20", "--seed", str(seed)], 0,
                          lambda out: oracle.check_report(json.loads(out), refq, expect_all_passed=True)),
            self._command("pair-check", ["pair-check", "--operator", files["ex32"], "--face", "1..20",
                                         "--seed", str(seed)], 1, pair),
            self._command("apply", ["apply", "--operator", files["ex31"], "--point", x20_file], 0, applied),
            self._command("simulate", ["simulate", "--operator", files["ex31"], "--point", x200_file,
                                       "--steps", str(STEPS), "--output", str(trajectory_file)], 0, simulated,
                          trajectory_file),
            self._command("invert", ["invert", "--operator", files["ex31"], "--point", y20_file], 0,
                          lambda out: oracle.check_inversion(json.loads(out), ref31, y20)),
            self._command("malformed", ["apply", "--operator", str(files["bad"]), "--point", x20_file], 3,
                          lambda out: wrong("malformed input produced output") if out.strip() else None),
        ]


WORKLOADS = {w.name: w for w in (FaceCheck, Trajectory, Invert, Cli)}


# ---------------------------------------------------------------------------
# Subprocess timings
# ---------------------------------------------------------------------------


def subprocess_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def time_subprocess(argv: list[str], root: Path, env: dict[str, str]) -> tuple[float, subprocess.CompletedProcess]:
    start = _now()
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=60)
    return _now() - start, done


class ColdStart:
    """``python -m volterra apply`` on a tiny point in a subprocess, with oracle.

    Each call runs the command once, between two runs of ``python -c
    pass``, and appends its time calibrated by theirs, its wall time and
    the oracle's verdict.
    """

    def __init__(self, root: Path, tmp: Path, seed: int):
        self.root = root
        self.env = subprocess_env(root)
        spec = tmp / "cold-ex31.json"
        spec.write_text(json.dumps(EXAMPLE31))
        self.point = flat_point(rng_for(seed, 9), (1, 2, 3))
        point_file = tmp / "cold-point.json"
        point_file.write_text(json.dumps(self.point))
        self.ref = Reference(EXAMPLE31)
        self.argv = [sys.executable, "-m", "volterra", "apply", "--operator", str(spec),
                     "--point", str(point_file)]
        self.floor_argv = [sys.executable, "-c", "pass"]
        self.times: list[float] = []
        self.wall_times: list[float] = []
        self.checks: list[Failure | None] = []

    def __call__(self) -> None:
        before = time_subprocess(self.floor_argv, self.root, self.env)[0]
        elapsed, done = time_subprocess(self.argv, self.root, self.env)
        after = time_subprocess(self.floor_argv, self.root, self.env)[0]
        self.times.append(calibrated(elapsed, (before + after) / 2.0, FLOOR_S))
        self.wall_times.append(elapsed)
        if done.returncode != 0:
            self.checks.append(wrong(f"cold-start apply exited {done.returncode}: {done.stderr.strip()[-200:]}"))
            return
        err = oracle.image_error(self.ref, self.point, json.loads(done.stdout), 3)
        self.checks.append(wrong(f"cold-start image off by {err:.3g}") if err > oracle.VALUE_TOL else None)


def import_floors(root: Path, runs: int) -> dict[str, float]:
    """Median subprocess times (ms) of an empty interpreter and the imports."""
    env = subprocess_env(root)
    floors = {}
    for name, code in (("cli.python_floor_ms", "pass"),
                       ("cli.numpy_import_ms", "import numpy"),
                       ("cli.import_ms", "import volterra.cli")):
        times = [time_subprocess([sys.executable, "-c", code], root, env)[0] for _ in range(runs)]
        floors[name] = float(np.median(times)) * 1000.0
    return floors
