#!/usr/bin/env python3
"""Self-test of the benchmark's oracle: planted wrong results must be caught.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it runs pass 0 as the benchmark does and requires that
nothing fails and that the only known defects are the example32
trajectory errors.  It then plants one wrong result, by wrapping a public
function so that it returns a corrupted value, runs pass 0 again and
requires failed / attempted > 0 with at least one wrong result.  Exits 1
if any of this does not hold.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import run


def _plant(owner, attr: str, corrupt):
    original = getattr(owner, attr)

    def planted(*args, **kwargs):
        return corrupt(original(*args, **kwargs), *args)

    setattr(owner, attr, planted)
    return lambda: setattr(owner, attr, original)


def plants():
    from volterra import cli, dynamics, generating, inversion

    return {
        # The pair maximum no longer matches the value at its witness.
        "face-check": (generating, "check_pair_condition",
                       lambda report, *a: dataclasses.replace(report, max_value=report.max_value + 0.5)),
        # The last point of each trajectory is replaced by its start.
        "trajectory": (dynamics, "iterate",
                       lambda traj, *a: dataclasses.replace(traj, points=traj.points[:-1] + traj.points[:1])),
        # The "preimage" returned is the target itself.
        "invert": (inversion, "invert_fixed_point",
                   lambda result, op, y, *a: dataclasses.replace(result, preimage=y)),
        # A condition failure (exit 1) is reported as success.
        "cli": (cli, "main", lambda code, *a: 0 if code == 1 else code),
    }


def run_pass0(workload) -> run.Tally:
    tally = run.Tally()
    run.run_pass(workload, 0, tally)
    return tally


def main() -> int:
    run.load_program()
    from workloads import WORKLOADS

    problems = []
    run.OUT.mkdir(parents=True, exist_ok=True)
    for name, (owner, attr, corrupt) in plants().items():
        tmp = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=run.OUT))
        try:
            workload = WORKLOADS[name](7, tmp)
            workload.build()
            clean = run_pass0(workload)
            stray = [k for k in clean.known if not k.startswith("cubic.example32.s1000: ")]
            if clean.failures or stray:
                problems.append(f"{name}: clean pass failed: {dict(clean.failures)} {clean.examples}")
            restore = _plant(owner, attr, corrupt)
            try:
                planted = run_pass0(workload)
            finally:
                restore()
            ratio = planted.failed / planted.attempted
            print(f"{name}: clean failed/attempted {clean.failed / clean.attempted:.3f} "
                  f"({sum(clean.known.values())} known defects), "
                  f"planted {ratio:.3f} ({planted.wrong} wrong)")
            if not (planted.wrong and ratio > 0):
                problems.append(f"{name}: planted wrong result was not caught")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
