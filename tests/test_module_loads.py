"""A command loads only the modules it runs.

Each command runs in a fresh interpreter that records ``sys.modules``
before ``import volterra`` and reports what the command added.  The
interpreter starts with ``-S``, so that no ``site`` hook preloads a
standard-library module the package should not need (``pathlib`` and
``typing`` are common); comparing against the snapshot, instead of
checking that a module is absent, tolerates what the interpreter itself
loads at start.  The formula commands need nothing from site-packages.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs ``volterra.cli.main`` on argv and writes the exit code and the
#: modules that ``import volterra`` and the command added to stderr.
PROBE = """
import sys
before = set(sys.modules)
import volterra.cli
code = volterra.cli.main(sys.argv[1:])
added = sorted(set(sys.modules) - before)
import json
sys.stderr.write(json.dumps({"code": code, "added": added}))
"""

#: Not needed by a formula ``builtin`` or ``apply``.  argparse's default
#: help formatter imports ``shutil`` (with ``bz2`` and ``lzma``) for the
#: terminal width; the CLI's own formatter reads it without.
HEAVY = {
    "dataclasses",
    "pathlib",
    "shutil",
    "typing",
    "numpy",
    "volterra.quadratic",
    "volterra.inversion",
    "volterra.dynamics",
}


def added_by(argv: list[str]) -> set[str]:
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stderr)
    assert report["code"] == 0, done.stdout
    return set(report["added"])


@pytest.fixture
def operand(tmp_path):
    spec = tmp_path / "example31.json"
    spec.write_text(json.dumps({"type": "example31"}))
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"1": 0.2, "2": 0.3, "3": 0.5}))
    return ["--operator", str(spec), "--point", str(point)]


def test_builtin_loads_nothing_heavy():
    added = added_by(["builtin", "--name", "example31"])
    assert "volterra.cli" in added
    assert not added & HEAVY, added & HEAVY


def test_formula_apply_loads_nothing_heavy(operand):
    added = added_by(["apply", *operand])
    assert {"volterra.cli", "volterra.cubic", "volterra.generating", "volterra.simplex"} <= added
    assert not added & HEAVY, added & HEAVY
    assert "volterra.reports" not in added


def test_simulate_loads_dynamics_only(operand):
    added = added_by(["simulate", *operand, "--steps", "3"])
    assert "volterra.dynamics" in added
    assert not added & {"numpy", "volterra.inversion", "volterra.quadratic"}


def test_invert_loads_inversion_only(operand):
    added = added_by(["invert", *operand])
    assert "volterra.inversion" in added
    assert not added & {"numpy", "volterra.dynamics", "volterra.quadratic"}


@pytest.mark.parametrize("spec", [
    {"type": "example31"},
    {"type": "convex", "operators": [{"type": "example31"}, {"type": "example32"}], "lambda": 0.5},
], ids=["example31", "convex"])
def test_scalar_invert_loads_no_numpy(tmp_path, spec):
    # The scalar root and each coordinate given it are solved with math.
    operator = tmp_path / "operator.json"
    operator.write_text(json.dumps(spec))
    point = tmp_path / "image.json"
    point.write_text(json.dumps({"1": 0.2, "2": 0.3, "3": 0.5}))
    inverse = tmp_path / "inverse.json"
    added = added_by(["invert", "--operator", str(operator), "--point", str(point), "--output", str(inverse)])
    assert json.loads(inverse.read_text())["method"] == "scalar"
    assert "volterra.inversion" in added
    assert not added & {"numpy", "volterra.dynamics", "volterra.quadratic"}


def test_triangular_invert_loads_no_numpy(tmp_path):
    # The triangular route solves each coordinate in closed form with math.
    spec = tmp_path / "example32.json"
    spec.write_text(json.dumps({"type": "example32"}))
    point = tmp_path / "image.json"
    point.write_text(json.dumps({"1": 0.125, "2": 0.875}))
    added = added_by(["invert", "--operator", str(spec), "--point", str(point)])
    assert "volterra.inversion" in added
    assert not added & {"numpy", "volterra.dynamics", "volterra.quadratic"}


def test_staged_invert_loads_no_numpy(tmp_path):
    # compose(example31, example32) inverts stage by stage: the scalar
    # root, then the closed-form triangle.  Sweeps on the composition
    # itself stall on this image.
    from volterra import apply, compose, example31, example32, make_point, point_to_obj

    op = compose(example31(), example32())
    spec = tmp_path / "compose.json"
    spec.write_text(json.dumps({"type": "compose", "operators": [{"type": "example31"}, {"type": "example32"}]}))
    point = tmp_path / "image.json"
    point.write_text(json.dumps(point_to_obj(apply(op, make_point({1: 0.025, 2: 0.4, 3: 0.575})))))
    added = added_by(["invert", "--operator", str(spec), "--point", str(point)])
    assert "volterra.inversion" in added
    assert not added & {"numpy", "volterra.dynamics", "volterra.quadratic"}
