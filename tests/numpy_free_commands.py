"""Check that the CLI commands which compute on no array never import numpy.

    python tests/numpy_free_commands.py

runs ``builtin``, ``apply``, ``simulate`` and a scalar-root ``invert`` on
example31, a fixed-point ``invert`` on example31's cubic tensor over
1..3, a triangular ``invert`` of example32, and an ``apply`` and a
staged ``invert`` of compose(example31, example32) (on the image of
{1: 0.025, 2: 0.4, 3: 0.575}, where the sweeps on the composition
itself stall) through ``volterra.cli.main`` in this process, then
``check``, which samples a face into arrays.  It prints one JSON object
with the exit codes, the ``check`` report and whether numpy was loaded
after the eight commands and after ``check``, and exits 1 unless numpy
stayed unloaded through the eight commands and loaded for ``check``.  Run it
against an installed package, or with ``PYTHONPATH=src`` from the root
of a checkout.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from volterra import cli
from volterra.cubic import example31_tensor, tensor_to_obj

#: The ``check`` this script runs; a test repeats it to compare reports.
CHECK_ARGS = ["--face", "1..4", "--samples", "50", "--seed", "3"]


def run(tmp: Path) -> dict:
    spec = tmp / "example31.json"
    spec.write_text(json.dumps({"type": "example31"}))
    point = tmp / "point.json"
    point.write_text(json.dumps({"1": 0.2, "2": 0.3, "3": 0.5}))
    operand = ["--operator", str(spec), "--point", str(point)]
    triangular = tmp / "example32.json"
    triangular.write_text(json.dumps({"type": "example32"}))
    staged = tmp / "compose.json"
    staged.write_text(json.dumps({"type": "compose", "operators": [{"type": "example31"}, {"type": "example32"}]}))
    tensor = tmp / "tensor.json"
    tensor.write_text(json.dumps({"type": "cubic_tensor", "triples": tensor_to_obj(example31_tensor(3))}))
    start = tmp / "start.json"
    start.write_text(json.dumps({"1": 0.025, "2": 0.4, "3": 0.575}))
    image = tmp / "image.json"
    commands = {
        "builtin": ["builtin", "--name", "example31"],
        "apply": ["apply", *operand],
        "simulate": ["simulate", *operand, "--steps", "5"],
        "invert": ["invert", *operand],
        "invert_fixed_point": ["invert", "--operator", str(tensor), "--point", str(point)],
        "invert_example32": ["invert", "--operator", str(triangular), "--point", str(point)],
        "apply_staged": ["apply", "--operator", str(staged), "--point", str(start), "--output", str(image)],
        "invert_staged": ["invert", "--operator", str(staged), "--point", str(image)],
    }
    codes = {}
    for name, argv in commands.items():
        with contextlib.redirect_stdout(io.StringIO()):
            codes[name] = cli.main(argv)
    numpy_after_formula_commands = "numpy" in sys.modules
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        codes["check"] = cli.main(["check", "--operator", str(spec), *CHECK_ARGS])
    return {
        "exit_codes": codes,
        "numpy_after_formula_commands": numpy_after_formula_commands,
        "numpy_after_check": "numpy" in sys.modules,
        "check_report": json.loads(report.getvalue()),
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        result = run(Path(tmp))
    print(json.dumps(result))
    return 0 if result["numpy_after_check"] and not result["numpy_after_formula_commands"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
