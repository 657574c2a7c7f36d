"""numpy is imported only by code that computes on arrays.

``numpy_free_commands.py`` runs the commands in a fresh interpreter,
where nothing has imported numpy yet; this process has, so its own
``check`` report is the one computed with numpy loaded from the start.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from volterra import cli

from numpy_free_commands import CHECK_ARGS

HERE = Path(__file__).resolve().parent


def test_formula_commands_run_without_numpy(capsys, tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "numpy_free_commands.py")],
        env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout)
    assert result["exit_codes"] == {
        "builtin": 0, "apply": 0, "simulate": 0, "invert": 0, "invert_fixed_point": 0, "invert_example32": 0,
        "apply_staged": 0, "invert_staged": 0, "check": 0,
    }
    assert not result["numpy_after_formula_commands"]
    assert result["numpy_after_check"]

    spec = tmp_path / "example31.json"
    spec.write_text(json.dumps({"type": "example31"}))
    assert cli.main(["check", "--operator", str(spec), *CHECK_ARGS]) == 0
    assert json.loads(capsys.readouterr().out) == result["check_report"]


#: Validates a matrix and finds symmetry defects on lists of two cells,
#: then prints the results and whether numpy was imported.
MATRIX_PROBE = """
import json, sys
from volterra.quadratic import symmetry_defect_witness, validate_matrix

a = validate_matrix([[1, 2, 0.5], [3, 1, -0.25]])
witnesses = [symmetry_defect_witness(cells) for cells in
             ([[1, 2, 0.5], [2, 1, 0.25]], [[2, 2, 0.125], [2, 1, 0.25]], [[1, 2, 0.5], [2, 1, -0.5]])]
print(json.dumps({
    "entries": sorted([k, i, v] for (k, i), v in a.entries.items()),
    "dimension": a.dimension,
    "witnesses": [None if w is None else [w[0].as_dict(), w[1]] for w in witnesses],
    "numpy": "numpy" in sys.modules,
}))
"""


def test_matrix_lists_validate_without_numpy():
    done = subprocess.run(
        [sys.executable, "-c", MATRIX_PROBE],
        env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result == {
        "entries": [[1, 2, 0.5], [1, 3, 0.25]],
        "dimension": 3,
        "witnesses": [[{"1": 0.5, "2": 0.5}, 0.1875], [{"2": 1.0}, 0.125], None],
        "numpy": False,
    }
