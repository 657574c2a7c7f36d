"""Checker reports pinned bit for bit in ``golden_checks.json``.

Covers ``check_conditions`` and ``check_pair_condition`` for four
operators, seeds 0-2, 200 samples (sine on its face {1, 2}, the others
on 1..6).  Regenerate only for an intended report change:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

from volterra import (
    FaceSpec,
    check_conditions,
    check_pair_condition,
    example31,
    example31_tensor,
    example32,
    operator_from_tensor,
    sine_example,
)

FIXTURE = Path(__file__).with_name("golden_checks.json")


def golden_reports() -> dict:
    cases = {
        "example31": (example31(), FaceSpec.prefix(6)),
        "example32": (example32(), FaceSpec.prefix(6)),
        "sine": (sine_example(), FaceSpec.of((1, 2))),
        "example31_tensor6": (operator_from_tensor(example31_tensor(6)), FaceSpec.prefix(6)),
    }
    out = {
        f"{name}/seed{seed}": {
            "conditions": check_conditions(op, face, samples=200, seed=seed).to_obj(),
            "pair": check_pair_condition(op, face, samples=200, seed=seed).to_obj(),
        }
        for name, (op, face) in cases.items()
        for seed in (0, 1, 2)
    }
    return json.loads(json.dumps(out))  # tuples become lists, as in the fixture


def test_reports_match_golden_fixture():
    expected = json.loads(FIXTURE.read_text())
    actual = golden_reports()
    assert actual.keys() == expected.keys()
    for key in expected:
        assert actual[key] == expected[key], key


if __name__ == "__main__":
    reports = golden_reports()
    lines = [f"{json.dumps(k)}: {json.dumps(reports[k], sort_keys=True)}" for k in sorted(reports)]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
