"""Checker reports, images and inverses pinned bit for bit in ``golden_checks.json``.

Covers ``check_conditions`` and ``check_pair_condition`` for seven
operators, seeds 0-2, 200 samples (sine on its face {1, 2}, the others
on 1..6); every one of them is built by the library, so each continuity
verdict is the certified one (worst value 0.0 at the barycenter) and the
samples are pinned by the other three verdicts; ``apply`` of every
operator family at one seeded point; and ``invert_fixed_point`` on
five targets: two that converge at once, one example32 run that rejects
sweeps, halving its damping and doubling it back on accepted sweeps,
before it converges, and two example32 runs (``example32_stall`` and
``example32_damping_floor``) on which rejections drive the damping
below its floor, which raises ``NonConvergence``; and ``invert`` on
the images of two points (seeded on 1..6, and one near a vertex) under
example31, example32, a convex mix of the two, a mix nested in a mix
and their composition, so the scalar, triangular and staged routes are
held to their bits.
Regenerate only for an intended change of results:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import numpy as np

from volterra import (
    FaceSpec,
    NonConvergence,
    apply,
    check_conditions,
    check_pair_condition,
    compose,
    convex_combination,
    example31,
    example31_tensor,
    example32,
    identity_operator,
    invert,
    invert_fixed_point,
    make_point,
    operator_from_tensor,
    point_to_obj,
    quadratic_operator,
    sample_face,
    sine_example,
    validate_matrix,
)

FIXTURE = Path(__file__).with_name("golden_checks.json")


def skew6():
    """A full skew matrix on 1..6 with seeded upper entries in (-1, 1)."""
    rng = np.random.default_rng(6)
    cells = [[k, i, float(rng.uniform(-1.0, 1.0))] for k in range(1, 7) for i in range(k + 1, 7)]
    return quadratic_operator(validate_matrix(cells))


def golden_reports() -> dict:
    face6 = FaceSpec.prefix(6)
    q6 = skew6()
    ops = {
        "example31": example31(),
        "example32": example32(),
        "sine": sine_example(),
        "example31_tensor6": operator_from_tensor(example31_tensor(6)),
        "quadratic6": q6,
        "compose_example31_quadratic6": compose(example31(), q6),
        "convex0.3_example31_quadratic6": convex_combination(example31(), q6, 0.3),
    }
    faces = {name: face6 for name in ops}
    faces["sine"] = FaceSpec.of((1, 2))
    out = {
        f"{name}/seed{seed}": {
            "conditions": check_conditions(op, faces[name], samples=200, seed=seed).to_obj(),
            "pair": check_pair_condition(op, faces[name], samples=200, seed=seed).to_obj(),
        }
        for name, op in ops.items()
        for seed in (0, 1, 2)
    }
    ops["identity"] = identity_operator()
    faces["identity"] = face6
    for name, op in ops.items():
        out[f"apply/{name}"] = point_to_obj(apply(op, sample_face(faces[name], 7)))
    for name, seed in (("quadratic6", 21), ("compose_example31_quadratic6", 22)):
        out[f"invert/{name}"] = invert_fixed_point(ops[name], sample_face(face6, seed)).to_obj()
    stall = apply(ops["example32"], make_point({1: 0.025, 2: 0.4, 3: 0.575}))
    targets = {
        "example32_rejects": sample_face(face6, 7),
        "example32_stall": stall,
        "example32_damping_floor": sample_face(face6, 34),
    }
    for name, y in targets.items():
        try:
            out[f"invert/{name}"] = invert_fixed_point(ops["example32"], y).to_obj()
        except NonConvergence as exc:
            out[f"invert/{name}"] = {
                "best": point_to_obj(exc.best),
                "residual": exc.residual,
                "iterations": exc.iterations,
            }
    e31, e32 = ops["example31"], ops["example32"]
    structured = {
        "example31": e31,
        "example32": e32,
        "convex0.5_example31_example32": convex_combination(e31, e32, 0.5),
        "convex0.7_convex0.3_example31_example32_example31": convex_combination(
            convex_combination(e31, e32, 0.3), e31, 0.7
        ),
        "compose_example31_example32": compose(e31, e32),
    }
    starts = {
        "sample8": sample_face(face6, 8),
        "near_vertex": make_point({2: 6.22873049528632e-05, 3: 0.9997846866076967, 5: 0.00015302608735048718}),
    }
    for name, op in structured.items():
        for start, x in starts.items():
            out[f"invert/{name}/{start}"] = invert(op, apply(op, x)).to_obj()
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
