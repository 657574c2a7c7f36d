"""Per-call checks of the program's results against the reference.

Every check reads the public JSON form of a result (``to_obj``,
``to_records``, the CLI's stdout) and recomputes what it can with
``specs.Reference``.  Comparisons use tolerances rather than digests, so
a change that only reorders floating-point sums still passes while a
flipped verdict or a wrong witness value fails.

A check returns None when the result is right, or a ``Failure``.  Its
kind is ``"wrong"`` for a returned value that is wrong (a verdict, a
witness value, an image, a residual, an exit code), ``"error"`` for an
exception the call was not expected to raise, and ``"known"`` for a
documented defect of the program that the oracle recognised exactly (the
example32 trajectories, see workloads.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from specs import Reference, dense

#: Relative tolerance for values the program and the reference both compute.
VALUE_TOL = 1e-9
#: Thresholds the program applies to its verdicts (generating.py).
NEGATIVE_TOLERANCE = 1e-12
NORMALIZATION_TOLERANCE = 1e-9
PAIR_TOLERANCE = 1e-12
#: Forward residual a returned preimage must meet: the inverters' default
#: tolerance of 1e-10 plus room for a reordered l1 sum.
RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Failure:
    kind: str  # "wrong", "error" or "known"
    message: str


def wrong(message: str) -> Failure:
    return Failure("wrong", message)


def known_defect(message: str) -> Failure:
    return Failure("known", message)


def unexpected(exc: BaseException) -> Failure:
    cause = getattr(exc, "cause", None)
    detail = f" ({type(cause).__name__})" if cause is not None else ""
    return Failure("error", f"{type(exc).__name__}{detail}: {exc}")


def close(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _face_vector(point: dict, face: list[int]) -> np.ndarray:
    """Masses of ``point`` on the face's indices, in face order."""
    return np.array([point.get(str(k), 0.0) for k in face])


def _on_face(ref: Reference, face: list[int], point: dict) -> tuple[np.ndarray, np.ndarray]:
    """(x, f(x)) restricted to the face; the face is a prefix 1..d or {1, 2}."""
    x = dense(point, face[-1])
    return _face_vector(point, face), ref.f(x)[np.array(face) - 1]


def check_report(
    report: dict,
    ref: Reference,
    expect_all_passed: bool | None = None,
    expect_failed: tuple[str, ...] = (),
) -> Failure | None:
    """Recheck a ``check_conditions`` report from its own witnesses.

    Each verdict's worst value is recomputed at its witness, its pass flag
    is recomputed from that value, and the reported extremes must be at
    least as bad as the reference value at the barycenter and vertices,
    which the checker always probes.
    """
    face = report["face"]
    by_name = {c["condition"]: c for c in report["conditions"]}
    for name in expect_failed:
        if by_name[name]["passed"]:
            return wrong(f"{name} passed but must fail")
    if expect_all_passed is not None and report["all_passed"] != expect_all_passed:
        return wrong(f"all_passed is {report['all_passed']}, expected {expect_all_passed}")
    if report["all_passed"] != all(c["passed"] for c in report["conditions"]):
        return wrong("all_passed disagrees with the verdicts")

    low = by_name["mass_lower_bound"]
    x, fx = _on_face(ref, face, low["witness"])
    if not close(float(fx.min()), low["worst_value"]):
        return wrong(f"mass_lower_bound worst {low['worst_value']!r} != {fx.min()!r} at witness")
    if low["passed"] != (low["worst_value"] >= -1.0 - NEGATIVE_TOLERANCE):
        return wrong("mass_lower_bound verdict disagrees with its worst value")

    bal = by_name["weighted_balance"]
    x, fx = _on_face(ref, face, bal["witness"])
    if abs(abs(float(np.dot(x, fx))) - bal["worst_value"]) > VALUE_TOL:
        return wrong("weighted_balance worst value disagrees with its witness")
    if bal["passed"] != (bal["worst_value"] <= NORMALIZATION_TOLERANCE):
        return wrong("weighted_balance verdict disagrees with its worst value")

    strict = by_name["interior_strict_bound"]
    x, fx = _on_face(ref, face, strict["witness"])
    if not np.all(x > 0.0):
        return wrong("interior_strict_bound witness is not interior")
    if not close(float(fx.min()), strict["worst_value"]):
        return wrong(f"interior_strict_bound worst {strict['worst_value']!r} != {fx.min()!r}")
    if strict["passed"] != (strict["worst_value"] > -1.0 + report["margin"]):
        return wrong("interior_strict_bound verdict disagrees with its worst value")

    cont = by_name["continuity_smoke"]
    if cont["passed"] != (cont["worst_value"] <= 1e-3):
        return wrong("continuity_smoke verdict disagrees with its worst value")

    n = len(face)
    bary = {str(k): 1.0 / n for k in face}
    _, f_bary = _on_face(ref, face, bary)
    if strict["worst_value"] > float(f_bary.min()) + VALUE_TOL:
        return wrong("interior_strict_bound misses the barycenter value")
    probes = [bary] + ([{str(k): 1.0} for k in face] if n > 1 else [])
    for probe in probes:
        px, pf = _on_face(ref, face, probe)
        if low["worst_value"] > float(pf.min()) + VALUE_TOL:
            return wrong("mass_lower_bound misses a probe value")
        if bal["worst_value"] + VALUE_TOL < abs(float(np.dot(px, pf))):
            return wrong("weighted_balance misses a probe value")
    return None


def check_pair_report(
    report: dict,
    ref: Reference,
    expect_passed: bool | None = None,
    square_sum: bool = False,
) -> Failure | None:
    """Recheck a ``check_pair_condition`` report.

    The value at the witness pair is recomputed, the verdict rederived
    from it, and the reported maximum must reach every vertex-pair value,
    since the checker evaluates all vertex pairs.  With ``square_sum`` the
    witness value is also compared with example31's analytic value
    -sum_i (x_i - y_i)^2.
    """
    face = report["face"]
    d = face[-1]
    wx, wy = report["witness"]["x"], report["witness"]["y"]
    x, y = dense(wx, d), dense(wy, d)
    value = ref.pair_value(x, y)
    best = report["max_value"]
    if not close(value, best):
        return wrong(f"pair value {best!r} != {value!r} at the witness")
    if square_sum and not close(-float(np.sum((x - y) ** 2)), best):
        return wrong("pair value differs from -sum (x_i - y_i)^2")
    if report["passed"] != (best <= report["threshold"]):
        return wrong("pair verdict disagrees with its maximum")
    if expect_passed is not None and report["passed"] != expect_passed:
        return wrong(f"pair check passed={report['passed']}, expected {expect_passed}")
    idx = np.array(face) - 1
    eye = np.zeros((len(face), d))
    eye[np.arange(len(face)), idx] = 1.0
    # f at each vertex, restricted to the face: F[a, b] = f_{face[b]}(e_{face[a]}).
    fv = np.array([ref.f(row)[idx] for row in eye])
    vertex_pairs = fv + fv.T
    if float(vertex_pairs.max()) > best + VALUE_TOL:
        return wrong("pair maximum misses a vertex pair")
    return None


def image_error(ref: Reference, x_obj: dict, image_obj: dict, dim: int | None = None) -> float:
    """l1 distance between a reported raw image and the reference image."""
    d = dim or max(int(k) for k in (*x_obj, *image_obj))
    return float(np.abs(ref.image(dense(x_obj, d)) - dense(image_obj, d)).sum())


def residual(ref: Reference, x_obj: dict, y_obj: dict) -> float:
    """l1 forward residual |V x - y| with the reference operator."""
    d = max(int(k) for k in (*x_obj, *y_obj))
    return float(np.abs(ref.image(dense(x_obj, d)) - dense(y_obj, d)).sum())


def check_trajectory(records: list[dict], ref: Reference, steps: int, dim: int) -> Failure | None:
    """Every step must be the reference image of the step before it."""
    if len(records) != steps + 1:
        return wrong(f"trajectory has {len(records) - 1} steps, expected {steps}")
    for before, after in zip(records, records[1:]):
        err = image_error(ref, before["x"], after["x"], dim)
        if err > VALUE_TOL:
            return wrong(f"step {after['t']} is off the reference image by {err:.3g}")
    return None


def check_inversion(result: dict, ref: Reference, y_obj: dict) -> Failure | None:
    """A returned preimage must be converged and map onto the target."""
    if not result["converged"]:
        return wrong("inversion returned without converging")
    r = residual(ref, result["preimage"], y_obj)
    if r > RESIDUAL_TOL:
        return wrong(f"preimage residual {r:.3g} exceeds {RESIDUAL_TOL}")
    if abs(r - result["residual"]) > VALUE_TOL:
        return wrong(f"reported residual {result['residual']!r} but true residual is {r!r}")
    return None


def check_nonconvergence(best_obj: dict, reported: float, ref: Reference, y_obj: dict, tol: float) -> Failure | None:
    """A NonConvergence must carry the true residual of its best iterate."""
    r = residual(ref, best_obj, y_obj)
    if abs(r - reported) > VALUE_TOL * max(1.0, r):
        return wrong(f"NonConvergence reports residual {reported!r} but its best iterate has {r!r}")
    if r <= tol:
        return wrong("NonConvergence raised for an iterate that meets the tolerance")
    return None
