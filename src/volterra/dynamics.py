"""Trajectory iteration and fixed-point diagnostics.

Repeated application of a valid operator stays on the simplex and never
grows the support, so trajectories are exact sequences of sparse
points.  Convergence is only declared after ten consecutive steps of
l1 size below tolerance, guarding against slow oscillation; the search
for fixed points is heuristic (candidates are verified, completeness is
not claimed).

A step is only compared with the tolerance, so its l1 size is added up
in ``l1_distance``'s order only until the partial sum passes the bound
(``simplex._within``): a step far from settling costs a term or two,
not a pass over the whole support, and the decision is the one the
full sum gives.  Images are fed back as ``apply`` returns them, with
their raw totals.  A ``Trajectory`` stores points and convergence only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _numpy as np
from .errors import TrajectoryError, VolterraError
from .generating import VolterraOperator, apply, is_fixed_point
from .simplex import FaceSpec, SparsePoint, _within, point_to_obj, sample_face_rng

#: Step size below which a trajectory step counts toward convergence.
STEP_TOLERANCE = 1e-12
#: Consecutive sub-tolerance steps required to declare convergence.
SETTLE_STEPS = 10
#: The largest float below STEP_TOLERANCE: a step is below the
#: tolerance exactly when its size is at most this.
_STEP_BOUND = math.nextafter(STEP_TOLERANCE, 0.0)
#: Steps each probe of ``detect_fixed_points_on_face`` iterates at most.
FIXED_POINT_STEPS = 500


@dataclass(frozen=True)
class Trajectory:
    """A run, start first; its step count and limit derive from it."""

    points: tuple[SparsePoint, ...]
    converged: bool

    @property
    def steps(self) -> int:
        return len(self.points) - 1

    @property
    def limit(self) -> SparsePoint | None:
        return self.points[-1] if self.converged else None

    def to_records(self) -> list[dict]:
        return [{"t": t, "x": point_to_obj(p)} for t, p in enumerate(self.points)]


def iterate(op: VolterraOperator, x0: SparsePoint, steps: int) -> Trajectory:
    """Apply op repeatedly from x0, stopping early once settled.

    Application errors are wrapped in TrajectoryError carrying the
    failing step index.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    points = [x0]
    quiet = 0
    for t in range(steps):
        try:
            nxt = apply(op, points[-1])
        except VolterraError as exc:
            raise TrajectoryError(t, exc) from exc
        quiet = quiet + 1 if _within(nxt, points[-1], _STEP_BOUND) else 0
        points.append(nxt)
        if quiet >= SETTLE_STEPS:
            break
    return Trajectory(points=tuple(points), converged=quiet >= SETTLE_STEPS)


def detect_fixed_points_on_face(
    op: VolterraOperator,
    face: FaceSpec,
    starts: int = 20,
    seed: int = 0,
    tol: float = 1e-9,
) -> list[SparsePoint]:
    """Verified fixed-point candidates found by iterating sampled starts.

    The face's vertices and barycenter are always probed in addition to
    the sampled starting points (interior fixed points such as uniform
    ones are often repelling and unreachable by iteration, but the
    barycenter probe catches the symmetric ones exactly).  Candidates
    are deduplicated within an l1 radius of 10*tol and each returned
    point passes ``is_fixed_point`` at tol, tested once per probe: on a
    start, else on the limit it settles on within FIXED_POINT_STEPS steps.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    rng = np.random.default_rng(seed)
    probes: list[SparsePoint] = list(face.vertices())
    probes.append(face.barycenter())
    probes.extend(sample_face_rng(face, rng) for _ in range(starts))

    found: list[SparsePoint] = []
    for start in probes:
        candidate = start
        if not is_fixed_point(op, start, tol):
            candidate = iterate(op, start, FIXED_POINT_STEPS).limit
            if candidate is None or not is_fixed_point(op, candidate, tol):
                continue
        if not any(_within(existing, candidate, 10.0 * tol) for existing in found):
            found.append(candidate)
    return found
