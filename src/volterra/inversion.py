"""Numerical inverses of Volterra-type operators.

``invert`` is the one entry point; it takes the route that the
operator records (``VolterraOperator.route``), set by the
constructors from the operator's structure, never from its label.

- Triangular: ``example32``, whose k-th image coordinate is
  h(x_k) = x_k^3 + 3*C_k*x_k with C_k >= 0 depending only on earlier
  coordinates, and h strictly increasing on [0, 1], so coordinates are
  recovered in order, each as a closed-form cubic root; also a convex
  combination of two such maps, which has the same g.
- Staged: ``compose(op1, op2)`` applies op2 first, so its preimage is
  op2's preimage of op1's preimage, each found by its own route.
- Fixed point: every other operator, by the damped coordinate iteration

      x_k  <-  normalize( (1-lam)*x_k + lam * y_k / g_k(x) ),  g_k = 1 + f_k,

  started at the target itself with lam = 1/2, halved whenever the
  residual would increase, so the current iterate is always the best
  one so far.  The sweeps run on float lists aligned with the target's
  support, and a point is built only once, at exit.

No route guarantees convergence: a miss raises ``NonConvergence`` with
the best iterate, its exact residual and the method that ran, so no
wrong answer is ever returned silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cubic import example32
from .errors import NonConvergence, ResidualTooLarge
from .generating import VolterraOperator, _check_domain, _check_tolerance, _image_residual, apply
from .simplex import SparsePoint, _checked_all, _checked_mass, _normalized, _point_on, _total, l1_distance, point_to_obj

#: Sweeps between two stall checks of ``invert_fixed_point``.
STALL_SWEEPS = 100
#: Damping lam below which a sweep cannot move the iterate measurably.
DAMPING_FLOOR = 1e-14
#: Share of the tolerance each stage of a staged inverse must meet, so
#: that the composed residual meets the whole of it.
STAGE_TOL = 1.0 / 16.0


@dataclass(frozen=True)
class InversionResult:
    preimage: SparsePoint
    residual: float
    iterations: int
    method: str
    converged: bool = True

    def to_obj(self) -> dict:
        return {
            "preimage": point_to_obj(self.preimage),
            "residual": self.residual,
            "iterations": self.iterations,
            "method": self.method,
            "converged": self.converged,
        }


def solve_monotone_cubic(c: float, target: float) -> float:
    """Root of t^3 + 3*c*t = target on [0, 1] for c >= 0, target in [0, 1+3c].

    Closed-form cubic root, written without cancellation: with
    w = (target + sqrt(target^2 + 4c^3)) / 2, u = w^(1/3) and v = c/u,
    the root u - v is target / (u^2 + c + v^2).  The square root is taken
    by ``hypot``, since target^2 underflows below about 1e-154.  One
    Newton step then removes the error of ``** (1/3)``, which grows with
    |log w|, so the result is within 2 * 2^-52 of the exact root,
    relative, for every target above 1e-290.
    """
    if c < 0.0:
        raise ValueError(f"linear coefficient must be nonnegative, got {c!r}")
    if target <= 0.0:
        return 0.0
    u = (0.5 * (target + math.hypot(target, 2.0 * c * math.sqrt(c)))) ** (1.0 / 3.0)
    v = c / u
    t = target / (u * u + c + v * v)
    return t - (t * t * t + 3.0 * c * t - target) / (3.0 * (t * t + c))


def invert(op: VolterraOperator, y: SparsePoint, tol: float = 1e-10, max_iter: int = 10_000) -> InversionResult:
    """A preimage of y under op, by the route op records.

    - ``"triangular"`` (example32, and convex combinations of two such
      maps): the closed-form solve of ``invert_triangular``, its
      residual taken on op itself; ``max_iter`` plays no part.
    - ``(op1, op2)`` (``compose(op1, op2)``, which applies op2 first):
      ``invert(op1, y)``, then ``invert(op2, .)`` of that, each stage to
      ``STAGE_TOL * tol``, and the iterations of both summed.  The
      stages share ``max_iter``: the second gets what the first left.
      A stage that misses hands its best iterate on.  The residual is
      taken once, on op, at the final iterate: above ``tol`` it raises
      NonConvergence (method ``"staged"``) naming the first stage that
      missed, with that iterate and its residual.
    - None (any other operator): ``invert_fixed_point``.

    A tolerance that is not positive (NaN included) is a ValueError.
    """
    route = op.route
    if route is None:
        return invert_fixed_point(op, y, tol, max_iter)
    if route == "triangular":
        return _triangular(op, y, tol)
    _check_tolerance(tol)
    _check_domain(op, y.support, "point support")
    stage_tol = max(STAGE_TOL * tol, 5e-324)  # positive, even where STAGE_TOL * tol underflows
    x, iterations, missed = y, 0, None
    for stage, part in enumerate(route, 1):
        try:
            result = invert(part, x, stage_tol, max_iter - iterations)
            x, n = result.preimage, result.iterations
        except NonConvergence as exc:
            x, n = exc.best, exc.iterations
            missed = missed or f"stage {stage} ({part.label})"
        iterations += n
    residual = l1_distance(apply(op, x), y)
    if residual > tol:
        raise NonConvergence(
            f"staged inversion of {op.label!r} missed at {missed or 'the composition'}",
            x, residual, iterations, "staged",
        )
    return InversionResult(preimage=x, residual=residual, iterations=iterations, method="staged")


def invert_triangular(y: SparsePoint, residual_tol: float = 1e-10) -> InversionResult:
    """Sequential inverse of ``example32`` at the target y.

    Solves, for each index of y in turn, the strictly increasing cubic
    t^3 + 3*C_k*t = y_k with C_k = sum_{i<k} x_i - sum_{i<j<k} x_i x_j
    (nonnegative on the simplex; 0 for the first index, where the root
    is y_k^(1/3)) by ``solve_monotone_cubic``.  Only the indices in the
    support of y are solved: an index with zero target mass solves to
    exactly zero and adds nothing to C_k, so the preimage support equals
    the target support (less a root that underflows to zero) and the
    work does not grow with the largest index.  The roots are checked
    and normalized as ``make_point`` would, and the residual is the
    ``l1_distance`` of their forward image from y, checked as ``apply``
    checks it; a residual above ``residual_tol`` raises
    ResidualTooLarge carrying the point found, and a ``residual_tol``
    that is not positive is a ValueError.  The reported ``iterations``
    (and the count a ResidualTooLarge carries) is 0: no sweep runs, so
    the solve spends nothing of a staged inverse's ``max_iter``.
    """
    return _triangular(example32(), y, residual_tol)


def _triangular(op: VolterraOperator, y: SparsePoint, residual_tol: float) -> InversionResult:
    """``invert_triangular`` with the residual taken on op, whose g must
    be example32's."""
    _check_tolerance(residual_tol)
    support = y.support
    roots = []
    s1 = 0.0  # sum of solved coordinates
    pairs = 0.0  # sum of products over solved index pairs
    for k, yk in y.items():
        c = s1 - pairs
        t = _checked_mass(k, solve_monotone_cubic(c if c > 0.0 else 0.0, yk))
        roots.append(t)
        pairs += t * s1
        s1 += t
    xm = _normalized(roots)
    residual = _image_residual(support, xm, op.values(xm, support), y.masses)
    preimage = _point_on(support, xm)
    if residual > residual_tol:
        raise ResidualTooLarge(
            "triangular inverse misses the target", preimage, residual, 0, "triangular"
        )
    return InversionResult(
        preimage=preimage, residual=residual, iterations=0, method="triangular"
    )


def invert_fixed_point(
    op: VolterraOperator, y: SparsePoint, tol: float = 1e-10, max_iter: int = 10_000
) -> InversionResult:
    """Damped fixed-point search for a preimage of y under op.

    Starts at x = y (feasible, and close to the preimage when the
    generating map is small).  Each sweep mixes the current iterate with
    y_k / g_k(x) over the support of y, with damping lam = 1/2 at the
    start, and renormalizes; a sweep that would increase the residual is
    rejected and lam halved instead, so the iterate is always the best
    one so far.  Support never extends beyond the support of y.  Each
    sweep evaluates g once, at the trial point, over the support of y;
    the forward image and the next sweep reuse those values.  The sweeps
    work on float lists aligned with the support of y, checked and
    renormalized as ``make_point`` would, and the residual is the
    ``l1_distance`` of the forward image from y, summed in its order; a
    point is built only for the result or for ``NonConvergence.best``.

    Every ``STALL_SWEEPS`` sweeps the residual's rate over the last
    ``STALL_SWEEPS`` is read.  The sweeps stall when lam falls below
    ``DAMPING_FLOOR``, or when at that rate the residual would not reach
    tol within ``max_iter`` sweeps: a slow but steady linear rate that
    fits the budget runs on.  A stall, or ``max_iter`` sweeps, raises
    NonConvergence with the best iterate.  A tolerance that is not
    positive (NaN included) is a ValueError.
    """
    _check_tolerance(tol)
    _check_domain(op, y.support, "point support")
    support, target = y.support, y.masses
    lam = 0.5
    xm = target  # masses of the iterate, aligned with the support of y
    gx = op.values(xm, support)
    residual = _image_residual(support, xm, gx, target)
    checkpoint = residual  # the residual STALL_SWEEPS sweeps before
    iterations = 0
    while residual > tol:
        stalled = iterations >= max_iter or lam < DAMPING_FLOOR
        if iterations and iterations % STALL_SWEEPS == 0:
            rate = residual / checkpoint  # over the last STALL_SWEEPS sweeps
            stalled = stalled or rate >= 1.0 or (
                iterations + STALL_SWEEPS * math.log(tol / residual) / math.log(rate) > max_iter
            )
            checkpoint = residual
        if stalled:
            raise NonConvergence(
                f"fixed-point inversion of {op.label!r} stalled",
                _iterate(y, xm), residual, iterations, "fixed_point",
            )
        iterations += 1
        mixed = []
        for yk, xk, g in zip(target, xm, gx):
            candidate = yk / g if g > 1e-12 else xk
            mixed.append((1.0 - lam) * xk + lam * candidate)
        total = _total(mixed)
        trial_m = _normalized(_checked_all(support, [v / total for v in mixed]))
        trial_g = op.values(trial_m, support)
        trial_residual = _image_residual(support, trial_m, trial_g, target)
        if trial_residual < residual:
            xm, gx, residual = trial_m, trial_g, trial_residual
        else:
            lam *= 0.5
    return InversionResult(
        preimage=_iterate(y, xm), residual=residual, iterations=iterations, method="fixed_point"
    )


def _iterate(y: SparsePoint, xm) -> SparsePoint:
    """The iterate with masses ``xm`` on the support of y: y itself until
    a sweep is accepted."""
    return y if xm is y.masses else _point_on(y.support, xm)
