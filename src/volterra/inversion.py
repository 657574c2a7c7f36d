"""Numerical inverses of Volterra-type operators.

Two routes are provided.  The triangular route is exact-by-structure
for the builtin operator ``example32``: its k-th image coordinate is
h(x_k) = x_k^3 + 3*C_k*x_k with C_k >= 0 depending only on earlier
coordinates, and h is strictly increasing on [0, 1], so coordinates are
recovered in order, each as a closed-form cubic root.  The fixed-point
route is a damped coordinate iteration

    x_k  <-  normalize( (1-lam)*x_k + lam * y_k / g_k(x) ),  g_k = 1 + f_k,

started at the target itself with lam = 1/2, halved whenever the
residual would increase, so the current iterate is always the best one
so far.  The sweeps run on float lists aligned with the target's
support, and a point is built only once, at exit.  When the sweeps
stall (the residual has not halved over ``STALL_SWEEPS`` sweeps, or lam
has reached its floor), Levenberg-Marquardt steps in the simplex's
tangent space finish the search from the best iterate, with a
finite-difference Jacobian taken as one block call of the map, on
supports of at most ``NEWTON_MAX_SUPPORT`` indices.  They invert, for
instance, the example32 images on which the sweeps alone stall.  Still
no route guarantees convergence: a failure raises ``NonConvergence``
with the best iterate, its exact residual and the method that ran, so
no wrong answer is ever returned silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _numpy as np
from .cubic import example32
from .errors import NonConvergence, ResidualTooLarge
from .generating import VolterraOperator, _check_domain, _image_residual
from .simplex import SparsePoint, _checked_all, _checked_mass, _normalized, _point_on, _total, point_to_obj

#: Sweeps between two stall checks of ``invert_fixed_point``.
STALL_SWEEPS = 20
#: Damping lam below which a sweep cannot move the iterate measurably.
DAMPING_FLOOR = 1e-14
#: Length of the finite-difference step along a tangent direction.
FD_STEP = 1e-7
#: Largest support on which stalled sweeps hand over to Newton steps,
#: whose dense d x d arrays take about 60 MB at this size.
NEWTON_MAX_SUPPORT = 1000


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
    ResidualTooLarge carrying the point found.  The reported
    ``iterations`` (and the count a ResidualTooLarge carries) is the
    largest index of y, the number of coordinates the inverse determines.
    """
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
    residual = _image_residual(support, xm, example32().map.values(xm, support), y.masses)
    preimage = _point_on(support, xm)
    if residual > residual_tol:
        raise ResidualTooLarge(
            "triangular inverse misses the target", preimage, residual, y.max_index, "triangular"
        )
    return InversionResult(
        preimage=preimage, residual=residual, iterations=y.max_index, method="triangular"
    )


def invert_fixed_point(
    op: VolterraOperator, y: SparsePoint, tol: float = 1e-10, max_iter: int = 10_000
) -> InversionResult:
    """Damped fixed-point search for a preimage of y under op, finished
    by Newton steps when the sweeps stall.

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

    Every ``STALL_SWEEPS`` sweeps the residual is compared with its value
    that many sweeps before, and must have at least halved.  If it has
    not, or lam has fallen below ``DAMPING_FLOOR``, the search continues
    from the best iterate with ``_newton_steps`` and reports method
    ``"newton"``.  Sweeps and Newton trials share ``max_iter``.  On a
    support of more than ``NEWTON_MAX_SUPPORT`` indices the sweeps go on
    instead, and the floor of lam raises ``NonConvergence``.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    _check_domain(op, y.support, "point support")
    support, target = y.support, y.masses
    lam = 0.5
    xm = target  # masses of the iterate, aligned with the support of y
    gx = op.map.values(xm, support)
    residual = _image_residual(support, xm, gx, target)
    checkpoint = residual  # the residual STALL_SWEEPS sweeps before
    newton = len(support) <= NEWTON_MAX_SUPPORT
    iterations = 0
    while residual > tol:
        floored = lam < DAMPING_FLOOR
        if iterations >= max_iter or (floored and not newton):
            raise NonConvergence(
                f"fixed-point inversion of {op.label!r} stalled",
                _iterate(y, xm), residual, iterations, "fixed_point",
            )
        stalled = floored
        if iterations and iterations % STALL_SWEEPS == 0:
            stalled = stalled or residual > 0.5 * checkpoint
            checkpoint = residual
        if stalled and newton:
            return _newton_steps(op, y, xm, residual, iterations, tol, max_iter)
        iterations += 1
        mixed = []
        for yk, xk, g in zip(target, xm, gx):
            candidate = yk / g if g > 1e-12 else xk
            mixed.append((1.0 - lam) * xk + lam * candidate)
        total = _total(mixed)
        trial_m = _normalized(_checked_all(support, [v / total for v in mixed]))
        trial_g = op.map.values(trial_m, support)
        trial_residual = _image_residual(support, trial_m, trial_g, target)
        if trial_residual < residual:
            xm, gx, residual = trial_m, trial_g, trial_residual
        else:
            lam *= 0.5
    return InversionResult(
        preimage=_iterate(y, xm), residual=residual, iterations=iterations, method="fixed_point"
    )


def _newton_steps(
    op: VolterraOperator, y: SparsePoint, xm, residual: float, iterations: int, tol: float, max_iter: int
) -> InversionResult:
    """Levenberg-Marquardt steps in the simplex's tangent space from the
    iterate with masses ``xm`` on the support of y.

    The image's Jacobian along the d tangent directions e_j - 1/d comes
    from forward differences of length ``FD_STEP``, taken as one
    (d+1)-point block call of the map, so no map needs derivative code.
    The differences run toward the vertices, along e_j - x, so that every
    point of the block stays on the simplex (a composed map checks its
    inner image, which a negative mass would make negative); since
    e_j - 1/d is the sum over i of (e_j - 1/d)_i (e_i - x), the row for
    e_j - 1/d is the one for e_j - x less the mean of those rows.
    A trial solves (J^T J + mu I) s = -J^T R, R the image's offset from
    y, and moves along the tangent vector s - mean(s), shortened to keep
    every mass at least a tenth of its value (fraction to the boundary),
    so the support stays y's; it is renormalized as the sweeps are.
    mu starts at 1e-3 of the largest diagonal entry of J^T J, grows
    4-fold on a rejected trial and shrinks 3-fold on an accepted one,
    never below 1e-14 of that entry.  A trial is accepted only when it
    strictly lowers the exact residual, so the iterate stays the best one
    so far.  Each trial counts as an iteration.  NonConvergence (method
    ``"newton"``) carries the best iterate when the budget runs out, when
    the map does not move the image along any tangent direction, or when
    a trial no longer moves the iterate.
    """
    support, target = y.support, y.masses
    d = len(support)
    eye = np.eye(d)
    mu = None
    while residual > tol:
        x = np.array(xm)
        block = np.vstack([x, (1.0 - FD_STEP) * x + FD_STEP * eye])
        # Columns go to the map; the image stays in C-ordered rows, since
        # the mean over rows and ``rows @ rows.T`` add in a layout's order.
        image = np.multiply(block, op.map.values(np.ascontiguousarray(block.T), support).T, order="C")
        toward = (image[1:] - image[0]) / FD_STEP  # row j: derivative along e_j - x
        rows = toward - toward.mean(axis=0)  # row j: derivative along e_j - 1/d
        normal = rows @ rows.T
        gradient = rows @ (image[0] - target)
        scale = float(normal.diagonal().max())
        if not 0.0 < scale < math.inf:
            raise _newton_stalled(op, y, xm, residual, iterations)
        mu = 1e-3 * scale if mu is None else max(mu, 1e-14 * scale)
        while True:
            if iterations >= max_iter:
                raise _newton_stalled(op, y, xm, residual, iterations)
            iterations += 1
            s = np.linalg.solve(normal + mu * eye, -gradient)
            delta = s - s.mean()
            shrinking = delta < 0.0
            t = min(1.0, 0.9 * float((x[shrinking] / -delta[shrinking]).min())) if shrinking.any() else 1.0
            moved = x + t * delta
            if np.array_equal(moved, x):
                raise _newton_stalled(op, y, xm, residual, iterations)
            trial_m = _normalized(_checked_all(support, moved.tolist()))
            trial_g = op.map.values(trial_m, support)
            trial_residual = _image_residual(support, trial_m, trial_g, target)
            if trial_residual < residual:
                xm, residual = trial_m, trial_residual
                mu /= 3.0
                break
            mu *= 4.0
    return InversionResult(preimage=_iterate(y, xm), residual=residual, iterations=iterations, method="newton")


def _newton_stalled(op: VolterraOperator, y: SparsePoint, xm, residual: float, iterations: int) -> NonConvergence:
    return NonConvergence(
        f"Newton steps for {op.label!r} stalled", _iterate(y, xm), residual, iterations, "newton"
    )


def _iterate(y: SparsePoint, xm) -> SparsePoint:
    """The iterate with masses ``xm`` on the support of y: y itself until
    a sweep is accepted."""
    return y if xm is y.masses else _point_on(y.support, xm)
