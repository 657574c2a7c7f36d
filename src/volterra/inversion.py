"""Numerical inverses of Volterra-type operators.

``invert`` is the one entry point; it takes the route that the
operator's structure gives (``VolterraOperator.structure`` and
``.stages``, set by the constructors), never its label.

- Structured: example31, example32 and their convex combinations, whose
  g_k is w31*(c + x_k) + w32*(x_k^2 + 3*C_k) for the weights (w31, w32)
  of their ``structure``, c = 1 - sum_i x_i^2 and C_k >= 0 depending
  only on coordinates before k.  Given c, coordinate k solves an
  increasing polynomial, w32*t^3 + w31*t^2 + (w31*c + 3*w32*C_k)*t = y_k,
  so they are recovered in order: example31's by the closed form
  t = 2*y_k / (c + sqrt(c^2 + 4*y_k)), example32's by a closed-form
  cubic root, and a mix's by Newton's method from above.  Where w31 is
  not zero (method ``"scalar"``), a safeguarded Newton root in c on
  [0, 1] finds the c at which the coordinates add up to 1 with
  sum_i x_i^2 = 1 - c; where it is (method ``"triangular"``, example32
  and its self-mixes) the root is c = 0, and one pass does.  Neither
  runs a sweep.
- Staged: ``compose(op1, op2)`` applies op2 first, so its preimage is
  op2's preimage of op1's preimage, each found by its own route.
- Fixed point: every other operator, by the damped coordinate iteration

      x_k  <-  normalize( (1-lam)*x_k + lam * P_k ),  P_k = y_k / g_k(x),  g_k = 1 + f_k,

  started at the target itself with lam = 1/2, with a one-step Anderson
  trial (D. G. Anderson, J. ACM 12, 1965; Walker & Ni, SIAM J. Numer.
  Anal. 49, 2011) before it once an iterate has been accepted: the
  secant extrapolation P - gamma*(P - P') of the images P at the iterate
  and P' at the one accepted before it.  A trial that would increase
  the residual is rejected: a rejected extrapolation gives way to the
  damped sweep, and a rejected damped sweep halves lam.  An accepted
  trial doubles lam, up to 1/2 again, so lam recovers after early
  overshoots, and the current iterate is always the best one so far.
  Every trial is one sweep.  The sweeps stop on three conditions only:
  the residual meets the tolerance, lam falls below ``DAMPING_FLOOR``,
  or ``max_iter`` sweeps have run.  They run on float lists aligned
  with the target's support, and a point is built only once, at exit.

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
from .simplex import SparsePoint, _checked_all, _normalized, _point_on, _total, l1_distance, point_to_obj

#: Damping lam below which a sweep cannot move the iterate measurably.
DAMPING_FLOOR = 1e-14
#: Share of the tolerance each stage of a staged inverse must meet, so
#: that the composed residual meets the whole of it.
STAGE_TOL = 1.0 / 16.0
#: Balance below which the scalar root stops once a Newton step no
#: longer halves it: rounding, not c, decides it there.
ROOT_NOISE = 2.0**-40
#: Most steps of the scalar root: 200 halvings shrink [0, 1] below
#: 1e-60, and Newton's steps take a handful.
_ROOT_STEPS = 200


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
    """A preimage of y under op, by the route op's structure gives.

    - ``structure`` recorded (example31, example32 and their convex
      combinations): the structured solve, one scalar root in
      c = 1 - sum_i x_i^2, then the coordinates in order, the residual
      taken on op itself.  The method is ``"scalar"``, or
      ``"triangular"`` where example31's weight w31 is zero: there the
      root is c = 0 at once.  Only the support of y is solved: a zero
      target mass would solve to zero and add nothing to later
      coordinates, so the preimage keeps y's support (less a root that
      underflows to zero) and the work does not grow with the largest
      index.  It runs no sweep: ``iterations`` is 0, in a result and in
      a ResidualTooLarge alike, so it spends nothing of a staged
      inverse's ``max_iter``.  A residual above ``tol`` raises
      ResidualTooLarge (method ``"scalar"`` or ``"triangular"``) with
      the point found; it never falls back to the sweeps.
    - ``stages`` (op1, op2) (``compose(op1, op2)``, which applies op2
      first): ``invert(op1, y)``, then ``invert(op2, .)`` of that, each
      stage to ``STAGE_TOL * tol``, and the iterations of both summed.
      The stages share ``max_iter``: the second gets what the first
      left.  A stage that misses hands its best iterate on.  The
      residual is taken once, on op, at the final iterate: above ``tol``
      it raises NonConvergence (method ``"staged"``) naming the first
      stage that missed, with that iterate and its residual.
    - Neither (any other operator): ``invert_fixed_point``.

    A tolerance that is not positive (NaN included) is a ValueError.
    """
    if op.structure is not None:
        return _structured(op, y, tol)
    if op.stages is None:
        return invert_fixed_point(op, y, tol, max_iter)
    _check_tolerance(tol)
    _check_domain(op, y.support, "point support")
    stage_tol = max(STAGE_TOL * tol, 5e-324)  # positive, even where STAGE_TOL * tol underflows
    x, iterations, missed = y, 0, None
    for stage, part in enumerate(op.stages, 1):
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
    """``invert(example32(), y, residual_tol)``, kept unexported under this
    name: the benchmark's invert workload and tracer (perfbench/) call it."""
    return _structured(example32(), y, residual_tol)


def _structured(op: VolterraOperator, y: SparsePoint, tol: float) -> InversionResult:
    """The structured solve of ``invert`` for an op that records its
    ``structure`` (w31, w32): the coordinates at the root c of
    ``_scalar_root``, checked and normalized as ``make_point`` would, the
    residual taken on op.  The structure picks only the method label."""
    _check_tolerance(tol)
    _check_domain(op, y.support, "point support")
    support = y.support
    method = "scalar" if op.structure[0] else "triangular"
    xm = _normalized(_checked_all(support, _scalar_root(op.structure, y.masses)))
    residual = _image_residual(support, xm, op.values(xm, support), y.masses)
    preimage = _point_on(support, xm)
    if residual > tol:
        raise ResidualTooLarge(f"{method} inverse misses the target", preimage, residual, 0, method)
    return InversionResult(preimage=preimage, residual=residual, iterations=0, method=method)


def _scalar_root(structure: tuple, target) -> list[float]:
    """The coordinates solved at the root c in [0, 1] of the balance
    sum_k x_k (1 - x_k) - c, for weights (w31, w32).  Where w31 is zero,
    ``_coordinates`` adds no balance, so it reads 0 at c = 0 and the
    roots at c = 0 come back at once: example32's triangular solve.

    With c = 1 - sum_i x_i^2, the coordinates solved at any c balance
    exactly when c = sum_k x_k (1 - x_k), that is, when they add up to 1
    with sum_k x_k^2 = 1 - c: the y_k add up to 1.  The balance, not the
    sum less 1, is the function whose root is taken: where w31 is small
    (a mix with little of example31) the sum hardly moves with c, but the
    balance falls with slope about -1.  It is at least 0 at c = 0 and
    below 0 at c = 1 on example31; where rounding leaves no sign change,
    that end of [0, 1] stands for the root, and the residual check
    decides, as for any other.

    Newton's steps run from the end with the smaller balance, each kept
    inside the bracket the signs so far give; a step that leaves it, or
    a slope that does not fall, bisects instead.  They end at a root, at
    a bracket of two adjacent floats, or at a Newton step that fails to
    halve a balance already below ``ROOT_NOISE``: the rounding of the
    coordinates then decides the balance, not c.
    """
    roots, low, slope = _coordinates(structure, 0.0, target)
    if not low > 0.0:
        return roots
    high, excess, high_slope = _coordinates(structure, 1.0, target)
    c = 1.0
    if low <= -excess:  # Newton's steps start at the end nearer the root
        c, excess = 0.0, low
    else:
        roots, slope = high, high_slope
    lo, hi = 0.0, 1.0
    for _ in range(_ROOT_STEPS):
        if excess > 0.0:
            lo = c
        elif excess < 0.0:
            hi = c
        else:
            break
        step = c - excess / slope if slope < 0.0 else lo
        newton = lo < step < hi
        if not newton:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                break
        c, last = step, excess
        roots, excess, slope = _coordinates(structure, c, target)
        if newton and ROOT_NOISE >= abs(excess) > 0.5 * abs(last):
            break
    return roots


def _coordinates(structure: tuple, c: float, target) -> tuple[list[float], float, float]:
    """The roots, in support order, of w32*t^3 + w31*t^2 + 3*q_k*t = y_k
    with 3*q_k = w31*c + 3*w32*C_k, each given the earlier ones; the
    balance sum_k t_k (1 - t_k) - c at them; and its derivative in c.
    Where w31 is zero, neither is computed: they read -c and -1.0.

    The roots are not checked here.  C_k below zero, which rounding can
    give, counts as zero.
    """
    w31, w32 = structure
    q0 = w31 * c / 3.0
    dq0 = w31 / 3.0  # dq0/dc
    roots = []
    s1 = pairs = 0.0  # sum of the solved coordinates, and of their products over pairs
    d1 = dpairs = 0.0  # their derivatives in c
    balance, slope = 0.0, -1.0
    for yk in target:
        ck = s1 - pairs
        q = q0 + w32 * ck if ck > 0.0 else q0
        if w31 == 0.0:  # example32's cubic, as solved for it since the first release
            t = solve_monotone_cubic(q / w32, yk / w32)
        elif w32 == 0.0:  # example31's quadratic, without cancellation
            t = 2.0 * yk / (3.0 * q + math.hypot(3.0 * q, 2.0 * math.sqrt(w31 * yk)))
        else:
            t = _mixed_root(w31, w32, q, yk)
        if w31:
            dq = dq0 + w32 * (d1 - dpairs) if ck > 0.0 else dq0
            dt = -3.0 * t * dq / ((3.0 * w32 * t + 2.0 * w31) * t + 3.0 * q) if t > 0.0 else 0.0
            dpairs += dt * s1 + t * d1
            d1 += dt
            slope += dt * (1.0 - 2.0 * t)
            balance += t * (1.0 - t)
        roots.append(t)
        pairs += t * s1
        s1 += t
    return roots, balance - c, slope


def _mixed_root(a1: float, a2: float, q: float, target: float) -> float:
    """Root of a2*t^3 + a1*t^2 + 3*q*t = target for a1, a2 > 0, q >= 0.

    Either part alone reaches the target at a larger t than the whole, so
    the smaller of their two roots is above the root; the polynomial is
    increasing and convex for t >= 0, so Newton's steps from there fall
    monotonically onto it, and the first one that does not fall ends
    them.
    """
    t = solve_monotone_cubic(q / a2, target / a2)
    quadratic = 3.0 * q + math.hypot(3.0 * q, 2.0 * math.sqrt(a1 * target))
    if quadratic > 0.0:  # zero only where a1 * target underflows
        t = min(t, 2.0 * target / quadratic)
    while True:
        step = t - (((a2 * t + a1) * t + 3.0 * q) * t - target) / ((3.0 * a2 * t + 2.0 * a1) * t + 3.0 * q)
        if not step < t:
            return t
        t = step


def invert_fixed_point(
    op: VolterraOperator, y: SparsePoint, tol: float = 1e-10, max_iter: int = 10_000
) -> InversionResult:
    """Damped fixed-point search for a preimage of y under op, with a
    one-step Anderson trial.

    Starts at x = y (feasible, and close to the preimage when the
    generating map is small).  A damped sweep mixes the current iterate
    with P_k = y_k / g_k(x) (x_k where g_k <= 1e-12) over the support of
    y, with damping lam = 1/2 at the start, and renormalizes.  At each
    iterate x reached by an accepted trial, an Anderson trial comes
    first: with r = P - x, and P' and r' those of the iterate accepted
    before x, it tries P - gamma*(P - P') for
    gamma = <r, r - r'> / |r - r'|^2, normalized and checked as the
    damped trial is, unless r = r' or a mass of the candidate is not
    finite and above zero.  A trial that would increase the residual is
    rejected, so the iterate is always the best one so far: a rejected
    extrapolation is not tried again at that iterate, and the damped
    sweep follows; a rejected damped sweep halves lam.  An accepted
    trial doubles lam, capped at 1/2, so a few early rejections do not
    slow every later sweep.  Support never extends beyond the support
    of y.  Each trial is one sweep: it evaluates g once, at the trial
    point, over the support of y; the forward image and the next sweep
    reuse those values.  The sweeps work on float lists
    aligned with the support of y, checked and renormalized as
    ``make_point`` would, and the residual is the ``l1_distance`` of the
    forward image from y, summed in its order; a point is built only for
    the result or for ``NonConvergence.best``.

    The sweeps stop when the residual is at most tol, when lam falls
    below ``DAMPING_FLOOR``, or after ``max_iter`` sweeps; the last two
    raise NonConvergence with the best iterate.  A slow but steady run
    is bounded by ``max_iter`` alone: at worst ``max_iter`` sweeps, each
    one ``values`` call over the support of y plus O(|support|) list
    work.  A tolerance that is not positive (NaN included) is a
    ValueError.
    """
    _check_tolerance(tol)
    _check_domain(op, y.support, "point support")
    support, target = y.support, y.masses
    lam = 0.5
    xm = target  # masses of the iterate, aligned with the support of y
    gx = op.values(xm, support)
    residual = _image_residual(support, xm, gx, target)
    iterations = 0
    images = None  # P_k = y_k / g_k(x) at the iterate; step is P - x
    previous = None  # (step, images) of the iterate accepted before it
    while residual > tol:
        if iterations >= max_iter or lam < DAMPING_FLOOR:
            raise NonConvergence(
                f"fixed-point inversion of {op.label!r} stalled",
                _point_on(support, xm), residual, iterations, "fixed_point",
            )
        iterations += 1
        if images is None:
            images = [yk / g if g > 1e-12 else xk for yk, xk, g in zip(target, xm, gx)]
            step = [p - xk for p, xk in zip(images, xm)]
        trial_m = _anderson(step, images, previous) if previous else None
        previous = None  # an extrapolation is tried once at an iterate
        extrapolated = trial_m is not None
        if not extrapolated:
            mixed = [(1.0 - lam) * xk + lam * p for xk, p in zip(xm, images)]
            total = _total(mixed)
            trial_m = _normalized(_checked_all(support, [v / total for v in mixed]))
        trial_g = op.values(trial_m, support)
        trial_residual = _image_residual(support, trial_m, trial_g, target)
        if trial_residual < residual:
            previous, images = (step, images), None
            xm, gx, residual = trial_m, trial_g, trial_residual
            lam = min(2.0 * lam, 0.5)
        elif not extrapolated:
            lam *= 0.5
    return InversionResult(
        preimage=_point_on(support, xm), residual=residual, iterations=iterations, method="fixed_point"
    )


def _anderson(step, images, previous):
    """The one-step Anderson extrapolation P - gamma*(P - P') of the
    images P = y_k / g_k(x) at the iterate, with P' those at the iterate
    accepted before it and gamma = <r, r - r'> / |r - r'|^2 for the steps
    r = P - x and r' = P' - x', normalized as a damped trial is; None
    where |r - r'| is zero or a mass of the candidate is not finite and
    above zero.  A candidate that passes has every mass in (0, 1], so
    ``_checked_all`` would find nothing in it."""
    last_step, last_images = previous
    delta = [r - q for r, q in zip(step, last_step)]
    norm = _total(d * d for d in delta)
    if not norm > 0.0:
        return None
    gamma = _total(r * d for r, d in zip(step, delta)) / norm
    candidate = [p - gamma * (p - q) for p, q in zip(images, last_images)]
    total = _total(candidate)
    if not 0.0 < total < math.inf:
        return None
    scaled = [v / total for v in candidate]
    if not min(scaled) > 0.0:
        return None
    return _normalized(scaled)

