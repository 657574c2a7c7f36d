"""Volterra-type operators and their validity conditions.

An operator V acts on a simplex point coordinate-wise through a
generating map f = (f_1, f_2, ...):

    (Vx)_k = x_k * (1 + f_k(x)) = x_k * g_k(x).

An operator is its generating map: one callable plus an optional
domain bound, ``VolterraOperator(fn, max_index)``, where
``fn(indices, X)`` returns the growth factors [g_k(x) for k in indices]
and ``X[j]`` is the mass of x at ``indices[j]``.  Every image is
x_k * g_k: a small factor (x_1^2 for example32) rebuilt as
1 + (g_k - 1) would cancel.  Only the checkers and the pair
functional, which speak of f, take g - 1.  ``X[j]`` is a float for one
point, or a length-N row for a block of N points: one body, written
with elementwise arithmetic only, serves both.  Every
consumer evaluates g through ``VolterraOperator.values``: ``apply``,
``pair_condition_value``, the inverters and trajectories one point at
a time on the point's own floats, the checkers a whole block of sampled
points and vertices per call, and the operators nested in ``compose`` and
``convex_combination`` the point or block their own body was given.
``values`` tells the two apart by the argument's ``ndim``: a block is a
(d, N) array, one row per index and one column per point, and anything
else (a tuple or list of floats, or a 1-D array) is one point.  Nothing
is tested against numpy's types, so evaluating one point never imports
numpy.

V maps the simplex into itself, continuously and with every face
invariant, exactly when the generating map satisfies four conditions:

    1. f is continuous (certified for the library's own maps, which are
       continuous by construction; any other map gets a perturbation
       smoke test, which cannot prove it);
    2. f_k(x) >= -1 for every k;
    3. sum_k x_k * f_k(x) = 0 for every x;
    4. f_k(x) > -1 strictly on the relative interior of every face.

Conditions 2-4 are decidable pointwise, so the checker evaluates them on
seeded uniform samples of a face plus a deterministic probe set (the
face's vertices and barycenter).  Failures are reported with a concrete
witness point, never raised; the report classes live in ``reports``,
which the checkers import on their first call.  Each point's values go
through the same floating-point operations, in the same order, as
one-point evaluation, so a report does not depend on the block form.

A further pairwise condition,

    sum_k x_k f_k(y) + sum_k y_k f_k(x) <= 0   for all x, y,

is sufficient (but not necessary) for V to be a bijection of the
simplex; ``check_pair_condition`` samples it the same way.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable, Sequence

from . import _numpy as np
from .errors import (
    DomainViolation,
    LambdaOutOfRange,
    NegativeCoordinate,
    NormalizationFailure,
)
from .simplex import FaceSpec, SparsePoint, _index, _point_on, _read, _total, _within, sample_face_block, vertex

#: Negative image coordinates beyond this magnitude raise NegativeCoordinate.
NEGATIVE_TOLERANCE = 1e-12
#: Raw image totals deviating from 1 beyond this raise NormalizationFailure.
NORMALIZATION_TOLERANCE = 1e-9
#: Sampled pair-condition values above this fail the pairwise check.
PAIR_TOLERANCE = 1e-12
#: Largest l1 size of the nudge the continuity smoke test gives a sample.
PERTURBATION = 1e-6
#: Largest l1 response to that nudge the continuity smoke test passes.
CONTINUITY_BOUND = 1e-3
#: Most ``compose`` and ``convex`` levels an operator may nest.  Every
#: level adds frames to each evaluation of the map, and a few hundred
#: levels end in RecursionError.
MAX_NESTING = 64
#: Most vertices the checkers evaluate in one block.  A larger face's
#: vertices go in pieces, so no block grows with the square of the face.
_VERTEX_BLOCK = 256


class VolterraOperator:
    """An operator, held as its generating map: the functionals f_k as
    one callable, and the label reports name it by.

    ``fn(indices, X)`` returns [g_k(x) = 1 + f_k(x) for k in indices]
    as a list, a tuple or an array, where ``X[j]`` is the mass of x at
    ``indices[j]``; the indices ascend and cover the support of x.
    ``X[j]`` is a float for one point, or row j of a (d, N) block of N
    points, and one body serves both: it should use only elementwise
    arithmetic on the masses (``np.where`` or a loop over the elements,
    not an ``if`` on a value or a ``math`` function of a row).  A body
    that raises on a block is evaluated a point at a time instead, with
    the same reports, only slower.
    A map may instead treat a block (``X.ndim == 2``) as one array and
    return an array of X's shape, if each point keeps its one-point
    bits: sums over the index axis then add rows top to bottom, as
    ``_ordered_sum`` does.
    ``max_index`` n, an index, declares the domain 1..n, the face of a
    finite-dimensional operator: points and faces beyond it raise
    DomainViolation.  ``depth`` counts the ``compose`` and ``convex``
    levels the operator nests, 0 for any other.  ``continuous`` is False
    on an operator made here; the library sets it on the operators it
    builds from continuous pieces (polynomials, the sine map, the
    identity, and ``compose`` and ``convex`` of two such operators),
    whose continuity ``check_conditions`` then certifies instead of
    testing it.  ``inversion.invert`` reads two attributes, set by the
    library's constructors from the operator's structure, never from its
    label.  ``structure`` is None, or the weights (w31, w32) of a map of
    the form

        g_k(x) = w31*(1 + x_k - sum_i x_i^2) + w32*(x_k^2 + 3*C_k(x)),

    example31's growth factor and example32's, where
    C_k = sum_{i<k} x_i - sum_{i<j<k} x_i x_j: (1, 0) on example31,
    (0, 1) on example32, and lam*r1 + (1-lam)*r2 on a convex combination
    of two such operators.  ``stages`` is None, or the pair (op1, op2) on
    ``compose(op1, op2)``, inverted stage by stage.  An operator with
    neither is inverted by the fixed-point sweeps.  Immutable by
    convention.
    """

    __slots__ = ("fn", "max_index", "label", "depth", "continuous", "structure", "stages")

    def __init__(self, fn: Callable[[Sequence[int], Sequence], Sequence], max_index: int | None = None,
                 label: str = "operator"):
        self.fn = fn
        self.max_index = None if max_index is None else _read(_index, max_index, "max_index")
        self.label = label
        self.depth = 0
        self.continuous = False
        self.structure = None
        self.stages = None

    def values(self, X, indices: Sequence[int]):
        """g over ``indices`` at one point or at every column of a block.

        X is one point's masses aligned with ``indices`` (the result is
        the map's list or tuple of floats as is, or its array's
        ``tolist()``) or a (len(indices), N) block of N points, one row
        per index, told apart by ``ndim`` (the result is a new C-ordered
        float array of X's shape, row j holding g at ``indices[j]``: the
        map's array of that shape copied at once, or its rows one by
        one, so the caller may overwrite it).  A block of points as rows
        is read as columns, with no error if square.  A map that returns
        the wrong number of values raises ValueError.
        """
        out = self.fn(indices, X)
        if len(out) != len(indices):
            raise ValueError(f"generating map returned {len(out)} values for {len(indices)} indices")
        if getattr(X, "ndim", 1) == 2:
            if getattr(out, "shape", None) == X.shape:
                return np.array(out, dtype=float, order="C")
            block = np.empty(X.shape)
            for j, row in enumerate(out):
                block[j] = row
            return block
        return out if isinstance(out, (list, tuple)) else out.tolist()

    def f(self, k: int, x: SparsePoint) -> float:
        """f_k(x); DomainViolation when k or the support of x lies past
        the declared domain, as in ``apply``."""
        indices = tuple(sorted({k, *x.support}))
        _check_domain(self, indices, "index set")
        gvals = self.values([x.mass(i) for i in indices], indices)
        return gvals[indices.index(k)] - 1.0


# The class's former name, kept unexported: the benchmark's tracer
# (perfbench/tracing.py) wraps ``generating.GeneratingMap.values``.
GeneratingMap = VolterraOperator


def identity_operator() -> VolterraOperator:
    """The operator with g identically one; applies as the identity."""
    return _continuous(lambda ks, X: [1.0] * len(ks), label="identity")


def _continuous(fn, max_index: int | None = None, label: str = "operator") -> VolterraOperator:
    """``VolterraOperator(fn, max_index, label)`` marked continuous: for
    the library's operators, whose bodies are continuous by
    construction."""
    op = VolterraOperator(fn, max_index, label)
    op.continuous = True
    return op


def _check_domain(op: VolterraOperator, indices: Sequence[int], what: str) -> None:
    """DomainViolation, naming ``what``, the number of the ascending
    ``indices`` and the first of them past op's declared domain
    1..max_index, unless the last of them lies in it."""
    n = op.max_index
    if n is not None and indices and indices[-1] > n:
        raise DomainViolation(
            f"{what} of size {len(indices)} has index {indices[bisect_right(indices, n)]} "
            f"outside the declared domain 1..{n} of operator {op.label!r}"
        )


def apply(op: VolterraOperator, x: SparsePoint) -> SparsePoint:
    """Apply (Vx)_k = x_k*g_k(x) over the support of x.

    The image is returned with its raw masses: no renormalization is
    performed, so callers can observe the exact image total.  A
    coordinate below -NEGATIVE_TOLERANCE raises NegativeCoordinate (the
    lower-bound condition failed at x); a raw total off 1 by more than
    NORMALIZATION_TOLERANCE raises NormalizationFailure (the weighted
    balance condition failed at x).  Coordinates within the negative
    tolerance are clamped to zero and dropped, so the image support is
    always contained in the support of x.
    """
    _check_domain(op, x.support, "point support")
    gvals = op.values(x.masses, x.support)
    raw = [m * g for m, g in zip(x.masses, gvals)]
    masses = _checked_masses(x.support, raw)
    # Only masses all above zero come back as the raw list itself.
    return SparsePoint(x.support, masses) if masses is raw else _point_on(x.support, masses)


def _image_residual(support: Sequence[int], masses, gvals, target: Sequence[float]) -> float:
    """``l1_distance(apply(op, x), y)`` without building a point, where x
    has ``masses`` and y has masses ``target`` on ``support`` and
    ``gvals`` are op's values at x.

    The image is checked as ``apply`` checks it.  The sum runs in
    ``l1_distance``'s order: |v - y_k| over the kept image coordinates in
    support order, then y_k over the coordinates the image drops.
    """
    image = _checked_masses(support, [m * g for m, g in zip(masses, gvals)])
    s = 0.0
    for v, t in zip(image, target):
        if v > 0.0:
            s += abs(v - t)
    if 0.0 in image:
        for v, t in zip(image, target):
            if v == 0.0:
                s += t
    return s


def _checked_masses(indices: Sequence[int], raw):
    """Raw image masses, floats or the length-N rows of a block,
    checked as ``apply`` describes, with the ones not above zero set to
    zero.  A block comes back as a new (d, N) array; its first entry
    below the tolerance in row-major order is searched for only when its
    ``min`` is not at or above it, and each column is totalled top to
    bottom by ``_ordered_sum``.  One point's masses
    are checked by one C-level ``min`` and their total, and come back
    as they are, no copy, when every one is above zero; the coordinates
    are visited one by one only to find the first one below the
    tolerance."""
    if len(raw) and getattr(raw[0], "ndim", 0):
        raw = np.ascontiguousarray(raw)
        if not raw.min(initial=0.0) >= -NEGATIVE_TOLERANCE:  # an entry below it, or a NaN
            low = np.argwhere(raw < -NEGATIVE_TOLERANCE)
            if len(low):
                j, n = low[0]
                raise NegativeCoordinate(indices[j], float(raw[j, n]))
        total = _ordered_sum(raw)
        off = np.flatnonzero(~(np.abs(total - 1.0) <= NORMALIZATION_TOLERANCE))
        if len(off):
            raise NormalizationFailure(float(total[off[0]]), NORMALIZATION_TOLERANCE)
        return np.where(raw > 0.0, raw, 0.0)
    low = min(raw, default=0.0)
    if not low >= -NEGATIVE_TOLERANCE:  # a coordinate below it, or a NaN first
        for k, v in zip(indices, raw):
            if v < -NEGATIVE_TOLERANCE:
                raise NegativeCoordinate(k, v)
    total = _total(raw)
    if not abs(total - 1.0) <= NORMALIZATION_TOLERANCE:
        raise NormalizationFailure(total, NORMALIZATION_TOLERANCE)
    return raw if low > 0.0 else [v if v > 0.0 else 0.0 for v in raw]


def is_fixed_point(op: VolterraOperator, x: SparsePoint, tol: float) -> bool:
    _check_tolerance(tol)
    return _within(apply(op, x), x, tol)


def _check_tolerance(tol: float) -> None:
    """ValueError unless ``tol > 0``, which a NaN fails too."""
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")


def pair_condition_value(op: VolterraOperator, x: SparsePoint, y: SparsePoint) -> float:
    """sum_k x_k f_k(y) + sum_k y_k f_k(x) over the union of supports.

    Nonpositive values for all pairs are sufficient for bijectivity.
    The implementation is literally symmetric in (x, y).
    """
    _check_domain(op, x.support, "point support")
    _check_domain(op, y.support, "point support")
    union = tuple(sorted({*x.support, *y.support}))
    xm, ym = ([d.get(k, 0.0) for k in union] for d in (x.as_dict(), y.as_dict()))
    gy = op.values(ym, union)
    gx = op.values(xm, union)
    return _support_sum(xm, gy) + _support_sum(ym, gx)


def _support_sum(masses, gvals) -> float:
    """sum_k m_k (g_k - 1) in index order over the positive masses only."""
    s = 0.0
    for m, g in zip(masses, gvals):
        if m > 0.0:
            s += m * (g - 1.0)
    return s


def _perturb_block(X: np.ndarray, size: float, rng: np.random.Generator) -> np.ndarray:
    """Nearby interior points, row by row, at l1 distance at most ``size``.

    A direction with zero l1 norm (a one-index face) leaves its row as is.
    """
    D = rng.standard_normal(X.shape)
    D -= D.mean(axis=1, keepdims=True)
    norm = np.abs(D).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        D *= (size / norm)[:, None]
        # Keep every coordinate strictly positive: scale a row by its
        # headroom when that is below 1 (scaling by 1.0 changes nothing).
        headroom = X / (-2.0 * D)
        headroom[~(D < 0.0)] = np.inf
        D *= np.minimum(headroom.min(axis=1), 1.0)[:, None]
    D += X
    still = norm == 0.0
    D[still] = X[still]
    return D


def _first(values: np.ndarray, better) -> int | None:
    """Index of the worst entry: the first NaN, else the first entry that
    beats every earlier one under the strict comparison ``better``, or
    None when every entry is -inf (``np.greater``) or inf (``np.less``)."""
    i = int(np.argmax(values) if better is np.greater else np.argmin(values))  # either stops at a NaN
    return None if values[i] == (-np.inf if better is np.greater else np.inf) else i


def _worse(value: float, than: float) -> bool:
    """Whether a pair-functional value beats ``than`` as a maximum: it is
    larger, or NaN where ``than`` is not."""
    return value > than or (math.isnan(value) and not math.isnan(than))


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sums over the outer axis of a C-ordered array, such as the column
    sums of a (d, N) block, each added top to bottom from 0.0 as a Python
    loop adds one point's terms.  Reduced over its outer axis, the array
    adds its slices one after another; a single output numpy would sum
    pairwise, so it goes through ``cumsum`` (several times slower than
    the reduction on a block)."""
    total = np.cumsum(terms, axis=0)[-1] if terms.size == len(terms) > 0 else np.add.reduce(terms)
    total += 0.0  # -0.0 becomes 0.0, as it does for a sum started from 0.0
    return total


def _evaluate(op: VolterraOperator, indices: tuple[int, ...], *blocks, lag: int = 0) -> list[np.ndarray]:
    """f = g - 1 at every column of each C-ordered (d, N) block, in the
    block's layout, one ``values`` call per block, taken in place on the
    copy ``values`` returns.

    Should a block raise, the points are evaluated one at a time
    instead, in the order in which the checkers visit them, so the
    exception that surfaces is the one the first failing point raises:
    column by column, with column n of a later block right after column
    n + ``lag`` of the first.
    """
    try:
        out = [op.values(X, indices) for X in blocks]
    except Exception:  # re-raised below, by the first point that fails
        out = [np.empty(X.shape) for X in blocks]
        for n in range(blocks[0].shape[1]):
            for i, (X, G) in enumerate(zip(blocks, out)):
                m = n - lag if i else n
                if 0 <= m < X.shape[1]:
                    G[:, m] = op.values(X[:, m].tolist(), indices)
    return [np.subtract(G, 1.0, out=G) for G in out]


def _with_vertices(d: int, start: int, stop: int, before: int = 0, after: int = 0) -> np.ndarray:
    """A C-ordered (d, before + (stop - start) + after) block whose
    columns from ``before`` on are the vertices start..stop-1 of a face of
    d indices (as positions), one 1.0 each; the other columns are the
    caller's to fill."""
    block = np.empty((d, before + stop - start + after))
    block[:, before:before + stop - start] = 0.0
    block[np.arange(start, stop), np.arange(before, before + stop - start)] = 1.0
    return block


def check_conditions(
    op: VolterraOperator,
    face: FaceSpec,
    samples: int = 1000,
    seed: int = 0,
    margin: float = 1e-9,
) -> ConditionReport:
    """Sample-based check of the four validity conditions on a face.

    Uniform interior samples are drawn from riS_face; the face's
    vertices and barycenter are always evaluated as well (vertices for
    the two boundary-safe conditions, the barycenter for all four).
    The strict interior bound is tested against -1 + margin; an exact
    boundary hit counts as a failure.  The continuity of a map the
    library built (``VolterraOperator.continuous``) is certified: its
    verdict passes with worst value 0.0 and ``certified`` set, and no
    point is evaluated for it; its witness is the barycenter, the first
    point, which a response of 0.0 at every point would name too.  Any
    other map gets a smoke test, not a certificate: each sample is
    perturbed by at most PERTURBATION in l1, and a response above
    CONTINUITY_BOUND fails.
    The perturbation is drawn after the samples, so both kinds of map
    get the same samples and the same verdicts on conditions 2-4.
    Points are evaluated as one block, one column per point: the
    barycenter, the samples, then the vertices of a face of at most
    ``_VERTEX_BLOCK`` indices, the rule ``check_pair_condition`` keeps;
    a wider face's vertices go in pieces of their own, and the perturbed
    points in one more block.  The balance adds a point's terms in
    index order, as ``apply`` does.  Ties go to the first point, in the
    order barycenter, samples, vertices.  A NaN value is worse than any
    number, so the first NaN point is the witness and its verdict fails.
    A failing evaluation raises the exception of the first point that
    fails in that order, each perturbed point right after its own.
    Neither the face size nor ``samples`` is bounded here; only the CLI
    bounds their product (``cli.MAX_SAMPLE_CELLS``).
    """
    from .reports import ConditionReport, ConditionVerdict

    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_domain(op, face.indices, "face")
    rng = np.random.default_rng(seed)
    indices = face.indices
    d = len(indices)
    probed = 1 + samples
    first = d if d <= _VERTEX_BLOCK else 0  # a wider face's vertices go in pieces
    points = _with_vertices(d, 0, first, before=probed)
    points[:, 0] = 1.0 / d
    points[:, 1:probed] = sample_face_block(face, rng, samples).T
    interior = points[:, :probed]
    blocks = [points]
    if not op.continuous:
        nudged = _perturb_block(interior.T, PERTURBATION, rng)
        blocks.append(np.array(nudged.T, order="C"))
    f, *nudged_f = _evaluate(op, indices, *blocks)
    if nudged_f:
        # Each point's |df| goes back to a C-ordered row, in the spent
        # nudged rows, and is summed as numpy sums such a row.
        (f_nudged,) = nudged_f
        f_nudged -= f[:, :probed]
        wobble = np.abs(f_nudged.T, out=nudged).sum(axis=1)
    lowest = [f.min(axis=0)]
    balance = [_ordered_sum(np.multiply(points, f, out=f))]
    for start in range(first, d, _VERTEX_BLOCK):
        x_vert = _with_vertices(d, start, min(start + _VERTEX_BLOCK, d))
        (f_vert,) = _evaluate(op, indices, x_vert)
        lowest.append(f_vert.min(axis=0))
        balance.append(_ordered_sum(np.multiply(x_vert, f_vert, out=f_vert)))
    lowest = np.concatenate(lowest)
    balance = np.abs(np.concatenate(balance))

    def verdict(name, values, better, passes):
        i = _first(values, better)
        if i is None:
            worst, witness = (-np.inf if better is np.greater else np.inf), None
        else:
            worst = float(values[i])
            witness = _point_on(indices, interior[:, i].tolist()) if i < probed else vertex(indices[i - probed])
        return ConditionVerdict(
            condition=name,
            passed=passes(worst),
            worst_value=worst,
            witness=witness,
        )

    if nudged_f:
        continuity = verdict("continuity_smoke", wobble, np.greater, lambda w: w <= CONTINUITY_BOUND)
    else:
        continuity = ConditionVerdict(
            condition="continuity_smoke", passed=True, worst_value=0.0, witness=face.barycenter(), certified=True
        )
    return ConditionReport(
        face=face,
        samples=samples,
        seed=seed,
        margin=margin,
        continuity=continuity,
        lower_bound=verdict("mass_lower_bound", lowest, np.less,
                            lambda w: w >= -1.0 - NEGATIVE_TOLERANCE),
        balance=verdict("weighted_balance", balance, np.greater,
                        lambda w: w <= NORMALIZATION_TOLERANCE),
        strict_bound=verdict("interior_strict_bound", lowest[:probed], np.less,
                             lambda w: w > -1.0 + margin),
    )


def check_pair_condition(
    op: VolterraOperator, face: FaceSpec, samples: int = 1000, seed: int = 0
) -> PairConditionReport:
    """Maximize the pair functional over sampled pairs plus vertex pairs.

    All vertex pairs of the face are always evaluated: counterexamples
    to the pairwise condition typically sit at extremal points.  Ties go
    to the first pair, vertex pairs (a, b) with a <= b in index order
    first, then the samples; a NaN value beats any number, so the first
    NaN pair is the witness and the check fails.  The points go in two
    blocks, one column per point: the face's vertices, when it has at
    most ``_VERTEX_BLOCK`` indices, then the y samples; and the x
    samples.  A wider face's vertex pairs go in ``_best_vertex_pair``'s
    pieces.  A failing evaluation raises the exception of the first
    point that fails, in the order pair by pair evaluation visits them:
    the vertices in index order, then y before x for each sampled pair.
    Neither the face size nor ``samples`` is bounded here; only the CLI
    bounds their product (``cli.MAX_SAMPLE_CELLS``).
    """
    from .reports import PairConditionReport

    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_domain(op, face.indices, "face")
    rng = np.random.default_rng(seed)
    indices = face.indices
    d = len(indices)
    drawn = sample_face_block(face, rng, 2 * samples)
    xs, ys = drawn[0::2], drawn[1::2]
    lead = d if d <= _VERTEX_BLOCK else 0
    y_cols = _with_vertices(d, 0, lead, after=samples)
    y_cols[:, lead:] = ys.T
    x_cols = np.array(xs.T, order="C")
    pieces = None if lead else _best_vertex_pair(op, indices)  # a wider face's vertices come first
    fy, fx = _evaluate(op, indices, y_cols, x_cols, lag=lead)
    best, (a, b) = pieces or _best_vertex_pair(op, indices, fy[:, :lead])
    witness = (vertex(indices[a]), vertex(indices[b]))
    sampled = _ordered_sum(np.multiply(x_cols, fy[:, lead:], out=x_cols))
    sampled += _ordered_sum(np.multiply(y_cols[:, lead:], fx, out=fx))
    n = _first(sampled, np.greater)
    if n is not None and _worse(sampled[n], best):  # the samples come after every vertex pair
        best, witness = float(sampled[n]), tuple(_point_on(indices, B[n].tolist()) for B in (xs, ys))
    return PairConditionReport(face=face, samples=samples, seed=seed, max_value=best, witness=witness)


def _best_vertex_pair(
    op: VolterraOperator, indices: tuple[int, ...], at_vertices=None
) -> tuple[float, tuple[int, int]]:
    """The largest f_a(e_b) + f_b(e_a) over vertex pairs a <= b (as
    positions in ``indices``) and the first pair in index order to reach
    it, where a NaN beats any number; (0, 0) stands in when nothing
    beats -inf.

    ``at_vertices``, when given, holds f_a(e_b) at [a, b] for every
    vertex of a face of at most _VERTEX_BLOCK indices, evaluated by the
    caller in its own block, and the face is one piece.  Otherwise the
    pairs go in pieces of at most two runs of _VERTEX_BLOCK vertices,
    each evaluated on its own indices only: a zero mass adds nothing, so
    f_a(e_b) is the same on any index set that holds a and b.
    """
    d = len(indices)
    best, where = -np.inf, (0, 0)
    for i in range(0, d, _VERTEX_BLOCK):
        left = np.arange(i, min(i + _VERTEX_BLOCK, d))
        for j in range(i, d, _VERTEX_BLOCK):
            right = np.arange(j, min(j + _VERTEX_BLOCK, d))
            pos = left if j == i else np.concatenate((left, right))
            f = at_vertices
            if f is None:
                (f,) = _evaluate(op, tuple(indices[p] for p in pos), np.eye(len(pos)))
            # f[a, b] = f_a(e_b), so a vertex pair adds f and its transpose.
            pairs = (0.0 + f) + (0.0 + f.T)
            if j == i:
                a, b = np.triu_indices(len(pos))
            else:
                a, b = np.divmod(np.arange(len(left) * len(right)), len(right))
                b += len(left)
            k = _first(pairs[a, b], np.greater)
            if k is None:
                continue
            value, pair = float(pairs[a[k], b[k]]), (int(pos[a[k]]), int(pos[b[k]]))
            if _worse(value, best) or (pair < where and not _worse(best, value)):
                best, where = value, pair
    return best, where


def compose(op1: VolterraOperator, op2: VolterraOperator) -> VolterraOperator:
    """The operator applying op2 first, then op1.

    Its growth factor is the product g_k(x) = g2_k(x) * g1_k(V2 x),
    which agrees with (V1(V2 x))_k / x_k wherever x_k > 0 and stays
    defined on all of the face (no division), so vertex probes work.
    """
    def fn(ks: Sequence[int], X) -> list:
        g2 = op2.values(X, ks)
        if getattr(X, "ndim", 1) == 2:
            return g2 * op1.values(_checked_masses(ks, X * g2), ks)
        image = _checked_masses(ks, [m * g for m, g in zip(X, g2)])
        g1 = op1.values(image, ks)
        return [b * a for b, a in zip(g2, g1)]

    op = _nested(fn, op1, op2, f"compose({op1.label}, {op2.label})")
    op.stages = (op1, op2)
    return op


def convex_combination(
    op1: VolterraOperator, op2: VolterraOperator, lam: float
) -> VolterraOperator:
    """Growth factor lam*g1 + (1-lam)*g2; images mix coordinate-wise.

    Where both operators record a ``structure``, so does the mix: the
    weights mixed the same way, or the one record both share.
    """
    if not 0.0 <= lam <= 1.0:
        raise LambdaOutOfRange(lam)

    def fn(ks: Sequence[int], X) -> list:
        g1 = op1.values(X, ks)
        g2 = op2.values(X, ks)
        if getattr(X, "ndim", 1) == 2:
            return lam * g1 + (1.0 - lam) * g2
        return [lam * a + (1.0 - lam) * b for a, b in zip(g1, g2)]

    op = _nested(fn, op1, op2, f"convex({lam}*{op1.label} + {1.0 - lam}*{op2.label})")
    r1, r2 = op1.structure, op2.structure
    if r1 is not None and r2 is not None:
        op.structure = r1 if r1 == r2 else tuple(lam * a + (1.0 - lam) * b for a, b in zip(r1, r2))
    return op


def _nested(fn, op1: VolterraOperator, op2: VolterraOperator, label: str) -> VolterraOperator:
    """The operator with map ``fn`` built from op1's and op2's: its
    domain is the one both share (the smaller bound), and it nests one
    level deeper than the deeper of them; it is continuous when both of
    them are.  Past ``MAX_NESTING`` levels, ValueError."""
    depth = 1 + max(op1.depth, op2.depth)
    if depth > MAX_NESTING:
        raise ValueError(f"operator nests more than {MAX_NESTING} compose and convex levels")
    bounds = [n for n in (op1.max_index, op2.max_index) if n is not None]
    op = VolterraOperator(fn, min(bounds, default=None), label)
    op.depth = depth
    op.continuous = op1.continuous and op2.continuous
    return op
