"""Properties of the block protocol and the inverters over generated
faces and points.

A generating map evaluates one point or a block of points with the same
body, so row i of a block evaluation must equal the one-point evaluation
of row i bit for bit; and a block of samples must be the very points
that sequential draws give.  The checkers' worst values and witnesses
are, bit for bit, those of plain loops over one-point evaluations and
``pair_condition_value``.  The fixed-point inverter reports the exact
l1 residual of the point it returns, and its Anderson trials never
raise from a candidate on skew quadratic maps and heavy-tailed targets.
Each cubic root of the triangular inverse of example32 lies within
2 * 2^-52 of the exact rational root,
relative, and the inverse meets every coordinate of an image, however
small, to a relative 8 d 2^-52 on supports of up to 10^4 indices.
example31 and every convex mix of example31 and example32 invert with
no sweep, each coordinate within 64 * 2^-52 / g_k(x) of x_k, relative.
example32's image agrees
with exact rational arithmetic to the last bits, however small its
masses, and example32 composed with itself applies as example32 twice.
Every operator family keeps each face invariant (an image is supported
inside the support of its point), sends a point to an image of total
mass 1, and fixes every vertex exactly.  A skew matrix with entries in [-1, 1] passes the
sampled weighted balance, and cells with a nonzero symmetric part give
a defect witness whose value is x^T B x.  A point's lookups and its
l1 distance to another point agree with a plain dict of its masses,
whatever the two supports share, bit for bit where an image keeps or
drops its point's coordinates.  A skew matrix's map gives, bit for bit,
the ascending-column sums a plain loop gives, for one point and for
every row of a block, at every chunk size.  The matrix reader, bulk
checks and per-cell loops together, gives what a plain cell-by-cell
loop gives, results and errors alike.
Every boundary that takes an index from outside (points, faces, tensor
triples, matrix cells) accepts exactly what ``simplex._index`` accepts,
and every one that takes decimal text exactly what ``simplex._key``
accepts.  The operator of a cubic tensor gives, bit for bit, the values
and errors of the two-step path it replaced.  Malformed command-line
arguments (a count option's text among them, unless ``simplex._count``
reads it, and a float option's, unless ``simplex._number`` reads it),
input files and an unwritable ``--output`` exit 3.
"""

import io
import json
import math
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from volterra import (
    CubicTensor,
    FaceSpec,
    NonConvergence,
    NotVolterra,
    SparsePoint,
    UndefinedTriple,
    VolterraOperator,
    apply,
    check_conditions,
    check_pair_condition,
    compose,
    convex_combination,
    example31,
    example32,
    identity_operator,
    invert,
    invert_fixed_point,
    is_volterra,
    l1_distance,
    make_point,
    operator_from_tensor,
    pair_condition_value,
    point_from_obj,
    quadratic_operator,
    sample_face_rng,
    sine_example,
    solve_monotone_cubic,
    symmetry_defect_witness,
    validate_matrix,
    validate_tensor,
    vertex,
)
from volterra import cli
from volterra.errors import BoundViolation, NonFiniteValue, NotSkew
from volterra import quadratic
from volterra.quadratic import MATRIX_TOLERANCE, SkewMatrix
from volterra import simplex
from volterra.simplex import sample_face_block
from helpers import rand_point, rand_skew_operator, rand_skew_triples, rand_volterra_tensor

_rng = np.random.default_rng(2024)
_skew8 = quadratic_operator(validate_matrix(rand_skew_triples(_rng, 8)))
_tensor5 = operator_from_tensor(rand_volterra_tensor(_rng, 5))

#: name -> (operator, the indices its faces are drawn from)
FAMILIES = {
    "example31": (example31(), range(1, 13)),
    "example32": (example32(), range(1, 13)),
    "sine": (sine_example(), (1, 2)),
    "quadratic": (_skew8, range(1, 11)),  # 9 and 10 lie beyond the matrix
    "tensor": (_tensor5, range(1, 6)),
    "compose": (compose(example31(), _skew8), range(1, 11)),
    "convex": (convex_combination(example32(), _skew8, 0.3), range(1, 11)),
    "identity": (identity_operator(), range(1, 11)),
    "convex31_32": (convex_combination(example31(), example32(), 0.3), range(1, 13)),
    "compose_skew_31": (compose(_skew8, example31()), range(1, 11)),
}


def _block(face: FaceSpec, rows: int, seed: int) -> np.ndarray:
    """Points on the face, some on smaller faces (zero masses) or vertices."""
    rng = np.random.default_rng(seed)
    d = len(face)
    block = np.zeros((rows, d))
    for row in block:
        chosen = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        sub = FaceSpec.of(face.indices[j] for j in chosen)
        row[chosen] = sample_face_block(sub, rng, 1)[0]
    return block


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(FAMILIES)),
    picks=st.sets(st.integers(0, 11), min_size=1, max_size=12),
    rows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    points=st.none(),
)
# One-column blocks, whose sums take the cumsum route of _ordered_sum.
@example(name="example31", picks=set(range(12)), rows=1, seed=0, points=None)
@example(name="convex31_32", picks=set(range(12)), rows=1, seed=1, points=None)
@example(name="compose_skew_31", picks=set(range(10)), rows=1, seed=2, points=None)
# Sine's special points in one block, given as rows: the barycenter of
# {1, 2} (s = 1.0 and f_1 = -1 exactly), e^(1) (x_2 = 0, so f_2 = pi)
# and e^(2) (x_1 = 0).
@example(name="sine", picks={0, 1}, rows=3, seed=0, points=[[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
def test_block_rows_equal_one_point_values(name, picks, rows, seed, points):
    op, pool = FAMILIES[name]
    pool = tuple(pool)
    face = FaceSpec.of(pool[p % len(pool)] for p in picks)
    block = _block(face, rows, seed) if points is None else np.array(points)
    together = op.values(np.ascontiguousarray(block.T), face.indices).T
    one_by_one = np.array([op.values(row.tolist(), face.indices) for row in block])
    assert together.shape == block.shape
    assert together.tobytes() == one_by_one.tobytes()
    # One point may also come as a 1-D array, the nested maps included.
    as_arrays = np.array([op.values(row, face.indices) for row in block])
    assert together.tobytes() == as_arrays.tobytes()


@st.composite
def _faces(draw):
    """An operator family's name and a face drawn from its indices."""
    name = draw(st.sampled_from(sorted(FAMILIES)))
    pool = tuple(FAMILIES[name][1])
    picks = draw(st.sets(st.integers(0, len(pool) - 1), min_size=1, max_size=len(pool)))
    return name, FaceSpec.of(pool[p] for p in picks)


@st.composite
def _points_on_faces(draw):
    """A family's name, a face and a point on the face or on one of its faces."""
    name, face = draw(_faces())
    row = _block(face, 1, draw(st.integers(0, 2**32 - 1)))[0]
    return name, face, make_point(zip(face.indices, row.tolist()))


@settings(max_examples=100, deadline=None)
@given(case=_points_on_faces())
# The sine map sends the barycenter of {1, 2} to e^(2): the image leaves index 1.
@example(case=("sine", FaceSpec.of((1, 2)), make_point({1: 0.5, 2: 0.5})))
def test_face_invariance(case):
    name, _, x = case
    image = apply(FAMILIES[name][0], x)
    assert set(image.support) <= set(x.support)
    assert all(m > 0.0 for m in image.masses)


@settings(max_examples=100, deadline=None)
@given(case=_points_on_faces())
def test_image_normalization(case):
    name, _, x = case
    image = apply(FAMILIES[name][0], x)
    assert abs(math.fsum(image.masses) - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(case=_faces())
@example(case=("sine", FaceSpec.of((1, 2))))
def test_vertex_fixity(case):
    name, face = case
    op = FAMILIES[name][0]
    for k in face:
        assert apply(op, vertex(k)) == vertex(k)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 40), n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_sample_block_equals_sequential_draws(d, n, seed):
    face = FaceSpec.prefix(d)
    block = sample_face_block(face, np.random.default_rng(seed), n)
    sequential = np.random.default_rng(seed)
    expected = []
    for _ in range(n):
        g = sequential.exponential(size=d)
        expected.append(g / g.sum())
    assert block.tobytes() == np.array(expected).tobytes()
    points = np.random.default_rng(seed)
    drawn = np.array([sample_face_rng(face, points).masses for _ in range(n)])
    assert block.tobytes() == drawn.tobytes()


_tensor12 = operator_from_tensor(rand_volterra_tensor(_rng, 12))
# f_k = x_k (1 - x_k) 10^(k mod 9) spans nine decades, so the order in
# which a point's terms are added shows in the bits of its sums; it is
# zero at every vertex, so a sampled pair beats every vertex pair.
_steep = VolterraOperator(
    lambda ks, X: [1.0 + m * (1.0 - m) * 10.0 ** (k % 9) for k, m in zip(ks, X)], label="steep")

#: name -> (operator, the indices its faces are drawn from)
CHECKED = {
    "example31": (example31(), range(1, 41)),
    "example32": (example32(), range(1, 41)),
    "quadratic": (_skew8, range(1, 41)),  # 9..40 lie beyond the matrix
    "tensor": (_tensor12, range(1, 13)),
    "compose": (compose(example31(), _skew8), range(1, 41)),
    "convex": (convex_combination(example32(), _tensor12, 0.3), range(1, 13)),
    "steep": (_steep, range(1, 41)),
    "convex31_32": (convex_combination(example31(), example32(), 0.3), range(1, 41)),
    "compose_skew_31": (compose(_skew8, example31()), range(1, 41)),
}


def _first_to_beat(scored, better, start):
    """The first (value, item) of ``scored`` beating every earlier one."""
    best, where = start, None
    for value, item in scored:
        if better(value, best):
            best, where = value, item
    return best, where


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CHECKED)),
    picks=st.sets(st.integers(0, 39), min_size=1, max_size=40),
    samples=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
@example(name="steep", picks=set(range(40)), samples=1, seed=0)
@example(name="steep", picks=set(range(8)), samples=1, seed=1)
@example(name="compose", picks=set(range(12)), samples=1, seed=2)
@example(name="convex31_32", picks=set(range(40)), samples=1, seed=3)
@example(name="compose_skew_31", picks=set(range(12)), samples=1, seed=4)
def test_reports_equal_a_point_by_point_reference(name, picks, samples, seed):
    """The checkers' block sums give, bit for bit, the worst values and
    witnesses of plain loops over one-point evaluations: balance and
    lower bounds added left to right per point, the pair functional by
    ``pair_condition_value`` per drawn pair."""
    op, pool = CHECKED[name]
    pool = tuple(pool)
    face = FaceSpec.of(pool[p % len(pool)] for p in picks)
    ks = face.indices

    rng = np.random.default_rng(seed)
    interior = [face.barycenter()] + [sample_face_rng(face, rng) for _ in range(samples)]
    vertices = [vertex(k) for k in ks] if len(ks) > 1 else []
    lowest, balance = [], []
    for p in interior + vertices:
        f = [g - 1.0 for g in op.values([p.mass(k) for k in ks], ks)]
        assert not any(math.isnan(v) for v in f)
        low, total = f[0], 0.0
        for v in f[1:]:
            if v < low:
                low = v
        for k, v in zip(ks, f):
            total += p.mass(k) * v
        lowest.append((low, p))
        balance.append((abs(total), p))
    report = check_conditions(op, face, samples=samples, seed=seed)
    for verdict, scored, better, start in (
        (report.lower_bound, lowest, float.__lt__, math.inf),
        (report.strict_bound, lowest[:len(interior)], float.__lt__, math.inf),
        (report.balance, balance, float.__gt__, -math.inf),
    ):
        worst, witness = _first_to_beat(scored, better, start)
        assert (verdict.worst_value.hex(), verdict.witness) == (worst.hex(), witness)

    pairs = [(vertex(a), vertex(b)) for j, a in enumerate(ks) for b in ks[j:]]
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        x = sample_face_rng(face, rng)
        pairs.append((x, sample_face_rng(face, rng)))
    best, witness = _first_to_beat(((pair_condition_value(op, x, y), (x, y)) for x, y in pairs),
                                   float.__gt__, -math.inf)
    report = check_pair_condition(op, face, samples=samples, seed=seed)
    assert (report.max_value.hex(), report.witness) == (best.hex(), witness)


def _weighted(w: dict[int, float]):
    """The point with masses proportional to the weights ``w``."""
    return make_point({k: v / sum(w.values()) for k, v in w.items()})


def _points(max_index: int):
    """Points on up to eight indices of 1..max_index, each mass at least
    about 1e-6 of the largest."""
    weights = st.dictionaries(st.integers(1, max_index), st.floats(1e-6, 1.0), min_size=1, max_size=8)
    return weights.map(_weighted)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["example31", "example32", "skew"]),
    x=_points(8),
    seed=st.integers(0, 2**32 - 1),
    max_iter=st.sampled_from([0, 3, 200]),
)
def test_fixed_point_residual_is_the_distance_of_the_reported_point(name, x, seed, max_iter):
    if name == "skew":
        _, op = rand_skew_operator(np.random.default_rng(seed), 8)
    else:
        op = example31() if name == "example31" else example32()
    y = apply(op, x)
    try:
        result = invert_fixed_point(op, y, max_iter=max_iter)
    except NonConvergence as exc:
        assert exc.residual == l1_distance(apply(op, exc.best), y)
        assert exc.iterations <= max_iter
    else:
        assert result.residual == l1_distance(apply(op, result.preimage), y)
        assert result.residual <= 1e-10
        assert set(result.preimage.support) <= set(y.support)


@st.composite
def _skew_targets(draw):
    """A skew matrix on 1..n for n from 2 to 6, entries in [-1, 1], and a
    target on some of the indices 1..n whose masses span up to twelve
    decades."""
    n = draw(st.integers(2, 6))
    cells = [[k, i, draw(st.floats(-1.0, 1.0))] for k in range(1, n + 1) for i in range(k + 1, n + 1)]
    return quadratic_operator(validate_matrix(cells)), draw(_heavy_tailed_points(n))


#: A skew map and target on which one Anderson candidate has a negative
#: mass, so the damped trial runs in its place.
_NEGATIVE_CANDIDATE = (
    quadratic_operator(validate_matrix([[1, 2, 0.9931454391595396], [1, 3, 0.7737498770386535], [2, 3, -1.0]])),
    _weighted({1: 0.062, 2: 4.4e-6, 3: 0.938}),
)


@settings(max_examples=150, deadline=None)
@given(case=_skew_targets(), tol=st.sampled_from([1e-10, 1e-14]), max_iter=st.sampled_from([3, 10_000]))
@example(case=_NEGATIVE_CANDIDATE, tol=1e-10, max_iter=10_000)
@example(case=_NEGATIVE_CANDIDATE, tol=1e-14, max_iter=10_000)
def test_anderson_trials_never_raise_from_a_candidate(case, tol, max_iter):
    # Each Anderson trial extrapolates from two iterates, and its
    # candidate may have a mass that is negative or not finite; such a
    # candidate is skipped, never checked.  So the sweeps either return a
    # preimage whose residual is the true one, or raise NonConvergence
    # with the true residual of the best iterate: NegativeMass,
    # NonFiniteValue or a ValueError from a candidate fails the test.
    op, y = case
    try:
        result = invert_fixed_point(op, y, tol=tol, max_iter=max_iter)
    except NonConvergence as exc:
        assert exc.iterations <= max_iter
        assert exc.residual == l1_distance(apply(op, exc.best), y) > tol
    else:
        assert result.residual == l1_distance(apply(op, result.preimage), y) <= tol
        assert result.iterations <= max_iter


#: Unit roundoff of a float64 times two: one ulp of 1.
_EPS = 2.0**-52


@st.composite
def _cubic_cases(draw):
    """A coefficient c in [0, 1] (0, uniform, or log-uniform down to
    1e-300) and a target log-uniform on [1e-290, 1 + 3c]."""
    c = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(-300.0, 0.0).map(lambda e: 10.0**e)))
    lo, hi = math.log(1e-290), math.log1p(3.0 * c)
    return c, min(math.exp(lo + draw(st.floats(0.0, 1.0)) * (hi - lo)), 1.0 + 3.0 * c)


@settings(max_examples=300, deadline=None)
@given(case=_cubic_cases())
# sqrt(q*q + c**3) underflows to 0 here and gives a root 2^(2/3) too large.
@example(case=(0.0, 3.87e-267))
def test_monotone_cubic_root_within_two_ulps(case):
    # h(t) = t^3 + 3ct increases, so the exact root r satisfies
    # |t - r| <= 2 * 2^-52 * r exactly when y lies between h(t / (1 + 2^-51))
    # and h(t / (1 - 2^-51)), which rational arithmetic decides exactly.
    c, y = case
    t = Fraction(solve_monotone_cubic(c, y))
    C, two_ulps = Fraction(c), Fraction(2 * _EPS)
    h = lambda s: s**3 + 3 * C * s
    assert h(t / (1 + two_ulps)) <= Fraction(y) <= h(t / (1 - two_ulps))


def _dirichlet_point(d: int, seed: int, decades: float = 0.0, gap: int = 1) -> SparsePoint:
    """A Dirichlet(1) point on d indices spaced up to ``gap`` apart, each
    weight scaled by 10^-u for u uniform on [0, decades]."""
    rng = np.random.default_rng(seed)
    w = rng.exponential(size=d) * 10.0 ** (-decades * rng.random(d))
    indices = np.cumsum(rng.integers(1, gap + 1, size=d))
    return _weighted(dict(zip(indices.tolist(), w.tolist())))


@st.composite
def _large_points(draw):
    """Points on 1 to 10^4 indices whose masses span up to 90 decades, so
    that no image mass falls below about 1e-280."""
    d = draw(st.integers(1, 10_000))
    decades = draw(st.sampled_from([0.0, 10.0, 90.0]))
    return _dirichlet_point(d, draw(st.integers(0, 2**32 - 1)), decades, draw(st.sampled_from([1, 7])))


@settings(max_examples=60, deadline=None)
@given(x=_points(40) | _large_points())
# A tiny first mass: its growth factor x_1^2 is far below 1.
@example(x=_weighted({1: 1e-6, 2: 0.25, 3: 1.0, 4: 1.0, 5: 1.0}))
# Tinier first masses: their image masses x_1^3 lie below 1e-154, where
# sqrt(q*q) underflows, and near 1e-270, where x ** (1/3) is off by
# about 50 ulps.
@example(x=_weighted({1: 1e-60, 2: 1.0}))
@example(x=_weighted({1: 1e-90, 2: 1e-85, 3: 1.0}))
@example(x=_dirichlet_point(10_000, 16))
def test_triangular_round_trip(x):
    # Each coordinate is solved to the last bits, so the forward image of
    # the preimage meets every target coordinate, however small, to a
    # relative 8 d 2^-52, and the l1 residual, the sum of those errors,
    # is at most 8 d 2^-52 (y's masses total 1).
    bound = 8 * len(x) * _EPS
    y = apply(example32(), x)
    result = invert(example32(), y)
    assert result.preimage.support == x.support
    assert result.residual <= bound
    assert l1_distance(result.preimage, x) <= bound
    image = apply(example32(), result.preimage)
    assert result.residual == l1_distance(image, y)
    for got, want in zip(image.masses, y.masses):
        assert abs(got - want) <= bound * want


def _heavy_tailed_points(max_index: int):
    """Points on up to eight indices of 1..max_index whose masses span up
    to twelve decades."""
    weights = st.floats(0.0, 12.0).map(lambda e: 10.0**-e)
    return st.dictionaries(st.integers(1, max_index), weights, min_size=1, max_size=8).map(_weighted)


def _check_structured_round_trip(op, x: SparsePoint, method: str) -> None:
    # Rounding g_k(x) in the forward image moves y_k by about 2^-52 * x_k
    # relative to g_k(x), so a small growth factor keeps few of x_k's
    # digits in y_k; the inverse may lose that much, and no more than a
    # few dozen times it.
    y = apply(op, x)
    result = invert(op, y)
    assert (result.method, result.iterations) == (method, 0)
    assert result.residual == l1_distance(apply(op, result.preimage), y) <= 1e-10
    assert result.preimage.support == x.support
    for got, want, g in zip(result.preimage.masses, x.masses, op.values(x.masses, x.support)):
        assert abs(got - want) <= 64 * _EPS * want / g


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(0.0, 1.0), x=_heavy_tailed_points(12))
# The ends: example32's record alone, and example31's.
@example(lam=0.0, x=_weighted({1: 1.0, 2: 1e-6, 5: 0.3}))
@example(lam=1.0, x=_weighted({1: 1.0, 2: 1e-6, 5: 0.3}))
# So little of example31 that s cannot move the coordinates' sum.
@example(lam=5e-324, x=_weighted({1: 1e-9, 3: 1.0, 4: 1e-3}))
@example(lam=1e-12, x=_weighted({1: 1e-6, 3: 1.0, 4: 1e-3}))
# A point near a vertex, where c = 1 - sum x_i^2 is about 2e-12.
@example(lam=0.5, x=_weighted({2: 1.0, 6: 1e-12}))
def test_convex_example31_example32_round_trip(lam, x):
    op = convex_combination(example31(), example32(), lam)
    _check_structured_round_trip(op, x, "scalar" if lam > 0.0 else "triangular")


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dimension=st.integers(1, 12))
def test_example31_round_trip(data, dimension):
    x = data.draw(_heavy_tailed_points(dimension))
    _check_structured_round_trip(example31(dimension), x, "scalar")


def _spread_points(max_index: int):
    """Points on up to eight indices of 1..max_index whose masses span up
    to eight decades."""
    weights = st.floats(0.0, 8.0).map(lambda e: 10.0**-e)
    return st.dictionaries(st.integers(1, max_index), weights, min_size=1, max_size=8).map(_weighted)


#: A tiny first mass, where x_1 * (1 + (g_1 - 1)) keeps about three digits.
_TINY_FIRST = make_point({1: 3.08e-7, 2: 0.077, 3: 0.307666564, 4: 0.307666564, 5: 0.307666564})


def _example32_exact(x: SparsePoint) -> list[Fraction]:
    """example32's image masses x_k (x_k^2 + 3 sum_{i<k} x_i
    - 3 sum_{i<j<k} x_i x_j) of x's floats, in exact rationals."""
    s1 = pairs = Fraction(0)
    out = []
    for m in map(Fraction, x.masses):
        out.append(m * (m * m + 3 * s1 - 3 * pairs))
        pairs += m * s1
        s1 += m
    return out


@settings(max_examples=100, deadline=None)
@given(x=_spread_points(12))
@example(x=_TINY_FIRST)
def test_example32_image_matches_exact_arithmetic(x):
    image = apply(example32(), x)
    assert image.support == x.support
    for got, want in zip(image.masses, _example32_exact(x)):
        assert abs(Fraction(got) - want) <= Fraction(1e-15) * want


_EXAMPLE32_SQUARED = compose(example32(), example32())


@settings(max_examples=100, deadline=None)
@given(x=_spread_points(6))
@example(x=_TINY_FIRST)
def test_compose_applies_as_its_operators_in_turn(x):
    once = apply(_EXAMPLE32_SQUARED, x)
    twice = apply(example32(), apply(example32(), x))
    assert once.support == twice.support
    for a, b in zip(once.masses, twice.masses):
        assert abs(a - b) <= 1e-14 * b


def _dict_l1(p, q) -> float:
    """l1_distance written out on dicts of the two points' masses."""
    pd, qd = dict(p.items()), dict(q.items())
    s = 0.0
    for k, m in p.items():
        s += abs(m - qd.get(k, 0.0))
    for k, m in q.items():
        if k not in pd:
            s += m
    return s


@st.composite
def _point_pairs(draw):
    """Two points whose supports are equal, nested, disjoint or interleaved."""
    pool = sorted(draw(st.sets(st.integers(1, 10**12), min_size=2, max_size=24)))
    relation = draw(st.sampled_from(["equal", "nested", "disjoint", "interleaved"]))
    if relation == "equal":
        a = b = pool
    elif relation == "nested":
        b = sorted(draw(st.sets(st.sampled_from(pool), min_size=1, max_size=len(pool))))
        a = pool
    elif relation == "disjoint":
        cut = draw(st.integers(1, len(pool) - 1))
        a, b = pool[:cut], pool[cut:]
    else:
        sides = draw(st.lists(st.sampled_from("abc"), min_size=len(pool), max_size=len(pool)))
        a = [k for k, side in zip(pool, sides) if side in "ac"] or pool[:1]
        b = [k for k, side in zip(pool, sides) if side in "bc"] or pool[-1:]
    masses = st.floats(1e-9, 1.0)
    p = SparsePoint(a, draw(st.lists(masses, min_size=len(a), max_size=len(a))))
    q = SparsePoint(b, draw(st.lists(masses, min_size=len(b), max_size=len(b))))
    return (q, p) if draw(st.booleans()) else (p, q)


@settings(max_examples=200, deadline=None)
@given(pair=_point_pairs())
def test_point_lookups_and_l1_distance_match_a_dict(pair):
    p, q = pair
    for point in (p, q):
        reference = dict(zip(point.support, point.masses))
        assert point.as_dict() == reference
        assert list(point.as_dict()) == list(point.support)
        probes = {0, 1, 10**12 + 1, *p.support, *q.support}
        probes |= {k + 1 for k in probes} | {k - 1 for k in probes}
        for k in probes:
            assert point.mass(k) == reference.get(k, 0.0)
            assert (k in point) == (k in reference)
    assert l1_distance(p, q) == _dict_l1(p, q)
    assert l1_distance(q, p) == _dict_l1(q, p)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), dropped=st.integers(1, 5))
def test_l1_distance_of_images_has_the_dict_path_bits(seed, n, dropped):
    """A skew image keeps its point's support, where ``l1_distance`` takes
    its loop over the two mass tuples; a star whose row reaches -1 drops
    the tiny coordinates it clamps, where it takes the dict path."""
    rng = np.random.default_rng(seed)
    x = rand_point(rng, range(1, n + 1))
    image = apply(rand_skew_operator(rng, n)[1], x)
    pairs = [(image, x)]
    star = quadratic_operator(validate_matrix([[1, k, 1.0] for k in range(2, dropped + 2)]))
    y = make_point({1: 1.0, **{k: float(rng.uniform(1e-300, 1e-290)) for k in range(2, dropped + 2)}})
    clamped = apply(star, y)
    assert image.support == x.support and clamped.support == (1,)
    pairs.append((clamped, y))
    for p, q in pairs + [pair[::-1] for pair in pairs]:
        assert l1_distance(p, q).hex() == _dict_l1(p, q).hex()


@st.composite
def _skew_requests(draw):
    """A skew matrix, a request and a block of masses for it.

    The matrix has dimension 1-40 and density 5-100%, and half of them
    are stars: one row full on top of that.  The request ascends and may
    go up to 5 past the dimension; some masses are zero; the block has
    1, 2, 3 or 5 points, and ``chunk`` cells per chunk put chunk
    boundaries inside it.
    """
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.05, 1.0))
    hub = int(rng.integers(1, n + 1)) if draw(st.booleans()) else None
    cells = [[k, i, float(rng.uniform(-1.0, 1.0))]
             for k in range(1, n + 1) for i in range(k + 1, n + 1)
             if hub in (k, i) or rng.random() < density]
    share = draw(st.sampled_from([0.2, 0.6, 1.0]))
    ks = [k for k in range(1, n + 6) if rng.random() < share] or [n]
    block = rng.uniform(0.0, 1.0, size=(draw(st.sampled_from([1, 2, 3, 5])), len(ks)))
    block[rng.random(block.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    return validate_matrix(cells), ks, block, draw(st.sampled_from([1, 16, 200, 1 << 14, 1 << 16]))


def _ascending_sums(matrix, ks, masses) -> list[float]:
    """g_k = 1 + f_k, f_k = sum_i a_ki x_i at one point, each f_k summed
    from +0.0 over the requested i with an entry, in ascending order."""
    out = []
    for k in ks:
        s = 0.0
        for i, m in zip(ks, masses):
            a = matrix.coefficient(k, i)
            if a != 0.0:
                s += a * m
        out.append(1.0 + s)
    return out


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]  # tells -0.0 from 0.0


@settings(max_examples=200, deadline=None)
@given(case=_skew_requests())
def test_quadratic_values_are_the_ascending_sums_bit_for_bit(case):
    matrix, ks, block, chunk = case
    op = quadratic_operator(matrix)
    with mock.patch.object(quadratic, "_CHUNK_CELLS", chunk):
        together = op.values(np.ascontiguousarray(block.T), ks).T
    for row, values in zip(block, together):
        expected = _bits(_ascending_sums(matrix, ks, row.tolist()))
        assert _bits(values) == expected
        assert _bits(op.values(row.tolist(), ks)) == expected


def test_sparse_subset_block_is_the_ascending_sums_at_every_chunk_size():
    """A block on 300 of the 2000 indices of a sparse matrix, where most
    rows keep a term or two, in chunks of one point up to one piece."""
    rng = np.random.default_rng(17)
    k, i = rng.integers(1, 2001, size=(2, 20000))
    cells = {(int(min(a, b)), int(max(a, b))): float(rng.uniform(-1.0, 1.0)) for a, b in zip(k, i) if a != b}
    matrix = validate_matrix([[a, b, v] for (a, b), v in cells.items()])
    ks = sorted(int(v) for v in rng.choice(2000, 300, replace=False) + 1)
    block = rng.uniform(0.0, 1.0, size=(100, len(ks)))
    block[rng.random(block.shape) < 0.3] = 0.0
    expected = [_bits(_ascending_sums(matrix, ks, row.tolist())) for row in block]
    op = quadratic_operator(matrix)
    for chunk in (1, 1 << 14, 1 << 16, 1 << 30):
        with mock.patch.object(quadratic, "_CHUNK_CELLS", chunk):
            together = op.values(np.ascontiguousarray(block.T), ks).T
        assert [_bits(values) for values in together] == expected


@st.composite
def _skew_triples(draw):
    """The dimension and the triples of a skew matrix with entries in
    [-1, 1], the bounds included, each pair given in either orientation
    or both."""
    n = draw(st.integers(2, 8))
    entry = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))
    triples = []
    for k in range(1, n + 1):
        for i in range(k + 1, n + 1):
            v = draw(entry)
            given_as = draw(st.sampled_from(["upper", "lower", "both"]))
            if given_as != "lower":
                triples.append([k, i, v])
            if given_as != "upper":
                triples.append([i, k, -v])
    return n, triples


@settings(max_examples=40, deadline=None)
@given(case=_skew_triples(), seed=st.integers(0, 2**32 - 1))
def test_skew_matrix_passes_the_balance(case, seed):
    n, triples = case
    op = quadratic_operator(validate_matrix(triples))
    report = check_conditions(op, FaceSpec.prefix(n), samples=20, seed=seed)
    assert report.balance.passed, report.balance
    assert report.lower_bound.passed, report.lower_bound


def _has_symmetric_part(cells: dict) -> bool:
    return any(
        abs(v + (0.0 if k == i else cells.get((i, k), 0.0))) > MATRIX_TOLERANCE
        for (k, i), v in cells.items()
    )


@st.composite
def _defective_cells(draw):
    """Raw cells of a matrix with a nonzero symmetric part: a skew
    matrix, part of it mirrored, with a few cells drawn over it (on the
    diagonal or breaking a pair's skewness)."""
    n = draw(st.integers(1, 6))
    value = st.floats(-1.0, 1.0)
    cells = {}
    for k in range(1, n + 1):
        for i in range(k + 1, n + 1):
            if draw(st.booleans()):
                cells[(k, i)] = v = draw(value)
                cells[(i, k)] = -v
    index = st.integers(1, n)
    cells.update(draw(st.dictionaries(st.tuples(index, index), value, min_size=1, max_size=3)))
    assume(_has_symmetric_part(cells))
    return cells


@settings(max_examples=150, deadline=None)
@given(cells=_defective_cells())
def test_symmetry_defect_witness_value_is_the_quadratic_form(cells):
    witness = symmetry_defect_witness([[k, i, v] for (k, i), v in cells.items()])
    assert witness is not None
    x, value = witness
    form = math.fsum(v * x.mass(k) * x.mass(i) for (k, i), v in cells.items())
    assert abs(value - form) <= 1e-15
    assert abs(value) > 0.0


# --- the matrix reader against the cell-by-cell loop -----------------------------
#
# Verbatim copies of the per-cell reader, validate_matrix and
# symmetry_defect_witness as they were before any bulk pass, renamed, less
# the reader's branch for dense numpy arrays, which validate_matrix no
# longer takes.  Well-formed cells take the bulk checks of the code under
# test and any others its per-cell loops, so the generated lists mix both.
# The inputs they are compared on leave out only what the code under test
# rejects and the copies did not: fractional, bool, string or out-of-range
# indices, values that are no numbers, and items that are no list or tuple.

def _cells_from_raw_before(raw) -> dict[tuple[int, int], float]:
    """Normalize an iterable of (k, i, value) triples into a cell map
    with 1-based indices.  A NaN or infinite value raises
    NonFiniteValue.
    """
    cells: dict[tuple[int, int], float] = {}
    for item in raw:
        k, i, v = item
        k, i = int(k), int(i)
        if k < 1 or i < 1:
            raise ValueError(f"matrix indices must be positive, got ({k}, {i})")
        key = (k, i)
        v = float(v)
        if not math.isfinite(v):
            raise NonFiniteValue(key, v)
        if key in cells and cells[key] != v:
            raise ValueError(f"conflicting duplicate entries for cell {key}")
        cells[key] = v
    return cells


def _validate_matrix_before(raw) -> SkewMatrix:
    """Check skew-symmetry, zero diagonal and the unit entry bound.

    Either orientation of a pair may be given; when both are present
    they must be consistent within MATRIX_TOLERANCE.  Returns the
    canonical upper-triangular store.
    """
    cells = _cells_from_raw_before(raw)
    store: dict[tuple[int, int], float] = {}
    for (k, i), v in sorted(cells.items()):
        if k == i:
            if abs(v) > MATRIX_TOLERANCE:
                raise NotSkew((k, i), f"diagonal entry {v!r} is not zero")
            continue
        if k > i and (i, k) in cells:
            continue  # the pair was handled at its upper cell, which sorts first
        lo, hi = (k, i) if k < i else (i, k)
        upper = cells.get((lo, hi))
        lower = cells.get((hi, lo))
        if upper is not None and lower is not None and abs(upper + lower) > MATRIX_TOLERANCE:
            raise NotSkew((lo, hi), f"a[{lo},{hi}]={upper!r} but a[{hi},{lo}]={lower!r}")
        value = upper if upper is not None else -lower
        if abs(value) > 1.0 + MATRIX_TOLERANCE:
            raise BoundViolation((lo, hi), value)
        if value != 0.0:
            store[(lo, hi)] = value
    dimension = max((hi for (_, hi) in store), default=0)
    return SkewMatrix(entries=store, dimension=dimension)


def _symmetry_defect_witness_before(raw) -> tuple[SparsePoint, float] | None:
    """A point where sum_k x_k f_k(x) != 0 for a non-skew matrix.

    Scans the diagonal first: the smallest i with a nonzero b_ii gives
    the vertex e^(i) with value b_ii.  Otherwise the smallest pair
    (i, j) with b_ij + b_ji != 0 gives the uniform point on {i, j} with
    value (b_ii + b_jj + b_ij + b_ji) / 4.  Only the given cells are
    scanned.  Returns None exactly when the symmetric part vanishes
    within MATRIX_TOLERANCE.
    """
    cells = _cells_from_raw_before(raw)
    for i in sorted(r for (r, c) in cells if r == c):
        v = cells[(i, i)]
        if abs(v) > MATRIX_TOLERANCE:
            return vertex(i), v
    for i, j in sorted({(min(r, c), max(r, c)) for (r, c) in cells if r != c}):
        s = cells.get((i, j), 0.0) + cells.get((j, i), 0.0)
        if abs(s) > MATRIX_TOLERANCE:
            value = (s + cells.get((i, i), 0.0) + cells.get((j, j), 0.0)) / 4.0
            return SparsePoint((i, j), (0.5, 0.5)), value
    return None


#: Values of generated cells: inside, on and just beyond the bound and the
#: tolerances, signed zeros, non-finite values and ints.
_CELL_VALUES = st.one_of(
    st.floats(-1.5, 1.5),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 + 5e-13, -1.0 - 2e-12, 5e-13, -3e-12,
                     math.nan, math.inf, -math.inf]),
    st.integers(-2, 2),
)


@st.composite
def _matrix_items(draw):
    """Cells of a skew matrix, each pair given upper, lower, both or
    both with a gap near the tolerance, with drawn cells put in among
    them (diagonal, conflicting, out of bound, non-finite, index 0),
    repeats, items that are no triple, indices as ints or integral
    floats, in any order."""
    n = draw(st.integers(1, 5))
    items = []
    for k in range(1, n + 1):
        for i in range(k + 1, n + 1):
            if not draw(st.booleans()):
                continue
            v = draw(st.one_of(
                st.floats(-1.0, 1.0), st.sampled_from([0.0, 1.0, -1.0, 1.0 + 5e-13, -1.0 - 2e-12])
            ))
            given_as = draw(st.sampled_from(["upper", "lower", "both", "near"]))
            if given_as != "lower":
                items.append([k, i, v])
            if given_as in ("lower", "both"):
                items.append([i, k, -v])
            if given_as == "near":
                items.append([i, k, -v + draw(st.sampled_from([5e-13, -5e-13, 3e-12]))])
    index = st.integers(0 if draw(st.integers(0, 4)) == 0 else 1, n)
    for _ in range(draw(st.integers(0, 3))):
        items.append([draw(index), draw(index), draw(_CELL_VALUES)])
    if items:
        items += [list(items[p]) for p in draw(st.lists(st.integers(0, len(items) - 1), max_size=2))]
    if items and draw(st.integers(0, 9)) == 0:
        items.append(draw(st.sampled_from([[1, 2], [1, 2, 0.5, 0.5], []])))
    items = draw(st.permutations(items))
    floats = draw(st.lists(st.booleans(), min_size=2 * len(items), max_size=2 * len(items)))
    cells = []
    for p, item in enumerate(items):
        if len(item) == 3:
            item = [float(x) if as_float else x for x, as_float in zip(item[:2], floats[2 * p:])] + item[2:]
        cells.append(tuple(item) if draw(st.booleans()) else item)
    return cells


def _outcome(function, raw):
    """What function(raw) returns, or its error's type, witness and text."""
    try:
        return "value", function(raw)
    except ValueError as exc:
        if type(exc) is ValueError:  # a malformed cell: its wording changed
            return "error", ValueError
        where = getattr(exc, "where", getattr(exc, "pair", None))
        return "error", (type(exc), where, str(exc))


@settings(max_examples=400, deadline=None)
@given(raw=_matrix_items())
def test_validate_matrix_matches_the_cell_loop(raw):
    kind, got = _outcome(validate_matrix, raw)
    want_kind, want = _outcome(_validate_matrix_before, raw)
    assert kind == want_kind
    if kind == "error":
        assert got == want
    else:
        assert got.entries == want.entries
        assert got.dimension == want.dimension


@settings(max_examples=300, deadline=None)
@given(raw=_matrix_items())
def test_symmetry_defect_witness_matches_the_cell_loop(raw):
    assert _outcome(symmetry_defect_witness, raw) == _outcome(_symmetry_defect_witness_before, raw)


# --- one rule for an index at every boundary ------------------------------------

#: JSON values and numpy scalars: indices, integral and fractional floats,
#: bools, strings, and ints and floats on both sides of the range.
_INDEX_LIKE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.integers(),
    st.sampled_from([sys.maxsize, sys.maxsize + 1, float(sys.maxsize), 2.0**62, 1e19, -0.0, 2.0, 1.5]),
    st.floats(),
    st.text(max_size=3),
    st.sampled_from(["1", "2", "01", "1_0", "+1", "\u0663"]),
    st.lists(st.integers(1, 3), max_size=2),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)


def _read_by(build):
    """build(), or None if it raises ValueError."""
    try:
        return build()
    except ValueError:
        return None


def _hashable(v) -> bool:
    try:
        hash(v)
    except TypeError:
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(v=_INDEX_LIKE)
@example(v=1.5)  # int() reads it as 1
@example(v=True)
def test_every_boundary_reads_an_index_by_one_rule(v):
    k = simplex._index(v)
    assert k is None or type(k) is int
    other = 2 if k == 1 else 1
    # Where an index is taken: each boundary accepts v exactly when
    # _index does, and keeps the int it reads.
    read = {
        "make_point": _read_by(lambda: make_point([(v, 1.0)]).support),
        "FaceSpec": _read_by(lambda: FaceSpec((v,)).indices),
        "FaceSpec.of": _read_by(lambda: FaceSpec.of([v]).indices),
        "tensor triple": _read_by(lambda: set(validate_tensor([((v, v, v), {1: 1.0})]).coefficients)),
        "JSON tensor triple": _read_by(
            lambda: set(validate_tensor([{"triple": [1, v, 1], "outputs": {"1": 1.0}}]).coefficients)
        ),
        "matrix row": _read_by(lambda: set(validate_matrix([[v, other, 0.5]]).entries)),
        "matrix column": _read_by(lambda: set(validate_matrix([(other, v, 0.5)]).entries)),
    }
    if k is None:
        assert set(read.values()) == {None}, read
    else:
        cell = {(min(k, other), max(k, other))}
        assert read == {
            "make_point": (k,),
            "FaceSpec": (k,),
            "FaceSpec.of": (k,),
            "tensor triple": {(k, k, k)},
            "JSON tensor triple": {tuple(sorted((1, 1, k)))},
            "matrix row": cell,
            "matrix column": cell,
        }
    # Where a key is taken: decimal text, or an index that is no string.
    key = simplex._key(v)
    if not isinstance(v, str):
        assert key == k
    if _hashable(v):
        assert _read_by(lambda: point_from_obj({v: 1.0}).support) == (None if key is None else (key,))
        # The first row's key 1 is read before v, and must not stand in for it.
        rows = {(1, 1, 1): {1: 1.0}, (2, 2, 2): {v: 1.0}}
        assert _read_by(lambda: validate_tensor(rows).coefficients[(2, 2, 2)]) == (None if key is None else {key: 1.0})
    if isinstance(v, str) and not set(v) & set(",. "):
        assert _read_by(lambda: FaceSpec.parse(v).indices) == (None if key is None else (key,))


@settings(max_examples=200, deadline=None)
@given(n=st.one_of(st.integers(1, sys.maxsize), st.integers(max_value=0), st.integers(min_value=sys.maxsize + 1)))
def test_key_reads_the_decimal_text_of_every_index(n):
    want = n if 1 <= n <= sys.maxsize else None
    assert simplex._key(str(n)) == want
    assert simplex._key("00" + str(n)) == want


# --- the grouped cubic form against the two-step path it replaced ---------------
#
# ``_reference_families`` and ``_reference_brackets`` are the former
# ``cubic.tensor_to_canonical`` and ``CanonicalCubicCoeffs.brackets``,
# kept verbatim apart from returning and taking the three families as a
# tuple, and from checking the rows with the former ``is_volterra``, which
# sorted the triples and each row's outputs before it looked for an
# offender.  The old operator's map was the bracket minus one.


def _reference_families(p: CubicTensor):
    for triple in sorted(p.coefficients):
        for k, value in sorted(p.coefficients[triple].items()):
            if k not in triple:
                raise NotVolterra(triple, k, value)
    n = p.dimension
    p_ikk: dict[int, dict[int, float]] = {}
    p_iik: dict[int, dict[int, float]] = {}
    p_ijk: dict[int, dict[tuple[int, int], float]] = {}
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            if i == k:
                continue
            c = p.outputs(i, k, k).get(k, 0.0)
            if c:
                p_ikk.setdefault(k, {})[i] = c
            c = p.outputs(i, i, k).get(k, 0.0)
            if c:
                p_iik.setdefault(k, {})[i] = c
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if k in (i, j):
                    continue
                c = p.outputs(i, j, k).get(k, 0.0)
                if c:
                    p_ijk.setdefault(k, {})[(i, j)] = c
    return p_ikk, p_iik, p_ijk


def _reference_brackets(families, ks, X) -> list:
    p_ikk, p_iik, p_ijk = families
    present = list(zip(ks, X))
    out = []
    for k, xk in present:
        others = [(i, m) for i, m in present if i != k]
        fam_ikk = p_ikk.get(k, {})
        fam_iik = p_iik.get(k, {})
        fam_ijk = p_ijk.get(k, {})
        linear = 0.0
        squares = 0.0
        for i, m in others:
            c = fam_ikk.get(i)
            if c:
                linear = linear + c * m
            c = fam_iik.get(i)
            if c:
                squares = squares + c * m * m
        cross = 0.0
        for (i, mi), (j, mj) in combinations(others, 2):
            c = fam_ijk.get((i, j))
            if c:
                cross = cross + c * mi * mj
        out.append(xk * xk + 3.0 * xk * linear + 3.0 * squares + 6.0 * cross)
    return out


@st.composite
def _raw_tensors(draw):
    """A raw tensor over 1..n, n <= 6: each (i, i, i) row stored or left
    to its default, every other row a distribution on a drawn part of its
    triple.  It may lack one other row, and up to two rows may send half
    their mass to one or two indices outside their triple; those rows
    move to the end of the store in drawn order, so that the store order
    of the offenders need not be their sorted order."""
    n = draw(st.integers(1, 6))
    raw = {}
    for t in combinations_with_replacement(range(1, n + 1), 3):
        if t[0] == t[2]:
            if draw(st.booleans()):
                raw[t] = {t[0]: 1.0}
            continue
        support = draw(st.lists(st.sampled_from(sorted(set(t))), min_size=1, unique=True))
        weights = draw(st.lists(st.integers(1, 8), min_size=len(support), max_size=len(support)))
        raw[t] = {k: w / sum(weights) for k, w in zip(support, weights)}
    if not raw:  # no row names the face 1..1
        raw[(1, 1, 1)] = {1: 1.0}
    kind = draw(st.sampled_from(["missing", "leaking", "missing, leaking", "complete", "complete"]))
    distinct = [t for t in raw if t[0] != t[2]]
    if distinct and "missing" in kind:
        del raw[draw(st.sampled_from(distinct))]
    if "leaking" in kind:
        triples = list(combinations_with_replacement(range(1, n + 1), 3))
        for t in draw(st.lists(st.sampled_from(triples), min_size=1, max_size=2, unique=True)):
            outside = [k for k in range(1, n + 3) if k not in t]
            ks = draw(st.lists(st.sampled_from(outside), min_size=1, max_size=2, unique=True))
            row = raw.pop(t, {t[0]: 1.0})
            raw[t] = {**{j: m / 2 for j, m in row.items()}, **{k: 0.5 / len(ks) for k in ks}}
    return raw


@settings(max_examples=300, deadline=None)
@given(raw=_raw_tensors(), data=st.data())
def test_operator_from_tensor_matches_the_two_step_reference(raw, data):
    p = validate_tensor(raw)
    try:
        families = _reference_families(p)
    except (UndefinedTriple, NotVolterra) as exc:
        with pytest.raises(type(exc)) as info:
            operator_from_tensor(p)
        assert vars(info.value) == vars(exc) and info.value.args == exc.args
        return
    op = operator_from_tensor(p)
    reference = VolterraOperator(lambda ks, X: _reference_brackets(families, ks, X), p.dimension)
    picks = data.draw(st.sets(st.integers(1, p.dimension), min_size=1))
    face = FaceSpec.of(picks)
    block = _block(face, data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2**32 - 1)))
    columns = np.ascontiguousarray(block.T)
    want = reference.values(columns, face.indices)
    assert op.values(columns, face.indices).tobytes() == want.tobytes()
    for row in block:
        got = op.values(row.tolist(), face.indices)
        assert np.array(got).tobytes() == np.array(reference.values(row.tolist(), face.indices)).tobytes()


@settings(max_examples=300, deadline=None)
@given(raw=_raw_tensors())
def test_is_volterra_is_true_exactly_when_the_tensor_builds_an_operator(raw):
    """``is_volterra`` is a bool, true exactly when ``operator_from_tensor``
    raises no NotVolterra; the offender it names is the least (triple, k)
    of a row that leaves its triple, whatever the store order."""
    p = validate_tensor(raw)
    verdict = is_volterra(p)
    assert type(verdict) is bool
    leaks = [(t, k) for t, row in p.coefficients.items() for k in row if k not in t]
    try:
        operator_from_tensor(p)
    except NotVolterra as exc:
        t, k = min(leaks)
        assert not verdict and (exc.triple, exc.k, exc.value) == (t, k, p.coefficients[t][k])
    except UndefinedTriple:
        assert verdict and not leaks
    else:
        assert verdict and not leaks


# --- malformed command lines and files exit 3 ---------------------------------

#: option -> (the count or number rule, the values the option accepts)
_OPTIONS = {
    "--steps": (simplex._count, lambda v: v >= 0),
    "--seed": (simplex._count, lambda v: v >= 0),
    "--samples": (simplex._count, lambda v: v >= 1),
    "--max-iter": (simplex._count, lambda v: v >= 0),
    "--dimension": (simplex._count, lambda v: 1 <= v <= cli.MAX_BUILTIN_DIMENSION),
    "--tol": (simplex._number, lambda v: v > 0.0),
    "--margin": (simplex._number, lambda v: 0.0 <= v < math.inf),
}
#: option -> a command line it belongs to; OP and POINT name valid files.
_HOSTS = {
    "--steps": ["simulate", "--operator", "OP", "--point", "POINT"],
    "--seed": ["check", "--operator", "OP", "--face", "1,2", "--samples", "5"],
    "--samples": ["pair-check", "--operator", "OP", "--face", "1,2"],
    "--max-iter": ["invert", "--operator", "OP", "--point", "POINT"],
    "--dimension": ["builtin", "--name", "example31"],
    "--tol": ["invert", "--operator", "OP", "--point", "POINT"],
    "--margin": ["check", "--operator", "OP", "--face", "1,2", "--samples", "5"],
}
#: Commands that write a report, each on valid inputs.
_WRITERS = [
    ["builtin", "--name", "example32"],
    ["apply", "--operator", "OP", "--point", "POINT"],
    ["simulate", "--operator", "OP", "--point", "POINT", "--steps", "2"],
    ["invert", "--operator", "OP", "--point", "POINT"],
    ["check", "--operator", "OP", "--face", "1,2", "--samples", "5"],
    ["pair-check", "--operator", "OP", "--face", "1,2", "--samples", "5"],
]
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text())
_KNOWN_TYPES = {"quadratic", "cubic_tensor", "example31", "example32", "sine", "compose", "convex"}


def _rejected(option: str, text: str) -> bool:
    convert, accept = _OPTIONS[option]
    value = convert(text)
    return value is None or not accept(value)


@st.composite
def _bad_option(draw):
    option = draw(st.sampled_from(sorted(_OPTIONS)))
    if _OPTIONS[option][0] is simplex._number:
        numbers = st.one_of(st.floats().map(str), st.sampled_from(_NEAR_NUMBERS))
    else:
        numbers = st.one_of(st.integers(-10**6, 10**6).map(str), st.sampled_from(_NEAR_DIGITS))
    text = draw(st.one_of(numbers, st.text(max_size=8)).filter(lambda t: _rejected(option, t)))
    return {"argv": [*_HOSTS[option], f"{option}={text}"]}


def _names_an_index(text: str) -> bool:
    """Whether text is ASCII decimal digits naming an index."""
    return text.isascii() and text.isdigit() and 1 <= int(text) <= sys.maxsize


#: Index texts that int() reads but that are no ASCII decimal digits.
_NEAR_DIGITS = ["1_0", "+1", "-1", " 2", "2 ", "\t3", "\u0663", "\uff11", "0", "1.0", "1e3"]
#: Number texts that float() reads but that are not ASCII, hold "_" or
#: have surrounding whitespace.
_NEAR_NUMBERS = ["1_0", "0.2_5", " 0.5", "0.5 ", "\t0.5", "\u0663", "0.\u0665", "\uff11"]


@st.composite
def _bad_face(draw):
    if draw(st.booleans()):
        text = draw(st.text(max_size=8))
        cut = draw(st.integers(0, len(text)))
        face = text[:cut] + draw(st.sampled_from("aZx")) + text[cut:]  # a letter never parses
    else:
        bad = draw(st.sampled_from(["1_0", "+1", "-1", "\u0663", "\uff11", "0", "1 0", "1.0", "1..2..3"]))
        face = ",".join(draw(st.permutations(["2", bad])))
    command = draw(st.sampled_from(["check", "pair-check"]))
    return {"argv": [command, "--operator", "OP", "--face", face, "--samples", "5"]}


def _not_json(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return True
    return False


@st.composite
def _bad_point(draw):
    """A point file that is no JSON object of index strings to masses
    summing to 1."""
    bad_key = st.one_of(st.sampled_from(_NEAR_DIGITS), st.text(max_size=4).filter(lambda k: not _names_an_index(k)))
    bad_mass = st.one_of(
        st.text(max_size=4),  # "0.5" too: a mass is a JSON number
        st.floats(max_value=-1e-6),
        st.sampled_from([math.nan, math.inf, None, [0.5], {}, True, False, 10**400]),
    )
    kind = draw(st.sampled_from(["text", "not_object", "key", "mass", "total"]))
    if kind == "text":
        content = draw(st.text(max_size=12).filter(_not_json))
    elif kind == "not_object":
        content = json.dumps(draw(st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3))))
    elif kind == "key":
        content = json.dumps({"1": 0.5, draw(bad_key): 0.5})
    elif kind == "mass":
        content = json.dumps({"1": 0.5, "2": draw(bad_mass)})
    else:
        masses = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
        assume(abs(math.fsum(masses) - 1.0) > 1e-6)
        content = json.dumps({str(k): m for k, m in enumerate(masses, start=1)})
    command = draw(st.sampled_from(["apply", "simulate", "invert"]))
    return {"argv": [command, "--operator", "OP", "--point", "FILE"], "file": content}


#: The tensor of example31 on the face {1, 2}, as ``builtin --dimension 2`` writes it.
_TENSOR2 = [
    {"triple": [1, 1, 1], "outputs": {"1": 1.0}},
    {"triple": [1, 1, 2], "outputs": {"1": 1.0}},
    {"triple": [1, 2, 2], "outputs": {"2": 1.0}},
    {"triple": [2, 2, 2], "outputs": {"2": 1.0}},
]


@st.composite
def _bad_tensor(draw):
    """_TENSOR2 with one field of one row replaced by something that is
    no index or no number: a triple index, an output key, a coefficient
    or the outputs object."""
    triples = json.loads(json.dumps(_TENSOR2))
    row = draw(st.sampled_from(triples))
    field = draw(st.sampled_from(["index", "key", "coefficient", "outputs"]))
    if field == "index":
        bad = st.one_of(
            st.floats().filter(lambda v: not (1 <= v <= sys.maxsize and v.is_integer())),
            st.booleans(), st.text(max_size=3), st.integers(max_value=0), st.none(),
        )
        row["triple"][draw(st.integers(0, 2))] = draw(bad)
    elif field == "key":
        k, p = row["outputs"].popitem()
        row["outputs"][draw(st.sampled_from(_NEAR_DIGITS))] = p
    elif field == "coefficient":
        k = next(iter(row["outputs"]))
        row["outputs"][k] = draw(st.one_of(st.sampled_from(["1.0", "1", True, None, [1.0]]), st.text(max_size=3)))
    else:
        row["outputs"] = draw(st.one_of(st.lists(st.floats(0, 1), max_size=2), st.floats(0, 1), st.text(max_size=3)))
    return triples


@st.composite
def _bad_operator(draw):
    """An operator file whose structure is wrong: no JSON, no object, no
    known type, or a known type with missing or unusable fields."""
    good = {"type": "example31"}
    kind = draw(st.sampled_from(["text", "not_object", "no_type", "type", "dimension", "operands", "lambda", "tensor"]))
    if kind == "text":
        spec = draw(st.text(max_size=12).filter(_not_json))
    elif kind == "not_object":
        spec = json.dumps(draw(st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3))))
    elif kind == "no_type":
        spec = json.dumps(draw(st.dictionaries(st.text(max_size=4).filter(lambda k: k != "type"), _JSON_SCALARS)))
    elif kind == "type":
        tag = draw(st.one_of(st.text(max_size=12).filter(lambda t: t not in _KNOWN_TYPES), st.integers()))
        spec = json.dumps({"type": tag})
    elif kind == "dimension":
        dimension = st.one_of(
            st.text(max_size=4),  # "3" too: a dimension is a JSON integer
            st.lists(st.integers()),
            # 3.0 counts as an integer, as it does for an index.
            st.floats(allow_nan=False, allow_infinity=False).filter(
                lambda v: not (1 <= v <= sys.maxsize and v.is_integer())
            ),
            st.booleans(),
            st.integers(max_value=0),
            st.integers(min_value=sys.maxsize + 1),
        )
        spec = json.dumps({"type": "example31", "dimension": draw(dimension)})
    elif kind == "operands":
        count = draw(st.sampled_from([0, 1, 3]))
        spec = json.dumps({"type": draw(st.sampled_from(["compose", "convex"])), "operators": [good] * count, "lambda": 0.5})
    elif kind == "lambda":
        lam = draw(st.one_of(st.text(max_size=4), st.lists(st.floats()), st.booleans(), st.none()))
        spec = json.dumps({"type": "convex", "operators": [good, good], "lambda": lam})
    else:
        spec = json.dumps({"type": "cubic_tensor", "triples": draw(_bad_tensor())})
    command = draw(st.sampled_from(_WRITERS[1:]))
    return {"argv": [part if part != "OP" else "FILE" for part in command], "file": spec}


@st.composite
def _unwritable_output(draw):
    return {"argv": [*draw(st.sampled_from(_WRITERS)), "--output", "MISSING"]}


def _exit_code(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(_bad_option(), _bad_face(), _bad_point(), _bad_operator(), _unwritable_output()))
def test_malformed_input_exits_three(case):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        names = {
            "OP": tmp / "op.json",
            "POINT": tmp / "point.json",
            "FILE": tmp / "file.json",
            "MISSING": tmp / "missing" / "out.json",
        }
        names["OP"].write_text('{"type": "example31"}', encoding="utf-8")
        names["POINT"].write_text('{"1": 0.25, "2": 0.75}', encoding="utf-8")
        names["FILE"].write_text(case.get("file", ""), encoding="utf-8")
        argv = [str(names[part]) if part in names else part for part in case["argv"]]
        assert _exit_code(argv) == 3, (argv, case.get("file"))
