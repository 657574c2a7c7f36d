"""Properties of the block protocol and the inverters over generated
faces and points.

A generating map evaluates one point or a block of points with the same
body, so row i of a block evaluation must equal the one-point evaluation
of row i bit for bit; and a block of samples must be the very points
that sequential draws give.  The fixed-point inverter reports the exact
l1 residual of the point it returns, and the triangular inverse of
example32 recovers the point it was given.  Every operator family keeps
each face invariant (an image is supported inside the support of its
point) and fixes every vertex exactly.  A point's lookups and its
l1 distance to another point agree with a plain dict of its masses,
whatever the two supports share.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from volterra import (
    FaceSpec,
    NonConvergence,
    SparsePoint,
    apply,
    compose,
    convex_combination,
    example31,
    example32,
    identity_operator,
    invert_fixed_point,
    invert_triangular,
    l1_distance,
    make_point,
    operator_from_tensor,
    quadratic_operator,
    sample_face_rng,
    sine_example,
    validate_matrix,
    vertex,
)
from volterra.simplex import sample_face_block
from helpers import example32_image, rand_skew_operator, rand_skew_triples, rand_volterra_tensor

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
)
def test_block_rows_equal_one_point_values(name, picks, rows, seed):
    op, pool = FAMILIES[name]
    pool = tuple(pool)
    face = FaceSpec.of(pool[p % len(pool)] for p in picks)
    block = _block(face, rows, seed)
    together = op.map.values(block, face.indices)
    one_by_one = np.array([op.map.values(row.tolist(), face.indices) for row in block])
    assert together.shape == block.shape
    assert together.tobytes() == one_by_one.tobytes()
    # One point may also come as a 1-D array, the nested maps included.
    as_arrays = np.array([op.map.values(row, face.indices) for row in block])
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
    damping=st.sampled_from([1.0, 0.5, 0.2]),
    max_iter=st.sampled_from([0, 3, 200]),
)
def test_fixed_point_residual_is_the_distance_of_the_reported_point(name, x, seed, damping, max_iter):
    if name == "skew":
        _, op = rand_skew_operator(np.random.default_rng(seed), 8)
    else:
        op = example31() if name == "example31" else example32()
    y = apply(op, x)
    try:
        result = invert_fixed_point(op, y, damping=damping, max_iter=max_iter)
    except NonConvergence as exc:
        assert exc.residual == l1_distance(apply(op, exc.best), y)
        assert exc.iterations <= max_iter
    else:
        assert result.residual == l1_distance(apply(op, result.preimage), y)
        assert result.residual <= 1e-10
        assert set(result.preimage.support) <= set(y.support)


@settings(max_examples=80, deadline=None)
@given(x=_points(40))
# apply's y_1 = x_1 * (1 + (x_1^2 - 1)) keeps only about three digits of
# x_1^3 here, and the inverse amplifies that loss near the face: the
# round trip from apply's image misses x by 1.35e-9.
@example(x=_weighted({1: 1e-6, 2: 0.25, 3: 1.0, 4: 1.0, 5: 1.0}))
def test_triangular_round_trip(x):
    y = example32_image(x)
    assert l1_distance(y, apply(example32(), x)) <= 1e-12
    result = invert_triangular(y)
    assert l1_distance(result.preimage, x) <= 1e-9
    assert result.preimage.support == x.support


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
