"""Properties of the block protocol over generated faces and points.

A generating map evaluates one point or a block of points with the same
body, so row i of a block evaluation must equal the one-point evaluation
of row i bit for bit; and a block of samples must be the very points
that sequential draws give.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from volterra import (
    FaceSpec,
    compose,
    convex_combination,
    example31,
    example32,
    identity_operator,
    operator_from_tensor,
    quadratic_operator,
    sample_face_rng,
    sine_example,
    validate_matrix,
)
from volterra.simplex import sample_face_block
from helpers import rand_skew_triples, rand_volterra_tensor

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
