import json
import signal
import sys
import tracemalloc

import numpy as np
import pytest

from volterra import (
    BoundViolation,
    FaceSpec,
    NonFiniteValue,
    NotSkew,
    apply,
    l1_distance,
    make_point,
    pair_condition_value,
    quadratic_operator,
    sample_face,
    symmetry_defect_witness,
    validate_matrix,
    vertex,
)
from helpers import (
    linear_operator_from_cells,
    rand_defective_cells,
    rand_point,
    rand_skew_operator,
    rand_skew_triples,
)


def test_validate_accepts_exact_skew_pair():
    m = validate_matrix([(1, 2, 0.5), (2, 1, -0.5)])
    assert m.coefficient(1, 2) == 0.5
    assert m.coefficient(2, 1) == -0.5
    assert m.dimension == 2


def test_validate_infers_missing_orientation():
    m = validate_matrix([(2, 1, -0.5)])
    assert m.coefficient(1, 2) == 0.5


def test_validate_rejects_symmetric_pair():
    with pytest.raises(NotSkew) as info:
        validate_matrix([(1, 2, 0.5), (2, 1, 0.5)])
    assert info.value.pair == (1, 2)


def test_validate_rejects_bound_violation():
    with pytest.raises(BoundViolation) as info:
        validate_matrix([(1, 2, 1.5), (2, 1, -1.5)])
    assert info.value.pair == (1, 2)
    # Upper cells only, the canonical form: the smallest cell beyond the bound.
    with pytest.raises(BoundViolation) as info:
        validate_matrix([[2, 3, 1.5], [1, 2, 0.5], [1, 3, -2.0]])
    assert (info.value.pair, info.value.value) == ((1, 3), -2.0)


def test_validate_rejects_nonzero_diagonal():
    with pytest.raises(NotSkew) as info:
        validate_matrix([(3, 3, 0.2)])
    assert info.value.pair == (3, 3)


def test_validate_rejects_conflicting_duplicates():
    with pytest.raises(ValueError):
        validate_matrix([(1, 2, 0.5), (1, 2, 0.4)])


@pytest.mark.parametrize("cell", [
    [1.7, 2, 0.5], [1, 2.5, 0.5], [0, 2, 0.5], [1, sys.maxsize + 1, 0.5], [1, 1e20, 0.5],
    [1, float("nan"), 0.5], [1, float("inf"), 0.5], [True, 2, 0.5], ["1", 2, 0.5], [1, None, 0.5],
    [1, 2, "0.5"], [1, 2, False], [1, 2, None], [1, 2, 10**400], [1, 2], (1, 2, 0.5, 0.5), "120", 5,
])
def test_validate_rejects_malformed_cells(cell):
    with pytest.raises(ValueError) as info:
        validate_matrix([[1, 3, 0.25], cell])
    assert type(info.value) is ValueError


def test_validate_accepts_integral_float_and_largest_indices():
    m = validate_matrix([(1.0, 2, 0.5), (3, 2.0, 0.25), (1, sys.maxsize, -1.0)])
    assert m.entries == {(1, 2): 0.5, (2, 3): -0.25, (1, sys.maxsize): -1.0}
    assert all(type(k) is int and type(i) is int for k, i in m.entries)
    assert m.dimension == sys.maxsize


def test_validate_raises_for_the_first_failing_item():
    # Items fail in input order; within an item a bad index comes before
    # a non-finite value, and that before a conflicting duplicate.
    with pytest.raises(NonFiniteValue) as info:
        validate_matrix([[1, 2, 0.5], [2, 3, float("nan")], [1.5, 2, 0.5]])
    assert info.value.where == (2, 3)
    with pytest.raises(ValueError, match="integers"):
        validate_matrix([[1, 2, 0.5], [2.5, 3, float("nan")], [4, 4, float("inf")]])
    with pytest.raises(NonFiniteValue) as info:
        validate_matrix([[1, 2, 0.5], [1, 2, float("inf")]])
    assert info.value.where == (1, 2)
    with pytest.raises(ValueError, match="conflicting"):
        validate_matrix([[1, 2, 0.5], [1, 2, 0.25], [3, 4, float("nan")]])
    # Skewness and the bound are judged at the smallest cell, a pair at
    # its first given cell.
    with pytest.raises(BoundViolation) as info:
        validate_matrix([[3, 1, 0.5], [2, 2, 0.5], [2, 1, -1.5]])
    assert info.value.pair == (1, 2)
    with pytest.raises(NotSkew) as info:
        validate_matrix([[3, 1, 0.5], [2, 2, 0.5], [1, 3, 1.5]])
    assert info.value.pair == (1, 3)


def test_quadratic_apply_frozen_values():
    op = quadratic_operator(validate_matrix([(1, 2, 1.0)]))
    y = apply(op, make_point([(1, 0.5), (2, 0.5)]))
    assert y.mass(1) == pytest.approx(0.75, abs=1e-15)
    assert y.mass(2) == pytest.approx(0.25, abs=1e-15)


def test_quadratic_vertices_fixed_exactly():
    rng = np.random.default_rng(0)
    _, op = rand_skew_operator(rng, 6)
    for n in range(1, 9):
        assert l1_distance(apply(op, vertex(n)), vertex(n)) == 0.0


def test_generating_map_bounded_by_one():
    rng = np.random.default_rng(1)
    matrix, op = rand_skew_operator(rng, 8)
    for _ in range(200):
        x = rand_point(rng, range(1, 9))
        for k in range(1, 9):
            assert abs(op.f(k, x)) <= 1.0 + 1e-12


def test_weighted_balance_vanishes():
    rng = np.random.default_rng(2)
    for _ in range(10):
        _, op = rand_skew_operator(rng, 7)
        for _ in range(100):
            x = rand_point(rng, range(1, 8))
            total = sum(m * op.f(k, x) for k, m in x.items())
            assert abs(total) <= 1e-12


def test_pair_condition_vanishes_for_skew():
    rng = np.random.default_rng(3)
    _, op = rand_skew_operator(rng, 6)
    for _ in range(100):
        x = rand_point(rng, range(1, 7))
        y = rand_point(rng, range(1, 7))
        assert abs(pair_condition_value(op, x, y)) <= 1e-12


def test_defect_witness_none_for_skew():
    rng = np.random.default_rng(4)
    # Raw cells have no implied mirror, so spell out both orientations.
    cells = []
    for k, i, v in rand_skew_triples(rng, 5):
        cells.append([k, i, v])
        cells.append([i, k, -v])
    assert symmetry_defect_witness(cells) is None


def test_defect_witness_diagonal():
    point, value = symmetry_defect_witness([(1, 1, 0.3)])
    assert point == vertex(1)
    assert value == pytest.approx(0.3)


def test_defect_witness_symmetric_pair():
    point, value = symmetry_defect_witness([(1, 2, 0.5), (2, 1, 0.5)])
    assert point.as_dict() == {1: 0.5, 2: 0.5}
    assert value == pytest.approx(0.25)


def test_defect_witness_matches_actual_balance_sum():
    rng = np.random.default_rng(5)
    for _ in range(50):
        cells = rand_defective_cells(rng, int(rng.integers(2, 7)))
        witness = symmetry_defect_witness(cells)
        assert witness is not None
        point, value = witness
        op = linear_operator_from_cells(cells)
        actual = sum(m * op.f(k, point) for k, m in point.items())
        assert actual == pytest.approx(value, abs=1e-14)
        assert abs(actual) > 1e-9


def _full_scan_witness(cells):
    """symmetry_defect_witness by the definition: every diagonal index,
    then every pair (i, j) with i < j, up to the largest index."""
    cells = {(int(k), int(i)): float(v) for k, i, v in cells}
    top = max((max(key) for key in cells), default=0)
    for i in range(1, top + 1):
        v = cells.get((i, i), 0.0)
        if abs(v) > 1e-12:
            return vertex(i), v
    for i in range(1, top + 1):
        for j in range(i + 1, top + 1):
            s = cells.get((i, j), 0.0) + cells.get((j, i), 0.0)
            if abs(s) > 1e-12:
                return make_point({i: 0.5, j: 0.5}), (s + cells.get((i, i), 0.0) + cells.get((j, j), 0.0)) / 4.0
    return None


def test_defect_witness_matches_full_scan():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        cells = {}
        for _ in range(int(rng.integers(0, 2 * n + 1))):
            k, i = (int(v) for v in rng.integers(1, n + 1, size=2))
            kind = rng.integers(4)
            if kind == 0:  # a skew pair, or a zero diagonal
                v = float(rng.uniform(-1.0, 1.0))
                cells[(k, i)], cells[(i, k)] = (v, -v) if k != i else (0.0, 0.0)
            elif kind == 1:  # below the tolerance
                cells[(k, i)] = float(rng.uniform(-1e-13, 1e-13))
            else:
                cells[(k, i)] = float(rng.uniform(-1.0, 1.0))
        triples = [[k, i, v] for (k, i), v in cells.items()]
        assert symmetry_defect_witness(triples) == _full_scan_witness(triples)


def test_defect_witness_far_indices():
    far = 10**9
    # A scan over every pair up to the largest index would never end.
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(10)
    try:
        witness = symmetry_defect_witness([[far, far + 1, 0.5], [far + 1, far, 0.5]])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert witness == (make_point({far: 0.5, far + 1: 0.5}), 0.25)


def _timed_out(signum, frame):
    raise TimeoutError("symmetry_defect_witness scanned beyond the given cells")


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(6)
    matrix = validate_matrix(rand_skew_triples(rng, 5))
    triples = [[k, i, v] for (k, i), v in matrix.entries.items()]
    loaded = validate_matrix(json.loads(json.dumps(triples)))
    assert loaded.entries == matrix.entries
    assert loaded.dimension == matrix.dimension


def test_validate_rejects_non_finite_entry():
    with pytest.raises(NonFiniteValue) as info:
        validate_matrix([[1, 2, float("nan")]])
    assert info.value.where == (1, 2)


@pytest.mark.parametrize("n", [20, 600])
def test_values_equal_ascending_index_sum(n):
    rng = np.random.default_rng(n)
    cells = [[k, i, float(rng.uniform(-1.0, 1.0))]
             for k in range(1, n + 1) for i in range(k + 1, n + 1) if rng.random() < 40.0 / n]
    matrix = validate_matrix(cells)
    op = quadratic_operator(matrix)
    face = FaceSpec.of(sorted(set(rng.choice(np.arange(1, n + 1), size=15, replace=False))))
    x = sample_face(face, n)
    ks = list(range(1, n + 3))  # includes indices beyond the dimension
    expected = []
    for k in ks:
        total = 0.0
        for i, m in x.items():
            total += matrix.coefficient(k, i) * m
        expected.append(1.0 + total)
    assert op.map.values([x.mass(k) for k in ks], ks) == expected


def test_empty_skew_matrix_applies_as_identity():
    op = quadratic_operator(validate_matrix([]))
    x = make_point({2: 0.25, 7: 0.75})
    assert op.map.values([x.mass(k) for k in (1, 2, 7)], (1, 2, 7)) == [1.0, 1.0, 1.0]
    assert apply(op, x) == x


def test_two_point_support_on_full_matrix():
    rng = np.random.default_rng(400)
    matrix = validate_matrix(
        [[k, i, float(rng.uniform(-1.0, 1.0))] for k in range(1, 401) for i in range(k + 1, 401)]
    )
    op = quadratic_operator(matrix)
    x = make_point({3: 0.4, 377: 0.6})
    expected = []
    for k in x.support:
        total = 0.0
        for i, m in x.items():
            total += matrix.coefficient(k, i) * m
        expected.append(1.0 + total)
    assert op.map.values(x.masses, x.support) == expected
    image = apply(op, x)
    assert image.masses == tuple(m * g for m, g in zip(x.masses, expected))


@pytest.mark.parametrize("far", [10**7, 5 * 10**9])
def test_far_index_applies_in_memory_of_the_store(far):
    op = quadratic_operator(validate_matrix([[1, far, 0.5]]))
    x = make_point({1: 0.5, far: 0.5})
    tracemalloc.start()
    try:
        image = apply(op, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert image.as_dict() == {1: 0.625, far: 0.375}
    assert peak < 1_000_000


def test_far_indices_keep_row_and_column_order():
    rng = np.random.default_rng(7)
    small = rand_skew_triples(rng, 6)
    relabel = {k: k * 10**9 + k for k in range(1, 7)}  # row * (n + 1) + column overflows int64
    big = [[relabel[k], relabel[i], v] for k, i, v in small]
    x_small = rand_point(rng, range(1, 7))
    x_big = make_point({relabel[k]: m for k, m in x_small.items()})
    image = apply(quadratic_operator(validate_matrix(big)), x_big)
    expected = apply(quadratic_operator(validate_matrix(small)), x_small)
    assert image.masses == expected.masses
    assert image.support == tuple(relabel[k] for k in expected.support)


def test_star_matrix_tables_stay_linear_in_the_entries():
    """One full row next to n - 1 rows of one entry: a table as deep as the
    longest row for every row would hold n^2 cells; the tables hold at most
    2 nnz + keys cells (nnz counts both orientations), 16 bytes a cell."""
    n = 20_000
    rng = np.random.default_rng(20_000)
    weights = rng.uniform(-1.0, 1.0, size=n - 1).tolist()
    matrix = validate_matrix([[1, i, w] for i, w in zip(range(2, n + 1), weights)])
    nnz, keys = 2 * (n - 1), n
    tracemalloc.start()
    try:
        op = quadratic_operator(matrix)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 16 * (2 * nnz + keys)
    assert peak <= 64 * (2 * nnz + keys)
    x = make_point({k: 1.0 / n for k in range(1, n + 1)})
    values = op.map.values(x.masses, x.support)
    hub = 0.0
    for w, m in zip(weights, x.masses[1:]):
        hub += w * m
    assert values[0] == 1.0 + hub
    assert values[1:] == [1.0 + -w * x.masses[0] for w in weights]


def test_empty_request_returns_no_values():
    op = quadratic_operator(validate_matrix([(1, 2, 0.5)]))
    assert op.map.values([], ()) == []
