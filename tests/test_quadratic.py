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
    VolterraOperator,
    apply,
    check_conditions,
    check_pair_condition,
    l1_distance,
    make_point,
    pair_condition_value,
    quadratic_operator,
    sample_face,
    symmetry_defect_witness,
    validate_matrix,
    vertex,
)
from volterra import quadratic
from helpers import (
    linear_operator_from_cells,
    quadratic_values,
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
    masses = [x.mass(k) for k in ks]
    assert op.values(masses, ks) == quadratic_values(matrix, ks, masses)


def test_empty_skew_matrix_applies_as_identity():
    op = quadratic_operator(validate_matrix([]))
    x = make_point({2: 0.25, 7: 0.75})
    assert op.values([x.mass(k) for k in (1, 2, 7)], (1, 2, 7)) == [1.0, 1.0, 1.0]
    assert apply(op, x) == x


def test_two_point_support_on_full_matrix():
    rng = np.random.default_rng(400)
    matrix = validate_matrix(
        [[k, i, float(rng.uniform(-1.0, 1.0))] for k in range(1, 401) for i in range(k + 1, 401)]
    )
    op = quadratic_operator(matrix)
    x = make_point({3: 0.4, 377: 0.6})
    expected = quadratic_values(matrix, x.support, x.masses)
    assert op.values(x.masses, x.support) == expected
    image = apply(op, x)
    assert image.masses == tuple(m * g for m, g in zip(x.masses, expected))


def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("shape", ["dense", "sparse", "star", "empty"])
def test_sub_requests_read_only_the_principal_submatrix(shape, monkeypatch):
    """A request's values are the left-to-right sums over the requested
    columns alone, bit for bit, whichever columns with entries it skips
    and whichever indices with no entries it holds: at one point, at a
    small block, and at a block of several chunks, at the default chunk
    size and at one of 256 cells."""
    n = 30
    rng = np.random.default_rng(len(shape))
    pairs = [(k, i) for k in range(1, n + 1) for i in range(k + 1, n + 1)]
    if shape == "sparse":  # index 4 has no entries
        pairs = [(k, i) for k, i in pairs if 4 not in (k, i) and rng.random() < 0.1]
    elif shape == "star":  # index 1 holds every entry
        pairs = [(1, i) for i in range(2, n + 1)]
    elif shape == "empty":
        pairs = []
    matrix = validate_matrix([[k, i, float(rng.uniform(-1.0, 1.0))] for k, i in pairs])
    op = quadratic_operator(matrix)
    requests = [
        list(range(1, n + 1, 2)) + [n + 1, n + 4],  # every other column, and two past the dimension
        list(range(2, n // 2)),  # no hub
        sorted(rng.choice(np.arange(1, n + 5), size=12, replace=False).tolist()),
        list(range(1, n + 3)),
    ]
    default = quadratic._CHUNK_CELLS
    for ks in requests:
        x = rng.dirichlet(np.ones(len(ks))).tolist()
        assert _hexes(op.values(x, ks)) == _hexes(quadratic_values(matrix, ks, x)), ks
        for points in (3, 100):
            X = rng.dirichlet(np.ones(len(ks)), size=points).T.copy()
            expected = _hexes(quadratic_values(matrix, ks, X))
            for chunk in (default, 256):
                monkeypatch.setattr(quadratic, "_CHUNK_CELLS", chunk)
                assert _hexes(op.values(X, ks)) == expected, (ks, points, chunk)


def test_wide_face_checks_equal_a_reference_maps():
    """On a 300-index face the pair check's vertex pieces are requests
    of 44, 256 and 300 indices; both checkers' reports equal those of
    the left-to-right reference map."""
    n = 300
    rng = np.random.default_rng(300)
    matrix = validate_matrix([[k, i, float(rng.uniform(-1.0, 1.0))]
                              for k in range(1, n + 1) for i in range(k + 1, n + 1) if rng.random() < 0.02])
    reference = VolterraOperator(lambda ks, X: quadratic_values(matrix, ks, X))
    reference.continuous = True
    face = FaceSpec.prefix(n)
    for check in (check_pair_condition, check_conditions):
        report = check(quadratic_operator(matrix), face, samples=50, seed=3).to_obj()
        assert report == check(reference, face, samples=50, seed=3).to_obj()


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
    """One full row next to n - 1 rows of one entry.  The operator holds
    its entries, sorted in both orientations, and their mirrors; the
    tables belong to a request's plan, where a table as deep as the
    longest row for every row would hold n^2 cells.  Building the
    operator and its first full-request call each keep at most
    2 nnz + keys cells of 16 bytes (nnz counts both orientations, keys
    the indices with entries) and peak at four times that."""
    n = 20_000
    rng = np.random.default_rng(20_000)
    weights = rng.uniform(-1.0, 1.0, size=n - 1).tolist()
    matrix = validate_matrix([[1, i, w] for i, w in zip(range(2, n + 1), weights)])
    nnz, keys = 2 * (n - 1), n
    x = make_point({k: 1.0 / n for k in range(1, n + 1)})
    tracemalloc.start()
    try:
        op = quadratic_operator(matrix)
        built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        op.values(x.masses, x.support)
        called = [v - before for v in tracemalloc.get_traced_memory()]
    finally:
        tracemalloc.stop()
    for kept, peak in (built, called):
        assert kept <= 16 * (2 * nnz + keys)
        assert peak <= 64 * (2 * nnz + keys)
    values = op.values(x.masses, x.support)
    assert values[:2] + values[-1:] == quadratic_values(matrix, x.support, x.masses, at=(1, 2, n))
    assert values[1:] == [1.0 + -w * x.masses[0] for w in weights]


def test_empty_request_returns_no_values():
    op = quadratic_operator(validate_matrix([(1, 2, 0.5)]))
    assert op.values([], ()) == []
