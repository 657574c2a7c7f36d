import numpy as np
import pytest

from volterra import (
    DomainViolation,
    FaceSpec,
    LambdaOutOfRange,
    NegativeCoordinate,
    NormalizationFailure,
    VolterraOperator,
    apply,
    check_conditions,
    check_pair_condition,
    compose,
    convex_combination,
    example31,
    example31_tensor,
    example32,
    identity_operator,
    invert_fixed_point,
    is_fixed_point,
    l1_distance,
    make_point,
    operator_from_tensor,
    pair_condition_value,
    point_to_obj,
    quadratic_operator,
    sine_example,
    validate_matrix,
    vertex,
)
from volterra import ConditionVerdict, PairConditionReport, generating
from volterra.simplex import _point_on, sample_face_block
from helpers import linear_operator_from_cells, rand_point, rand_point_on_pool, rand_skew_operator


def constant_map_operator(value: float) -> VolterraOperator:
    """The operator whose growth factor g_k is ``value`` everywhere."""
    return VolterraOperator(lambda ks, X: [value] * len(ks), label=f"constant({value})")


def test_apply_ex31_uniform_two_point_fixed():
    x = make_point([(1, 0.5), (2, 0.5)])
    assert apply(example31(), x) == x


def test_apply_ex31_frozen_values():
    y = apply(example31(), make_point([(1, 0.7), (2, 0.3)]))
    assert y.mass(1) == pytest.approx(0.784, abs=1e-15)
    assert y.mass(2) == pytest.approx(0.216, abs=1e-15)


def test_vertices_fixed_exactly_for_builtins():
    cases = [
        (example31(), (1, 2, 7)),
        (example32(), (1, 2, 7)),
        (sine_example(), (1, 2)),
    ]
    for op, ns in cases:
        for n in ns:
            assert l1_distance(apply(op, vertex(n)), vertex(n)) == 0.0


def test_apply_negative_coordinate():
    with pytest.raises(NegativeCoordinate) as info:
        apply(constant_map_operator(-1.0), make_point([(1, 0.5), (2, 0.5)]))
    assert info.value.value < 0


def test_checkers_raise_for_a_negative_inner_image():
    """The balance of ``bad`` holds exactly, but g_2 < 0 once x_1 > 1/3,
    so composed after it example31 gets a negative mass: each checker
    raises where a block evaluation finds one, as ``apply`` would, and
    never clamps it."""
    bad = VolterraOperator(lambda ks, X: [1.0 + 3.0 * X[1], 1.0 - 3.0 * X[0]])
    op = compose(example31(), bad)
    face = FaceSpec.of([1, 2])
    with pytest.raises(NegativeCoordinate) as at_barycenter:
        apply(op, face.barycenter())
    with pytest.raises(NegativeCoordinate) as info:
        check_conditions(op, face, samples=50, seed=1)
    assert (info.value.index, info.value.value) == (at_barycenter.value.index, at_barycenter.value.value)
    with pytest.raises(NegativeCoordinate) as info:
        check_pair_condition(op, face, samples=50, seed=1)
    assert info.value.index == 2 and info.value.value < 0.0


def test_apply_normalization_failure():
    with pytest.raises(NormalizationFailure) as info:
        apply(constant_map_operator(1.5), make_point([(1, 0.5), (2, 0.5)]))
    assert info.value.total == pytest.approx(1.5)


def test_apply_rejects_nan_image():
    with pytest.raises(NormalizationFailure):
        apply(constant_map_operator(float("nan")), make_point([(1, 0.5), (2, 0.5)]))


def test_apply_raw_image_total_not_renormalized():
    rng = np.random.default_rng(0)
    op = example31()
    for _ in range(2000):
        x = rand_point_on_pool(rng, 12, 12)
        y = apply(op, x)
        assert abs(y.total() - 1.0) <= 1e-12
        assert set(y.support) <= set(x.support)


def test_support_equality_under_strict_bound():
    rng = np.random.default_rng(1)
    op = example31()
    for _ in range(200):
        x = rand_point_on_pool(rng, 10, 6)
        assert apply(op, x).support == x.support


def test_example31_domain_violation():
    op = example31(5)
    x = make_point([(2, 0.4), (5, 0.6)])
    assert apply(op, x) == apply(example31(), x)
    assert apply(op, vertex(2)) == vertex(2)
    with pytest.raises(DomainViolation):
        apply(op, vertex(6))
    with pytest.raises(DomainViolation):
        apply(op, make_point([(2, 0.5), (7, 0.5)]))
    with pytest.raises(DomainViolation):
        check_conditions(op, FaceSpec.of([4, 6]), samples=4)


def test_f_respects_the_declared_domain():
    # f(k, x) checks k and the support of x against the domain, as apply does.
    x = make_point([(1, 0.25), (2, 0.75)])
    assert example31(3).f(3, x) == example31().f(3, x)
    for op, k, point in (
        (sine_example(), 3, x),
        (example31(3), 5, vertex(1)),
        (example31(3), 1, vertex(4)),
    ):
        with pytest.raises(DomainViolation):
            op.f(k, point)


def test_check_conditions_ex31_passes():
    report = check_conditions(example31(), FaceSpec.prefix(3), samples=800, seed=2)
    assert report.all_passed
    assert report.samples == 800 and report.seed == 2


def test_check_conditions_quadratic_passes():
    rng = np.random.default_rng(5)
    _, op = rand_skew_operator(rng, 6)
    report = check_conditions(op, FaceSpec.prefix(6), samples=600, seed=3)
    assert report.all_passed


def test_check_conditions_sine_strict_bound_fails_at_barycenter():
    report = check_conditions(sine_example(), FaceSpec.of([1, 2]), samples=500, seed=1)
    assert not report.all_passed
    assert report.lower_bound.passed
    assert report.balance.passed
    assert report.continuity.passed
    strict = report.strict_bound
    assert not strict.passed
    assert strict.worst_value == -1.0
    assert strict.witness is not None
    assert strict.witness.mass(1) == pytest.approx(0.5, abs=1e-9)


def test_condition_report_serialization():
    report = check_conditions(example31(), FaceSpec.prefix(2), samples=50, seed=9)
    obj = report.to_obj()
    assert obj["face"] == [1, 2]
    assert obj["seed"] == 9 and obj["samples"] == 50
    names = [c["condition"] for c in obj["conditions"]]
    assert names == [
        "continuity_smoke",
        "mass_lower_bound",
        "weighted_balance",
        "interior_strict_bound",
    ]
    continuity, *sampled = obj["conditions"]
    # example31 is continuous by construction: its continuity is certified,
    # not sampled, at worst value 0.0 with the barycenter as witness.
    assert continuity == {
        "condition": "continuity_smoke",
        "passed": True,
        "worst_value": 0.0,
        "witness": {"1": 0.5, "2": 0.5},
        "smoke_test": False,
        "certified": True,
    }
    for entry in sampled:
        assert entry["passed"] is True
        assert entry["witness"] is not None
        assert entry["smoke_test"] is False and entry["certified"] is False


def test_pair_condition_frozen_values():
    assert pair_condition_value(example32(), vertex(1), vertex(2)) == 1.0
    assert pair_condition_value(example31(), vertex(1), vertex(2)) == pytest.approx(
        -2.0, abs=1e-15
    )


def test_pair_condition_at_identical_points_vanishes():
    rng = np.random.default_rng(7)
    op = example31()
    for _ in range(100):
        x = rand_point_on_pool(rng, 10, 6)
        assert abs(pair_condition_value(op, x, x)) <= 1e-12


def test_pair_condition_symmetric_exactly():
    rng = np.random.default_rng(8)
    for op in (example31(), example32()):
        for _ in range(50):
            x = rand_point_on_pool(rng, 8, 5)
            y = rand_point_on_pool(rng, 8, 5)
            assert pair_condition_value(op, x, y) == pair_condition_value(op, y, x)


def test_check_pair_condition_ex31_passes():
    report = check_pair_condition(example31(), FaceSpec.prefix(8), samples=300, seed=4)
    assert report.passed
    assert report.max_value <= 1e-12


def test_check_pair_condition_ex32_vertex_witness():
    report = check_pair_condition(example32(), FaceSpec.of([1, 2]), samples=200, seed=4)
    assert not report.passed
    assert report.max_value == 1.0
    wx, wy = report.witness
    assert {wx, wy} == {vertex(1), vertex(2)}


def test_check_pair_condition_quadratic_passes():
    rng = np.random.default_rng(9)
    _, op = rand_skew_operator(rng, 5)
    report = check_pair_condition(op, FaceSpec.prefix(5), samples=300, seed=5)
    assert report.passed


def test_large_declared_domain_still_applies():
    # Only faces read from input are bounded; an operator's declared
    # domain may be larger than MAX_FACE_SIZE.
    x = make_point({1: 0.5, 20_000: 0.5})
    big = example31(20_000)
    assert apply(big, x).as_dict() == apply(example31(), x).as_dict()
    assert apply(compose(big, big), x).as_dict() == apply(compose(example31(), example31()), x).as_dict()


def test_combined_operators_keep_the_smaller_domain():
    inside, outside = make_point({1: 0.5, 3: 0.5}), make_point({1: 0.5, 4: 0.5})
    free = example31()
    for combine in (compose, lambda a, b: convex_combination(a, b, 0.25)):
        for a, b in ((example31(5), example31(3)), (example31(3), example31(5))):
            op = combine(a, b)
            assert apply(op, inside) == apply(combine(free, free), inside)
            with pytest.raises(DomainViolation, match=r"point support of size 2 has index 4 outside the declared domain 1\.\.3 "):
                apply(op, outside)


def test_compose_with_identity_behaves_as_original():
    rng = np.random.default_rng(10)
    op = compose(identity_operator(), example31())
    for _ in range(20):
        x = rand_point_on_pool(rng, 8, 5)
        assert l1_distance(apply(op, x), apply(example31(), x)) <= 1e-15


def test_compose_matches_sequential_application():
    op = compose(example31(), example31())
    x = make_point([(1, 0.7), (2, 0.3)])
    twice = apply(example31(), apply(example31(), x))
    assert l1_distance(apply(op, x), twice) <= 1e-12
    assert apply(op, vertex(4)) == vertex(4)


def test_convex_combination_endpoints_and_midpoint():
    rng = np.random.default_rng(12)
    a, b = example31(), identity_operator()
    x = make_point([(1, 0.7), (2, 0.3)])
    assert apply(convex_combination(a, b, 1.0), x) == apply(a, x)
    assert apply(convex_combination(a, b, 0.0), x) == apply(b, x)
    mid = apply(convex_combination(a, b, 0.5), x)
    ya, yb = apply(a, x), apply(b, x)
    for k in x.support:
        assert mid.mass(k) == pytest.approx(0.5 * (ya.mass(k) + yb.mass(k)), abs=1e-15)
    for _ in range(20):
        z = rand_point_on_pool(rng, 6, 4)
        lam = float(rng.uniform())
        mixed = apply(convex_combination(a, b, lam), z)
        assert abs(mixed.total() - 1.0) <= 1e-12


def test_convex_combination_lambda_out_of_range():
    with pytest.raises(LambdaOutOfRange):
        convex_combination(example31(), identity_operator(), 1.5)


def test_closure_under_composition_and_mixing():
    rng = np.random.default_rng(13)
    _, quad = rand_skew_operator(rng, 4)
    face = FaceSpec.prefix(4)
    for candidate in (
        compose(example31(), quad),
        compose(quad, example31()),
        convex_combination(example31(), quad, 0.3),
    ):
        report = check_conditions(candidate, face, samples=300, seed=6)
        assert report.all_passed, f"{candidate.label}: {report.to_obj()['conditions']}"


def test_is_fixed_point():
    assert is_fixed_point(example31(), vertex(3), 1e-12)
    assert is_fixed_point(example31(), make_point([(1, 0.5), (2, 0.5)]), 1e-12)
    assert not is_fixed_point(example32(), make_point([(1, 0.5), (2, 0.5)]), 1e-12)
    for tol in (0.0, -1e-12, float("nan")):
        with pytest.raises(ValueError):
            is_fixed_point(example31(), vertex(1), tol)


def test_check_conditions_rejects_face_outside_domain():
    with pytest.raises(DomainViolation):
        check_conditions(sine_example(), FaceSpec.prefix(3), samples=10)


def test_zero_matrix_is_identity():
    op = quadratic_operator(validate_matrix([]))
    rng = np.random.default_rng(14)
    for _ in range(20):
        x = rand_point(rng, (1, 3, 9))
        assert apply(op, x) == x


def test_block_failure_raises_the_first_points_exception():
    # The inner map breaks normalization, by a different amount at each
    # point, so compose fails on every block; the checkers must raise
    # what their first point raises, as a point-by-point loop would.
    inner = linear_operator_from_cells([(1, 1, 0.2), (1, 2, 0.4), (2, 3, -0.3), (3, 1, 0.1)])
    op = compose(example31(), inner)
    face = FaceSpec.prefix(3)
    with pytest.raises(NormalizationFailure) as first_point:
        apply(inner, face.barycenter())
    with pytest.raises(NormalizationFailure) as info:
        check_conditions(op, face, samples=50, seed=3)
    assert str(info.value) == str(first_point.value)
    with pytest.raises(NormalizationFailure) as first_pair:
        pair_condition_value(op, vertex(1), vertex(1))
    with pytest.raises(NormalizationFailure) as info:
        check_pair_condition(op, face, samples=50, seed=3)
    assert str(info.value) == str(first_pair.value)


def _failing_at(bad, known=None):
    """A map with g = 1 that raises ValueError(bad[point]) at each point
    of ``bad`` (keyed by its masses as a tuple) and, when ``known`` is
    given, ValueError("unknown") at every point outside it.  A block is
    evaluated column by column in storage order, so it raises what its
    first failing column raises."""

    def fn(ks, X):
        if getattr(X, "ndim", 1) == 2:
            for column in X.T:
                fn(ks, column.tolist())
            return np.ones(X.shape)
        point = tuple(X)
        if point in bad:
            raise ValueError(bad[point])
        if known is not None and point not in known:
            raise ValueError("unknown")
        return [1.0] * len(ks)

    return fn


_CORNERS = [tuple(float(i == j) for i in range(4)) for j in range(4)]


def test_pair_check_failures_raise_in_visit_order():
    """The pair check raises what the first failing point of the first
    failing block raises, its blocks in order: the vertices with the y
    samples, then the x samples."""
    face, samples, seed = FaceSpec.prefix(4), 6, 2
    drawn = sample_face_block(face, np.random.default_rng(seed), 2 * samples)
    xs, ys = drawn[0::2], drawn[1::2]
    # y_3 sits in the y block, which goes before the x block of x_2.
    op = VolterraOperator(_failing_at({tuple(xs[2].tolist()): "x_2", tuple(ys[3].tolist()): "y_3"}))
    with pytest.raises(ValueError, match="^y_3$"):
        check_pair_condition(op, face, samples=samples, seed=seed)
    # A vertex fails too, and the vertices lead the y block.
    op = VolterraOperator(_failing_at({tuple(ys[3].tolist()): "y_3", _CORNERS[3]: "e_4"}))
    with pytest.raises(ValueError, match="^e_4$"):
        check_pair_condition(op, face, samples=samples, seed=seed)


def test_condition_check_failures_raise_in_visit_order(monkeypatch):
    """``check_conditions`` raises what the first failing point of the
    first failing block raises, its blocks in order: the barycenter, the
    samples and the vertices; the perturbed points; then the vertex
    pieces of a face wider than ``_VERTEX_BLOCK``."""
    face, samples, seed = FaceSpec.prefix(4), 6, 2
    drawn = sample_face_block(face, np.random.default_rng(seed), samples)
    bad = {tuple(drawn[4].tolist()): "sample 4", _CORNERS[0]: "e_1"}
    certified = VolterraOperator(_failing_at(bad))
    certified.continuous = True
    with pytest.raises(ValueError, match="^sample 4$"):
        check_conditions(certified, face, samples=samples, seed=seed)
    # Without the certificate every perturbed point fails as well, but
    # they have a block of their own, after the samples'.
    known = {*map(tuple, drawn.tolist()), *_CORNERS, (0.25,) * 4}
    with pytest.raises(ValueError, match="^sample 4$"):
        check_conditions(VolterraOperator(_failing_at(bad, known)), face, samples=samples, seed=seed)
    with pytest.raises(ValueError, match="^unknown$"):
        check_conditions(VolterraOperator(_failing_at({}, known)), face, samples=samples, seed=seed)
    # A wider face's vertex pieces come after the perturbed points.
    monkeypatch.setattr(generating, "_VERTEX_BLOCK", 3)
    with pytest.raises(ValueError, match="^e_1$"):
        check_conditions(VolterraOperator(_failing_at({_CORNERS[0]: "e_1"})), face, samples=samples, seed=seed)
    with pytest.raises(ValueError, match="^unknown$"):
        check_conditions(
            VolterraOperator(_failing_at({_CORNERS[0]: "e_1"}, known)), face, samples=samples, seed=seed
        )


@pytest.mark.parametrize("width, conditions, pairs", [
    (5, 1, 2),
    (generating._VERTEX_BLOCK, 1, 2),
    # One vertex more: every vertex, and every vertex pair, in pieces.
    (generating._VERTEX_BLOCK + 1, 3, 5),
])
def test_one_block_call_per_kind_of_point(width, conditions, pairs):
    """A certified map gets one block for the barycenter, the samples and
    the vertices in ``check_conditions``, and two in
    ``check_pair_condition``: the vertices with the y samples, and the x
    samples.  Both leave the vertices of a face wider than
    ``_VERTEX_BLOCK`` to pieces of their own."""
    shapes = []

    def fn(ks, X):
        if getattr(X, "ndim", 1) == 2:
            shapes.append(X.shape)
        return example31().fn(ks, X)

    op = VolterraOperator(fn)
    op.continuous = True
    face = FaceSpec.prefix(width)
    check_conditions(op, face, samples=7, seed=1)
    assert len(shapes) == conditions
    assert shapes[0] == (width, 1 + 7 + (width if width <= generating._VERTEX_BLOCK else 0))
    shapes.clear()
    check_pair_condition(op, face, samples=7, seed=1)
    assert len(shapes) == pairs


def test_a_map_that_only_takes_floats_gets_its_array_twins_reports():
    """A body with an ``if`` on a value raises on a block's rows, so the
    checkers evaluate its points one at a time; the reports are those of
    the same map written with ``np.where``, which takes whole blocks."""

    def kinked(ks, X):
        sq = 0.0
        for m in X:
            sq = sq + m * m
        out = []
        for m in X:
            if m > 0.5:
                out.append(1.0 + (m - sq))
            else:
                out.append(1.0 + 0.5 * (m - sq))
        return out

    def kinked_where(ks, X):
        sq = 0.0
        for m in X:
            sq = sq + m * m
        return [np.where(m > 0.5, 1.0 + (m - sq), 1.0 + 0.5 * (m - sq)) for m in X]

    with pytest.raises(ValueError):
        kinked((1, 2), np.full((2, 3), 0.5))
    for face in (FaceSpec.of((4,)), FaceSpec.prefix(3), FaceSpec.of((2, 5, 9, 11))):
        for checker in (check_conditions, check_pair_condition):
            floats = checker(VolterraOperator(kinked), face, samples=60, seed=7)
            arrays = checker(VolterraOperator(kinked_where), face, samples=60, seed=7)
            assert repr(floats.to_obj()) == repr(arrays.to_obj())


def test_block_with_missing_values_raises():
    short = VolterraOperator(lambda ks, X: [0.0] * (len(ks) - 1))
    with pytest.raises(ValueError, match="2 values for 3 indices"):
        short.values(np.full((3, 4), 1.0 / 3.0), (1, 2, 3))


def test_a_block_the_map_keeps_is_copied():
    """The checkers overwrite the blocks ``values`` returns, so a map that
    hands back one cached array for every block of a shape keeps it as it
    was and gets the reports of a map that returns fresh copies."""
    cache, pristine = {}, {}

    def cached(ks, X):
        g = [1.0 + 0.01 * (k % 3) for k in ks]
        if getattr(X, "ndim", 1) != 2:
            return g
        if X.shape not in cache:
            cache[X.shape] = np.repeat(np.array(g)[:, None], X.shape[1], axis=1)
            pristine[X.shape] = cache[X.shape].copy()
        return cache[X.shape]

    kept = VolterraOperator(cached, label="cached")
    fresh = VolterraOperator(lambda ks, X: np.array(cached(ks, X)), label="cached")
    # The barycenter, samples and vertices make one 6 x 12 block and the
    # nudges a 6 x 6 one; the vertices and y samples 6 x 11, the x
    # samples 6 x 5.
    face = FaceSpec.prefix(6)
    reports = [(check_conditions(op, face, samples=5, seed=1), check_pair_condition(op, face, samples=5, seed=1))
               for op in (kept, fresh)]
    assert reports[0] == reports[1]
    assert sorted(cache) == [(6, 5), (6, 6), (6, 11), (6, 12)]
    for shape, block in cache.items():
        assert block.tobytes() == pristine[shape].tobytes()


def test_scalar_rows_fill_a_block_of_its_shape():
    """A map may give a block's rows as scalars, as identity's does, or
    mix them with rows: ``values`` still returns a float block of X's
    shape."""
    X = np.full((3, 4), 0.25)
    assert identity_operator().values(X, (1, 2, 3)).tolist() == [[1.0] * 4] * 3
    block = VolterraOperator(lambda ks, X: [1, X[1], 2.0]).values(X, (1, 2, 3))
    assert block.shape == X.shape and block.dtype == np.float64 and block.flags.c_contiguous
    assert block.tolist() == [[1.0] * 4, [0.25] * 4, [2.0] * 4]


@pytest.mark.parametrize("extra", [-1, 1])
def test_one_point_with_a_wrong_value_count_raises(extra):
    """A map one value short must not give an image of three indices and
    two masses, whose total is still within tolerance, nor a map one value
    long an image that drops the extra one, a nested map included."""
    wrong = VolterraOperator(lambda ks, X: [1.0] * (len(ks) + extra), label="wrong")
    x = make_point({1: 0.5, 2: 0.5 - 1e-12, 3: 1e-12})
    calls = [
        lambda: wrong.values(x.masses, x.support),
        lambda: apply(wrong, x),
        lambda: apply(compose(identity_operator(), wrong), x),
        lambda: apply(convex_combination(wrong, identity_operator(), 0.5), x),
        lambda: pair_condition_value(wrong, x, vertex(1)),
        lambda: invert_fixed_point(wrong, x),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"{3 + extra} values for 3 indices"):
            call()


def test_continuity_adds_each_row_as_a_c_ordered_row():
    """The checker sums each point's row of |df| as numpy sums a
    C-ordered row: pairwise, which on more than eight indices can differ
    from the left-to-right sum a column-major row gets.  Differences
    spanning nine decades make the order show: f = g - 1 for g in (0, 2)
    is a multiple of 2^-53, so rows of such differences summing below 1
    add exactly in any order."""
    op = VolterraOperator(lambda ks, X: [1.0 + m * 10.0 ** (j % 9) for j, m in enumerate(X)], label="steep")
    face = FaceSpec.of(range(1, 41))
    report = check_conditions(op, face, samples=40, seed=0)
    rng = np.random.default_rng(0)
    interior = np.vstack((face.barycenter().masses, generating.sample_face_block(face, rng, 40)))
    nudged = generating._perturb_block(interior, generating.PERTURBATION, rng)
    f_in, f_nudged = (np.array([op.values(row.tolist(), face.indices) for row in B]) - 1.0 for B in (interior, nudged))
    wobble = np.abs(f_nudged - f_in)
    assert report.continuity.worst_value == wobble.sum(axis=1).max()
    assert report.continuity.worst_value != max(sum(row) for row in wobble.tolist())


def test_one_dimensional_row_is_one_point():
    _, skew = rand_skew_operator(np.random.default_rng(5), 4)
    x = make_point({1: 0.2, 2: 0.3, 4: 0.5})
    on_12 = make_point({1: 0.4, 2: 0.6})
    cases = [
        (example31(), x),
        (example32(), x),
        (skew, x),
        (compose(example31(), skew), x),
        (convex_combination(example32(), skew, 0.3), x),
        (sine_example(), on_12),
    ]
    for op, point in cases:
        one_point = op.values(np.array(point.masses), point.support)
        assert isinstance(one_point, list)
        assert one_point == op.values(point.masses, point.support)


def test_nan_values_fail_at_the_first_nan_point():
    # NaN is the worst value: the first NaN point or pair in visiting order
    # is the witness, and its verdict fails.
    face = FaceSpec.prefix(3)
    report = check_conditions(constant_map_operator(float("nan")), face, samples=50, seed=4)
    for verdict in report.verdicts:
        assert not verdict.passed
        assert np.isnan(verdict.worst_value)
        assert verdict.witness == face.barycenter()
    pair = check_pair_condition(constant_map_operator(float("nan")), face, samples=50, seed=4)
    assert not pair.passed
    assert np.isnan(pair.max_value)
    assert pair.witness == (vertex(1), vertex(1))

    def fn(ks, X):  # g = 1, but NaN wherever 1/2 < x_1 < 1: at no vertex
        x1 = np.asarray(dict(zip(ks, X)).get(1, 0.0))
        nan = np.where((x1 > 0.5) & (x1 < 1.0), np.nan, 0.0)
        return [1.0 + nan for _ in X]

    op = VolterraOperator(fn, label="partly_nan")
    samples, seed = 300, 4
    rng = np.random.default_rng(seed)
    interior = np.vstack((np.full((1, 3), 1.0 / 3.0), sample_face_block(face, rng, samples)))
    nudged = generating._perturb_block(interior, generating.PERTURBATION, rng)

    def first(*blocks):
        n = np.flatnonzero(np.any([(B[:, 0] > 0.5) & (B[:, 0] < 1.0) for B in blocks], axis=0))[0]
        return [_point_on(face.indices, B[n].tolist()) for B in blocks]

    report = check_conditions(op, face, samples=samples, seed=seed)
    for verdict in report.verdicts:
        assert not verdict.passed
        assert np.isnan(verdict.worst_value)
    assert report.continuity.witness == first(interior, nudged)[0]
    for verdict in report.verdicts[1:]:
        assert verdict.witness == first(interior)[0]
    drawn = sample_face_block(face, np.random.default_rng(seed), 2 * samples)
    pair = check_pair_condition(op, face, samples=samples, seed=seed)
    assert not pair.passed
    assert np.isnan(pair.max_value)
    assert pair.witness == tuple(first(drawn[0::2], drawn[1::2]))


@pytest.mark.parametrize("block", [2, 256])
def test_the_first_nan_vertex_pair_in_index_order_wins(monkeypatch, block):
    # f_2(e_2) and f_1(e_3) are NaN, so pairs (2, 2) and (1, 3) are; with
    # two vertices a piece, (2, 2) is found first but (1, 3) comes first.
    def fn(ks, X):
        x = dict(zip(ks, X))
        hit = {2: x.get(2, 0.0), 1: x.get(3, 0.0)}
        return [np.where(np.asarray(hit[k]) == 1.0, np.nan, 1.0) if k in hit else 1.0 for k in ks]

    monkeypatch.setattr(generating, "_VERTEX_BLOCK", block)
    pair = check_pair_condition(VolterraOperator(fn), FaceSpec.prefix(4), samples=20, seed=1)
    assert np.isnan(pair.max_value)
    assert pair.witness == (vertex(1), vertex(3))


def test_python_nesting_is_bounded():
    # Every level adds frames to each map call, and a few hundred levels
    # end apply in RecursionError, so building past the bound raises.
    deep = example31()
    for _ in range(generating.MAX_NESTING):
        deep = compose(example31(), deep)
    assert deep.depth == generating.MAX_NESTING
    x = make_point({1: 0.5, 2: 0.5})
    assert apply(deep, x) == x
    message = f"operator nests more than {generating.MAX_NESTING} compose and convex levels"
    for build in (
        lambda: compose(example31(), deep),
        lambda: compose(deep, example31()),
        lambda: convex_combination(example31(), deep, 0.5),
        lambda: convex_combination(deep, deep, 0.5),
    ):
        with pytest.raises(ValueError, match=message):
            build()


@pytest.mark.parametrize("block", [1, 2, 3, 5, generating._VERTEX_BLOCK + 1])
def test_vertex_pieces_give_the_same_reports(monkeypatch, block):
    # Faces wider than the vertex block are checked piece by piece, the
    # others with their vertices in the samples' blocks; ties must still
    # go to the first point or pair in index order.
    rng = np.random.default_rng(block)
    # Pairs (2, 3) and (1, 5) tie for the maximum; (1, 5) comes first in
    # index order but sits in a later piece when the block is 2.
    tied = linear_operator_from_cells([(2, 3, 0.5), (3, 2, 0.5), (1, 5, 0.5), (5, 1, 0.5)])
    ops = [example31(), example32(), rand_skew_operator(rng, 9)[1], sine_example(), tied]
    faces = [FaceSpec.prefix(9), FaceSpec.prefix(9), FaceSpec.of((2, 3, 5, 7, 8, 9)), FaceSpec.of((1, 2)),
             FaceSpec.prefix(6)]
    if block > generating._VERTEX_BLOCK:
        # A face one index wider than the default block: the default
        # takes pieces, and this block merges the vertices.  Every
        # example32 vertex pair (a, b) with a < b has value 1, and this
        # map's far pair (1, 257) ties with (2, 3) and comes first.
        wide = FaceSpec.prefix(generating._VERTEX_BLOCK + 1)
        far = linear_operator_from_cells([(2, 3, 0.5), (3, 2, 0.5), (1, len(wide), 0.5), (len(wide), 1, 0.5)])
        ops += [example32(), far]
        faces += [wide, wide]
    expected = [
        (check_conditions(op, face, samples=40, seed=1).to_obj(),
         check_pair_condition(op, face, samples=40, seed=1).to_obj())
        for op, face in zip(ops, faces)
    ]
    monkeypatch.setattr(generating, "_VERTEX_BLOCK", block)
    actual = [
        (check_conditions(op, face, samples=40, seed=1).to_obj(),
         check_pair_condition(op, face, samples=40, seed=1).to_obj())
        for op, face in zip(ops, faces)
    ]
    assert repr(actual) == repr(expected)


def _library_families():
    """One operator of each family the library builds, with a face."""
    _, skew = rand_skew_operator(np.random.default_rng(8), 5)
    return {
        "example31": (example31(), FaceSpec.prefix(5)),
        "example32": (example32(), FaceSpec.prefix(5)),
        "sine": (sine_example(), FaceSpec.of((1, 2))),
        "tensor": (operator_from_tensor(example31_tensor(4)), FaceSpec.prefix(4)),
        "skew": (skew, FaceSpec.prefix(5)),
        "identity": (identity_operator(), FaceSpec.prefix(3)),
        "compose": (compose(example31(), skew), FaceSpec.prefix(5)),
        "convex": (convex_combination(example32(), skew, 0.3), FaceSpec.prefix(5)),
    }


def _bare(op: VolterraOperator) -> VolterraOperator:
    """op's map body and domain in an operator built by hand."""
    return VolterraOperator(op.fn, op.max_index, label=op.label)


@pytest.mark.parametrize("family", list(_library_families()))
def test_library_maps_are_certified_continuous(family):
    op, face = _library_families()[family]
    assert op.continuous is True
    continuity = check_conditions(op, face, samples=60, seed=5).continuity
    assert continuity.to_obj() == {
        "condition": "continuity_smoke",
        "passed": True,
        "worst_value": 0.0,
        "witness": point_to_obj(face.barycenter()),
        "smoke_test": False,
        "certified": True,
    }


@pytest.mark.parametrize("family", list(_library_families()))
def test_certifying_leaves_the_sampled_conditions_as_they_are(family):
    op, face = _library_families()[family]
    certified = check_conditions(op, face, samples=60, seed=5).to_obj()
    smoked = check_conditions(_bare(op), face, samples=60, seed=5).to_obj()
    assert smoked["conditions"][0]["smoke_test"] is True
    del certified["conditions"][0], smoked["conditions"][0]
    assert certified == smoked  # conditions 2-4, face, samples, seed, margin, all_passed


def test_hand_built_maps_keep_the_smoke_test():
    face = FaceSpec.prefix(3)
    bare = _bare(example31())
    assert VolterraOperator(bare.fn).continuous is False
    ops = [
        bare,
        compose(example31(), bare),
        compose(bare, example31()),
        convex_combination(example31(), bare, 0.5),
        convex_combination(bare, identity_operator(), 0.5),
    ]
    for op in ops:
        assert op.continuous is False
        continuity = check_conditions(op, face, samples=60, seed=5).continuity
        assert continuity.smoke_test is True and continuity.certified is False
        assert continuity.passed and continuity.witness is not None
        assert 0.0 < continuity.worst_value <= generating.CONTINUITY_BOUND


def test_report_fields_derived_from_the_others():
    face = FaceSpec.prefix(2)
    witness = (vertex(1), vertex(2))
    for value, passed in ((generating.PAIR_TOLERANCE, True), (1.0, False)):
        report = PairConditionReport(face=face, samples=5, seed=1, max_value=value, witness=witness)
        assert report.passed is passed
        assert report.to_obj()["threshold"] == generating.PAIR_TOLERANCE == 1e-12
    with pytest.raises(TypeError):
        PairConditionReport(face=face, samples=5, seed=1, max_value=1.0, witness=witness, threshold=2.0)
    certified = ConditionVerdict("continuity_smoke", True, 0.0, face.barycenter(), certified=True)
    smoked = ConditionVerdict("continuity_smoke", True, 1e-4, vertex(1))
    sampled = ConditionVerdict("mass_lower_bound", True, 0.0, vertex(1), certified=False)
    assert (certified.smoke_test, smoked.smoke_test, sampled.smoke_test) == (False, True, False)
    assert [v.to_obj()["smoke_test"] for v in (certified, smoked, sampled)] == [False, True, False]
    with pytest.raises(TypeError):
        ConditionVerdict("continuity_smoke", True, 0.0, vertex(1), smoke_test=True)


@pytest.mark.parametrize("checker", [check_conditions, check_pair_condition])
def test_checkers_need_a_sample(checker):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        checker(example31(), FaceSpec.prefix(2), samples=0)
