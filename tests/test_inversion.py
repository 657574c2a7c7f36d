import signal

import numpy as np
import pytest

from volterra import (
    DomainViolation,
    FaceSpec,
    NonConvergence,
    ResidualTooLarge,
    apply,
    compose,
    convex_combination,
    example31,
    example31_tensor,
    example32,
    identity_operator,
    invert,
    invert_fixed_point,
    l1_distance,
    make_point,
    operator_from_tensor,
    quadratic_operator,
    sample_face_rng,
    solve_monotone_cubic,
    validate_matrix,
    vertex,
    VolterraOperator,
)
import volterra
from volterra.inversion import invert_triangular
from helpers import rand_point, rand_point_on_pool, rand_skew_operator


def test_solve_monotone_cubic_accuracy():
    for c in (0.0, 0.05, 0.3, 1.0):
        for t_true in np.linspace(0.0, 1.0, 21):
            y = t_true**3 + 3.0 * c * t_true
            t = solve_monotone_cubic(c, y)
            assert 0.0 <= t <= 1.0
            # y carries its own rounding, so allow 4 ulps, not the solver's 2.
            assert abs(t - t_true) <= 4 * 2**-52 * t_true
            assert abs(t**3 + 3.0 * c * t - y) <= 4 * 2**-52 * y


def test_solve_monotone_cubic_rejects_negative_coefficient():
    with pytest.raises(ValueError):
        solve_monotone_cubic(-0.1, 0.5)


def test_invert_triangular_vertex():
    result = invert(example32(), vertex(1))
    assert result.preimage == vertex(1)
    assert result.residual == 0.0
    assert result.method == "triangular" and result.converged


def test_invert_triangular_frozen_cases():
    result = invert(example32(), make_point([(1, 0.125), (2, 0.875)]))
    assert l1_distance(result.preimage, make_point([(1, 0.5), (2, 0.5)])) <= 1e-12
    result = invert(example32(), make_point([(1, 0.125), (2, 0.477), (3, 0.398)]))
    assert l1_distance(
        result.preimage, make_point([(1, 0.5), (2, 0.3), (3, 0.2)])
    ) <= 1e-12


def test_invert_triangular_random_round_trips():
    rng = np.random.default_rng(0)
    op = example32()
    for _ in range(100):
        x = rand_point_on_pool(rng, 36, 30)
        result = invert(op, apply(op, x))
        assert l1_distance(result.preimage, x) <= 1e-9
        assert result.residual <= 1e-10


def test_invert_triangular_sparse_support_preserved():
    op = example32()
    x = make_point([(2, 0.5), (5, 0.3), (9, 0.2)])
    result = invert(op, apply(op, x))
    assert result.preimage.support == (2, 5, 9)
    assert l1_distance(result.preimage, x) <= 1e-10


def _timed_out(signum, frame):
    raise TimeoutError("the triangular inverse did not return within 10 s")


def test_invert_triangular_solves_only_the_support():
    near = invert(example32(), make_point({1: 0.5, 2: 0.5}))
    # A loop over every index up to 10**12 would never end.
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(10)
    try:
        far = invert(example32(), make_point({1: 0.5, 10**12: 0.5}))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert far.preimage.masses == near.preimage.masses
    assert far.preimage.support == (1, 10**12)
    assert far.residual == near.residual
    assert far.iterations == 0  # no sweep runs


def test_invert_triangular_root_that_underflows():
    # t^3 + 3t = 5e-324 has a root below the least float: it rounds to 0,
    # the preimage drops index 2, and the residual counts y_2 in full, as
    # l1_distance of the forward image does.
    y = make_point({1: 1.0, 2: 5e-324})
    result = invert(example32(), y)
    assert result.preimage == vertex(1)
    assert result.residual == l1_distance(apply(example32(), result.preimage), y) == 5e-324


def test_invert_triangular_residual_too_large_reports_best():
    y = make_point([(1, 0.3), (2, 0.7)])
    with pytest.raises(ResidualTooLarge) as info:
        invert(example32(), y, tol=1e-30)
    err = info.value
    assert err.residual > 1e-30
    assert l1_distance(apply(example32(), err.best), y) == pytest.approx(
        err.residual, abs=1e-15
    )


def test_unexported_triangular_name_takes_the_route_invert_takes():
    # The benchmark calls and times inversion.invert_triangular by name,
    # so it must stay the same solve as invert(example32(), y).
    assert "invert_triangular" not in volterra.__all__
    op = example32()
    rng = np.random.default_rng(32)
    for _ in range(20):
        x = rand_point_on_pool(rng, 40, 12)
        for y in (x, apply(op, x)):
            assert invert_triangular(y).to_obj() == invert(op, y).to_obj()
    y = make_point([(1, 0.3), (2, 0.7)])
    errors = []
    for call in (lambda: invert_triangular(y, residual_tol=1e-30), lambda: invert(op, y, tol=1e-30)):
        with pytest.raises(ResidualTooLarge) as info:
            call()
        err = info.value
        errors.append((str(err), err.best, err.residual, err.iterations, err.method))
    assert errors[0] == errors[1]

def test_invert_fixed_point_identity_immediate():
    y = make_point([(1, 0.3), (4, 0.7)])
    result = invert_fixed_point(identity_operator(), y)
    assert result.preimage == y
    assert result.iterations <= 1
    assert result.method == "fixed_point" and result.converged


def test_invert_fixed_point_quadratic_round_trip():
    op = quadratic_operator(validate_matrix([(1, 2, 1.0)]))
    target = make_point([(1, 0.75), (2, 0.25)])
    result = invert_fixed_point(op, target)
    assert result.residual <= 1e-10
    assert l1_distance(result.preimage, make_point([(1, 0.5), (2, 0.5)])) <= 1e-8


def test_invert_fixed_point_example31_round_trip():
    rng = np.random.default_rng(1)
    op = example31()
    for _ in range(20):
        x = rand_point(rng, range(1, 7))
        result = invert_fixed_point(op, apply(op, x))
        assert l1_distance(result.preimage, x) <= 1e-8


def test_invert_fixed_point_support_matches_target():
    rng = np.random.default_rng(2)
    _, op = rand_skew_operator(rng, 8)
    x = rand_point(rng, (1, 3, 8))
    result = invert_fixed_point(op, apply(op, x))
    assert result.preimage.support == (1, 3, 8)


def test_invert_fixed_point_non_convergence_reports_best():
    rng = np.random.default_rng(3)
    _, op = rand_skew_operator(rng, 5)
    x = sample_face_rng(FaceSpec.prefix(5), rng)
    y = apply(op, x)
    with pytest.raises(NonConvergence) as info:
        invert_fixed_point(op, y, tol=1e-16, max_iter=3)
    err = info.value
    assert err.iterations == 3
    assert err.residual > 1e-16
    assert abs(err.best.total() - 1.0) <= 1e-9


@pytest.mark.parametrize("damping", [1.0, 0.5, 0.1, 0.02, 0.01, 0.005])
def test_small_damping_still_converges_by_sweeping(damping):
    # The operator is damped toward the identity, g = damping*g_op +
    # (1 - damping)*1; damping 1.0 is op itself.  Well-conditioned sweeps
    # shrink the residual at a steady rate at every damping, so the
    # damping floor must not end them.
    rng = np.random.default_rng(4)
    _, skew = rand_skew_operator(rng, 8)
    for base in (example31(), skew):
        op = convex_combination(base, identity_operator(), damping)
        x = rand_point(rng, range(1, 9))
        result = invert_fixed_point(op, apply(op, x))
        assert result.method == "fixed_point"
        assert result.residual <= 1e-10


def test_invert_fixed_point_argument_validation():
    y = vertex(1)
    with pytest.raises(TypeError):
        invert_fixed_point(identity_operator(), y, damping=0.5)
    # A tolerance must be positive.  With a NaN, ``residual > tol`` is
    # false at once, and y would come back as its own preimage, though
    # example31's image of y is not y.
    y = make_point({1: 0.2, 2: 0.3, 3: 0.5})
    for tol in (0.0, -1e-10, float("nan")):
        for call in (
            lambda: invert_fixed_point(identity_operator(), vertex(1), tol=tol),
            lambda: invert_fixed_point(example31(), y, tol=tol),
            lambda: invert(example31(), y, tol=tol),
            lambda: invert(example32(), y, tol=tol),
            lambda: invert(compose(example31(), example32()), y, tol=tol),
        ):
            with pytest.raises(ValueError):
                call()


def test_inversion_result_serialization():
    result = invert(example32(), make_point([(1, 0.125), (2, 0.875)]))
    obj = result.to_obj()
    assert obj["method"] == "triangular"
    assert obj["converged"] is True
    assert set(obj["preimage"]) == {"1", "2"}
    assert obj["residual"] >= 0.0
    assert isinstance(obj["iterations"], int)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fixed_point_evaluates_f_once_per_sweep(seed):
    calls = []
    base = example31()

    def counted(ks, X):
        calls.append(len(ks))
        return base.fn(ks, X)

    op = VolterraOperator(counted, label="counted")
    y = sample_face_rng(FaceSpec.prefix(6), np.random.default_rng(seed))
    result = invert_fixed_point(op, y)
    assert result == invert_fixed_point(base, y)
    assert 0 < len(calls) <= result.iterations + 1


def _heavy_tailed_point(rng: np.random.Generator):
    """x ~ Dirichlet(0.3) on 3-8 of the indices 1..8, masses floored at
    1e-6: a few large masses and several tiny ones."""
    size = int(rng.integers(3, 9))
    indices = sorted(int(k) for k in rng.choice(np.arange(1, 9), size=size, replace=False))
    weights = np.maximum(rng.dirichlet(np.full(size, 0.3)), 1e-6)
    return make_point(dict(zip(indices, (weights / weights.sum()).tolist())))


_SKEW8 = rand_skew_operator(np.random.default_rng(8), 8)[1]

_TENSOR8 = operator_from_tensor(example31_tensor(8))

#: Family -> (operator, seed of its targets, route, targets of 150 that
#: converge at the CLI's default budget).
_FAMILIES = {
    "example31": (example31(), 1000, "scalar", 150),
    "example31_tensor(8)": (_TENSOR8, 1002, "fixed_point", 150),
    "example32": (example32(), 1005, "triangular", 150),
    "convex(e32,e32)": (convex_combination(example32(), example32(), 0.5), 1007, "triangular", 150),
    "convex(e31,e32)": (convex_combination(example31(), example32(), 0.5), 1010, "scalar", 150),
    "compose(e32,e32)": (compose(example32(), example32()), 1008, "staged", 150),
    "compose(e31,e32)": (compose(example31(), example32()), 1009, "staged", 150),
    "compose(e31,e31)": (compose(example31(), example31()), 1006, "staged", 150),
    "compose(skew,e31)": (compose(_SKEW8, example31()), 1004, "staged", 150),
    "skew8": (_SKEW8, 1001, "fixed_point", 150),
    "convex(e31,skew8)": (convex_combination(example31(), _SKEW8, 0.5), 1003, "fixed_point", 150),
    "convex(e31,compose(e31,e31))": (
        convex_combination(example31(), compose(example31(), example31()), 0.5), 1011, "fixed_point", 150
    ),
    "convex(tensor8,e32)": (convex_combination(_TENSOR8, example32(), 0.5), 1012, "fixed_point", 150),
}
#: Most sweeps a converged target of the seeded sets may take, the
#: sweeps of every stage summed; the structured routes take none.
_MAX_SWEEPS = 25


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_invert_seeded_heavy_tailed_targets(family):
    # Each target either inverts to tol within _MAX_SWEEPS sweeps, with
    # the true residual of the preimage, or raises NonConvergence carrying
    # the true residual of its best iterate; the route is the one the
    # structure gives.
    op, seed, method, floor = _FAMILIES[family]
    rng = np.random.default_rng(seed)
    converged = 0
    for _ in range(150):
        y = apply(op, _heavy_tailed_point(rng))
        try:
            result = invert(op, y)
        except NonConvergence as exc:
            assert exc.method == method
            assert exc.residual > 1e-10
            assert exc.residual == l1_distance(apply(op, exc.best), y)
        else:
            converged += 1
            assert result.method == method
            assert result.residual <= 1e-10 and result.iterations <= _MAX_SWEEPS
            assert result.residual == l1_distance(apply(op, result.preimage), y)
    assert converged >= floor


def test_a_target_whose_first_sweeps_overshoot_recovers_its_damping():
    # The first sweeps overshoot, and their rejections halve the damping
    # to about 5e-4; each accepted sweep doubles it back toward 1/2, and
    # the Anderson trials then converge in a few sweeps: 16 in all, within
    # a budget of 100 too.
    op = example31()
    y = apply(op, make_point({2: 6.22873049528632e-05, 3: 0.9997846866076967, 5: 0.00015302608735048718}))
    for max_iter in (10_000, 100):
        result = invert_fixed_point(op, y, max_iter=max_iter)
        assert result.iterations <= 100 and result.residual <= 1e-10


def test_a_crawl_runs_to_max_iter():
    # g_k = x_k^(p-1) / sum_j x_j^p, so that (Vx)_k = x_k^p / sum_j x_j^p:
    # with p = 0.01 a damped sweep gains little, and the Anderson trials
    # take 25 sweeps to converge.  In the first 10 no damped sweep is
    # rejected, so the damping never falls and neither tol nor the
    # damping floor ends the sweeps: max_iter does, with the residual
    # below the start's.  The default budget is enough to converge.
    p = 0.01

    def crawl(ks, X):
        s = sum(x**p for x in X)
        return [x ** (p - 1.0) / s for x in X]

    op = VolterraOperator(crawl, label="crawl")
    y = apply(op, make_point({1: 0.2, 2: 0.3, 3: 0.5}))
    with pytest.raises(NonConvergence) as info:
        invert(op, y, max_iter=10)
    assert info.value.iterations == 10
    assert info.value.residual < l1_distance(apply(op, y), y)
    result = invert(op, y)
    assert 10 < result.iterations <= 10_000 and result.residual <= 1e-10


def test_route_comes_from_structure_not_label():
    # example32's map under its label, but built by hand: no route is
    # recorded, so the sweeps run, and the triangular solve does not.
    op = VolterraOperator(example32().fn, label="example32")
    y = apply(example32(), make_point({1: 0.5, 2: 0.3, 3: 0.2}))
    result = invert(op, y)
    assert result.method == "fixed_point"
    assert result.residual <= 1e-10
    assert invert(example32(), y).method == "triangular"


def test_staged_miss_names_the_stage():
    # The skew quadratic stage sweeps; the triangle adds no sweep.
    op = compose(_SKEW8, example32())
    x = make_point({1: 0.025, 2: 0.4, 3: 0.575})
    y = apply(op, x)
    result = invert(op, y)
    assert result.method == "staged" and result.residual <= 1e-10
    z = invert(_SKEW8, y, tol=1e-10 / 16)
    assert result.iterations == z.iterations + invert(example32(), z.preimage).iterations
    with pytest.raises(NonConvergence, match="stage 1 \\(quadratic\\(n=8\\)\\)") as info:
        invert(op, y, max_iter=2)
    err = info.value
    assert (err.method, err.iterations) == ("staged", 2)  # two sweeps; the triangle adds none
    assert err.residual == l1_distance(apply(op, err.best), y) > 1e-10
    # Sweeping stages share the budget: the first spends it, and the
    # second stops before its first sweep.
    twice = compose(_SKEW8, _SKEW8)
    with pytest.raises(NonConvergence, match="stage 1 \\(quadratic\\(n=8\\)\\)") as info:
        invert(twice, apply(twice, x), max_iter=4)
    assert info.value.iterations == 4


@pytest.mark.parametrize("order", ["e32 after e31", "e31 after e32"])
def test_a_triangular_stage_spends_none_of_the_budget(order):
    # A target whose largest index is twice max_iter: were the triangular
    # stage to count the index, it would use up the budget of the sweeping
    # stage, or pass it.  example31 alone takes the scalar root, so the
    # sweeping stage is example31 mixed with the identity, which records
    # no structure.
    x = make_point({1: 0.3, 5: 0.3, 20000: 0.4})
    e31 = convex_combination(example31(), identity_operator(), 0.5)
    op = compose(example32(), e31) if order == "e32 after e31" else compose(e31, example32())
    result = invert(op, apply(op, x))
    assert result.method == "staged" and result.residual <= 1e-10
    assert 0 < result.iterations <= 10_000
    assert l1_distance(result.preimage, x) <= 1e-9


def test_sweep_stall_raises_with_the_best_iterate():
    # example32's sweeps stall on this image: rejected sweeps halve the
    # damping below DAMPING_FLOOR well inside the budget, and the best
    # iterate comes back.
    op = VolterraOperator(example32().fn, label="hand-built example32")
    y = apply(op, make_point({1: 0.025, 2: 0.4, 3: 0.575}))
    with pytest.raises(NonConvergence) as info:
        invert(op, y)
    err = info.value
    assert err.method == "fixed_point"
    assert err.iterations < 10_000
    assert err.residual == l1_distance(apply(op, err.best), y) > 1e-10


@pytest.mark.parametrize("family", ["example31", "compose(e31,e31)", "compose(e31,e32)", "convex(e31,e32)"])
def test_scalar_preimages_are_right_in_every_coordinate(family):
    # The sweeps stop on the l1 residual, and left coordinates of these
    # sets up to 1.1e-3 off; the scalar root solves each coordinate in
    # closed form, so every one comes back to a relative 1e-10.
    op, seed, _, _ = _FAMILIES[family]
    rng = np.random.default_rng(seed)
    for _ in range(150):
        x = _heavy_tailed_point(rng)
        result = invert(op, apply(op, x))
        assert result.iterations == 0
        assert result.preimage.support == x.support
        for got, want in zip(result.preimage.masses, x.masses):
            assert abs(got - want) <= 1e-10 * want


def test_no_operator_of_example31_and_example32_pieces_sweeps():
    # example31, example32, their convex mixes (mixes of mixes too) and
    # every composition of those, two levels deep, invert by their
    # structure, with no sweep, even on a budget of none.
    e31, e32 = example31(), example32()
    mixes = [e31, e32] + [convex_combination(a, b, lam) for a, b in ((e31, e32), (e32, e31)) for lam in (0.3, 0.7)]
    mixes.append(convex_combination(mixes[2], mixes[5], 0.4))
    composed = [compose(a, b) for a in mixes for b in mixes]
    x = make_point({1: 0.1, 2: 0.25, 4: 0.05, 7: 0.6})
    for op in mixes + composed + [compose(a, b) for a in composed[::7] for b in composed[::5]]:
        result = invert(op, apply(op, x), max_iter=0)
        assert result.method in ("scalar", "triangular", "staged"), op.label
        assert result.iterations == 0 and result.residual <= 1e-10, op.label
        assert l1_distance(result.preimage, x) <= 1e-12, op.label


def test_scalar_miss_raises_with_the_point_found():
    # Below the rounding of the forward image no root meets the tolerance:
    # the miss is a ResidualTooLarge of the scalar route, carrying the
    # point found and its true residual, and never a fall back to sweeps.
    op = example31()
    y = make_point({1: 0.2, 2: 0.3, 3: 0.5})
    with pytest.raises(ResidualTooLarge) as info:
        invert(op, y, tol=1e-30)
    err = info.value
    assert (err.method, err.iterations) == ("scalar", 0)
    assert err.residual == l1_distance(apply(op, err.best), y) > 1e-30


def test_scalar_route_keeps_the_declared_domain():
    op = example31(3)
    y = make_point({1: 0.2, 2: 0.3, 4: 0.5})
    with pytest.raises(DomainViolation):
        invert(op, y)
    with pytest.raises(DomainViolation):
        invert(convex_combination(op, example32(), 0.5), y)
    assert invert(op, make_point({1: 0.2, 2: 0.3, 3: 0.5})).method == "scalar"


def test_structure_record_mixes_linearly():
    # The record is the pair (w31, w32) of example31's and example32's
    # weights in g, mixed weight by weight.
    e31, e32 = example31(), example32()
    assert e31.structure == (1.0, 0.0)
    assert e32.structure == (0.0, 1.0)
    assert convex_combination(e31, e32, 0.25).structure == (0.25, 0.75)
    inner = convex_combination(e31, e32, 0.3)
    nested = convex_combination(inner, e31, 0.7)
    assert nested.structure == tuple(0.7 * a + (1.0 - 0.7) * b for a, b in zip(inner.structure, e31.structure))
    # A mix of two equal records is that record, bit for bit, at any lam.
    assert convex_combination(e32, e32, 0.1).structure == e32.structure
    assert compose(e31, e32).structure is None and compose(e31, e32).stages == (e31, e32)
    assert convex_combination(e31, identity_operator(), 0.5).structure is None
