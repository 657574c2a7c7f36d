import signal

import numpy as np
import pytest

from volterra import (
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
    invert_triangular,
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
from volterra import inversion
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
    result = invert_triangular(vertex(1))
    assert result.preimage == vertex(1)
    assert result.residual == 0.0
    assert result.method == "triangular" and result.converged


def test_invert_triangular_frozen_cases():
    result = invert_triangular(make_point([(1, 0.125), (2, 0.875)]))
    assert l1_distance(result.preimage, make_point([(1, 0.5), (2, 0.5)])) <= 1e-12
    result = invert_triangular(make_point([(1, 0.125), (2, 0.477), (3, 0.398)]))
    assert l1_distance(
        result.preimage, make_point([(1, 0.5), (2, 0.3), (3, 0.2)])
    ) <= 1e-12


def test_invert_triangular_random_round_trips():
    rng = np.random.default_rng(0)
    op = example32()
    for _ in range(100):
        x = rand_point_on_pool(rng, 36, 30)
        result = invert_triangular(apply(op, x))
        assert l1_distance(result.preimage, x) <= 1e-9
        assert result.residual <= 1e-10


def test_invert_triangular_sparse_support_preserved():
    op = example32()
    x = make_point([(2, 0.5), (5, 0.3), (9, 0.2)])
    result = invert_triangular(apply(op, x))
    assert result.preimage.support == (2, 5, 9)
    assert l1_distance(result.preimage, x) <= 1e-10


def _timed_out(signum, frame):
    raise TimeoutError("invert_triangular did not return within 10 s")


def test_invert_triangular_solves_only_the_support():
    near = invert_triangular(make_point({1: 0.5, 2: 0.5}))
    # A loop over every index up to 10**12 would never end.
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(10)
    try:
        far = invert_triangular(make_point({1: 0.5, 10**12: 0.5}))
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
    result = invert_triangular(y)
    assert result.preimage == vertex(1)
    assert result.residual == l1_distance(apply(example32(), result.preimage), y) == 5e-324


def test_invert_triangular_residual_too_large_reports_best():
    y = make_point([(1, 0.3), (2, 0.7)])
    with pytest.raises(ResidualTooLarge) as info:
        invert_triangular(y, residual_tol=1e-30)
    err = info.value
    assert err.residual > 1e-30
    assert l1_distance(apply(example32(), err.best), y) == pytest.approx(
        err.residual, abs=1e-15
    )


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
    # shrink the residual at a steady rate at every damping, so the stall
    # rule must not end them.
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
            lambda: invert_triangular(y, residual_tol=tol),
            lambda: invert(example31(), y, tol=tol),
            lambda: invert(example32(), y, tol=tol),
            lambda: invert(compose(example31(), example32()), y, tol=tol),
        ):
            with pytest.raises(ValueError):
                call()


def test_inversion_result_serialization():
    result = invert_triangular(make_point([(1, 0.125), (2, 0.875)]))
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

#: Family -> (operator, seed of its targets, route, targets of 150 that
#: converge at the CLI's default budget).  The misses end in an honest
#: NonConvergence: in a stage of compose(e31, e31) and compose(e31, e32)
#: the sweeps stall, and on convex(e31, e32) they reach the damping floor.
_FAMILIES = {
    "example31": (example31(), 1000, "fixed_point", 150),
    "example31_tensor(8)": (operator_from_tensor(example31_tensor(8)), 1002, "fixed_point", 150),
    "example32": (example32(), 1005, "triangular", 150),
    "convex(e32,e32)": (convex_combination(example32(), example32(), 0.5), 1007, "triangular", 150),
    "convex(e31,e32)": (convex_combination(example31(), example32(), 0.5), 1010, "fixed_point", 144),
    "compose(e32,e32)": (compose(example32(), example32()), 1008, "staged", 150),
    "compose(e31,e32)": (compose(example31(), example32()), 1009, "staged", 149),
    "compose(e31,e31)": (compose(example31(), example31()), 1006, "staged", 149),
    "compose(skew,e31)": (compose(_SKEW8, example31()), 1004, "staged", 150),
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_invert_seeded_heavy_tailed_targets(family):
    # Each target either inverts to tol, with the true residual of the
    # preimage, or raises NonConvergence carrying the true residual of
    # its best iterate; the route is the one the structure gives.
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
            assert result.residual <= 1e-10
            assert result.residual == l1_distance(apply(op, result.preimage), y)
    assert converged >= floor


def test_a_slow_steady_rate_that_fits_the_budget_is_no_stall():
    # The damping falls to about 5e-4 in the first sweeps, and the
    # residual then shrinks by about 10% every STALL_SWEEPS sweeps: it
    # reaches tol after 6,571 sweeps, inside the default budget.  With
    # 2,000 sweeps the rate cannot get there, and the sweeps stop at the
    # second stall check instead of running out the budget.
    op = example31()
    y = apply(op, make_point({2: 6.22873049528632e-05, 3: 0.9997846866076967, 5: 0.00015302608735048718}))
    result = invert(op, y)
    assert result.iterations > 2000 and result.residual <= 1e-10
    with pytest.raises(NonConvergence) as info:
        invert(op, y, max_iter=2000)
    assert info.value.iterations == 2 * inversion.STALL_SWEEPS


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
    op = compose(example31(), example32())
    x = make_point({1: 0.025, 2: 0.4, 3: 0.575})
    y = apply(op, x)
    result = invert(op, y)
    assert result.method == "staged" and result.residual <= 1e-10
    z = invert(example31(), y, tol=1e-10 / 16)
    assert result.iterations == z.iterations + invert(example32(), z.preimage).iterations
    with pytest.raises(NonConvergence, match="stage 1 \\(example31\\)") as info:
        invert(op, y, max_iter=2)
    err = info.value
    assert (err.method, err.iterations) == ("staged", 2)  # two sweeps; the triangle adds none
    assert err.residual == l1_distance(apply(op, err.best), y) > 1e-10
    # Sweeping stages share the budget: the first spends it, and the
    # second stops before its first sweep.
    twice = compose(example31(), example31())
    with pytest.raises(NonConvergence, match="stage 1 \\(example31\\)") as info:
        invert(twice, apply(twice, x), max_iter=4)
    assert info.value.iterations == 4


@pytest.mark.parametrize("order", ["e32 after e31", "e31 after e32"])
def test_a_triangular_stage_spends_none_of_the_budget(order):
    # A target whose largest index is twice max_iter: were the triangular
    # stage to count the index, it would use up the budget of the sweeping
    # stage, or pass it.
    x = make_point({1: 0.3, 5: 0.3, 20000: 0.4})
    op = compose(example32(), example31()) if order == "e32 after e31" else compose(example31(), example32())
    result = invert(op, apply(op, x))
    assert result.method == "staged" and result.residual <= 1e-10
    assert 0 < result.iterations <= 10_000
    assert l1_distance(result.preimage, x) <= 1e-9


def test_sweep_stall_raises_with_the_best_iterate():
    # example32's sweeps stall on this image: at a stall check the rate
    # over the last STALL_SWEEPS sweeps cannot reach tol within the
    # budget, and the best iterate comes back.
    op = VolterraOperator(example32().fn, label="hand-built example32")
    y = apply(op, make_point({1: 0.025, 2: 0.4, 3: 0.575}))
    with pytest.raises(NonConvergence) as info:
        invert(op, y)
    err = info.value
    assert err.method == "fixed_point"
    assert err.iterations % inversion.STALL_SWEEPS == 0 and err.iterations < 10_000
    assert err.residual == l1_distance(apply(op, err.best), y) > 1e-10
