import signal

import numpy as np
import pytest

from volterra import (
    FaceSpec,
    GeneratingMap,
    NonConvergence,
    ResidualTooLarge,
    apply,
    convex_combination,
    example31,
    example32,
    identity_operator,
    invert_fixed_point,
    invert_triangular,
    l1_distance,
    make_point,
    quadratic_operator,
    sample_face,
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
    assert far.iterations == 10**12  # the largest index, as before


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
    # halve the residual well within STALL_SWEEPS sweeps at every damping,
    # so they must not hand over to Newton steps.
    rng = np.random.default_rng(4)
    _, skew = rand_skew_operator(rng, 8)
    for base in (example31(), skew):
        op = convex_combination(base, identity_operator(), damping)
        x = rand_point(rng, range(1, 9))
        result = invert_fixed_point(op, apply(op, x))
        assert result.method == "fixed_point"
        assert result.residual <= 1e-10


def test_supports_past_the_newton_bound_keep_sweeping(monkeypatch):
    # Newton steps hold dense d x d arrays, so past NEWTON_MAX_SUPPORT a
    # stall is not handed over: the sweeps end as they did before Newton
    # steps existed, at max_iter or at the damping floor.
    stall = apply(example32(), make_point({1: 0.025, 2: 0.4, 3: 0.575}))
    floor = sample_face(FaceSpec.prefix(6), 34)
    assert invert_fixed_point(example32(), stall, max_iter=200).method == "newton"
    monkeypatch.setattr(inversion, "NEWTON_MAX_SUPPORT", 2)
    with pytest.raises(NonConvergence) as info:
        invert_fixed_point(example32(), stall, max_iter=200)
    assert (info.value.method, info.value.iterations) == ("fixed_point", 200)
    with pytest.raises(NonConvergence) as info:
        invert_fixed_point(example32(), floor)
    err = info.value
    assert (err.method, err.iterations, err.residual) == ("fixed_point", 816, 0.14091159374738282)


def test_invert_fixed_point_argument_validation():
    y = vertex(1)
    with pytest.raises(ValueError):
        invert_fixed_point(identity_operator(), y, tol=0.0)
    with pytest.raises(TypeError):
        invert_fixed_point(identity_operator(), y, damping=0.5)


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
        return base.map.fn(ks, X)

    op = VolterraOperator(GeneratingMap(counted), label="counted")
    y = sample_face_rng(FaceSpec.prefix(6), np.random.default_rng(seed))
    result = invert_fixed_point(op, y)
    assert result == invert_fixed_point(base, y)
    assert 0 < len(calls) <= result.iterations + 1


@pytest.mark.parametrize("max_iter", [41, 46, 51])
def test_newton_budget_exit(max_iter):
    """The example32 stall target: sweeps hand over to Newton steps at 40
    iterations, which converge at 52; a budget in between runs out."""
    op = example32()
    y = apply(op, make_point({1: 0.025, 2: 0.4, 3: 0.575}))
    with pytest.raises(NonConvergence) as info:
        invert_fixed_point(op, y, max_iter=max_iter)
    err = info.value
    assert (err.method, err.iterations) == ("newton", max_iter)
    assert err.residual == l1_distance(apply(op, err.best), y)
    assert invert_fixed_point(op, y, max_iter=52).iterations == 52
