import numpy as np
import pytest

from volterra import (
    FaceSpec,
    NormalizationFailure,
    Trajectory,
    TrajectoryError,
    VolterraOperator,
    apply,
    detect_fixed_points_on_face,
    example31,
    example32,
    identity_operator,
    iterate,
    l1_distance,
    make_point,
    quadratic_operator,
    validate_matrix,
    vertex,
)
from helpers import rand_point, rand_skew_operator


def test_iterate_zero_steps():
    traj = iterate(example31(), vertex(2), 0)
    assert traj.points == (vertex(2),)
    assert traj.steps == 0 and not traj.converged


def test_trajectory_constant_at_vertex():
    traj = iterate(example32(), vertex(3), 100)
    assert traj.converged
    assert traj.limit == vertex(3)
    assert all(p == vertex(3) for p in traj.points)
    # Early stop: ten quiet steps suffice.
    assert traj.steps == 10


def test_trajectory_constant_at_symmetric_fixed_point():
    uniform = make_point([(1, 0.5), (2, 0.5)])
    traj = iterate(example31(), uniform, 50)
    assert traj.converged and traj.limit == uniform


def test_example32_coordinate_collapses_to_closed_form():
    traj = iterate(example32(), make_point([(1, 0.5), (2, 0.5)]), 60)
    for t in range(4):
        expected = 0.5 ** (3**t)
        assert traj.points[t].mass(1) == pytest.approx(expected, rel=1e-12)
    masses = [p.mass(1) for p in traj.points]
    assert all(b <= a for a, b in zip(masses, masses[1:]))
    assert traj.converged
    assert traj.limit == vertex(2)


def test_trajectory_determinism():
    x0 = make_point([(1, 0.3), (2, 0.7)])
    a = iterate(example31(), x0, 40)
    b = iterate(example31(), x0, 40)
    assert a.points == b.points


def test_trajectory_reproducibility_of_steps():
    rng = np.random.default_rng(0)
    _, op = rand_skew_operator(rng, 5)
    x0 = rand_point(rng, range(1, 6))
    traj = iterate(op, x0, 30)
    for t in range(traj.steps):
        assert l1_distance(traj.points[t + 1], apply(op, traj.points[t])) <= 1e-12


def test_trajectory_support_never_grows_and_stays_normalized():
    rng = np.random.default_rng(1)
    _, op = rand_skew_operator(rng, 6)
    x0 = rand_point(rng, range(1, 7))
    traj = iterate(op, x0, 50)
    support = set(x0.support)
    for p in traj.points:
        assert set(p.support) <= support
        assert abs(p.total() - 1.0) <= 1e-9


def test_trajectory_records():
    traj = iterate(example31(), vertex(1), 3)
    records = traj.to_records()
    assert records[0] == {"t": 0, "x": {"1": 1.0}}
    assert len(records) == len(traj.points)


def test_trajectory_error_carries_step_index():
    ex31 = example31()

    def switching(ks, X):  # one point at a time: iterate never passes a block
        if dict(zip(ks, X)).get(1, 0.0) > 0.1:
            return ex31.values(X, ks)
        return [1.25] * len(ks)

    op = VolterraOperator(switching, label="switching")
    with pytest.raises(TrajectoryError) as info:
        iterate(op, make_point([(1, 0.3), (2, 0.7)]), 50)
    assert info.value.step == 3
    assert isinstance(info.value.cause, NormalizationFailure)


def test_detect_fixed_points_singleton_face():
    found = detect_fixed_points_on_face(example32(), FaceSpec.of([1]), starts=3, seed=0)
    assert found == [vertex(1)]


def test_detect_fixed_points_example31_includes_uniform():
    found = detect_fixed_points_on_face(
        example31(), FaceSpec.of([1, 2]), starts=20, seed=1, tol=1e-9
    )
    uniform = make_point([(1, 0.5), (2, 0.5)])
    assert vertex(1) in found
    assert vertex(2) in found
    assert any(l1_distance(p, uniform) <= 1e-9 for p in found)


def test_detect_fixed_points_quadratic_vertices_only():
    op = quadratic_operator(validate_matrix([(1, 2, 1.0)]))
    found = detect_fixed_points_on_face(op, FaceSpec.of([1, 2]), starts=15, seed=2)
    assert vertex(1) in found and vertex(2) in found
    assert len(found) == 2


def test_trajectory_derives_steps_and_limit():
    points = (vertex(1), make_point([(1, 0.5), (2, 0.5)]), vertex(2))
    settled = Trajectory(points=points, converged=True)
    assert (settled.steps, settled.limit) == (2, vertex(2))
    running = Trajectory(points, False)
    assert (running.steps, running.limit) == (2, None)
    assert Trajectory((vertex(3),), True).limit == vertex(3)
    for removed in ({"steps": 2}, {"limit": vertex(2)}):
        with pytest.raises(TypeError):
            Trajectory(points=points, converged=True, **removed)


def test_detect_fixed_points_tests_each_probe_once():
    """Six probes, all fixed: each is applied once, not once more when kept."""
    identity = identity_operator()
    calls = []

    def counted(ks, X):
        calls.append(len(ks))
        return identity.fn(ks, X)

    op = VolterraOperator(counted, label="counted")
    found = detect_fixed_points_on_face(op, FaceSpec.prefix(3), starts=2, seed=0)
    assert len(calls) == 6
    assert len(found) == 6
    assert found == detect_fixed_points_on_face(identity, FaceSpec.prefix(3), starts=2, seed=0)


@pytest.mark.parametrize("call", [
    lambda: iterate(example31(), vertex(1), -1),
    lambda: detect_fixed_points_on_face(example31(), FaceSpec.prefix(2), starts=0),
], ids=["iterate_steps", "detect_starts"])
def test_counts_below_their_floor_raise(call):
    with pytest.raises(ValueError, match=">= "):
        call()
