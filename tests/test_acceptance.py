"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Tolerances and sample sizes are fixed here and are not
meant to be tuned.
"""

import time

import numpy as np

from volterra import (
    FaceSpec,
    NonConvergence,
    apply,
    check_conditions,
    check_pair_condition,
    cubic_apply,
    example31,
    example31_tensor,
    example32,
    image_tail_sum,
    invert,
    invert_fixed_point,
    l1_distance,
    make_point,
    operator_from_tensor,
    pair_condition_value,
    sample_face_rng,
    sine_example,
    symmetry_defect_witness,
    vertex,
)
from helpers import (
    linear_operator_from_cells,
    rand_defective_cells,
    rand_point,
    rand_point_on_pool,
    rand_skew_operator,
    rand_support,
    rand_volterra_tensor,
)


def report(number: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} [{label}]: PASS{suffix}")


def test_c01_vertex_pair_value_of_triangular_operator():
    op = example32()
    e1, e2 = vertex(1), vertex(2)
    value = pair_condition_value(op, e1, e2)
    assert abs(value - 1.0) <= 1e-12

    best = min(
        _timed(lambda: pair_condition_value(op, e1, e2)) for _ in range(5)
    )
    assert best < 1e-3, f"single evaluation took {best * 1e3:.3f} ms"
    report(1, "vertex-pair value", f"value={value!r}, {best * 1e6:.1f} us")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_c02_triangular_normalization_and_tail_telescoping():
    rng = np.random.default_rng(202)
    op = example32()
    start = time.perf_counter()
    worst_norm = 0.0
    worst_tel = 0.0
    for _ in range(1000):
        x = rand_point_on_pool(rng, 110, 100)
        image = apply(op, x)
        worst_norm = max(worst_norm, abs(image.total() - 1.0))
        for k in range(1, x.max_index + 2):
            gap = abs(image_tail_sum(k, x) - (image.mass(k) + image_tail_sum(k + 1, x)))
            worst_tel = max(worst_tel, gap)
    elapsed = time.perf_counter() - start
    assert worst_norm <= 1e-12
    assert worst_tel <= 1e-12
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(2, "normalization + telescoping", f"norm={worst_norm:.2e}, tel={worst_tel:.2e}, {elapsed:.2f}s")


def test_c03_triangular_bijectivity_round_trip():
    rng = np.random.default_rng(303)
    op = example32()
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        x = rand_point_on_pool(rng, 55, 50)
        result = invert(op, apply(op, x))
        worst = max(worst, l1_distance(result.preimage, x))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(3, "round trip", f"worst={worst:.2e}, {elapsed:.2f}s")


def test_c04_pair_condition_for_square_sum_operator():
    op = example31()
    face = FaceSpec.prefix(20)
    result = check_pair_condition(op, face, samples=10_000, seed=404)
    assert result.passed
    assert result.max_value <= 1e-12

    # Independent oracle: the pair functional equals -sum (x_i - y_i)^2.
    rng = np.random.default_rng(405)
    worst_gap = 0.0
    for _ in range(1000):
        x = sample_face_rng(face, rng)
        y = sample_face_rng(face, rng)
        value = pair_condition_value(op, x, y)
        oracle = -sum(
            (x.mass(k) - y.mass(k)) ** 2 for k in set(x.support) | set(y.support)
        )
        worst_gap = max(worst_gap, abs(value - oracle))
    assert worst_gap <= 1e-12
    report(4, "pair condition", f"max={result.max_value:.2e}, oracle gap={worst_gap:.2e}")


def test_c05_skew_characterization_both_directions():
    rng = np.random.default_rng(505)
    worst_balance = 0.0
    worst_pair = -np.inf
    for _ in range(100):
        n = int(rng.integers(2, 11))
        _, op = rand_skew_operator(rng, n)
        face = FaceSpec.prefix(n)
        for _ in range(1000):
            x = sample_face_rng(face, rng)
            fvals = [g - 1.0 for g in op.values(x.masses, face.indices)]
            balance = abs(sum(x.mass(k) * v for k, v in zip(face.indices, fvals)))
            worst_balance = max(worst_balance, balance)
        pair_report = check_pair_condition(op, face, samples=100, seed=506)
        worst_pair = max(worst_pair, pair_report.max_value)
        assert pair_report.passed
    assert worst_balance <= 1e-12
    assert worst_pair <= 1e-12

    worst_defect = np.inf
    for _ in range(100):
        n = int(rng.integers(2, 11))
        cells = rand_defective_cells(rng, n)
        witness = symmetry_defect_witness(cells)
        assert witness is not None, "defective matrix must yield a witness"
        point, _ = witness
        op = linear_operator_from_cells(cells)
        balance = abs(sum(m * op.f(k, point) for k, m in point.items()))
        worst_defect = min(worst_defect, balance)
        assert balance > 1e-9
    report(
        5,
        "skew characterization",
        f"balance={worst_balance:.2e}, pair={worst_pair:.2e}, min defect={worst_defect:.2e}",
    )


def test_c06_grouped_form_matches_brute_force_triple_sum():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        tensor = rand_volterra_tensor(rng, n)
        op = operator_from_tensor(tensor)
        for _ in range(100):
            x = rand_point_on_pool(rng, n, n)
            gap = l1_distance(apply(op, x), cubic_apply(tensor, x))
            worst = max(worst, gap)
    assert worst <= 1e-12
    report(6, "grouped == ordered sum", f"worst={worst:.2e}")


def test_c07_square_sum_tensor_dual_form_identity():
    rng = np.random.default_rng(707)
    tensor = example31_tensor(10)
    worst = 0.0
    for _ in range(10_000):
        x = rand_point_on_pool(rng, 10, 10)
        image = cubic_apply(tensor, x)
        sq = sum(m * m for _, m in x.items())
        for k, m in x.items():
            expected = m * (1.0 + m - sq)
            worst = max(worst, abs(image.mass(k) - expected))
    assert worst <= 1e-12
    report(7, "dual-form identity", f"worst={worst:.2e}")


def test_c08_vertex_fixity_and_face_invariance():
    rng = np.random.default_rng(808)
    cases = [
        (example31(), (1, 4, 9), 12),
        (example32(), (1, 4, 9), 12),
        (sine_example(), (1, 2), 2),
    ]
    for _ in range(50):
        n = int(rng.integers(2, 11))
        _, op = rand_skew_operator(rng, n)
        cases.append((op, tuple(range(1, n + 1)), n + 3))
    for _ in range(50):
        n = int(rng.integers(2, 7))
        op = operator_from_tensor(rand_volterra_tensor(rng, n))
        cases.append((op, tuple(range(1, n + 1)), n))

    for op, vertex_indices, pool in cases:
        for n in vertex_indices:
            assert l1_distance(apply(op, vertex(n)), vertex(n)) == 0.0
        for _ in range(10):
            support = rand_support(rng, pool, min(pool, 6))
            x = rand_point(rng, support)
            assert set(apply(op, x).support) <= set(support)
    report(8, "vertex fixity + face invariance", f"{len(cases)} operators")


def test_c09_sine_counterexample_detection_and_non_injectivity():
    op = sine_example()
    face = FaceSpec.of([1, 2])
    result = check_conditions(op, face, samples=2000, seed=909, margin=1e-9)
    assert not result.all_passed
    strict = result.strict_bound
    assert not strict.passed
    assert strict.witness is not None
    assert abs(strict.witness.mass(1) - 0.5) <= 1e-6
    assert result.lower_bound.passed and result.balance.passed

    left = apply(op, make_point([(1, 0.5), (2, 0.5)]))
    right = apply(op, vertex(2))
    assert l1_distance(left, right) <= 1e-12
    report(9, "sine counterexample", f"witness x1={strict.witness.mass(1)!r}")


def test_c10_fixed_point_inverter_recovery_rate():
    rng = np.random.default_rng(1010)
    successes = 0
    failures = []
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        _, op = rand_skew_operator(rng, n)
        x_true = sample_face_rng(FaceSpec.prefix(n), rng)
        y = apply(op, x_true)
        try:
            result = invert_fixed_point(op, y)
        except NonConvergence as exc:
            # Honest failure: the exception must carry the best residual.
            assert exc.residual > 0.0
            failures.append(exc)
            continue
        assert result.residual <= 1e-10
        err = l1_distance(result.preimage, x_true)
        worst = max(worst, err)
        if err <= 1e-8:
            successes += 1
    assert successes >= 95, f"only {successes}/100 recovered"
    report(
        10,
        "fixed-point inverter",
        f"{successes}/100 recovered, worst={worst:.2e}, failures={len(failures)}",
    )
