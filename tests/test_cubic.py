import json
import math

import numpy as np
import pytest

from volterra import (
    NegativeCoefficient,
    NormalizationFailure,
    NonFiniteValue,
    NotVolterra,
    PermutationInconsistency,
    RowSumViolation,
    UndefinedTriple,
    apply,
    cubic_apply,
    example31,
    example31_tensor,
    example32,
    image_tail_sum,
    is_volterra,
    l1_distance,
    make_point,
    operator_from_tensor,
    prefix_positivity_value,
    sine_example,
    SparsePoint,
    validate_tensor,
    vertex,
)
from volterra.cubic import tensor_to_obj
from helpers import rand_point, rand_point_on_pool, rand_volterra_tensor


# --- validation -------------------------------------------------------------


def test_validate_degenerate_triple():
    p = validate_tensor({(1, 1, 1): {1: 1.0}})
    assert p.coefficients[(1, 1, 1)] == {1: 1.0}
    assert p.dimension == 1


def test_validate_uniform_distinct_triple():
    third = 1.0 / 3.0
    p = validate_tensor({(1, 2, 3): {1: third, 2: third, 3: third}})
    assert p.outputs(3, 1, 2)[2] == third


def test_validate_row_sum_violation():
    with pytest.raises(RowSumViolation) as info:
        validate_tensor({(1, 2, 2): {2: 0.7}})
    assert info.value.total == pytest.approx(0.7)
    assert info.value.triple == (1, 2, 2)


def test_validate_negative_coefficient():
    with pytest.raises(NegativeCoefficient):
        validate_tensor({(1, 1, 2): {1: 1.2, 2: -0.2}})


def test_validate_permutation_inconsistency():
    raw = [((1, 2, 3), {1: 1.0}), ((3, 2, 1), {2: 1.0})]
    with pytest.raises(PermutationInconsistency) as info:
        validate_tensor(raw)
    assert info.value.triple == (1, 2, 3)


def test_validate_accepts_consistent_permuted_duplicates():
    raw = [((1, 2, 3), {1: 0.5, 2: 0.5}), ((3, 1, 2), {2: 0.5, 1: 0.5})]
    p = validate_tensor(raw)
    assert p.outputs(1, 2, 3) == {1: 0.5, 2: 0.5}


@pytest.mark.parametrize("key", [[1, 2], [1, 1, 2, 2]])
def test_validate_rejects_a_triple_of_two_or_four_indices(key):
    with pytest.raises(ValueError, match="a triple holds three indices") as info:
        validate_tensor([{"triple": key, "outputs": {"1": 1.0}}])
    assert type(info.value) is ValueError


def test_validate_json_shape():
    p = validate_tensor([{"triple": [2, 1, 1], "outputs": {"1": 1.0}}])
    assert p.outputs(1, 1, 2) == {1: 1.0}


# --- face invariance --------------------------------------------------------


def test_is_volterra_true_for_example31_tensor():
    assert is_volterra(example31_tensor(4)) is True


def test_not_volterra_names_the_offender():
    p = validate_tensor({(1, 1, 1): {2: 1.0}})
    assert is_volterra(p) is False
    with pytest.raises(NotVolterra) as info:
        operator_from_tensor(p)
    assert (info.value.triple, info.value.k, info.value.value) == ((1, 1, 1), 2, 1.0)


def test_non_volterra_tensor_leaks_mass_outside_support():
    p = validate_tensor({(1, 1, 1): {2: 1.0}})
    image = cubic_apply(p, vertex(1))
    assert image == vertex(2)


# --- application ------------------------------------------------------------


def test_cubic_apply_vertex_uses_degenerate_row():
    p = validate_tensor({(1, 1, 1): {1: 0.4, 2: 0.6}, (2, 2, 2): {2: 1.0}})
    image = cubic_apply(p, vertex(1))
    assert image.as_dict() == {1: 0.4, 2: 0.6}


def test_cubic_apply_volterra_fixes_vertices():
    rng = np.random.default_rng(0)
    p = rand_volterra_tensor(rng, 5)
    for n in range(1, 6):
        assert cubic_apply(p, vertex(n)) == vertex(n)


def test_cubic_apply_degenerate_default_rows():
    # (1,1,1) and (2,2,2) are not stored; they default to identity rows.
    p = validate_tensor({(1, 1, 2): {1: 1.0}, (1, 2, 2): {2: 1.0}})
    x = make_point([(1, 0.5), (2, 0.5)])
    assert cubic_apply(p, x) == x
    assert cubic_apply(p, vertex(2)) == vertex(2)
    assert l1_distance(apply(operator_from_tensor(p), x), x) <= 1e-15


def test_cubic_apply_rejects_support_beyond_dimension():
    p = validate_tensor({(1, 1, 1): {1: 1.0}})
    with pytest.raises(UndefinedTriple):
        cubic_apply(p, vertex(5))


def test_cubic_apply_undefined_triple():
    p = validate_tensor({(1, 1, 1): {1: 1.0}, (2, 2, 2): {2: 1.0}})
    with pytest.raises(UndefinedTriple) as info:
        cubic_apply(p, make_point([(1, 0.5), (2, 0.5)]))
    assert info.value.triple == (1, 1, 2)


def test_cubic_apply_example31_tensor_values():
    p = example31_tensor(3)
    uniform = make_point([(1, 1 / 3), (2, 1 / 3), (3, 1 / 3)])
    assert l1_distance(cubic_apply(p, uniform), uniform) <= 1e-15
    y = cubic_apply(p, make_point([(1, 0.7), (2, 0.3)]))
    assert y.mass(1) == pytest.approx(0.784, abs=1e-15)
    assert y.mass(2) == pytest.approx(0.216, abs=1e-15)


def test_operator_from_tensor_matches_brute_force_sum():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        p = rand_volterra_tensor(rng, n)
        op = operator_from_tensor(p)
        for _ in range(20):
            x = rand_point_on_pool(rng, n, n)
            assert l1_distance(apply(op, x), cubic_apply(p, x)) <= 1e-12


def test_operator_from_tensor_example31_families():
    # g_k = x_k^2 + 3 x_k sum_i p_ikk x_i + 3 sum_i p_iik x_i^2
    #       + 6 sum_{i<j} p_ijk x_i x_j; each point below reads one family.
    values = operator_from_tensor(example31_tensor(4)).values

    def g(k, masses):
        ks = sorted(masses)
        return values([masses[i] for i in ks], ks)[ks.index(k)]

    for k in range(1, 5):
        for i in range(1, 5):
            if i != k:
                assert g(k, {k: 0.5, i: 0.5}) == 1.0  # p_ikk = 1
                assert g(k, {k: 0.0, i: 1.0}) == 0.0  # p_iik = 0
    assert g(3, {1: 0.5, 2: 0.5, 3: 0.0}) == pytest.approx(0.5, abs=1e-15)  # p_ijk = 1/3


def test_operator_from_tensor_degenerate_only():
    op = operator_from_tensor(validate_tensor({(1, 1, 1): {1: 1.0}}))
    assert op.max_index == 1
    assert op.values([1.0], [1]) == [1.0]
    assert apply(op, vertex(1)) == vertex(1)


def test_operator_from_tensor_rejects_non_volterra():
    with pytest.raises(NotVolterra):
        operator_from_tensor(validate_tensor({(1, 1, 1): {2: 1.0}}))


def test_operator_from_tensor_agrees_with_cubic_apply():
    rng = np.random.default_rng(2)
    p = rand_volterra_tensor(rng, 4)
    op = operator_from_tensor(p)
    for _ in range(50):
        x = rand_point_on_pool(rng, 4, 4)
        assert l1_distance(apply(op, x), cubic_apply(p, x)) <= 1e-12


# --- builtin: example31 -----------------------------------------------------


def test_example31_dual_form_identity():
    rng = np.random.default_rng(4)
    tensor = example31_tensor(6)
    op = example31()
    for _ in range(100):
        x = rand_point_on_pool(rng, 6, 6)
        tensor_image = cubic_apply(tensor, x)
        f_image = apply(op, x)
        assert l1_distance(tensor_image, f_image) <= 1e-12


def test_example31_restricted_domain():
    op = example31(dimension=3)
    assert op.max_index == 3


# --- builtin: example32 -----------------------------------------------------


def test_example32_frozen_images():
    op = example32()
    y = apply(op, make_point([(1, 0.5), (2, 0.5)]))
    assert y.mass(1) == 0.125
    assert y.mass(2) == 0.875
    z = apply(op, make_point([(1, 0.5), (2, 0.3), (3, 0.2)]))
    assert z.mass(1) == pytest.approx(0.125, abs=1e-15)
    assert z.mass(2) == pytest.approx(0.477, abs=1e-15)
    assert z.mass(3) == pytest.approx(0.398, abs=1e-15)
    assert abs(z.total() - 1.0) <= 1e-15


def test_example32_normalization_on_wide_supports():
    rng = np.random.default_rng(5)
    op = example32()
    for _ in range(100):
        x = rand_point_on_pool(rng, 110, 100)
        assert abs(apply(op, x).total() - 1.0) <= 1e-12


def test_example32_injectivity_at_first_differing_coordinate():
    rng = np.random.default_rng(6)
    op = example32()
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k0 = int(rng.integers(1, n))
        base = rand_point(rng, range(1, n + 1))
        tail_mass = sum(m for i, m in base.items() if i >= k0)
        alt_tail = rand_point(rng, range(k0, n + 1))
        entries = [(i, m) for i, m in base.items() if i < k0]
        entries += [(i, m * tail_mass) for i, m in alt_tail.items()]
        # Raw construction keeps the shared prefix bit-identical; going
        # through make_point would renormalize it away.
        from volterra import SparsePoint

        other = SparsePoint((i for i, _ in entries), (m for _, m in entries))
        if abs(other.mass(k0) - base.mass(k0)) < 1e-9:
            continue
        ya, yb = apply(op, base), apply(op, other)
        for i in range(1, k0):
            assert ya.mass(i) == yb.mass(i)
        assert ya.mass(k0) != yb.mass(k0)


# --- tail functional and prefix positivity ----------------------------------


def test_image_tail_sum_start_is_total_cube():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rand_point_on_pool(rng, 30, 20)
        assert image_tail_sum(1, x) == pytest.approx(1.0, abs=1e-12)


def test_image_tail_sum_empty_tail():
    assert image_tail_sum(2, vertex(1)) == 0.0


def test_image_tail_telescoping():
    rng = np.random.default_rng(8)
    op = example32()
    for _ in range(50):
        x = rand_point_on_pool(rng, 40, 30)
        image = apply(op, x)
        for k in range(1, x.max_index + 2):
            lhs = image_tail_sum(k, x)
            rhs = image.mass(k) + image_tail_sum(k + 1, x)
            assert abs(lhs - rhs) <= 1e-12


def test_prefix_positivity_examples():
    assert prefix_positivity_value(vertex(1), 1) == 1.0
    assert prefix_positivity_value(make_point([(1, 0.5), (2, 0.5)]), 2) == pytest.approx(
        0.75, abs=1e-15
    )


def test_prefix_positivity_random_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(300):
        x = rand_point_on_pool(rng, 25, 15)
        n = int(rng.integers(1, 30))
        value = prefix_positivity_value(x, n)
        assert value >= -1e-12
        direct = running = 0.0  # the double sum, accumulated left to right
        for i, m in x.items():
            if i <= n:
                direct += m - m * running
                running += m
        assert value == pytest.approx(direct, abs=1e-12)


# --- builtin: sine counterexample -------------------------------------------


def test_sine_collapses_barycenter_to_vertex():
    op = sine_example()
    bary = make_point([(1, 0.5), (2, 0.5)])
    assert apply(op, bary) == vertex(2)
    assert apply(op, vertex(2)) == vertex(2)


def test_sine_non_injectivity_witness_pair():
    op = sine_example()
    a = apply(op, make_point([(1, 0.5), (2, 0.5)]))
    b = apply(op, vertex(2))
    assert l1_distance(a, b) == 0.0


def test_sine_generating_values():
    op = sine_example()
    x = make_point([(1, 0.25), (2, 0.75)])
    assert op.f(1, x) == pytest.approx(-math.sin(math.pi * 0.25), abs=1e-15)
    assert op.f(2, x) == pytest.approx(0.25 * math.sin(math.pi * 0.25) / 0.75, abs=1e-15)
    assert op.f(2, vertex(1)) == math.pi


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sine_block_raises_as_its_first_bad_point_does(bad):
    # A block computes its sines on arrays, but a NaN or infinite mass
    # still raises math.floor's error, as that point alone raises it.
    op = sine_example()
    with pytest.raises((ValueError, OverflowError)) as one_point:
        op.values([bad, 0.5], (1, 2))
    with pytest.raises(type(one_point.value)) as block:
        op.values(np.array([[0.25, bad, -bad], [0.75, 0.5, 0.5]]), (1, 2))
    assert str(block.value) == str(one_point.value)


# --- serialization ----------------------------------------------------------


def test_tensor_json_roundtrip():
    rng = np.random.default_rng(10)
    p = rand_volterra_tensor(rng, 4)
    loaded = validate_tensor(json.loads(json.dumps(tensor_to_obj(p))))
    assert loaded.dimension == p.dimension
    for triple, row in p.coefficients.items():
        assert loaded.coefficients[triple] == pytest.approx(row)


def test_validate_rejects_non_finite_coefficient():
    with pytest.raises(NonFiniteValue) as info:
        validate_tensor({(1, 1, 2): {1: float("nan"), 2: 1.0}})
    assert info.value.where == ((1, 1, 2), 1)



@pytest.mark.parametrize("n", range(1, 9))
def test_example31_tensor_is_built_valid(n):
    """example31_tensor builds its store as validate_tensor would read it."""
    built = example31_tensor(n)
    read = validate_tensor(tensor_to_obj(built))
    assert built.dimension == read.dimension == n
    assert built.coefficients == read.coefficients


@pytest.mark.parametrize("call", [
    lambda: example31_tensor(0),
    lambda: image_tail_sum(0, vertex(1)),
    lambda: prefix_positivity_value(vertex(1), 0),
], ids=["example31_tensor", "image_tail_sum", "prefix_positivity_value"])
def test_indices_below_one_raise(call):
    with pytest.raises(ValueError, match="must be >= 1"):
        call()


def test_cubic_apply_rejects_an_unnormalized_point():
    with pytest.raises(NormalizationFailure):
        cubic_apply(example31_tensor(2), SparsePoint((1,), (0.5,)))
