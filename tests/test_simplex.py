import json

import numpy as np
import pytest

from volterra import (
    FaceSpec,
    NegativeMass,
    NonFiniteValue,
    SumOutOfTolerance,
    in_relative_interior,
    l1_distance,
    make_point,
    point_from_obj,
    point_to_obj,
    sample_face,
    sample_face_rng,
    vertex,
)
from volterra import simplex
from volterra.simplex import MAX_FACE_SIZE
from helpers import rand_point, rand_support


def test_make_point_two_point_uniform():
    p = make_point([(1, 0.5), (2, 0.5)])
    assert p.support == (1, 2)
    assert p.mass(1) == 0.5 and p.mass(2) == 0.5


def test_make_point_single_entry_is_vertex():
    p = make_point([(3, 1.0)])
    assert p == vertex(3)


def test_make_point_drops_zero_entries():
    p = make_point([(1, 0.3), (2, 0.0), (5, 0.7)])
    assert p.support == (1, 5)
    assert 2 not in p


def test_make_point_accepts_mapping_and_merges_duplicates():
    p = make_point({2: 0.25, 7: 0.75})
    assert p.support == (2, 7)
    q = make_point([(1, 0.25), (1, 0.25), (2, 0.5)])
    assert q.mass(1) == 0.5


def test_make_point_renormalizes_within_tolerance():
    p = make_point([(1, 0.5 + 3e-10), (2, 0.5)])
    assert abs(p.total() - 1.0) <= 1e-15
    assert p.mass(1) > p.mass(2)


def test_totals_add_left_to_right_from_zero():
    """Every total is the plain loop's on every Python: builtin sum() of
    floats compensates from 3.12 on, and math.fsum rounds only once."""
    masses = [0.1] * 10
    loop = 0.0
    for m in masses:
        loop += m
    assert loop == 0.9999999999999999
    assert simplex._total(masses) == loop
    assert simplex._normalized(masses) == [m / loop for m in masses]
    assert make_point(dict(enumerate(masses, 1))).masses == tuple(m / loop for m in masses)
    assert simplex.SparsePoint(range(1, 11), masses).total() == loop


def test_make_point_negative_mass():
    with pytest.raises(NegativeMass) as info:
        make_point([(1, 0.5), (2, -0.1), (3, 0.6)])
    assert info.value.index == 2


def test_make_point_sum_out_of_tolerance_reports_deviation():
    with pytest.raises(SumOutOfTolerance) as info:
        make_point([(1, 0.5), (2, 0.6)])
    assert info.value.deviation == pytest.approx(0.1)


def test_make_point_rejects_bad_index():
    for bad in (0, 1.5, True, "1", 2**63, float("nan")):
        with pytest.raises(ValueError):
            make_point([(bad, 1.0)])


def test_vertex():
    assert vertex(1).support == (1,)
    assert vertex(2).mass(2) == 1.0
    assert vertex(10).as_dict() == {10: 1.0}
    with pytest.raises(ValueError):
        vertex(0)


def test_in_relative_interior():
    face = FaceSpec.of([1, 2])
    assert in_relative_interior(make_point([(1, 0.5), (2, 0.5)]), face)
    assert not in_relative_interior(vertex(1), face)
    assert not in_relative_interior(make_point([(1, 0.5), (3, 0.5)]), face)


def test_l1_distance_basic():
    assert l1_distance(vertex(1), vertex(1)) == 0.0
    assert l1_distance(vertex(1), vertex(2)) == 2.0
    a = make_point([(1, 0.7), (2, 0.3)])
    b = make_point([(1, 0.5), (2, 0.5)])
    assert l1_distance(a, b) == pytest.approx(0.4, abs=1e-15)
    assert l1_distance(a, b) == l1_distance(b, a)


def test_l1_triangle_inequality_random():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        a = rand_point(rng, rand_support(rng, 12, 5))
        b = rand_point(rng, rand_support(rng, 12, 5))
        c = rand_point(rng, rand_support(rng, 12, 5))
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12


def test_sample_face_deterministic():
    face = FaceSpec.of([1, 2, 4])
    assert sample_face(face, 42) == sample_face(face, 42)
    assert sample_face(face, 42) != sample_face(face, 43)


def test_sample_face_lands_in_relative_interior():
    for size in (1, 2, 3, 6):
        face = FaceSpec.of(range(1, size + 1))
        for seed in range(5):
            p = sample_face(face, seed)
            assert in_relative_interior(p, face)
            assert abs(p.total() - 1.0) <= 1e-12


def test_sample_face_singleton_is_vertex():
    assert sample_face(FaceSpec.of([1]), 0) == vertex(1)


def test_sampled_points_canonical():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = sample_face_rng(FaceSpec.of(rand_support(rng, 20, 8)), rng)
        assert all(m > 0.0 for _, m in p.items())
        assert abs(p.total() - 1.0) <= 1e-12
        assert p.support == tuple(sorted(p.support))


def test_point_json_roundtrip():
    p = make_point([(1, 0.25), (4, 0.75)])
    obj = point_to_obj(p)
    assert obj == {"1": 0.25, "4": 0.75}
    assert point_from_obj(json.loads(json.dumps(obj))) == p


def test_face_parse():
    assert FaceSpec.parse("1..5").indices == (1, 2, 3, 4, 5)
    assert FaceSpec.parse("1,3,7").indices == (1, 3, 7)
    assert FaceSpec.parse("1..3,7").indices == (1, 2, 3, 7)
    with pytest.raises(ValueError):
        FaceSpec.parse("")
    with pytest.raises(ValueError):
        FaceSpec.parse("x..y")


def test_face_validation():
    with pytest.raises(ValueError):
        FaceSpec(())
    with pytest.raises(ValueError):
        FaceSpec((0, 1))
    with pytest.raises(ValueError):
        FaceSpec((2, 1))
    assert FaceSpec.of([3, 1, 3]).indices == (1, 3)


def test_face_helpers():
    face = FaceSpec.of([1, 2, 4])
    assert 2 in face and 3 not in face
    assert [v.support for v in face.vertices()] == [(1,), (2,), (4,)]
    bary = face.barycenter()
    assert bary.mass(4) == pytest.approx(1.0 / 3.0)
    assert FaceSpec.prefix(3).indices == (1, 2, 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_make_point_rejects_non_finite_mass(bad):
    with pytest.raises(NonFiniteValue) as info:
        make_point({1: bad, 2: 1.0})
    assert info.value.where == 1


def test_face_size_is_bounded_before_building():
    # Each call must raise at once: building any of these faces would
    # take minutes and gigabytes.
    with pytest.raises(ValueError, match="at most"):
        FaceSpec.parse("1..1000000000")
    with pytest.raises(ValueError, match="at most"):
        FaceSpec.parse(f"1..{MAX_FACE_SIZE},{MAX_FACE_SIZE + 1}..1000000000")
    with pytest.raises(ValueError, match="at most"):
        FaceSpec.of(range(1, 1_000_000_001))
    assert len(FaceSpec.parse(f"1..{MAX_FACE_SIZE}")) == MAX_FACE_SIZE
    assert len(FaceSpec.of(range(1, MAX_FACE_SIZE + 1))) == MAX_FACE_SIZE


def test_prefix_face_is_bounded_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(simplex, "range", lambda *args: built.append(args) or range(*args), raising=False)
    with pytest.raises(ValueError, match="at most"):
        FaceSpec.prefix(MAX_FACE_SIZE + 1)
    assert built == []
    assert FaceSpec.prefix(MAX_FACE_SIZE).indices == tuple(range(1, MAX_FACE_SIZE + 1))
    assert built == [(1, MAX_FACE_SIZE + 1)]


def test_face_constructor_keeps_the_size_bound():
    with pytest.raises(ValueError, match=f"at most {MAX_FACE_SIZE} indices, got {MAX_FACE_SIZE + 1}"):
        FaceSpec(tuple(range(1, MAX_FACE_SIZE + 2)))
    assert len(FaceSpec(tuple(range(1, MAX_FACE_SIZE + 1)))) == MAX_FACE_SIZE
