"""The one-point fast paths against the per-coordinate code they replaced.

An image is checked by one ``min`` and its total, and its coordinates
are visited one by one only to name the first bad one: the result, or
the error type with its index and value, is the per-coordinate loop's.
A block of images, gated by its ``min`` and totalled column by column
from the top, gives what the full scan and ``cumsum`` totals gave.
A trajectory step is compared with the tolerance by a sum that stops
once it passes the bound, and decides as the whole ``l1_distance``
does.  A quadratic operator keeps the plan of its last request, and
every request after it, repeated, new, a subset or a list mutated in
place, gets a freshly built operator's values bit for bit, also from
threads that share the operator.
"""

import math
import sys
import threading

import numpy as np
from hypothesis import example, given, settings, strategies as st

from volterra import SparsePoint, l1_distance, quadratic_operator, validate_matrix
from volterra.dynamics import STEP_TOLERANCE, _STEP_BOUND
from volterra.errors import NegativeCoordinate, NormalizationFailure
from volterra.generating import NEGATIVE_TOLERANCE, NORMALIZATION_TOLERANCE, _checked_masses
from volterra.simplex import _checked_all, _checked_mass, _within

NAN, INF = math.nan, math.inf


def _outcome(fn, *args):
    """What a call gives: its floats, or its error's type and fields, as
    hex strings so that NaN equals NaN and -0.0 differs from 0.0."""
    try:
        return "result", [float(v).hex() for v in fn(*args)]
    except Exception as exc:  # compared below, field by field
        fields = {k: float(v).hex() if isinstance(v, float) else v for k, v in vars(exc).items()}
        return type(exc).__name__, fields


def _checked_masses_loop(indices, raw):
    """The per-coordinate image check ``_checked_masses`` replaced."""
    total = 0.0
    for k, v in zip(indices, raw):
        if v < -NEGATIVE_TOLERANCE:
            raise NegativeCoordinate(k, v)
        total += v
    if not abs(total - 1.0) <= NORMALIZATION_TOLERANCE:
        raise NormalizationFailure(total, NORMALIZATION_TOLERANCE)
    return [v if v > 0.0 else 0.0 for v in raw]


_SPECIAL = [NAN, INF, -INF, -0.0, 0.0, -1e-13, -NEGATIVE_TOLERANCE, -2e-12, -0.5, 5e-324]


@st.composite
def _images(draw):
    """Masses that total 1, some replaced by NaN, an infinity, a
    negative beyond or within the tolerance, a signed zero or a zero."""
    n = draw(st.integers(0, 12))
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    masses = [w / total for w in weights]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        masses[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_SPECIAL) | st.floats(-1e-11, 0.0))
    return masses


@settings(max_examples=400, deadline=None)
@given(raw=_images())
@example(raw=[])
@example(raw=[NAN, 0.5, 0.5])
@example(raw=[NAN, 0.5, -1.0, 1.5])
@example(raw=[0.5, NAN, -1.0, 1.5])
@example(raw=[0.25, NAN, 0.75])
@example(raw=[0.5, INF, 0.5])
@example(raw=[0.5, -INF, INF])
@example(raw=[1.0, -1e-13, 0.0, -0.0])
@example(raw=[1.0 + 1e-12, -1e-12])
@example(raw=[1.0, -0.0])
def test_image_checks_match_the_coordinate_loops(raw):
    indices = list(range(3, 3 + 2 * len(raw), 2))
    assert _outcome(_checked_masses, indices, list(raw)) == _outcome(_checked_masses_loop, indices, list(raw))
    # The inverter's sweep check, against _checked_mass on each mass.
    each = _outcome(lambda: [_checked_mass(k, m) for k, m in zip(indices, raw)])
    assert _outcome(_checked_all, indices, list(raw)) == each


def _checked_block_reference(indices, raw):
    """The block image check before its ``min`` gate and ordered totals:
    a scan for every entry below the tolerance and totals by ``cumsum``."""
    raw = np.array(raw)
    low = np.argwhere(raw < -NEGATIVE_TOLERANCE)
    if len(low):
        j, n = low[0]
        raise NegativeCoordinate(indices[j], float(raw[j, n]))
    total = 0.0 + np.cumsum(raw, axis=0)[-1]
    off = np.flatnonzero(~(np.abs(total - 1.0) <= NORMALIZATION_TOLERANCE))
    if len(off):
        raise NormalizationFailure(float(total[off[0]]), NORMALIZATION_TOLERANCE)
    return np.where(raw > 0.0, raw, 0.0)


@st.composite
def _image_blocks(draw):
    """A (d, N) block of 1-12 rows and 1-6 columns, each column masses
    that total 1 with some replaced as in ``_images``, given as a
    C-ordered array, a Fortran-ordered one or a list of rows."""
    d, n = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    weights = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=d * n, max_size=d * n))).reshape(d, n)
    block = weights / weights.sum(axis=0)
    for _ in range(draw(st.integers(0, 4))):
        block[draw(st.integers(0, d - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from(_SPECIAL) | st.floats(-1e-11, 0.0))
    return draw(st.sampled_from([np.ascontiguousarray, np.asfortranarray, list]))(block)


@settings(max_examples=400, deadline=None)
@given(raw=_image_blocks())
# A NaN before a negative beyond the tolerance in one column: NaN is the
# column's min, and the negative must still raise.
@example(raw=np.array([[NAN], [-0.5], [1.5]]))
@example(raw=np.array([[0.5, NAN], [0.5, 1.0], [0.0, -2e-12]]))
@example(raw=np.array([[1.0, -NEGATIVE_TOLERANCE], [-0.0, 1.0]]))
# Nine rows, whose Fortran-ordered columns numpy would sum pairwise.
@example(raw=np.asfortranarray(np.array([[0.1] * 2] * 9 + [[0.1, 0.1 + 2.0 ** -52]])))
def test_block_image_checks_match_the_reference(raw):
    indices = list(range(3, 3 + 2 * len(raw), 2))

    def outcome(check):
        return _outcome(lambda: np.ravel(check(indices, raw)))

    assert outcome(_checked_masses) == outcome(_checked_block_reference)


@st.composite
def _step_pairs(draw):
    """Two points a step apart, and bounds near the step's l1 size.

    The second point moves each mass of the first by at most ``spread``,
    so the size lands near STEP_TOLERANCE for the smaller spreads; its
    support is the first's, a part of it or the first's and more.
    """
    n = draw(st.integers(1, 10))
    support = list(range(1, n + 1))
    p = SparsePoint(support, draw(st.lists(st.floats(1e-9, 1.0), min_size=n, max_size=n)))
    spread = draw(st.sampled_from([1e-14, 1e-13, 3e-13, 1e-12, 1e-3]))
    moves = draw(st.lists(st.floats(-spread, spread), min_size=n, max_size=n))
    q_masses = [abs(m + d) for m, d in zip(p.masses, moves)]
    shape = draw(st.sampled_from(["same", "fewer", "more"]))
    if shape == "fewer" and n > 1:
        q = SparsePoint(support[1:], q_masses[1:])
    elif shape == "more":
        q = SparsePoint(support + [n + 1], q_masses + [draw(st.floats(1e-15, 1e-12))])
    else:
        q = SparsePoint(support, q_masses)
    return (q, p) if draw(st.booleans()) else (p, q)


@settings(max_examples=400, deadline=None)
@given(pair=_step_pairs(), scale=st.floats(0.5, 2.0))
@example(pair=(SparsePoint((1,), (1e-12,)), SparsePoint((1,), (0.0,))), scale=1.0)
@example(pair=(SparsePoint((1, 2), (0.5, 0.5)), SparsePoint((1, 2), (0.5, 0.5))), scale=1.0)
@example(pair=(SparsePoint((1, 2), (NAN, 0.5)), SparsePoint((1, 2), (0.5, 0.5))), scale=1.0)
@example(pair=(SparsePoint((1, 2), (0.5, 1.0)), SparsePoint((1, 2), (0.5, NAN))), scale=1.0)
@example(pair=(SparsePoint((1,), (1.0,)), SparsePoint((2,), (1e-13,))), scale=1.0)
def test_step_test_decides_as_the_whole_distance(pair, scale):
    p, q = pair
    size = l1_distance(p, q)
    assert _within(p, q, _STEP_BOUND) == (size < STEP_TOLERANCE)
    bounds = [STEP_TOLERANCE, scale * STEP_TOLERANCE, size * scale]
    if math.isfinite(size):
        bounds += [size, math.nextafter(size, 0.0), math.nextafter(size, INF)]
    for tol in bounds:
        assert _within(p, q, tol) == (size <= tol), tol


@st.composite
def _plan_requests(draw):
    """A skew matrix, supports A and B, a part of A, and masses for each
    request as one point or a block of 1-3 points."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.1, 1.0))
    cells = [[k, i, float(rng.uniform(-1.0, 1.0))]
             for k in range(1, n + 1) for i in range(k + 1, n + 1) if rng.random() < density]
    pool = range(1, n + 4)  # up to 3 past the matrix

    def support():
        return sorted(draw(st.sets(st.sampled_from(pool), min_size=1, max_size=len(pool))))

    a, b = support(), support()
    part = sorted(draw(st.sets(st.sampled_from(a), min_size=1, max_size=len(a))))
    return validate_matrix(cells), a, b, part, rng


def _masses(rng, ks, rows):
    return rng.uniform(0.0, 1.0, size=len(ks)).tolist() if rows == 0 else rng.uniform(0.0, 1.0, size=(len(ks), rows))


def _bits(values):
    return [float(v).hex() for v in np.ravel(values)]


@settings(max_examples=150, deadline=None)
@given(case=_plan_requests(), rows=st.lists(st.sampled_from([0, 0, 1, 3]), min_size=6, max_size=6))
def test_cached_request_plans_give_fresh_values(case, rows):
    matrix, a, b, part, rng = case
    op = quadratic_operator(matrix)

    def agrees(ks, masses):
        expected = quadratic_operator(matrix).values(masses, list(ks))
        assert _bits(op.values(masses, ks)) == _bits(expected), ks

    for ks, r in zip((a, b, a, part, tuple(a)), rows):
        agrees(ks, _masses(rng, ks, r))
    # A request list mutated in place between two calls.
    request = list(a)
    agrees(request, _masses(rng, request, rows[5]))
    request[:] = b
    agrees(request, _masses(rng, request, rows[5]))


def test_cached_request_plans_hold_across_threads():
    """Four threads ask one operator for four supports, switching as often
    as the interpreter lets them: no request is served another's plan."""
    rng = np.random.default_rng(7)
    cells = [[k, i, float(rng.uniform(-1.0, 1.0))] for k in range(1, 13) for i in range(k + 1, 13)]
    matrix = validate_matrix(cells)
    op = quadratic_operator(matrix)
    requests = [list(range(1, 13)), [2, 5, 7], [1, 3, 4, 9, 12], [6, 8]]
    masses = [rng.uniform(0.0, 1.0, size=len(ks)).tolist() for ks in requests]
    expected = [_bits(quadratic_operator(matrix).values(m, ks)) for ks, m in zip(requests, masses)]
    wrong = []

    def ask(j):
        for _ in range(300):
            for i in (j, (j + 1) % len(requests)):
                try:
                    if _bits(op.values(masses[i], requests[i])) != expected[i]:
                        wrong.append(i)
                except Exception as exc:  # a stale plan can also fail to index
                    wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(j,)) for j in range(len(requests))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
