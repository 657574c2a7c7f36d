"""Quadratic operators generated by skew-symmetric matrices.

With linear functionals f_k(x) = sum_i a_ki * x_i the validity
conditions hold exactly when the coefficient matrix is skew-symmetric
(a_ki = -a_ik) with every entry bounded by 1 in magnitude.  The skew
part is what makes the weighted balance vanish identically:
sum_k x_k f_k(x) = x^T A x = 0 for skew A.  Conversely a matrix with a
nonzero symmetric part admits a concrete point where that sum is
nonzero; ``symmetry_defect_witness`` constructs the smallest such
witness deterministically.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Mapping, Sequence
from itertools import chain, islice

from . import _numpy as np
from .errors import BoundViolation, NonFiniteValue, NotSkew
from .generating import GeneratingMap, VolterraOperator
from .simplex import SparsePoint, _index, _value, vertex

#: Tolerance for skew-symmetry, zero diagonal and the entry bound.
MATRIX_TOLERANCE = 1e-12
#: Most (table cells x points) one chunk of a block gathers at once.
_CHUNK_CELLS = 1 << 14


class SkewMatrix:
    """Canonical sparse store of a skew-symmetric coefficient matrix.

    Only entries with row < column are stored; the mirrored entries are
    implied with opposite sign and the diagonal is implied zero, so
    skew-symmetry cannot be broken after validation.  Two stores are
    equal when their entries and dimensions are; a store is not
    hashable.  Immutable by convention.
    """

    __slots__ = ("entries", "dimension")

    def __init__(self, entries: Mapping[tuple[int, int], float], dimension: int):
        self.entries = entries
        self.dimension = dimension

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.dimension) == (other.entries, other.dimension)

    __hash__ = None

    def coefficient(self, k: int, i: int) -> float:
        if k == i:
            return 0.0
        if k < i:
            return self.entries.get((k, i), 0.0)
        return -self.entries.get((i, k), 0.0)


def _is_triple(item) -> bool:
    return isinstance(item, (list, tuple)) and len(item) == 3


def _find(col: list, item, stop: int) -> int:
    """The position of the first ``item`` in col[:stop], or stop."""
    try:
        return col.index(item, 0, stop)
    except ValueError:
        return stop


def _indices(col: list) -> tuple[list, int]:
    """The column as indices, None for each item that is no index, and
    the position of the first None (len(col) if there is none)."""
    if set(map(type, col)) <= {int} and min(col, default=1) >= 1 and max(col, default=1) <= sys.maxsize:
        return col, len(col)
    col = list(map(_index, col))
    return col, _find(col, None, len(col))


def _values(col: list) -> tuple[list, int]:
    """The column as floats, None for each item that is no number, and
    the position of the first None (len(col) if there is none)."""
    if set(map(type, col)) <= {float}:
        return col, len(col)
    col = list(map(_value, col))
    return col, _find(col, None, len(col))


def _read_cells(raw) -> tuple[dict[tuple[int, int], float], bool]:
    """The cells of a dense numpy array or of an iterable of (k, i, value)
    triples, and whether every cell lies above the diagonal.

    An array (anything with an ``ndim``) must be square; its nonzero
    entries are read in row-major order as 1-based triples.  Nothing is
    tested against numpy's types, so a list of triples never imports
    numpy.  A triple is a list or tuple of three: two indices, as
    ``simplex._index`` reads them, and a number, as ``simplex._value``
    reads it.

    Each check is one pass over all the items, and the first item that
    fails any of them raises.  Within an item the checks run in this
    order: not a triple, a bad index, a value that is no number (each a
    ValueError), a NaN or infinite value (NonFiniteValue), a value that
    differs from an earlier one for the same cell (ValueError).
    """
    if hasattr(raw, "ndim"):
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise ValueError(f"dense matrix must be square, got shape {raw.shape}")
        rows, cols = np.nonzero(raw)
        items = list(zip((rows + 1).tolist(), (cols + 1).tolist(), raw[rows, cols].astype(float).tolist()))
    else:
        items = list(raw)
    stop = len(items)  # the items before stop passed every check made so far
    error = None
    if not (set(map(type, items)) <= {list, tuple} and set(map(len, items)) <= {3}):
        stop = _find(list(map(_is_triple, items)), False, stop)
        if stop < len(items):
            error = ValueError(f"matrix cell {items[stop]!r} is not a (row, column, value) triple")
            items = items[:stop]
    ks, bad_k = _indices([item[0] for item in items])
    is_, bad_i = _indices([item[1] for item in items])
    bad = min(bad_k, bad_i)
    if bad < stop:
        stop, error = bad, ValueError(
            f"matrix cell {items[bad]!r}: indices must be integers in [1, {sys.maxsize}]"
        )
    vs, bad = _values([item[2] for item in items])
    if bad < stop:
        stop, error = bad, ValueError(f"matrix cell {items[bad]!r}: the value must be a number")
    if not all(map(math.isfinite, islice(vs, stop))):
        stop = _find(list(map(math.isfinite, islice(vs, stop))), False, stop)
        error = NonFiniteValue((ks[stop], is_[stop]), vs[stop])
    cells = dict(islice(zip(zip(ks, is_), vs), stop))
    if len(cells) < stop:  # some cell is given more than once
        keys = list(islice(zip(ks, is_), stop))
        first = dict(zip(reversed(keys), reversed(vs[:stop])))  # each cell's first value
        bad = _find(list(map(operator.eq, map(first.__getitem__, keys), vs)), False, stop)
        if bad < stop:
            error = ValueError(f"conflicting duplicate entries for cell {keys[bad]}")
    if error is not None:
        raise error
    return cells, all(map(operator.lt, ks, is_))


def validate_matrix(raw) -> SkewMatrix:
    """Check skew-symmetry, zero diagonal and the unit entry bound.

    Either orientation of a pair may be given; when both are present
    they must be consistent within MATRIX_TOLERANCE.  Returns the
    canonical upper-triangular store.

    The cells are read by ``_read_cells``, whose errors come first.  A
    nonzero diagonal entry and a pair whose cells disagree raise
    NotSkew, and an entry beyond the bound BoundViolation; of these the
    one at the smallest cell is raised, a pair counting at its first
    given cell and its disagreement before its bound.  Input with upper
    cells only, the canonical form, needs no mirror pass.
    """
    cells, upper_only = _read_cells(raw)
    failures = []  # (the cell a failure counts at, its rank there, the error)
    if upper_only:
        values = cells  # the store, before its zeros are dropped
    else:
        # The mirror pass: each pair's value at its upper cell, from the
        # upper cell if given, else minus the lower cell.
        lower = {(i, k): v for (k, i), v in cells.items() if k > i}
        values = {key: v for key, v in cells.items() if key[0] < key[1]}
        values.update({key: -v for key, v in lower.items() if key not in values})
        diagonal = min(
            (key for key, v in cells.items() if key[0] == key[1] and abs(v) > MATRIX_TOLERANCE),
            default=None,
        )
        if diagonal is not None:
            detail = f"diagonal entry {cells[diagonal]!r} is not zero"
            failures.append((diagonal, 0, NotSkew(diagonal, detail)))
        mismatch = min(
            (key for key in lower.keys() & cells.keys() if abs(cells[key] + lower[key]) > MATRIX_TOLERANCE),
            default=None,
        )
        if mismatch is not None:
            lo, hi = mismatch
            detail = f"a[{lo},{hi}]={cells[mismatch]!r} but a[{hi},{lo}]={lower[mismatch]!r}"
            failures.append((mismatch, 0, NotSkew(mismatch, detail)))
    bound = 1.0 + MATRIX_TOLERANCE
    if values and max(map(abs, values.values())) > bound:
        at = min(key if key in cells else key[::-1] for key, v in values.items() if abs(v) > bound)
        key = min(at), max(at)
        failures.append((at, 1, BoundViolation(key, values[key])))
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]
    store = {key: v for key, v in values.items() if v != 0.0} if 0.0 in values.values() else values
    return SkewMatrix(entries=store, dimension=max(map(operator.itemgetter(1), store), default=0))


def quadratic_operator(a: SkewMatrix) -> VolterraOperator:
    """The operator with linear generating map f_k(x) = sum_i a_ki x_i,
    growth factor g_k = f_k + 1.

    The rows of the matrix (both orientations of the store) are held by
    the indices that have entries, ``keys``, and a column as its
    position there.  A row of length in (2^(b-1), 2^b] lives in the
    table of bucket b: C-ordered (depth, rows) arrays of columns and
    values, as deep as the bucket's longest row; a shorter row is padded
    with the column ``len(keys)``, which reads a zero mass.  So the
    tables hold fewer than two cells per entry, a star matrix cannot
    blow them up, and nothing is sized by the largest index.

    An evaluation writes the requested masses into an array indexed by
    position in ``keys`` whose other rows read zero, takes the requested
    rows of each table, gathers their masses, multiplies by the values
    and adds the gathered rows one after another: f_k sums left to right
    in ascending column order, and padding and unrequested columns add a
    signed zero, which can change only the sign of a zero sum.  A block
    goes in chunks of points that gather at most ``_CHUNK_CELLS`` cells.

    Where the requested masses go and which rows of each table they feed
    depends on the requested indices only, so the map keeps that plan
    for its last request, keyed by a tuple copy of the indices compared
    by value.  An operator leaves every face invariant, so a trajectory
    asks for the same support step after step and reads only masses;
    a new request costs what it would without the plan.
    """
    n = a.dimension
    count = len(a.entries)
    upper = np.fromiter(chain.from_iterable(a.entries), dtype=np.intp, count=2 * count)
    coef = np.fromiter(a.entries.values(), dtype=float, count=count)
    lo, hi = upper[0::2], upper[1::2]
    # Every entry in both orientations, sorted by (row, column).
    rows, cols = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    order = np.lexsort((cols, rows))
    rows = rows[order]
    vals = np.concatenate((coef, -coef))[order]
    # Whether an entry starts a row, and a closing True after the last.
    run = np.empty(len(rows) + 1, dtype=bool)
    run[0] = run[-1] = True
    np.not_equal(rows[1:], rows[:-1], out=run[1:-1])
    edges = run.nonzero()[0]
    starts, lengths = edges[:-1], edges[1:] - edges[:-1]
    width = len(starts)
    padded = np.zeros(width + 1, dtype=np.intp)  # 0 is no index: a request past the last key misses
    padded[:width] = rows[starts]
    keys = padded[:width]  # the indices that have entries, ascending
    cols = keys.searchsorted(cols[order])  # each column as a position in keys
    bucket = np.frexp(lengths - 1)[1]  # the b with a length in (2^(b-1), 2^b]
    tables = []  # (its rows as positions in keys, columns, values) by bucket
    for b in sorted(set(bucket.tolist())):
        members = (bucket == b).nonzero()[0]
        depths = lengths[members]
        j = np.arange(np.maximum.reduce(depths))[:, None]
        entry = j + starts[members]
        table_cols, table_vals = cols.take(entry, mode="wrap"), vals.take(entry, mode="wrap")
        pad = j >= depths  # the cells past the end of their row
        table_cols[pad], table_vals[pad] = width, 0.0
        tables.append((members, table_cols, table_vals))

    def plan(ks: tuple[int, ...]) -> tuple:
        """Where the masses at ``ks`` go and which rows they feed: the
        requested indices that have entries, as positions in ``keys``
        and in ks; each table's requested rows, as (columns, values,
        places in ks); and the cells those rows hold."""
        ks = np.fromiter(ks, dtype=np.intp, count=len(ks))
        at = keys.searchsorted(ks)
        hit = padded[at] == ks  # the requested indices that have entries
        req, out = at[hit], hit.nonzero()[0]  # their positions in keys and in ks
        place = np.empty(width, dtype=np.intp)  # position in ks by position in keys, -1 if not requested
        place.fill(-1)
        place[req] = out
        # ``take`` keeps the rows C-ordered; ``cols[:, take]`` would be
        # F-ordered, and numpy sums a reduction over an F-ordered gather
        # pairwise.
        rows = []
        for members, cols, vals in tables:
            rows_at = place[members]
            take = (rows_at >= 0).nonzero()[0]
            if len(take) < len(members):
                if not len(take):
                    continue
                cols, vals, rows_at = cols.take(take, axis=1), vals.take(take, axis=1), rows_at[take]
            rows.append((cols, vals, rows_at))
        return req, out, rows, sum(cols.size for cols, _, _ in rows)

    # The last request and its plan, replaced in one assignment, so a
    # caller on another thread never pairs one request with another's plan.
    last = ((), None)

    def fn(ks: Sequence[int], X) -> np.ndarray:
        nonlocal last
        masses = np.asarray(X, dtype=float)  # (d,) for one point, (d, N) for a block
        if not len(ks):
            return masses
        request = tuple(ks)  # a copy: a list the caller mutates later cannot match
        seen = last
        if seen[0] != request:
            seen = last = (request, plan(request))
        req, out, rows, cells = seen[1]
        f = np.zeros(masses.shape)
        if masses.ndim == 1:
            parts = [(masses, f)]
        else:
            rows = [(cols, vals[:, :, None], rows_at) for cols, vals, rows_at in rows]
            step = max(1, _CHUNK_CELLS // max(cells, 1))
            parts = [(masses[:, s:s + step], f[:, s:s + step]) for s in range(0, masses.shape[1], step)]
        for part, f_part in parts:
            G = np.zeros((width + 1,) + part.shape[1:])  # masses by position in keys
            G[req] = part[out]
            for cols, vals, rows_at in rows:
                W = G[cols]  # (depth, rows) or (depth, rows, points), C-ordered
                W *= vals
                # Reduced over its outer axis, W adds its rows one after
                # another; numpy would sum a single output pairwise.
                f_part[rows_at] = np.add.reduce(W) if W.size > len(W) else np.cumsum(W, axis=0)[-1]
        f += 1.0
        return f

    return VolterraOperator(GeneratingMap(fn), label=f"quadratic(n={n})")


def symmetry_defect_witness(raw) -> tuple[SparsePoint, float] | None:
    """A point where sum_k x_k f_k(x) != 0 for a non-skew matrix.

    Scans the diagonal first: the smallest i with a nonzero b_ii gives
    the vertex e^(i) with value b_ii.  Otherwise the smallest pair
    (i, j) with b_ij + b_ji != 0 gives the uniform point on {i, j} with
    value (b_ii + b_jj + b_ij + b_ji) / 4.  Only the given cells are
    scanned.  Returns None exactly when the symmetric part vanishes
    within MATRIX_TOLERANCE.
    """
    cells, _ = _read_cells(raw)
    for i in sorted(r for (r, c) in cells if r == c):
        v = cells[(i, i)]
        if abs(v) > MATRIX_TOLERANCE:
            return vertex(i), v
    for i, j in sorted({(min(r, c), max(r, c)) for (r, c) in cells if r != c}):
        s = cells.get((i, j), 0.0) + cells.get((j, i), 0.0)
        if abs(s) > MATRIX_TOLERANCE:
            value = (s + cells.get((i, i), 0.0) + cells.get((j, j), 0.0)) / 4.0
            return SparsePoint((i, j), (0.5, 0.5)), value
    return None
