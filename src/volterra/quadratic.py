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
from dataclasses import dataclass
from itertools import chain, islice

from . import _numpy as np
from .errors import BoundViolation, NonFiniteValue, NotSkew
from .generating import GeneratingMap, VolterraOperator
from .simplex import SparsePoint, _index, _value, vertex

#: Tolerance for skew-symmetry, zero diagonal and the entry bound.
MATRIX_TOLERANCE = 1e-12
#: Largest (entries x points) product one np.bincount of a block handles.
_BINCOUNT_CELLS = 1 << 14


@dataclass(frozen=True)
class SkewMatrix:
    """Canonical sparse store of a skew-symmetric coefficient matrix.

    Only entries with row < column are stored; the mirrored entries are
    implied with opposite sign and the diagonal is implied zero, so
    skew-symmetry cannot be broken after validation.
    """

    entries: Mapping[tuple[int, int], float]
    dimension: int

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
    """The operator with linear generating map f_k(x) = sum_i a_ki x_i.

    Both orientations of the store are kept as arrays of rows, columns
    and values sorted by (row, column), so f_k sums in ascending column
    order; a column is held as its position among the indices that have
    entries.  An evaluation reads only the entries whose row and column
    are both requested indices (a zero mass adds nothing to a sum), and
    sums them with ``np.bincount`` over many points at a time.  Its
    tables are sized by the store and the request, never by the largest
    index.
    """
    n = a.dimension
    count = len(a.entries)
    upper = np.fromiter(chain.from_iterable(a.entries), dtype=np.intp, count=2 * count)
    lo, hi = upper[0::2], upper[1::2]
    coef = np.fromiter(a.entries.values(), dtype=float, count=count)
    rows = np.concatenate((lo, hi))
    cols = np.concatenate((hi, lo))
    vals = np.concatenate((coef, -coef))
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    # The indices that have entries, ascending: the first row of each run.
    keys = rows[np.concatenate((rows[:1] > 0, rows[1:] != rows[:-1]))]
    col_keys = np.searchsorted(keys, cols)  # each column as a position in keys

    def fn(ks: Sequence[int], X) -> np.ndarray:
        d = len(ks)
        masses = np.asarray(X, dtype=float)
        if not d:
            return masses
        M = masses.reshape(d, -1)  # (d, N): one column per point
        N = M.shape[1]
        ks = np.fromiter(ks, dtype=np.intp, count=d)
        # Entry e adds v[e] times the masses in row c[e] of ``masses_at``
        # to output slot r[e], which holds f at ks[r[e] - 1].
        if d == n and ks[-1] == n:
            # ks is 1..n: row k's slot is k, and every entry counts.
            # Gathering the whole store below would cost several times
            # the sums themselves.
            masses_at = M[keys - 1]  # row p: the masses at keys[p]
            r, c, v = rows, col_keys, vals
        else:
            # The entries of the requested rows, in (row, column) order,
            # then only those whose column is requested too.
            first = np.searchsorted(rows, ks, side="left")
            lengths = np.searchsorted(rows, ks, side="right") - first
            entry = np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
            entry += np.arange(len(entry))
            present = lengths > 0  # exactly the requested indices in keys
            at = np.full(len(keys), -1)  # position in ks by position in keys
            at[np.searchsorted(keys, ks[present])] = np.arange(d)[present]
            masses_at = M
            c = at[col_keys[entry]]
            keep = c >= 0
            r = np.repeat(np.arange(1, d + 1), lengths)[keep]
            c, v = c[keep], vals[entry[keep]]
        f = np.empty((N, d))
        # Points go through np.bincount a few at a time, so that the
        # (entries x points) temporaries stay small; bin (point s, slot r)
        # is r + (d + 1) * s, and each bin adds its entries in order.
        step = max(1, _BINCOUNT_CELLS // max(len(r), 1))
        for start in range(0, N, step):
            part = masses_at[:, start:start + step]
            width = part.shape[1]
            weights = np.take(part, c, axis=0)
            weights *= v[:, None]
            bins = np.add.outer(r, (d + 1) * np.arange(width))
            sums = np.bincount(bins.ravel(), weights=weights.ravel(), minlength=(d + 1) * width)
            f[start:start + width] = sums.reshape(width, d + 1)[:, 1:]
        return f.T.reshape(masses.shape)

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
