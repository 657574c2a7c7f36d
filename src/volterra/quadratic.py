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
from itertools import chain, starmap

from . import _numpy as np
from .errors import BoundViolation, NonFiniteValue, NotSkew
from .generating import VolterraOperator, _continuous, _ordered_sum
from .simplex import SparsePoint, _index, _value, vertex

#: Tolerance for skew-symmetry, zero diagonal and the entry bound.
MATRIX_TOLERANCE = 1e-12
#: Most (table cells x points) one chunk of a block gathers at once,
#: 512 KiB of float64 masses.  The size changes no bit: a point's sums
#: add its own gathered terms in column order in any chunk.
_CHUNK_CELLS = 1 << 16


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


def _read_cells(raw) -> dict[tuple[int, int], float]:
    """The cells of an iterable of (row, column, value) triples.

    A triple is a list or tuple of three: two indices, as
    ``simplex._index`` reads them, and a number, as ``simplex._value``
    reads it.  Well-formed input, triples of ints in [1, sys.maxsize]
    and finite floats with no cell given twice, passes one bulk check.
    Anything else is read item by item, and the first item that fails
    raises; within an item the checks run in this order: not a triple,
    a bad index, a value that is no number (each a ValueError), a NaN or
    infinite value (NonFiniteValue), a value that differs from an
    earlier one for the same cell (ValueError).
    """
    items = list(raw)
    if set(map(type, items)) <= {list, tuple} and set(map(len, items)) <= {3}:
        ks, is_, vs = [item[0] for item in items], [item[1] for item in items], [item[2] for item in items]
        if (
            all(set(map(type, col)) <= {int} and min(col, default=1) >= 1 and max(col, default=1) <= sys.maxsize
                for col in (ks, is_))
            and set(map(type, vs)) <= {float}
            and math.isfinite(sum(vs, 0.0))  # not if any value is NaN or infinite, or the total overflows
        ):
            cells = dict(zip(zip(ks, is_), vs))
            if len(cells) == len(items):  # no cell given twice
                return cells
    cells = {}
    for item in items:
        if not (isinstance(item, (list, tuple)) and len(item) == 3):
            raise ValueError(f"matrix cell {item!r} is not a (row, column, value) triple")
        k, i, v = _index(item[0]), _index(item[1]), _value(item[2])
        if k is None or i is None:
            raise ValueError(f"matrix cell {item!r}: indices must be integers in [1, {sys.maxsize}]")
        if v is None:
            raise ValueError(f"matrix cell {item!r}: the value must be a number")
        if not math.isfinite(v):
            raise NonFiniteValue((k, i), v)
        if cells.get((k, i), v) != v:
            raise ValueError(f"conflicting duplicate entries for cell {(k, i)}")
        cells[k, i] = v
    return cells


def validate_matrix(raw) -> SkewMatrix:
    """Check skew-symmetry, zero diagonal and the unit entry bound.

    Either orientation of a pair may be given; when both are present
    they must be consistent within MATRIX_TOLERANCE.  Returns the
    canonical upper-triangular store.

    The cells are read by ``_read_cells``, whose errors come first.
    Upper cells within the bound, the canonical form, pass one bulk
    check.  Any other cells are judged one by one in sorted order, each
    pair at its smallest given cell: a nonzero diagonal entry or a pair
    whose cells disagree raises NotSkew, and an entry beyond the bound
    BoundViolation, a pair's disagreement before its bound.
    """
    cells = _read_cells(raw)
    bound = 1.0 + MATRIX_TOLERANCE
    if all(starmap(operator.lt, cells)) and max(map(abs, cells.values()), default=0.0) <= bound:
        store = cells
    else:
        store = {}
        for (k, i), v in sorted(cells.items()):
            if k == i:
                if abs(v) > MATRIX_TOLERANCE:
                    raise NotSkew((k, i), f"diagonal entry {v!r} is not zero")
                continue
            if k > i and (i, k) in cells:
                continue  # the pair was judged at its upper cell, which sorts first
            lo, hi = min(k, i), max(k, i)
            upper, lower = cells.get((lo, hi)), cells.get((hi, lo))
            if upper is not None and lower is not None and abs(upper + lower) > MATRIX_TOLERANCE:
                raise NotSkew((lo, hi), f"a[{lo},{hi}]={upper!r} but a[{hi},{lo}]={lower!r}")
            value = -lower if upper is None else upper
            if abs(value) > bound:
                raise BoundViolation((lo, hi), value)
            store[lo, hi] = value
    if 0.0 in store.values():
        store = {key: v for key, v in store.items() if v != 0.0}
    return SkewMatrix(entries=store, dimension=max(map(operator.itemgetter(1), store), default=0))


def quadratic_operator(a: SkewMatrix) -> VolterraOperator:
    """The operator with linear generating map f_k(x) = sum_i a_ki x_i,
    growth factor g_k = f_k + 1.

    The operator holds the entries of the store in both orientations,
    sorted by (row, column), and each entry's mirror: the place of its
    (column, row) twin.  Masses outside a request read zero, so on the
    requested indices ks the map is the quadratic map of the principal
    submatrix A_ks, and a request's plan holds exactly that, its rows
    and columns as positions in ks: of the requested rows' entries it
    keeps those whose mirror's row, their column, is requested too.  A
    kept row of length in (2^(b-1), 2^b] lives in the table of bucket
    b: C-ordered (depth, rows) arrays of columns and values, as deep as
    the bucket's longest row; a shorter row is padded with position
    len(ks), which reads a zero row appended to the masses.  So a plan
    holds fewer than two cells per entry of A_ks, a star matrix cannot
    blow it up, and nothing is sized by the largest index.

    An evaluation gathers each table's masses, multiplies by the values
    and adds the gathered rows one after another: f_k sums left to right
    in ascending column order.  A left-out column's mass is 0, so its
    term is a signed zero, which can change only the sign of a zero
    partial sum; ``_ordered_sum``'s ``+= 0.0`` and g = f + 1 erase that
    sign, so leaving it out, like the padding, changes no bit.  A block
    goes in chunks of points that gather at most ``_CHUNK_CELLS`` cells.

    The plan depends on the requested indices only, so the map keeps it
    for its last request, keyed by a tuple copy of the indices compared
    by value.  An operator leaves every face invariant, so a trajectory
    asks for the same support step after step and reads only masses; a
    new request builds its own tables.
    """
    n = a.dimension
    count = len(a.entries)
    upper = np.fromiter(chain.from_iterable(a.entries), dtype=np.intp, count=2 * count)
    coef = np.fromiter(a.entries.values(), dtype=float, count=count)
    lo, hi = upper[0::2], upper[1::2]
    # Every entry in both orientations, the twin of entry e at e + count
    # (mod 2 count), sorted by (row, column).
    rows, cols = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    order = np.lexsort((cols, rows))
    rows = rows[order]
    vals = np.concatenate((coef, -coef))[order]
    rank = np.empty_like(order)  # each entry's place in the sorted order
    rank[order] = np.arange(len(order))
    mirror = np.roll(rank, count)[order]

    def plan(ks: tuple[int, ...]) -> tuple:
        """The tables of A_ks, as (columns, values, rows), the columns
        and rows as positions in ks, and the cells they hold."""
        d = len(ks)
        ks = np.fromiter(ks, dtype=np.intp, count=d)
        first = rows.searchsorted(ks)
        lengths = rows.searchsorted(ks, side="right") - first
        # The requested rows' entries, row after row, and each one's row
        # as a position in ks.
        pos = np.repeat(np.arange(d), lengths)
        entry = np.arange(len(pos)) + np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
        at = np.full(len(rows), -1)  # each taken entry's row as a position in ks
        at[entry] = pos
        col = at[mirror[entry]]  # its column as a position in ks, -1 if not requested
        keep = col >= 0
        pos, col, val = pos[keep], col[keep], vals[entry[keep]]
        kept = np.bincount(pos, minlength=d)  # the length of each row of A_ks
        starts = np.cumsum(kept) - kept
        live = kept.nonzero()[0]
        bucket = np.frexp(kept[live] - 1)[1]  # the b with a length in (2^(b-1), 2^b]
        tables = []
        for b in sorted(set(bucket.tolist())):
            members = live[bucket == b]
            depths = kept[members]
            j = np.arange(np.maximum.reduce(depths))[:, None]
            cell = j + starts[members]
            table_cols, table_vals = col.take(cell, mode="wrap"), val.take(cell, mode="wrap")
            pad = j >= depths  # the cells past the end of their row
            table_cols[pad], table_vals[pad] = d, 0.0
            tables.append((table_cols, table_vals, members))
        return tables, sum(cols.size for cols, _, _ in tables)

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
        tables, cells = seen[1]
        f = np.zeros(masses.shape)
        if masses.ndim == 1:
            parts = [(masses, f)]
        else:
            tables = [(cols, vals[:, :, None], rows_at) for cols, vals, rows_at in tables]
            step = max(1, _CHUNK_CELLS // max(cells, 1))
            parts = [(masses[:, s:s + step], f[:, s:s + step]) for s in range(0, masses.shape[1], step)]
        for part, f_part in parts:
            G = np.concatenate((part, np.zeros((1,) + part.shape[1:])))  # the padding reads the zero row
            for cols, vals, rows_at in tables:
                W = G[cols]  # (depth, rows) or (depth, rows, points), C-ordered
                W *= vals
                f_part[rows_at] = _ordered_sum(W)  # each f_k adds its terms in column order
        f += 1.0
        return f

    return _continuous(fn, label=f"quadratic(n={n})")


def symmetry_defect_witness(raw) -> tuple[SparsePoint, float] | None:
    """A point where sum_k x_k f_k(x) != 0 for a non-skew matrix.

    Scans the diagonal first: the smallest i with a nonzero b_ii gives
    the vertex e^(i) with value b_ii.  Otherwise the smallest pair
    (i, j) with b_ij + b_ji != 0 gives the uniform point on {i, j} with
    value (b_ii + b_jj + b_ij + b_ji) / 4.  The cells are read by
    ``_read_cells``, as ``validate_matrix`` reads them, and only the
    given cells are scanned.  Returns None exactly when the symmetric
    part vanishes within MATRIX_TOLERANCE.
    """
    cells = _read_cells(raw)
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
