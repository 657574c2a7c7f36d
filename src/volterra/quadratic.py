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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain

from . import _numpy as np
from .errors import BoundViolation, NonFiniteValue, NotSkew
from .generating import GeneratingMap, VolterraOperator
from .simplex import SparsePoint, vertex

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


def _cells_from_raw(raw) -> dict[tuple[int, int], float]:
    """Normalize a dense numpy array or an iterable of (k, i, value)
    triples into a cell map with 1-based indices.

    An array (anything with an ``ndim``) is read densely, zeros skipped,
    and must be square; any other iterable must yield index-index-value
    triples.  Nothing is tested against numpy's types, so a list of
    triples never imports numpy.  A NaN or infinite value raises
    NonFiniteValue.
    """
    cells: dict[tuple[int, int], float] = {}
    if hasattr(raw, "ndim"):
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise ValueError(f"dense matrix must be square, got shape {raw.shape}")
        for (r, c), v in np.ndenumerate(raw):
            if not math.isfinite(v):
                raise NonFiniteValue((r + 1, c + 1), float(v))
            if v != 0.0:
                cells[(r + 1, c + 1)] = float(v)
        return cells
    for item in raw:
        k, i, v = item
        k, i = int(k), int(i)
        if k < 1 or i < 1:
            raise ValueError(f"matrix indices must be positive, got ({k}, {i})")
        key = (k, i)
        v = float(v)
        if not math.isfinite(v):
            raise NonFiniteValue(key, v)
        if key in cells and cells[key] != v:
            raise ValueError(f"conflicting duplicate entries for cell {key}")
        cells[key] = v
    return cells


def validate_matrix(raw) -> SkewMatrix:
    """Check skew-symmetry, zero diagonal and the unit entry bound.

    Either orientation of a pair may be given; when both are present
    they must be consistent within MATRIX_TOLERANCE.  Returns the
    canonical upper-triangular store.
    """
    cells = _cells_from_raw(raw)
    store: dict[tuple[int, int], float] = {}
    for (k, i), v in sorted(cells.items()):
        if k == i:
            if abs(v) > MATRIX_TOLERANCE:
                raise NotSkew((k, i), f"diagonal entry {v!r} is not zero")
            continue
        if k > i and (i, k) in cells:
            continue  # the pair was handled at its upper cell, which sorts first
        lo, hi = (k, i) if k < i else (i, k)
        upper = cells.get((lo, hi))
        lower = cells.get((hi, lo))
        if upper is not None and lower is not None and abs(upper + lower) > MATRIX_TOLERANCE:
            raise NotSkew((lo, hi), f"a[{lo},{hi}]={upper!r} but a[{hi},{lo}]={lower!r}")
        value = upper if upper is not None else -lower
        if abs(value) > 1.0 + MATRIX_TOLERANCE:
            raise BoundViolation((lo, hi), value)
        if value != 0.0:
            store[(lo, hi)] = value
    dimension = max((hi for (_, hi) in store), default=0)
    return SkewMatrix(entries=store, dimension=dimension)


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
    cells = _cells_from_raw(raw)
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
