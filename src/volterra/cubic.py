"""Cubic stochastic operators and the builtin worked operators.

A cubic stochastic operator acts through a symmetric nonnegative
coefficient family p_{ijl,k},

    (Vx)_k = sum_{i,j,l} p_{ijl,k} x_i x_j x_l,
    sum_k p_{ijl,k} = 1,   p invariant under permutations of (i, j, l),

so the image is automatically a probability vector.  Such an operator
leaves every face of the simplex invariant exactly when each output
distribution is supported inside its own triple (p_{ijl,k} = 0 for
k outside {i, j, l}); those operators additionally admit the grouped
per-coordinate form

    (Vx)_k = x_k * ( x_k^2 + 3 x_k sum_{i!=k} p_{ikk,k} x_i
                     + 3 sum_{i!=k} p_{iik,k} x_i^2
                     + 6 sum_{i<j, both!=k} p_{ijk,k} x_i x_j ),

with the weights 1/3/6 matching the number of ordered arrangements of
each sorted triple.  The grouped form is the map of the operator that
``operator_from_tensor`` builds; ``cubic_apply`` evaluates the
definition as a brute-force ordered sum and is its oracle.

Tensors are stored over a finite face; the two infinite-family builtin
operators are formula-driven instead and valid on any finite support,
with growth factors g_k = 1 + f_k:

    example31: g_k(x) = 1 + (x_k - sum_i x_i^2)    (pairwise condition holds)
    example32: g_k(x) = x_k^2 + 3*sum_{i<k} x_i
                        - 3*sum_{i<j<k} x_i x_j      (bijective, pairwise
                                                      condition fails)

plus the one-dimensional counterexample V(x) = x(1 - sin(pi x)) on the
face {1, 2}, which is not injective.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from itertools import combinations

from . import _numpy as np
from .errors import (
    NegativeCoefficient,
    NonFiniteValue,
    NormalizationFailure,
    NotVolterra,
    PermutationInconsistency,
    RowSumViolation,
    UndefinedTriple,
)
from .generating import NORMALIZATION_TOLERANCE, VolterraOperator, _continuous
from .simplex import SparsePoint, _index, _key, _read, _total, _value

#: Tolerance for row sums and permutation consistency of tensors.
TENSOR_TOLERANCE = 1e-12

Triple = tuple[int, int, int]


class CubicTensor:
    """Sorted-triple store of cubic coefficients.

    ``coefficients`` maps each sorted triple (i <= j <= l) to its output
    distribution {k: p_{ijl,k}}; permutation symmetry is realized by the
    sorted key.  A missing fully degenerate triple (i, i, i) defaults to
    the identity row {i: 1}; any other missing triple is an error when
    referenced.  Immutable by convention.
    """

    __slots__ = ("coefficients", "dimension")

    def __init__(self, coefficients: Mapping[Triple, Mapping[int, float]], dimension: int):
        self.coefficients = coefficients
        self.dimension = dimension

    def outputs(self, i: int, j: int, l: int) -> Mapping[int, float]:
        key = tuple(sorted((i, j, l)))
        row = self.coefficients.get(key)
        if row is not None:
            return row
        if key[0] == key[2]:
            return {key[0]: 1.0}
        raise UndefinedTriple(key)


def _raw_rows(raw) -> Iterable[tuple]:
    """The (triple, outputs) pairs of a raw tensor in any accepted shape, unread."""
    if isinstance(raw, Mapping):
        return raw.items()
    return ((item["triple"], item["outputs"]) if isinstance(item, Mapping) else item for item in raw)


def validate_tensor(raw) -> CubicTensor:
    """Canonicalize raw triples into a sorted-triple tensor store.

    Accepts a mapping {(i,j,l): {k: p}}, an iterable of
    ((i,j,l), outputs) pairs, or the JSON shape
    [{"triple": [i,j,l], "outputs": {"k": p}}, ...].  Triple indices are
    read by ``simplex._index``, output keys by ``simplex._key`` (decimal
    text, or an index) and coefficients by ``simplex._value``; anything
    else is a ValueError.  Triples given in any index order are sorted;
    repeated (permuted) triples must agree within TENSOR_TOLERANCE.
    Every output distribution must be finite, nonnegative and sum to 1
    within TENSOR_TOLERANCE.
    """
    store: dict[Triple, dict[int, float]] = {}
    dimension = 0
    # The index of each output key text read so far: a tensor repeats a
    # few texts many times.  Only str keys go in, and no str equals a
    # key of another type, so an int, float or bool key is always read.
    texts: dict[str, int] = {}
    for key, outputs in _raw_rows(raw):
        indices = [_read(_index, v, "an index of triple {!r}", key) for v in key]
        if len(indices) != 3:
            raise ValueError(f"a triple holds three indices, got {key!r}")
        triple: Triple = tuple(sorted(indices))  # type: ignore[assignment]
        if not isinstance(outputs, Mapping):
            raise ValueError(f"the outputs of triple {triple} must be an object, got {outputs!r}")
        row: dict[int, float] = {}
        total = 0.0
        for text, p in outputs.items():
            k = texts.get(text)
            if k is None:
                k = _read(_key, text, "an output index of triple {}", triple)
                if isinstance(text, str):
                    texts[text] = k
            p = _read(_value, p, "coefficient {} of triple {}", k, triple)
            if not math.isfinite(p):
                raise NonFiniteValue((triple, k), p)
            if p < 0.0:
                raise NegativeCoefficient(triple, k, p)
            total += p
            if p > 0.0:
                row[k] = p
        if abs(total - 1.0) > TENSOR_TOLERANCE:
            raise RowSumViolation(triple, total)
        if triple in store:
            previous = store[triple]
            for k in set(previous) | set(row):
                a, b = previous.get(k, 0.0), row.get(k, 0.0)
                if abs(a - b) > TENSOR_TOLERANCE:
                    raise PermutationInconsistency(triple, k, (a, b))
        else:
            store[triple] = row
        dimension = max(dimension, triple[2], max(row, default=0))
    return CubicTensor(coefficients=store, dimension=dimension)


class VolterraCheck:
    """Face-invariance verdict; truthy iff the tensor is Volterra.
    ``offender`` is (triple, k, p_{triple,k}) of a row that leaves its
    triple, or None."""

    __slots__ = ("ok", "offender")

    def __init__(self, ok: bool, offender: tuple[Triple, int, float] | None = None):
        self.ok = ok
        self.offender = offender

    def __bool__(self) -> bool:
        return self.ok


def is_volterra(p: CubicTensor) -> VolterraCheck:
    """True iff every output distribution is supported inside its triple.

    The rows are checked in store order; only a failing tensor pays for
    finding its first offender in sorted order: the least triple, then
    the least output outside it.
    """
    rows = p.coefficients
    if all(k in triple for triple, row in rows.items() for k in row):
        return VolterraCheck(True)
    triple, k = min((triple, k) for triple, row in rows.items() for k in row if k not in triple)
    return VolterraCheck(False, (triple, k, rows[triple][k]))


def cubic_apply(p: CubicTensor, x: SparsePoint) -> SparsePoint:
    """Evaluate the defining ordered triple sum (the oracle form).

    Iterates every ordered (i, j, l) over the support of x, so it is
    cubic in the support size; use ``operator_from_tensor`` for anything large.
    """
    support = x.support
    if support and support[-1] > p.dimension:
        raise UndefinedTriple((support[-1],) * 3)
    masses = dict(x.items())
    rows: dict[Triple, Mapping[int, float]] = {}
    out: dict[int, float] = {}
    for i in support:
        mi = masses[i]
        for j in support:
            mij = mi * masses[j]
            for l in support:
                w = mij * masses[l]
                key = tuple(sorted((i, j, l)))
                row = rows.get(key)
                if row is None:
                    row = p.outputs(i, j, l)
                    rows[key] = row
                for k, coef in row.items():
                    out[k] = out.get(k, 0.0) + coef * w
    total = _total(out.values())
    if abs(total - 1.0) > NORMALIZATION_TOLERANCE:
        raise NormalizationFailure(total, NORMALIZATION_TOLERANCE)
    kept = sorted((k, v) for k, v in out.items() if v > 0.0)
    return SparsePoint((k for k, _ in kept), (v for _, v in kept))


def operator_from_tensor(p: CubicTensor) -> VolterraOperator:
    """Wrap a face-invariant tensor as a generating-map operator.

    The growth factor is the grouped bracket, exactly 1 at the vertex
    e^(k) and defined for every index of the tensor's face.  Its
    families are read off the store in one pass: a row of triple t puts
    p_{t,k} at output k, and t without one k is (i, k) for
    ``p_ikk[k][i]`` (the 3*x_k*x_i term), (i, i) for ``p_iik[k][i]``
    (3*x_i^2) or (i, j) with i < j for ``p_ijk[k][(i, j)]`` (6*x_i*x_j).
    The (k, k, k) row weights x_k^2 by 1, as face invariance forces.

    Raises NotVolterra when a row leaves its triple, and UndefinedTriple
    when a triple other than (i, i, i) within the dimension is missing.
    """
    check = is_volterra(p)
    if not check:
        raise NotVolterra(*check.offender)
    n = p.dimension
    p_ikk: dict[int, dict[int, float]] = {}
    p_iik: dict[int, dict[int, float]] = {}
    p_ijk: dict[int, dict[tuple[int, int], float]] = {}
    defined = 0
    for (a, b, c), row in p.coefficients.items():
        if a == c:
            continue
        defined += 1
        for k, coef in row.items():
            u, v = (b, c) if k == a else (a, c) if k == b else (a, b)
            if k == u:
                p_ikk.setdefault(k, {})[v] = coef
            elif k == v:
                p_ikk.setdefault(k, {})[u] = coef
            elif u == v:
                p_iik.setdefault(k, {})[u] = coef
            else:
                p_ijk.setdefault(k, {})[(u, v)] = coef
    if defined < math.comb(n + 2, 3) - n:
        _raise_first_undefined(p)

    def fn(ks: Sequence[int], X) -> list:
        present = list(zip(ks, X))
        out = []
        for k, xk in present:
            others = [(i, m) for i, m in present if i != k]
            fam_ikk = p_ikk.get(k, {})
            fam_iik = p_iik.get(k, {})
            fam_ijk = p_ijk.get(k, {})
            linear = 0.0
            squares = 0.0
            for i, m in others:
                c = fam_ikk.get(i)
                if c:
                    linear = linear + c * m
                c = fam_iik.get(i)
                if c:
                    squares = squares + c * m * m
            cross = 0.0
            for (i, mi), (j, mj) in combinations(others, 2):
                c = fam_ijk.get((i, j))
                if c:
                    cross = cross + c * mi * mj
            out.append(xk * xk + 3.0 * xk * linear + 3.0 * squares + 6.0 * cross)
        return out

    return _continuous(fn, n, f"cubic_tensor(n={n})")


def _raise_first_undefined(p: CubicTensor) -> None:
    """UndefinedTriple for the first missing triple of 1..n in the order
    the grouped form reads them: by k, then (i, k, k) and (i, i, k) by i,
    then (i, j, k) by the pair i < j."""
    n = p.dimension
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            if i != k:
                p.outputs(i, k, k)
                p.outputs(i, i, k)
        for i, j in combinations(range(1, n + 1), 2):
            if k not in (i, j):
                p.outputs(i, j, k)


# ---------------------------------------------------------------------------
# Builtin operators
# ---------------------------------------------------------------------------


def example31(dimension: int | None = None) -> VolterraOperator:
    """The cubic operator with growth factor g_k(x) = 1 + (x_k - sum_i x_i^2).

    Satisfies the pairwise bijectivity condition: for any two points the
    pair functional equals -sum_i (x_i - y_i)^2 <= 0.  With ``dimension``
    given, the operator is restricted to the face 1..dimension (matching
    its explicit tensor from :func:`example31_tensor`); otherwise it is
    valid on every finite support.
    """

    def fn(ks: Sequence[int], X) -> list:
        sq = 0.0
        for m in X:
            sq = sq + m * m
        return [1.0 + (m - sq) for m in X]

    return _continuous(fn, dimension, "example31")


def example31_tensor(dimension: int) -> CubicTensor:
    """Explicit tensor of :func:`example31` over the face 1..dimension.

    For pairwise distinct i, j, k the coefficients are p_{ikk,k} = 1,
    p_{iik,k} = 0 and p_{ijk,k} = 1/3; all rows are supported inside
    their triples.  The store is built in ``validate_tensor``'s form.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    third = 1.0 / 3.0
    store: dict[Triple, dict[int, float]] = {}
    for a in range(1, dimension + 1):
        store[(a, a, a)] = {a: 1.0}
        for b in range(a + 1, dimension + 1):
            store[(a, a, b)] = {a: 1.0}
            store[(a, b, b)] = {b: 1.0}
            for c in range(b + 1, dimension + 1):
                store[(a, b, c)] = {a: third, b: third, c: third}
    return CubicTensor(store, dimension)


def example32() -> VolterraOperator:
    """The triangular cubic bijection of the simplex.

    Coordinates are ordered: (Vx)_k = x_k*(x_k^2 + 3*C_k(x)) where
    C_k(x) = sum_{i<k} x_i - sum_{i<j<k} x_i x_j depends only on earlier
    coordinates, so the growth factor is

        g_k(x) = x_k^2 + 3*sum_{i<k} x_i - 3*sum_{i<j<k} x_i x_j.

    The operator is a bijection of the simplex (each coordinate solves a
    strictly increasing cubic given the earlier ones) yet the pairwise
    condition fails at the vertex pair (e^(1), e^(2)) with value 1.
    """

    def fn(ks: Sequence[int], X) -> list:
        s1 = 0.0  # sum of the masses before index k
        s2 = 0.0  # sum of their squares
        out = []
        for xk in X:
            pairs = (s1 * s1 - s2) / 2.0
            out.append(xk * xk + 3.0 * s1 - 3.0 * pairs)
            s1 = s1 + xk
            s2 = s2 + xk * xk
        return out

    op = _continuous(fn, label="example32")
    op.route = "triangular"
    return op


def image_tail_sum(k: int, x: SparsePoint) -> float:
    """Closed form of the image tail sum_{i>=k} (Vx)_i for example32.

    Evaluates

        T_k^3 + 3*P_k*T_k^2 + 3*Q_k*T_k,

    with T_k = sum_{i>=k} x_i, P_k = sum_{i<k} x_i and
    Q_k = sum_{i<=j<k} x_i x_j (diagonal included).  The telescoping
    identity  tail(k) = (Vx)_k + tail(k+1)  recovers, term by term, that
    the image masses of example32 sum to 1.
    """
    if k < 1:
        raise ValueError("index must be >= 1")
    prefix = 0.0  # sum of the masses before index k
    squares = 0.0  # sum of their squares
    for i, m in x.items():
        if i >= k:
            break
        prefix += m
        squares += m * m
    tail = math.fsum(m for i, m in x.items() if i >= k)
    q = (prefix * prefix + squares) / 2.0
    return tail**3 + 3.0 * prefix * tail * tail + 3.0 * q * tail


def prefix_positivity_value(x: SparsePoint, n: int) -> float:
    """The nonnegative combination sum_{i<=n} x_i - sum_{i<j<=n} x_i x_j.

    Evaluated through its telescoped form

        sum_{k<n} x_k * (1 - sum_{k<i<=n} x_i) + x_n,

    every term of which is nonnegative on the simplex.  This is the
    quantity 3*C_k(x) / 3 guaranteeing example32 images stay nonnegative.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    in_range = [(i, m) for i, m in x.items() if i <= n]
    telescoped = x.mass(n)
    tail_after = 0.0
    for i, m in reversed(in_range):
        if i < n:
            telescoped += m * (1.0 - tail_after)
        tail_after += m
    return telescoped


def _sinpi(t: float) -> float:
    """sin(pi*t) with exact zeros at integers and exact 1 at half-integers."""
    n = math.floor(t)
    r = t - n
    if r > 0.5:
        r = 1.0 - r
    v = math.sin(math.pi * r)
    return -v if n % 2 else v


def _per_element(scalar_fn, *args):
    """``scalar_fn`` of floats, applied to floats or element by element to columns."""
    if not any(getattr(a, "ndim", 0) for a in args):
        return scalar_fn(*args)
    columns = [c.tolist() for c in np.broadcast_arrays(*args)]
    return np.array([scalar_fn(*row) for row in zip(*columns)])


def sine_example() -> VolterraOperator:
    """The non-injective map V(x) = x(1 - sin(pi x)) on the face {1, 2}.

    In simplex coordinates g_k = 1 + f_k with f_1(x) = -sin(pi x_1) and
    f_2(x) = x_1 sin(pi x_1) / x_2, extended by continuity to the value
    pi at the vertex e^(1).  The weighted balance holds by construction,
    but f_1 = -1 exactly at the barycenter, so the strict interior bound
    fails there: the barycenter and e^(2) share the image e^(2).
    """

    def fn(ks: Sequence[int], X) -> list:
        masses = dict(zip(ks, X))
        x1 = masses.get(1, 0.0)
        x2 = masses.get(2, 0.0)
        s = _per_element(_sinpi, x1)
        f2 = _per_element(lambda a, b, v: a * v / b if b > 0.0 else math.pi, x1, x2, s)
        return [1.0 - s if k == 1 else 1.0 + f2 if k == 2 else 1.0 for k in ks]

    return _continuous(fn, 2, "sine")


def tensor_to_obj(p: CubicTensor) -> list[dict]:
    return [
        {"triple": list(triple), "outputs": {str(k): v for k, v in sorted(row.items())}}
        for triple, row in sorted(p.coefficients.items())
    ]
