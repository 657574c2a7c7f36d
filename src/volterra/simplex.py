"""Finite-support arithmetic on the infinite-dimensional simplex.

The simplex is the set of nonnegative summable sequences with unit total
mass, indexed by the positive integers.  Everything handled here has
finite support, so a point is stored exactly as a sparse index -> mass
map instead of a truncated sequence.  A face is the sub-simplex supported
inside a finite index set; the relative interior of a face consists of
the points whose mass is strictly positive on every index of the face.

Uniform sampling on a face uses the flat Dirichlet distribution realized
through normalized exponentials: g_i ~ Exp(1), mass_i = g_i / sum(g).
``sample_face_block`` draws N such points as the rows of an (N, d)
array, bit for bit the N points that N sequential draws give.

Every face holds at most ``MAX_FACE_SIZE`` indices, so that no input can
make a face, or a checker's block of points on it, arbitrarily large.
An operator's declared domain is no face but the prefix 1..n, held as
its bound n (``VolterraOperator.max_index``), which may be far larger.

Every index, key, count and number the package takes from outside, here,
in the matrix, tensor and operator-spec readers and on the command line,
is read by ``_index``, ``_key``, ``_count``, ``_number`` or ``_value``
below, and nowhere else.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence

from . import _numpy as np
from .errors import NegativeMass, NonFiniteValue, SumOutOfTolerance

#: Absolute tolerance on the input mass total accepted by make_point.
SUM_TOLERANCE = 1e-9
#: Largest number of indices a parsed or collected face may hold.
MAX_FACE_SIZE = 10_000
#: Most significant digits an index has: those of sys.maxsize.
_DIGITS = len(str(sys.maxsize))


def _index(k) -> int | None:
    """k as an index: an int in [1, sys.maxsize], where an integral
    float counts and a bool does not; None if k is no index."""
    if isinstance(k, bool):
        return None
    if isinstance(k, float):
        if not k.is_integer():
            return None
        k = int(k)
    else:
        try:
            k = operator.index(k)
        except TypeError:
            return None
    return k if 1 <= k <= sys.maxsize else None


def _count(text: str) -> int | None:
    """text as an integer in [0, sys.maxsize] in ASCII decimal digits
    (leading zeros allowed), as a count option gives one; else None."""
    digits = text.lstrip("0")  # int() refuses more than 4300 digits
    if text.isascii() and text.isdigit() and len(digits) <= _DIGITS:
        n = int(digits or "0")
        return n if n <= sys.maxsize else None
    return None


def _number(text: str) -> float | None:
    """text as a float, as a float option gives one: what float() reads,
    in ASCII, with no ``_`` and no surrounding whitespace; else None."""
    if text.isascii() and "_" not in text and text == text.strip():
        try:
            return float(text)
        except ValueError:
            return None
    return None


def _key(k) -> int | None:
    """k as an index written in ASCII decimal digits, as a JSON object
    key or face text gives one; an index that is no string counts as
    itself.  None if k is neither."""
    if not isinstance(k, str):
        return _index(k)
    return _count(k) or None


def _value(v) -> float | None:
    """v as a float, or None if v is no number (a bool or a string is none)."""
    if isinstance(v, float):
        return float(v)
    if isinstance(v, bool):
        return None
    try:
        return float(operator.index(v))
    except (TypeError, OverflowError):  # no int, or one beyond the float range
        return None


#: What each reader accepts, as its errors state it.
_RULES = {
    _index: f"an integer in [1, {sys.maxsize}]",
    _key: f"ASCII decimal digits naming an integer in [1, {sys.maxsize}]",
    _value: "a number",
}


def _read(reader, value, field: str, *where):
    """reader(value); if the reader finds no index or number in it, a
    ValueError naming the field, ``field.format(*where)``, and the value."""
    got = reader(value)
    if got is None:
        raise ValueError(f"{field.format(*where)} must be {_RULES[reader]}, got {value!r}")
    return got


class SparsePoint:
    """Immutable finite-support point of the simplex.

    Entries are sorted by index, strictly positive, and normalized to
    unit total at construction.  Build instances through
    :func:`make_point`, :func:`vertex` or :func:`sample_face`; operator
    application bypasses renormalization internally so that image mass
    totals remain observable to the caller.
    """

    __slots__ = ("_indices", "_masses")

    def __init__(self, indices: Iterable[int], masses: Iterable[float]):
        self._indices = tuple(indices)
        self._masses = tuple(masses)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices carrying strictly positive mass, ascending."""
        return self._indices

    @property
    def max_index(self) -> int:
        return self._indices[-1] if self._indices else 0

    @property
    def masses(self) -> tuple[float, ...]:
        """Masses aligned with ``support``."""
        return self._masses

    def mass(self, index: int) -> float:
        pos = _slot(self._indices, index)
        return self._masses[pos] if pos >= 0 else 0.0

    def items(self) -> Iterator[tuple[int, float]]:
        return iter(zip(self._indices, self._masses))

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self._indices, self._masses))

    def total(self) -> float:
        return _total(self._masses)

    def __contains__(self, index: int) -> bool:
        return _slot(self._indices, index) >= 0

    def __len__(self) -> int:
        return len(self._indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoint):
            return NotImplemented
        return self._indices == other._indices and self._masses == other._masses

    def __hash__(self) -> int:
        return hash((self._indices, self._masses))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {m:.6g}" for k, m in self.items())
        return f"SparsePoint({{{body}}})"


def _slot(indices: Sequence[int], index: int) -> int:
    """Position of ``index`` in the ascending ``indices``, or -1."""
    pos = bisect_left(indices, index)
    return pos if pos < len(indices) and indices[pos] == index else -1


def make_point(entries: Mapping[int, float] | Iterable[tuple[int, float]]) -> SparsePoint:
    """Validate, canonicalize and renormalize a point of the simplex.

    Accepts an index -> mass mapping or an iterable of (index, mass)
    pairs; duplicate indices accumulate.  Zero masses are dropped, the
    remaining masses are divided by their total so the stored sum is 1
    in working precision.

    Raises ValueError for an index that ``_index`` does not read or a
    mass that ``_value`` does not, NonFiniteValue for a NaN or infinite
    mass, NegativeMass for any mass below zero and SumOutOfTolerance
    when the input total deviates from 1 by more than ``SUM_TOLERANCE``.
    """
    if isinstance(entries, Mapping):
        pairs = entries.items()
    else:
        pairs = entries
    acc: dict[int, float] = {}
    for index, mass in pairs:
        k = _read(_index, index, "point index")
        acc[k] = acc.get(k, 0.0) + _checked_mass(k, _read(_value, mass, "the mass at index {}", k))
    kept = sorted((k, m) for k, m in zip(acc, _normalized(list(acc.values()))) if m > 0.0)
    return SparsePoint((k for k, _ in kept), (m for _, m in kept))


def _checked_mass(k: int, m: float) -> float:
    """m, if it is a finite mass at least zero; NonFiniteValue or NegativeMass if not."""
    if not math.isfinite(m):
        raise NonFiniteValue(k, m)
    if m < 0.0:
        raise NegativeMass(k, m)
    return m


def _checked_all(indices: Sequence[int], masses: list[float]) -> list[float]:
    """masses, aligned with ``indices``, if each is a finite mass at least
    zero, which one C-level ``min`` and the total decide; otherwise
    ``_checked_mass``'s error at the first that is not."""
    if not (min(masses, default=0.0) >= 0.0 and math.isfinite(_total(masses))):
        for k, m in zip(indices, masses):
            _checked_mass(k, m)
    return masses


if sys.version_info >= (3, 12):

    def _total(values: Iterable[float]) -> float:
        """The values added left to right from 0.0.  Builtin ``sum`` of
        floats compensates from Python 3.12 on, so it is not used here."""
        total = 0.0
        for v in values:
            total += v
        return total

else:

    def _total(values: Iterable[float]) -> float:
        """The values added left to right from 0.0, as builtin ``sum`` of
        floats adds them before Python 3.12, about five times faster than
        a loop."""
        return sum(values, 0.0)


def _normalized(masses: list[float]) -> list[float]:
    """Checked masses divided by their total, as ``make_point`` divides
    them; a mass not above zero becomes 0.0.  Raises SumOutOfTolerance
    when the total deviates from 1 by more than ``SUM_TOLERANCE``."""
    total = _total(masses)
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise SumOutOfTolerance(total, SUM_TOLERANCE)
    return [m / total if m > 0.0 else 0.0 for m in masses]


def _point_on(indices: Sequence[int], masses: Sequence[float]) -> SparsePoint:
    """The point with these masses, each above zero or exactly zero, on
    ascending ``indices``; the zeros are dropped."""
    if 0.0 in masses:
        kept = [(k, m) for k, m in zip(indices, masses) if m > 0.0]
        indices, masses = [k for k, _ in kept], [m for _, m in kept]
    return SparsePoint(indices, masses)


def vertex(n: int) -> SparsePoint:
    """The extremal point e^(n): all mass on index n."""
    if n < 1:
        raise ValueError(f"vertex index must be >= 1, got {n}")
    return SparsePoint((n,), (1.0,))


class FaceSpec:
    """A finite index set defining a face of the simplex.

    Its indices are read by ``_index`` and kept as ints, ascending; more
    than MAX_FACE_SIZE of them are a ValueError.  Immutable by
    convention; equal to, and hashed as, any face on the same indices.
    """

    __slots__ = ("indices",)

    def __init__(self, indices: tuple[int, ...]):
        keys = tuple(_read(_index, k, "face index") for k in indices)
        if not keys:
            raise ValueError("a face needs at least one index")
        _check_size(len(keys))
        if not all(map(operator.lt, keys, keys[1:])):
            raise ValueError("face indices must be strictly increasing")
        self.indices = keys

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaceSpec):
            return NotImplemented
        return self.indices == other.indices

    def __hash__(self) -> int:
        return hash(self.indices)

    def __repr__(self) -> str:
        return f"FaceSpec(indices={self.indices!r})"

    @classmethod
    def of(cls, indices: Iterable[int]) -> "FaceSpec":
        """The face on the distinct ``indices``; ValueError past MAX_FACE_SIZE."""
        keys: set[int] = set()
        for k in indices:
            keys.add(_read(_index, k, "face index"))
            _check_size(len(keys))
        return cls(tuple(sorted(keys)))

    @classmethod
    def prefix(cls, n: int) -> "FaceSpec":
        """The face on indices 1..n; ValueError past MAX_FACE_SIZE."""
        _check_size(n)
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def parse(cls, text: str) -> "FaceSpec":
        """Parse ``"1..5"`` ranges and ``"1,3,7"`` lists (mixable); each
        index is ASCII decimal digits, spaces around it allowed."""
        indices: set[int] = set()
        for token in text.split(","):
            if not token.strip(" "):
                continue
            bounds = [_read(_key, v.strip(" "), "face index") for v in token.split("..")]
            if len(bounds) > 2:
                raise ValueError(f"a face range is lo..hi, got {token!r}")
            lo, hi = bounds[0], bounds[-1]
            _check_size(hi - lo + 1)
            indices.update(range(lo, hi + 1))
            _check_size(len(indices))
        if not indices:
            raise ValueError(f"cannot parse face from {text!r}")
        return cls(tuple(sorted(indices)))

    def __contains__(self, index: int) -> bool:
        return _slot(self.indices, index) >= 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def vertices(self) -> list[SparsePoint]:
        return [vertex(k) for k in self.indices]

    def barycenter(self) -> SparsePoint:
        m = 1.0 / len(self.indices)
        return SparsePoint(self.indices, (m,) * len(self.indices))


def _check_size(n: int) -> None:
    if n > MAX_FACE_SIZE:
        raise ValueError(f"a face holds at most {MAX_FACE_SIZE} indices, got {n}")


def in_relative_interior(p: SparsePoint, face: FaceSpec) -> bool:
    """True iff ``p`` has strictly positive mass exactly on the face."""
    return p.support == face.indices


def l1_distance(p: SparsePoint, q: SparsePoint) -> float:
    """Sum of |p_k - q_k| over the union of supports: p's indices in order, then q's others."""
    rest = q.as_dict()
    s = 0.0
    for k, m in p.items():
        s += abs(m - rest.pop(k, 0.0))
    for m in rest.values():
        s += m
    return s


def _within(p: SparsePoint, q: SparsePoint, bound: float) -> bool:
    """Whether ``l1_distance(p, q) <= bound``, the same decision bit for
    bit.  On matching supports the terms are added in its order and the
    sum stops once it passes the bound: adding a term |p_k - q_k| >= 0
    never lowers a sum, and a sum that a NaN term made NaN fails too."""
    if p.support != q.support:
        return l1_distance(p, q) <= bound
    s = 0.0
    for a, b in zip(p.masses, q.masses):
        s += abs(a - b)
        if s > bound:
            return False
    return s <= bound


def sample_face_block(face: FaceSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n flat-Dirichlet points in the relative interior of ``face``.

    Row i holds the masses of point i on the face's indices.  A row with
    a mass underflowed to zero (astronomically unlikely) would leave the
    relative interior; it is dropped and the block topped up from the
    same stream, exactly as a sequential draw would redraw it.  The
    draws are ``standard_exponential``: the same stream and bits as
    ``exponential()``, whose scale of 1.0 multiplies each draw exactly,
    but filled without that per-draw step.
    """
    d = len(face.indices)
    rows = np.empty((0, d))
    while len(rows) < n:
        g = rng.standard_exponential(size=(n - len(rows), d))
        g /= g.sum(axis=1, keepdims=True)
        if not len(rows) and g.min() > 0.0:
            return g
        rows = np.vstack((rows, g[np.all(g > 0.0, axis=1)]))
    return rows


def sample_face_rng(face: FaceSpec, rng: np.random.Generator) -> SparsePoint:
    """Draw one flat-Dirichlet point in the relative interior of ``face``."""
    return SparsePoint(face.indices, sample_face_block(face, rng, 1)[0].tolist())


def sample_face(face: FaceSpec, seed: int) -> SparsePoint:
    """Uniform point in riS_face; deterministic for a given seed."""
    return sample_face_rng(face, np.random.default_rng(seed))


def point_to_obj(p: SparsePoint) -> dict[str, float]:
    """JSON form: decimal index strings mapping to masses."""
    return {str(k): m for k, m in p.items()}


def point_from_obj(obj: Mapping[str, float]) -> SparsePoint:
    """A point from its JSON form; ValueError for a key that ``_key``
    does not read, and ``make_point``'s errors for its masses."""
    return make_point((_read(_key, k, "point index"), v) for k, v in obj.items())
