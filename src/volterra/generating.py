"""Volterra-type operators and their validity conditions.

An operator V acts on a simplex point coordinate-wise through a
generating map f = (f_1, f_2, ...):

    (Vx)_k = x_k * (1 + f_k(x)).

A generating map is one callable plus an optional domain,
``GeneratingMap(fn, declared_domain)``, where ``fn(indices, x)``
returns [f_k(x) for k in indices].  Every consumer (``apply``, the
checkers, the inverters) evaluates f through ``GeneratingMap.values``.

V maps the simplex into itself, continuously and with every face
invariant, exactly when the generating map satisfies four conditions:

    1. f is continuous (checked here only by a perturbation smoke test);
    2. f_k(x) >= -1 for every k;
    3. sum_k x_k * f_k(x) = 0 for every x;
    4. f_k(x) > -1 strictly on the relative interior of every face.

Conditions 2-4 are decidable pointwise, so the checker evaluates them on
seeded uniform samples of a face plus a deterministic probe set (the
face's vertices and barycenter).  Failures are reported with a concrete
witness point, never raised.

A further pairwise condition,

    sum_k x_k f_k(y) + sum_k y_k f_k(x) <= 0   for all x, y,

is sufficient (but not necessary) for V to be a bijection of the
simplex; ``check_pair_condition`` samples it the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DomainViolation,
    LambdaOutOfRange,
    NegativeCoordinate,
    NormalizationFailure,
)
from .simplex import FaceSpec, SparsePoint, l1_distance, sample_face_rng

#: Negative image coordinates beyond this magnitude raise NegativeCoordinate.
NEGATIVE_TOLERANCE = 1e-12
#: Raw image totals deviating from 1 beyond this raise NormalizationFailure.
NORMALIZATION_TOLERANCE = 1e-9
#: Sampled pair-condition values above this fail the pairwise check.
PAIR_TOLERANCE = 1e-12


@dataclass(frozen=True)
class GeneratingMap:
    """The functionals f_k defining an operator, held as one callable.

    ``fn(indices, x)`` returns [f_k(x) for k in indices]; it must be
    defined for every index k of any face the operator is used on, not
    only the support of x.  ``declared_domain`` restricts the operator
    to points supported inside a face.
    """

    fn: Callable[[Sequence[int], SparsePoint], Sequence[float]]
    declared_domain: FaceSpec | None = None

    def values(self, indices: Sequence[int], x: SparsePoint) -> np.ndarray:
        return np.asarray(self.fn(indices, x), dtype=float)


@dataclass(frozen=True)
class VolterraOperator:
    map: GeneratingMap
    label: str = "operator"

    def f(self, k: int, x: SparsePoint) -> float:
        return float(self.map.values((k,), x)[0])


def identity_operator() -> VolterraOperator:
    """The operator with f identically zero; applies as the identity."""
    return VolterraOperator(GeneratingMap(lambda ks, x: np.zeros(len(ks))), label="identity")


def _check_domain(op: VolterraOperator, x: SparsePoint) -> None:
    dom = op.map.declared_domain
    if dom is not None and not dom.covers(x):
        raise DomainViolation(
            f"point supported on {x.support} lies outside the declared "
            f"domain {dom.indices} of operator {op.label!r}"
        )


def apply(op: VolterraOperator, x: SparsePoint) -> SparsePoint:
    """Apply (Vx)_k = x_k*(1 + f_k(x)) over the support of x.

    The image is returned with its raw masses: no renormalization is
    performed, so callers can observe the exact image total.  A
    coordinate below -NEGATIVE_TOLERANCE raises NegativeCoordinate (the
    lower-bound condition failed at x); a raw total off 1 by more than
    NORMALIZATION_TOLERANCE raises NormalizationFailure (the weighted
    balance condition failed at x).  Coordinates within the negative
    tolerance are clamped to zero and dropped, so the image support is
    always contained in the support of x.
    """
    _check_domain(op, x)
    support = x.support
    fvals = op.map.values(support, x)
    return _image((k, x.mass(k) * (1.0 + float(fk))) for k, fk in zip(support, fvals))


def _image(raw: Iterable[tuple[int, float]]) -> SparsePoint:
    """The image from raw (index, mass) pairs in ascending index order,
    checked and clamped as ``apply`` describes; a NaN total raises."""
    kept = []
    total = 0.0
    for k, v in raw:
        if v < -NEGATIVE_TOLERANCE:
            raise NegativeCoordinate(k, v)
        total += v
        if v > 0.0:
            kept.append((k, v))
    if not abs(total - 1.0) <= NORMALIZATION_TOLERANCE:
        raise NormalizationFailure(total, NORMALIZATION_TOLERANCE)
    return SparsePoint((k for k, _ in kept), (v for _, v in kept))


def is_fixed_point(op: VolterraOperator, x: SparsePoint, tol: float) -> bool:
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return l1_distance(apply(op, x), x) <= tol


def pair_condition_value(op: VolterraOperator, x: SparsePoint, y: SparsePoint) -> float:
    """sum_k x_k f_k(y) + sum_k y_k f_k(x) over the union of supports.

    Nonpositive values for all pairs are sufficient for bijectivity.
    The implementation is literally symmetric in (x, y).
    """
    _check_domain(op, x)
    _check_domain(op, y)
    fy = op.map.values(x.support, y)
    fx = op.map.values(y.support, x)
    sx = 0.0
    for (_, m), v in zip(x.items(), fy):
        sx += m * float(v)
    sy = 0.0
    for (_, m), v in zip(y.items(), fx):
        sy += m * float(v)
    return sx + sy


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of one condition over the evaluated point set."""

    condition: str
    passed: bool
    worst_value: float
    witness: SparsePoint | None
    smoke_test: bool = False

    def to_obj(self) -> dict:
        return {
            "condition": self.condition,
            "passed": self.passed,
            "worst_value": self.worst_value,
            "witness": None if self.witness is None else {str(k): m for k, m in self.witness.items()},
            "smoke_test": self.smoke_test,
        }


@dataclass(frozen=True)
class ConditionReport:
    face: FaceSpec
    samples: int
    seed: int
    margin: float
    continuity: ConditionVerdict
    lower_bound: ConditionVerdict
    balance: ConditionVerdict
    strict_bound: ConditionVerdict

    @property
    def verdicts(self) -> tuple[ConditionVerdict, ...]:
        return (self.continuity, self.lower_bound, self.balance, self.strict_bound)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def failures(self) -> list[ConditionVerdict]:
        return [v for v in self.verdicts if not v.passed]

    def to_obj(self) -> dict:
        return {
            "face": list(self.face.indices),
            "samples": self.samples,
            "seed": self.seed,
            "margin": self.margin,
            "conditions": [v.to_obj() for v in self.verdicts],
            "all_passed": self.all_passed,
        }


def _perturb_within(
    x: SparsePoint, face: FaceSpec, size: float, rng: np.random.Generator
) -> SparsePoint:
    """A nearby interior point with l1 distance at most ``size`` from x."""
    idx = face.indices
    masses = np.array([x.mass(k) for k in idx])
    d = rng.standard_normal(len(idx))
    d -= d.mean()
    norm = float(np.abs(d).sum())
    if norm == 0.0:
        return x
    d *= size / norm
    neg = d < 0
    if np.any(neg):
        # Keep every coordinate strictly positive.
        headroom = float(np.min(masses[neg] / (-2.0 * d[neg])))
        if headroom < 1.0:
            d *= headroom
    new = masses + d
    return SparsePoint(idx, (float(v) for v in new))


def check_conditions(
    op: VolterraOperator,
    face: FaceSpec,
    samples: int = 1000,
    seed: int = 0,
    margin: float = 1e-9,
    continuity_bound: float = 1e-3,
    perturbation: float = 1e-6,
) -> ConditionReport:
    """Sample-based check of the four validity conditions on a face.

    Uniform interior samples are drawn from riS_face; the face's
    vertices and barycenter are always evaluated as well (vertices for
    the two boundary-safe conditions, the barycenter for all four).
    The strict interior bound is tested against -1 + margin; an exact
    boundary hit counts as a failure.  The continuity check perturbs
    each sample by at most ``perturbation`` in l1 and flags generating
    maps whose response exceeds ``continuity_bound``; it is a smoke
    test, not a certificate.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    dom = op.map.declared_domain
    if dom is not None and not all(k in dom for k in face.indices):
        raise DomainViolation(
            f"face {face.indices} is not contained in the declared domain "
            f"{dom.indices} of operator {op.label!r}"
        )
    rng = np.random.default_rng(seed)
    indices = face.indices
    interior = [face.barycenter()]
    interior.extend(sample_face_rng(face, rng) for _ in range(samples))
    boundary = face.vertices() if len(face) > 1 else []

    min_f = np.inf
    min_f_witness = None
    max_balance = -np.inf
    balance_witness = None
    min_interior_f = np.inf
    interior_witness = None
    max_wobble = -np.inf
    wobble_witness = None

    for n, x in enumerate(interior + boundary):
        fvals = op.map.values(indices, x)
        m = float(np.min(fvals))
        if m < min_f:
            min_f, min_f_witness = m, x
        bal = abs(float(sum(x.mass(k) * fv for k, fv in zip(indices, fvals))))
        if bal > max_balance:
            max_balance, balance_witness = bal, x
        if n >= len(interior):
            continue
        if m < min_interior_f:
            min_interior_f, interior_witness = m, x
        x2 = _perturb_within(x, face, perturbation, rng)
        fvals2 = op.map.values(indices, x2)
        wobble = float(np.abs(fvals - fvals2).sum())
        if wobble > max_wobble:
            max_wobble, wobble_witness = wobble, x

    lower = ConditionVerdict(
        condition="mass_lower_bound",
        passed=min_f >= -1.0 - NEGATIVE_TOLERANCE,
        worst_value=min_f,
        witness=min_f_witness,
    )
    balance = ConditionVerdict(
        condition="weighted_balance",
        passed=max_balance <= NORMALIZATION_TOLERANCE,
        worst_value=max_balance,
        witness=balance_witness,
    )
    strict = ConditionVerdict(
        condition="interior_strict_bound",
        passed=min_interior_f > -1.0 + margin,
        worst_value=min_interior_f,
        witness=interior_witness,
    )
    continuity = ConditionVerdict(
        condition="continuity_smoke",
        passed=max_wobble <= continuity_bound,
        worst_value=max_wobble,
        witness=wobble_witness,
        smoke_test=True,
    )
    return ConditionReport(
        face=face,
        samples=samples,
        seed=seed,
        margin=margin,
        continuity=continuity,
        lower_bound=lower,
        balance=balance,
        strict_bound=strict,
    )


@dataclass(frozen=True)
class PairConditionReport:
    """Sampled maximum of the pairwise bijectivity functional."""

    face: FaceSpec
    samples: int
    seed: int
    max_value: float
    witness: tuple[SparsePoint, SparsePoint]
    threshold: float = PAIR_TOLERANCE

    @property
    def passed(self) -> bool:
        return self.max_value <= self.threshold

    def to_obj(self) -> dict:
        wx, wy = self.witness
        return {
            "face": list(self.face.indices),
            "samples": self.samples,
            "seed": self.seed,
            "max_value": self.max_value,
            "threshold": self.threshold,
            "passed": self.passed,
            "witness": {
                "x": {str(k): m for k, m in wx.items()},
                "y": {str(k): m for k, m in wy.items()},
            },
        }


def check_pair_condition(
    op: VolterraOperator, face: FaceSpec, samples: int = 1000, seed: int = 0
) -> PairConditionReport:
    """Maximize the pair functional over sampled pairs plus vertex pairs.

    All vertex pairs of the face are always evaluated: counterexamples
    to the pairwise condition typically sit at extremal points.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    pairs: list[tuple[SparsePoint, SparsePoint]] = []
    verts = face.vertices()
    for a in range(len(verts)):
        for b in range(a, len(verts)):
            pairs.append((verts[a], verts[b]))
    for _ in range(samples):
        pairs.append((sample_face_rng(face, rng), sample_face_rng(face, rng)))

    best = -np.inf
    best_pair = pairs[0]
    for x, y in pairs:
        v = pair_condition_value(op, x, y)
        if v > best:
            best, best_pair = v, (x, y)
    return PairConditionReport(
        face=face, samples=samples, seed=seed, max_value=float(best), witness=best_pair
    )


def compose(op1: VolterraOperator, op2: VolterraOperator) -> VolterraOperator:
    """The operator applying op2 first, then op1.

    Its generating map is computed multiplicatively,

        1 + g_k(x) = (1 + f2_k(x)) * (1 + f1_k(V2 x)),

    which agrees with (V1(V2 x))_k / x_k - 1 wherever x_k > 0 and stays
    defined on all of the face (no division), so vertex probes work.
    """
    dom = _merge_domains(op1.map.declared_domain, op2.map.declared_domain)

    def fn(ks: Sequence[int], x: SparsePoint) -> np.ndarray:
        f2 = op2.map.values(ks, x)
        f1 = op1.map.values(ks, apply(op2, x))
        return f2 + f1 + f2 * f1

    gmap = GeneratingMap(fn, declared_domain=dom)
    return VolterraOperator(gmap, label=f"compose({op1.label}, {op2.label})")


def convex_combination(
    op1: VolterraOperator, op2: VolterraOperator, lam: float
) -> VolterraOperator:
    """Generating map lam*f1 + (1-lam)*f2; images mix coordinate-wise."""
    if not 0.0 <= lam <= 1.0:
        raise LambdaOutOfRange(lam)
    dom = _merge_domains(op1.map.declared_domain, op2.map.declared_domain)

    def fn(ks: Sequence[int], x: SparsePoint) -> np.ndarray:
        return lam * op1.map.values(ks, x) + (1.0 - lam) * op2.map.values(ks, x)

    gmap = GeneratingMap(fn, declared_domain=dom)
    return VolterraOperator(gmap, label=f"convex({lam}*{op1.label} + {1.0 - lam}*{op2.label})")


def restrict(op: VolterraOperator, face: FaceSpec) -> VolterraOperator:
    """The same operator with its domain narrowed to one face."""
    return VolterraOperator(GeneratingMap(op.map.fn, declared_domain=face), label=f"{op.label}|{face.indices}")


def _merge_domains(a: FaceSpec | None, b: FaceSpec | None) -> FaceSpec | None:
    if a is None:
        return b
    if b is None:
        return a
    common = [k for k in a.indices if k in b]
    if not common:
        raise DomainViolation("operators have disjoint declared domains")
    return FaceSpec.of(common)
