"""The reports of the sampled validity checks.

``generating.check_conditions`` returns a ``ConditionReport`` of four
``ConditionVerdict``s and ``generating.check_pair_condition`` a
``PairConditionReport``.  The checkers import this module on their
first call, so commands that check nothing never load it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .generating import PAIR_TOLERANCE
from .simplex import FaceSpec, SparsePoint, point_to_obj


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of one condition over the evaluated point set, or, with
    ``certified`` set, a condition that holds by construction and was
    not sampled (worst value 0.0 at the face's barycenter).  ``smoke_test``
    marks an uncertified continuity verdict, which sampling cannot prove."""

    condition: str
    passed: bool
    worst_value: float
    witness: SparsePoint | None
    certified: bool = False

    @property
    def smoke_test(self) -> bool:
        return self.condition == "continuity_smoke" and not self.certified

    def to_obj(self) -> dict:
        return {
            "condition": self.condition,
            "passed": self.passed,
            "worst_value": self.worst_value,
            "witness": None if self.witness is None else point_to_obj(self.witness),
            "smoke_test": self.smoke_test,
            "certified": self.certified,
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

    def to_obj(self) -> dict:
        return {
            "face": list(self.face.indices),
            "samples": self.samples,
            "seed": self.seed,
            "margin": self.margin,
            "conditions": [v.to_obj() for v in self.verdicts],
            "all_passed": self.all_passed,
        }


@dataclass(frozen=True)
class PairConditionReport:
    """Sampled maximum of the pair functional; passes at most PAIR_TOLERANCE."""

    face: FaceSpec
    samples: int
    seed: int
    max_value: float
    witness: tuple[SparsePoint, SparsePoint]

    @property
    def passed(self) -> bool:
        return self.max_value <= PAIR_TOLERANCE

    def to_obj(self) -> dict:
        wx, wy = self.witness
        return {
            "face": list(self.face.indices),
            "samples": self.samples,
            "seed": self.seed,
            "max_value": self.max_value,
            "threshold": PAIR_TOLERANCE,
            "passed": self.passed,
            "witness": {"x": point_to_obj(wx), "y": point_to_obj(wy)},
        }
