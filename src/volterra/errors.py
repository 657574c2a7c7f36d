"""Exception hierarchy shared across the package.

Validation errors signal bad input data or an operator caught violating
its construction contract; they carry the offending witness so callers
can report it.  A missed inverse raises NonConvergence, which carries
the best iterate found, so no result is ever silently wrong.
"""

from __future__ import annotations


class VolterraError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(VolterraError, ValueError):
    """Invalid input data or a detected contract violation."""


class NonFiniteValue(ValidationError):
    """NaN or infinity at ``where``: a point index, a matrix cell or a
    tensor's (triple, output index)."""

    def __init__(self, where, value: float):
        super().__init__(f"value at {where} is not finite: {value!r}")
        self.where = where
        self.value = value


class NegativeMass(ValidationError):
    def __init__(self, index: int, mass: float):
        super().__init__(f"mass at index {index} is negative: {mass!r}")
        self.index = index
        self.mass = mass


class SumOutOfTolerance(ValidationError):
    def __init__(self, total: float, tolerance: float):
        super().__init__(
            f"mass total {total!r} deviates from 1 by {abs(total - 1.0):.3e} "
            f"(tolerance {tolerance:.1e})"
        )
        self.total = total
        self.deviation = abs(total - 1.0)


class DomainViolation(ValidationError):
    """A point or face lies outside an operator's declared domain."""


class NegativeCoordinate(ValidationError):
    """An image coordinate x_k*(1+f_k(x)) fell below zero.

    Signals a violation of the lower-bound condition f_k >= -1.
    """

    def __init__(self, index: int, value: float):
        super().__init__(f"image coordinate {index} is negative: {value!r}")
        self.index = index
        self.value = value


class NormalizationFailure(ValidationError):
    """The raw image mass total drifted away from 1.

    Signals a violation of the zero-weighted-sum condition on the
    generating map.
    """

    def __init__(self, total: float, tolerance: float):
        super().__init__(
            f"image mass total {total!r} deviates from 1 by "
            f"{abs(total - 1.0):.3e} (tolerance {tolerance:.1e})"
        )
        self.total = total
        self.deviation = abs(total - 1.0)


class LambdaOutOfRange(ValidationError):
    def __init__(self, lam: float):
        super().__init__(f"mixing weight must lie in [0, 1], got {lam!r}")
        self.lam = lam


class NotSkew(ValidationError):
    def __init__(self, pair: tuple[int, int], detail: str):
        super().__init__(f"matrix is not skew-symmetric at {pair}: {detail}")
        self.pair = pair


class BoundViolation(ValidationError):
    def __init__(self, pair: tuple[int, int], value: float):
        super().__init__(f"|coefficient| exceeds 1 at {pair}: {value!r}")
        self.pair = pair
        self.value = value


class NegativeCoefficient(ValidationError):
    def __init__(self, triple: tuple[int, int, int], k: int, value: float):
        super().__init__(f"coefficient {triple}->{k} is negative: {value!r}")
        self.triple = triple
        self.k = k
        self.value = value


class RowSumViolation(ValidationError):
    def __init__(self, triple: tuple[int, int, int], total: float):
        super().__init__(
            f"output distribution of triple {triple} sums to {total!r}, "
            f"deviation {abs(total - 1.0):.3e}"
        )
        self.triple = triple
        self.total = total
        self.deviation = abs(total - 1.0)


class PermutationInconsistency(ValidationError):
    def __init__(self, triple: tuple[int, int, int], k: int, values: tuple[float, float]):
        super().__init__(
            f"permuted copies of triple {triple} disagree at output {k}: "
            f"{values[0]!r} vs {values[1]!r}"
        )
        self.triple = triple
        self.k = k
        self.values = values


class UndefinedTriple(ValidationError):
    def __init__(self, triple: tuple[int, int, int]):
        super().__init__(f"no coefficients defined for triple {triple}")
        self.triple = triple


class NotVolterra(ValidationError):
    def __init__(self, triple: tuple[int, int, int], k: int, value: float):
        super().__init__(
            f"tensor sends mass {value!r} from triple {triple} to outside "
            f"index {k}; faces are not invariant"
        )
        self.triple = triple
        self.k = k
        self.value = value


class NonConvergence(VolterraError):
    """An inversion missed the requested residual: every route raises
    this one class.  ``method`` names the route that ran last, as
    ``InversionResult`` would; the structured routes (``"scalar"``,
    ``"triangular"``) run no sweep, so their ``iterations`` is 0."""

    def __init__(self, message: str, best, residual: float, iterations: int, method: str):
        super().__init__(
            f"{message} (best residual {residual:.3e} after {iterations} iterations)"
        )
        self.best = best
        self.residual = residual
        self.iterations = iterations
        self.method = method


class TrajectoryError(VolterraError):
    """Operator application failed while iterating a trajectory."""

    def __init__(self, step: int, cause: Exception):
        super().__init__(f"application failed at trajectory step {step}: {cause}")
        self.step = step
        self.cause = cause
