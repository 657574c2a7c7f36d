"""Volterra-type nonlinear operators on the infinite-dimensional simplex.

Construction, validity checking, application, inversion and iteration
of operators (Vx)_k = x_k * g_k(x), g_k = 1 + f_k, with exact
finite-support arithmetic.

Importing the package loads none of its modules.  Each exported name
is listed once below, under the module that defines it; the first read
of a name (``volterra.apply``, ``from volterra import apply``) imports
that module alone and binds the name here, so a later read is a plain
module attribute lookup.  A command-line run thus loads only the
modules its command uses.
"""

__version__ = "0.1.0"

#: Module -> the names it exports through the package.
_EXPORTS = {
    "simplex": (
        "SparsePoint",
        "FaceSpec",
        "make_point",
        "vertex",
        "in_relative_interior",
        "l1_distance",
        "sample_face",
        "sample_face_rng",
        "point_to_obj",
        "point_from_obj",
    ),
    "generating": (
        "VolterraOperator",
        "apply",
        "check_conditions",
        "check_pair_condition",
        "pair_condition_value",
        "compose",
        "convex_combination",
        "is_fixed_point",
        "identity_operator",
    ),
    "reports": (
        "ConditionReport",
        "ConditionVerdict",
        "PairConditionReport",
    ),
    "quadratic": (
        "SkewMatrix",
        "validate_matrix",
        "quadratic_operator",
        "symmetry_defect_witness",
    ),
    "cubic": (
        "CubicTensor",
        "validate_tensor",
        "is_volterra",
        "cubic_apply",
        "operator_from_tensor",
        "example31",
        "example31_tensor",
        "example32",
        "image_tail_sum",
        "prefix_positivity_value",
        "sine_example",
    ),
    "inversion": (
        "InversionResult",
        "invert",
        "invert_fixed_point",
        "solve_monotone_cubic",
    ),
    "dynamics": (
        "Trajectory",
        "iterate",
        "detect_fixed_points_on_face",
    ),
    "errors": (
        "VolterraError",
        "ValidationError",
        "NegativeMass",
        "NonFiniteValue",
        "SumOutOfTolerance",
        "DomainViolation",
        "NegativeCoordinate",
        "NormalizationFailure",
        "LambdaOutOfRange",
        "NotSkew",
        "BoundViolation",
        "NegativeCoefficient",
        "RowSumViolation",
        "PermutationInconsistency",
        "UndefinedTriple",
        "NotVolterra",
        "NonConvergence",
        "TrajectoryError",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
