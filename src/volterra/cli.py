"""Command-line harness over the operator library.

Commands::

    volterra check      --operator FILE --face 1..5 [--samples N --seed S --margin EPS]
    volterra pair-check --operator FILE --face 1..5 [--samples N --seed S]
    volterra apply      --operator FILE --point FILE
    volterra simulate   --operator FILE --point FILE --steps T
    volterra invert     --operator FILE --point FILE [--tol T --max-iter N]
    volterra builtin    --name example31|example32|sine [--dimension N]

All inputs and reports are JSON (trajectories are JSON Lines).  Exit
codes: 0 success/pass, 1 validation or condition failure, 2
non-convergence, 3 malformed input or an unwritable --output, 141 a
closed stdout.  ``check`` and ``pair-check`` share one body; the seed of
a sampled check is --seed, 0 by default.

``quadratic``, ``dynamics`` and ``inversion`` are imported by the code
that uses them, when it runs, so ``apply`` on a formula operator loads
none of them; their functions are read off the module at call time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .cubic import (
    example31,
    example31_tensor,
    example32,
    operator_from_tensor,
    sine_example,
    tensor_to_obj,
    validate_tensor,
)
from .errors import NonConvergence, TrajectoryError, ValidationError
from .generating import (
    MAX_NESTING,
    VolterraOperator,
    apply,
    check_conditions,
    check_pair_condition,
    compose,
    convex_combination,
)
from .simplex import MAX_FACE_SIZE, FaceSpec, SparsePoint, _count, _index, _number, _read, _value
from .simplex import point_from_obj, point_to_obj


#: Most masses (samples x face size) a ``check`` or ``pair-check`` may
#: sample.  The checkers hold several blocks of that many floats; the
#: default 1000 samples on the largest face a command line can name fit.
MAX_SAMPLE_CELLS = 1000 * MAX_FACE_SIZE
#: Largest ``builtin --dimension``.  The example31 tensor it writes holds
#: every sorted triple of 1..N, about N**3 / 6 of them: at 50, 22,100
#: triples and 4.3 MB of JSON in about a second; at 1000 it would take
#: hours.
MAX_BUILTIN_DIMENSION = 50


class MalformedInput(Exception):
    """Unreadable or structurally invalid input; maps to exit code 3."""


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON, or an int too long
        raise MalformedInput(f"cannot read JSON from {path}: {exc}") from exc


def build_operator(obj) -> VolterraOperator:
    """Construct an operator from a tagged spec object.

    Validation failures of the payload (non-skew matrix, bad tensor,
    ...) propagate as ValidationError; structural problems (unknown
    tag, missing fields, a ``dimension`` that is no integer, a
    ``lambda`` that is no number, more than ``MAX_NESTING`` nested
    ``compose`` and ``convex`` levels) raise MalformedInput.
    """
    try:
        tag = obj["type"]
        if tag == "quadratic":
            from . import quadratic

            return quadratic.quadratic_operator(quadratic.validate_matrix(obj["matrix"]))
        if tag == "cubic_tensor":
            return operator_from_tensor(validate_tensor(obj["triples"]))
        if tag == "example31":
            dimension = obj.get("dimension")
            return example31(None if dimension is None else _read(_index, dimension, "dimension"))
        if tag == "example32":
            return example32()
        if tag == "sine":
            return sine_example()
        if tag == "compose":
            first, second = obj["operators"]
            return compose(build_operator(first), build_operator(second))
        if tag == "convex":
            first, second = obj["operators"]
            lam = _read(_value, obj["lambda"], "lambda")
            return convex_combination(build_operator(first), build_operator(second), lam)
        raise MalformedInput(f"unknown operator type {tag!r}")
    except (ValidationError, MalformedInput):
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"bad operator spec: {exc}") from exc


def _load_operator(path: str) -> VolterraOperator:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise MalformedInput("operator spec must be a JSON object")
    return build_operator(obj)


def _load_point(path: str) -> SparsePoint:
    obj = _load_json(path)
    try:
        return point_from_obj(obj)
    except (ValidationError, ValueError, TypeError, AttributeError) as exc:
        raise MalformedInput(f"bad point file {path}: {exc}") from exc


def _emit(payload, output: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if output:
        _write(output, text + "\n")
    else:
        print(text)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise MalformedInput(f"cannot write {path}: {exc}") from exc


def _sampled_check(args, checker, passed, **options) -> int:
    """Run ``checker`` on the command line's operator and face, write its
    report and return 0 when ``passed(report)``, else 1; MalformedInput
    for a bad face or more than ``MAX_SAMPLE_CELLS`` sampled masses."""
    op = _load_operator(args.operator)
    try:
        face = FaceSpec.parse(args.face)
    except ValueError as exc:
        raise MalformedInput(f"bad face {args.face!r}: {exc}") from exc
    cells = args.samples * len(face)
    if cells > MAX_SAMPLE_CELLS:
        raise MalformedInput(
            f"{args.samples} samples on {len(face)} indices are {cells} masses; "
            f"at most {MAX_SAMPLE_CELLS} are allowed"
        )
    report = checker(op, face, samples=args.samples, seed=args.seed, **options)
    payload = {
        "command": args.command,
        "version": __version__,
        "operator": op.label,
        **report.to_obj(),
    }
    _emit(payload, args.output)
    return 0 if passed(report) else 1


def cmd_check(args) -> int:
    return _sampled_check(args, check_conditions, lambda report: report.all_passed, margin=args.margin)


def cmd_pair_check(args) -> int:
    return _sampled_check(args, check_pair_condition, lambda report: report.passed)


def cmd_apply(args) -> int:
    op = _load_operator(args.operator)
    x = _load_point(args.point)
    image = apply(op, x)
    _emit(point_to_obj(image), args.output)
    return 0


def cmd_simulate(args) -> int:
    from . import dynamics

    op = _load_operator(args.operator)
    x = _load_point(args.point)
    trajectory = dynamics.iterate(op, x, args.steps)
    lines = [json.dumps(record) for record in trajectory.to_records()]
    if args.output:
        _write(args.output, "\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return 0


def cmd_invert(args) -> int:
    from . import inversion

    op = _load_operator(args.operator)
    y = _load_point(args.point)
    try:
        result = inversion.invert(op, y, tol=args.tol, max_iter=args.max_iter)
    except NonConvergence as exc:
        result = inversion.InversionResult(
            preimage=exc.best,
            residual=exc.residual,
            iterations=exc.iterations,
            method=exc.method,
            converged=False,
        )
    _emit({"version": __version__, **result.to_obj()}, args.output)
    return 0 if result.converged else 2


def cmd_builtin(args) -> int:
    if args.name == "example31":
        spec: dict = {"type": "example31"}
        if args.dimension is not None:
            spec["dimension"] = args.dimension
            spec["tensor"] = tensor_to_obj(example31_tensor(args.dimension))
    elif args.name == "example32":
        spec = {"type": "example32"}
    elif args.name == "sine":
        spec = {"type": "sine"}
    else:
        raise MalformedInput(f"unknown builtin {args.name!r}")
    _emit(spec, args.output)
    return 0


def _ranged(convert, accept, requirement: str):
    """An argparse ``type=`` callable that also checks the value's range."""

    def parse(text: str):
        value = convert(text)
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


def _counts(low: int, high: int = sys.maxsize):
    """Counts in [low, high], read by ``simplex._count``."""
    requirement = f"ASCII decimal digits naming an integer in [{low}, {high}]"
    return _ranged(_count, lambda v: low <= v <= high, requirement)


def _floats(accept, requirement: str):
    """Floats that ``accept`` takes, read by ``simplex._number``; argparse
    reports a text that rule refuses as an invalid float value."""

    def number(text: str) -> float:
        value = _number(text)
        if value is None:
            raise ValueError(text)
        return value

    parse = _ranged(number, accept, requirement)
    parse.__name__ = "float"  # argparse names it in "invalid float value"
    return parse


_NONNEGATIVE_INT = _counts(0)
_POSITIVE_INT = _counts(1)
_DIMENSION = _counts(1, MAX_BUILTIN_DIMENSION)
_TOLERANCE = _floats(lambda v: v > 0.0, "> 0")
_MARGIN = _floats(lambda v: 0.0 <= v < math.inf, "finite and >= 0")


class _Formatter(argparse.HelpFormatter):
    """argparse's help layout at the terminal width less 2, as its default,
    without the import of ``shutil`` (and its compression modules) that
    finding the width costs argparse on every parser.  The width is read
    as ``shutil.get_terminal_size`` reads it: COLUMNS, else the size of
    the terminal on stdout, else 80."""

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        if width is None:
            try:
                width = int(os.environ["COLUMNS"])
            except (KeyError, ValueError):
                width = 0
            if width <= 0:
                try:
                    width = os.get_terminal_size(sys.__stdout__.fileno()).columns
                except (AttributeError, ValueError, OSError):
                    width = 0
            width = (width or 80) - 2
        super().__init__(prog, indent_increment, max_help_position, width)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # subcommand parsers are built as _Parser too
        kwargs.setdefault("formatter_class", _Formatter)
        super().__init__(**kwargs)

    def error(self, message):  # malformed command line maps to exit 3
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(3)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="volterra", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, face=False, point=False, sampling=False):
        p.add_argument("--operator", required=True, help="operator spec JSON file")
        if face:
            p.add_argument("--face", required=True, help='face, e.g. "1..5" or "1,3,7"')
        if point:
            p.add_argument("--point", required=True, help="point JSON file")
        if sampling:
            p.add_argument("--samples", type=_POSITIVE_INT, default=1000)
            p.add_argument("--seed", type=_NONNEGATIVE_INT, default=0)
        p.add_argument("--output", default=None, help="write the report here instead of stdout")

    check = sub.add_parser("check", help="sampled validity-condition check on a face")
    common(check, face=True, sampling=True)
    check.add_argument("--margin", type=_MARGIN, default=1e-9)

    pair = sub.add_parser("pair-check", help="sampled pairwise bijectivity condition")
    common(pair, face=True, sampling=True)

    app = sub.add_parser("apply", help="apply the operator to a point")
    common(app, point=True)

    sim = sub.add_parser("simulate", help="iterate the operator, emitting JSONL")
    common(sim, point=True)
    sim.add_argument("--steps", type=_NONNEGATIVE_INT, default=100)

    inv = sub.add_parser("invert", help="find the preimage of a point")
    common(inv, point=True)
    inv.add_argument("--tol", type=_TOLERANCE, default=1e-10)
    inv.add_argument("--max-iter", type=_NONNEGATIVE_INT, default=10_000)

    builtin = sub.add_parser("builtin", help="emit a builtin operator spec")
    builtin.add_argument("--name", required=True)
    builtin.add_argument("--dimension", type=_DIMENSION, default=None)
    builtin.add_argument("--output", default=None)

    return parser


_parser = None  # built on the first call to main, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        try:
            args = _parser.parse_args(argv)
        except SystemExit:
            sys.stdout.flush()  # --help and --version print, then exit
            raise
        # The command's function is looked up when it runs, not when the
        # parser was built, so that a replaced cmd_* function runs.
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away.  As in Python's SIGPIPE recipe, point
        # stdout at devnull so that the flush at exit cannot raise again,
        # and exit as a shell reports a tool that SIGPIPE ended.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, TrajectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
