import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from volterra import __version__, cli
from volterra.cli import main
from volterra.simplex import MAX_FACE_SIZE
from helpers import rand_skew_triples

import numpy as np


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def ex31_spec(tmp_path):
    return write_json(tmp_path / "ex31.json", {"type": "example31"})


@pytest.fixture
def ex32_spec(tmp_path):
    return write_json(tmp_path / "ex32.json", {"type": "example32"})


@pytest.fixture
def sine_spec(tmp_path):
    return write_json(tmp_path / "sine.json", {"type": "sine"})


@pytest.fixture
def skew_spec(tmp_path):
    triples = rand_skew_triples(np.random.default_rng(0), 4)
    return write_json(tmp_path / "skew.json", {"type": "quadratic", "matrix": triples})


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]


#: Count texts that int() reads but that are no ASCII decimal digits.
NEAR_COUNTS = ["1_0", "+1", " 2", "\u0663", " \u0663"]
#: Float texts that float() reads but that are no ASCII number without "_" or spaces.
NEAR_FLOATS = ["1_0", "0.2_5", " 0.5", "0.5 ", "\u0663", "0.\u0665"]
#: The range of each count option, as its error states it.
COUNT_RANGES = {
    "--steps": f"[0, {sys.maxsize}]",
    "--seed": f"[0, {sys.maxsize}]",
    "--samples": f"[1, {sys.maxsize}]",
    "--max-iter": f"[0, {sys.maxsize}]",
    "--dimension": f"[1, {cli.MAX_BUILTIN_DIMENSION}]",
}


def test_builtin_example31_with_dimension(capsys):
    code, out = run(capsys, ["builtin", "--name", "example31", "--dimension", "3"])
    assert code == 0
    spec = json.loads(out)
    assert spec["type"] == "example31" and spec["dimension"] == 3
    rows = {tuple(entry["triple"]): entry["outputs"] for entry in spec["tensor"]}
    assert rows[(1, 2, 3)]["1"] == pytest.approx(1.0 / 3.0)
    assert rows[(1, 2, 2)] == {"2": 1.0}
    assert rows[(1, 1, 2)] == {"1": 1.0}


def test_builtin_names(capsys):
    for name in ("example31", "example32", "sine"):
        code, out = run(capsys, ["builtin", "--name", name])
        assert code == 0
        assert json.loads(out)["type"] == name
    code, _ = run(capsys, ["builtin", "--name", "nope"])
    assert code == 3


def test_check_example31_passes(capsys, ex31_spec):
    code, out = run(
        capsys,
        ["check", "--operator", ex31_spec, "--face", "1..5", "--samples", "300"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "check"
    assert report["version"] == __version__
    assert report["seed"] == 0
    assert report["all_passed"] is True


def test_check_sine_fails_strict_condition(capsys, sine_spec):
    code, out = run(
        capsys,
        ["check", "--operator", sine_spec, "--face", "1,2", "--samples", "200"],
    )
    assert code == 1
    report = json.loads(out)
    verdicts = {c["condition"]: c for c in report["conditions"]}
    strict = verdicts["interior_strict_bound"]
    assert strict["passed"] is False
    assert strict["witness"]["1"] == pytest.approx(0.5, abs=1e-9)


def test_check_rejects_non_skew_matrix(capsys, tmp_path):
    spec = write_json(
        tmp_path / "bad.json",
        {"type": "quadratic", "matrix": [[1, 2, 0.5], [2, 1, 0.5]]},
    )
    code, _ = run(capsys, ["check", "--operator", spec, "--face", "1,2"])
    assert code == 1


def test_pair_check_outcomes(capsys, ex31_spec, ex32_spec, skew_spec):
    code, _ = run(
        capsys,
        ["pair-check", "--operator", ex31_spec, "--face", "1..6", "--samples", "200"],
    )
    assert code == 0

    code, out = run(
        capsys,
        ["pair-check", "--operator", ex32_spec, "--face", "1,2", "--samples", "100"],
    )
    assert code == 1
    report = json.loads(out)
    assert report["max_value"] == 1.0
    witness = report["witness"]
    assert {tuple(witness["x"]), tuple(witness["y"])} == {("1",), ("2",)}

    code, _ = run(
        capsys,
        ["pair-check", "--operator", skew_spec, "--face", "1..4", "--samples", "200"],
    )
    assert code == 0


def test_apply_command(capsys, ex32_spec, tmp_path):
    point = write_json(tmp_path / "p.json", {"1": 0.5, "2": 0.5})
    out_file = tmp_path / "image.json"
    code, _ = run(
        capsys,
        ["apply", "--operator", ex32_spec, "--point", point, "--output", str(out_file)],
    )
    assert code == 0
    image = json.loads(out_file.read_text())
    assert image == {"1": 0.125, "2": 0.875}


def test_simulate_constant_trajectory(capsys, ex31_spec, tmp_path):
    point = write_json(tmp_path / "p.json", {"1": 1.0})
    code, out = run(
        capsys,
        ["simulate", "--operator", ex31_spec, "--point", point, "--steps", "20"],
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[0] == {"t": 0, "x": {"1": 1.0}}
    assert all(r["x"] == {"1": 1.0} for r in records)
    assert len(records) == 11  # converges after ten quiet steps


def test_invert_selects_triangular_for_example32(capsys, ex32_spec, tmp_path):
    point = write_json(tmp_path / "y.json", {"1": 0.125, "2": 0.875})
    code, out = run(capsys, ["invert", "--operator", ex32_spec, "--point", point])
    assert code == 0
    result = json.loads(out)
    assert result["method"] == "triangular"
    assert result["converged"] is True
    assert result["preimage"]["1"] == pytest.approx(0.5, abs=1e-9)


def test_invert_fixed_point_for_quadratic(capsys, tmp_path):
    spec = write_json(
        tmp_path / "q.json", {"type": "quadratic", "matrix": [[1, 2, 1.0]]}
    )
    point = write_json(tmp_path / "y.json", {"1": 0.75, "2": 0.25})
    code, out = run(capsys, ["invert", "--operator", spec, "--point", point])
    assert code == 0
    result = json.loads(out)
    assert result["method"] == "fixed_point"
    assert result["preimage"]["1"] == pytest.approx(0.5, abs=1e-6)


def test_invert_non_convergence_exit_code(capsys, tmp_path):
    spec = write_json(
        tmp_path / "q.json", {"type": "quadratic", "matrix": [[1, 2, 1.0]]}
    )
    point = write_json(tmp_path / "y.json", {"1": 0.75, "2": 0.25})
    code, out = run(
        capsys,
        [
            "invert",
            "--operator", spec,
            "--point", point,
            "--tol", "1e-18",
            "--max-iter", "2",
        ],
    )
    assert code == 2
    result = json.loads(out)
    assert result["converged"] is False
    assert result["residual"] > 0
    assert result["method"] == "fixed_point"


def test_invert_reports_the_method_that_ran(capsys, tmp_path):
    # The route comes from the operator's structure: example32 mixed with
    # itself is still triangular, example31 and its mixes with example32
    # take the scalar root, and a composition inverts stage by stage, also
    # when a sweeping stage misses.
    x = write_json(tmp_path / "x.json", {"1": 0.025, "2": 0.4, "3": 0.575})
    twice = {"type": "convex", "operators": [{"type": "example32"}, {"type": "example32"}], "lambda": 0.5}
    mixed = {"type": "convex", "operators": [{"type": "example31"}, {"type": "example32"}], "lambda": 0.5}
    composed = {"type": "compose", "operators": [{"type": "example31"}, {"type": "example32"}]}
    sweeping = {"type": "compose", "operators": [
        {"type": "quadratic", "matrix": [[1, 2, 0.5], [2, 3, -0.7]]}, {"type": "example32"}]}
    for name, spec, extra, code_wanted, method, converged in (
        ("twice", twice, [], 0, "triangular", True),
        ("example31", {"type": "example31"}, [], 0, "scalar", True),
        ("mixed", mixed, [], 0, "scalar", True),
        ("composed", composed, ["--max-iter", "0"], 0, "staged", True),
        ("short", sweeping, ["--max-iter", "2"], 2, "staged", False),
    ):
        spec = write_json(tmp_path / f"{name}.json", spec)
        code, out = run(capsys, ["apply", "--operator", spec, "--point", x])
        assert code == 0
        point = write_json(tmp_path / f"{name}_y.json", json.loads(out))
        code, out = run(capsys, ["invert", "--operator", spec, "--point", point, *extra])
        assert code == code_wanted, name
        result = json.loads(out)
        assert (result["method"], result["converged"]) == (method, converged), name
        assert (result["residual"] <= 1e-10) is converged, name


@pytest.mark.parametrize("name, point, method", [
    ("example31", {"1": 0.2, "2": 0.3, "3": 0.5}, "scalar"),
    ("example32", {"1": 0.3, "2": 0.7}, "triangular"),
])
def test_structured_miss_exits_two(capsys, tmp_path, name, point, method):
    # No root meets a tolerance below the rounding of the forward image:
    # the structured solve runs no sweep and reports the point it found.
    spec = write_json(tmp_path / "op.json", {"type": name})
    y = write_json(tmp_path / "y.json", point)
    code, out = run(capsys, ["invert", "--operator", spec, "--point", y, "--tol", "1e-30"])
    assert code == 2
    result = json.loads(out)
    assert (result["converged"], result["method"], result["iterations"]) == (False, method, 0)
    assert result["residual"] > 1e-30 and set(result["preimage"]) == set(point)


def test_compose_and_convex_specs(capsys, tmp_path):
    spec = write_json(
        tmp_path / "c.json",
        {
            "type": "convex",
            "operators": [{"type": "example31"}, {"type": "example31"}],
            "lambda": 0.5,
        },
    )
    code, _ = run(capsys, ["check", "--operator", spec, "--face", "1..3", "--samples", "100"])
    assert code == 0
    spec = write_json(
        tmp_path / "k.json",
        {"type": "compose", "operators": [{"type": "example31"}, {"type": "example32"}]},
    )
    point = write_json(tmp_path / "p.json", {"1": 0.5, "2": 0.5})
    code, out = run(capsys, ["apply", "--operator", spec, "--point", point])
    assert code == 0
    image = json.loads(out)
    assert image["2"] > image["1"]


def _nested_spec(tag, levels):
    """example31 inside ``levels`` compose or convex levels."""
    spec = {"type": "example31"}
    for _ in range(levels):
        if tag == "compose":
            spec = {"type": "compose", "operators": [{"type": "example31"}, spec]}
        else:
            spec = {"type": "convex", "operators": [spec, {"type": "example31"}], "lambda": 0.5}
    return spec


@pytest.mark.parametrize("tag", ["compose", "convex"])
def test_nesting_is_bounded(capsys, tmp_path, tag):
    """At the bound every command ends with its own exit code; one level
    past it the spec is malformed, before any evaluation recurses."""
    point = write_json(tmp_path / "p.json", {"1": 0.5, "2": 0.3, "3": 0.2})
    at = write_json(tmp_path / "at.json", _nested_spec(tag, cli.MAX_NESTING))
    past = write_json(tmp_path / "past.json", _nested_spec(tag, cli.MAX_NESTING + 1))
    commands = [
        ["apply", "--point", point],
        ["check", "--face", "1,2", "--samples", "5"],
        ["simulate", "--point", point, "--steps", "3"],
        ["invert", "--point", point],
    ]
    for command, *rest in commands:
        assert main([command, "--operator", at, *rest]) in (0, 1, 2), command
        capsys.readouterr()
        assert main([command, "--operator", past, *rest]) == 3, command
        assert error_lines(capsys) == [
            f"error: bad operator spec: operator nests more than {cli.MAX_NESTING} compose and convex levels"
        ]


def test_operator_dimension_above_face_bound_applies(capsys, tmp_path):
    spec = write_json(tmp_path / "big.json", {"type": "example31", "dimension": 20_000})
    point = write_json(tmp_path / "p.json", {"1": 0.5, "20000": 0.5})
    code, out = run(capsys, ["apply", "--operator", spec, "--point", point])
    assert code == 0
    assert set(json.loads(out)) == {"1", "20000"}


def test_operator_dimension_up_to_sys_maxsize_applies(capsys, tmp_path):
    # The declared domain 1..n is held as n: neither building the
    # operator nor checking a point against it grows with n.
    spec = write_json(tmp_path / "huge.json", {"type": "example31", "dimension": sys.maxsize})
    indices = [*range(1, 1000), sys.maxsize]
    point = write_json(tmp_path / "p.json", {str(k): 0.001 for k in indices})
    code, out = run(capsys, ["apply", "--operator", spec, "--point", point])
    assert code == 0
    assert [int(k) for k in json.loads(out)] == indices


def test_malformed_inputs_exit_three(capsys, tmp_path, ex31_spec):
    code, _ = run(capsys, ["check", "--operator", str(tmp_path / "missing.json"), "--face", "1,2"])
    assert code == 3

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, ["check", "--operator", str(bad), "--face", "1,2"])
    assert code == 3

    unknown = write_json(tmp_path / "unknown.json", {"type": "mystery"})
    code, _ = run(capsys, ["check", "--operator", unknown, "--face", "1,2"])
    assert code == 3

    for face in ("zap", "1_0,2", "+1,2", "\u0663"):
        code, _ = run(capsys, ["check", "--operator", ex31_spec, "--face", face])
        assert code == 3, face

    negative = write_json(tmp_path / "neg.json", {"1": -0.5, "2": 1.5})
    code, _ = run(capsys, ["apply", "--operator", ex31_spec, "--point", negative])
    assert code == 3

    point = write_json(tmp_path / "point.json", {"1": 0.5, "2": 0.5})
    out_of_range = [
        ["simulate", "--operator", ex31_spec, "--point", point, "--steps", "-1"],
        ["check", "--operator", ex31_spec, "--face", "1,2", "--samples", "0"],
        ["check", "--operator", ex31_spec, "--face", "1,2", "--seed", "-1"],
        ["invert", "--operator", ex31_spec, "--point", point, "--tol", "0"],
        ["builtin", "--name", "example31", "--dimension", "0"],
        ["builtin", "--name", "example31", "--dimension", str(cli.MAX_BUILTIN_DIMENSION + 1)],
        ["check", "--operator", ex31_spec, "--face", "1,2", "--margin", "nan"],
        ["check", "--operator", ex31_spec, "--face", "1,2", "--margin", "-1"],
        ["check", "--operator", ex31_spec, "--face", "1,2", "--margin", "inf"],
        ["invert", "--operator", ex31_spec, "--point", point, "--max-iter", "-1"],
    ]
    for argv in out_of_range:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 3, argv

    # A count is ASCII decimal digits: int() would read each of these texts.
    counts = {
        "--steps": ["simulate", "--operator", ex31_spec, "--point", point],
        "--seed": ["check", "--operator", ex31_spec, "--face", "1,2"],
        "--samples": ["check", "--operator", ex31_spec, "--face", "1,2"],
        "--max-iter": ["invert", "--operator", ex31_spec, "--point", point],
        "--dimension": ["builtin", "--name", "example31"],
    }
    capsys.readouterr()
    for option, argv in counts.items():
        for text in NEAR_COUNTS:
            with pytest.raises(SystemExit) as info:
                main([*argv, f"{option}={text}"])
            assert info.value.code == 3, (option, text)
            assert error_lines(capsys) == [f"error: argument {option}: must be ASCII decimal digits naming "
                                           f"an integer in {COUNT_RANGES[option]}, got {text!r}"]

    # A float option is what float() reads, in ASCII, with no "_" and no
    # surrounding whitespace: float() alone would read each of these texts.
    floats = {
        "--tol": ["invert", "--operator", ex31_spec, "--point", point],
        "--margin": ["check", "--operator", ex31_spec, "--face", "1,2"],
    }
    for option, argv in floats.items():
        for text in NEAR_FLOATS:
            with pytest.raises(SystemExit) as info:
                main([*argv, f"{option}={text}"])
            assert info.value.code == 3, (option, text)
            assert error_lines(capsys) == [f"error: argument {option}: invalid float value: {text!r}"]

    # 100,001 samples on 100 indices exceed the 10,000,000-mass budget.
    for command in ("check", "pair-check"):
        argv = [command, "--operator", ex31_spec, "--face", "1..100", "--samples", "100001"]
        assert main(argv) == 3, argv
        assert "at most 10000000 are allowed" in capsys.readouterr().err


_CONVEX = {"type": "convex", "operators": [{"type": "example31"}] * 2}
#: name -> (the file it goes in, its content): each is no number where one belongs.
NON_NUMBERS = {
    "string masses": ("--point", {"1": "0.25", "2": "0.75"}),
    "bool mass": ("--point", {"1": True}),
    "mass beyond the float range": ("--point", {"1": 10**400, "2": 0.5}),
    "fractional dimension": ("--operator", {"type": "example31", "dimension": 1.5}),
    "bool dimension": ("--operator", {"type": "example31", "dimension": True}),
    "string lambda": ("--operator", {**_CONVEX, "lambda": "0.5"}),
    "bool lambda": ("--operator", {**_CONVEX, "lambda": False}),
    "fractional index": ("--operator", {"type": "quadratic", "matrix": [[1.7, 2, 0.5]]}),
    "index beyond sys.maxsize": ("--operator", {"type": "quadratic", "matrix": [[1, 1e20, 0.5]]}),
    "bool index": ("--operator", {"type": "quadratic", "matrix": [[True, 2, 0.5]]}),
    "string index": ("--operator", {"type": "quadratic", "matrix": [["1", 2, 0.5]]}),
    "string value": ("--operator", {"type": "quadratic", "matrix": [[1, 2, "0.5"]]}),
    "bool value": ("--operator", {"type": "quadratic", "matrix": [[1, 2, True]]}),
    "fractional triple index": ("--operator", {"type": "cubic_tensor", "triples": [
        {"triple": [1, 1.9, 2], "outputs": {"1": 1.0}}]}),
    "string coefficient": ("--operator", {"type": "cubic_tensor", "triples": [
        {"triple": [1, 1, 1], "outputs": {"1": "1.0"}}]}),
    "bool coefficient": ("--operator", {"type": "cubic_tensor", "triples": [
        {"triple": [1, 1, 1], "outputs": {"1": True}}]}),
    "outputs no object": ("--operator", {"type": "cubic_tensor", "triples": [
        {"triple": [1, 1, 1], "outputs": [1.0]}]}),
    "two-index triple": ("--operator", {"type": "cubic_tensor", "triples": [
        {"triple": [1, 1], "outputs": {"1": 1.0}}]}),
    "four-index triple": ("--operator", {"type": "cubic_tensor", "triples": [
        {"triple": [1, 1, 2, 2], "outputs": {"1": 1.0}}]}),
    "underscored point key": ("--point", {"1_0": 0.5, " 2 ": 0.5}),
    "signed point key": ("--point", {"+3": 0.5, "2": 0.5}),
    "non-ASCII point key": ("--point", {"\u0663": 0.5, "2": 0.5}),
}


@pytest.mark.parametrize("name", list(NON_NUMBERS))
def test_non_numbers_exit_three(capsys, tmp_path, ex31_spec, name):
    flag, payload = NON_NUMBERS[name]
    files = {
        "--operator": ex31_spec,
        "--point": write_json(tmp_path / "point.json", {"1": 0.5, "2": 0.5}),
    }
    files[flag] = write_json(tmp_path / "input.json", payload)
    code = main(["apply", "--operator", files["--operator"], "--point", files["--point"]])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_integral_float_indices_apply(capsys, tmp_path):
    point = write_json(tmp_path / "point.json", {"1": 0.5, "2": 0.5})
    outputs = []
    for first in (1, 1.0):
        spec = write_json(tmp_path / "op.json", {"type": "quadratic", "matrix": [[first, 2.0, 0.5]]})
        code, out = run(capsys, ["apply", "--operator", spec, "--point", point])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == {"1": 0.625, "2": 0.375}
    images = []
    for dimension in (2, 2.0):
        spec = write_json(tmp_path / "op.json", {"type": "example31", "dimension": dimension})
        code, out = run(capsys, ["apply", "--operator", spec, "--point", point])
        assert code == 0
        images.append(out)
    assert images[0] == images[1]


def test_sample_budget_admits_default_samples_on_largest_face(capsys, monkeypatch, ex31_spec):
    seen = []

    def fake_check(op, face, samples, seed, **kwargs):
        seen.append((len(face), samples))
        return SimpleNamespace(to_obj=dict, passed=True, all_passed=True)

    monkeypatch.setattr(cli, "check_conditions", fake_check)
    monkeypatch.setattr(cli, "check_pair_condition", fake_check)
    largest = f"1..{MAX_FACE_SIZE}"
    for command in ("check", "pair-check"):
        code, _ = run(capsys, [command, "--operator", ex31_spec, "--face", largest])
        assert code == 0
        code, _ = run(capsys, [command, "--operator", ex31_spec, "--face", largest, "--samples", "1001"])
        assert code == 3
    assert seen == [(MAX_FACE_SIZE, 1000)] * 2


def test_non_finite_inputs(capsys, tmp_path, ex31_spec):
    nan_point = tmp_path / "nan_point.json"
    nan_point.write_text('{"1": NaN, "2": 1.0}')
    code, _ = run(capsys, ["apply", "--operator", ex31_spec, "--point", str(nan_point)])
    assert code == 3

    point = write_json(tmp_path / "point.json", {"1": 0.5, "2": 0.5})
    for name, spec in [
        ("matrix", '{"type": "quadratic", "matrix": [[1, 2, NaN]]}'),
        ("tensor", '{"type": "cubic_tensor", "triples": '
                   '[{"triple": [1, 1, 2], "outputs": {"1": NaN, "2": 1.0}}]}'),
    ]:
        path = tmp_path / f"nan_{name}.json"
        path.write_text(spec)
        code, _ = run(capsys, ["apply", "--operator", str(path), "--point", point])
        assert code == 1, name


def test_missing_required_flag_exits_three(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "--face", "1,2"])
    assert info.value.code == 3


def test_seed_is_the_option_or_zero(capsys, ex31_spec, monkeypatch):
    """The seed comes from --seed alone; the environment plays no part."""
    argv = ["check", "--operator", ex31_spec, "--face", "1,2", "--samples", "50"]
    for text in ("7", "1_0"):
        monkeypatch.setenv("VOLTERRA_SEED", text)
        code, out = run(capsys, argv)
        assert code == 0, text
        assert json.loads(out)["seed"] == 0
        assert out == run(capsys, argv + ["--seed", "0"])[1]
        code, out = run(capsys, argv + ["--seed", "3"])
        assert (code, json.loads(out)["seed"]) == (0, 3)


def test_damping_is_no_option(capsys, ex31_spec, tmp_path):
    point = write_json(tmp_path / "point.json", {"1": 0.5, "2": 0.5})
    with pytest.raises(SystemExit) as info:
        main(["invert", "--operator", ex31_spec, "--point", point, "--damping", "0.5"])
    assert info.value.code == 3
    assert error_lines(capsys) == ["error: unrecognized arguments: --damping 0.5"]


def test_main_calls_are_independent(capsys, tmp_path, ex31_spec):
    """The parser is built once per process; each call still parses its
    own arguments, and an option it leaves out takes its default."""
    argv = ["check", "--operator", ex31_spec, "--face", "1,2", "--samples", "20"]
    code, first = run(capsys, argv + ["--seed", "11"])
    assert code == 0
    code, second = run(capsys, argv + ["--seed", "12", "--margin", "1e-6"])
    assert code == 0
    first, second = json.loads(first), json.loads(second)
    assert (first["seed"], second["seed"]) == (11, 12)
    assert (first["margin"], second["margin"]) == (1e-9, 1e-6)
    assert first["conditions"] != second["conditions"]
    # The first call's report does not change with what came after it.
    assert json.loads(run(capsys, argv + ["--seed", "11"])[1]) == first
    code, third = run(capsys, argv)
    assert (code, json.loads(third)["seed"], json.loads(third)["margin"]) == (0, 0, 1e-9)
    point = write_json(tmp_path / "point.json", {"1": 0.5, "2": 0.5})
    code, out = run(capsys, ["apply", "--operator", ex31_spec, "--point", point])
    assert (code, json.loads(out)) == (0, {"1": 0.5, "2": 0.5})


def test_oversized_face_exits_three_at_once(capsys, ex31_spec):
    code, _ = run(capsys, ["check", "--operator", ex31_spec, "--face", "1..1000000000"])
    assert code == 3
    code, _ = run(capsys, ["pair-check", "--operator", ex31_spec, "--face", "1..1000000000"])
    assert code == 3


def test_empty_tensor_exits_three_naming_it(capsys, tmp_path):
    spec = write_json(tmp_path / "empty.json", {"type": "cubic_tensor", "triples": []})
    point = write_json(tmp_path / "p.json", {"1": 1.0})
    assert main(["apply", "--operator", spec, "--point", point]) == 3
    (line,) = error_lines(capsys)
    assert "tensor is empty" in line and "max_index" not in line


@pytest.mark.parametrize("face", ["1..256", "1..300"])
def test_wide_face_pair_check_keeps_the_vertex_witness(capsys, ex32_spec, face):
    # Up to 256 indices the vertices share the y samples' block; a wider
    # face's vertex pairs go in pieces of their own.  Either way example32
    # fails the pairwise condition first at (e1, e2), with value 1.
    code, out = run(capsys, ["pair-check", "--operator", ex32_spec, "--face", face, "--samples", "50"])
    assert code == 1
    report = json.loads(out)
    assert report["max_value"] == 1.0
    assert report["witness"] == {"x": {"1": 1.0}, "y": {"2": 1.0}}


def test_wide_face_check_finds_the_lower_bound_at_e2(capsys, ex32_spec):
    # A face of 300 indices has its vertices evaluated in pieces.
    # example32's f_1 = x_1^2 - 1 is -1 at every vertex but e1, so the
    # lower bound f_k >= -1 holds with equality first at e2.
    code, out = run(capsys, ["check", "--operator", ex32_spec, "--face", "1..300", "--samples", "50"])
    assert code == 0
    lower = json.loads(out)["conditions"][1]
    assert (lower["condition"], lower["worst_value"], lower["witness"]) == ("mass_lower_bound", -1.0, {"2": 1.0})


def test_domain_violation_messages(capsys, tmp_path, sine_spec):
    three = write_json(tmp_path / "three.json", {"1": 0.25, "2": 0.25, "3": 0.5})
    assert main(["apply", "--operator", sine_spec, "--point", three]) == 1
    assert capsys.readouterr().err == (
        "error: point support of size 3 has index 3 outside the declared domain 1..2 of operator 'sine'\n"
    )
    assert main(["check", "--operator", sine_spec, "--face", "1..3,7"]) == 1
    assert capsys.readouterr().err == (
        "error: face of size 4 has index 3 outside the declared domain 1..2 of operator 'sine'\n"
    )
    # The line names the support's size, not its indices, so it stays short.
    spec = write_json(tmp_path / "ex31.json", {"type": "example31", "dimension": 5})
    wide = write_json(tmp_path / "wide.json", {str(k): 0.001 for k in range(1, 1001)})
    assert main(["apply", "--operator", spec, "--point", wide]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: point support of size 1000 has index 6 outside the declared domain 1..5 of operator 'example31'\n"
    )
    assert len(err.encode()) < 200


@pytest.mark.parametrize("command", ["apply", "simulate", "check"])
def test_unwritable_output_exits_three(capsys, tmp_path, ex31_spec, command):
    point = write_json(tmp_path / "point.json", {"1": 0.5, "2": 0.5})
    target = tmp_path / "missing" / "out.json"
    rest = {
        "apply": ["--point", point],
        "simulate": ["--point", point, "--steps", "3"],
        "check": ["--face", "1,2", "--samples", "10"],
    }[command]
    code = main([command, "--operator", ex31_spec, *rest, "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1
    assert not target.parent.exists()


@pytest.mark.parametrize("case", ["short", "passing check", "long", "version", "help"])
def test_closed_stdout_exits_141_quietly(ex31_spec, case):
    argv = {  # short reports fail at main's flush, a long one in print
        "short": ["builtin", "--name", "example32"],
        "passing check": ["check", "--operator", ex31_spec, "--face", "1..5"],
        "long": ["builtin", "--name", "example31", "--dimension", "10"],
        # argparse prints these, then exits from inside parse_args
        "version": ["--version"],
        "help": ["check", "--help"],
    }[case]
    # Buffered, as a pipe is by default, so that a short report fails only
    # when main flushes it.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        done = subprocess.run(
            [sys.executable, "-m", "volterra", *argv],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


@pytest.mark.parametrize("columns", ["40", "123", "0", "junk", None])
def test_help_wraps_as_argparse_would(monkeypatch, columns):
    """The CLI's formatter reads the width without ``shutil`` and lays out
    every help text as argparse's default formatter does."""
    import argparse

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)

    def helps(parser):
        return [parser.format_help(), parser.format_usage(),
                *(sub.format_help() for sub in parser._subparsers._group_actions[0].choices.values())]

    ours = helps(cli.build_parser())
    monkeypatch.setattr(cli, "_Formatter", argparse.HelpFormatter)
    assert helps(cli.build_parser()) == ours
