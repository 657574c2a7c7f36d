"""The public names: everything ``volterra.__all__`` lists exists, is in
``dir(volterra)`` and is bound by a star import; the README's library
overview names only public functions and classes, each in the module its
row names; and the classes that were dataclasses keep their constructors,
and ``FaceSpec`` its value equality."""

import importlib
import re
from pathlib import Path

import pytest

import volterra

README = Path(__file__).resolve().parent.parent / "README.md"


def _overview_rows() -> list[tuple[str, list[str]]]:
    """(module, backticked names) for each row of the overview table."""
    section = README.read_text(encoding="utf-8").split("## Library overview", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            rows.append((cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])))
    return rows


def test_every_exported_name_resolves():
    assert len(volterra.__all__) == len(set(volterra.__all__))
    for name in volterra.__all__:
        assert hasattr(volterra, name), name


def test_readme_overview_names_only_exported_names():
    rows = _overview_rows()
    assert [module for module, _ in rows] == [
        "simplex", "generating", "quadratic", "cubic", "inversion", "dynamics", "cli",
    ]
    for module, names in rows:
        source = importlib.import_module(f"volterra.{module}")
        for name in names:
            assert name in volterra.__all__, f"README lists {name!r}, which volterra does not export"
            assert getattr(source, name) is getattr(volterra, name), f"{name!r} is not in volterra.{module}"


def test_readme_custom_operator_example_gives_its_commented_results():
    """The README's ``python`` block runs as written, and each top-level
    line that ends in a comment evaluates to what the comment shows."""
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    results = [(i, *m.groups()) for i, line in enumerate(lines) if (m := re.fullmatch(r"(\S.*?)\s+# (.+)", line))]
    assert [shown for _, _, shown in results] == ["SparsePoint({1: 0.784, 2: 0.216})", "True"]
    namespace = {}
    exec("\n".join(lines[: results[0][0]]), namespace)
    for _, expression, shown in results:
        assert repr(eval(expression, namespace)) == shown, expression


def test_dir_covers_all():
    assert set(volterra.__all__) <= set(dir(volterra))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from volterra import *", namespace)
    for name in volterra.__all__:
        assert namespace[name] is getattr(volterra, name), name


def test_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError, match="'volterra'.*'no_such_name'"):
        volterra.no_such_name


def test_former_dataclasses_keep_their_constructors():
    from volterra import CubicTensor, FaceSpec, SkewMatrix, VolterraCheck, VolterraOperator

    fn = lambda ks, X: [0.0] * len(ks)  # noqa: E731
    assert FaceSpec(indices=(1, 2)).indices == (1, 2)
    for op in (VolterraOperator(fn, 2, "zero"), VolterraOperator(fn=fn, max_index=2, label="zero")):
        assert (op.fn, op.max_index, op.label) == (fn, 2, "zero")
    assert VolterraOperator(fn).max_index is None
    assert VolterraOperator(fn).label == "operator"
    rows = {(1, 1, 1): {1: 1.0}}
    for tensor in (CubicTensor(rows, 1), CubicTensor(coefficients=rows, dimension=1)):
        assert (tensor.coefficients, tensor.dimension) == (rows, 1)
    offender = ((1, 1, 2), 3, 0.5)
    assert VolterraCheck(True).offender is None and VolterraCheck(True)
    for check in (VolterraCheck(False, offender), VolterraCheck(ok=False, offender=offender)):
        assert not check and check.offender == offender
    entries = {(1, 2): 0.5}
    for matrix in (SkewMatrix(entries, 2), SkewMatrix(entries=entries, dimension=2)):
        assert (matrix.entries, matrix.dimension) == (entries, 2)
        assert matrix == SkewMatrix({(1, 2): 0.5}, 2)
        assert matrix != SkewMatrix(entries, 3) and matrix != SkewMatrix({(1, 2): -0.5}, 2)
        assert matrix != (entries, 2)
        with pytest.raises(TypeError):
            hash(matrix)
        with pytest.raises(AttributeError):
            matrix.extra = 1


def test_face_equality_and_hashing():
    from volterra import FaceSpec

    assert FaceSpec((1, 3)) == FaceSpec.of([3, 1]) == FaceSpec.parse("1,3")
    assert FaceSpec((1, 3)) != FaceSpec((1, 2))
    assert FaceSpec((1,)) != (1,)
    assert len({FaceSpec((1, 3)), FaceSpec.of([1, 3]), FaceSpec.prefix(3)}) == 2
    assert {FaceSpec.prefix(2): "edge"}[FaceSpec((1, 2))] == "edge"
    for bad in ((), (0, 1), (2, 1), (1, 1), (True, 2), (1.5, 2), ("1", 2), (1, 2.0, 2)):
        with pytest.raises(ValueError):
            FaceSpec(bad)
    for bad in ([1.5], [True], ["1"]):
        with pytest.raises(ValueError):
            FaceSpec.of(bad)
    assert FaceSpec((1.0, 2.0)).indices == (1, 2)
