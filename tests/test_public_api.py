"""The public names: everything ``volterra.__all__`` lists exists, and the
README's library overview names only public functions and classes, each
in the module its row names."""

import importlib
import re
from pathlib import Path

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
