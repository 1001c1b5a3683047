"""Rules the package source keeps: no check lives only in an ``assert``
(``python -O`` strips it), and only the command-line runner prints."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "ctrlrom"
SOURCES = sorted(PACKAGE.rglob("*.py"))


def test_sources_found():
    assert PACKAGE / "cli.py" in SOURCES and PACKAGE / "experiment.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_assert_and_no_print_outside_cli(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"line {node.lineno}: assert" for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    if path.name != "cli.py":
        found += [f"line {node.lineno}: print" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "print"]
    assert found == []
