"""Rules the package source keeps: no check lives only in an ``assert``
(``python -O`` strips it), only the command-line runner prints, and a rule
that one function owns is read by that function alone."""

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


def _functions_reading(tree, name):
    """The innermost functions (``None`` at module level) that read ``name``
    as a variable or an attribute."""
    readers = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == name):
            readers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return readers


def _package_readers(name):
    """``file:function`` of every function in the package that reads ``name``."""
    return [f"{path.relative_to(PACKAGE)}:{owner}" for path in SOURCES
            for owner in _functions_reading(ast.parse(path.read_text(encoding="utf-8")), name)]


def test_one_function_steps_through_time():
    # the chunk size is read where the chunk loop is: a second reader would
    # be a second copy of the stepping loop
    readers = _package_readers("_CHUNK")
    assert len(readers) == 1, readers


def test_one_function_resolves_the_config():
    # the family defaults are layered under the file and the flags where a
    # run's settings are resolved: a second reader would be a second resolver
    assert _package_readers("default_config") == ["experiment.py:load_config"]


def test_one_exact_solve_path():
    # the online exact tier and the greedy's snapshots both solve through
    # the preconditioned CG of solve_exact: a second reader would be a
    # second exact-solve route
    assert _package_readers("cg_solve") == ["exact_solver.py:solve_exact"]


def test_one_function_certifies_a_reduced_answer():
    # the g-rom and every surrogate take their estimate from the one
    # residual: a second reader would be a second certificate route
    assert _package_readers("error_estimator") == ["greedy_rom.py:reduced_solution"]
