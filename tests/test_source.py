"""Properties of the library source itself."""

import ast
from pathlib import Path

import xtoplat


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a guard written as one
    # silently stops guarding; the library raises explicit errors instead
    found = []
    for path in sorted(Path(xtoplat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_only_the_order_modules_reach_into_order_rows():
    # `._up`, `._down` and `._check` belong to FinitePoset; reaching them
    # through a lattice's `poset` builds the lattice's whole order, so
    # every other module asks the lattice itself
    private = {"_up", "_down", "_check"}
    found = []
    for path in sorted(Path(xtoplat.__file__).parent.glob("*.py")):
        if path.name in ("poset.py", "lattice.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in private
        ]
    assert found == []
