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


def _owners(tree: ast.AST) -> dict[ast.AST, str]:
    """Each node mapped to the dotted name of the class/function around it."""
    owner: dict[ast.AST, str] = {}

    def visit(node: ast.AST, name: str):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{name}.{child.name}" if name else child.name
            owner[child] = inner
            visit(child, inner)

    visit(tree, "")
    return owner


def test_separation_reads_families_only_to_check_them():
    # the report reads every flag off the specialization order; the
    # variety masks are read once to check that each Ker(x) is open, and
    # cross_check's sides (_Sides) read them for the definitional side.
    # No frozenset family or variety of a space is read at all.  The
    # lattice is read only for the prime meets and by cross_check.
    path = Path(xtoplat.__file__).parent / "separation.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = _owners(tree)

    def outside(node, *allowed):
        name = owner[node]
        return not any(name == a or name.startswith(a + ".") for a in allowed)

    family_reads = [
        f"{owner[node]}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("open_family", "closed_family", "varieties")
    ]
    radical_calls = [
        f"{owner[node]}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and node.id in ("radical_info", "_radical_info")
        and outside(node, "_Sides")
    ]
    lattice_reads = [
        f"{owner[node]}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "lattice"
        and not outside(node, "_report", "_points", "_Analysis")
        and outside(node, "_Analysis.prime_meets")
    ]
    assert family_reads == [] and radical_calls == [] and lattice_reads == []


def test_only_the_printers_read_the_frozenset_views():
    # a space stores its variety masks; the frozenset views are built for
    # the commands that print them, and the other modules read the masks
    views = {"varieties", "closed_family", "open_family"}
    found = []
    for path in sorted(Path(xtoplat.__file__).parent.glob("*.py")):
        if path.name in ("cli.py", "formats.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in views
        ]
    assert found == []


def test_cross_check_sides_are_masks():
    # _Sides holds every point set as a mask over lattice indices, like
    # the space's variety_masks: it builds no frozenset and reads neither
    # SpecialSets nor a frozenset view of a mask
    path = Path(xtoplat.__file__).parent / "separation.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = _owners(tree)
    sides = [
        node
        for node in ast.walk(tree)
        if owner.get(node) == "_Sides" or owner.get(node, "").startswith("_Sides.")
    ]
    found = [
        f"{owner[node]}:{node.lineno}"
        for node in sides
        if isinstance(node, ast.Name)
        and node.id in ("frozenset", "special_sets", "SpecialSets")
        or isinstance(node, ast.Attribute)
        and node.attr in ("special", "unmask")
    ]
    assert sides and found == []
