"""Properties of the library source itself."""

import ast
import re
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


def test_the_library_meets_only_masks_it_checked():
    # FiniteLattice.meet_all checks its mask for a caller; every meet the
    # library takes itself is of a mask it built or checked at its own
    # boundary, so it reads the unchecked _meet_all, and a mask is
    # checked once
    found = []
    for path in sorted(Path(xtoplat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "meet_all"
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
    # lattice is read only by cross_check.
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
    ]
    assert family_reads == [] and radical_calls == [] and lattice_reads == []


def test_only_the_printers_read_the_frozenset_views():
    # a space stores its variety masks; the closed family, those masks
    # deduplicated and sorted, is built only for the commands that print
    # it, and the other modules read the masks themselves
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


def test_one_table_each_for_the_printed_flags_and_point_columns():
    # separation.REPORT_FLAGS and POINT_COLUMNS say which read of the order
    # each printed flag and point column takes and the order they print
    # in; the report, the point rows and the CLI's text are built from them
    from xtoplat import chain, cli, separation_report
    from xtoplat.separation import (
        POINT_COLUMNS,
        REPORT_FLAGS,
        PointClassification,
        _Analysis,
        _flag_reads,
    )

    report = separation_report(chain(1))
    flags = [name for name, _ in REPORT_FLAGS]
    booleans = [name for name, value in report._asdict().items() if isinstance(value, bool)]
    assert len(set(flags)) == len(flags) and sorted(flags) == sorted(booleans)
    assert [field for field, _, _ in POINT_COLUMNS] == list(PointClassification._fields[1:])
    a = _Analysis(chain(2))
    assert {read for _, read in REPORT_FLAGS} == set(_flag_reads(a))
    masks = {mask for _, _, mask in POINT_COLUMNS}
    assert masks == {"max_mask", "min_mask", "ro_mask", "excl_mask", "full"}
    assert all(isinstance(getattr(a, mask), int) for mask in masks)
    # no module-level binding of the CLI lists a flag or a column header
    printed = set(flags) | {header for _, header, _ in POINT_COLUMNS}
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    listed = [
        f"cli.py:{node.lineno}"
        for statement in tree.body
        if isinstance(statement, (ast.Assign, ast.AnnAssign))
        for node in ast.walk(statement)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and printed & set(node.value.split())
    ]
    assert listed == []


def _annotations(tree: ast.AST):
    """Every annotation in a module: of the arguments and returns of each
    function, and of each annotated name (NamedTuple fields included)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            yield from (arg.annotation for arg in every if arg.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def test_no_annotation_names_frozenset():
    # every point set, prime and ideal the library takes or returns is an
    # int mask; a frozenset left in the code is local, with its reason in
    # a comment beside it
    found = []
    for path in sorted(Path(xtoplat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for annotation in _annotations(tree):
            if "frozenset" in ast.unparse(annotation):
                found.append(f"{path.name}:{annotation.lineno}")
    assert found == []


def test_cross_check_sides_are_masks():
    # _Sides holds every point set as a mask over lattice indices, like
    # the space's variety_masks: it builds no frozenset and reads no
    # frozenset view of a mask
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
        and node.id == "frozenset"
        or isinstance(node, ast.Attribute)
        and node.attr in ("special", "unmask")
    ]
    assert sides and found == []


def _locals(tree: ast.AST, owner: dict[ast.AST, str]) -> dict[str, set[str]]:
    """Each function's dotted name mapped to the names it binds itself: its
    arguments, the targets it assigns and the functions it defines."""
    bound: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            bound.setdefault(owner[node], set()).update(arg.arg for arg in every)
    for node in ast.walk(tree):
        name = owner.get(node, "")
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            inner = name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = name.rpartition(".")[0]
        else:
            continue
        if inner in bound:
            bound[inner].add(node.id if isinstance(node, ast.Name) else node.name)
    return bound


def _reads(paths, kinds) -> set[str]:
    """The names that nodes of the given kinds read in the files, each
    outside its own definition: a name read only inside the function or
    class it names does not count, nor does a name read in a function
    that binds it itself (a local of the same name)."""
    read: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = _owners(tree)
        bound = _locals(tree, owner)
        for node in ast.walk(tree):
            if not isinstance(node, kinds):
                continue
            name = node.attr if isinstance(node, ast.Attribute) else node.id
            where = owner.get(node, "")
            if isinstance(node, ast.Name) and name in bound.get(where, ()):
                continue
            if name not in where.split("."):
                read.add(name)
    return read


def test_every_public_name_is_read_or_documented():
    # the public surface is what the library itself reads (the CLI, the
    # report and the suites) plus what README.md documents in a code span.
    # A public member of a class in __all__ counts as read when an
    # attribute of its name is: a member is reached through an object, so
    # a local variable of the same name does not keep it.  The benchmark
    # harness in perfbench/ reads the library from outside and counts too.
    package = Path(xtoplat.__file__).parent
    root = package.parent.parent
    library = sorted(package.glob("*.py"))
    read = _reads(library, (ast.Name, ast.Attribute))
    attributes = _reads(library + sorted(root.glob("perfbench/*.py")), ast.Attribute)
    readme = (root / "README.md").read_text(encoding="utf-8")
    spans = " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))
    documented = set(re.findall(r"\w+", spans))
    unread_members = [
        f"{name}.{member}"
        for name in xtoplat.__all__
        if isinstance(cls := getattr(xtoplat, name), type)
        for member in vars(cls)
        if not member.startswith("_")
        and member not in getattr(cls, "_fields", ())
        and member not in attributes | documented
    ]
    assert sorted(set(xtoplat.__all__) - read - documented) == []
    assert unread_members == []


def _leading_literal(comment: str) -> tuple | None:
    """(value,) for the longest prefix of a comment that is a Python
    literal, or None when no prefix is one."""
    for end in range(len(comment), 0, -1):
        try:
            return (ast.literal_eval(comment[:end]),)
        except (ValueError, TypeError, SyntaxError):
            continue
    return None


def test_readme_library_quick_start_holds():
    # each line of the README's library example runs, and a line whose
    # trailing comment begins with a Python literal evaluates to it
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        expected = _leading_literal(comment.strip())
        if expected is None:
            exec(code, namespace)
        else:
            assert eval(code, namespace) == expected[0], line
            checked.append(expected[0])
    assert checked == [(True, False), True, [[0, 3, 6, 9], [0, 2, 4, 6, 8, 10]], True]
