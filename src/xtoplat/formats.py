"""JSON formats and Graphviz DOT export.

Formats (all label-based, order-independent on load, byte-stable on dump):

* poset:    {"labels": [...], "leq": [["a", "b"], ...]}: pairs mean
  first <= second; the reflexive-transitive closure is applied on load and
  cover pairs are emitted on dump.
* lattice:  the poset format plus optional "meet"/"join" label tables,
  validated against the derived glb/lub tables if present.
* semiring: {"labels": [...], "add": [[...]], "mul": [[...]],
  "zero": "0", "one": "1"} with label-valued tables.
* space:    {"lattice": ..., "X": [labels], "closed_sets": [[labels], ...]};
  closed_sets are recomputed on load and verified when present.

DOT output draws the Hasse diagram: cover edges only, oriented from the
smaller to the larger element, minimal elements on the bottom rank.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import RangeError
from .lattice import FiniteLattice
from .poset import FinitePoset, ForestComponent, _bits, _mask, poset_from_relation
from .semiring import FiniteSemiring, semiring_from_tables
from .separation import PointClassification, SeparationReport, _in_upset_order
from .topology import XTopSpace, build_space, from_poset


# -- forest spec mini-grammar -------------------------------------------------


def parse_forest_spec(text: str) -> tuple[ForestComponent, ...]:
    """Parse "T2+V3+C4" (case-insensitive, spaces allowed) into components."""
    parts = [p.strip() for p in text.split("+")]
    out = []
    for part in parts:
        if len(part) < 2 or part[0].upper() not in "TVC" or not part[1:].isdigit():
            raise ValueError(
                f"bad forest component {part!r}: expected T<n>, V<m> or C<k>"
            )
        out.append((part[0].upper(), int(part[1:])))
    if not out:
        raise ValueError("empty forest spec")
    return tuple(out)


def format_forest_spec(components) -> str:
    return "+".join(f"{kind.upper()}{k}" for kind, k in components)


# -- posets -------------------------------------------------------------------


def poset_to_json(P: FinitePoset) -> dict[str, Any]:
    return {
        "labels": list(P.labels),
        "leq": [[P.labels[i], P.labels[j]] for i, j in P.covers()],
    }


def poset_from_json(data: dict[str, Any]) -> FinitePoset:
    if not isinstance(data, dict) or "labels" not in data:
        raise ValueError("poset JSON needs a 'labels' field")
    labels = data["labels"]
    if not _is_label_list(labels):
        raise ValueError("'labels' must be a list of strings")
    pairs = data.get("leq", [])
    if not isinstance(pairs, list) or not all(
        _is_label_list(p) and len(p) == 2 for p in pairs
    ):
        raise ValueError("'leq' entries must be [smaller, larger] pairs of labels")
    return poset_from_relation(labels, pairs)


def _is_label_list(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(name, str) for name in value)


# -- lattices -----------------------------------------------------------------


# the meet and join tables have |L|² cells each: 6.25 million at the cap,
# where 7 × C2's 2187 up-sets already write about 460 MB
MAX_JSON_ELEMENTS = 2500


def lattice_to_json(L: FiniteLattice) -> dict[str, Any]:
    """The lattice's order and its meet and join tables, by label.

    Raises :class:`RangeError` for a lattice of more than
    :data:`MAX_JSON_ELEMENTS` elements, before its order or either table
    is built.
    """
    if L.n > MAX_JSON_ELEMENTS:
        raise RangeError(
            f"the JSON lattice export writes |L|² table cells and stops at "
            f"{MAX_JSON_ELEMENTS} elements; this lattice has {L.n}"
        )
    labels = L.labels
    return {
        **poset_to_json(L.poset),
        "meet": [[labels[L.meet(a, b)] for b in range(L.n)] for a in range(L.n)],
        "join": [[labels[L.join(a, b)] for b in range(L.n)] for a in range(L.n)],
    }


def lattice_from_json(data: dict[str, Any]) -> FiniteLattice:
    P = poset_from_json(data)
    derived = FiniteLattice(P)
    for key in ("meet", "join"):
        if key in data:
            table = data[key]
            if not isinstance(table, list) or not all(map(_is_label_list, table)):
                raise ValueError(f"{key!r} must be a list of rows, each a list of labels")
            known = set(P.labels)
            unknown = next((e for row in table for e in row if e not in known), None)
            if unknown is not None:
                raise ValueError(f"{key!r} names unknown label {unknown!r}")
            expected = derived.meet_table if key == "meet" else derived.join_table
            given = tuple(
                tuple(P.index(entry) for entry in row) for row in table
            )
            if given != expected:
                raise ValueError(f"'{key}' table disagrees with the derived {key}")
    return derived


# -- semirings ----------------------------------------------------------------


def semiring_from_json(data: dict[str, Any]) -> FiniteSemiring:
    for key in ("labels", "add", "mul", "zero", "one"):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"semiring JSON needs a {key!r} field")
    if not _is_label_list(data["labels"]):
        raise ValueError("'labels' must be a list of strings")
    for key in ("add", "mul"):
        table = data[key]
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise ValueError(f"{key!r} must be a list of rows, each a list of elements")
    return semiring_from_tables(
        data["labels"], data["add"], data["mul"], data["zero"], data["one"]
    )


# -- spaces ---------------------------------------------------------------------


def space_to_json(space: XTopSpace) -> dict[str, Any]:
    return {
        "lattice": lattice_to_json(space.lattice),
        "X": list(space.labels_of(space.points)),
        "closed_sets": [list(space.labels_of(C)) for C in space.closed_family],
    }


def space_from_json(data: dict[str, Any]) -> XTopSpace:
    if not isinstance(data, dict) or "lattice" not in data or "X" not in data:
        raise ValueError("space JSON needs 'lattice' and 'X' fields")
    L = lattice_from_json(data["lattice"])
    X = data["X"]
    if not _is_label_list(X):
        raise ValueError("'X' must be a list of labels")
    index = {name: i for i, name in enumerate(L.labels)}
    unknown = next((name for name in X if name not in index), None)
    if unknown is not None:
        raise ValueError(f"'X' names unknown label {unknown!r}")
    members = frozenset(index[name] for name in X)
    space = build_space(L, members)
    if "closed_sets" in data:
        closed_sets = data["closed_sets"]
        if not isinstance(closed_sets, list) or not all(map(_is_label_list, closed_sets)):
            raise ValueError("'closed_sets' must be a list of label lists")
        given = set(map(frozenset, closed_sets))
        computed = {frozenset(space.labels_of(C)) for C in space.closed_family}
        if given != computed:
            raise ValueError("'closed_sets' disagrees with the computed topology")
    return space


# -- reports ---------------------------------------------------------------------


def report_to_json(
    report: SeparationReport, points: tuple[PointClassification, ...]
) -> dict[str, Any]:
    return {
        **report.to_dict(),
        # each row's keys are its NamedTuple fields, so field order is key order
        "points": [p._asdict() for p in points],
    }


def dumps(data: Any) -> str:
    """Stable JSON text: fixed key order as constructed, no trailing spaces."""
    return json.dumps(data, indent=2, ensure_ascii=False)


# -- DOT --------------------------------------------------------------------------


def _quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def poset_to_dot(
    P: FinitePoset, closed_sets: tuple[tuple[str, ...], ...] | None = None
) -> str:
    """Hasse diagram: cover edges from smaller to larger, minimals at bottom."""
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for name in P.labels:
        lines.append(f"  {_quote(name)};")
    for i, j in P.covers():
        lines.append(f"  {_quote(P.labels[i])} -> {_quote(P.labels[j])};")
    minimals = sorted(P.minimals())
    if minimals:
        names = " ".join(_quote(P.labels[i]) for i in minimals)
        lines.append(f"  {{ rank=min; {names} }}")
    if closed_sets is not None:
        lines.append("  // closed sets")
        for part in closed_sets:
            lines.append("  // {" + ",".join(part) + "}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def space_to_dot(source: XTopSpace | FinitePoset, annotate_closed: bool = False) -> str:
    """DOT of the specialization order of X, closed sets optionally listed.

    A poset P stands for ``from_poset(P)``, whose specialization order is P
    with its points in (|↑x|, ↑x) order, so the up-set lattice is built
    only to list the closed sets.
    """
    if isinstance(source, FinitePoset) and not annotate_closed:
        order, position = _in_upset_order(source)
        rows = [_mask(position[y] for y in _bits(source.up_mask(x))) for x in order]
        return poset_to_dot(FinitePoset([source.labels[x] for x in order], rows))
    space = from_poset(source) if isinstance(source, FinitePoset) else source
    closed = tuple(map(space.labels_of, space.closed_family)) if annotate_closed else None
    return poset_to_dot(space.specialization_poset(), closed)
