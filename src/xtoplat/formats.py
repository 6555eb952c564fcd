"""JSON formats and Graphviz DOT export.

Formats (all label-based, order-independent on load, byte-stable on dump):

* poset:    {"labels": [...], "leq": [["a", "b"], ...]}: pairs mean
  first <= second; the reflexive-transitive closure is applied on load and
  cover pairs are emitted on dump.
* lattice:  the poset format plus optional "meet"/"join" label tables,
  each entry checked, if present, against the glb/lub read off the order.
* semiring: {"labels": [...], "add": [[...]], "mul": [[...]],
  "zero": "0", "one": "1"} with label-valued tables.
* space:    {"lattice": ..., "X": [labels], "closed_sets": [[labels], ...]};
  closed_sets are recomputed on load and verified when present.

Each loader refuses a top-level key its format does not name.  ``dumps``
writes the bytes of ``json.dumps(data, indent=2, ensure_ascii=False)``.

DOT output draws the Hasse diagram: cover edges only, oriented from the
smaller to the larger element, minimal elements on the bottom rank.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _string
from typing import Any

from .errors import RangeError
from .lattice import FiniteLattice
from .poset import FinitePoset, ForestComponent, _bits, _mask, _repeat, poset_from_relation
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
    _refuse_unknown_keys(data, "poset", ("labels", "leq"))
    return _poset(data)


def _poset(data: dict[str, Any]) -> FinitePoset:
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


def _refuse_unknown_keys(data: Any, kind: str, accepted: tuple[str, ...]) -> None:
    """A misspelt optional field would otherwise be ignored: a poset whose
    ``leq`` is spelt ``relations`` would load as an antichain."""
    if isinstance(data, dict):
        unknown = [key for key in data if key not in accepted]
        if unknown:
            raise ValueError(
                f"{kind} JSON has unknown key {unknown[0]!r}; the keys are "
                + ", ".join(map(repr, accepted))
            )


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
    _refuse_unknown_keys(data, "lattice", ("labels", "leq", "meet", "join"))
    P = _poset(data)
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
            if not derived.is_table(key, table):
                raise ValueError(f"'{key}' table disagrees with the derived {key}")
    return derived


# -- semirings ----------------------------------------------------------------


def semiring_from_json(data: dict[str, Any]) -> FiniteSemiring:
    fields = ("labels", "add", "mul", "zero", "one")
    for key in fields:
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"semiring JSON needs a {key!r} field")
    _refuse_unknown_keys(data, "semiring", fields)
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
    _refuse_unknown_keys(data, "space", ("lattice", "X", "closed_sets"))
    L = lattice_from_json(data["lattice"])
    X = data["X"]
    if not _is_label_list(X):
        raise ValueError("'X' must be a list of labels")
    try:
        members = _mask(set(map(L.poset.index, X)))
    except KeyError as err:
        raise ValueError(f"'X' names unknown label {err.args[0]!r}") from None
    if members.bit_count() != len(X):
        raise ValueError(f"'X' names label {_repeat(X)!r} twice")
    space = build_space(L, members)
    if "closed_sets" in data:
        closed_sets = data["closed_sets"]
        if not isinstance(closed_sets, list) or not all(map(_is_label_list, closed_sets)):
            raise ValueError("'closed_sets' must be a list of label lists")
        for C in closed_sets:
            if len(set(C)) != len(C):
                raise ValueError(f"'closed_sets' names label {_repeat(C)!r} twice in one set")
        # label sets, not masks: a label the lattice lacks only disagrees
        given = set(map(frozenset, closed_sets))
        if len(given) != len(closed_sets):
            repeated = sorted(_repeat(map(frozenset, closed_sets)))
            raise ValueError(f"'closed_sets' lists the closed set {repeated} twice")
        computed = {frozenset(space.labels_of(C)) for C in space.closed_family}
        if given != computed:
            raise ValueError("'closed_sets' disagrees with the computed topology")
    return space


# -- reports ---------------------------------------------------------------------


def report_to_json(
    report: SeparationReport, points: tuple[PointClassification, ...]
) -> dict[str, Any]:
    # each record's keys are its NamedTuple fields, so field order is key
    # order; dumps writes the component tuples as json writes lists
    return {**report._asdict(), "points": [p._asdict() for p in points]}


def dumps(data: Any) -> str:
    """The bytes of ``json.dumps(data, indent=2, ensure_ascii=False)``.

    With ``indent`` set, ``json`` encodes in pure Python, one generator
    step per token.  Here each container is one ``"".join`` of its items
    (a list of strings one C-level join), and strings go through the C
    ``encode_basestring`` that ``json`` uses itself.  A value ``json``
    refuses raises :class:`TypeError`, and so does a dict key that is not
    a ``str``, which ``json`` would convert.
    """
    return _value(data, "\n")


# the text of each scalar type by exact type; subclasses take _value's
# isinstance chain, in the order json's own encoder tests them
_SCALARS = {
    str: _string,
    bool: ("false", "true").__getitem__,
    int: int.__repr__,
    float: json.dumps,  # NaN and ±Infinity as json spells them
    type(None): lambda _: "null",
}


def _value(value: Any, newline: str) -> str:
    """``value`` as JSON text, its nested lines indented past ``newline``."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return _array(value, newline)
    if isinstance(value, dict):
        return _object(value, newline)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _array(items: list | tuple, newline: str) -> str:
    if not items:
        return "[]"
    inner = newline + "  "
    separator = "," + inner
    if type(items[0]) is str:
        try:
            return "".join(("[", inner, separator.join(map(_string, items)), newline, "]"))
        except TypeError:  # not all strings after all
            pass
    body = separator.join([_value(item, inner) for item in items])
    return "".join(("[", inner, body, newline, "]"))


def _object(mapping: dict, newline: str) -> str:
    if not mapping:
        return "{}"
    inner = newline + "  "
    separator = "," + inner
    parts = ["{", inner]
    for key, item in mapping.items():
        scalar = _SCALARS.get(type(item))
        text = scalar(item) if scalar is not None else _value(item, inner)
        # _string refuses a key that is not a str with TypeError
        parts += (_string(key), ": ", text, separator)
    parts[-1] = newline + "}"
    return "".join(parts)


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
    minimals = list(_bits(P.minimals()))
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
        up = source.up_rows()
        rows = [_mask(position[y] for y in _bits(up[x])) for x in order]
        return poset_to_dot(FinitePoset([source.labels[x] for x in order], rows))
    space = from_poset(source) if isinstance(source, FinitePoset) else source
    closed = tuple(map(space.labels_of, space.closed_family)) if annotate_closed else None
    return poset_to_dot(space.specialization_poset(), closed)
