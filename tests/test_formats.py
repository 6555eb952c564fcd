"""JSON round trips, the forest mini-grammar, DOT output."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtoplat import FiniteLattice, chain, forest, from_poset, tree
from xtoplat.formats import (
    dumps,
    format_forest_spec,
    lattice_from_json,
    lattice_to_json,
    parse_forest_spec,
    poset_from_json,
    poset_to_json,
    poset_to_dot,
    semiring_from_json,
    space_from_json,
    space_to_dot,
    space_to_json,
)
from xtoplat.enumeration import forest_specs
from xtoplat.semiring import s3, spec_space

from .oracles import semiring_to_json


class TestForestGrammar:
    def test_parse(self):
        assert parse_forest_spec("T2+T3") == (("T", 2), ("T", 3))
        assert parse_forest_spec("v2 + c10") == (("V", 2), ("C", 10))

    def test_round_trip(self):
        for text in ("T2+T3", "V2", "C3+T1+V5"):
            assert format_forest_spec(parse_forest_spec(text)) == text

    def test_parse_of_format_is_identity(self):
        spec = (("T", 2), ("V", 12), ("C", 1))
        assert parse_forest_spec(format_forest_spec(spec)) == spec

    def test_rejects_garbage(self):
        for bad in ("", "T", "Q3", "T2+", "T2 V3"):
            with pytest.raises(ValueError):
                parse_forest_spec(bad)


class TestPosetJson:
    def test_round_trip(self):
        P = forest([("T", 2), ("C", 3)])
        assert poset_from_json(poset_to_json(P)) == P

    def test_closure_applied_on_load(self):
        P = poset_from_json(
            {"labels": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"]]}
        )
        assert P.leq(P.index("a"), P.index("c"))

    def test_missing_labels_rejected(self):
        with pytest.raises(ValueError):
            poset_from_json({"leq": []})


class TestLatticeJson:
    def test_round_trip(self):
        L = FiniteLattice(chain(4))
        assert lattice_from_json(lattice_to_json(L)) == L

    def test_tables_validated_when_present(self):
        L = FiniteLattice(chain(3))
        data = lattice_to_json(L)
        data["meet"][0][2] = data["labels"][2]  # claims 0 ∧ 2 = 2
        with pytest.raises(ValueError):
            lattice_from_json(data)

    def test_every_wrong_table_entry_is_refused(self, lattices_upto_5):
        cases = 0
        for L in lattices_upto_5:
            data = lattice_to_json(L)
            for key in ("meet", "join"):
                for a in range(L.n):
                    for b in range(L.n):
                        right = data[key][a][b]
                        for wrong in set(L.labels) - {right}:
                            data[key][a][b] = wrong
                            with pytest.raises(ValueError) as err:
                                lattice_from_json(data)
                            assert str(err.value) == f"'{key}' table disagrees with the derived {key}"
                            cases += 1
                        data[key][a][b] = right
            assert lattice_from_json(data) == L
        assert cases == 2 * sum(L.n ** 2 * (L.n - 1) for L in lattices_upto_5)

    @pytest.mark.parametrize("key", ["meet", "join"])
    @pytest.mark.parametrize("shape", ["short row", "missing row", "extra row"])
    def test_misshapen_tables_are_refused(self, key, shape):
        L = FiniteLattice(chain(3))
        data = lattice_to_json(L)
        table = data[key]
        if shape == "short row":
            table[1].pop()
        elif shape == "missing row":
            table.pop()
        else:
            table.append(list(table[0]))
        with pytest.raises(ValueError, match=f"^'{key}' table disagrees with the derived {key}$"):
            lattice_from_json(data)

    def test_tables_derived_when_absent(self):
        data = poset_to_json(chain(3))
        L = lattice_from_json(data)
        assert L.meet(0, 2) == 0


class TestSemiringJson:
    def test_round_trip(self):
        R = s3()
        assert semiring_from_json(semiring_to_json(R)) == R

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            semiring_from_json({"labels": ["0", "1"]})


class TestSpaceJson:
    def test_round_trip(self):
        space = from_poset(tree(2))
        again = space_from_json(space_to_json(space))
        assert again.points == space.points
        assert set(again.closed_family) == set(space.closed_family)

    def test_closed_sets_verified(self):
        data = space_to_json(from_poset(tree(2)))
        data["closed_sets"] = [[]]
        with pytest.raises(ValueError):
            space_from_json(data)

    def test_byte_stability(self):
        a = dumps(space_to_json(spec_space(s3())))
        b = dumps(space_to_json(spec_space(s3())))
        assert a == b
        assert json.loads(a)["X"] == ["{0}", "{0,a}"]


# characters that json escapes or passes through raw with ensure_ascii=False:
# quotes, backslashes, control characters, lone surrogates, non-ASCII
_SPECIAL = '"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800\udfffé€😀'
_texts = st.lists(
    st.one_of(st.sampled_from(_SPECIAL), st.integers(0, 0x10FFFF).map(chr)), max_size=8
).map("".join)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**1000, -(3**500), 0, -1]),
    st.floats(),
    st.sampled_from([-0.0, 1e300, -1e-300, float("nan"), float("inf"), float("-inf")]),
    _texts,
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(_texts, max_size=4),
        st.dictionaries(_texts, inner, max_size=4),
    ),
    max_leaves=24,
)


def _indented(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False)


class TestDumps:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_values)
    def test_same_text_as_json_dumps_with_indent(self, value):
        assert dumps(value) == _indented(value)

    @pytest.mark.parametrize(
        "value",
        [[], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [[], {}]], {"": [{"": ()}]}],
    )
    def test_empty_containers_at_every_depth(self, value):
        assert dumps(value) == _indented(value)

    @pytest.mark.parametrize(
        "value",
        [{1, 2}, b"ab", {(1, 2): "a"}, [1, {"a": {3}}], {"a": [b"x"]}, ["a", b"b"], object()],
    )
    def test_json_refusals_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _indented(value)
        with pytest.raises(TypeError):
            dumps(value)

    @pytest.mark.parametrize("key", [1, 1.5, True, None])
    def test_only_str_keys(self, key):
        # json would write the key as a string; no writer of this package makes one
        with pytest.raises(TypeError):
            dumps({key: 0})

    def test_a_list_of_strings_that_ends_in_another_value(self):
        value = ["a", "b", ["c"], 4, None]
        assert dumps(value) == _indented(value)


class TestDot:
    def test_tree_5_counts(self):
        dot = poset_to_dot(tree(5))
        assert dot.count("->") == 5
        assert dot.startswith("digraph")
        assert "rank=min" in dot

    def test_edges_go_upward(self):
        dot = poset_to_dot(chain(2))
        assert '"x0" -> "x1"' in dot

    def test_space_annotation(self):
        dot = space_to_dot(spec_space(s3()), annotate_closed=True)
        assert "// closed sets" in dot
        assert dot.count("->") == 1

    def test_a_poset_source_draws_the_dot_of_its_space(self):
        # P in (|↑x|, ↑x) order is the specialization order of from_poset(P)
        for spec in forest_specs(8):
            P = forest(spec)
            assert space_to_dot(P) == space_to_dot(from_poset(P)), spec
