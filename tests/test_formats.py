"""JSON round trips, the forest mini-grammar, DOT output."""

import json

import pytest

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
