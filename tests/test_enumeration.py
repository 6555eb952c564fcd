"""Exhaustive generators: counts against the literature, canonical forms."""

import pytest

from xtoplat.enumeration import (
    all_lattices,
    all_posets,
    all_posets_upto,
    canonical_form,
    forest_specs,
)
from xtoplat.errors import NotALatticeError, RangeError
from xtoplat.lattice import FiniteLattice
from xtoplat.poset import chain, dual_tree, forest, poset_from_relation, tree

from .oracles import canonical_form_by_extensions, permuted, posets_by_code_scan


def test_poset_counts_match_known_sequence():
    # unlabeled posets on 1..7 elements (OEIS A000112)
    assert [len(all_posets(n)) for n in range(1, 8)] == [1, 2, 5, 16, 63, 318, 2045]


def test_lattice_counts_match_known_sequence():
    # unlabeled lattices on 1..8 elements (OEIS A006966)
    assert [len(all_lattices(n)) for n in range(1, 9)] == [1, 1, 1, 2, 5, 15, 53, 222]


@pytest.mark.parametrize("n", range(7))
def test_representatives_match_the_code_scan(n):
    # the same least codes, decoded the same way, in the same order
    assert all_posets(n) == posets_by_code_scan(n)


def _is_lattice(P):
    try:
        FiniteLattice(P)
    except NotALatticeError:
        return False
    return True


def test_lattices_are_the_lattice_posets_in_enumeration_order():
    for n in range(1, 7):
        expected = [P for P in all_posets(n) if _is_lattice(P)]
        assert [L.poset for L in all_lattices(n)] == expected


def test_canonical_form_matches_the_extension_oracle_on_small_posets():
    for P in all_posets_upto(6):
        assert canonical_form(P) == canonical_form_by_extensions(P)


@pytest.mark.parametrize(
    "P",
    [
        forest([("T", 2), ("V", 2), ("C", 3)]),
        forest([("C", 2), ("C", 2), ("T", 3)]),
        chain(6),
        tree(5),
        dual_tree(4),
    ],
    ids=["T2+V2+C3", "C2+C2+T3", "C6", "T5", "V4"],
)
def test_canonical_form_matches_the_extension_oracle_on_relabellings(P):
    expected = canonical_form_by_extensions(P)
    points = list(range(P.n))
    orders = [points[k:] + points[:k] for k in range(P.n)]
    orders += [points[::-1], points[1::2] + points[::2]]
    for order in orders:
        Q = permuted(P, order)
        assert canonical_form(Q) == canonical_form_by_extensions(Q) == expected


def test_canonical_form_refuses_a_cycle():
    class Cyclic:
        # a < b < c < a: no linear extension
        n = 3

        def lt(self, i, j):
            return j == (i + 1) % 3

    with pytest.raises(ValueError, match="no linear extension"):
        canonical_form(Cyclic())


def test_empty_and_negative_sizes():
    assert all_posets(0) == () and all_lattices(0) == ()
    for n in (-1, -2):
        with pytest.raises(RangeError, match=f"got {n}"):
            all_posets(n)
        with pytest.raises(RangeError, match=f"got {n}"):
            all_lattices(n)


def test_representatives_are_pairwise_non_isomorphic():
    forms = [canonical_form(P) for P in all_posets(5)]
    assert len(forms) == len(set(forms))


def test_canonical_form_is_relabeling_invariant():
    P = poset_from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")])
    Q = poset_from_relation(["z", "y", "x"], [("x", "z"), ("y", "z")])
    assert canonical_form(P) == canonical_form(Q)
    R = poset_from_relation(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert canonical_form(P) != canonical_form(R)


def test_tree_chain_dual_tree_coincide_at_the_bottom():
    assert canonical_form(tree(1)) == canonical_form(chain(2)) == canonical_form(dual_tree(1))


def test_forest_specs_normalize_the_coincidence():
    specs = forest_specs(3, kinds="TVC")
    flattened = {c for spec in specs for c in spec}
    assert ("T", 1) not in flattened and ("V", 1) not in flattened
    assert ("C", 2) in flattened


def test_forest_specs_respect_size_bound():
    for spec in forest_specs(7):
        size = sum(k if kind == "C" else k + 1 for kind, k in spec)
        assert 1 <= size <= 7


def test_forest_specs_tree_only():
    specs = forest_specs(9, kinds="T", min_tree_base=2)
    assert all(kind == "T" and k >= 2 for spec in specs for kind, k in spec)
    assert (("T", 2), ("T", 2)) in specs
    assert (("T", 8),) in specs


def test_forest_specs_are_buildable_and_unique():
    seen = set()
    for spec in forest_specs(6):
        form = canonical_form(forest(spec))
        assert form not in seen
        seen.add(form)
