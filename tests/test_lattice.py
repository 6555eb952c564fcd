"""Lattices: table construction, up-set lattices, predicates."""

import random

import pytest

from xtoplat import (
    EmbeddedSubset,
    EmptyPosetError,
    NotALatticeError,
    SubsetViolationError,
    UpsetLattice,
    chain,
    dual_tree,
    has_complete_max_property,
    is_atomic,
    is_coatomic,
    is_distributive,
    lattice_from_poset,
    poset_from_relation,
    tree,
    upset_lattice,
)
from xtoplat.semiring import bni, embedded_spectrum, spectrum

from .oracles import (
    glb_search,
    lattice_by_search,
    lattice_outcome,
    lub_search,
    permuted,
    upsets_by_filter,
)


def diamond_m3():
    """Bottom, three incomparable middles, top."""
    return poset_from_relation(
        ["bot", "p", "q", "r", "top"],
        [("bot", "p"), ("bot", "q"), ("bot", "r"), ("p", "top"), ("q", "top"), ("r", "top")],
    )


class TestLatticeFromPoset:
    def test_chain_is_min_max(self):
        L = lattice_from_poset(chain(3))
        for a in range(3):
            for b in range(3):
                assert L.meet(a, b) == min(a, b)
                assert L.join(a, b) == max(a, b)

    def test_dual_tree_with_adjoined_top_is_diamond(self):
        P = poset_from_relation(
            ["r", "a", "b", "t"],
            [("r", "a"), ("r", "b"), ("a", "t"), ("b", "t")],
        )
        L = lattice_from_poset(P)
        for x in range(P.n):
            for y in range(P.n):
                assert L.meet(x, y) == glb_search(P, x, y)
                assert L.join(x, y) == lub_search(P, x, y)

    def test_bare_dual_tree_rejected(self):
        with pytest.raises(NotALatticeError) as err:
            lattice_from_poset(dual_tree(2))
        assert err.value.kind == "join"

    def test_empty_rejected(self):
        with pytest.raises(EmptyPosetError):
            lattice_from_poset(poset_from_relation([], []))

    def test_tables_match_search_oracle(self, posets_upto_5):
        for P in posets_upto_5:
            try:
                L = lattice_from_poset(P)
            except NotALatticeError:
                assert any(
                    glb_search(P, a, b) is None or lub_search(P, a, b) is None
                    for a in range(P.n)
                    for b in range(P.n)
                )
                continue
            for a in range(P.n):
                for b in range(P.n):
                    assert L.meet(a, b) == glb_search(P, a, b)
                    assert L.join(a, b) == lub_search(P, a, b)


class TestRowLookupMatchesSearch:
    def test_every_poset_and_three_permutations(self, posets_upto_6):
        rng = random.Random(9)
        cases = 0
        for P in posets_upto_6:
            copies = [P]
            for _ in range(3):
                order = list(range(P.n))
                rng.shuffle(order)
                copies.append(permuted(P, order))
            for Q in copies:
                cases += 1
                assert lattice_outcome(lattice_from_poset, Q) == lattice_outcome(
                    lattice_by_search, Q
                ), Q
        assert cases == 1620


class TestUpsetLattice:
    def test_singleton(self):
        L, emb = upset_lattice(poset_from_relation(["x"], []))
        assert L.n == 2
        assert emb[0] == L.bottom  # ↑x is the whole poset, the lattice bottom

    def test_two_chain_gives_three_chain(self):
        L, _ = upset_lattice(chain(2))
        assert L.n == 3
        assert L.poset.krull_dim() == 2

    def test_tree_2_gives_five_elements(self):
        L, _ = upset_lattice(tree(2))
        assert L.n == 5

    def test_embedding_is_an_order_isomorphism_onto_its_image(self, posets_upto_5):
        for P in posets_upto_5:
            L, emb = upset_lattice(P)
            for x in range(P.n):
                for y in range(P.n):
                    assert P.leq(x, y) == L.leq(emb[x], emb[y])
            assert len(set(emb.values())) == P.n

    def test_passes_table_search_oracle(self, posets_upto_5):
        for P in posets_upto_5:
            L, _ = upset_lattice(P)
            rebuilt = lattice_from_poset(L.poset)
            assert rebuilt.meet_table == L.meet_table
            assert rebuilt.join_table == L.join_table
            # the order: reverse inclusion of the up-sets, found by filtering
            upsets = sorted(
                upsets_by_filter(P), key=lambda S: (len(S), sum(1 << i for i in S))
            )
            assert L.n == len(upsets)
            for a, A in enumerate(upsets):
                for b, B in enumerate(upsets):
                    assert L.poset.leq(a, b) == L.leq(a, b) == (A >= B)

    @pytest.mark.parametrize("P", [chain(3), tree(2), dual_tree(2), diamond_m3()])
    def test_mask_family_missing_an_upset_is_refused(self, P):
        family = P.upset_masks()
        assert UpsetLattice(P, family).n == len(family)
        for k in range(len(family)):
            with pytest.raises(NotALatticeError):
                UpsetLattice(P, family[:k] + family[k + 1 :])

    @pytest.mark.parametrize("P", [chain(3), tree(2), dual_tree(2), diamond_m3()])
    def test_mask_family_with_a_non_upset_is_refused(self, P):
        family = P.upset_masks()
        strays = [m for m in range(1 << P.n) if m not in family]
        assert strays
        for m in strays:
            with pytest.raises(NotALatticeError):
                UpsetLattice(P, family + [m])

    def test_principal_upsets_keep_their_labels(self):
        L, emb = upset_lattice(tree(2))
        P = tree(2)
        for x in range(P.n):
            assert L.labels[emb[x]] == P.labels[x]

    def test_empty_rejected(self):
        with pytest.raises(EmptyPosetError):
            upset_lattice(poset_from_relation([], []))


class TestMeetJoinAll:
    def test_empty_meet_is_top(self):
        L = lattice_from_poset(chain(3))
        assert L.meet_all([]) == L.top
        assert L.join_all([]) == L.bottom

    def test_singleton(self):
        L = lattice_from_poset(chain(3))
        assert L.meet_all([1]) == 1

    def test_meet_in_upset_lattice_is_union(self):
        P = tree(2)
        L, emb = upset_lattice(P)
        a, b = P.index("a"), P.index("b")
        meet = L.meet(emb[a], emb[b])
        # ↑a ∪ ↑b is the whole tree, the lattice bottom
        assert meet == L.bottom

    def test_big_meet_splits(self, posets_upto_5):
        for P in posets_upto_5:
            if P.n > 4:
                continue
            L, _ = upset_lattice(P)
            elems = list(range(L.n))
            for cut in range(len(elems)):
                left, right = elems[:cut], elems[cut:]
                assert L.meet_all(elems) == L.meet(L.meet_all(left), L.meet_all(right))


class TestPredicates:
    def test_chains_are_distributive(self):
        assert is_distributive(lattice_from_poset(chain(4)))

    def test_m3_is_not_distributive(self):
        assert not is_distributive(lattice_from_poset(diamond_m3()))

    def test_upset_lattices_are_distributive(self):
        assert is_distributive(upset_lattice(tree(3))[0])

    def test_complete_max_property_single_maximal(self):
        L, emb = upset_lattice(chain(2))
        X = EmbeddedSubset(L, frozenset(emb.values()))
        assert has_complete_max_property(L, X)

    def test_complete_max_property_spec_z12(self):
        L, X = embedded_spectrum(bni(12, 0))
        assert has_complete_max_property(L, X)

    def test_complete_max_property_on_dual_tree_maxima(self):
        P = dual_tree(2)
        L, emb = upset_lattice(P)
        maxima = frozenset(emb[x] for x in P.maximals())
        assert has_complete_max_property(L, EmbeddedSubset(L, maxima))


class TestAtomicCoatomic:
    def test_a_equal_x_is_both(self):
        L, emb = upset_lattice(tree(2))
        X = EmbeddedSubset(L, frozenset(emb.values()))
        assert is_atomic(L, X, X.members)
        assert is_coatomic(L, X, X.members)

    def test_ideal_lattice_of_s3_is_spec_coatomic(self):
        from xtoplat.semiring import s3

        L, X = embedded_spectrum(s3())
        proper = frozenset(range(L.n)) - {L.top}
        assert is_coatomic(L, X, proper)

    def test_element_above_all_of_x_is_not_coatomic(self):
        L, emb = upset_lattice(tree(2))
        X = EmbeddedSubset(L, frozenset(emb.values()))
        assert not is_coatomic(L, X, X.members | {L.top})

    def test_subset_violation(self):
        L, emb = upset_lattice(tree(2))
        X = EmbeddedSubset(L, frozenset(emb.values()))
        with pytest.raises(SubsetViolationError):
            is_coatomic(L, X, frozenset({L.bottom}))


class TestEmbeddedSubset:
    def test_top_excluded(self):
        L, _ = upset_lattice(chain(2))
        with pytest.raises(SubsetViolationError):
            EmbeddedSubset(L, frozenset({L.top}))


def test_spectrum_z12_max_are_incomparable():
    # two maximal ideals, neither inside the other
    rep = spectrum(bni(12, 0))
    (p2, p3) = sorted(rep.max, key=sorted)
    assert not p2 <= p3 and not p3 <= p2
