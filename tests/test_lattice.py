"""Lattices: meet and join lookups on the keys, up-set lattices, predicates."""

import random

import pytest

from xtoplat import (
    EmptyPosetError,
    FiniteLattice,
    NotALatticeError,
    SubsetViolationError,
    UpsetLattice,
    chain,
    dual_tree,
    forest,
    has_complete_max_property,
    poset_from_relation,
    spec_space,
    tree,
    upset_lattice,
)
from xtoplat.enumeration import forest_specs
from xtoplat.poset import _bits
from xtoplat.semiring import bni, spectrum

from .oracles import (
    glb_search,
    is_atomic,
    is_coatomic,
    is_distributive,
    lattice_by_search,
    lattice_outcome,
    lub_search,
    mask,
    members,
    order_maximals,
    order_meet_all,
    order_variety_masks,
    permuted,
    tables,
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
        L = FiniteLattice(chain(3))
        for a in range(3):
            for b in range(3):
                assert L.meet(a, b) == min(a, b)
                assert L.join(a, b) == max(a, b)

    def test_dual_tree_with_adjoined_top_is_diamond(self):
        P = poset_from_relation(
            ["r", "a", "b", "t"],
            [("r", "a"), ("r", "b"), ("a", "t"), ("b", "t")],
        )
        L = FiniteLattice(P)
        for x in range(P.n):
            for y in range(P.n):
                assert L.meet(x, y) == glb_search(P, x, y)
                assert L.join(x, y) == lub_search(P, x, y)

    def test_bare_dual_tree_rejected(self):
        with pytest.raises(NotALatticeError) as err:
            FiniteLattice(dual_tree(2))
        assert err.value.kind == "join"

    def test_empty_rejected(self):
        with pytest.raises(EmptyPosetError):
            FiniteLattice(poset_from_relation([], []))

    def test_tables_match_search_oracle(self, posets_upto_5):
        for P in posets_upto_5:
            try:
                L = FiniteLattice(P)
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
                assert lattice_outcome(FiniteLattice, Q) == lattice_outcome(
                    lattice_by_search, Q
                ), Q
        assert cases == 1620


def query_subsets(items, rng):
    """Every subset of ``items`` when there are at most 8, else every
    subset of at most two and 200 seeded random ones."""
    items = sorted(items)
    if len(items) <= 8:
        return [[x for k, x in enumerate(items) if S >> k & 1] for S in range(1 << len(items))]
    small = [[], *([x] for x in items), *([x, y] for x in items for y in items if x < y)]
    return small + [[x for x in items if rng.random() < 0.5] for _ in range(200)]


@pytest.fixture(scope="module")
def both_kinds(lattices_upto_6, posets_upto_5):
    """Every order-given lattice with at most 6 elements and the up-set
    lattice of every poset with at most 5 points."""
    return [*lattices_upto_6, *(upset_lattice(P)[0] for P in posets_upto_5)]


class TestQueriesMatchTheOrder:
    """One implementation of each query serves both lattice classes; each
    is compared with its pairwise definition over the order rows."""

    def test_sizes(self, both_kinds):
        kinds = [type(L) for L in both_kinds]
        assert (kinds.count(FiniteLattice), kinds.count(UpsetLattice)) == (25, 87)

    def test_leq_meet_join_on_every_pair(self, both_kinds):
        for L in both_kinds:
            rows = L.poset.up_rows()
            for a in range(L.n):
                for b in range(L.n):
                    assert L.leq(a, b) == bool(rows[a] >> b & 1)
                    assert L.meet(a, b) == glb_search(L.poset, a, b)
                    assert L.join(a, b) == lub_search(L.poset, a, b)

    def test_meet_all_and_maximals_of_on_every_subset(self, both_kinds):
        rng = random.Random(29)
        for L in both_kinds:
            for S in query_subsets(range(L.n), rng):
                assert L.meet_all(mask(S)) == order_meet_all(L, S), (L, S)
                assert L.maximals_of(mask(S)) == mask(order_maximals(L, S)), (L, S)

    def test_variety_masks_on_every_carrier(self, both_kinds):
        rng = random.Random(30)
        for L in both_kinds:
            for X in query_subsets(set(range(L.n)) - {L.top}, rng):
                assert L.variety_masks(mask(X)) == order_variety_masks(L, X), (L, X)

    @pytest.mark.parametrize("build", [FiniteLattice, lambda P: upset_lattice(P)[0]])
    def test_leq_rejects_indices_out_of_range(self, build):
        L = build(chain(3))
        for bad in (-1, L.n):
            with pytest.raises(IndexError):
                L.leq(bad, 0)
            with pytest.raises(IndexError):
                L.leq(0, bad)


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
            rebuilt = FiniteLattice(L.poset)
            assert tables(rebuilt) == tables(L)
            # the order: reverse inclusion of the up-sets, found by filtering
            upsets = sorted(
                upsets_by_filter(P), key=lambda S: (len(S), sum(1 << i for i in S))
            )
            assert L.n == len(upsets)
            for a, A in enumerate(upsets):
                for b, B in enumerate(upsets):
                    assert L.poset.leq(a, b) == L.leq(a, b) == (A >= B)

    @pytest.mark.parametrize("P", [chain(3), tree(2), dual_tree(2), diamond_m3()])
    def test_elements_are_the_upset_masks(self, P):
        L = UpsetLattice(P)
        assert L.n == len(P.upset_masks())
        assert set(L.masks) == set(P.upset_masks())

    def test_principal_upsets_keep_their_labels(self, posets_upto_6):
        # the embedding hits |P| distinct elements, each ↑x labelled with
        # its generator x
        shapes = [forest(spec) for spec in forest_specs(9)]
        for P in [tree(2), *posets_upto_6, *shapes]:
            L, emb = upset_lattice(P)
            assert sorted(emb) == list(range(P.n))
            assert len(set(emb.values())) == P.n, P
            assert [L.labels[emb[x]] for x in range(P.n)] == list(P.labels), P

    def test_empty_rejected(self):
        with pytest.raises(EmptyPosetError):
            upset_lattice(poset_from_relation([], []))


class TestMeetJoinAll:
    def test_empty_meet_is_top(self):
        L = FiniteLattice(chain(3))
        assert L.meet_all(0) == L.top

    def test_singleton(self):
        L = FiniteLattice(chain(3))
        assert L.meet_all(0b10) == 1

    @pytest.mark.parametrize("kind", ["order-given", "up-set"])
    def test_negative_index_and_non_mask_refused(self, kind):
        # an unchecked negative index would read a key from the end
        P = chain(3)
        L = FiniteLattice(P) if kind == "order-given" else upset_lattice(P)[0]
        for a, b in [(-1, 0), (0, -1), (-1, -1)]:
            with pytest.raises(IndexError):
                L.meet(a, b)
            with pytest.raises(IndexError):
                L.join(a, b)
        with pytest.raises(ValueError):
            L.meet_all(-1)
        with pytest.raises(IndexError, match=f"element index {L.n} "):
            L.meet_all(1 << L.n | 1)
        with pytest.raises(TypeError):
            L.meet_all([0])

    @pytest.mark.parametrize("kind", ["order-given", "up-set"])
    def test_index_past_the_end_named_as_leq_names_it(self, kind):
        # not a bare "tuple index out of range": the first of the two
        # indices that is out of range is named, as leq names it
        P = chain(3)
        L = FiniteLattice(P) if kind == "order-given" else upset_lattice(P)[0]
        n = L.n
        for a, b, named in [(n + 2, 0, n + 2), (0, n, n), (n, -1, n), (-1, n, -1)]:
            for op in (L.meet, L.join, L.leq):
                with pytest.raises(IndexError, match=f"^element index {named} out of range 0..{n - 1}$"):
                    op(a, b)

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
            full = (1 << L.n) - 1
            for cut in range(L.n):
                left = (1 << cut) - 1
                assert L.meet_all(full) == L.meet(L.meet_all(left), L.meet_all(full & ~left))


class TestPredicates:
    def test_chains_are_distributive(self):
        assert is_distributive(FiniteLattice(chain(4)))

    def test_m3_is_not_distributive(self):
        assert not is_distributive(FiniteLattice(diamond_m3()))

    def test_upset_lattices_are_distributive(self):
        assert is_distributive(upset_lattice(tree(3))[0])

    def test_complete_max_property_single_maximal(self):
        L, emb = upset_lattice(chain(2))
        assert has_complete_max_property(L, mask(emb.values()))

    def test_complete_max_property_spec_z12(self):
        space = spec_space(bni(12, 0))
        assert has_complete_max_property(space.lattice, space.points)

    def test_complete_max_property_on_dual_tree_maxima(self):
        P = dual_tree(2)
        L, emb = upset_lattice(P)
        maxima = mask(emb[x] for x in _bits(P.maximals()))
        assert has_complete_max_property(L, maxima)


class TestAtomicCoatomic:
    def test_a_equal_x_is_both(self):
        L, emb = upset_lattice(tree(2))
        X = frozenset(emb.values())
        assert is_atomic(L, X, X)
        assert is_coatomic(L, X, X)

    def test_ideal_lattice_of_s3_is_spec_coatomic(self):
        from xtoplat.semiring import s3

        space = spec_space(s3())
        L = space.lattice
        proper = frozenset(range(L.n)) - {L.top}
        assert is_coatomic(L, members(space.points), proper)

    def test_element_above_all_of_x_is_not_coatomic(self):
        L, emb = upset_lattice(tree(2))
        X = frozenset(emb.values())
        assert not is_coatomic(L, X, X | {L.top})

    def test_subset_violation(self):
        L, emb = upset_lattice(tree(2))
        X = frozenset(emb.values())
        with pytest.raises(SubsetViolationError):
            is_coatomic(L, X, frozenset({L.bottom}))


class TestEmbeddedSubset:
    """X is a mask of element indices, embedded in L \\ {top}: the carrier
    check rejects the top element."""

    def test_top_excluded(self):
        L, _ = upset_lattice(chain(2))
        with pytest.raises(SubsetViolationError):
            has_complete_max_property(L, 1 << L.top)


def test_spectrum_z12_max_are_incomparable():
    # two maximal ideals, neither inside the other
    rep = spectrum(bni(12, 0))
    (p2, p3) = rep.max
    assert p2 & ~p3 and p3 & ~p2
