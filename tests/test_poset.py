"""Posets: constructors, order statistics, up-sets.

Expected values marked as derived were computed with the brute-force
oracles in oracles.py (longest-chain search, powerset filtering).
"""

import random

import pytest

from xtoplat import (
    CycleError,
    DuplicateLabelError,
    EmptyPosetError,
    EmptySpecError,
    FinitePoset,
    RangeError,
    ZeroSizeError,
    antichain,
    chain,
    dual_tree,
    forest,
    poset_from_relation,
    tree,
)
from xtoplat.enumeration import forest_specs
from xtoplat.poset import (
    MAX_POINTS,
    _bits,
    _from_pairs,
    _selected,
    _size_key,
    _size_sorted,
    has_dual_tree_component,
    is_dual_tree_component,
    is_forest_of_trees,
    is_tree_component,
)

from .oracles import (
    chains_ending_at,
    component_shape,
    fixpoint_from_pairs,
    forest_by_closure,
    longest_chain_length,
    pairwise_component_shape,
    pairwise_dual_tree_component,
    pairwise_tree_component,
    recursive_upset_masks,
    restrict,
    shape_by_closure,
    upsets_by_filter,
)


def upset_sets(P):
    """P's up-sets as index sets, read off its masks."""
    return {frozenset(_bits(m)) for m in P.upset_masks()}


def _rows_and_reads(P):
    return (
        P.labels,
        P._up,
        P.down_rows(),
        P.heights(),
        P.covers(),
        P.minimals(),
        P.maximals(),
    )


class TestFromRelation:
    def test_singleton(self):
        P = poset_from_relation(["a"], [])
        assert P.n == 1 and P.leq(0, 0)

    def test_two_chain(self):
        P = poset_from_relation(["x", "y"], [("x", "y")])
        assert P.leq(P.index("x"), P.index("y"))
        assert not P.leq(P.index("y"), P.index("x"))

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            poset_from_relation(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabelError):
            poset_from_relation(["a", "a"], [])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            poset_from_relation(["a"], [("a", "b")])

    def test_closure_is_applied(self):
        P = poset_from_relation(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert P.leq(P.index("a"), P.index("c"))

    def test_one_pass_closure_matches_the_fixpoint(self, posets_upto_5):
        for P in posets_upto_5:
            covers = P.covers()
            assert _from_pairs(P.labels, covers) == fixpoint_from_pairs(P.labels, covers) == P


class TestShapes:
    def test_chain_sizes(self):
        assert chain(1).n == 1
        assert chain(2).n == 2
        with pytest.raises(ZeroSizeError):
            chain(0)

    def test_chain_4_krull_dim_matches_brute_force(self):
        P = chain(4)
        assert longest_chain_length(P) == 3
        assert P.krull_dim() == 3

    def test_tree_1_is_two_chain(self):
        T = tree(1)
        assert T.n == 2 and T.krull_dim() == 1

    def test_tree_5(self):
        T = tree(5)
        assert T.minimals().bit_count() == 5
        assert T.maximals().bit_count() == 1
        assert T.krull_dim() == 1

    def test_tree_2_extremes(self):
        T = tree(2)
        assert set(_selected(T.labels, T.maximals())) == {"m"}
        assert set(_selected(T.labels, T.minimals())) == {"a", "b"}
        a, b = T.index("a"), T.index("b")
        assert not T.leq(a, b) and not T.leq(b, a)

    def test_dual_tree_3(self):
        V = dual_tree(3)
        assert V.minimals().bit_count() == 1 and V.maximals().bit_count() == 3

    def test_dual_tree_1_is_two_chain(self):
        assert dual_tree(1).n == 2 and dual_tree(1).krull_dim() == 1

    def test_dual_tree_4_extremes(self):
        V = dual_tree(4)
        mins, maxs = V.minimals(), V.maximals()
        assert maxs.bit_count() == 4 and mins.bit_count() == 1

    def test_wide_shapes_skip_the_root_letter(self):
        # the leaves take letters in order, passing over the root's
        T, V = tree(14), dual_tree(19)
        assert T.labels[12:] == ("n", "o", "m")
        assert V.labels[17:] == ("q", "s", "t")
        assert T.labels[:12] == tree(12).labels[:12]
        assert V.labels[:18] == dual_tree(17).labels

    def test_zero_size_rejected(self):
        for builder in (tree, dual_tree):
            with pytest.raises(ZeroSizeError):
                builder(0)


class TestWrittenShapes:
    """The shapes write their rows and heights down from their covers; the
    oracle closes the same covers and derives the rest from the rows."""

    @pytest.mark.parametrize(
        "builder, kind, sizes",
        [
            (chain, "C", range(1, 61)),
            (tree, "T", range(1, 41)),
            (dual_tree, "V", range(1, 41)),
            (antichain, "A", range(1, 21)),
        ],
    )
    def test_shapes_match_their_closure(self, builder, kind, sizes):
        for k in sizes:
            P = builder(k)
            assert _rows_and_reads(P) == _rows_and_reads(shape_by_closure(kind, k)), k

    def test_forests_match_their_closure(self):
        specs = forest_specs(9)
        assert len(specs) == 309
        for spec in specs:
            F = forest(spec)
            assert _rows_and_reads(F) == _rows_and_reads(forest_by_closure(spec)), spec

    def test_lowercase_kinds_and_unknown_kind(self):
        assert forest([("t", 2), ("c", 3)]) == forest([("T", 2), ("C", 3)])
        with pytest.raises(ValueError):
            forest([("C", 2), ("X", 1)])


class TestPointCap:
    """Rows take memory quadratic in the points, so a shape past the cap is
    refused before any row is built; one at the cap reaches the rows."""

    @pytest.fixture
    def no_rows(self, monkeypatch):
        class Built(Exception):
            pass

        def refuse(*args):
            raise Built

        monkeypatch.setattr(FinitePoset, "_written", refuse)
        return Built

    @pytest.mark.parametrize(
        "build, extra", [(chain, 0), (antichain, 0), (tree, 1), (dual_tree, 1)]
    )
    def test_shapes_at_and_past_the_cap(self, no_rows, build, extra):
        # ``extra`` is the point beyond the size parameter: a tree's top
        with pytest.raises(no_rows):
            build(MAX_POINTS - extra)
        with pytest.raises(RangeError, match=f"at most {MAX_POINTS} points, got {MAX_POINTS + 1}"):
            build(MAX_POINTS - extra + 1)

    def test_forests_count_every_component_first(self, no_rows):
        half = MAX_POINTS // 2
        with pytest.raises(no_rows):
            forest([("T", half - 1), ("V", MAX_POINTS - half - 1)])
        # each component fits alone; the forest does not
        with pytest.raises(RangeError, match=f"got {MAX_POINTS + 1}"):
            forest([("T", half - 1), ("C", MAX_POINTS - half + 1)])
        with pytest.raises(RangeError, match=f"got {MAX_POINTS + 2}"):
            forest([("T", half), ("V", MAX_POINTS - half)])


class TestForest:
    def test_t2_t3(self):
        F = forest([("T", 2), ("T", 3)])
        assert F.n == 7
        assert len(F.order_components()) == 2

    def test_v2_v3(self):
        F = forest([("V", 2), ("V", 3)])
        assert F.n == 7

    def test_single_tree_1(self):
        F = forest([("T", 1)])
        assert F.n == 2 and F.krull_dim() == 1

    def test_labels_are_suffixed(self):
        F = forest([("T", 2), ("T", 2)])
        assert "m#1" in F.labels and "m#2" in F.labels

    def test_empty_spec_rejected(self):
        with pytest.raises(EmptySpecError):
            forest([])

    def test_krull_dim_is_max_over_components(self):
        F = forest([("C", 4), ("T", 2), ("V", 3)])
        assert F.krull_dim() == max(3, 1, 1) == longest_chain_length(F)

    def test_extremes_of_t2_t3(self):
        F = forest([("T", 2), ("T", 3)])
        mins, maxs = F.minimals(), F.maximals()
        assert mins.bit_count() == 5 and maxs.bit_count() == 2


class TestHeight:
    def test_minimal_element_has_height_zero(self):
        T = tree(3)
        for x in _bits(T.minimals()):
            assert T.heights()[x] == 0

    def test_top_of_tree_5(self):
        T = tree(5)
        (top,) = _bits(T.maximals())
        assert T.heights()[top] == 1

    def test_middle_of_chain_3_matches_enumeration(self):
        P = chain(3)
        assert chains_ending_at(P, 1) == 1
        assert P.heights()[1] == 1

    def test_height_is_monotone(self, posets_upto_5):
        for P in posets_upto_5:
            for x in range(P.n):
                for y in range(P.n):
                    if P.leq(x, y):
                        assert P.heights()[x] <= P.heights()[y]

    def test_height_matches_oracle(self, posets_upto_5):
        for P in posets_upto_5:
            for x in range(P.n):
                assert P.heights()[x] == chains_ending_at(P, x)

    def test_index_error(self):
        # An index outside 0..n-1 is refused by the lookups that take one.
        P = chain(2)
        with pytest.raises(IndexError, match="out of range 0..1"):
            P.leq(0, 5)
        with pytest.raises(IndexError, match="out of range 0..1"):
            P.up_mask(-1)


class TestKrullDim:
    def test_antichain(self):
        assert antichain(4).krull_dim() == 0

    def test_t3_sqcup_v2(self):
        assert forest([("T", 3), ("V", 2)]).krull_dim() == 1

    def test_spec_s3_shape(self):
        P = poset_from_relation(["{0}", "{0,a}"], [("{0}", "{0,a}")])
        assert P.krull_dim() == 1

    def test_chain_dimension(self):
        for k in range(1, 7):
            assert chain(k).krull_dim() == k - 1

    def test_empty_poset_rejected(self):
        with pytest.raises(EmptyPosetError):
            FinitePoset([], []).krull_dim()


class TestExtremes:
    def test_singleton(self):
        P = poset_from_relation(["x"], [])
        assert (P.minimals(), P.maximals()) == (0b1, 0b1)

    def test_v3(self):
        V = dual_tree(3)
        mins, maxs = V.minimals(), V.maximals()
        assert mins.bit_count() == 1 and maxs.bit_count() == 3


class TestUpsets:
    def test_antichain_2_has_all_subsets(self):
        assert len(antichain(2).upset_masks()) == 4

    def test_chain_2(self):
        P = chain(2)
        assert set(P.upset_masks()) == {0b00, 0b10, 0b11}

    def test_tree_2_has_five(self):
        T = tree(2)
        assert upsets_by_filter(T) == upset_sets(T)
        assert len(T.upset_masks()) == 5

    def test_counts(self):
        for k in range(1, 6):
            assert len(antichain(k).upset_masks()) == 2**k
            assert len(chain(k).upset_masks()) == k + 1

    def test_matches_filter_oracle(self, posets_upto_6):
        # each up-set exactly once: an up-set lattice takes the masks as
        # its elements unchecked
        shapes = [forest(spec) for spec in forest_specs(9)]
        for P in list(posets_upto_6) + shapes:
            masks = P.upset_masks()
            assert len(set(masks)) == len(masks), P
            assert upset_sets(P) == upsets_by_filter(P), P

    def test_order_matches_the_recursive_walk(self, posets_upto_6):
        shapes = [[("V", 3)] * 3, [("T", 3), ("C", 4), ("V", 2)], [("C", 9)]]
        for P in list(posets_upto_6) + [forest(spec) for spec in shapes]:
            assert P.upset_masks() == recursive_upset_masks(P)

    def test_closed_under_union_and_intersection(self, posets_upto_6):
        for P in posets_upto_6:
            family = set(P.upset_masks())
            for A in family:
                for B in family:
                    assert A | B in family
                    assert A & B in family


class TestComponentShapes:
    def test_two_chain_reports_as_chain(self):
        P = chain(2)
        (comp,) = P.order_components()
        assert component_shape(P, comp) == ("C", 2)

    def test_tree_and_dual_tree(self):
        T = tree(3)
        assert component_shape(T, T.order_components()[0]) == ("T", 3)
        V = dual_tree(2)
        assert component_shape(V, V.order_components()[0]) == ("V", 2)

    def test_forest_of_trees_predicate(self):
        assert is_forest_of_trees(forest([("T", 2), ("T", 3)]))
        assert not is_forest_of_trees(forest([("T", 2), ("T", 1)]))
        assert not is_forest_of_trees(forest([("V", 2)]))

    def test_dual_tree_detection_includes_two_chains(self):
        assert has_dual_tree_component(forest([("T", 2), ("C", 2)]))
        assert has_dual_tree_component(forest([("V", 3)]))
        assert not has_dual_tree_component(forest([("T", 2), ("T", 5)]))
        assert not has_dual_tree_component(forest([("C", 3)]))


class TestComponentShapesOffTheRows:
    """The mask reads agree with the pairwise scans on every component."""

    @staticmethod
    def _agree(P):
        for comp in P.order_components():
            assert component_shape(P, comp) == pairwise_component_shape(P, comp)
            assert is_tree_component(P, comp) == pairwise_tree_component(P, comp)
            assert is_dual_tree_component(P, comp) == pairwise_dual_tree_component(P, comp)

    def test_every_poset_upto_6(self, posets_upto_6):
        for P in posets_upto_6:
            self._agree(P)

    def test_every_forest_upto_9(self):
        for spec in forest_specs(9):
            self._agree(forest(spec))

    def test_sets_that_are_not_components(self):
        F = forest([("T", 2), ("V", 2), ("C", 3)])
        for part in range(1 << F.n):
            assert component_shape(F, part) == pairwise_component_shape(F, part)


def test_matrix_view(posets_upto_5):
    # up_rows() and down_rows() are the rows and columns of the leq matrix.
    for P in posets_upto_5:
        for i in range(P.n):
            assert P.up_rows()[i] == P.up_mask(i)
            for j in range(P.n):
                assert bool(P.up_rows()[i] >> j & 1) == P.leq(i, j)
                assert bool(P.down_rows()[j] >> i & 1) == P.leq(i, j)


def test_covers_match_naive_definition(posets_upto_5):
    for P in posets_upto_5:
        naive = tuple(
            sorted(
                (i, j)
                for i in range(P.n)
                for j in range(P.n)
                if P.lt(i, j)
                and not any(P.lt(i, k) and P.lt(k, j) for k in range(P.n))
            )
        )
        assert P.covers() == naive


def test_restrict_induced_subposet():
    F = forest([("T", 2), ("C", 2)])
    comp = next(c for c in F.order_components() if c.bit_count() == 3)
    sub = restrict(F, _bits(comp))
    assert sub.n == 3
    assert component_shape(sub, 0b111) == ("T", 2)


def _mixed_masks() -> list[int]:
    """Masks of mixed bit lengths, and many sets of one size among few
    elements, shuffled."""
    rng = random.Random(30)
    masks = {0} | {rng.getrandbits(rng.choice((1, 3, 8, 17, 40, 70))) for _ in range(3000)}
    for size in (1, 2, 3, 4):
        masks |= {sum(1 << b for b in rng.sample(range(12), size)) for _ in range(300)}
    masks = list(masks)
    rng.shuffle(masks)
    return masks


class TestSizeKey:
    """The one sort key of listed point sets and ideals against the
    (size, sorted elements) order it stands for."""

    def test_matches_the_size_then_sorted_list_order(self):
        masks = _mixed_masks()

        def as_list(mask):
            return sorted(_bits(mask))

        expected = sorted(masks, key=lambda m: (len(as_list(m)), as_list(m)))
        assert sorted(masks, key=_size_key, reverse=True) == expected
        assert expected[0] == 0
        assert len(masks) - len({m.bit_count() for m in masks}) > 2000

    def test_two_pass_sort_gives_the_key_order(self, posets_upto_5):
        # the library sorts with _size_sorted; on the masks above, every
        # ideal family of S3 and of the B(n, i) up to n = 12, and the closed
        # and open families of every space on at most 5 points, it gives
        # the order of _size_key
        from xtoplat import from_poset
        from xtoplat.semiring import bni, ideals, s3

        families = [_mixed_masks()]
        families += [ideals(R) for R in [s3(), *(bni(n, i) for n in range(2, 13) for i in range(n))]]
        for P in posets_upto_5:
            space = from_poset(P)
            closed = set(space.variety_masks)
            families += [closed, {space.points & ~C for C in closed}]
        rng = random.Random(31)
        for family in families:
            masks = list(family)
            rng.shuffle(masks)
            assert _size_sorted(masks) == sorted(masks, key=_size_key, reverse=True)

    def test_selected_labels_follow_the_indices(self):
        labels = ("b", "a", "10", "c")
        assert list(_selected(labels, 0)) == []
        assert list(_selected(labels, 0b1101)) == ["b", "10", "c"]
        assert list(_selected(labels, 0b0110)) == ["a", "10"]
