"""Spaces: varieties, radicals, the carrier criteria, closure operators.

Claims covered:
    - V(bottom) = X, V(top) = ∅, V(a ∨ b) = V(a) ∩ V(b)
    - the radical map is inflationary, idempotent, monotone, fixes X
    - union closure and strong irreducibility agree on every small instance
    - from_poset spaces have closed sets = up-sets, kernel = ↓x, cl{x} = ↑x
    - closure is a Kuratowski operator; interior is its dual
    - subspace topologies are the trace topologies
"""

import json

import pytest

from xtoplat import (
    EmptyPosetError,
    FiniteLattice,
    NotXTopError,
    SubsetViolationError,
    XTopSpace,
    antichain,
    build_space,
    chain,
    covariety,
    dual_tree,
    forest,
    from_poset,
    is_xtop_by_irreducibility,
    is_xtop_by_unions,
    poset_from_relation,
    radical_info,
    tree,
    upset_lattice,
    variety,
)
from xtoplat.enumeration import all_lattices_upto, forest_specs
from xtoplat.formats import dumps, space_from_json, space_to_json
from xtoplat.poset import _bits
from xtoplat.semiring import bni, s3, spec_poset, spec_space
from xtoplat.separation import cross_check, report_and_points

from .oracles import (
    eager_views,
    excluded_meet,
    mask,
    members,
    minimals_of,
    naive_closure,
    naive_interior,
    naive_kernel,
    open_family,
    points,
    subsets,
)


def m3_lattice():
    P = poset_from_relation(
        ["bot", "p", "q", "r", "top"],
        [("bot", "p"), ("bot", "q"), ("bot", "r"), ("p", "top"), ("q", "top"), ("r", "top")],
    )
    return FiniteLattice(P)


class TestVariety:
    def test_bottom_and_top(self):
        L, emb = upset_lattice(tree(2))
        X = mask(emb.values())
        assert variety(L, X, L.bottom) == X
        assert variety(L, X, L.top) == 0

    def test_variety_in_tree_space(self):
        P = tree(2)
        L, emb = upset_lattice(P)
        X = mask(emb.values())
        a, m = emb[P.index("a")], emb[P.index("m")]
        assert variety(L, X, a) == mask({a, m})

    def test_covariety_complements(self):
        L, emb = upset_lattice(tree(2))
        X = mask(emb.values())
        for a in range(L.n):
            assert covariety(L, X, a) == X & ~variety(L, X, a)

    def test_covariety_in_spec_z12(self):
        space = spec_space(bni(12, 0))
        ideal3 = next(x for x in _bits(space.points) if space.label(x) == "{0,3,6,9}")
        ideal2 = next(x for x in _bits(space.points) if space.label(x) == "{0,2,4,6,8,10}")
        assert covariety(space.lattice, space.points, ideal3) == mask({ideal2})

    def test_index_error(self):
        L, emb = upset_lattice(tree(2))
        with pytest.raises(IndexError):
            variety(L, mask(emb.values()), L.n + 3)

    def test_intersection_rule(self, posets_upto_5):
        for P in posets_upto_5:
            space = from_poset(P)
            L, X = space.lattice, space.points
            for a in range(L.n):
                for b in range(L.n):
                    assert variety(L, X, L.join(a, b)) == variety(L, X, a) & variety(L, X, b)


class TestRadical:
    def test_x_is_radical(self, posets_upto_5):
        for P in posets_upto_5:
            space = from_poset(P)
            info = radical_info(space.lattice, space.points)
            assert members(space.points) <= members(info.radical_elements)

    def test_empty_variety_gives_top(self):
        L, emb = upset_lattice(chain(2))
        info = radical_info(L, mask(emb.values()))
        assert info.radical_of[L.top] == L.top

    def test_dual_tree_bottom_is_radical(self):
        P = dual_tree(2)
        L, emb = upset_lattice(P)
        info = radical_info(L, mask(emb.values()))
        assert L.bottom in members(info.radical_elements)

    def test_inflationary_idempotent_monotone(self, posets_upto_5):
        for P in posets_upto_5:
            space = from_poset(P)
            L = space.lattice
            r = radical_info(L, space.points).radical_of
            for a in range(L.n):
                assert L.leq(a, r[a])
                assert r[r[a]] == r[a]
                for b in range(L.n):
                    if L.leq(a, b):
                        assert L.leq(r[a], r[b])


class TestCarrierCriteria:
    def test_empty_carrier(self):
        L = m3_lattice()
        assert is_xtop_by_unions(L, mask(()))
        assert is_xtop_by_irreducibility(L, mask(()))

    def test_singleton_carrier(self):
        L = m3_lattice()
        assert is_xtop_by_irreducibility(L, mask({1}))
        assert is_xtop_by_unions(L, mask({1}))

    def test_m3_middles_fail_both_ways(self):
        L = m3_lattice()
        middles = mask({1, 2, 3})
        assert not is_xtop_by_unions(L, middles)
        assert not is_xtop_by_irreducibility(L, middles)

    def test_upset_images_always_pass(self, posets_upto_5):
        for P in posets_upto_5:
            L, emb = upset_lattice(P)
            assert is_xtop_by_unions(L, mask(emb.values()))

    def test_spec_s3_passes(self):
        space = spec_space(s3())
        assert is_xtop_by_irreducibility(space.lattice, space.points)

    def test_build_space_rejects_m3_middles_with_witness(self):
        L = m3_lattice()
        with pytest.raises(NotXTopError) as err:
            build_space(L, mask({1, 2, 3}))
        assert set(err.value.witness) <= {"p", "q", "r"}


class TestBuildSpace:
    def test_spec_s3_opens(self):
        space = spec_space(s3())
        opens = {space.labels_of(mask(U)) for U in open_family(space)}
        assert opens == {(), ("{0}",), ("{0}", "{0,a}")}

    def test_antichain_3_is_discrete(self):
        space = from_poset(antichain(3))
        assert len(open_family(space)) == 8

    def test_dual_tree_closed_sets_are_upsets(self):
        P = dual_tree(2)
        space = from_poset(P)
        assert len(space.closed_family) == len(P.upset_masks())

    def test_closed_family_equals_upsets(self, posets_upto_5):
        for P in posets_upto_5:
            space = from_poset(P)
            L, emb = upset_lattice(P)
            expected = {mask(emb[x] for x in _bits(U)) for U in P.upset_masks()}
            assert set(space.closed_family) == expected
            # the mask route against build_space over the tabled lattice
            reference = build_space(FiniteLattice(L.poset), mask(emb.values()))
            assert space.points == reference.points
            assert space.variety_masks == reference.variety_masks
            assert space.closed_family == reference.closed_family
            assert open_family(space) == open_family(reference)

    def test_from_poset_rejects_empty(self):
        with pytest.raises(EmptyPosetError):
            from_poset(poset_from_relation([], []))


class TestClosureInteriorKernel:
    def test_closure_of_empty(self):
        space = from_poset(tree(2))
        assert space.closure(mask(())) == mask(())

    def test_closure_of_point_is_up_set(self, posets_upto_5):
        for P in posets_upto_5:
            space = from_poset(P)
            L, emb = upset_lattice(P)
            for x in range(P.n):
                expected = mask(emb[y] for y in _bits(P.up_mask(x)))
                assert space.closure(mask({emb[x]})) == expected

    def test_closure_of_tree_minimals_is_everything(self):
        P = tree(2)
        space = from_poset(P)
        minimals = mask(x for x in _bits(space.points) if space.label(x) in ("a", "b"))
        assert space.closure(minimals) == space.points

    def test_closure_is_smallest_closed_superset(self, posets_upto_5):
        for P in posets_upto_5:
            if P.n > 4:
                continue
            space = from_poset(P)
            for Y in subsets(points(space)):
                assert space.closure(mask(Y)) == mask(naive_closure(space, Y))

    def test_kuratowski_axioms(self, posets_upto_5):
        for P in posets_upto_5:
            if P.n > 4:
                continue
            space = from_poset(P)
            pts = space.points
            for Y in map(mask, subsets(_bits(pts))):
                cl = space.closure(Y)
                assert Y & ~cl == 0
                assert space.closure(cl) == cl
                for Z in map(mask, subsets(_bits(pts))):
                    assert space.closure(Y | Z) == cl | space.closure(Z)

    # The interior of Y is X \ cl(X \ Y); these check space.closure through it.

    def test_interior_of_whole_space(self):
        space = from_poset(tree(2))
        pts = space.points
        assert pts & ~space.closure(mask(())) == pts

    def test_interior_of_tree_top_is_empty(self):
        space = from_poset(tree(2))
        pts = space.points
        top = next(x for x in _bits(pts) if space.label(x) == "m")
        assert pts & ~space.closure(pts & ~mask({top})) == mask(())

    def test_interior_of_variety_of_minimal(self):
        space = from_poset(tree(2))
        pts = space.points
        a = next(x for x in _bits(pts) if space.label(x) == "a")
        assert pts & ~space.closure(pts & ~variety(space.lattice, pts, a)) == mask({a})

    def test_interior_is_largest_open_inside(self, posets_upto_5):
        for P in posets_upto_5:
            if P.n > 4:
                continue
            space = from_poset(P)
            pts = space.points
            for Y in subsets(_bits(pts)):
                assert pts & ~space.closure(pts & ~mask(Y)) == mask(naive_interior(space, Y))

    def test_kernel_of_isolated_point(self):
        space = from_poset(antichain(2))
        for x in _bits(space.points):
            assert naive_kernel(space, x) == frozenset({x})

    def test_kernel_is_down_set(self, posets_upto_5):
        for P in posets_upto_5:
            space = from_poset(P)
            L, emb = upset_lattice(P)
            for x in range(P.n):
                expected = frozenset(emb[y] for y in _bits(P.down_rows()[x]))
                assert naive_kernel(space, emb[x]) == expected

    def test_kernel_of_chain_top_is_everything(self):
        space = from_poset(chain(3))
        top = next(x for x in _bits(space.points) if space.label(x) == "x2")
        assert naive_kernel(space, top) == points(space)

    def test_subset_violation(self):
        space = from_poset(chain(2))
        with pytest.raises(SubsetViolationError):
            space.closure(mask({space.lattice.top}) | space.points)


class TestExcludedMeet:
    def test_singleton_space(self):
        space = from_poset(chain(1))
        (x,) = _bits(space.points)
        e, d, excluded = excluded_meet(space, x)
        assert e == d == space.lattice.top and excluded

    def test_tree_minimal_is_excluded(self):
        space = from_poset(tree(2))
        a = next(x for x in _bits(space.points) if space.label(x) == "a")
        assert excluded_meet(space, a)[2]

    def test_dual_tree_minimal_is_not_excluded(self):
        space = from_poset(dual_tree(2))
        r = next(x for x in _bits(space.points) if space.label(x) == "r")
        assert not excluded_meet(space, r)[2]


class TestSubspace:
    def test_full_subspace_is_identity(self):
        space = from_poset(tree(2))
        assert open_family(space.subspace(space.points)) == open_family(space)

    def test_spec_s3_max_is_discrete_singleton(self):
        space = spec_space(s3(), "max")
        assert space.n_points == 1
        assert len(open_family(space)) == 2

    def test_punctured_bni_spectrum_is_tree_shaped(self):
        from xtoplat.enumeration import canonical_form
        from xtoplat.semiring import omega

        space = spec_space(bni(6, 3))
        zero = next(x for x in _bits(space.points) if space.label(x) == "{0}")
        punctured = space.subspace(space.points & ~mask({zero}))
        shape = canonical_form(punctured.specialization_poset())
        assert shape == canonical_form(tree(omega(3)))

    def test_trace_topology(self, posets_upto_5):
        for P in posets_upto_5:
            if P.n > 4:
                continue
            space = from_poset(P)
            opens = open_family(space)
            for Y in subsets(points(space)):
                sub = space.subspace(mask(Y))
                traces = {U & Y for U in opens}
                assert set(open_family(sub)) == traces

    def test_subset_violation(self):
        space = from_poset(chain(2))
        with pytest.raises(SubsetViolationError):
            space.subspace(mask({space.lattice.top}))


def test_union_criteria_agree_on_forests():
    for spec in ([("T", 2)], [("V", 3)], [("C", 3), ("T", 2)]):
        space = from_poset(forest(spec))
        L, X = space.lattice, space.points
        assert is_xtop_by_unions(L, X) and is_xtop_by_irreducibility(L, X)


def test_every_sub_carrier_gives_the_trace_topology(lattices_upto_5):
    from .oracles import subsets

    for L in lattices_upto_5:
        if L.n > 4:
            continue
        candidates = [i for i in range(L.n) if i != L.top]
        for X in subsets(candidates):
            if not is_xtop_by_unions(L, mask(X)):
                continue
            space = build_space(L, mask(X))
            opens = open_family(space)
            for Y in subsets(X):
                sub = space.subspace(mask(Y))
                assert set(open_family(sub)) == {U & frozenset(Y) for U in opens}


class TestCarrierLemmas:
    """The one-pass lemmas of the carrier criteria against the pair forms
    they replace: the same verdicts, and the same first failing pair."""

    @staticmethod
    def agree(L, X) -> bool:
        from xtoplat.topology import _irreducible, _union_witness

        from .oracles import pair_irreducible, pair_union_witness

        masks = L.variety_masks(mask(X))
        radicals = radical_info(L, mask(X)).radical_elements
        witness = pair_union_witness(masks)
        assert _union_witness(masks) == witness
        assert _irreducible(L, masks, radicals) == pair_irreducible(L, masks, radicals)
        return witness is None

    def test_every_pair_of_the_seven_element_xct_sweep(self):
        # the 3975 (L, X) of `verify xct --max-size 7`, which include every
        # carrier candidate of the lattices with at most 6 elements
        verdicts = [
            self.agree(L, X)
            for L in all_lattices_upto(7)
            for X in subsets(i for i in range(L.n) if i != L.top)
        ]
        assert len(verdicts) == 3975 and True in verdicts and False in verdicts


def test_carrier_criteria_agree_on_all_six_element_lattices(lattices_upto_6):
    for L in lattices_upto_6:
        candidates = [i for i in range(L.n) if i != L.top]
        for mask in range(1 << len(candidates)):
            X = sum(1 << c for k, c in enumerate(candidates) if mask >> k & 1)
            assert is_xtop_by_unions(L, X) == is_xtop_by_irreducibility(L, X)


class TestMaskCriteria:
    """The variety-mask criteria against the leq-based oracles: the verdicts,
    the union witness (hence the NotXTopError message) and RadicalInfo."""

    @staticmethod
    def agree(L, X):
        from xtoplat.topology import _union_witness

        from .oracles import (
            leq_is_xtop_by_irreducibility,
            leq_radical_info,
            leq_union_witness,
        )

        X = frozenset(X)
        masks = L.variety_masks(mask(X))
        assert masks == tuple(
            sum(1 << x for x in X if L.leq(a, x)) for a in range(L.n)
        )
        witness = leq_union_witness(L, X)
        assert _union_witness(masks) == witness
        assert is_xtop_by_unions(L, mask(X)) == (witness is None)
        assert is_xtop_by_irreducibility(L, mask(X)) == leq_is_xtop_by_irreducibility(L, X)
        assert radical_info(L, mask(X)) == leq_radical_info(L, X)
        if witness is None:
            assert build_space(L, mask(X)).variety_masks == masks
        else:
            with pytest.raises(NotXTopError) as err:
                build_space(L, mask(X))
            a, b = witness
            assert str(err.value) == str(NotXTopError(L.labels[a], L.labels[b]))
        return witness is None

    def test_every_carrier_candidate_up_to_six_elements(self, lattices_upto_6):
        verdicts = []
        for L in lattices_upto_6:
            for X in subsets(i for i in range(L.n) if i != L.top):
                verdicts.append(self.agree(L, X))
        # both verdicts occur, so the witness comparison is exercised
        assert True in verdicts and False in verdicts

    def test_upset_lattices_of_posets_up_to_five_points(self, posets_upto_5):
        for P in posets_upto_5:
            space = from_poset(P)
            L, X = space.lattice, space.points
            for Y in (members(X), members(L.maximals_of(X)), minimals_of(L, _bits(X))):
                assert self.agree(L, Y)
            # the mask storage reads the same varieties as the order rows
            assert L.variety_masks(X) == FiniteLattice(L.poset).variety_masks(X)

    def test_every_candidate_over_small_upset_lattices(self, posets_upto_5):
        verdicts = []
        for P in posets_upto_5:
            if P.n > 3:
                continue
            L, _ = upset_lattice(P)
            for X in subsets(i for i in range(L.n) if i != L.top):
                verdicts.append(self.agree(L, X))
        assert True in verdicts and False in verdicts

    def test_witness_order_past_five_elements(self):
        # (size, sorted elements) and (size, mask) order the varieties
        # differently here, and the first non-closed union changes with it
        L, _ = upset_lattice(antichain(4))
        names = ["a1", "a2", "{a0,a2}", "{a1,a3}", "{a0,a1,a2,a3}"]
        X = frozenset(L.labels.index(name) for name in names)
        assert not self.agree(L, X)
        with pytest.raises(NotXTopError) as err:
            build_space(L, mask(X))
        assert "V('{a1,a3}') ∪ V('{a0,a2}')" in str(err.value)


def assert_matches_eager_views(space):
    """The closed family, kernels, specialization order and subspaces of a
    space against the eager frozenset construction and build_space."""
    L, X = space.lattice, points(space)
    varieties, closed, opens = eager_views(L, X)
    assert space.variety_masks == tuple(map(mask, varieties))
    assert space.closed_family == tuple(map(mask, closed))
    P = space.specialization_poset()
    pts = space.sorted_points()
    assert [P.up_mask(k) for k in range(P.n)] == [
        sum(1 << j for j, y in enumerate(pts) if L.leq(x, y)) for x in pts
    ]
    # Ker(x), the meet of the opens around x, is ↓x in that order
    for k, x in enumerate(pts):
        kernel = X
        for U in opens:
            if x in U:
                kernel &= U
        assert frozenset(pts[j] for j in _bits(P.down_rows()[k])) == kernel
    for Y in subsets(pts):
        sub = space.subspace(mask(Y))
        assert sub.points == mask(Y)
        assert sub.variety_masks == build_space(L, mask(Y)).variety_masks
        assert sub.closed_family == tuple(map(mask, eager_views(L, Y)[1]))


class TestMaskViews:
    """A space stores only its variety masks; every read of it meets the
    eager frozenset construction."""

    def test_every_carrier_up_to_six_elements(self, lattices_upto_6):
        count = 0
        for L in lattices_upto_6:
            for X in subsets(i for i in range(L.n) if i != L.top):
                if is_xtop_by_unions(L, mask(X)):
                    assert_matches_eager_views(build_space(L, mask(X)))
                    count += 1
        assert count == 429

    def test_from_poset_up_to_five_points(self, posets_upto_5):
        for P in posets_upto_5:
            assert_matches_eager_views(from_poset(P))

    def test_spectra_of_bni_up_to_twelve(self):
        for n in range(2, 13):
            for i in range(n):
                for which in ("all", "max", "min"):
                    assert_matches_eager_views(spec_space(bni(n, i), which))

    @pytest.mark.parametrize(
        "make",
        [lambda: from_poset(forest([("V", 3)] * 3)), lambda: spec_space(bni(12, 3))],
        ids=["V3+V3+V3", "B(12,3)"],
    )
    def test_reads_leave_the_views_unbuilt(self, make, monkeypatch):
        # the closed family is built only for the printers; the report, the
        # point rows and cross_check read the masks
        space = make()
        reads = []

        def refuse(self):
            reads.append(self)
            raise AssertionError("the closed family was built")

        monkeypatch.setattr(XTopSpace, "closed_family", property(refuse))
        sub = space.subspace(mask(space.sorted_points()[1:]))
        for s in (space, sub):
            cross_check(s)
            report_and_points(s)
        assert reads == []
        with pytest.raises(AssertionError, match="closed family was built"):
            space.closed_family
        assert reads == [space]


class TestPointsAreTheBottomVariety:
    """X = V(bottom): on every route that builds a space, ``points`` is the
    member set the space was built from."""

    @staticmethod
    def check(space, X):
        X = frozenset(X)
        assert space.points == mask(X) and space.n_points == len(X)
        assert space.sorted_points() == tuple(sorted(X))

    def test_build_space_up_to_six_elements(self, lattices_upto_6):
        for L in lattices_upto_6:
            for X in subsets(i for i in range(L.n) if i != L.top):
                if is_xtop_by_unions(L, mask(X)):
                    self.check(build_space(L, mask(X)), X)

    def test_from_poset_up_to_six_points(self, posets_upto_6):
        for P in posets_upto_6:
            _, embedding = upset_lattice(P)
            self.check(from_poset(P), embedding.values())

    def test_subspace(self, posets_upto_5):
        for P in posets_upto_5:
            if P.n > 4:
                continue
            space = from_poset(P)
            for Y in subsets(points(space)):
                self.check(space.subspace(mask(Y)), Y)

    @pytest.mark.parametrize("which", ["all", "max", "min", "drop-zero"])
    def test_spec_space(self, which):
        for R in [s3()] + [bni(n, i) for n in range(2, 13) for i in range(n)]:
            space = spec_space(R, which)
            chosen = spec_poset(R, which).labels
            self.check(space, (space.lattice.labels.index(name) for name in chosen))

    def test_space_from_json(self):
        spaces = [from_poset(forest(spec)) for spec in forest_specs(5)]
        spaces += [spec_space(bni(12, 3), which) for which in ("all", "max", "min")]
        for space in spaces:
            data = json.loads(dumps(space_to_json(space)))
            loaded = space_from_json(data)
            self.check(loaded, (loaded.lattice.labels.index(name) for name in data["X"]))
            assert loaded == space
