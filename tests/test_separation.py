"""Separation axioms, point classification, and the theorem cross-checker.

The flags are read off the specialization order; here they are compared
with naive open-family scans (oracles.py) and with directly computable
structure (kernel/closure shapes, component counts).  cross_check itself
is exercised exhaustively in test_acceptance.py; this module pins the
concrete examples.
"""

import json
from types import SimpleNamespace

import pytest

from xtoplat import (
    antichain,
    chain,
    classify_points,
    cross_check,
    dual_tree,
    forest,
    from_poset,
    jacobson_and_prime_meets,
    report_and_points,
    separation_report,
    tree,
)
from xtoplat.enumeration import forest_specs
from xtoplat.errors import CycleError, XtoplatError
from xtoplat.formats import dumps, report_to_json
from xtoplat.lattice import has_complete_max_property
from xtoplat.semiring import bni, s3, spec_space
from xtoplat.topology import XTopSpace, build_space, is_xtop_by_unions, radical_info

from .oracles import (
    TABLE_ATTRIBUTES,
    closed_points,
    excluded_meet,
    isolated_points,
    lattice_point_classes,
    leq_completely_strongly_irreducible,
    leq_strongly_irreducible,
    meet_irredundant,
    naive_closure,
    naive_components,
    naive_connected,
    naive_ind_zero_dim,
    naive_interior,
    naive_irreducible,
    naive_kernel,
    naive_quasi_hausdorff,
    naive_quasicomponents,
    naive_sober,
    naive_t0,
    naive_t1,
    naive_t2,
    naive_tf,
    mask,
    pair_scan_flags,
    points,
    subsets,
)


def point_classes(space):
    """Min(X), Max(X), RO and Excl as sets of points: the is_min, is_max,
    is_regular_open and is_excluded columns of ``classify_points``."""
    rows = list(zip(space.sorted_points(), classify_points(space)))

    def column(name):
        return frozenset(x for x, p in rows if getattr(p, name))

    return SimpleNamespace(
        min=column("is_min"),
        max=column("is_max"),
        ro=column("is_regular_open"),
        excl=column("is_excluded"),
    )


def component_points(space, parts):
    """The report's component label tuples as sets of points."""
    point = {space.label(x): x for x in points(space)}
    return [frozenset(point[label] for label in part) for part in parts]


@pytest.fixture(scope="module")
def carriers_and_forests(lattices_upto_5):
    """Every X-top (L, X) with |L| <= 5 (89 spaces, 11 not T_F) and every
    T/V/C forest on <= 7 points (106 spaces, 33 not T_F)."""
    spaces = []
    for L in lattices_upto_5:
        for X in subsets(i for i in range(L.n) if i != L.top):
            if is_xtop_by_unions(L, mask(X)):
                spaces.append(build_space(L, mask(X)))
    spaces.extend(from_poset(forest(spec)) for spec in forest_specs(7))
    return spaces


class TestSpecialSets:
    def test_t2_t3_forest(self):
        space = from_poset(forest([("T", 2), ("T", 3)]))
        s = point_classes(space)
        assert s.min == s.ro == isolated_points(space) and len(s.min) == 5
        assert closed_points(space) == s.max and len(s.max) == 2

    def test_spec_s3(self):
        space = spec_space(s3())
        s = point_classes(space)
        zero = next(x for x in points(space) if space.label(x) == "{0}")
        maximal = next(x for x in points(space) if space.label(x) == "{0,a}")
        assert isolated_points(space) == s.min == frozenset({zero})
        assert closed_points(space) == s.max == frozenset({maximal})

    def test_finite_carrier_is_all_csi(self, posets_upto_5):
        for P in posets_upto_5:
            space = from_poset(P)
            assert leq_completely_strongly_irreducible(space) == points(space)
            assert leq_strongly_irreducible(space) == points(space)


class TestClassifyPoints:
    def test_singleton(self):
        (p,) = classify_points(from_poset(chain(1)))
        assert p.is_closed and p.is_isolated and p.is_regular_open

    def test_dual_tree_minimal_isolated_not_regular_open(self):
        space = from_poset(dual_tree(2))
        p = next(p for p in classify_points(space) if p.label == "r")
        assert p.is_isolated and not p.is_regular_open

    def test_s3_zero_ideal(self):
        space = spec_space(s3())
        p = next(p for p in classify_points(space) if p.label == "{0}")
        assert p.is_kerneled and p.is_isolated and not p.is_closed

    def test_flag_identities(self, posets_upto_5):
        for P in posets_upto_5:
            for p in classify_points(from_poset(P)):
                assert p.is_closed == p.is_max
                assert p.is_kerneled == p.is_min
                assert p.is_isolated == (p.is_min and p.in_CSI)
                assert p.is_regular_open == (p.is_isolated and p.is_excluded)


class TestSeparationReport:
    def test_spec_s3(self):
        r = separation_report(spec_space(s3()))
        assert r.t0 and not r.t1
        assert r.kdim == 1

    def test_t2_t3_forest(self):
        r = separation_report(from_poset(forest([("T", 2), ("T", 3)])))
        assert r.t_threequarter and not r.t1

    def test_v2_v3_forest(self):
        r = separation_report(from_poset(forest([("V", 2), ("V", 3)])))
        assert r.t_half and not r.t_threequarter

    def test_two_chain(self):
        r = separation_report(from_poset(chain(2)))
        assert r.t_half and not r.t_threequarter

    def test_three_chain_not_quarter(self):
        r = separation_report(from_poset(chain(3)))
        assert r.kdim == 2
        assert not r.t_quarter and r.t0

    def test_antichain_is_discrete_t2(self):
        r = separation_report(from_poset(antichain(3)))
        assert r.discrete and r.t1 and r.t2 and r.t1half_kc

    def test_axiom_ladder(self, posets_upto_5):
        for P in posets_upto_5:
            r = separation_report(from_poset(P))
            assert r.t0
            if r.t1:
                assert r.t_threequarter
            if r.t_threequarter:
                assert r.t_half
            if r.t_half:
                assert r.t_quarter

    def test_flags_match_naive_scans(self, posets_upto_5, carriers_and_forests):
        for space in [from_poset(P) for P in posets_upto_5] + carriers_and_forests:
            r = separation_report(space)
            assert r.t0 == naive_t0(space)
            assert r.t1 == naive_t1(space)
            assert r.t2 == naive_t2(space)
            assert r.tf == naive_tf(space)
            assert r.irreducible == naive_irreducible(space)
            assert r.sober == naive_sober(space)
            assert r.quasi_hausdorff == naive_quasi_hausdorff(space)
            # the point classes and partitions read off the order
            s = point_classes(space)
            X = points(space)
            assert closed_points(space) == s.max
            assert isolated_points(space) == s.min
            assert s.ro == {
                x
                for x in X
                if naive_interior(space, naive_closure(space, frozenset({x}))) == {x}
            }
            quasi = set(naive_quasicomponents(space).values())
            assert set(component_points(space, r.components)) == quasi
            assert {frozenset(part) for part in r.quasicomponents} == {
                frozenset(space.labels_of(mask(Q))) for Q in quasi
            }
            assert r.totally_separated == all(len(Q) == 1 for Q in quasi)
            assert r.ind_zero_dim == naive_ind_zero_dim(space)
            assert r.connected == naive_connected(space)
            # every proper radical lies below a point, so Max(X) is the
            # set of maximal proper radicals
            L = space.lattice
            carrier = radical_info(L, space.points).radical_elements & ~mask({L.top})
            assert r.complete_max_property == has_complete_max_property(L, carrier)

    def test_report_serializes(self):
        d = json.loads(dumps(report_to_json(*report_and_points(from_poset(tree(2))))))
        assert d["t_threequarter"] is True
        assert isinstance(d["components"], list)


class TestPosetSource:
    """A poset is classified off its order, as the space from_poset gives."""

    def test_matches_the_materialized_space(self, posets_upto_6):
        for P in posets_upto_6:
            assert report_and_points(P) == report_and_points(from_poset(P)), P
        for spec in forest_specs(8):
            P = forest(spec)
            assert report_and_points(P) == report_and_points(from_poset(P)), spec

    def test_single_entry_points_agree(self):
        P = forest([("T", 2), ("V", 2), ("C", 3)])
        assert separation_report(P) == separation_report(from_poset(P))
        assert classify_points(P) == classify_points(from_poset(P))


class TestOrderLemmas:
    """The report reads the lattice classes, KC/discrete and the pair flags
    off the specialization order; here they meet the definitions: meets in
    L, ``excluded_meet``, the family sizes and the pair scans."""

    def test_lattice_classes_match_meets_in_the_lattice(self, lattice_spaces):
        assert len(lattice_spaces) == 742
        for space in lattice_spaces:
            o = lattice_point_classes(space)
            X = points(space)
            s = point_classes(space)
            assert (s.min, s.max, s.excl) == (o["min"], o["max"], o["excl"])
            # SI = CSI = X, AMin = Min and BMax = Max
            assert (o["si"], o["csi"], o["amin"], o["bmax"]) == (X, X, s.min, s.max)
            rows = {p.label: p for p in classify_points(space)}
            for x in X:
                p = rows[space.label(x)]
                assert (p.in_SI, p.in_CSI, p.is_abs_min, p.is_barely_max) == (
                    x in o["si"],
                    x in o["csi"],
                    x in o["amin"],
                    x in o["bmax"],
                )
                assert p.is_excluded == (x in o["excl"])
            r = separation_report(space)
            assert r.es == (o["min"] - o["max"] <= o["csi"])
            assert (r.amin, r.bmax, r.complete_max_property) == (
                o["amin"] == o["min"],
                o["bmax"] == o["max"],
                o["bmax"] == o["max"],
            )
            assert (r.pamin, r.pbmax) == (o["amin"] == X, o["bmax"] == X)
            assert (r.t1half_kc, r.discrete) == (o["kc"], o["discrete"])
            pm = jacobson_and_prime_meets(space)
            assert (pm.jacobson_irredundant, pm.min_meet_irredundant) == (
                meet_irredundant(space, o["max"]),
                meet_irredundant(space, o["min"]),
            )

    def test_graphical_reads_match_the_definitions(self, lattice_spaces, posets_upto_6):
        # RO and Excl off Min and the rows ↓y, T_F and T¾ off Max ∪ Min and
        # Max ∪ RO, against interior(closure({x})), excluded_meet and the
        # subset scan for T_F; a poset source is compared with from_poset(P)
        sources = [(space, space) for space in lattice_spaces]
        posets = list(posets_upto_6) + [forest(spec) for spec in forest_specs(8)]
        sources += [(P, from_poset(P)) for P in posets]
        assert len(sources) == 742 + 405 + 183
        for source, space in sources:
            r, rows = report_and_points(source)
            X = points(space)
            ro = {
                x
                for x in X
                if naive_interior(space, naive_closure(space, frozenset({x}))) == {x}
            }
            excl = {x for x in X if excluded_meet(space, x)[2]}
            closed = {x for x in X if naive_closure(space, frozenset({x})) == {x}}
            assert [p.is_regular_open for p in rows] == [
                x in ro for x in space.sorted_points()
            ], source
            assert [p.is_excluded for p in rows] == [
                x in excl for x in space.sorted_points()
            ], source
            assert r.t_threequarter == (closed | ro == X), source
            assert r.tf == naive_tf(space), source

    def test_pair_flags_match_the_pair_scans(self, lattice_spaces, posets_upto_6):
        fields = ("t0", "r0", "t1", "r1", "t2")
        for space in lattice_spaces:
            flags = pair_scan_flags({x: naive_kernel(space, x) for x in points(space)})
            r = separation_report(space)
            assert {k: getattr(r, k) for k in fields} == flags
        for P in posets_upto_6:
            down = {x: frozenset(y for y in range(P.n) if P.leq(y, x)) for x in range(P.n)}
            r = separation_report(P)
            assert {k: getattr(r, k) for k in fields} == pair_scan_flags(down), P


class TestComponents:
    def test_irreducible_space_has_one_component(self):
        space = from_poset(dual_tree(3))
        comps = component_points(space, separation_report(space).components)
        assert len(comps) == 1 and comps[0] == points(space)

    def test_forest_components_match_order_components(self):
        r = separation_report(from_poset(forest([("T", 2), ("T", 3)])))
        assert len(r.components) == 2 and len(r.quasicomponents) == 2

    def test_discrete_three_points(self):
        r = separation_report(from_poset(antichain(3)))
        assert len(r.components) == 3 and len(r.quasicomponents) == 3

    def test_matches_naive_union_of_connected_sets(
        self, posets_upto_5, carriers_and_forests
    ):
        small = [from_poset(P) for P in posets_upto_5 if P.n <= 4]
        for space in small + carriers_and_forests:
            comps = component_points(space, separation_report(space).components)
            by_point = naive_components(space)
            for part in comps:
                for x in part:
                    assert by_point[x] == part


class TestPrimeMeets:
    def test_single_maximal_is_irredundant(self):
        pm = jacobson_and_prime_meets(from_poset(tree(3)))
        assert pm.jacobson_irredundant

    def test_spec_z12_jacobson(self):
        space = spec_space(bni(12, 0))
        pm = jacobson_and_prime_meets(space)
        assert pm.jacobson_irredundant
        assert space.lattice.labels[pm.jacobson] == "{0,6}"

    def test_dual_tree_min_meet_vacuous(self):
        pm = jacobson_and_prime_meets(from_poset(dual_tree(3)))
        assert pm.min_meet_irredundant


class TestCrossCheck:
    def test_all_hold_on_examples(self):
        for source in (
            from_poset(tree(2)),
            from_poset(forest([("T", 2), ("T", 2)])),
            from_poset(chain(3)),
            spec_space(s3()),
            spec_space(bni(12, 0)),
        ):
            failing = [c for c in cross_check(source) if not c.holds]
            assert failing == []

    def test_s3_quarter_sides(self):
        results = {c.check_id: c for c in cross_check(spec_space(s3()))}
        assert results["t-quarter-iff-dim-le-1-iff-tf"].holds
        r = separation_report(spec_space(s3()))
        assert r.t_quarter and r.kdim == 1

    def test_forest_t34_prediction_confirmed(self):
        space = from_poset(forest([("T", 2), ("T", 2)]))
        results = {c.check_id: c for c in cross_check(space)}
        assert results["tree-forests-are-t-threequarter"].holds
        assert separation_report(space).t_threequarter

    def test_check_ids_are_stable(self):
        ids = [c.check_id for c in cross_check(from_poset(chain(2)))]
        assert len(ids) == len(set(ids))
        assert "union-criterion-iff-irreducibility" in ids
        assert "discrete-characterizations" in ids

    def test_check_table_is_pinned(self):
        from xtoplat.separation import CHECK_IDS
        from xtoplat.verify import DISCRETE_CHECKS, QUARTER_CHECKS

        ids = [c.check_id for c in cross_check(from_poset(chain(2)))]
        assert ids == list(CHECK_IDS) == [
            "t0-and-sober",
            "closed-points-are-maximal",
            "kerneled-points-are-minimal",
            "ro-iso-min-nested",
            "t1-iff-r0-iff-dim0",
            "t2-iff-r1-iff-dim0-quasihausdorff",
            "t-quarter-iff-dim-le-1-iff-tf",
            "t-half-decomposition",
            "t-threequarter-decomposition",
            "isolated-iff-min-csi",
            "regular-open-iff-isolated-excluded",
            "discrete-characterizations",
            "finite-carrier-irreducibility",
            "es-collapse",
            "anti-hausdorff-iff-irreducible",
            "discrete-iff-t1-at-finite-scale",
            "kc-iff-discrete-at-finite-scale",
            "t2-iff-t1-quasihausdorff",
            "zero-dimensional-collapse",
            "stone-characterizations",
            "union-criterion-iff-irreducibility",
            "maxima-of-radicals",
            "jacobson-irredundant-iff-bmax-iff-max-discrete",
            "min-meet-irredundant-iff-amin-iff-min-discrete",
            "total-separation-implications",
            "components-refine-quasicomponents",
            "tree-forests-are-t-threequarter",
            "dual-tree-blocks-t-threequarter",
        ]
        rest = {"total-separation-implications"}
        assert QUARTER_CHECKS | DISCRETE_CHECKS | rest == set(CHECK_IDS)
        assert len(QUARTER_CHECKS) + len(DISCRETE_CHECKS) + len(rest) == len(CHECK_IDS)

    def test_a_selection_computes_only_the_sides_it_reads(self, monkeypatch):
        from xtoplat import separation
        from xtoplat.verify import DISCRETE_CHECKS, QUARTER_CHECKS

        space = from_poset(forest([("T", 2), ("V", 2), ("C", 3)]))
        full = {c.check_id: c for c in cross_check(space)}

        def refuse(*args):
            raise AssertionError("a radical or carrier scan ran")

        for name in ("_radical_info", "_union_witness", "_irreducible"):
            monkeypatch.setattr(separation, name, refuse)
        quarter = cross_check(space, QUARTER_CHECKS)
        assert [c.check_id for c in quarter] == [i for i in full if i in QUARTER_CHECKS]
        assert all(c == full[c.check_id] for c in quarter)
        with pytest.raises(AssertionError, match="carrier scan"):
            cross_check(space, DISCRETE_CHECKS)

    def test_names_a_wrong_order_read(self, monkeypatch):
        # the report's T_F, RO and sober are order reads; cross_check's own
        # sides (the T_F pair scan, the boundary and the excluded-point
        # meets, the closures from the closed family) must catch them
        from xtoplat import separation

        space = from_poset(forest([("T", 2), ("T", 3)]))
        report = separation._report

        def failing_ids():
            return {c.check_id for c in cross_check(space) if not c.holds}

        # varieties that are all ∅ or X give every point the closure X, so
        # the specialization "order" has cycles and no space is read from it
        full = space.variety_masks[space.lattice.bottom]
        coarse = XTopSpace(space.lattice, tuple(full if v else 0 for v in space.variety_masks))
        with pytest.raises(CycleError):
            cross_check(coarse)
        # the report's sober is a lemma; the closures from the closed family
        # must catch it
        monkeypatch.setattr(
            separation, "_report", lambda a: report(a)._replace(sober=not report(a).sober)
        )
        assert failing_ids() == {"t0-and-sober"}

        monkeypatch.setattr(
            separation, "_report", lambda a: report(a)._replace(tf=not report(a).tf)
        )
        assert failing_ids() == {"t-quarter-iff-dim-le-1-iff-tf"}
        # T¼, T½ and T_F share one read; wrong together, they still differ
        # from kdim, the families and the pair scan
        monkeypatch.setattr(
            separation,
            "_report",
            lambda a: report(a)._replace(t_quarter=False, t_half=False, tf=False),
        )
        assert failing_ids() == {
            "t-quarter-iff-dim-le-1-iff-tf",
            "t-half-decomposition",
            "es-collapse",
        }
        monkeypatch.setattr(separation, "_report", report)
        init = separation._Analysis.__init__

        def drop_first_ro(self, source):
            init(self, source)
            self.ro_mask &= self.ro_mask - 1

        monkeypatch.setattr(separation._Analysis, "__init__", drop_first_ro)
        assert failing_ids() == {
            "regular-open-iff-isolated-excluded",
            "t-threequarter-decomposition",
            "tree-forests-are-t-threequarter",
        }

    def test_witness_names_the_lowest_differing_point(self, monkeypatch):
        # with Max read as empty, the closed points differ from it at both
        # maxima, and the witness names the one with the lower index
        from xtoplat import separation

        space = from_poset(forest([("T", 2), ("T", 3)]))
        init = separation._Analysis.__init__

        def no_maxima(self, source):
            init(self, source)
            self.max_mask = 0

        monkeypatch.setattr(separation._Analysis, "__init__", no_maxima)
        (result,) = cross_check(space, ["closed-points-are-maximal"])
        closed = closed_points(space)
        assert len(closed) == 2 and not result.holds
        assert result.witness == f"point {space.label(min(closed))!r}"

    def test_leaves_the_upset_order_and_tables_unbuilt(self):
        # the carrier checks read the up-set masks, never the lattice's order
        space = from_poset(forest([("V", 3)] * 3))
        failing = [c for c in cross_check(space) if not c.holds]
        assert failing == []
        L = space.lattice
        assert L._order is None
        assert not any(hasattr(L, name) for name in TABLE_ATTRIBUTES)


class TestDegenerateCarriers:
    def test_empty_subspace(self):
        space = from_poset(chain(2)).subspace(mask(()))
        r = separation_report(space)
        assert r.t0 and r.t1 and r.discrete and r.kdim == 0
        assert all(c.holds for c in cross_check(space))

    def test_singleton_subspace(self):
        base = from_poset(chain(2))
        (x, y) = sorted(points(base))
        space = base.subspace(mask({x}))
        r = separation_report(space)
        assert r.discrete and r.irreducible
        assert all(c.holds for c in cross_check(space))

    def test_open_family_off_the_order_is_refused(self):
        base = from_poset(antichain(3))
        # replace the variety {a0, a1} by X: the points keep their closures,
        # so the order is still an antichain, but X \ Ker(a2) = {a0, a1} is
        # no longer closed, so Ker(a2) = {a2} is no longer open
        bit = {base.label(x): 1 << x for x in points(base)}
        pair, full = bit["a0"] | bit["a1"], sum(bit.values())
        masks = tuple(full if v == pair else v for v in base.variety_masks)
        broken = XTopSpace(base.lattice, masks)
        with pytest.raises(XtoplatError, match=r"Ker\('a2'\) is not open"):
            separation_report(broken)


def test_cross_check_on_every_small_sub_carrier(posets_upto_5):
    # smaller carriers inside the same lattice are genuinely different
    # instances (the lattice keeps elements whose varieties shrink)
    for P in posets_upto_5:
        if P.n > 4:
            continue
        space = from_poset(P)
        for Y in subsets(points(space)):
            sub = space.subspace(mask(Y))
            for result in cross_check(sub):
                assert result.holds, (P, sorted(Y), result.check_id, result.witness)


class TestLongChainCarriers:
    """Sixteen points, where a scan over all 2^|X| subsets would be slow:
    the order-based CSI, components and T_F still agree with cross_check."""

    def test_sixteen_point_chain(self):
        space = from_poset(chain(16))
        r = separation_report(space)
        assert r.kdim == 15
        assert r.t0 and not r.t_quarter and not r.tf
        assert leq_completely_strongly_irreducible(space) == points(space)
        assert len(r.components) == 1 and len(r.quasicomponents) == 1
        for result in cross_check(space):
            assert result.holds, (result.check_id, result.witness)

    def test_two_long_chains(self):
        space = from_poset(forest([("C", 8), ("C", 8)]))
        r = separation_report(space)
        assert r.kdim == 7 and not r.connected
        assert len(r.components) == 2
        for result in cross_check(space):
            assert result.holds, (result.check_id, result.witness)
