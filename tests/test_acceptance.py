"""Acceptance criteria.

One test per criterion; each prints a PASS/FAIL line (run with ``-s`` to
see them on success).  All expectations are exact; the underlying claims
are finite and reproduced exactly, so no tolerance bands exist anywhere.

    1. three-element semidomain golden values            (exact, < 1 s)
    2. B(n, i) spectrum grid, n <= 20                    (exact, < 30 s)
    3. B(n, i) downstream separation axioms              (exact, < 30 s)
    4. Z_n spectra discrete for composite n <= 60        (exact, < 60 s)
    5. carrier criteria agree on all lattices <= 5       (zero gaps, < 5 min)
    6. cross-check sweep over all posets <= 6            (zero fails, < 10 min)
    7. forest shape theorems, total size <= 9            (zero fails, < 1 min)
    8. Kuratowski / kernel / component / CSI suite       (zero fails)
"""

import time
from itertools import combinations

from xtoplat import (
    bni,
    cross_check,
    from_poset,
    is_xtop_by_irreducibility,
    is_xtop_by_unions,
    jacobson_and_prime_meets,
    s3,
    separation_report,
    spec_space,
    spectrum,
    variety,
    verify_bni,
)
from xtoplat.enumeration import forest_specs
from xtoplat.poset import _bits, forest
from xtoplat.semiring import ideals, principal_ideal
from xtoplat.separation import _report_and_checks

from .oracles import (
    leq_completely_strongly_irreducible,
    mask,
    naive_kernel,
    open_family,
    points,
)


def _report(criterion: str, started: float, budget: float | None):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{criterion} exceeded its {budget}s budget"


def test_criterion_1_s3_golden():
    started = time.monotonic()
    R = s3()
    rep = spectrum(R)

    def labelled(family):
        return {tuple(sorted(R.labels[a] for a in _bits(I))) for I in family}

    assert labelled(ideals(R)) == {("0",), ("0", "a"), ("0", "1", "a")}
    assert labelled(rep.spec) == {("0",), ("0", "a")}
    assert labelled(rep.max) == {("0", "a")}
    assert rep.kdim == 1
    assert rep.is_local and rep.is_idempotent and rep.is_reduced
    assert frozenset(R.labels[a] for a in _bits(rep.jacobson)) == frozenset({"0", "a"})
    assert rep.nilradical == mask({R.zero})

    space = spec_space(R)
    opens = {space.labels_of(mask(U)) for U in open_family(space)}
    assert opens == {(), ("{0}",), ("{0}", "{0,a}")}
    report = separation_report(space)
    assert report.t0 and not report.t1
    _report("1 (three-element semidomain golden values)", started, 1.0)


def test_criterion_2_bni_grid():
    started = time.monotonic()
    for n in range(2, 21):
        for i in range(n):
            verdict = verify_bni(n, i)
            assert verdict.match, (n, i, verdict)
            if i == 1 and n >= 3:
                assert set(verdict.predicted_spec) == {mask({0})} | {
                    principal_ideal(bni(n, i), p) for p in _prime_divisors(n - 1)
                }
            if i == n - 1 and n >= 3:
                assert set(verdict.predicted_spec) == {
                    mask({0}),
                    mask({0}) | mask(range(2, n)),
                }
    _report("2 (B(n, i) spectrum grid)", started, 30.0)


def _prime_divisors(k):
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def test_criterion_3_bni_downstream_axioms():
    started = time.monotonic()
    for n in range(3, 21):
        for i in (1, n - 1):
            report = separation_report(spec_space(bni(n, i)))
            assert report.t_half and not report.t_threequarter, (n, i)
    for n in range(4, 21):
        for i in range(2, n - 1):
            report = separation_report(spec_space(bni(n, i)))
            assert report.t0 and not report.t_quarter, (n, i)
    _report("3 (B(n, i) downstream separation axioms)", started, 30.0)


def test_criterion_4_zn_discrete():
    started = time.monotonic()
    composites = [n for n in range(4, 61) if any(n % d == 0 for d in range(2, n))]
    for n in composites:
        R = bni(n, 0)
        rep = spectrum(R)
        expected = {principal_ideal(R, p) for p in _prime_divisors(n)}
        assert set(rep.spec) == expected, n
        space = spec_space(R)
        assert separation_report(space).discrete, n
        # irredundance by its definition: no prime dropped from ⋀Max leaves
        # the meet unchanged; verify reads the flag through _report_and_checks
        assert jacobson_and_prime_meets(space).jacobson_irredundant, n
        assert _report_and_checks(space)[1].jacobson_irredundant, n
    _report("4 (Z_n spectra discrete)", started, 60.0)


def test_criterion_5_carrier_criteria_agree(lattices_upto_5):
    started = time.monotonic()
    pairs = 0
    for L in lattices_upto_5:
        candidates = [i for i in range(L.n) if i != L.top]
        for bits in range(1 << len(candidates)):
            X = sum(1 << c for k, c in enumerate(candidates) if bits >> k & 1)
            assert is_xtop_by_unions(L, X) == is_xtop_by_irreducibility(L, X)
            pairs += 1
    assert pairs == sum(1 << (L.n - 1) for L in lattices_upto_5)
    _report("5 (carrier criteria agree)", started, 300.0)


def test_criterion_6_cross_check_sweep(posets_upto_6):
    started = time.monotonic()
    for P in posets_upto_6:
        for result in cross_check(from_poset(P)):
            assert result.holds, (P, result.check_id, result.witness)
    _report("6 (cross-check sweep)", started, 600.0)


def test_criterion_7_forest_theorems():
    started = time.monotonic()
    # T_1 = C_2 is not a tree forest, so no spec may hold a 2-chain
    for spec in (s for s in forest_specs(9, kinds="T") if ("C", 2) not in s):
        report = separation_report(from_poset(forest(spec)))
        assert report.t_threequarter and not report.t1, spec
    for spec in forest_specs(9, kinds="TV"):
        report = separation_report(from_poset(forest(spec)))
        has_dual = any(
            (kind == "V") or (kind == "C" and k == 2) for kind, k in spec
        )
        if has_dual:
            assert not report.t_threequarter, spec
        assert report.t_half, spec
    _report("7 (forest shape theorems)", started, 60.0)


def test_criterion_8_operator_suite(posets_upto_6):
    started = time.monotonic()
    for P in posets_upto_6:
        space = from_poset(P)
        L = space.lattice
        pts = sorted(points(space))
        X = space.points

        for a in range(L.n):
            for b in range(a, L.n):
                assert variety(L, X, L.join(a, b)) == variety(L, X, a) & variety(L, X, b)

        down = {x: naive_kernel(space, x) for x in pts}
        up = {x: space.closure(mask({x})) for x in pts}
        for x in pts:
            assert down[x] == frozenset(y for y in pts if L.leq(y, x))
            assert up[x] == mask(y for y in pts if L.leq(x, y))

        assert space.closure(mask(())) == mask(())
        singletons = [mask({x}) for x in pts]
        small = singletons + [X] + [mask(c) for c in combinations(pts, 2)]
        for Y in small:
            cl = space.closure(Y)
            assert Y & ~cl == 0 and space.closure(cl) == cl
            for Z in singletons:
                assert space.closure(Y | Z) == cl | space.closure(Z)

        r = separation_report(space)
        comp_of = {x: set(part) for part in r.components for x in part}
        quasi_of = {x: set(part) for part in r.quasicomponents for x in part}
        for x in pts:
            assert comp_of[space.label(x)] <= quasi_of[space.label(x)]

        assert leq_completely_strongly_irreducible(space) == points(space)
    _report("8 (operator suite)", started, None)
