"""Exhaustive, seed-free verification suites.

Each suite sweeps a family of instances generated within explicit bounds
and re-checks a group of structure theorems on every one, reporting
failures with minimal witnesses.  Suites:

* ``xct``: both carrier criteria (union closure vs strong irreducibility
  over radical elements) agree on every (lattice, X) pair up to the size
  bound;
* ``quarter``: the quarter-axiom identities over every poset-induced
  space up to the size bound;
* ``discrete``: the discreteness/T1/Stone identities over the same sweep;
* ``forest``: shape predictions for T/V/C forests (which are and are not
  T¾/T½/T¼) plus the full cross-check;
* ``bni``: the B(n, i) spectrum grid against its closed form, plus the
  downstream separation verdicts;
* ``all``: everything above.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Iterable, NamedTuple

from .enumeration import (
    all_lattices_upto,
    all_posets_upto,
    canonical_form,
    forest_specs,
)
from .errors import RangeError
from .poset import chain, dual_tree, forest, tree
from .semiring import _verify_bni, bni, omega, spec_poset, spec_space
from .separation import CheckResult, _report_and_checks, cross_check, separation_report
from .topology import from_poset, is_xtop_by_irreducibility, is_xtop_by_unions

QUARTER_CHECKS = frozenset(
    {
        "closed-points-are-maximal",
        "kerneled-points-are-minimal",
        "ro-iso-min-nested",
        "t-quarter-iff-dim-le-1-iff-tf",
        "t-half-decomposition",
        "t-threequarter-decomposition",
        "isolated-iff-min-csi",
        "regular-open-iff-isolated-excluded",
        "es-collapse",
        "tree-forests-are-t-threequarter",
        "dual-tree-blocks-t-threequarter",
    }
)

DISCRETE_CHECKS = frozenset(
    {
        "t0-and-sober",
        "t1-iff-r0-iff-dim0",
        "t2-iff-r1-iff-dim0-quasihausdorff",
        "discrete-characterizations",
        "finite-carrier-irreducibility",
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
        "components-refine-quasicomponents",
    }
)


class SuiteFailure(NamedTuple):
    instance: str
    check: str
    witness: str | None = None

    def __str__(self) -> str:
        text = f"{self.instance}: {self.check}"
        return text + (f" [{self.witness}]" if self.witness else "")


class SuiteResult:
    """One sweep's counts and failures, updated as the sweep runs; ``==``
    compares the fields."""

    def __init__(
        self,
        suite: str,
        instances: int = 0,
        checks: int = 0,
        failures: list[SuiteFailure] | None = None,
        seconds: float = 0.0,  # wall time of the sweep, set by run_suites
    ):
        self.suite = suite
        self.instances = instances
        self.checks = checks
        self.failures = [] if failures is None else failures
        self.seconds = seconds

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"SuiteResult({fields})"

    def expect(self, instance: str, condition: bool, check: str, witness: str | None) -> None:
        """Count one check on ``instance``; keep it as a failure if it failed."""
        self.checks += 1
        if not condition:
            self.failures.append(SuiteFailure(instance, check, witness))

    def record(self, instance: str, results: Iterable[CheckResult]) -> None:
        """Count the cross-check results on ``instance``, keeping the failures."""
        for r in results:
            self.expect(instance, r.holds, r.check_id, r.witness)

    @property
    def ok(self) -> bool:
        """No failures, and at least one instance: an empty sweep checks nothing."""
        return self.instances > 0 and not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status} {self.suite}: {self.instances} instances, "
            f"{self.checks} checks, {len(self.failures)} failures"
        )


def verify_xct(max_size: int = 5) -> SuiteResult:
    """Union-closure vs irreducibility on every (lattice, X) pair."""
    result = SuiteResult("xct")
    for L in all_lattices_upto(max_size):
        candidates = [i for i in range(L.n) if i != L.top]
        for mask in range(1 << len(candidates)):
            X = frozenset(c for k, c in enumerate(candidates) if mask >> k & 1)
            result.instances += 1
            result.checks += 1
            by_unions = is_xtop_by_unions(L, X)
            by_irred = is_xtop_by_irreducibility(L, X)
            if by_unions != by_irred:
                result.failures.append(
                    SuiteFailure(
                        f"lattice({L.n} elements, covers={L.poset.covers()}) "
                        f"X={sorted(L.labels[x] for x in X)}",
                        "union-criterion-iff-irreducibility",
                        f"unions={by_unions}; irreducibility={by_irred}",
                    )
                )
    return result


def _cross_check_sweep(suite: str, max_size: int, selected: frozenset[str]) -> SuiteResult:
    result = SuiteResult(suite)
    for P in all_posets_upto(max_size):
        result.instances += 1
        name = f"poset(n={P.n}, covers={P.covers()})"
        result.record(name, cross_check(from_poset(P), selected))
    return result


def verify_quarter(max_size: int = 5) -> SuiteResult:
    return _cross_check_sweep("quarter", max_size, QUARTER_CHECKS)


def verify_discrete(max_size: int = 5) -> SuiteResult:
    return _cross_check_sweep("discrete", max_size, DISCRETE_CHECKS)


def verify_forest(max_size: int = 8) -> SuiteResult:
    """Shape-level predictions plus the full cross-check on every forest."""
    result = SuiteResult("forest")
    for spec in forest_specs(max_size):
        result.instances += 1
        name = "+".join(f"{kind}{k}" for kind, k in spec)
        report, _, results = _report_and_checks(from_poset(forest(spec)))
        expect = partial(result.expect, name)
        expected_kdim = max(k - 1 if kind == "C" else 1 for kind, k in spec)
        expect(
            report.kdim == expected_kdim,
            "forest-kdim",
            f"kdim={report.kdim}, expected {expected_kdim}",
        )
        all_trees = all(kind == "T" and k >= 2 for kind, k in spec)
        has_dual = any(
            (kind == "V" and k >= 1) or (kind == "C" and k == 2) for kind, k in spec
        )
        has_long_chain = any(kind == "C" and k >= 3 for kind, k in spec)
        only_tv = all(
            (kind in "TV") or (kind == "C" and k == 2) for kind, k in spec
        )
        if all_trees:
            expect(
                report.t_threequarter and not report.t1,
                "tree-forest-is-t-threequarter-not-t1",
                f"t_threequarter={report.t_threequarter}, t1={report.t1}",
            )
        if has_dual:
            expect(
                not report.t_threequarter,
                "dual-tree-component-blocks-t-threequarter",
                "t_threequarter=True",
            )
        if only_tv:
            expect(
                report.t_half and not report.t1,
                "tv-forest-is-t-half-not-t1",
                f"t_half={report.t_half}, t1={report.t1}",
            )
        if has_long_chain:
            expect(not report.t_quarter, "long-chain-blocks-t-quarter", "t_quarter=True")
        result.record(name, results)
    return result


def verify_bni_grid(max_n: int = 20) -> SuiteResult:
    """Spectrum closed form plus downstream separation axioms on B(n, i)."""
    result = SuiteResult("bni")
    for n in range(2, max_n + 1):
        for i in range(n):
            result.instances += 1
            name = f"B({n},{i})"
            R = bni(n, i)
            verdict = _verify_bni(R, i)
            expect = partial(result.expect, name)
            expect(
                verdict.match,
                "spectrum-closed-form",
                f"kdim {verdict.computed_kdim} vs {verdict.predicted_kdim}; "
                f"spec sizes {sorted(len(P) for P in verdict.computed_spec)} vs "
                f"{sorted(len(P) for P in verdict.predicted_spec)}",
            )
            report, prime_meets, results = _report_and_checks(spec_space(R))
            spec_shape = canonical_form(spec_poset(R))
            if i == 0 or n == 2:
                expect(report.discrete, "zero-dimensional-spectrum-discrete", "not discrete")
                expect(
                    prime_meets.jacobson_irredundant,
                    "jacobson-irredundant",
                    "redundant maximal ideal",
                )
            elif i == 1:
                expect(
                    report.t_half and not report.t_threequarter,
                    "i1-spectrum-t-half-not-t-threequarter",
                    f"t_half={report.t_half}, t_threequarter={report.t_threequarter}",
                )
                expect(
                    spec_shape == canonical_form(dual_tree(omega(n - 1))),
                    "i1-spectrum-is-dual-tree",
                    "spectrum shape is not V_omega(n-1)",
                )
            elif i == n - 1:
                expect(
                    report.t_half and not report.t_threequarter,
                    "top-i-spectrum-t-half-not-t-threequarter",
                    f"t_half={report.t_half}, t_threequarter={report.t_threequarter}",
                )
                expect(
                    spec_shape == canonical_form(chain(2)),
                    "top-i-spectrum-is-two-chain",
                    "spectrum shape is not C_2",
                )
            else:
                expect(
                    report.t0 and not report.t_quarter,
                    "middle-i-spectrum-t0-not-t-quarter",
                    f"t0={report.t0}, t_quarter={report.t_quarter}",
                )
                punctured = spec_poset(R, "drop-zero")
                punctured_report = separation_report(punctured)
                w = omega(n - i)
                expect(
                    canonical_form(punctured) == canonical_form(tree(w)),
                    "punctured-middle-spectrum-is-tree",
                    f"shape is not T_omega(n-i)=T_{w}",
                )
                if w == 1:
                    expect(
                        punctured_report.t_half and not punctured_report.t_threequarter,
                        "punctured-prime-gap-t-half",
                        f"t_half={punctured_report.t_half}, "
                        f"t_threequarter={punctured_report.t_threequarter}",
                    )
                else:
                    expect(
                        punctured_report.t_threequarter and not punctured_report.t1,
                        "punctured-composite-gap-t-threequarter",
                        f"t_threequarter={punctured_report.t_threequarter}, "
                        f"t1={punctured_report.t1}",
                    )
            result.record(name, results)
    return result


# the largest bounds run_suites accepts
MAX_ENUMERATED_SIZE = 7
MAX_FOREST_SIZE = 13
MAX_N = 60

# each suite's function, by its name in this module, with the bound it
# takes; run_suites looks the function up when it runs, so a wrapper bound
# to that name after import (a profiler's, a test's) is the one called
_SUITES = {
    "xct": ("verify_xct", "max_size"),
    "quarter": ("verify_quarter", "max_size"),
    "discrete": ("verify_discrete", "max_size"),
    "forest": ("verify_forest", "max_size"),
    "bni": ("verify_bni_grid", "max_n"),
}


def run_suites(
    suite: str, max_size: int | None = None, max_n: int | None = None
) -> list[SuiteResult]:
    """Run one named suite, or all of them; a bound of None means the suite's default.

    Raises :class:`RangeError` for ``max_size < 1`` or ``max_n < 2``, which
    would sweep no instance at all, and for bounds past what a sweep
    finishes in about a minute:

    * ``max_size > 7`` on a suite that enumerates posets: the enumeration
      searches the linear extensions of each class once, and
      ``all_posets(7)`` takes about 1 s but ``all_posets(8)`` about 30 s;
    * ``max_size > 13`` for ``forest``: every forest gets the full
      cross-check, in O(|L|·|X|) steps per forest with |L| its number of
      up-sets, and the sweep took 12 s at 12 points and 28-34 s at 13;
    * ``max_n > 60`` for ``bni``: each B(n, i) costs its tables and
      their axiom checks, its spectrum (no ideal is enumerated) and the
      separation reports of its spectra, and the sweep takes about 5 s
      at 60 on a 2-core machine.
    """
    if max_size is not None and max_size < 1:
        raise RangeError(f"--max-size must be at least 1, got {max_size}")
    if max_n is not None and max_n < 2:
        raise RangeError(f"--max-n must be at least 2, got {max_n}")
    if max_n is not None and max_n > MAX_N:
        raise RangeError(f"--max-n must be at most {MAX_N}, got {max_n}")
    enumerates = suite in ("xct", "quarter", "discrete", "all")
    if enumerates and max_size is not None and max_size > MAX_ENUMERATED_SIZE:
        raise RangeError(
            f"--max-size must be at most {MAX_ENUMERATED_SIZE} for verify {suite}, got {max_size}"
        )
    if suite == "forest" and max_size is not None and max_size > MAX_FOREST_SIZE:
        raise RangeError(
            f"--max-size must be at most {MAX_FOREST_SIZE} for verify forest, got {max_size}"
        )
    if suite == "all":
        names = ["xct", "quarter", "discrete", "forest", "bni"]
    elif suite in _SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    bounds = {"max_size": max_size, "max_n": max_n}
    results = []
    for name in names:
        function, bound = _SUITES[name]
        run = globals()[function]
        start = time.perf_counter()
        result = run() if bounds[bound] is None else run(bounds[bound])
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
