"""Job lists of the two benchmark workloads.

``spec-grid`` runs the semiring pipeline.  ``classify-verify`` runs the
poset pipeline through three families of jobs, each named after what it
stresses: ``classify-wide`` (lattice and space building),
``classify-tall`` (separation, the JSON formats path) and
``verify-sweep`` (poset enumeration and cross-checks).  The families
share one workload so that a run stays long enough to outlast the slow
phases of a shared host; the traced run still reports each family's
share of the layers.

A job is one ``xtoplat`` command line.  Jobs that share cached state come
in groups that always run back to back in a fixed order (a semiring's
``all`` job and its ``--subspace`` jobs; the verify suites that enumerate
posets); the seed permutes the order of the groups and never changes the
set of jobs.  The lists are built here, without ``xtoplat.enumeration``,
so the workloads stay fixed when the library's generators change.
"""

from __future__ import annotations

import random

WORKLOADS = ("spec-grid", "classify-verify")
FAMILIES = ("spec-grid", "classify-wide", "classify-tall", "verify-sweep")

# Sizes, chosen so one pass over a workload takes 1-3.5 s on a 2-core VM:
# a run then times every job ten times or more, spread over the run.
SPEC_MAX_N = 16  # spec --bni n i for 2 <= n <= 16; B(16, i) also with --subspace
WIDE_POINTS = 8  # classify-wide: every T/V/C forest on this many points
TALL_POINTS = 16  # classify-tall: 1-3 chains, above the reduced-CSI cut (14)
VERIFY_POSETS = 5  # verify xct/quarter/discrete --max-size
VERIFY_FORESTS = 7  # verify forest --max-size

# Points of a component beyond its index: T_n (n minimals under one top)
# and V_m (one bottom under m maximals) have one more, C_k has k.
_POINTS = {"T": 1, "V": 1, "C": 0}


def _spec_grid() -> list[list[list[str]]]:
    groups = []
    for n in range(2, SPEC_MAX_N + 1):
        for i in range(n):
            group = [["spec", "--bni", str(n), str(i)]]
            if n == SPEC_MAX_N:
                group += [
                    ["spec", "--bni", str(n), str(i), "--subspace", which]
                    for which in ("max", "min", "drop-zero")
                ]
            groups.append(group)
    groups.append([["spec", "--bni", "30", "15"]])
    groups.append([["spec", "--s3"]])
    return groups


def _forest_atoms(points: int, kinds: str) -> list[tuple[str, int]]:
    """Components with at most ``points`` points, T1 = V1 = C2 kept once."""
    atoms = set()
    for kind in kinds:
        for k in range(1, points + 1):
            if k + _POINTS[kind] > points:
                break
            atoms.add(("C", 2) if kind in "TV" and k == 1 else (kind, k))
    return sorted(atoms)


def _forests(points: int, kinds: str, min_chain: int, max_parts: int) -> list[str]:
    atoms = [
        a for a in _forest_atoms(points, kinds) if a[0] != "C" or a[1] >= min_chain
    ]
    out = []

    def extend(start: int, budget: int, acc: list[tuple[str, int]]) -> None:
        if budget == 0:
            out.append("+".join(f"{kind}{k}" for kind, k in acc))
            return
        if len(acc) == max_parts:
            return
        for idx in range(start, len(atoms)):
            kind, k = atoms[idx]
            size = k + _POINTS[kind]
            if size <= budget:
                acc.append(atoms[idx])
                extend(idx, budget - size, acc)
                acc.pop()

    extend(0, points, [])
    return out


def _classify_wide() -> list[list[list[str]]]:
    return [
        [["classify", "--forest", spec]]
        for spec in _forests(WIDE_POINTS, "TVC", min_chain=1, max_parts=WIDE_POINTS)
    ]


def _classify_tall() -> list[list[list[str]]]:
    return [
        [["classify", "--json", "--forest", spec]]
        for spec in _forests(TALL_POINTS, "C", min_chain=2, max_parts=3)
    ]


def _verify_sweep() -> list[list[list[str]]]:
    # xct, quarter and discrete share the cached poset enumeration, so they
    # form one group: the first of them pays for it in every order.
    return [
        [
            ["verify", suite, "--max-size", str(VERIFY_POSETS)]
            for suite in ("xct", "quarter", "discrete")
        ],
        [["verify", "forest", "--max-size", str(VERIFY_FORESTS)]],
    ]


_FAMILY_GROUPS = {
    "spec-grid": _spec_grid,
    "classify-wide": _classify_wide,
    "classify-tall": _classify_tall,
    "verify-sweep": _verify_sweep,
}
_MEMBERS = {
    "spec-grid": ("spec-grid",),
    "classify-verify": ("classify-wide", "classify-tall", "verify-sweep"),
}


def job_key(job: list[str]) -> str:
    """The job's command line, which names it in ``golden.json``."""
    return " ".join(job)


def family(job: list[str]) -> str:
    """The family a job of either workload belongs to."""
    if job[0] == "classify":
        return "classify-tall" if "--json" in job else "classify-wide"
    return {"spec": "spec-grid", "verify": "verify-sweep"}[job[0]]


def job_groups(workload: str) -> list[list[list[str]]]:
    """The workload's job groups in their canonical (seed-free) order."""
    return [group for name in _MEMBERS[workload] for group in _FAMILY_GROUPS[name]()]


def jobs(workload: str, seed: int) -> list[list[str]]:
    """The workload's jobs, groups shuffled by ``seed``, groups kept whole."""
    groups = job_groups(workload)
    random.Random(seed).shuffle(groups)
    return [job for group in groups for job in group]
