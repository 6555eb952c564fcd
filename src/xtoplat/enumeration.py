"""Exhaustive generation of small posets, lattices and forests.

Posets on n labelled elements are generated as transitive relations inside
the upper triangle (every finite poset admits a linear extension, so each
isomorphism class has at least one such representative).  Deduplication up
to isomorphism uses a canonical form: the minimum, over all linear
extensions, of the bit-encoding of the relabelled relation.  Two posets
are isomorphic iff their canonical forms agree, because the set of
upper-triangle representatives of a class is exactly its set of
linear-extension relabellings.

Everything is deterministic; the verify suites are seed-free.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotALatticeError
from .lattice import FiniteLattice
from .poset import FinitePoset, ForestComponent


def canonical_form(P: FinitePoset) -> tuple[int, int]:
    """(n, encoding): equal for two posets iff they are order-isomorphic."""
    n = P.n
    lt = [[P.lt(i, j) for j in range(n)] for i in range(n)]

    def encode(order: list[int]) -> int:
        code = 0
        bit = 0
        for a in range(n):
            for b in range(a + 1, n):
                if lt[order[a]][order[b]]:
                    code |= 1 << bit
                bit += 1
        return code

    best: int | None = None
    order: list[int] = []
    used = [False] * n

    def extend():
        nonlocal best
        if len(order) == n:
            code = encode(order)
            if best is None or code < best:
                best = code
            return
        for i in range(n):
            # i can come next iff everything below it is already placed
            if not used[i] and all(
                used[j] or not lt[j][i] for j in range(n)
            ):
                used[i] = True
                order.append(i)
                extend()
                order.pop()
                used[i] = False

    extend()
    if best is None:
        raise ValueError("no linear extension: the relation is not a partial order")
    return n, best


def _poset_from_code(n: int, code: int) -> FinitePoset:
    pairs = []
    bit = 0
    for a in range(n):
        for b in range(a + 1, n):
            if code >> bit & 1:
                pairs.append((a, b))
            bit += 1
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    return FinitePoset([f"p{i}" for i in range(n)], up)


@lru_cache(maxsize=None)
def all_posets(n: int) -> tuple[FinitePoset, ...]:
    """All posets on n elements, one representative per isomorphism class."""
    if n == 0:
        return ()
    m = n * (n - 1) // 2
    seen: set[tuple[int, int]] = set()
    out: list[FinitePoset] = []
    for code in range(1 << m):
        # decode the strict upper-triangle relation and check transitivity
        lt_rows = [0] * n
        bit = 0
        for a in range(n):
            for b in range(a + 1, n):
                if code >> bit & 1:
                    lt_rows[a] |= 1 << b
                bit += 1
        transitive = True
        for a in range(n):
            row = lt_rows[a]
            b = 0
            rest = row
            while rest:
                if rest & 1 and lt_rows[b] & ~row:
                    transitive = False
                    break
                rest >>= 1
                b += 1
            if not transitive:
                break
        if not transitive:
            continue
        P = FinitePoset([f"p{i}" for i in range(n)], [lt_rows[i] | 1 << i for i in range(n)])
        key = canonical_form(P)
        if key not in seen:
            seen.add(key)
            out.append(_poset_from_code(*key))
    return tuple(out)


def all_posets_upto(n: int) -> tuple[FinitePoset, ...]:
    out: list[FinitePoset] = []
    for k in range(1, n + 1):
        out.extend(all_posets(k))
    return tuple(out)


@lru_cache(maxsize=None)
def all_lattices(n: int) -> tuple[FiniteLattice, ...]:
    """All lattices on n elements, one representative per isomorphism class."""
    out = []
    for P in all_posets(n):
        try:
            out.append(FiniteLattice(P))
        except NotALatticeError:
            continue
    return tuple(out)


def all_lattices_upto(n: int) -> tuple[FiniteLattice, ...]:
    out: list[FiniteLattice] = []
    for k in range(1, n + 1):
        out.extend(all_lattices(k))
    return tuple(out)


def _component_size(component: ForestComponent) -> int:
    kind, k = component
    return k if kind == "C" else k + 1


def _normalize(component: ForestComponent) -> ForestComponent:
    """T_1 = C_2 = V_1 all report as ("C", 2)."""
    kind, k = component
    if kind in ("T", "V") and k == 1:
        return ("C", 2)
    return (kind, k)


def forest_specs(
    max_size: int, kinds: str = "TVC", min_tree_base: int = 1
) -> tuple[tuple[ForestComponent, ...], ...]:
    """All component multisets with total size <= max_size, deduplicated.

    ``kinds`` restricts the component alphabet; ``min_tree_base`` raises
    the smallest allowed n for T_n components.  The coincidence
    T_1 = C_2 = V_1 is normalized away so no shape appears twice.
    """
    atoms: list[ForestComponent] = []
    for kind in kinds:
        start = min_tree_base if kind == "T" else 1
        k = start
        while _component_size((kind, k)) <= max_size:
            atom = _normalize((kind, k))
            if atom not in atoms:
                atoms.append(atom)
            k += 1
    atoms.sort()
    out: list[tuple[ForestComponent, ...]] = []

    def extend(start: int, budget: int, acc: list[ForestComponent]):
        if acc:
            out.append(tuple(acc))
        for idx in range(start, len(atoms)):
            size = _component_size(atoms[idx])
            if size <= budget:
                acc.append(atoms[idx])
                extend(idx, budget - size, acc)
                acc.pop()

    extend(0, max_size, [])
    return tuple(sorted(set(out)))
