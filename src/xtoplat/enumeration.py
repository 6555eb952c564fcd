"""Exhaustive generation of small posets, lattices and forests.

A poset on n labelled elements is encoded by its strict relation inside
the upper triangle: bit ``a*(2n-a-1)/2 + (b-a-1)`` of the code is set iff
a < b.  Every finite poset has a linear extension, so every isomorphism
class has such codes, and they are exactly its linear-extension
relabellings.  The canonical form of a poset is the least code of its
class, and a class is represented by the poset that code decodes to.
Three facts make the generation cheap:

1. **Extension instead of a scan.**  An upper-triangle code is a partial
   order iff, for each a, the strict up-set of a is an up-set of the
   order on {a+1, ..., n-1}.  (Transitivity says exactly that: a < b and
   b < c give a < c.  Conversely, if a < b < c then b lies in the up-set
   of a, so c does too.)  The most significant bits of a code are the
   rows of the largest a, so choosing the rows for a = n-2, ..., 0 in
   turn, each row over the up-sets in increasing order, streams every
   partial-order code once and in increasing order.
2. **One search per class.**  A single search over the linear extensions
   of a poset yields every code of its class.  The first code of a class
   the stream reaches is therefore the least one: it is kept as the
   representative, the rest of the class is marked covered, and covered
   codes are skipped (and forgotten) when the stream reaches them.
   Classes come out in increasing order of their canonical forms.
3. **Lattices from bounded posets.**  A lattice with n >= 2 elements is
   0 ⊕ P ⊕ 1 for a unique poset P on n - 2 points: strip the bounds.  Its
   linear extensions are 0, an extension of P, then 1.  The bits of the
   bounds are set in every one of them, and P's bit (a, b) sits at
   lattice bit (a+1, b+1), a position that grows with P's.  So the least
   code of the lattice comes from the least code of P, and lattices come
   out in the order of their P.

Everything is deterministic; the verify suites are seed-free.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .errors import NotALatticeError, RangeError
from .lattice import FiniteLattice
from .poset import FinitePoset, ForestComponent


def _row_base(n: int, a: int) -> int:
    """Code bit of the pair (a, a+1); the pairs (a, b) follow it in b."""
    return a * (2 * n - a - 1) // 2


def _class_codes(down: Sequence[int]) -> set[int]:
    """The codes of every linear-extension relabelling of the relation.

    ``down[i]`` is the mask of the elements strictly below i.  An element
    can be placed once its down-set is; placing it at position p sets the
    bit (q, p) for the position q of each element below it.  A relation
    with a cycle has no linear extension and yields no code.
    """
    n = len(down)
    full = (1 << n) - 1
    # column[p][q]: the code bit of the pair of positions (q, p)
    column = [[1 << (_row_base(n, q) + p - q - 1) for q in range(p)] for p in range(n)]
    position = [0] * n
    codes: set[int] = set()

    def place(p: int, placed: int, code: int) -> None:
        if placed == full:
            codes.add(code)
            return
        bits = column[p]
        free = full & ~placed
        while free:
            low = free & -free
            free ^= low
            i = low.bit_length() - 1
            below = down[i]
            if below & ~placed:
                continue
            grown = code
            while below:
                b = below & -below
                below ^= b
                grown |= bits[position[b.bit_length() - 1]]
            position[i] = p
            place(p + 1, placed | low, grown)

    place(0, 0, 0)
    return codes


def canonical_form(P: FinitePoset) -> tuple[int, int]:
    """(n, encoding): equal for two posets iff they are order-isomorphic."""
    n = P.n
    down = [sum(1 << j for j in range(n) if P.lt(j, i)) for i in range(n)]
    codes = _class_codes(down)
    if not codes:
        raise ValueError("no linear extension: the relation is not a partial order")
    return n, min(codes)


def _order_codes(n: int) -> Iterator[tuple[int, list[int]]]:
    """(code, strict up rows) of every partial order inside the upper
    triangle, in increasing order of the code.  The rows list is reused:
    read it before asking for the next code."""
    rows = [0] * n

    def choose(a: int, upsets: list[int], code: int):
        # upsets: the up-sets of the order on {a+1, ..., n-1}, ascending
        if a < 0:
            yield code, rows
            return
        shift = _row_base(n, a)
        bit = 1 << a
        for row in upsets:
            rows[a] = row
            # the up-sets of the order on {a, ..., n-1}: each one avoiding
            # a, followed by its union with a when it holds the up-set of a
            wider = []
            for S in upsets:
                wider.append(S)
                if row & ~S == 0:
                    wider.append(S | bit)
            yield from choose(a - 1, wider, code | (row >> a + 1) << shift)

    yield from choose(n - 1, [0], 0)


def _rows_poset(n: int, rows: Sequence[int]) -> FinitePoset:
    return FinitePoset([f"p{i}" for i in range(n)], [rows[i] | 1 << i for i in range(n)])


def _check_size(n: int) -> None:
    if n < 0:
        raise RangeError(f"n must be at least 0, got {n}")


@lru_cache(maxsize=None)
def all_posets(n: int) -> tuple[FinitePoset, ...]:
    """All posets on n elements, one representative per isomorphism class."""
    _check_size(n)
    if n == 0:
        return ()
    covered: set[int] = set()
    out: list[FinitePoset] = []
    for code, rows in _order_codes(n):
        if code in covered:
            covered.remove(code)
            continue
        P = _rows_poset(n, rows)
        covered |= _class_codes([row & ~(1 << i) for i, row in enumerate(P.down_rows())])
        covered.remove(code)
        out.append(P)
    return tuple(out)


def all_posets_upto(n: int) -> tuple[FinitePoset, ...]:
    out: list[FinitePoset] = []
    for k in range(1, n + 1):
        out.extend(all_posets(k))
    return tuple(out)


@lru_cache(maxsize=None)
def all_lattices(n: int) -> tuple[FiniteLattice, ...]:
    """All lattices on n elements, one representative per isomorphism class."""
    _check_size(n)
    if n == 0:
        return ()
    if n == 1:
        return (FiniteLattice(_rows_poset(1, [0])),)
    # 0 ⊕ P ⊕ 1: the bottom is index 0, P's point i is index i + 1, the
    # top is index n - 1
    top = 1 << (n - 1)
    above_bottom = (top << 1) - 2
    inner = [
        [P.up_mask(i) & ~(1 << i) for i in range(P.n)] for P in all_posets(n - 2)
    ] or [[]]  # n = 2: the empty P
    out = []
    for P_rows in inner:
        rows = [above_bottom] + [row << 1 | top for row in P_rows] + [0]
        try:
            out.append(FiniteLattice(_rows_poset(n, rows)))
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


def forest_specs(max_size: int, kinds: str = "TVC") -> tuple[tuple[ForestComponent, ...], ...]:
    """All component multisets with total size <= max_size, deduplicated.

    ``kinds`` restricts the component alphabet.  The coincidence
    T_1 = C_2 = V_1 is normalized away so no shape appears twice.
    """
    atoms: list[ForestComponent] = []
    for kind in kinds:
        k = 1
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
