"""Finite partially ordered sets.

Elements are dense indices ``0..n-1`` with a label table; a subset is an
int mask, bit ``i`` standing for element ``i``, whether a caller passes it
in or a query returns it.  The order is stored as a full n×n boolean
relation, kept internally as one bitmask row per element (bit ``j`` of
``up[i]`` is set iff ``i <= j``), so all queries are O(1) table lookups.

Rows that can be malformed are checked once, where they enter:
``FinitePoset(labels, rows)`` validates reflexivity, antisymmetry and
transitivity for the rows that specialization posets, inclusion orders,
lattice orders and enumeration pass it, and ``poset_from_relation``
(JSON input) first closes its pairs by one Warshall pass.

The shapes used throughout are written down instead: chains C_k,
antichains, trees T_n (one maximal element over n pairwise-incomparable
minimals), dual trees V_m (one minimal element under m maximals), and
forests (disjoint unions of those, labels suffixed with ``#<component>``
to stay distinct).  Each shape knows its covers, so its up rows, down
rows and heights follow from them directly, and a forest shifts its
components' rows by their offsets; these skip both passes.  Rows take
memory quadratic in the points, so a shape past :data:`MAX_POINTS` is
refused with :class:`RangeError` before any row is built.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Sequence

from .errors import (
    CycleError,
    DuplicateLabelError,
    EmptyPosetError,
    EmptySpecError,
    RangeError,
    ZeroSizeError,
)

ForestComponent = tuple[str, int]  # ("T" | "V" | "C", parameter)

# `classify --chain` at the cap peaks near 205 MB and takes 1.6–1.9 s on a
# 2-core machine; past it, the quadratic rows outgrow a small host.
MAX_POINTS = 30_000


def _letters(k: int) -> list[str]:
    """k distinct labels: a, b, ..., z, aa, ab, ... (spreadsheet style)."""
    out = []
    for i in range(k):
        name = ""
        j = i
        while True:
            name = chr(ord("a") + j % 26) + name
            j = j // 26 - 1
            if j < 0:
                break
        out.append(name)
    return out


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(S: Iterable[int]) -> int:
    """The mask of a set of indices, the inverse of :func:`_bits`."""
    return sum(1 << x for x in S)


def _point_set(S: int) -> int:
    """``S`` checked to be a set of indices given as a mask: an int, not a
    bool, and not negative (a negative int has infinitely many bits)."""
    if isinstance(S, bool) or not isinstance(S, int):
        raise TypeError(f"a set of indices is an int mask, not {type(S).__name__}")
    if S < 0:
        raise ValueError(f"a set of indices is a mask >= 0, not {S}")
    return S


def _repeat(items: Iterable):
    """The first item that occurs a second time, or None."""
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


def _size_key(mask: int) -> tuple[int, str]:
    """The sort key, under ``reverse=True``, of the (size, sorted elements)
    order: the order of every listed family of point sets and of ideals.

    Smaller sets come first.  For equal sizes the lesser set holds the
    first differing element, which is a "1" against a "0" in the
    binary strings read from bit 0 up; such strings never extend one
    another, since the longer one ends in a "1" the shorter lacks.
    """
    return (-mask.bit_count(), bin(mask)[:1:-1])


# the characters "0" and "1" to the bytes 0 and 1, false and true selectors
_FLAG_BYTES = bytes.maketrans(b"01", b"\0\1")


def _selected(labels: Sequence[str], mask: int):
    """The labels of the elements of a mask, in index order: ``labels[k]``
    is selected by bit k, read off the binary string from bit 0 up."""
    return compress(labels, bin(mask)[:1:-1].encode().translate(_FLAG_BYTES))


class FinitePoset:
    """An immutable finite poset over labelled elements."""

    __slots__ = ("labels", "_up", "_index", "_down", "_heights")

    def __init__(self, labels: Sequence[str], up_masks: Sequence[int]):
        labels = tuple(labels)
        up = tuple(up_masks)
        if len(set(labels)) != len(labels):
            raise DuplicateLabelError(f"duplicate label {_repeat(labels)!r}")
        if len(up) != len(labels):
            raise ValueError("one relation row per label required")
        n = len(labels)
        full = (1 << n) - 1
        for i, row in enumerate(up):
            if row & ~full:
                raise ValueError("relation row mentions elements out of range")
            if not row >> i & 1:
                raise ValueError(f"relation is not reflexive at {labels[i]!r}")
        for i in range(n):
            strict = up[i] & ~(1 << i)
            for j in _bits(strict):
                if up[j] >> i & 1:
                    raise CycleError(labels[i], labels[j])
                if up[j] & ~up[i]:
                    raise ValueError(
                        f"relation is not transitive at {labels[i]!r} <= {labels[j]!r}"
                    )
        self.labels = labels
        self._up = up
        self._index = {name: i for i, name in enumerate(labels)}
        self._down: tuple[int, ...] | None = None
        self._heights: tuple[int, ...] | None = None

    @classmethod
    def _written(cls, labels, up, down, heights) -> "FinitePoset":
        """A shape's poset from the up rows, down rows and heights its
        covers give: transitive and mutually transposed by construction,
        so neither closure nor validation runs."""
        P = cls.__new__(cls)
        P.labels, P._up, P._down = tuple(labels), tuple(up), tuple(down)
        P._heights = tuple(heights)
        P._index = {name: i for i, name in enumerate(P.labels)}
        return P

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.labels == other.labels and self._up == other._up

    def __hash__(self) -> int:
        return hash((self.labels, self._up))

    def __repr__(self) -> str:
        return f"FinitePoset({self.n} elements: {', '.join(self.labels[:8])}{'...' if self.n > 8 else ''})"

    def index(self, label: str) -> int:
        return self._index[label]

    def leq(self, i: int, j: int) -> bool:
        """i <= j."""
        self._check(i)
        self._check(j)
        return bool(self._up[i] >> j & 1)

    def lt(self, i: int, j: int) -> bool:
        return i != j and self.leq(i, j)

    def up_mask(self, i: int) -> int:
        self._check(i)
        return self._up[i]

    def up_rows(self) -> tuple[int, ...]:
        """The relation by rows: bit j of row i is set iff i <= j."""
        return self._up

    def down_rows(self) -> tuple[int, ...]:
        """Transpose of the relation: bit i of row j is set iff i <= j."""
        if self._down is None:
            down = [0] * self.n
            for i, row in enumerate(self._up):
                bit = 1 << i
                for j in _bits(row):
                    down[j] |= bit
            self._down = tuple(down)
        return self._down

    def _check(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise IndexError(f"element index {i} out of range 0..{self.n - 1}")

    # -- order statistics ---------------------------------------------------

    def heights(self) -> tuple[int, ...]:
        """Height of every element: longest strict chain ending there."""
        if self._heights is not None:
            return self._heights
        down = self.down_rows()
        order = sorted(range(self.n), key=lambda i: bin(down[i]).count("1"))
        ht = [0] * self.n
        for i in order:
            below = down[i] & ~(1 << i)
            ht[i] = 1 + max((ht[j] for j in _bits(below)), default=-1)
        return tuple(ht)

    def krull_dim(self) -> int:
        """Maximum height over all elements."""
        if self.n == 0:
            raise EmptyPosetError("Krull dimension of the empty poset is undefined")
        return max(self.heights())

    def minimals(self) -> int:
        """The mask of the minimal elements."""
        return _mask(i for i, row in enumerate(self.down_rows()) if row == 1 << i)

    def maximals(self) -> int:
        """The mask of the maximal elements."""
        return _mask(i for i, row in enumerate(self._up) if row == 1 << i)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (i, j): i < j with nothing strictly between."""
        down = self.down_rows()
        out = []
        for i in range(self.n):
            strict_up = self._up[i] & ~(1 << i)
            for j in _bits(strict_up):
                if strict_up & down[j] & ~(1 << j) == 0:
                    out.append((i, j))
        return tuple(sorted(out))

    # -- up-sets ------------------------------------------------------------

    def upset_masks(self) -> list[int]:
        """Every up-set as a mask, each exactly once, split on a maximal
        element m of the undecided ones: first the up-sets that contain m,
        then those that avoid ↓m entirely.

        An up-set U of the undecided set A either holds m, and then
        U \\ {m} is an up-set of A \\ {m} (nothing in A lies above m), or
        misses m, and then it misses ↓m and is an up-set of A \\ ↓m.  Both
        maps are one-to-one, and back again any up-set of A \\ {m} plus m,
        or of A \\ ↓m, is an up-set of A.  The two branches are disjoint,
        so by induction on |A| every up-set comes out once.

        The split is memoized on the undecided set, so the cost follows
        the output rather than 2^n, and it runs on an explicit stack, so
        a long chain does not exhaust the recursion limit.
        """
        up = self._up
        down = self.down_rows()
        full = (1 << self.n) - 1
        done: dict[int, tuple[int, ...]] = {0: (0,)}
        stack = [full]
        while stack:
            alive = stack[-1]
            if alive in done:
                stack.pop()
                continue
            # the least element maximal inside `alive`
            m = next(i for i in _bits(alive) if up[i] & alive == 1 << i)
            with_m, without_m = alive & ~(1 << m), alive & ~down[m]
            pending = [rest for rest in (with_m, without_m) if rest not in done]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            bit = 1 << m
            done[alive] = tuple(u | bit for u in done[with_m]) + done[without_m]
        return list(done[full])

    # -- structure ----------------------------------------------------------

    def order_components(self) -> tuple[int, ...]:
        """Connected components of the comparability graph, as masks in
        order of their least element."""
        down = self.down_rows()
        comps = []
        left = (1 << self.n) - 1
        while left:
            comp = frontier = left & -left
            while frontier:
                reach = 0
                for i in _bits(frontier):
                    reach |= self._up[i] | down[i]
                frontier = reach & ~comp
                comp |= reach
            left &= ~comp
            comps.append(comp)
        return tuple(comps)


def _from_pairs(labels: Sequence[str], index_pairs: Iterable[tuple[int, int]]) -> FinitePoset:
    """Poset from (i <= j) index pairs; reflexive-transitive closure applied."""
    n = len(labels)
    up = [1 << i for i in range(n)]
    for i, j in index_pairs:
        up[i] |= 1 << j
    # Warshall on mask rows: after step k, every row holds what it reaches
    # through intermediates among 0..k, so one pass closes any relation
    for k in range(n):
        bit, row = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= row
    return FinitePoset(labels, up)


def poset_from_relation(
    labels: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> FinitePoset:
    """Build a poset from named pairs, each meaning ``first <= second``.

    The order is the reflexive-transitive closure of the pairs; a closure
    that violates antisymmetry raises :class:`CycleError`.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise DuplicateLabelError(f"duplicate label {_repeat(labels)!r}")
    index = {name: i for i, name in enumerate(labels)}
    index_pairs = []
    for a, b in pairs:
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise ValueError(f"pair mentions unknown label {missing!r}")
        index_pairs.append((index[a], index[b]))
    return _from_pairs(labels, index_pairs)


def _fits(points: int) -> None:
    if points > MAX_POINTS:
        raise RangeError(
            f"a chain, tree or forest has at most {MAX_POINTS} points, got {points}"
        )


def chain(k: int) -> FinitePoset:
    """Totally ordered poset x0 < x1 < ... with k elements (length k-1)."""
    if k < 1:
        raise ZeroSizeError("a chain needs at least one element")
    _fits(k)
    full = (1 << k) - 1
    return FinitePoset._written(
        [f"x{i}" for i in range(k)],
        [full >> i << i for i in range(k)],
        [full >> (k - 1 - i) for i in range(k)],
        range(k),
    )


def antichain(k: int) -> FinitePoset:
    """k pairwise-incomparable elements."""
    if k < 1:
        raise ZeroSizeError("an antichain needs at least one element")
    _fits(k)
    rows = [1 << i for i in range(k)]
    return FinitePoset._written([f"a{i}" for i in range(k)], rows, rows, [0] * k)


def tree(n: int) -> FinitePoset:
    """T_n: one maximal element ``m`` over n pairwise-incomparable minimals.

    The minimals take the first n of ``_letters`` other than ``m``.
    """
    if n < 1:
        raise ZeroSizeError("a tree needs at least one minimal element")
    _fits(n + 1)
    labels = [name for name in _letters(n + 1) if name != "m"][:n] + ["m"]
    top = 1 << n
    return FinitePoset._written(
        labels,
        [1 << i | top for i in range(n)] + [top],
        [1 << i for i in range(n)] + [(top << 1) - 1],
        [0] * n + [1],
    )


def dual_tree(m: int) -> FinitePoset:
    """V_m: one minimal element ``r`` under m pairwise-incomparable maximals.

    The maximals take the first m of ``_letters`` other than ``r``.
    """
    if m < 1:
        raise ZeroSizeError("a dual tree needs at least one maximal element")
    _fits(m + 1)
    labels = ["r"] + [name for name in _letters(m + 1) if name != "r"][:m]
    return FinitePoset._written(
        labels,
        [(2 << m) - 1] + [1 << i for i in range(1, m + 1)],
        [1] + [1 << i | 1 for i in range(1, m + 1)],
        [0] + [1] * m,
    )


def forest(spec: Sequence[ForestComponent]) -> FinitePoset:
    """Disjoint union of T/V/C components; labels get a ``#<k>`` suffix."""
    if not spec:
        raise EmptySpecError("a forest needs at least one component")
    _fits(sum(size + (kind.upper() != "C") for kind, size in spec))
    builders = {"T": tree, "V": dual_tree, "C": chain}
    labels: list[str] = []
    up: list[int] = []
    down: list[int] = []
    heights: list[int] = []
    for k, (kind, size) in enumerate(spec, start=1):
        kind = kind.upper()
        if kind not in builders:
            raise ValueError(f"unknown forest component kind {kind!r}")
        part = builders[kind](size)
        offset = len(labels)
        labels.extend(f"{name}#{k}" for name in part.labels)
        up.extend(row << offset for row in part._up)
        down.extend(row << offset for row in part._down)
        heights.extend(part._heights)
    return FinitePoset._written(labels, up, down, heights)


# -- component shape classification ----------------------------------------


def is_tree_component(P: FinitePoset, component: int) -> int | None:
    """n if the component, a mask, is a T_n (n >= 1), else None."""
    return _star(P._up, component)


def is_dual_tree_component(P: FinitePoset, component: int) -> int | None:
    """m if the component, a mask, is a V_m (m >= 1), else None."""
    return _star(P.down_rows(), component)


def _star(rows: Sequence[int], C: int) -> int | None:
    """The number of leaves if the mask C is one hub t with rows[t] ∩ C
    = {t} and at least one leaf, every leaf i having rows[i] ∩ C = {i, t};
    else None.  On the up rows that is T_n, on the down rows V_m.  Nothing
    in C lies on the other side of a leaf i: such a j would be a leaf, and
    rows[j] ∩ C would hold i."""
    hubs = [t for t in _bits(_point_set(C)) if rows[t] & C == 1 << t]
    if len(hubs) != 1 or C & (C - 1) == 0:
        return None
    hub = 1 << hubs[0]
    if any(rows[i] & C != 1 << i | hub for i in _bits(C & ~hub)):
        return None
    return C.bit_count() - 1


def is_forest_of_trees(P: FinitePoset) -> bool:
    """True iff every order-component is a T_n with n >= 2."""
    if P.n == 0:
        return False
    return all(
        (n := is_tree_component(P, comp)) is not None and n >= 2
        for comp in P.order_components()
    )


def has_dual_tree_component(P: FinitePoset) -> bool:
    """True iff some order-component is a V_m, m >= 1 (2-chains included)."""
    return any(
        is_dual_tree_component(P, comp) is not None for comp in P.order_components()
    )
