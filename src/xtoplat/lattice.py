"""Finite bounded lattices, read off their order.

All lattices here are finite, hence complete; finite meets and joins
materialize every infinitary operation, so no separate completeness
machinery exists.  ("Finitely joinable" is likewise vacuous at this scale:
any join that reaches the top element already does so over finitely many
terms.)  The empty meet is the top element and the empty join the bottom,
which is what makes irredundance tests over Max(X)\\{q} behave when X has
a single maximal element.

:func:`upset_lattice` realizes any finite poset P inside a lattice: the
elements are the up-closed subsets of P ordered by *reverse* inclusion,
so meet is set union, join is set intersection, the top is ∅ and the
bottom is all of P.  Under this convention the varieties of the embedded
copy of P are exactly the up-sets, i.e. closed = up-closed (the Alexandrov
picture with the specialization order equal to the original order).

A :class:`FiniteLattice` is given by its order alone.  c <= glb(a, b)
iff c <= a and c <= b, so the glb of a and b is the element whose
down-row is down(a) ∩ down(b), and a poset is a lattice exactly when
every such intersection, and dually every up(a) ∩ up(b), is some
element's row.  Construction looks each pair up once in the row
dictionaries, raises :class:`NotALatticeError` at the first pair whose
intersection is nobody's row, and keeps the answers as the meet/join
tables; no table is ever handed in, so none needs re-checking.

The up-set lattice is stored as its masks instead (:class:`UpsetLattice`):
meet is OR, join is AND and a <= b is "mask a contains mask b", so it
builds no order rows and no tables unless a caller reads them.  Its
construction checks the mask family F in O(|F|·|P|): 0 ∈ F, every mask
is up-closed, and U | ↑x and U & ~↓x are in F for every U ∈ F and x ∈ P.
The last two close F under union and intersection (U ∪ V adds the ↑x for
x ∈ V; U ∩ V removes the ↓x for x ∉ V), so OR and AND are the glb and
lub of F under reverse inclusion; from 0 they reach every up-set (each
is a union of principal ones), and up-closure admits nothing else, so F
is exactly the up-sets of P.
"""

from __future__ import annotations

from typing import Iterable

from .errors import EmptyPosetError, NotALatticeError, SubsetViolationError
from .poset import FinitePoset, _bits


class FiniteLattice:
    """A finite bounded lattice, given by its order: meets and joins are
    looked up in the order rows at construction and kept as tables."""

    __slots__ = ("poset", "_meet", "_join", "bottom", "top")

    def __init__(self, poset: FinitePoset):
        if poset.n == 0:
            raise EmptyPosetError("a lattice needs at least one element")
        self.poset = poset
        self.validate()

    def validate(self) -> None:
        """Check that the storage is a lattice.

        Runs once, at construction, whatever the storage: subclasses
        supply the check for their own representation as ``_verify``.
        """
        self._verify()

    def _verify(self) -> None:
        """Look up the glb and lub of every index pair a <= b in the order rows.

        The glb is the element whose down-row is down(a) ∩ down(b), the
        lub the one whose up-row is up(a) ∩ up(b) (module docstring).
        Pairs are scanned row by row, the meet before the join, so the
        error names the first failing pair of a scan over all ordered
        pairs too.  The answers become the tables; bottom and top are
        the meet and the join of everything.
        """
        P = self.poset
        n = P.n
        up = P._up
        down = P.down_rows()
        by_down = {row: c for c, row in enumerate(down)}
        by_up = {row: c for c, row in enumerate(up)}
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                m = by_down.get(down[a] & down[b])
                if m is None:
                    raise NotALatticeError("meet", P.labels[a], P.labels[b])
                j = by_up.get(up[a] & up[b])
                if j is None:
                    raise NotALatticeError("join", P.labels[a], P.labels[b])
                meet[a][b] = meet[b][a] = m
                join[a][b] = join[b][a] = j
        self._meet = tuple(map(tuple, meet))
        self._join = tuple(map(tuple, join))
        bottom = top = 0
        for e in range(n):
            bottom, top = meet[bottom][e], join[top][e]
        self.bottom, self.top = bottom, top

    # -- queries ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.poset.labels

    def label(self, a: int) -> str:
        """Element a's label; an up-set lattice builds it alone."""
        return self.labels[a]

    def check(self, i: int) -> None:
        """Raise IndexError unless i is an element index."""
        if not 0 <= i < self.n:
            raise IndexError(f"element index {i} out of range 0..{self.n - 1}")

    def leq(self, a: int, b: int) -> bool:
        return self.poset.leq(a, b)

    def meet(self, a: int, b: int) -> int:
        return self._meet[a][b]

    def join(self, a: int, b: int) -> int:
        return self._join[a][b]

    @property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        """meet(a, b) for every pair, kept by ``_verify`` or built on first read."""
        if self._meet is None:
            self._meet = self._table(self.meet)
        return self._meet

    @property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        if self._join is None:
            self._join = self._table(self.join)
        return self._join

    def _table(self, op) -> tuple[tuple[int, ...], ...]:
        n = self.n
        return tuple(tuple(op(a, b) for b in range(n)) for a in range(n))

    def variety_masks(self, members: Iterable[int]) -> tuple[int, ...]:
        """V(a) = {x ∈ members : a <= x} for every element a, as a mask
        over element indices: the up-row of a restricted to the members."""
        xmask = sum(1 << x for x in set(members))
        return tuple(row & xmask for row in self.poset._up)

    def meet_all(self, elems: Iterable[int]) -> int:
        """Greatest lower bound of a set; the empty meet is the top."""
        acc = self.top
        for e in elems:
            acc = self._meet[acc][e]
        return acc

    def join_all(self, elems: Iterable[int]) -> int:
        """Least upper bound of a set; the empty join is the bottom."""
        acc = self.bottom
        for e in elems:
            acc = self._join[acc][e]
        return acc

    def maximals_of(self, members: Iterable[int]) -> frozenset[int]:
        """Maximal elements of a subset under the lattice order."""
        ms = set(members)
        return frozenset(a for a in ms if not any(self.poset.lt(a, b) for b in ms))

    def __eq__(self, other: object) -> bool:
        # a lattice is determined by its order
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.labels == other.labels and self.poset == other.poset

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n} elements, bottom={self.labels[self.bottom]!r}, top={self.labels[self.top]!r})"


class UpsetLattice(FiniteLattice):
    """The up-sets of a poset under reverse inclusion, stored as bitmasks.

    Element k is the up-set ``masks[k]``; the masks are sorted by (size,
    mask), so the top ∅ is element 0 and the bottom, all of the ground
    poset, is the last.  Meet is OR, join is AND and a <= b iff
    masks[a] ⊇ masks[b].  The order (``poset``), the meet/join tables and
    the labels are built on first read; the queries never read them.
    Principal up-sets carry the label of their generator, the others set
    notation.
    """

    # the inherited poset slot stays unused: the property below shadows
    # it and builds into _order
    __slots__ = ("ground", "masks", "_labels", "_position", "_order")

    def __init__(self, ground: FinitePoset, masks: Iterable[int]):
        if ground.n == 0:
            raise EmptyPosetError("the empty poset has no up-set lattice")
        masks = tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))
        full = (1 << ground.n) - 1
        if any(m & ~full for m in masks):
            raise ValueError("up-set mask mentions elements out of range")
        self.ground = ground
        self.masks = masks
        self._position = {m: k for k, m in enumerate(masks)}
        self._labels = self._order = self._meet = self._join = None
        self.top = 0
        self.bottom = len(masks) - 1
        self.validate()

    def _verify(self) -> None:
        """The masks are exactly the up-sets (see the module docstring)."""
        P = self.ground
        up = [P.up_mask(x) for x in range(P.n)]
        down = P.down_rows()
        full = (1 << P.n) - 1
        position = self._position
        if len(position) != len(self.masks):
            raise ValueError("up-set masks must be distinct")
        if 0 not in position:
            raise NotALatticeError("join", self.labels[0], self.labels[-1])
        for k, U in enumerate(self.masks):
            for x in range(P.n):
                grown = U | up[x]
                if (U >> x & 1 and grown != U) or grown not in position:
                    raise NotALatticeError("meet", self.labels[k], P.labels[x])
                if U & ~down[x] not in position:
                    outside = _set_label(P, full & ~down[x])
                    raise NotALatticeError("join", self.labels[k], outside)

    @property
    def n(self) -> int:
        return len(self.masks)

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            self._labels = tuple(map(self.label, range(len(self.masks))))
        return self._labels

    def label(self, a: int) -> str:
        """The generator's label for a principal up-set ↑x, else set notation."""
        m, P = self.masks[a], self.ground
        x = next((x for x in _bits(m) if P._up[x] == m), None)
        return _set_label(P, m) if x is None else P.labels[x]

    @property
    def poset(self) -> FinitePoset:
        if self._order is None:
            rows = []
            for a in self.masks:
                row = 0
                for k, b in enumerate(self.masks):
                    if a | b == a:
                        row |= 1 << k
                rows.append(row)
            self._order = FinitePoset(self.labels, rows)
        return self._order

    def leq(self, a: int, b: int) -> bool:
        masks = self.masks
        if not (0 <= a < len(masks) and 0 <= b < len(masks)):
            self.check(a)
            self.check(b)
        return masks[a] | masks[b] == masks[a]

    def meet(self, a: int, b: int) -> int:
        return self._position[self.masks[a] | self.masks[b]]

    def variety_masks(self, members: Iterable[int]) -> tuple[int, ...]:
        """V(a) for every element a, read off the masks: x ∈ V(a) iff
        mask x ⊆ mask a.  Builds neither the order nor the tables."""
        masks = self.masks
        out = [0] * len(masks)
        for x in set(members):
            mx, bit = masks[x], 1 << x
            for a, ma in enumerate(masks):
                if ma | mx == ma:
                    out[a] |= bit
        return tuple(out)

    def join(self, a: int, b: int) -> int:
        return self._position[self.masks[a] & self.masks[b]]

    def meet_all(self, elems: Iterable[int]) -> int:
        masks = self.masks
        acc = 0
        for e in elems:
            acc |= masks[e]
        return self._position[acc]

    def join_all(self, elems: Iterable[int]) -> int:
        masks = self.masks
        acc = masks[self.bottom]
        for e in elems:
            acc &= masks[e]
        return self._position[acc]

    def maximals_of(self, members: Iterable[int]) -> frozenset[int]:
        """Members with no other member's mask inside their own.

        Indices follow mask size, so scanning upwards meets every strictly
        smaller mask first; comparing against the maximals kept so far
        suffices, because each smaller member contains one of them.
        """
        kept: list[int] = []
        out = []
        for a in sorted(set(members)):
            self.check(a)
            m = self.masks[a]
            if not any(k & ~m == 0 for k in kept):
                kept.append(m)
                out.append(a)
        return frozenset(out)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UpsetLattice) and self.ground == other.ground:
            return True
        return super().__eq__(other)

    __hash__ = FiniteLattice.__hash__


def _set_label(P: FinitePoset, mask: int) -> str:
    return "{" + ",".join(P.labels[i] for i in _bits(mask)) + "}"


def upset_lattice(P: FinitePoset) -> tuple[UpsetLattice, dict[int, int]]:
    """The lattice of up-sets of P under reverse inclusion, plus the embedding.

    Meet is set union and join set intersection (reverse inclusion swaps
    them); the embedding sends x to its principal up-set ↑x and is
    order-preserving and injective.  The lattice is an
    :class:`UpsetLattice`: the up-set masks themselves, with no order rows
    or tables until a caller reads them.
    """
    lattice = UpsetLattice(P, P.upset_masks())
    embedding = {x: lattice._position[P.up_mask(x)] for x in range(P.n)}
    return lattice, embedding


def _members(L: FiniteLattice, X: Iterable[int]) -> frozenset[int]:
    """X as a set of element indices, checked to be a carrier: every index
    names an element (else IndexError) and the top is not among them."""
    members = frozenset(X)
    for x in members:
        L.check(x)
    if L.top in members:
        raise SubsetViolationError("the top element cannot belong to X")
    return members


def has_complete_max_property(L: FiniteLattice, X: Iterable[int]) -> bool:
    """Every q maximal in X satisfies ⋀(Max(X) \\ {q}) ≰ q."""
    maxima = L.maximals_of(_members(L, X))
    return all(not L.leq(L.meet_all(maxima - {q}), q) for q in maxima)
