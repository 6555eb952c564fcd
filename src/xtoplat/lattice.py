"""Finite bounded lattices with verified meet/join tables.

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

Construction of a table-backed :class:`FiniteLattice` verifies the tables
completely: the quadratic pointwise checks (bounds, commutativity,
idempotence, absorption, agreement with the order) plus glb/lub
universality, which reduces to one bitmask test per pair over the
down-/up-set rows.  A table that is the greatest lower bound for every
pair is automatically associative, so no cubic check is needed.

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

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyPosetError, NotALatticeError, SubsetViolationError
from .poset import FinitePoset, _mask_to_set


class FiniteLattice:
    """A finite bounded lattice: a poset plus total meet/join tables."""

    __slots__ = ("poset", "meet_table", "join_table", "bottom", "top")

    def __init__(
        self,
        poset: FinitePoset,
        meet_table: Sequence[Sequence[int]],
        join_table: Sequence[Sequence[int]],
    ):
        n = poset.n
        if n == 0:
            raise EmptyPosetError("a lattice needs at least one element")
        meet = tuple(tuple(row) for row in meet_table)
        join = tuple(tuple(row) for row in join_table)
        if len(meet) != n or len(join) != n or any(len(r) != n for r in meet + join):
            raise ValueError("meet/join tables must be total n×n tables")
        self.poset = poset
        self.meet_table = meet
        self.join_table = join
        full = (1 << n) - 1
        down = poset.down_rows()
        bottoms = [i for i in range(n) if poset._up[i] == full]
        tops = [i for i in range(n) if down[i] == full]
        if len(bottoms) != 1 or len(tops) != 1:
            raise NotALatticeError(
                "meet" if len(bottoms) != 1 else "join",
                poset.labels[0],
                poset.labels[-1],
            )
        self.bottom = bottoms[0]
        self.top = tops[0]
        self.validate()

    def validate(self) -> None:
        """Verify that meet and join are the glb and lub of every pair.

        Runs once, at construction, whatever the storage: subclasses
        supply the check for their own representation as ``_verify``.
        """
        self._verify()

    def _verify(self) -> None:
        """Verify the tables are exactly the glb/lub for every pair.

        down(meet[a][b]) == down(a) ∩ down(b) says precisely "c <= meet
        iff c is a common lower bound", i.e. the meet is the greatest
        lower bound; dually for the join.  Commutativity, idempotence,
        absorption and agreement with the order are consequences of
        glb/lub-ness, as is associativity, so the two row equalities per
        unordered pair are a complete axiom check.
        """
        P = self.poset
        n = P.n
        up = P._up
        down = P.down_rows()
        meet, join = self.meet_table, self.join_table
        for a in range(n):
            meets_a, joins_a = meet[a], join[a]
            down_a, up_a = down[a], up[a]
            for b in range(a, n):
                m, j = meets_a[b], joins_a[b]
                if (
                    m != meet[b][a]
                    or j != join[b][a]
                    or down[m] != down_a & down[b]
                    or up[j] != up_a & up[b]
                ):
                    raise NotALatticeError("meet", P.labels[a], P.labels[b])

    # -- queries ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.poset.labels

    def check(self, i: int) -> None:
        """Raise IndexError unless i is an element index."""
        if not 0 <= i < self.n:
            raise IndexError(f"element index {i} out of range 0..{self.n - 1}")

    def leq(self, a: int, b: int) -> bool:
        return self.poset.leq(a, b)

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def variety_masks(self, members: Iterable[int]) -> tuple[int, ...]:
        """V(a) = {x ∈ members : a <= x} for every element a, as a mask
        over element indices: the up-row of a restricted to the members."""
        xmask = sum(1 << x for x in set(members))
        return tuple(row & xmask for row in self.poset._up)

    def meet_all(self, elems: Iterable[int]) -> int:
        """Greatest lower bound of a set; the empty meet is the top."""
        acc = self.top
        for e in elems:
            acc = self.meet_table[acc][e]
        return acc

    def join_all(self, elems: Iterable[int]) -> int:
        """Least upper bound of a set; the empty join is the bottom."""
        acc = self.bottom
        for e in elems:
            acc = self.join_table[acc][e]
        return acc

    def maximals_of(self, members: Iterable[int]) -> frozenset[int]:
        """Maximal elements of a subset under the lattice order."""
        ms = set(members)
        return frozenset(a for a in ms if not any(self.poset.lt(a, b) for b in ms))

    def minimals_of(self, members: Iterable[int]) -> frozenset[int]:
        ms = set(members)
        return frozenset(a for a in ms if not any(self.poset.lt(b, a) for b in ms))

    def __eq__(self, other: object) -> bool:
        # validated tables are determined by the order
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
    masks[a] ⊇ masks[b].  The order (``poset``) and the meet/join tables
    are built on first read; the queries never read them.  Principal
    up-sets carry the label of their generator, the others set notation.
    """

    # the inherited poset/meet_table/join_table slots stay unused: the
    # properties below shadow them and build into _order/_meet/_join
    __slots__ = ("ground", "masks", "_labels", "_position", "_order", "_meet", "_join")

    def __init__(self, ground: FinitePoset, masks: Iterable[int]):
        if ground.n == 0:
            raise EmptyPosetError("the empty poset has no up-set lattice")
        masks = tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))
        full = (1 << ground.n) - 1
        if any(m & ~full for m in masks):
            raise ValueError("up-set mask mentions elements out of range")
        principal = {ground.up_mask(x): x for x in range(ground.n)}
        self.ground = ground
        self.masks = masks
        self._labels = tuple(
            ground.labels[principal[m]] if m in principal else _set_label(ground, m)
            for m in masks
        )
        self._position = {m: k for k, m in enumerate(masks)}
        self._order = self._meet = self._join = None
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
            raise NotALatticeError("join", self._labels[0], self._labels[-1])
        for k, U in enumerate(self.masks):
            for x in range(P.n):
                grown = U | up[x]
                if (U >> x & 1 and grown != U) or grown not in position:
                    raise NotALatticeError("meet", self._labels[k], P.labels[x])
                if U & ~down[x] not in position:
                    outside = _set_label(P, full & ~down[x])
                    raise NotALatticeError("join", self._labels[k], outside)

    @property
    def n(self) -> int:
        return len(self.masks)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

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
            self._order = FinitePoset(self._labels, rows)
        return self._order

    @property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        if self._meet is None:
            self._meet = self._table(lambda a, b: a | b)
        return self._meet

    @property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        if self._join is None:
            self._join = self._table(lambda a, b: a & b)
        return self._join

    def _table(self, op) -> tuple[tuple[int, ...], ...]:
        position = self._position
        return tuple(tuple(position[op(a, b)] for b in self.masks) for a in self.masks)

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
        return self._extremes(sorted(set(members)), lambda kept, m: kept & ~m == 0)

    def minimals_of(self, members: Iterable[int]) -> frozenset[int]:
        """Members with no other member's mask around their own (dually)."""
        return self._extremes(
            sorted(set(members), reverse=True), lambda kept, m: m & ~kept == 0
        )

    def _extremes(self, ordered: list[int], beaten) -> frozenset[int]:
        kept: list[int] = []
        out = []
        for a in ordered:
            self.check(a)
            m = self.masks[a]
            if not any(beaten(k, m) for k in kept):
                kept.append(m)
                out.append(a)
        return frozenset(out)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UpsetLattice) and self.ground == other.ground:
            return True
        return super().__eq__(other)

    __hash__ = FiniteLattice.__hash__


def _set_label(P: FinitePoset, mask: int) -> str:
    return "{" + ",".join(P.labels[i] for i in sorted(_mask_to_set(mask))) + "}"


@dataclass(frozen=True)
class EmbeddedSubset:
    """A subset X ⊆ L \\ {top}: the candidate carrier of a Zariski-like topology."""

    lattice: FiniteLattice
    members: frozenset[int]

    def __post_init__(self):
        for x in self.members:
            self.lattice.check(x)
        if self.lattice.top in self.members:
            raise SubsetViolationError("the top element cannot belong to X")


def lattice_from_poset(P: FinitePoset) -> FiniteLattice:
    """Fill meet/join tables by exhaustive glb/lub search over P.

    Raises :class:`NotALatticeError` naming a witness pair as soon as some
    pair has no greatest lower bound or least upper bound.
    """
    if P.n == 0:
        raise EmptyPosetError("a lattice needs at least one element")
    n = P.n
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lower = [c for c in range(n) if P.leq(c, a) and P.leq(c, b)]
            glb = [c for c in lower if all(P.leq(d, c) for d in lower)]
            if len(glb) != 1:
                raise NotALatticeError("meet", P.labels[a], P.labels[b])
            upper = [c for c in range(n) if P.leq(a, c) and P.leq(b, c)]
            lub = [c for c in upper if all(P.leq(c, d) for d in upper)]
            if len(lub) != 1:
                raise NotALatticeError("join", P.labels[a], P.labels[b])
            meet[a][b] = glb[0]
            join[a][b] = lub[0]
    return FiniteLattice(P, meet, join)


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


def is_distributive(L: FiniteLattice) -> bool:
    """a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c) for all triples."""
    n = L.n
    return all(
        L.meet(a, L.join(b, c)) == L.join(L.meet(a, b), L.meet(a, c))
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def has_complete_max_property(L: FiniteLattice, X: EmbeddedSubset) -> bool:
    """Every q maximal in X satisfies ⋀(Max(X) \\ {q}) ≰ q."""
    maxima = L.maximals_of(X.members)
    return all(
        not L.leq(L.meet_all(maxima - {q}), q) for q in maxima
    )


def _require_between(L: FiniteLattice, X: EmbeddedSubset, A: Iterable[int]) -> frozenset[int]:
    A = frozenset(A)
    for a in A:
        L.check(a)
    if not X.members <= A:
        raise SubsetViolationError("X must be contained in A")
    return A


def is_coatomic(L: FiniteLattice, X: EmbeddedSubset, A: Iterable[int]) -> bool:
    """Every a ∈ A lies below some maximal element of X."""
    A = _require_between(L, X, A)
    maxima = L.maximals_of(X.members)
    return all(any(L.leq(a, m) for m in maxima) for a in A)


def is_atomic(L: FiniteLattice, X: EmbeddedSubset, A: Iterable[int]) -> bool:
    """Every a ∈ A lies above some minimal element of X."""
    A = _require_between(L, X, A)
    minima = L.minimals_of(X.members)
    return all(any(L.leq(m, a) for m in minima) for a in A)
