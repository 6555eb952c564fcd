"""Zariski-like topologies on subsets of finite lattices.

For a lattice L and X ⊆ L \\ {top}, the variety of a ∈ L is
V(a) = {x ∈ X : a <= x} and D(a) = X \\ V(a) its open complement.  The
family {V(a)} always contains ∅ and X and is closed under intersections
(V(a) ∩ V(b) = V(a ∨ b)); the pair (L, X) carries a topology exactly when
the family is also closed under pairwise unions.  Two independent decision
procedures are provided:

* :func:`is_xtop_by_unions` checks the union-closure condition directly;
* :func:`is_xtop_by_irreducibility` checks that every x ∈ X is strongly
  irreducible over the radical elements: for radical a, b with
  a ∧ b <= x, one of a <= x or b <= x holds.  Pairs suffice: the radical
  elements are closed under meets, so the finite case follows by induction
  on |A| (peel one element off A and apply the pair case to it and ⋀rest).

The two agree on every instance (this equivalence is re-verified
exhaustively by the test-suite and the ``verify xct`` CLI suite).

Both run on the varieties as bitmasks over lattice indices, computed once
per (L, X) by the lattice's ``variety_masks``.  The irreducibility test
reorders its quantifiers to loop over radical pairs only: a point x fails
at (a, b) iff a ∧ b <= x, a ≰ x and b ≰ x, iff x ∈ V(a ∧ b) \\ (V(a) ∪ V(b)),
so some x fails at (a, b) iff that mask is non-empty (never for a = b),
one mask test per pair.

An :class:`XTopSpace` keeps those masks and nothing else: the closed sets
are the distinct V(a) and the open sets their complements in X, so the
kernel of x is X minus the union of the V(a) that miss x, the
specialization order has x <= y iff y ∈ V(x), and the subspace on Y ⊆ X
has the varieties V(a) ∩ Y.  The frozenset families are views, built on
first read, which only the printed outputs do.

X = ∅ is accepted everywhere and yields the empty space; the empty-meet
convention (⋀∅ = top, V(top) = ∅) keeps every operation consistent there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import EmptyPosetError, NotXTopError, SubsetViolationError
from .lattice import EmbeddedSubset, FiniteLattice, upset_lattice
from .poset import FinitePoset, _bits, _by_size, _mask

XLike = EmbeddedSubset | Iterable[int]


def _members(L: FiniteLattice, X: XLike) -> frozenset[int]:
    if isinstance(X, EmbeddedSubset):
        if X.lattice is not L and X.lattice != L:
            raise ValueError("embedded subset belongs to a different lattice")
        return X.members
    members = frozenset(X)
    for x in members:
        L.check(x)
    if L.top in members:
        raise SubsetViolationError("the top element cannot belong to X")
    return members


def variety(L: FiniteLattice, X: XLike, a: int) -> frozenset[int]:
    """V(a) = {x ∈ X : a <= x}."""
    L.check(a)
    return frozenset(x for x in _members(L, X) if L.leq(a, x))


def covariety(L: FiniteLattice, X: XLike, a: int) -> frozenset[int]:
    """D(a) = X \\ V(a)."""
    return _members(L, X) - variety(L, X, a)


@dataclass(frozen=True)
class RadicalInfo:
    """The radical map a ↦ √a = ⋀V(a) and its fixed points."""

    radical_of: tuple[int, ...]  # indexed by lattice element
    radical_elements: frozenset[int]  # {a : √a = a}


def radical_info(L: FiniteLattice, X: XLike) -> RadicalInfo:
    """√a = ⋀V(a) for every a; the radical elements are the fixed points.

    X itself always consists of radical elements, √ is inflationary and
    idempotent, and the radical elements are closed under meets.
    """
    return _radical_info(L, L.variety_masks(_members(L, X)))


def _radical_info(L: FiniteLattice, varieties: Sequence[int]) -> RadicalInfo:
    """:func:`radical_info` from the variety masks: one meet per distinct V(a)."""
    meets = {v: L.meet_all(_bits(v)) for v in set(varieties)}
    radical = tuple(meets[v] for v in varieties)
    fixed = frozenset(a for a, r in enumerate(radical) if r == a)
    return RadicalInfo(radical, fixed)


def is_xtop_by_unions(L: FiniteLattice, X: XLike) -> bool:
    """True iff for all a, b there is c with V(a) ∪ V(b) = V(c)."""
    return _union_witness(L.variety_masks(_members(L, X))) is None


def _union_witness(varieties: Sequence[int]) -> tuple[int, int] | None:
    """The first pair of distinct varieties, in (size, sorted elements)
    order, whose union is not a variety, named by their least elements."""
    first: dict[int, int] = {}
    for a, v in enumerate(varieties):
        first.setdefault(v, a)
    values = sorted(first, key=lambda v: (v.bit_count(), list(_bits(v))))
    for i, va in enumerate(values):
        for vb in values[i + 1 :]:
            if va | vb not in first:
                return first[va], first[vb]
    return None


def is_xtop_by_irreducibility(L: FiniteLattice, X: XLike) -> bool:
    """True iff every x ∈ X is strongly irreducible over the radical elements."""
    varieties = L.variety_masks(_members(L, X))
    return _irreducible(L, varieties, _radical_info(L, varieties).radical_elements)


def _irreducible(
    L: FiniteLattice, varieties: Sequence[int], radicals: Iterable[int]
) -> bool:
    """No radical pair (a, b) has a point in V(a ∧ b) \\ (V(a) ∪ V(b))."""
    radicals = sorted(radicals)
    meet = L.meet
    for i, a in enumerate(radicals):
        va = varieties[a]
        for b in radicals[i + 1 :]:
            if varieties[meet(a, b)] & ~(va | varieties[b]):
                return False
    return True


@dataclass(frozen=True)
class XTopSpace:
    """A Zariski-like topology on X ⊆ L \\ {top}, stored as its varieties.

    Points are lattice indices.  ``variety_masks[a]`` is V(a) as a mask
    over lattice indices, the tuple ``L.variety_masks(X)``, and it is all
    the space stores: the closed sets are the distinct V(a) and the open
    sets their complements in X.  ``varieties``, ``closed_family`` and
    ``open_family`` are the same sets as frozensets, built on first read;
    the families are deduplicated and sorted by (size, elements) so
    serialized output is byte-stable.
    """

    lattice: FiniteLattice
    points: frozenset[int]
    variety_masks: tuple[int, ...]  # indexed by lattice element

    @cached_property
    def varieties(self) -> tuple[frozenset[int], ...]:
        sets = {v: frozenset(_bits(v)) for v in set(self.variety_masks)}
        return tuple(sets[v] for v in self.variety_masks)

    @cached_property
    def closed_family(self) -> tuple[frozenset[int], ...]:
        return _by_size(set(self.variety_masks))

    @cached_property
    def open_family(self) -> tuple[frozenset[int], ...]:
        full = _mask(self.points)
        return _by_size({full & ~v for v in self.variety_masks})

    # -- point-set helpers ---------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.points)

    def sorted_points(self) -> tuple[int, ...]:
        return tuple(sorted(self.points))

    def label(self, x: int) -> str:
        return self.lattice.labels[x]

    def labels_of(self, S: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.label(x) for x in sorted(S))

    def variety(self, a: int) -> frozenset[int]:
        self.lattice.check(a)
        return frozenset(_bits(self.variety_masks[a]))

    def covariety(self, a: int) -> frozenset[int]:
        return self.points - self.variety(a)

    def _require_subset(self, Y: Iterable[int]) -> frozenset[int]:
        Y = frozenset(Y)
        if not Y <= self.points:
            raise SubsetViolationError("argument must be a subset of X")
        return Y

    def closure(self, Y: Iterable[int]) -> frozenset[int]:
        """The closure V(⋀Y): the smallest closed set containing Y."""
        Y = self._require_subset(Y)
        return self.variety(self.lattice.meet_all(Y))

    def interior(self, Y: Iterable[int]) -> frozenset[int]:
        """X \\ closure(X \\ Y): the largest open set inside Y."""
        Y = self._require_subset(Y)
        return self.points - self.closure(self.points - Y)

    def kernel(self, x: int) -> frozenset[int]:
        """Intersection of all open sets containing x: X minus every V(a)
        that misses x."""
        if x not in self.points:
            raise IndexError(f"{x} is not a point of the space")
        outside = 0
        for v in self.variety_masks:
            if not v >> x & 1:
                outside |= v
        return frozenset(_bits(_mask(self.points) & ~outside))

    def excluded_meet(self, x: int) -> tuple[int, int, bool]:
        """(⋀(X \\ {x}), ⋀D(x), equal?): x is an excluded point iff equal."""
        if x not in self.points:
            raise IndexError(f"{x} is not a point of the space")
        e = self.lattice.meet_all(self.points - {x})
        d = self.lattice.meet_all(self.covariety(x))
        return e, d, e == d

    def subspace(self, Y: Iterable[int]) -> "XTopSpace":
        """The space over the same lattice with X replaced by Y ⊆ X.

        Always succeeds: a subset of an X-top carrier is again a carrier,
        and the resulting topology is the subspace (trace) topology, whose
        varieties are the V(a) ∩ Y.
        """
        Y = self._require_subset(Y)
        ymask = _mask(Y)
        return XTopSpace(self.lattice, Y, tuple(v & ymask for v in self.variety_masks))

    def specialization_poset(self) -> FinitePoset:
        """The order X inherits from L: x <= y iff y ∈ closure({x}) = V(x)."""
        pts = self.sorted_points()
        pos = {x: k for k, x in enumerate(pts)}
        rows = [sum(1 << pos[y] for y in _bits(self.variety_masks[x])) for x in pts]
        return FinitePoset([self.label(x) for x in pts], rows)


def build_space(L: FiniteLattice, X: XLike) -> XTopSpace:
    """The space on (L, X), once its varieties are shown closed under unions.

    Raises :class:`NotXTopError` carrying a witness pair (a, b) whose
    varieties have a union that is not a variety.
    """
    members = _members(L, X)
    masks = L.variety_masks(members)
    witness = _union_witness(masks)
    if witness is not None:
        a, b = witness
        raise NotXTopError(L.labels[a], L.labels[b])
    return XTopSpace(L, members, masks)


def from_poset(P: FinitePoset) -> XTopSpace:
    """The Alexandrov-style space whose closed sets are the up-sets of P.

    Realized by embedding P into its up-set lattice and taking X to be the
    image; the closure of a point is ↑x and its kernel ↓x.  V(U) is read
    off the mask: for an up-set U, ↑x ⊆ U iff x ∈ U, so V(U) is the image
    of U itself.  No union check runs, because the lattice's validation
    has shown that its elements are exactly the up-sets, which are closed
    under union.
    """
    if P.n == 0:
        raise EmptyPosetError("from_poset needs at least one element")
    L, embedding = upset_lattice(P)
    point = [1 << embedding[x] for x in range(P.n)]
    masks = tuple(sum(point[x] for x in _bits(U)) for U in L.masks)
    return XTopSpace(L, frozenset(embedding.values()), masks)
