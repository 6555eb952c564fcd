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
  a ∧ b <= x, one of a <= x or b <= x holds.

The two agree on every instance (this equivalence is re-verified
exhaustively by the test-suite and the ``verify xct`` CLI suite).

Both run on the varieties as bitmasks over lattice indices, computed once
per (L, X) by the lattice's ``variety_masks``, and each reduces to a
one-pass test by a lemma:

* x is strongly irreducible over the radicals R iff
  m = ⋀{a ∈ R : a ≰ x} ≰ x.  R holds top = ⋀V(top) = ⋀∅ and is closed
  under meets: for a, b ∈ R, V(a ∧ b) ⊇ V(a) ∪ V(b), so
  √(a ∧ b) <= ⋀V(a) ∧ ⋀V(b) = a ∧ b, and √ is inflationary.  So the pair
  condition gives, by induction on |A|, that ⋀A <= x puts some a ∈ A
  below x for every finite A ⊆ R: peel one element off A and apply the
  pair case to it and ⋀rest ∈ R; for A = ∅, ⋀∅ = top is below no point.
  Taking A = {a ∈ R : a ≰ x} gives m ≰ x.  Conversely, if a, b ∈ R have
  a ∧ b <= x but neither is below x, both lie in that set, so
  m <= a ∧ b <= x.  That is one ``meet_all`` per point, O(|X|·|R|) meets
  in all, where the pairs took O(|R|²).
* The family F of varieties is closed under unions iff S ∪ V(x) ∈ F for
  every S ∈ F and x ∈ X.  V(x) is the least variety that holds x: x ∈ V(a)
  means a <= x, so V(x) ⊆ V(a).  Hence every variety T is the union of
  the V(x) for x ∈ T, and S ∪ T is reached from S by adding those V(x)
  one at a time, each step staying in F; the converse is the case
  T = V(x).  That is O(|F|·|X|) mask lookups; only when it fails does the
  sorted pair scan run, to name the first pair whose union is not a
  variety.

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

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyPosetError, NotXTopError, SubsetViolationError
from .lattice import FiniteLattice, _members, upset_lattice
from .poset import FinitePoset, _bits, _by_size, _mask


def variety(L: FiniteLattice, X: Iterable[int], a: int) -> frozenset[int]:
    """V(a) = {x ∈ X : a <= x}."""
    L.check(a)
    return frozenset(x for x in _members(L, X) if L.leq(a, x))


def covariety(L: FiniteLattice, X: Iterable[int], a: int) -> frozenset[int]:
    """D(a) = X \\ V(a)."""
    return _members(L, X) - variety(L, X, a)


class RadicalInfo(NamedTuple):
    """The radical map a ↦ √a = ⋀V(a) and its fixed points."""

    radical_of: tuple[int, ...]  # indexed by lattice element
    radical_elements: frozenset[int]  # {a : √a = a}


def radical_info(L: FiniteLattice, X: Iterable[int]) -> RadicalInfo:
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


def is_xtop_by_unions(L: FiniteLattice, X: Iterable[int]) -> bool:
    """True iff for all a, b there is c with V(a) ∪ V(b) = V(c)."""
    return _union_witness(L.variety_masks(_members(L, X))) is None


def _union_witness(varieties: Sequence[int]) -> tuple[int, int] | None:
    """The first pair of distinct varieties, in (size, sorted elements)
    order, whose union is not a variety, named by their least elements."""
    first: dict[int, int] = {}
    for a, v in enumerate(varieties):
        first.setdefault(v, a)
    # the union lemma of the module docstring; X is the largest variety
    points = [varieties[x] for x in _bits(max(first, key=int.bit_count))]
    if all(v | p in first for v in first for p in points):
        return None
    values = sorted(first, key=lambda v: (v.bit_count(), list(_bits(v))))
    for i, va in enumerate(values):
        for vb in values[i + 1 :]:
            if va | vb not in first:
                return first[va], first[vb]
    return None


def is_xtop_by_irreducibility(L: FiniteLattice, X: Iterable[int]) -> bool:
    """True iff every x ∈ X is strongly irreducible over the radical elements."""
    varieties = L.variety_masks(_members(L, X))
    return _irreducible(L, varieties, _radical_info(L, varieties).radical_elements)


def _irreducible(
    L: FiniteLattice, varieties: Sequence[int], radicals: Iterable[int]
) -> bool:
    """Every point x has ⋀{a ∈ R : a ≰ x} ≰ x, for the meet-closed set R of
    radical elements (module docstring)."""
    radicals = list(radicals)
    for x in _bits(varieties[L.bottom]):
        m = L.meet_all(a for a in radicals if not varieties[a] >> x & 1)
        if varieties[m] >> x & 1:
            return False
    return True


class XTopSpace:
    """A Zariski-like topology on X ⊆ L \\ {top}, stored as its varieties.

    Points are lattice indices.  ``variety_masks[a]`` is V(a) as a mask
    over lattice indices, the tuple ``L.variety_masks(X)``, and it is all
    the space stores: the closed sets are the distinct V(a) and the open
    sets their complements in X.  ``varieties``, ``closed_family`` and
    ``open_family`` are the same sets as frozensets, built on first read;
    the families are deduplicated and sorted by (size, elements) so
    serialized output is byte-stable.

    A space is frozen: its three fields are set once, and ``==`` and
    ``hash`` compare them.  The views are cached in the instance
    ``__dict__``, which ``cached_property`` writes without assignment.
    """

    lattice: FiniteLattice
    points: frozenset[int]
    variety_masks: tuple[int, ...]  # indexed by lattice element

    def __init__(
        self, lattice: FiniteLattice, points: frozenset[int], variety_masks: tuple[int, ...]
    ):
        vars(self).update(lattice=lattice, points=points, variety_masks=variety_masks)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen XTopSpace")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen XTopSpace")

    def _key(self) -> tuple:
        return self.lattice, self.points, self.variety_masks

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "XTopSpace(lattice={!r}, points={!r}, variety_masks={!r})".format(*self._key())

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
        return self.lattice.label(x)

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


def build_space(L: FiniteLattice, X: Iterable[int]) -> XTopSpace:
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
