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
  m <= a ∧ b <= x.  That is one AND pass over the keys of R per point
  (``FiniteLattice._meets_avoiding``), O(|X|·|R|) steps in all, where
  the pairs took O(|R|²) meets.
* The family F of varieties is closed under unions iff S ∪ V(x) ∈ F for
  every S ∈ F and x ∈ X.  V(x) is the least variety that holds x: x ∈ V(a)
  means a <= x, so V(x) ⊆ V(a).  Hence every variety T is the union of
  the V(x) for x ∈ T, and S ∪ T is reached from S by adding those V(x)
  one at a time, each step staying in F; the converse is the case
  T = V(x).  That is O(|F|·|X|) mask lookups; only when it fails does the
  sorted pair scan run, to name the first pair whose union is not a
  variety.

An :class:`XTopSpace` keeps its lattice and those masks and nothing else.
X itself is V(bottom), since bottom <= x for every x ∈ X; every
constructor stores ``L.variety_masks(X)`` or, for a subspace, its traces
on Y, so the lemma holds for each.  The closed sets are the distinct V(a)
and the open sets their complements in X, the specialization order has
x <= y iff y ∈ V(x), and the subspace on Y ⊆ X has the varieties
V(a) ∩ Y.

X = ∅ is accepted everywhere and yields the empty space; the empty-meet
convention (⋀∅ = top, V(top) = ∅) keeps every operation consistent there.
"""

from __future__ import annotations

from itertools import repeat
from operator import and_, or_, rshift
from typing import Collection, NamedTuple, Sequence

from .errors import EmptyPosetError, NotXTopError, SubsetViolationError
from .lattice import FiniteLattice, _elements, _members, upset_lattice
from .poset import FinitePoset, _bits, _point_set, _selected, _size_sorted


def variety(L: FiniteLattice, X: int, a: int) -> int:
    """V(a) = {x ∈ X : a <= x}, as a mask, for the mask X."""
    L.check(a)
    return sum(1 << x for x in _bits(_members(L, X)) if L.leq(a, x))


def covariety(L: FiniteLattice, X: int, a: int) -> int:
    """D(a) = X \\ V(a), as a mask, for the mask X."""
    return _members(L, X) & ~variety(L, X, a)


class RadicalInfo(NamedTuple):
    """The radical map a ↦ √a = ⋀V(a) and its fixed points."""

    radical_of: tuple[int, ...]  # indexed by lattice element
    radical_elements: int  # the mask of the a with √a = a


def radical_info(L: FiniteLattice, X: int) -> RadicalInfo:
    """√a = ⋀V(a) for every a; the radical elements are the fixed points.

    X itself always consists of radical elements, √ is inflationary and
    idempotent, and the radical elements are closed under meets.
    """
    return _radical_info(L, L.variety_masks(_members(L, X)))


def _radical_info(L: FiniteLattice, varieties: Sequence[int]) -> RadicalInfo:
    """:func:`radical_info` from the variety masks: one meet per distinct
    V(a), each read off a smaller one's where it can
    (``FiniteLattice._meets_of``)."""
    meets = L._meets_of(varieties)
    radical = tuple(map(meets.__getitem__, varieties))
    fixed = 0
    for a, r in enumerate(radical):
        if r == a:
            fixed |= 1 << a
    return RadicalInfo(radical, fixed)


def is_xtop_by_unions(L: FiniteLattice, X: int) -> bool:
    """True iff for all a, b there is c with V(a) ∪ V(b) = V(c)."""
    return _union_witness(L.variety_masks(_members(L, X))) is None


def _union_witness(varieties: Sequence[int]) -> tuple[int, int] | None:
    """The first pair of distinct varieties, in (size, sorted elements)
    order, whose union is not a variety, named by their least elements."""
    # each variety's least element: the last write of a key wins, so the
    # masks go in from the end
    first = dict(zip(reversed(varieties), range(len(varieties) - 1, -1, -1)))
    # the union lemma of the module docstring; X is the largest variety
    points = [varieties[x] for x in _elements(max(first, key=int.bit_count))]
    if _closed_under(first, points):
        return None
    values = sorted(first, key=lambda v: (v.bit_count(), list(_bits(v))))
    for i, va in enumerate(values):
        for vb in values[i + 1 :]:
            if va | vb not in first:
                return first[va], first[vb]
    return None


def _closed_under(family: Collection[int], points: Sequence[int]) -> bool:
    """S ∪ p ∈ family for every S in the family and every p in points."""
    for v in family:
        for p in points:
            if v | p not in family:
                return False
    return True


def is_xtop_by_irreducibility(L: FiniteLattice, X: int) -> bool:
    """True iff every x ∈ X is strongly irreducible over the radical elements."""
    varieties = L.variety_masks(_members(L, X))
    return _irreducible(L, varieties, _radical_info(L, varieties).radical_elements)


def _irreducible(L: FiniteLattice, varieties: Sequence[int], radicals: int) -> bool:
    """Every point x has ⋀{a ∈ R : a ≰ x} ≰ x, for the meet-closed set R of
    radical elements, a mask (module docstring): a ≰ x iff x ∉ V(a)."""
    points = varieties[L.bottom]
    meets = L._meets_avoiding(varieties, radicals, points)
    return not any(varieties[m] >> x & 1 for x, m in zip(_elements(points), meets))


class XTopSpace(NamedTuple):
    """A Zariski-like topology on X ⊆ L \\ {top}, stored as its varieties.

    Points are lattice indices, and every set of points, taken or
    returned, is a mask over lattice indices.  ``variety_masks[a]`` is V(a),
    the tuple ``L.variety_masks(X)``, and X is read off it as V(bottom).
    ``closed_family`` is the distinct V(a), sorted by (size, elements)
    (:func:`~xtoplat.poset._size_key`) so serialized output is byte-stable.
    """

    lattice: FiniteLattice
    variety_masks: tuple[int, ...]  # indexed by lattice element

    @property
    def points(self) -> int:
        """X, the mask V(bottom)."""
        return self.variety_masks[self.lattice.bottom]

    @property
    def closed_family(self) -> tuple[int, ...]:
        return tuple(_size_sorted(set(self.variety_masks)))

    @property
    def n_points(self) -> int:
        return self.points.bit_count()

    def sorted_points(self) -> tuple[int, ...]:
        return tuple(_elements(self.points))

    def label(self, x: int) -> str:
        return self.lattice.label(x)

    def labels_of(self, S: int) -> tuple[str, ...]:
        """The labels of the mask S, in index order."""
        return tuple(map(self.label, _bits(_point_set(S))))

    def _require_subset(self, Y: int) -> int:
        if _point_set(Y) & ~self.points:
            raise SubsetViolationError("argument must be a subset of X")
        return Y

    def closure(self, Y: int) -> int:
        """The closure V(⋀Y) of the mask Y: the smallest closed set
        containing Y."""
        # Y ⊆ X names lattice elements only, so the meet reads it unchecked
        return self.variety_masks[self.lattice._meet_all(self._require_subset(Y))]

    def subspace(self, Y: int) -> "XTopSpace":
        """The space over the same lattice with X replaced by Y ⊆ X.

        Always succeeds: a subset of an X-top carrier is again a carrier,
        and the resulting topology is the subspace (trace) topology, whose
        varieties are the V(a) ∩ Y.
        """
        Y = self._require_subset(Y)
        return XTopSpace(self.lattice, tuple(v & Y for v in self.variety_masks))

    def specialization_poset(self) -> FinitePoset:
        """The order X inherits from L: x <= y iff y ∈ closure({x}) = V(x)."""
        pts = self.sorted_points()
        # each point's bit in the rows, by lattice index; V(x) selects them
        row_bit = [0] * (pts[-1] + 1 if pts else 0)
        for k, x in enumerate(pts):
            row_bit[x] = 1 << k
        rows = [sum(_selected(row_bit, self.variety_masks[x])) for x in pts]
        return FinitePoset([self.label(x) for x in pts], rows)


def build_space(L: FiniteLattice, X: int) -> XTopSpace:
    """The space on (L, X), X a mask over element indices, once its
    varieties are shown closed under unions.

    Raises :class:`NotXTopError` carrying a witness pair (a, b) whose
    varieties have a union that is not a variety.
    """
    masks = L.variety_masks(_members(L, X))
    witness = _union_witness(masks)
    if witness is not None:
        a, b = witness
        raise NotXTopError(L.labels[a], L.labels[b])
    return XTopSpace(L, masks)


def from_poset(P: FinitePoset) -> XTopSpace:
    """The Alexandrov-style space whose closed sets are the up-sets of P.

    Realized by embedding P into its up-set lattice and taking X to be the
    image; the closure of a point is ↑x and its kernel ↓x.  V(U) is read
    off the mask: for an up-set U, ↑x ⊆ U iff x ∈ U, so V(U) is the image
    of U itself.  No union check runs: the lattice's elements are
    ``P.upset_masks()``, exactly the up-sets, which are closed under union.
    """
    if P.n == 0:
        raise EmptyPosetError("from_poset needs at least one element")
    L, embedding = upset_lattice(P)
    point = [1 << embedding[x] for x in range(P.n)]
    # V(U) is the OR of point[x] over x ∈ U, read byte by byte off
    # tables: table k maps a byte of U to the points of its 8 elements
    tables = []
    for base in range(0, P.n, 8):
        table = [0]
        for bit in point[base : base + 8]:
            table += [v | bit for v in table]
        tables.append(table)
    if len(tables) == 1:
        return XTopSpace(L, tuple(map(tables[0].__getitem__, L.masks)))
    # wider: one column of lookups per byte, ORed together at C level
    masks = repeat(0)
    for k, table in enumerate(tables):
        byte = map(and_, map(rshift, L.masks, repeat(8 * k)), repeat(255))
        masks = map(or_, masks, map(table.__getitem__, byte))
    return XTopSpace(L, tuple(masks))
