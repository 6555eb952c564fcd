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

A :class:`FiniteLattice` is given by its order alone and stored as two
keys per element: its **meet key** and its **join key**, bitmasks such
that glb(a, b) is the element whose meet key is key(a) & key(b), and
lub(a, b) likewise for the join keys.  Every query reads the keys alone:

* For a lattice given by its order the keys are the down-rows and the
  up-rows.  c <= glb(a, b) iff c <= a and c <= b, so ↓(a ∧ b) = ↓a ∩ ↓b,
  and dually ↑(a ∨ b) = ↑a ∩ ↑b.  A poset is a lattice exactly when
  every such intersection is some element's row, so construction looks
  each pair up once in the row dictionaries and raises
  :class:`NotALatticeError` at the first pair whose intersection is
  nobody's row.  No table is built.
* For the up-set lattice (:class:`UpsetLattice`) the join key is the
  up-set U itself, since join is ∩, and the meet key is P \\ U, since
  meet is ∪ and the complements of a union intersect.  Its elements are
  the up-sets of P, each found exactly once by :func:`_upsets`.  Up-sets
  are closed under union and intersection, so both lookups land on an
  element, with ∅ the top and P the bottom.  No check is left to run at
  construction; the tests compare the masks with a filter over every
  subset of P and with ``P.upset_masks()``.

In both, a <= b iff key(a) ⊆ key(b) for the meet keys, so a strictly
larger element has a strictly larger meet key.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Iterable, Iterator, Sequence

from .errors import EmptyPosetError, NotALatticeError, SubsetViolationError
from .poset import FinitePoset, _bits, _point_set, _selected


def _byte_bits() -> tuple[tuple[int, ...], ...]:
    """Each byte's bits in increasing order, doubled up bit by bit: entry
    m + 2^k is entry m and then k, for m < 2^k."""
    table: list[tuple[int, ...]] = [()]
    for k in range(8):
        table += [bits + (k,) for bits in table]
    return tuple(table)


# the elements of a mask below 256
_BYTE_BITS = _byte_bits()


def _elements(mask: int):
    """The indices of the mask's bits in increasing order, read without a
    Python-level walk: a table entry below 256, else ``compress`` over the
    mask's flag bytes."""
    return _BYTE_BITS[mask] if mask < 256 else _selected(range(mask.bit_length()), mask)


class FiniteLattice:
    """A finite bounded lattice, given by its order and stored as the meet
    keys ``_down`` and the join keys ``_up``, each with its inverse
    dictionary (module docstring)."""

    __slots__ = ("poset", "_down", "_up", "_by_down", "_by_up", "bottom", "top")

    def __init__(self, poset: FinitePoset):
        if poset.n == 0:
            raise EmptyPosetError("a lattice needs at least one element")
        self.poset = poset
        self.validate()

    def validate(self) -> None:
        """Look up the glb and lub of every index pair a <= b in the order rows.

        The glb is the element whose down-row is down(a) ∩ down(b), the
        lub the one whose up-row is up(a) ∩ up(b) (module docstring).
        Pairs are scanned row by row, the meet before the join, so the
        error names the first failing pair of a scan over all ordered
        pairs too.  The rows become the keys; the bottom is the element
        below everything and the top the element above everything.
        """
        P = self.poset
        n = P.n
        up = P._up
        down = P.down_rows()
        by_down = {row: c for c, row in enumerate(down)}
        by_up = {row: c for c, row in enumerate(up)}
        for a in range(n):
            down_a, up_a = down[a], up[a]
            for b in range(a, n):
                if down_a & down[b] not in by_down:
                    raise NotALatticeError("meet", P.labels[a], P.labels[b])
                if up_a & up[b] not in by_up:
                    raise NotALatticeError("join", P.labels[a], P.labels[b])
        self._down, self._up, self._by_down, self._by_up = down, up, by_down, by_up
        full = (1 << n) - 1
        self.bottom, self.top = by_up[full], by_down[full]

    # -- queries ------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._down)

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
        self.check(a)
        self.check(b)
        return self._down[a] & ~self._down[b] == 0

    def meet(self, a: int, b: int) -> int:
        # a negative index would read a key from the end; an index past the
        # end is named once the read has failed, so a good read is one read
        if a | b < 0:
            self._refuse(a, b)
        try:
            return self._by_down[self._down[a] & self._down[b]]
        except IndexError:
            self._refuse(a, b)
            raise

    def join(self, a: int, b: int) -> int:
        if a | b < 0:
            self._refuse(a, b)
        try:
            return self._by_up[self._up[a] & self._up[b]]
        except IndexError:
            self._refuse(a, b)
            raise

    def _refuse(self, a: int, b: int) -> None:
        """Raise :meth:`check`'s IndexError for the first of a and b that
        is no element index, as :meth:`leq` does."""
        self.check(a)
        self.check(b)

    def is_table(self, op: str, table: list[list[str]]) -> bool:
        """Whether ``table``, rows of labels, is the ``op`` ("meet" or
        "join") table: |L| rows of |L| entries, where row a names at
        column b the element whose key is key(a) & key(b).  Keys are
        distinct, so each row is compared by the keys its labels name."""
        keys = self._down if op == "meet" else self._up
        key_of = dict(zip(self.labels, keys))
        return len(table) == len(keys) and all(
            [key & k for k in keys] == [key_of[name] for name in row]
            for key, row in zip(keys, table)
        )

    def variety_masks(self, members: int) -> tuple[int, ...]:
        """V(a) = {x ∈ members : a <= x} for every element a, for the mask
        ``members``, as a mask over element indices: x ∈ V(a) iff
        key(a) ⊆ key(x), meet keys."""
        keys = self._down
        out = [0] * len(keys)
        for x in _bits(self._in_range(members)):
            key_x, bit = keys[x], 1 << x
            for a, key_a in enumerate(keys):
                if key_a & ~key_x == 0:
                    out[a] |= bit
        return tuple(out)

    def meet_all(self, members: int) -> int:
        """Greatest lower bound of the mask ``members``; the empty meet is
        the top, whose meet key holds every bit."""
        return self._meet_all(self._in_range(members))

    def _meet_all(self, members: int) -> int:
        """:meth:`meet_all` of a mask already known to name elements only:
        one the library built, or one a caller checked at its boundary.

        Below 256 the keys are ANDed over a table entry; a wider mask of
        at most 8 members has its lowest bit peeled off in turn, and a
        denser one has its keys ANDed at C level, as the flag bytes
        select them."""
        keys = self._down
        acc = keys[self.top]
        if members < 256:
            for e in _BYTE_BITS[members]:
                acc &= keys[e]
        elif members.bit_count() <= 8:
            while members:
                low = members & -members
                acc &= keys[low.bit_length() - 1]
                members ^= low
        else:
            acc = reduce(and_, _selected(keys, members), acc)
        return self._by_down[acc]

    def _meets_of(self, masks: Iterable[int]) -> dict[int, int]:
        """⋀S for each distinct mask S of ``masks``, by mask.  The masks go
        by increasing size, and S's key is the AND of its highest member's
        key with the key of S less that member, read off an earlier mask
        when there was one: a meet per mask at the cost of one AND."""
        keys = self._down
        key_of = {0: keys[self.top]}
        for S in sorted(set(masks), key=int.bit_count):
            if S:
                high = S.bit_length() - 1
                rest = S ^ 1 << high
                key = key_of.get(rest)
                if key is None:
                    key = keys[self._meet_all(rest)]
                key_of[S] = key & keys[high]
        by_down = self._by_down
        return {S: by_down[key_of[S]] for S in masks}

    def _meets_without_each(self, members: int) -> list[int]:
        """⋀(members \\ {x}) for each x of the mask ``members``, in index
        order: the AND of the keys before x with the AND of those after
        it, both kept as running ANDs, so k meets cost O(k) ANDs."""
        keys = self._down
        chosen = [keys[e] for e in _elements(members)]
        top = keys[self.top]
        after = [top]  # after[j]: the AND of the last j keys
        for key in reversed(chosen):
            after.append(after[-1] & key)
        after.pop()
        out, before, by_down = [], top, self._by_down
        for key, rest in zip(chosen, reversed(after)):
            out.append(by_down[before & rest])
            before &= key
        return out

    def _meets_avoiding(
        self, varieties: Sequence[int], among: int, points: int
    ) -> Iterator[int]:
        """⋀{a ∈ among : x ∉ varieties[a]} for each x of the mask
        ``points``, in index order, ``among`` a mask of elements: one AND
        pass over their keys per point."""
        keys = self._down
        pairs = [(varieties[a], keys[a]) for a in _elements(among)]
        top, by_down = keys[self.top], self._by_down
        for x in _elements(points):
            bit, acc = 1 << x, top
            for v, key in pairs:
                if not v & bit:
                    acc &= key
            yield by_down[acc]

    def maximals_of(self, members: int) -> int:
        """The mask of the maximal elements of the mask ``members`` under
        the lattice order.

        The members are scanned by decreasing (meet-key size, index), a
        reversed linear extension, and one is kept unless its key lies
        inside a kept one.  A member below another is below a maximal
        one, which the scan met first and kept; a maximal member's key
        lies inside no other member's key.
        """
        keys = self._down
        ranked = sorted(
            [(keys[a].bit_count(), a) for a in _elements(self._in_range(members))], reverse=True
        )
        kept: list[int] = []
        out = 0
        for _, a in ranked:
            key = keys[a]
            for k in kept:
                if key & ~k == 0:
                    break
            else:
                kept.append(key)
                out |= 1 << a
        return out

    def _in_range(self, S: int) -> int:
        """The mask S, checked to name elements only: an index at or past
        ``n`` raises IndexError naming the lowest one."""
        n = len(self._down)
        high = _point_set(S) >> n
        if high:
            lowest = n + (high & -high).bit_length() - 1
            raise IndexError(f"element index {lowest} out of range 0..{n - 1}")
        return S

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

    Element k is the up-set ``masks[k]``, its join key, and its meet key is
    the complement in the ground poset (module docstring); the masks are
    sorted by (size, mask), so the top ∅ is element 0 and the bottom, all
    of the ground poset, is the last.  The order (``poset``) and the
    labels are built on first read; the queries never read them.
    Principal up-sets carry the label of their generator, the others set
    notation.
    """

    # the inherited poset slot stays unused: the property below shadows
    # it and builds into _order
    __slots__ = ("ground", "_labels", "_order", "_generator")

    def __init__(self, ground: FinitePoset):
        if ground.n == 0:
            raise EmptyPosetError("the empty poset has no up-set lattice")
        # (size, mask) order by two C-level passes: the second sort is stable
        masks = sorted(_upsets(ground))
        masks.sort(key=int.bit_count)
        full = (1 << ground.n) - 1
        self.ground = ground
        self._up = masks = tuple(masks)
        # each up-set lies inside the ground set, so XOR with it complements
        self._down = tuple(map(full.__xor__, masks))
        self._by_up = dict(zip(masks, range(len(masks))))
        self._by_down = dict(zip(self._down, range(len(masks))))
        self._labels = self._order = None
        # each principal up-set's generator: its up row is the up-set
        self._generator = dict(zip(ground._up, range(ground.n)))
        self.top, self.bottom = 0, len(masks) - 1

    @property
    def masks(self) -> tuple[int, ...]:
        """The up-sets, element by element: the join keys."""
        return self._up

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            self._labels = tuple(map(self.label, range(self.n)))
        return self._labels

    def label(self, a: int) -> str:
        """The generator's label for a principal up-set ↑x, else set notation."""
        m = self.masks[a]
        x = self._generator.get(m)
        return _set_label(self.ground, m) if x is None else self.ground.labels[x]

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

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UpsetLattice) and self.ground == other.ground:
            return True
        return super().__eq__(other)

    __hash__ = FiniteLattice.__hash__


def _upsets(P: FinitePoset) -> list[int]:
    """Every up-set of P as a mask, each exactly once.

    The elements are decided by increasing |↑x|, so all of ↑x \\ {x} is
    decided before x.  After each step the list holds every up-set of the
    decided elements once: each stays as it is without x, and x joins
    exactly those that hold ↑x \\ {x}.  That is one list comprehension
    per element.  ``P.upset_masks()`` lists the same sets in the order of
    its memoized split, which its tests pin; the lattice sorts them by
    (size, mask) anyway.
    """
    up = P._up
    out = [0]
    for x in sorted(range(P.n), key=list(map(int.bit_count, up)).__getitem__):
        bit = 1 << x
        above = up[x] ^ bit
        out += [U | bit for U in out if U & above == above]
    return out


def _set_label(P: FinitePoset, mask: int) -> str:
    return "{" + ",".join(P.labels[i] for i in _bits(mask)) + "}"


def upset_lattice(P: FinitePoset) -> tuple[UpsetLattice, dict[int, int]]:
    """The lattice of up-sets of P under reverse inclusion, plus the embedding.

    Meet is set union and join set intersection (reverse inclusion swaps
    them); the embedding sends x to its principal up-set ↑x and is
    order-preserving and injective.  The lattice is an
    :class:`UpsetLattice`: the up-set masks themselves, with no order rows
    until a caller reads them.
    """
    lattice = UpsetLattice(P)
    embedding = dict(enumerate(map(lattice._by_up.__getitem__, P._up)))
    return lattice, embedding


def _members(L: FiniteLattice, X: int) -> int:
    """The mask X, checked to be a carrier: every index names an element
    (else IndexError, naming the lowest that does not) and the top is not
    among them."""
    if L._in_range(X) >> L.top & 1:
        raise SubsetViolationError("the top element cannot belong to X")
    return X


def has_complete_max_property(L: FiniteLattice, X: int) -> bool:
    """Every q maximal in the mask X satisfies ⋀(Max(X) \\ {q}) ≰ q."""
    maxima = L.maximals_of(_members(L, X))
    keys = L._down
    for q, m in zip(_elements(maxima), L._meets_without_each(maxima)):
        if keys[m] & ~keys[q] == 0:  # m <= q
            return False
    return True
