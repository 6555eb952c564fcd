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
  ``P.upset_masks()``, which yields every up-set of P exactly once (see
  its docstring).  Up-sets are closed under union and intersection, so
  both lookups land on an element, with ∅ the top and P the bottom.  No
  check is left to run at construction; the tests compare the masks with
  a filter over every subset of P.

In both, a <= b iff key(a) ⊆ key(b) for the meet keys, so a strictly
larger element has a strictly larger meet key.
"""

from __future__ import annotations

from .errors import EmptyPosetError, NotALatticeError, SubsetViolationError
from .poset import FinitePoset, _bits, _point_set


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
        one the library built, or one a caller checked at its boundary."""
        keys = self._down
        acc = keys[self.top]
        for e in _bits(members):
            acc &= keys[e]
        return self._by_down[acc]

    def maximals_of(self, members: int) -> int:
        """The mask of the maximal elements of the mask ``members`` under
        the lattice order.

        The members are scanned by decreasing meet-key size, a reversed
        linear extension, and one is kept unless its key lies inside a
        kept one.  A member below another is below a maximal one, which
        the scan met first and kept; a maximal member's key lies inside
        no other member's key.
        """
        keys = self._down
        kept: list[int] = []
        ranked = sorted(
            _bits(self._in_range(members)), key=lambda a: keys[a].bit_count(), reverse=True
        )
        for a in ranked:
            if not any(keys[a] & ~keys[k] == 0 for k in kept):
                kept.append(a)
        return sum(1 << a for a in kept)

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
    __slots__ = ("ground", "_labels", "_order")

    def __init__(self, ground: FinitePoset):
        if ground.n == 0:
            raise EmptyPosetError("the empty poset has no up-set lattice")
        masks = tuple(sorted(ground.upset_masks(), key=lambda m: (m.bit_count(), m)))
        full = (1 << ground.n) - 1
        self.ground = ground
        self._up = masks
        self._down = tuple(full & ~m for m in masks)
        self._by_up = {m: k for k, m in enumerate(masks)}
        self._by_down = {m: k for k, m in enumerate(self._down)}
        self._labels = self._order = None
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
    until a caller reads them.
    """
    lattice = UpsetLattice(P)
    embedding = {x: lattice._by_up[P.up_mask(x)] for x in range(P.n)}
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
    return all(not L.leq(L._meet_all(maxima & ~(1 << q)), q) for q in _bits(maxima))
