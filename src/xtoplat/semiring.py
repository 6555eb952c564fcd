"""Finite commutative semirings, their ideals and prime spectra.

A semiring here is a finite set with two tables: (R, +, 0) a commutative
monoid, (R, ·, 1) a commutative monoid, multiplication distributing over
addition, 0 absorbing, and 1 ≠ 0.  All five axioms are re-verified on
every construction path, including the generated B(n, i) tables.

The identities, absorption and both commutativities are checked entry by
entry.  The two associativities and distributivity are checked over G, a
generating set of (R, +): every element is reachable from 0 by steps
x ↦ x + g with g ∈ G.  G is picked greedily, adding the least element not
yet reachable, so G = {1} for every B(n, i).  Given the entrywise axioms,
three O(n²·|G|) tests are equivalent to the O(n³) definitions:

* + is associative iff (x + g) + y = x + (g + y) for all x, y and g ∈ G
  (Light's test, Clifford & Preston 1961).  The s with
  (x + s) + y = x + (s + y) for all x, y include 0 and G, and are closed
  under +: for s, t among them, (x + (s + t)) + y = ((x + s) + t) + y
  = (x + s) + (t + y) = x + (s + (t + y)) = x + ((s + t) + y).  So they
  are all of R, and likewise in the next two lines.
* · distributes over + iff a(b + g) = ab + ag for all a, b and g ∈ G.
  The c with a(b + c) = ab + ac for all a, b include 0, as a·0 = 0, and
  with c they hold c + g: a(b + (c + g)) = a((b + c) + g) = a(b + c) + ag
  = (ab + ac) + ag = ab + (ac + ag) = ab + a(c + g).
* · is associative iff (ab)g = a(bg) for all a, b and g ∈ G.  The c with
  (ab)c = a(bc) for all a, b include 0, and with c they hold c + g, by
  distributivity:
  (ab)(c + g) = (ab)c + (ab)g = a(bc) + a(bg) = a(b(c + g)).

Each failing test is itself a violated instance of its axiom, so when one
fails the O(n³) loops run to report the first violation, axiom and
witness, in the order of the definitional scan.

Ideals, primes and every other set of elements are element bitmasks, bit
e standing for element e, from their enumeration to their printing: the
ideals, :func:`principal_ideal`, the spectra and radicals of
:class:`SpectrumReport` and the spectra of :class:`BniVerification`.
Enumeration runs the principal-ideal sum closure to a fixpoint (every
ideal is the sum of its principal subideals, so the closure is complete)
and checks each set I it reaches on the masks it builds anyway; the
test-suite checks the result against an exhaustive subset scan for small
carriers.

The sums b + P_k for the masks P_k of the principal ideals come from one
row per b, built by shifts.  Let ``spread[y]`` hold bit nk for each
P_k ∋ y.  Then the OR of
``spread[y] << (b + y)`` over all y has, in its block k of n bits, bit v
iff some y ∈ P_k has b + y = v, so that block is b + P_k.

Given 1·b = b, a + 0 = a, 0·b = 0 and commutativity, three tests are
equivalent to the definition of an ideal (0 ∈ I, I + I ⊆ I, R·I ⊆ I):

* 0 ∈ I;
* (b) ⊆ I for every b ∈ I, which is R·I ⊆ I, as (b) = {rb : r ∈ R};
* I + P = I for every principal ideal P ⊆ I.  For an ideal I,
  I + P ⊆ I + I ⊆ I, and I ⊆ I + P as 0 = 0·c ∈ P and a + 0 = a.
  Conversely, for a, b ∈ I the principal ideal (b) ⊆ I holds b = 1·b, so
  a + b ∈ I + (b) = I.

An ideal I is subtractive (a k-ideal) when a ∈ I and r + a ∈ I force
r ∈ I, and R is subtractive when every ideal is (Golan 1999).
:func:`is_subtractive_semiring` reads no ideal but the principal ones, by
a pair lemma: R is subtractive iff r ∈ (a) + (r + a) for all r, a ∈ R.

* (⇒) (a) + (r + a) is an ideal holding a = a + 0 and
  r + a = 0 + (r + a); it is subtractive, so it holds r.
* (⇐) An ideal I holding a and r + a contains (a) and (r + a), hence
  their sum, which holds r by the condition.

That is n² membership tests over sums of two principal ideals, (b) being
row b of the product, and each sum is formed once per pair of ideals.
A pair with (a) ⊆ (r + a) needs no sum: for ideals P ⊆ Q, P + Q = Q, as
P + Q ⊆ Q + Q ⊆ Q and q = 0 + q with 0 ∈ P; so the test is r ∈ (r + a),
and likewise r ∈ (a) when (r + a) ⊆ (a).

A prime ideal is a proper ideal P with ab ∈ P ⇒ a ∈ P or b ∈ P:
elementwise and idealwise primality coincide for commutative semirings
and the elementwise form is directly checkable.  :func:`spectrum` finds
the primes without enumerating ideals, by two lemmas for commutative
semirings with 1 (Golan 1999, *Semirings and their Applications*).  Write
b | c for c ∈ (b), and sat(a) = {b : b | a^k for some k ≥ 1}:

* Spec(R) is the set of the R \\ sat(a), a not nilpotent, that are
  closed under +.  For a prime P, S = R \\ P holds 1, and holds bc iff
  it holds b and c (P is prime, and an ideal).  So S holds the product s
  of its members and every b | s^k, and each b ∈ S divides s: S = sat(s),
  and s is not nilpotent, as its powers lie in S ∌ 0.  Conversely, let a
  be non-nilpotent and P = R \\ sat(a) closed under +.  Then 0 ∈ P, as
  0 | a^k forces a^k = 0; rb ∈ P for b ∈ P, as rb | a^k gives b | a^k;
  1 ∉ P, as 1 | a; and b | a^j, c | a^k give bc | a^(j+k).  So P is a
  prime ideal.  That is at most n candidates.  sat(a) is div(a^m), the
  b with b | a^m, for any m >= n, by a power lemma (:func:`_primes`), so
  div is read only at the distinct a^m, and each candidate is checked
  for sums by reading the sum rows of its members at its members.
* Maximal ideals are prime.  Let M be maximal, ab ∈ M and a ∉ M.  Then
  M + (a) is an ideal above M holding a, so it is R, and 1 = m + ra for
  some m ∈ M and r ∈ R; then b = mb + rab ∈ M.  Every proper ideal lies
  under a maximal one, so Max(R) is the set of the maximal primes, and
  Min(R) is the set of the minimal primes by definition.

So Spec(R) is read as its inclusion order, one :class:`FinitePoset`:
Max(R), Min(R) and K.dim(R) are its maximals, minimals and Krull
dimension.  The other reads of the spectrum are lemmas:

* Prime avoidance: a prime P that contains Q_1 ∩ ... ∩ Q_k contains some
  Q_i.  Otherwise pick q_i ∈ Q_i \\ P; then q_1···q_k lies in every Q_i
  but, P being prime, not in P (for k = 0, R ⊄ P).  So no maximal P
  contains the intersection of the other maximal ideals, and no minimal
  P that of the other minimal primes: ``is_bmax`` and ``is_amin`` hold on
  every semiring, ``is_pamin`` is Spec = Min and ``is_pbmax`` is
  Spec = Max.
* The nilradical is the prime radical.  If a^k = 0 then a lies in every
  prime.  If a is not nilpotent, an ideal P maximal among those that miss
  S = {a^k : k ≥ 1} ({0} misses S) is prime, and a ∉ P: were bc ∈ P with
  b, c ∉ P, P + (b) and P + (c) would meet S in a^i = p + rb and
  a^j = q + sc, and a^(i+j) = pq + psc + rbq + rs·bc ∈ P.

Spec(R) is embedded in the lattice of radical ideals, the meet-closure
of Spec(R) ∪ {R}, not in the lattice of all ideals: every closed set is
V(I) = V(√I) with √I an intersection of primes, so both lattices give the
same topology on Spec(R) and on each of its subspaces, and the radical
one has a handful of elements where the full one can have hundreds.
:func:`ideal_lattice` stays as the definitional reference.

No lattice is needed to classify a subspace Y of Spec(R): on a finite
Spec(R), V(P) ∩ Y = ↑P ∩ Y, so the closed sets of Y are exactly the
up-sets of the inclusion order on Y.  Every V(I) = {P : I ⊆ P} is an
up-set of Spec(R).  Conversely an up-set U is the union of the V(P),
P ∈ U, and V(P_1) ∪ ... ∪ V(P_k) = V(P_1 ∩ ... ∩ P_k) by prime avoidance
(below), with V(R) = ∅ for k = 0.  So the closed sets of Y, the traces
V(I) ∩ Y, are the U ∩ Y for up-sets U of Spec(R); each is an up-set of Y,
and each up-set W of Y is the trace of ↑W.  :func:`spec_poset` is that
order, read off the primes; :func:`spec_space` builds the same topology
on the radical-ideal lattice, for the lattice-level outputs.

The B(n, i) family lives on {0, ..., n-1} with sums/products wrapped into
[i, n-1] modulo n-i on overflow; B(n, 0) is the ring of integers mod n
and B(2, 1) the Boolean semiring.  The closed-form description of
Spec(B(n, i)) used by :func:`verify_bni` is stated for 1 <= i <= n-1 with
a separate zero-dimensionality clause covering i = 0; this module accepts
the full range 0 <= i <= n-1 and verifies the i = 0 column against the
integers-mod-n behavior.
"""

from __future__ import annotations

from functools import cache, lru_cache, reduce
from itertools import compress, cycle, islice, repeat
from operator import and_, eq, getitem, itemgetter, lshift, or_
from typing import Iterable, NamedTuple, Sequence

from .errors import AxiomError, NotAnIdealError, RangeError
from .lattice import FiniteLattice
from .poset import FinitePoset, _bits, _selected, _size_key
from .topology import XTopSpace, build_space


class FiniteSemiring(NamedTuple):
    """Element labels plus total addition/multiplication tables."""

    labels: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def elements(self) -> range:
        return range(self.n)


def _resolve(index: dict[str, int], entry) -> int:
    """The index of an element given by its label or by its index, for the
    label → index map ``index``."""
    if isinstance(entry, str):
        try:
            return index[entry]
        except KeyError:
            raise ValueError(f"unknown element label {entry!r}") from None
    # bool is an int subclass, but true/false are not element indices
    if isinstance(entry, bool) or not isinstance(entry, int):
        raise ValueError(f"element {entry!r} is neither a label nor an index")
    if not 0 <= entry < len(index):
        raise ValueError(f"element index {entry} out of range")
    return entry


def _additive_generators(add: Sequence[Sequence[int]], zero: int) -> list[int]:
    """A generating set G of (R, +), picked greedily.

    G takes the least element not yet reachable from ``zero`` by steps
    x ↦ x + g with g ∈ G, until every element is reachable.  The reached
    set stays closed under + g for every g already in G, so a new
    generator is applied to it once and only new elements take all of G.
    """
    reached = {zero}
    gens: list[int] = []
    for e in range(len(add)):
        if e in reached:
            continue
        gens.append(e)
        todo = [add[x][e] for x in reached]
        while todo:
            y = todo.pop()
            if y not in reached:
                reached.add(y)
                todo.extend(add[y][g] for g in gens)
    return gens


def _read(row: tuple[int, ...], at: tuple[int, ...]) -> tuple[int, ...]:
    """``row`` read at the positions ``at``, which has n >= 2 entries, so
    that ``itemgetter`` returns a tuple."""
    return itemgetter(*at)(row)


def _generated_axioms_hold(add, mul, gens: Sequence[int]) -> bool:
    """+ associative, · distributive and · associative, tested over ``gens``.

    Equivalent to the definitions once the identities, absorption and
    both commutativities hold (see the module docstring); the
    commutativities let each test compare whole table rows, row x of
    each side for every x, each row a tuple built by ``itemgetter``.
    The rows are built and compared one pair at a time, never as a list
    of rows: holding every row at once raised the peak memory of a run
    over many small semirings.  Every row has n >= 2 entries, as the
    construction checks 0 ≠ 1 first.
    """
    for g in gens:
        # (x + g) + y = x + (g + y): row x + g = g + x of the sum, and
        # row x read at the g + y
        add_g = add[g]
        lefts = map(add.__getitem__, add_g)
        if not all(map(eq, lefts, map(itemgetter(*add_g), add))):
            return False
    for g in gens:
        # a(b + g) = ab + ag: row a of the product read at the b + g, and
        # row ag = ga of the sum read at the ab
        rights = map(_read, map(add.__getitem__, mul[g]), mul)
        if not all(map(eq, map(itemgetter(*add[g]), mul), rights)):
            return False
    for g in gens:
        # (ab)g = a(bg): row g of the product read at the ab, and row a
        # read at the bg
        mul_g = mul[g]
        lefts = map(_read, repeat(mul_g), mul)
        if not all(map(eq, lefts, map(itemgetter(*mul_g), mul))):
            return False
    return True


def _raise_first_violation(add, mul, witness) -> None:
    """The definitional O(n³) scans: raise at the first violated instance."""
    n = len(add)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    raise AxiomError("additive-associativity", witness(a, b, c))
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise AxiomError("multiplicative-associativity", witness(a, b, c))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    raise AxiomError("distributivity", witness(a, b, c))


def semiring_from_tables(
    labels: Sequence[str],
    add: Sequence[Sequence],
    mul: Sequence[Sequence],
    zero,
    one,
) -> FiniteSemiring:
    """Validate the five semiring axioms and return the semiring.

    ``labels`` is a sequence of distinct strings and ``add``/``mul`` are
    n×n tables given as sequences of rows; a string in place of any of
    them raises :class:`ValueError` rather than being split into
    characters, and so does a label that is not a string.  Table entries
    and ``zero``/``one`` may be given as labels (str) or indices (int, not
    bool); anything else raises :class:`ValueError`.  The associativities
    and distributivity are tested over a generating set of (R, +), in
    O(n²·|G|) steps rather than O(n³), and are equivalent to the
    definitions (module docstring).
    Raises :class:`AxiomError` naming the first violated axiom and a
    witness, as the definitional scan finds them.
    """
    if isinstance(labels, str):
        raise ValueError("labels must be a sequence of strings, not one string")
    labels = tuple(labels)
    for label in labels:
        if not isinstance(label, str):
            raise ValueError(f"label {label!r} is not a string")
    for name, table in (("add", add), ("mul", mul)):
        if isinstance(table, str) or any(isinstance(row, str) for row in table):
            raise ValueError(f"the {name!r} table and its rows must be sequences, not strings")
    n = len(labels)
    if n == 0:
        raise ValueError("a semiring needs at least one element")
    if len(set(labels)) != n:
        raise ValueError("element labels must be pairwise distinct")
    if len(add) != n or len(mul) != n or any(len(r) != n for r in list(add) + list(mul)):
        raise ValueError("add/mul tables must be total n×n tables")
    index = {label: k for k, label in enumerate(labels)}
    add_t = tuple(tuple(_resolve(index, e) for e in row) for row in add)
    mul_t = tuple(tuple(_resolve(index, e) for e in row) for row in mul)
    return _checked(labels, add_t, mul_t, _resolve(index, zero), _resolve(index, one))


def _checked(labels: tuple[str, ...], add, mul, z: int, o: int) -> FiniteSemiring:
    """The semiring on n×n index tables, tuples of int tuples, once the
    five axioms hold.

    Raises :class:`AxiomError` naming the first violated axiom and a
    witness, in the order of the definitional scan: each identity and
    absorption is one comparison of a row and one of a column, each
    commutativity one comparison of a table with its transpose, and only
    when one fails does the entrywise loop run, to name the first
    violated element or pair.
    """
    n = len(labels)

    def witness(*idx: int) -> tuple[str, ...]:
        return tuple(labels[i] for i in idx)

    def row_and_column(axiom: str, table, k: int, expected: tuple[int, ...]) -> None:
        # row k and column k of the table are both ``expected``
        column = tuple(map(itemgetter(k), table))
        if column != expected or table[k] != expected:
            for a in range(n):
                if column[a] != expected[a] or table[k][a] != expected[a]:
                    raise AxiomError(axiom, witness(a))

    # one pass per axiom so the reported violation is deterministic
    if z == o:
        raise AxiomError("distinct-identities", witness(z))
    identity = tuple(range(n))
    row_and_column("additive-identity", add, z, identity)
    row_and_column("multiplicative-identity", mul, o, identity)
    row_and_column("absorption", mul, z, (z,) * n)
    if tuple(zip(*add)) != add or tuple(zip(*mul)) != mul:
        for a in range(n):
            for b in range(n):
                if add[a][b] != add[b][a]:
                    raise AxiomError("additive-commutativity", witness(a, b))
                if mul[a][b] != mul[b][a]:
                    raise AxiomError("multiplicative-commutativity", witness(a, b))
    if not _generated_axioms_hold(add, mul, _additive_generators(add, z)):
        # a failed test is a violated instance, so the scan raises
        _raise_first_violation(add, mul, witness)
    return FiniteSemiring(labels, add, mul, z, o)


def bni(n: int, i: int) -> FiniteSemiring:
    """The B(n, i) semiring on {0..n-1} with wrap-into-[i, n-1] overflow.

    A value v > n-1 maps to the unique u with i <= u <= n-1 and
    v ≡ u (mod n-i).  B(n, 0) gives integers mod n, B(2, 1) the Boolean
    semiring.  Both tables are slices of one wrapped range W, W[v] being
    v wrapped, over every sum a + b <= 2n - 2 and product ab <= (n-1)²:
    row a of the sum is W[a], ..., W[a + n - 1] and of the product W[0],
    W[a], ..., W[a(n - 1)].  W is 0, ..., n - 1 followed by i, ..., n - 1
    repeated, as W[n] = i.  The index tables go straight to the axiom
    checks, guarding the overflow rule against off-by-one errors.  Every
    element is a sum of 1s, so (R, +) is generated by G = {1} and the
    associativity and distributivity tests take O(n²) steps, not O(n³).
    """
    if n < 2:
        raise RangeError("B(n, i) needs n >= 2")
    if not 0 <= i <= n - 1:
        raise RangeError("B(n, i) needs 0 <= i <= n-1")
    top = max(2 * n - 1, (n - 1) ** 2 + 1)
    W = tuple(range(n)) + tuple(islice(cycle(range(i, n)), top - n))
    add = tuple(W[a : a + n] for a in range(n))
    mul = ((0,) * n,) + tuple(W[0 : a * (n - 1) + 1 : a] for a in range(1, n))
    return _checked(tuple(map(str, range(n))), add, mul, 0, 1)


def s3() -> FiniteSemiring:
    """The three-element semiring {0, a, 1} with a + a = a and 1 + a = 1."""
    labels = ["0", "a", "1"]
    add = [
        ["0", "a", "1"],
        ["a", "a", "1"],
        ["1", "1", "1"],
    ]
    mul = [
        ["0", "0", "0"],
        ["0", "a", "a"],
        ["0", "a", "1"],
    ]
    return semiring_from_tables(labels, add, mul, "0", "1")


def omega(k: int) -> int:
    """Number of distinct prime divisors of k >= 2."""
    if k < 2:
        raise RangeError("omega(k) needs k >= 2")
    return len(prime_divisors(k))


def prime_divisors(k: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return tuple(out)


# -- ideals -----------------------------------------------------------------


def principal_ideal(R: FiniteSemiring, a: int) -> int:
    """(a) = {r·a : r ∈ R} as an element mask; closed under sums by
    distributivity.  Row a of the product lists the a·r = r·a."""
    return sum({1 << c for c in R.mul[a]})


# kept: a process that runs `spec` on one semiring again (once per
# `--subspace`, say) skips the closure; a hit hashes both tables
@lru_cache(maxsize=64)
def ideals(R: FiniteSemiring) -> tuple[int, ...]:
    """All ideals, as element bitmasks sorted by :func:`poset._size_key`:
    the sum-closure of the principal ideals, to a fixpoint.

    Closing under sums with principal ideals suffices: every ideal is the
    sum of the principal ideals of its members.  ``packed[b]`` holds, in
    blocks of n bits, the mask of b + P_k in block k for each of the K
    distinct principal ideals P_k, and the mask of (b) in block K.  So one
    OR of ``packed[b]`` over the members b of I gives every I + P_k and
    the union of the (b), b ∈ I, at once.

    Blocks 0 to K - 1 are the :func:`_sum_rows` of the P_k, built by
    shifts: with ``spread[y]`` holding bit nk for each P_k ∋ y, the OR of
    ``spread[y] << (b + y)`` over all y has bit nk + v iff some y ∈ P_k
    has b + y = v, so its block k is b + P_k.

    Each set I the closure reaches is checked as it is expanded, on those
    masks: 0 ∈ I, (b) ⊆ I for every b ∈ I, and I + P_k = I for every
    P_k ⊆ I.  Given the axioms checked at construction this is the
    definition of an ideal (module docstring); a failure raises
    :class:`NotAnIdealError`.
    """
    n = R.n
    bit = [1 << e for e in range(n)]
    # a sum of distinct powers of two is their OR; row b of the product
    # lists the b·r = r·b, so it spans (b)
    spans = [sum(set(map(bit.__getitem__, row))) for row in R.mul]
    principal = list(dict.fromkeys(spans))
    top = n * len(principal)
    packed = [
        row | span << top for row, span in zip(_sum_rows(R, principal), spans)
    ]
    block = (1 << n) - 1
    zero = bit[R.zero]
    found = set(principal)
    frontier = principal
    while frontier:
        new: list[int] = []
        for I in frontier:
            sums = 0
            for b in _bits(I):
                sums |= packed[b]
            if not I & zero or sums >> top & ~I:
                raise NotAnIdealError(f"{list(_bits(I))} is not an ideal")
            for P in principal:
                s = sums & block
                sums >>= n
                if s != I:
                    if not P & ~I:
                        raise NotAnIdealError(f"{list(_bits(I))} is not an ideal")
                    if s not in found:
                        found.add(s)
                        new.append(s)
        frontier = new
    return tuple(sorted(found, key=_size_key, reverse=True))


def _sum_rows(R: FiniteSemiring, family: Sequence[int]) -> list[int]:
    """Row b holds, in blocks of n bits, the mask of b + F_k in block k
    for each mask F_k of ``family``: the OR of ``spread[y] << (b + y)``
    over all y (module docstring), one C-level fold over row b of the sum
    table."""
    n = R.n
    spread = [0] * n
    for k, F in enumerate(family):
        for y in _bits(F):
            spread[y] |= 1 << n * k
    return [reduce(or_, map(lshift, spread, add_b), 0) for add_b in R.add]


def is_subtractive_semiring(R: FiniteSemiring) -> bool:
    """Every ideal is subtractive: r ∈ (a) + (r + a) for all r and a
    (module docstring), each sum of two principal ideals formed once."""
    add = R.add
    # frozensets, not masks: a mask version, each sum read off _sum_rows,
    # ran 4.5-24x slower on B(n, i >= 2), where this scan stops early
    principal = [frozenset(row) for row in R.mul]

    @cache
    def ideal_sum(P, Q):
        # P ⊆ Q gives P + Q = Q (module docstring)
        if P <= Q:
            return Q
        if Q <= P:
            return P
        return frozenset(add[p][q] for p in P for q in Q)

    return all(
        r in ideal_sum(principal[a], principal[add[r][a]])
        for r in R.elements()
        for a in R.elements()
    )


class SpectrumReport(NamedTuple):
    """The prime/maximal/minimal spectra and algebraic flags."""

    spec: tuple[int, ...]  # element masks, in the order of ideals(R)
    max: tuple[int, ...]
    min_primes: tuple[int, ...]
    jacobson: int  # element masks
    nilradical: int
    prime_radical: int
    kdim: int
    is_local: bool
    is_reduced: bool
    is_vnr: bool
    is_pi_regular: bool
    is_add_idempotent: bool
    is_mul_idempotent: bool
    is_idempotent: bool
    is_subtractive_semiring: bool
    is_semidomain: bool
    is_fmax: bool
    is_fmin: bool
    is_bmax: bool
    is_amin: bool
    is_pamin: bool
    is_pbmax: bool


def _high_powers(R: FiniteSemiring) -> tuple[int, ...]:
    """a^m for every a, with m = 2^L >= n: L squarings of every element
    at once, each one ``itemgetter`` read of the product's diagonal."""
    squares = _diagonal(R.mul)
    powers = tuple(R.elements())
    for _ in range((R.n - 1).bit_length()):
        powers = itemgetter(*powers)(squares)
    return powers


def _divisor_masks(R: FiniteSemiring, values: Iterable[int]) -> list[int]:
    """div(c) for each c of ``values``: the mask of the b with b | c, that
    is of the rows b of the product that hold c."""
    # frozensets for the C-level membership reads below
    rows = list(map(frozenset, R.mul))
    bits = [1 << b for b in R.elements()]
    return [
        sum(compress(bits, map(frozenset.__contains__, rows, repeat(c)))) for c in values
    ]


def _primes(R: FiniteSemiring) -> tuple[int, ...]:
    """Spec(R) as the sum-closed R \\ sat(a), a not nilpotent (module
    docstring), as element masks in the order of :func:`ideals`.

    sat(a), the OR of :func:`_divisor_masks` over the powers of a, is
    div(a^m) for the a^m of :func:`_high_powers`.  Power lemma:
    a^k | a^(k+1), as a^(k+1) = a·a^k ∈ (a^k), so div grows along the
    powers of a; two of a, ..., a^(n+1) are equal, so the powers repeat
    from an index j <= n on; so div is constant from a^j on, and that
    constant is the OR over all the powers.  So div is read only at the
    distinct a^m, and a is nilpotent iff a^m = 0, as div(c) holds 0 iff
    c ∈ (0) = {0}.

    A candidate P is closed under + iff row x of the sum, read at the
    members of P, stays in P for every member x: one ``itemgetter`` read
    per member.  P holds 0, as a is not nilpotent, so a one-member P is
    {0}, closed as 0 + 0 = 0.
    """
    full = (1 << R.n) - 1
    primes = []
    for sat in set(_divisor_masks(R, set(_high_powers(R)) - {R.zero})):
        P = full & ~sat
        members = tuple(_selected(R.elements(), P))
        rows = map(R.add.__getitem__, members)
        # a frozenset of the members tests each sum row in one C-level call
        if len(members) == 1 or all(
            map(frozenset(members).issuperset, map(itemgetter(*members), rows))
        ):
            primes.append(P)
    return tuple(sorted(primes, key=_size_key, reverse=True))


def _diagonal(table) -> tuple[int, ...]:
    """The entries a·a (or a + a) of a table, for every a."""
    return tuple(map(getitem, table, range(len(table))))


# kept: each `verify bni` instance reads its spectrum four times, and a
# process that runs `spec` on one semiring again reads it once; a hit
# hashes both tables
@lru_cache(maxsize=64)
def spectrum(R: FiniteSemiring) -> SpectrumReport:
    """Spec(R) from saturated sets, read as its inclusion order: Max(R),
    Min(R) and K.dim(R) are that poset's maximals, minimals and Krull
    dimension, kept in the order of :func:`ideals` (module docstring).
    No ideal is enumerated: subtractivity is a pair lemma.  The flags
    that hold on every finite semiring are set true and the lemma reads
    written out, each with its reason beside it.

    R is a semidomain when ab ≠ 0 for all nonzero a and b.  Row a of the
    product holds a·0 = 0 by absorption, so for a ≠ 0 that is one count:
    the row holds 0 exactly once.
    """
    spec = _primes(R)
    order = _inclusion_order(R, spec)
    maximal = tuple(_selected(spec, order.maximals()))
    min_primes = tuple(_selected(spec, order.minimals()))
    full = (1 << R.n) - 1
    prime_radical = reduce(and_, spec, full)
    # von Neumann regular: some b has (ab)a = a, and (ab)a = a(ab)
    is_vnr = all(a in map(mul_a.__getitem__, mul_a) for a, mul_a in enumerate(R.mul))
    identity = tuple(R.elements())
    add_idem = _diagonal(R.add) == identity
    mul_idem = _diagonal(R.mul) == identity
    return SpectrumReport(
        spec=spec,
        max=maximal,
        min_primes=min_primes,
        jacobson=reduce(and_, maximal, full),
        # a non-nilpotent a misses some prime (module docstring)
        nilradical=prime_radical,
        prime_radical=prime_radical,
        kdim=order.krull_dim(),
        is_local=len(maximal) == 1,
        is_reduced=prime_radical == 1 << R.zero,
        is_vnr=is_vnr,
        # finite: some power e = a^k, k <= n, is idempotent, and e·1·e = e
        is_pi_regular=True,
        is_add_idempotent=add_idem,
        is_mul_idempotent=mul_idem,
        is_idempotent=add_idem and mul_idem,
        is_subtractive_semiring=is_subtractive_semiring(R),
        is_semidomain=all(
            row.count(R.zero) == 1 for a, row in enumerate(R.mul) if a != R.zero
        ),
        is_fmax=True,  # finite carrier: finitely many maximal ideals
        is_fmin=True,
        # prime avoidance: the other maximal ideals, or the other minimal
        # primes, meet outside P (module docstring)
        is_bmax=True,
        is_amin=True,
        is_pamin=len(min_primes) == len(spec),
        is_pbmax=len(maximal) == len(spec),
    )


def ideal_label(R: FiniteSemiring, I: int) -> str:
    """The element mask ``I`` printed as a set, its labels in index order."""
    return "{" + ",".join(_selected(R.labels, I)) + "}"


def _inclusion_order(R: FiniteSemiring, family: Sequence[int]) -> FinitePoset:
    """A family of ideals, given as element masks, under ⊆, labelled by
    :func:`ideal_label`.

    ``family`` must be sorted by (size, elements).  For a ∩-closed family
    containing R, :class:`FiniteLattice` reads the meets (the
    intersections) and the joins (the least members above both) off it.
    """
    rows = []
    for mask_a in family:
        row = 0
        bit = 1
        for mask_b in family:
            if mask_a & ~mask_b == 0:
                row |= bit
            bit <<= 1
        rows.append(row)
    return FinitePoset([ideal_label(R, I) for I in family], rows)


def ideal_lattice(R: FiniteSemiring) -> tuple[FiniteLattice, tuple[int, ...]]:
    """The lattice of all ideals under inclusion: meet = ∩, join = ideal sum.

    The join I + J is the least ideal above both (the sum is generated by
    the union, so it is that least upper bound).  This is the definitional
    lattice of Spec(R); :func:`spec_space` uses the radical-ideal lattice,
    which gives the same topology from far fewer elements.  The ideals
    are the element masks of :func:`ideals`, in its order.
    """
    all_ideals = ideals(R)
    return FiniteLattice(_inclusion_order(R, all_ideals)), all_ideals


def radical_lattice(R: FiniteSemiring) -> tuple[FiniteLattice, tuple[int, ...]]:
    """The meet-closure of Spec(R) ∪ {R}: the radical ideals under inclusion.

    Its elements are the intersections of sets of primes (R being the
    empty intersection), as element masks in the order of :func:`ideals`.
    Every closed set of Spec(R), Max(R) or Min(R) is V(I) = V(√I), and √I
    is such an intersection, so this lattice carries the same topology as
    :func:`ideal_lattice` on every subspace of Spec(R).
    """
    full = (1 << R.n) - 1
    closure = {full}
    for P in spectrum(R).spec:
        closure |= {m & P for m in closure}
    radicals = tuple(sorted(closure, key=_size_key, reverse=True))
    return FiniteLattice(_inclusion_order(R, radicals)), radicals


def _chosen_primes(R: FiniteSemiring, which: str) -> Sequence[int]:
    """Spec(R), Max(R), Min(R), or for ``"drop-zero"`` Spec(R) without the
    zero ideal (all of Spec(R) when the zero ideal is not prime), as
    element masks in the order of :attr:`SpectrumReport.spec`."""
    report = spectrum(R)
    chosen = {
        "all": report.spec,
        "max": report.max,
        "min": report.min_primes,
        "drop-zero": [P for P in report.spec if P != 1 << R.zero],
    }
    if which not in chosen:
        raise ValueError("subspace selector must be one of 'all', 'max', 'min', 'drop-zero'")
    return chosen[which]


def spec_poset(R: FiniteSemiring, which: str = "all") -> FinitePoset:
    """The primes ``which`` selects under inclusion, in spec order.

    This is the specialization order of ``spec_space(R, which)``, with its
    points in the same order, and its up-sets are that space's closed sets
    (module docstring), so the space's report, point rows and open sets
    are read off it without the radical-ideal lattice.
    """
    return _inclusion_order(R, _chosen_primes(R, which))


def spec_space(R: FiniteSemiring, which: str = "all") -> XTopSpace:
    """The Zariski topology on the selected part of Spec(R): the
    radical-ideal lattice with X the primes that :func:`spec_poset` selects.

    Always satisfies the union-closure criterion; a NotXTopError here
    would indicate a bug, so it is allowed to propagate.
    """
    chosen = _chosen_primes(R, which)
    lattice, radicals = radical_lattice(R)
    position = {I: k for k, I in enumerate(radicals)}
    return build_space(lattice, sum(1 << position[I] for I in chosen))


class BniVerification(NamedTuple):
    """Predicted vs computed spectrum of one B(n, i), each spectrum a tuple
    of element masks in the order of :func:`spectrum`."""

    n: int
    i: int
    case: str
    predicted_kdim: int
    predicted_spec: tuple[int, ...]
    computed_kdim: int
    computed_spec: tuple[int, ...]

    @property
    def match(self) -> bool:
        return (
            self.predicted_kdim == self.computed_kdim
            and self.predicted_spec == self.computed_spec
        )


def verify_bni(n: int, i: int) -> BniVerification:
    """Compare spectrum(B(n, i)) with the closed-form description.

    Cases: i = 0 behaves as integers mod n ({pB : p | n}, dimension 0);
    n = 2, i = 1 is the Boolean semiring ({0}, dimension 0); i = 1 gives
    {0} ∪ {pB : p | n-1} in dimension 1; i = n-1 gives {0, m_n} in
    dimension 1, where m_n = {0, 2, ..., n-1}; the middle range
    2 <= i <= n-2 gives {0, m_n} ∪ {pB : p | n-i} in dimension 2.
    """
    return _verify_bni(bni(n, i), i)


def _verify_bni(R: FiniteSemiring, i: int) -> BniVerification:
    """:func:`verify_bni` for R = B(R.n, i), already built."""
    n = R.n
    computed = spectrum(R)
    zero_ideal = 1  # {0}
    m_n = (1 << n) - 1 & ~2  # {0, 2, ..., n-1}
    if i == 0:
        case = "integers-mod-n"
        predicted_kdim = 0
        # p == n only when n is prime, and then (p) = (0) in Z_n
        predicted = {principal_ideal(R, p % n) for p in prime_divisors(n)}
    elif n == 2:
        case = "boolean"
        predicted_kdim = 0
        predicted = {zero_ideal}
    elif i == 1:
        case = "i=1"
        predicted_kdim = 1
        predicted = {zero_ideal} | {
            principal_ideal(R, p) for p in prime_divisors(n - 1)
        }
    elif i == n - 1:
        case = "i=n-1"
        predicted_kdim = 1
        predicted = {zero_ideal, m_n}
    else:
        case = "2<=i<=n-2"
        predicted_kdim = 2
        predicted = {zero_ideal, m_n} | {
            principal_ideal(R, p) for p in prime_divisors(n - i)
        }
    return BniVerification(
        n=n,
        i=i,
        case=case,
        predicted_kdim=predicted_kdim,
        predicted_spec=tuple(sorted(predicted, key=_size_key, reverse=True)),
        computed_kdim=computed.kdim,
        computed_spec=computed.spec,
    )
