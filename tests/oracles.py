"""Independent oracles the tests check the library against.

Everything here is deliberately naive: exhaustive subset scans and
direct-definition evaluations with no shared machinery, so a bug in the
library cannot hide in its own oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from xtoplat import (
    AxiomError,
    EmptyPosetError,
    FiniteLattice,
    FinitePoset,
    FiniteSemiring,
    NotALatticeError,
    NotAnIdealError,
    RadicalInfo,
    SubsetViolationError,
    XTopSpace,
    semiring_from_tables,
)
from xtoplat.lattice import _members
from xtoplat.poset import _bits, _letters, is_dual_tree_component, is_tree_component
from xtoplat.semiring import ideals


def mask(S) -> int:
    """The mask of a set of indices: bit x for each member x."""
    return sum(1 << x for x in set(S))


def members(m: int) -> frozenset[int]:
    """The indices a mask holds, as the frozenset the oracles compare."""
    return frozenset(_bits(m))


def points(space: XTopSpace) -> frozenset[int]:
    """X as a frozenset of lattice indices."""
    return members(space.points)


def closed_sets(space: XTopSpace) -> tuple[frozenset[int], ...]:
    """The closed family as frozensets, in the space's order."""
    return tuple(map(members, space.closed_family))


def subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, r))


def longest_chain_length(P: FinitePoset) -> int:
    """Max size of a totally ordered subset, minus one; brute force."""
    best = 0
    for S in subsets(range(P.n)):
        if S and all(P.leq(a, b) or P.leq(b, a) for a in S for b in S):
            best = max(best, len(S) - 1)
    return best


def chains_ending_at(P: FinitePoset, x: int) -> int:
    """Length of the longest chain with top element x; brute force."""
    best = 0
    for S in subsets(range(P.n)):
        if (
            x in S
            and all(P.leq(a, b) or P.leq(b, a) for a in S for b in S)
            and all(P.leq(a, x) for a in S)
        ):
            best = max(best, len(S) - 1)
    return best


def upsets_by_filter(P: FinitePoset) -> set[frozenset[int]]:
    """All up-closed subsets by filtering the whole powerset."""
    out = set()
    for S in subsets(range(P.n)):
        if all(not P.leq(a, b) or b in S for a in S for b in range(P.n)):
            out.add(S)
    return out


def recursive_upset_masks(P: FinitePoset) -> list[int]:
    """The up-set masks in the order of the memoized recursion: the
    up-sets with the least element m maximal among the undecided ones,
    then those avoiding ↓m."""
    down = P.down_rows()

    @lru_cache(maxsize=None)
    def gen(alive: int) -> tuple[int, ...]:
        if alive == 0:
            return (0,)
        m = next(
            i
            for i in range(P.n)
            if alive >> i & 1 and P.up_mask(i) & alive == 1 << i
        )
        with_m = tuple(u | 1 << m for u in gen(alive & ~(1 << m)))
        return with_m + gen(alive & ~down[m])

    return list(gen((1 << P.n) - 1))


def glb_search(P: FinitePoset, a: int, b: int) -> int | None:
    lower = [c for c in range(P.n) if P.leq(c, a) and P.leq(c, b)]
    greatest = [c for c in lower if all(P.leq(d, c) for d in lower)]
    return greatest[0] if len(greatest) == 1 else None


def lub_search(P: FinitePoset, a: int, b: int) -> int | None:
    upper = [c for c in range(P.n) if P.leq(a, c) and P.leq(b, c)]
    least = [c for c in upper if all(P.leq(c, d) for d in upper)]
    return least[0] if len(least) == 1 else None


def lattice_by_search(P: FinitePoset):
    """(meet table, join table, bottom, top) of P by glb/lub search.

    Every ordered pair is searched, row by row, the meet before the join,
    and the first pair with no glb or no lub raises
    :class:`NotALatticeError`; bottom and top are the elements below and
    above everything.
    """
    n = P.n
    if n == 0:
        raise EmptyPosetError("a lattice needs at least one element")
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            glb = glb_search(P, a, b)
            if glb is None:
                raise NotALatticeError("meet", P.labels[a], P.labels[b])
            lub = lub_search(P, a, b)
            if lub is None:
                raise NotALatticeError("join", P.labels[a], P.labels[b])
            meet[a][b], join[a][b] = glb, lub
    (bottom,) = [c for c in range(n) if all(P.leq(c, d) for d in range(n))]
    (top,) = [c for c in range(n) if all(P.leq(d, c) for d in range(n))]
    return tuple(map(tuple, meet)), tuple(map(tuple, join)), bottom, top


# the |L|² meet and join tables and their stores, which no lattice keeps
TABLE_ATTRIBUTES = ("_meet", "_join", "meet_table", "join_table")


def tables(L: FiniteLattice):
    """(meet table, join table) of L, one ``meet`` and one ``join`` call
    per ordered pair."""
    n = L.n
    return (
        tuple(tuple(L.meet(a, b) for b in range(n)) for a in range(n)),
        tuple(tuple(L.join(a, b) for b in range(n)) for a in range(n)),
    )


def lattice_outcome(build, P: FinitePoset):
    """The tables, bottom and top that ``build`` gives P, or its
    :class:`NotALatticeError` as (kind, witness, message)."""
    try:
        L = build(P)
    except NotALatticeError as err:
        return err.kind, err.witness, str(err)
    if isinstance(L, tuple):
        return L
    return (*tables(L), L.bottom, L.top)


# -- lattice queries by pairwise definitions over the order rows -------------


def order_meet_all(L: FiniteLattice, members) -> int:
    """The greatest element below every member, by search over the order
    rows of ``L.poset``; the empty set's is the top."""
    P = L.poset
    lower = [c for c in range(P.n) if all(P.leq(c, m) for m in members)]
    (greatest,) = [c for c in lower if all(P.leq(d, c) for d in lower)]
    return greatest


def order_maximals(L: FiniteLattice, members) -> frozenset[int]:
    """The members strictly below no other member, pair by pair."""
    P = L.poset
    return frozenset(a for a in members if not any(P.lt(a, b) for b in members))


def order_variety_masks(L: FiniteLattice, X) -> tuple[int, ...]:
    """V(a) = {x ∈ X : a <= x} for every element a, as a mask, pair by pair."""
    P = L.poset
    return tuple(sum(1 << x for x in X if P.leq(a, x)) for a in range(P.n))


def restrict(P: FinitePoset, members) -> FinitePoset:
    """Induced subposet on the given elements (original label text kept)."""
    idx = sorted(set(members))
    for i in idx:
        P._check(i)
    pos = {i: p for p, i in enumerate(idx)}
    labels = [P.labels[i] for i in idx]
    up = []
    for i in idx:
        row = 0
        for j in idx:
            if P.leq(i, j):
                row |= 1 << pos[j]
        up.append(row)
    return FinitePoset(labels, up)


def permuted(P: FinitePoset, order) -> FinitePoset:
    """P with its elements listed in ``order``: index k holds order[k]."""
    position = {x: k for k, x in enumerate(order)}
    rows = [
        sum(1 << position[y] for y in range(P.n) if P.leq(x, y)) for x in order
    ]
    return FinitePoset([P.labels[x] for x in order], rows)


# -- lattice predicates by their definitions ---------------------------------


def is_distributive(L: FiniteLattice) -> bool:
    """a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c) for all triples."""
    n = L.n
    return all(
        L.meet(a, L.join(b, c)) == L.join(L.meet(a, b), L.meet(a, c))
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def minimals_of(L: FiniteLattice, members) -> frozenset[int]:
    """Minimal elements of a subset under the lattice order."""
    ms = set(members)
    return frozenset(a for a in ms if not any(b != a and L.leq(b, a) for b in ms))


def _require_between(L: FiniteLattice, X, A) -> frozenset[int]:
    """A, checked to be a set of elements that holds the carrier X."""
    A = frozenset(A)
    for a in A:
        L.check(a)
    if not members(_members(L, mask(X))) <= A:
        raise SubsetViolationError("X must be contained in A")
    return A


def is_coatomic(L: FiniteLattice, X, A) -> bool:
    """Every a ∈ A lies below some maximal element of X."""
    A = _require_between(L, X, A)
    maxima = members(L.maximals_of(mask(X)))
    return all(any(L.leq(a, m) for m in maxima) for a in A)


def is_atomic(L: FiniteLattice, X, A) -> bool:
    """Every a ∈ A lies above some minimal element of X."""
    A = _require_between(L, X, A)
    minima = minimals_of(L, X)
    return all(any(L.leq(m, a) for m in minima) for a in A)


def semiring_to_json(R: FiniteSemiring) -> dict:
    """The semiring JSON format, with label-valued tables."""
    labels = R.labels
    return {
        "labels": list(labels),
        "add": [[labels[R.add[a][b]] for b in range(R.n)] for a in range(R.n)],
        "mul": [[labels[R.mul[a][b]] for b in range(R.n)] for a in range(R.n)],
        "zero": labels[R.zero],
        "one": labels[R.one],
    }


def ideals_by_subset_scan(R: FiniteSemiring) -> set[frozenset[int]]:
    """Every subset tested against the ideal predicate; |R| <= 12 or so."""
    out = set()
    for S in subsets(range(R.n)):
        if not S or R.zero not in S:
            continue
        closed_add = all(R.add[a][b] in S for a in S for b in S)
        absorbs = all(R.mul[r][a] in S for r in range(R.n) for a in S)
        if closed_add and absorbs:
            out.add(S)
    return out


def bfs_ideals(R: FiniteSemiring) -> tuple[int, ...]:
    """The ideals by the breadth-first sum closure: each ideal found plus
    each distinct principal ideal, to a fixpoint, deduplicated through the
    set of those found; element masks listed by size, then elements.

    The frontier starts at the principal ideals in the order of their
    first generators, and each set it reaches is checked against
    :func:`is_ideal`; the first that fails raises NotAnIdealError.
    """
    principal = list(dict.fromkeys(frozenset(row) for row in R.mul))
    found = set(principal)
    frontier = principal
    while frontier:
        new = []
        for I in frontier:
            if not is_ideal(R, I):
                raise NotAnIdealError(f"{sorted(I)} is not an ideal")
            for P in principal:
                S = frozenset(R.add[a][p] for a in I for p in P)
                if S not in found:
                    found.add(S)
                    new.append(S)
        frontier = new
    return tuple(map(mask, sorted(found, key=lambda I: (len(I), sorted(I)))))


def is_ideal(R: FiniteSemiring, members: frozenset[int]) -> bool:
    """Nonempty, contains zero, closed under + and under r·(-)."""
    if not members or R.zero not in members:
        return False
    # row a of the addition table lists the a + b, and row a of the product
    # the a·r = r·a (commutativity is checked at construction)
    return all(
        members.issuperset(map(R.add[a].__getitem__, members))
        and members.issuperset(R.mul[a])
        for a in members
    )


def is_prime_ideal(R: FiniteSemiring, I: frozenset[int]) -> bool:
    """Proper, and ab ∈ I implies a ∈ I or b ∈ I."""
    if len(I) == R.n:
        return False
    return all(
        a in I or b in I
        for a in R.elements()
        for b in R.elements()
        if R.mul[a][b] in I
    )


def is_subtractive(R: FiniteSemiring, I: frozenset[int]) -> bool:
    """r + a ∈ I with a ∈ I forces r ∈ I; a set that is no ideal raises."""
    if not is_ideal(R, I):
        raise NotAnIdealError(f"{sorted(I)} is not an ideal")
    return all(
        r in I
        for r in R.elements()
        for a in I
        if R.add[r][a] in I
    )


def ideal_sets(R: FiniteSemiring) -> tuple[frozenset[int], ...]:
    """The element masks of ``ideals(R)`` as sets, in its order."""
    return tuple(frozenset(_bits(I)) for I in ideals(R))


def subtractive_by_ideal_scan(R: FiniteSemiring) -> bool:
    """R is subtractive by its definition: every enumerated ideal is."""
    return all(is_subtractive(R, I) for I in ideal_sets(R))


def pairwise_maximal_ideals(R: FiniteSemiring) -> tuple[frozenset[int], ...]:
    """The proper ideals under no other proper ideal, by comparing every pair."""
    full = frozenset(R.elements())
    proper = [I for I in ideal_sets(R) if I != full]
    return tuple(I for I in proper if not any(I < J for J in proper))


def primes_by_ideal_scan(R: FiniteSemiring) -> tuple[frozenset[int], ...]:
    """Spec(R) by its definition: the enumerated ideals that are prime."""
    return tuple(I for I in ideal_sets(R) if is_prime_ideal(R, I))


def pairwise_minimal_primes(R: FiniteSemiring) -> tuple[frozenset[int], ...]:
    """The primes of :func:`primes_by_ideal_scan` over no other prime."""
    spec = primes_by_ideal_scan(R)
    return tuple(P for P in spec if not any(Q < P for Q in spec))


def longest_inclusion_chain(sets) -> int:
    """Length of the longest strict ⊆-chain among ``sets``, counted in steps."""
    order = sorted(sets, key=len)
    best = {i: 0 for i in range(len(order))}
    for i, small in enumerate(order):
        for j in range(i + 1, len(order)):
            if small < order[j]:
                best[j] = max(best[j], best[i] + 1)
    return max(best.values(), default=0)


def _misses_the_others(P: frozenset[int], family) -> bool:
    """P does not contain the intersection of the other members of
    ``family`` (the empty intersection being all of R, which P misses)."""
    others = [Q for Q in family if Q != P]
    return not others or not frozenset.intersection(*others) <= P


def absolutely_minimal(P: frozenset[int], min_primes) -> bool:
    """P is a minimal prime over no intersection of the other minimal primes."""
    return P in min_primes and _misses_the_others(P, min_primes)


def barely_maximal(P: frozenset[int], maximal) -> bool:
    """P is a maximal ideal over no intersection of the other maximal ideals."""
    return P in maximal and _misses_the_others(P, maximal)


def nilradical(R: FiniteSemiring) -> frozenset[int]:
    """Elements with a^k = 0 for some k >= 1 (powers cycle within |R| steps)."""
    out = set()
    for a in R.elements():
        power = a
        seen = set()
        while power not in seen:
            seen.add(power)
            if power == R.zero:
                out.add(a)
                break
            power = R.mul[power][a]
    return frozenset(out)


def saturations_by_orbits(R: FiniteSemiring) -> tuple[int, ...]:
    """sat(a) for every a, as element masks, by its definition: the OR over
    the whole orbit a, a², ... of a (walked until a power repeats) of the
    mask of the b with b | a^k, each (b) listed as the products r·b."""
    div = [0] * R.n
    for b in R.elements():
        for r in R.elements():
            div[R.mul[r][b]] |= 1 << b
    out = []
    for a in R.elements():
        sat = 0
        power = a
        seen = set()
        while power not in seen:
            seen.add(power)
            sat |= div[power]
            power = R.mul[power][a]
        out.append(sat)
    return tuple(out)


def spectrum_reads_by_scan(R: FiniteSemiring) -> dict:
    """The fields of ``spectrum(R)`` read off the prime order or by a
    lemma, from the ideal scans and the definitions: Max and Min by pairs
    of ideals, K.dim as the longest chain of primes, the nilradical by
    powers, BMax, AMin, PAMin and PBMax by intersections,
    subtractivity over every ideal, and von Neumann regularity (some b
    with a·b·a = a) and both idempotences by their definitions."""
    spec = primes_by_ideal_scan(R)
    maximal = pairwise_maximal_ideals(R)
    min_primes = pairwise_minimal_primes(R)
    nil = nilradical(R)
    # the set-valued fields compared as the report holds them, element masks
    return {
        "max": tuple(map(mask, maximal)),
        "min_primes": tuple(map(mask, min_primes)),
        "kdim": longest_inclusion_chain(spec),
        "nilradical": mask(nil),
        "is_reduced": nil == frozenset({R.zero}),
        "is_bmax": all(barely_maximal(P, maximal) for P in maximal),
        "is_amin": all(absolutely_minimal(P, min_primes) for P in min_primes),
        "is_pamin": all(absolutely_minimal(P, min_primes) for P in spec),
        "is_pbmax": all(barely_maximal(P, maximal) for P in spec),
        "is_subtractive_semiring": subtractive_by_ideal_scan(R),
        "is_vnr": all(
            any(R.mul[R.mul[a][b]][a] == a for b in R.elements()) for a in R.elements()
        ),
        "is_add_idempotent": all(R.add[a][a] == a for a in R.elements()),
        "is_mul_idempotent": all(R.mul[a][a] == a for a in R.elements()),
    }


def product_semiring(A: FiniteSemiring, B: FiniteSemiring) -> FiniteSemiring:
    """The product semiring A × B, with componentwise operations."""
    pairs = [(a, b) for a in range(A.n) for b in range(B.n)]
    index = {p: k for k, p in enumerate(pairs)}

    def table(op_a, op_b):
        return [[index[op_a[a][c], op_b[b][d]] for c, d in pairs] for a, b in pairs]

    return semiring_from_tables(
        [f"{a}.{b}" for a, b in pairs],
        table(A.add, B.add),
        table(A.mul, B.mul),
        index[A.zero, B.zero],
        index[A.one, B.one],
    )


def truncated_power_semiring(k: int) -> FiniteSemiring:
    """{1, a, a², ..., a^(k-1), 0 = a^k}, element i standing for a^i, with
    a^i + a^j = a^min(i, j) and a^i·a^j = a^min(i + j, k): the powers of a
    reach 0 only at a^k, so its orbit takes n - 1 = k steps to repeat."""
    exponents = range(k + 1)
    return semiring_from_tables(
        [f"a{i}" for i in exponents],
        [[min(i, j) for j in exponents] for i in exponents],
        [[min(i + j, k) for j in exponents] for i in exponents],
        k,
        0,
    )


def downset_semiring(P: FinitePoset) -> FiniteSemiring:
    """D(P): the down-sets of P under (union, intersection), 0 = ∅, 1 = P."""
    downsets = {0}  # the unions of principal down-sets
    for x in range(P.n):
        below = sum(1 << y for y in range(P.n) if P.leq(y, x))
        downsets |= {m | below for m in downsets}
    masks = sorted(downsets)
    index = {m: k for k, m in enumerate(masks)}
    return semiring_from_tables(
        [f"d{m}" for m in masks],
        [[index[a | b] for b in masks] for a in masks],
        [[index[a & b] for b in masks] for a in masks],
        index[0],
        index[(1 << P.n) - 1],
    )


def pi_regular_by_powers(R: FiniteSemiring) -> bool:
    """π-regularity by its definition: every a has a power a^k, 1 <= k <= n,
    and some b with a^k·b·a^k = a^k."""
    for a in range(R.n):
        power = R.one
        for _ in range(R.n):
            power = R.mul[power][a]
            if any(R.mul[R.mul[power][b]][power] == power for b in range(R.n)):
                break
        else:
            return False
    return True


def axiom_violation_by_scan(labels, add, mul, zero: int, one: int):
    """The first violated semiring axiom and its witness, or None.

    ``add``/``mul`` are index tables.  Every axiom is scanned from its
    definition, associativity and distributivity by the O(n³) loops, one
    pass per axiom in the order :func:`semiring_from_tables` reports.
    """
    n = len(labels)

    def witness(*idx):
        return tuple(labels[i] for i in idx)

    if zero == one:
        return "distinct-identities", witness(zero)
    for a in range(n):
        if add[a][zero] != a or add[zero][a] != a:
            return "additive-identity", witness(a)
    for a in range(n):
        if mul[a][one] != a or mul[one][a] != a:
            return "multiplicative-identity", witness(a)
    for a in range(n):
        if mul[a][zero] != zero or mul[zero][a] != zero:
            return "absorption", witness(a)
    for a in range(n):
        for b in range(n):
            if add[a][b] != add[b][a]:
                return "additive-commutativity", witness(a, b)
            if mul[a][b] != mul[b][a]:
                return "multiplicative-commutativity", witness(a, b)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    return "additive-associativity", witness(a, b, c)
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return "multiplicative-associativity", witness(a, b, c)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    return "distributivity", witness(a, b, c)
    return None


def axiom_outcome(labels, add, mul, zero: int, one: int):
    """The axiom and witness :func:`semiring_from_tables` raises, or None."""
    try:
        semiring_from_tables(labels, add, mul, zero, one)
    except AxiomError as err:
        return err.axiom, err.witness
    return None


def mutated_tables(R: FiniteSemiring, key: str, a: int, b: int, value: int):
    """R's table arguments with ``key``'s entries (a, b) and (b, a) set to value."""
    table = [list(row) for row in getattr(R, key)]
    table[a][b] = table[b][a] = value
    tables = {"add": R.add, "mul": R.mul, key: table}
    return R.labels, tables["add"], tables["mul"], R.zero, R.one


def bni_by_wrap(n: int, i: int) -> FiniteSemiring:
    """B(n, i) with every table entry wrapped on its own, through
    :func:`semiring_from_tables`: the reference that ``bni``'s slices of
    one wrapped range must reproduce."""

    def wrap(v: int) -> int:
        if v <= n - 1:
            return v
        return i + (v - i) % (n - i)

    labels = [str(v) for v in range(n)]
    add = [[wrap(a + b) for b in range(n)] for a in range(n)]
    mul = [[wrap(a * b) for b in range(n)] for a in range(n)]
    return semiring_from_tables(labels, add, mul, 0, 1)


def wrap_by_search(v: int, n: int, i: int) -> int:
    """The unique u with i <= u <= n-1 and v ≡ u (mod n-i), by scanning."""
    if v <= n - 1:
        return v
    hits = [u for u in range(i, n) if (v - u) % (n - i) == 0]
    assert len(hits) == 1
    return hits[0]


# -- naive topology (open-family scans only) ---------------------------------


def eager_views(L: FiniteLattice, X) -> tuple[tuple[frozenset[int], ...], ...]:
    """(varieties, closed family, open family) of (L, X) as frozensets,
    built eagerly from L.leq: V(a) for every a, then the distinct V(a) and
    their complements in X, each family sorted by (size, sorted elements)."""
    X = frozenset(X)
    varieties = tuple(frozenset(x for x in X if L.leq(a, x)) for a in range(L.n))

    def key(S):
        return len(S), sorted(S)

    closed = tuple(sorted(set(varieties), key=key))
    opens = tuple(sorted((X - C for C in closed), key=key))
    return varieties, closed, opens


def open_family(space: XTopSpace) -> tuple[frozenset[int], ...]:
    """The open sets D(a) = X \\ V(a) of a space, read off L.leq and sorted
    by (size, sorted elements)."""
    return eager_views(space.lattice, points(space))[2]


def naive_kernel(space: XTopSpace, x: int) -> frozenset[int]:
    acc = points(space)
    for U in open_family(space):
        if x in U:
            acc &= U
    return acc


def naive_interior(space: XTopSpace, S: frozenset[int]) -> frozenset[int]:
    acc: frozenset[int] = frozenset()
    for U in open_family(space):
        if U <= S:
            acc |= U
    return acc


def excluded_meet(space: XTopSpace, x: int) -> tuple[int, int, bool]:
    """(⋀(X \\ {x}), ⋀D(x), equal?): x is an excluded point iff equal."""
    if x not in points(space):
        raise IndexError(f"{x} is not a point of the space")
    L = space.lattice
    e = L.meet_all(mask(points(space) - {x}))
    d = L.meet_all(mask(y for y in points(space) if not L.leq(x, y)))
    return e, d, e == d


def naive_closure(space: XTopSpace, S: frozenset[int]) -> frozenset[int]:
    candidates = [C for C in closed_sets(space) if S <= C]
    acc = points(space)
    for C in candidates:
        acc &= C
    return acc


def shields(opens, A: frozenset[int], B: frozenset[int]) -> bool:
    """A ⊢ B: some open set of ``opens`` contains A and misses B."""
    return any(A <= U and not U & B for U in opens)


def naive_tf(space: XTopSpace) -> bool:
    pts, opens = points(space), open_family(space)
    for x in pts:
        for F in subsets(pts - {x}):
            if not shields(opens, frozenset({x}), F) and not shields(
                opens, F, frozenset({x})
            ):
                return False
    return True


def naive_t0(space: XTopSpace) -> bool:
    pts, opens = sorted(points(space)), open_family(space)
    return all(
        any((x in U) != (y in U) for U in opens)
        for i, x in enumerate(pts)
        for y in pts[i + 1 :]
    )


def naive_t1(space: XTopSpace) -> bool:
    pts, opens = sorted(points(space)), open_family(space)
    return all(
        shields(opens, frozenset({x}), frozenset({y}))
        and shields(opens, frozenset({y}), frozenset({x}))
        for i, x in enumerate(pts)
        for y in pts[i + 1 :]
    )


def naive_t2(space: XTopSpace) -> bool:
    pts, opens = sorted(points(space)), open_family(space)
    return all(
        any(x in U and y in V and not U & V for U in opens for V in opens)
        for i, x in enumerate(pts)
        for y in pts[i + 1 :]
    )


def naive_quasi_hausdorff(space: XTopSpace) -> bool:
    """Any two points have disjoint open neighbourhoods or share the
    closure of one point."""
    pts, opens = sorted(points(space)), open_family(space)
    closures = [naive_closure(space, frozenset({z})) for z in pts]
    return all(
        any(x in U and y in V and not U & V for U in opens for V in opens)
        or any(x in C and y in C for C in closures)
        for i, x in enumerate(pts)
        for y in pts[i + 1 :]
    )


def naive_components(space: XTopSpace) -> dict[int, frozenset[int]]:
    """C(x) as the union of the connected subsets containing x."""

    opens = open_family(space)

    def connected(S: frozenset[int]) -> bool:
        rel = {U & S for U in opens}
        return not any(A and A != S and S - A in rel for A in rel)

    out = {}
    for x in points(space):
        acc = frozenset({x})
        for S in subsets(points(space)):
            if x in S and connected(S):
                acc |= S
        out[x] = acc
    return out


def naive_irreducible(space: XTopSpace) -> bool:
    """X is non-empty and no two proper closed sets cover it."""
    if not points(space):
        return False
    proper = [C for C in closed_sets(space) if C != points(space)]
    return not any(A | B == points(space) for A in proper for B in proper)


def naive_sober(space: XTopSpace) -> bool:
    """Every irreducible closed set (under the trace topology) has exactly
    one generic point, a point whose closure is the whole set."""
    closed = closed_sets(space)
    for C in closed:
        if not C:
            continue
        proper = [F & C for F in closed if F & C != C]
        if any(A | B == C for A in proper for B in proper):
            continue  # not irreducible
        generic = [x for x in C if naive_closure(space, frozenset({x})) == C]
        if len(generic) != 1:
            return False
    return True


def naive_clopens(space: XTopSpace) -> list[frozenset[int]]:
    closed = set(closed_sets(space))
    return [U for U in open_family(space) if U in closed]


def naive_quasicomponents(space: XTopSpace) -> dict[int, frozenset[int]]:
    """Q(x) as the intersection of the clopen sets containing x."""
    clopens = naive_clopens(space)
    out = {}
    for x in points(space):
        acc = points(space)
        for W in clopens:
            if x in W:
                acc &= W
        out[x] = acc
    return out


def naive_connected(space: XTopSpace) -> bool:
    """No clopen set other than ∅ and X."""
    return not any(W and W != points(space) for W in naive_clopens(space))


def naive_ind_zero_dim(space: XTopSpace) -> bool:
    """Every open U and x ∈ U have a clopen W with x ∈ W ⊆ U."""
    clopens = naive_clopens(space)
    return all(
        any(x in W and W <= U for W in clopens)
        for U in open_family(space)
        for x in U
    )


# -- carrier criteria through leq/meet calls, one point at a time -------------


def leq_union_witness(L: FiniteLattice, X: frozenset[int]) -> tuple[int, int] | None:
    """The first pair of varieties, in (size, sorted elements) order, whose
    union is not a variety, each named by its least element."""
    varieties: dict[frozenset[int], int] = {}
    for a in range(L.n):
        varieties.setdefault(frozenset(x for x in X if L.leq(a, x)), a)
    values = sorted(varieties, key=lambda v: (len(v), sorted(v)))
    for i, va in enumerate(values):
        for vb in values[i + 1 :]:
            if va | vb not in varieties:
                return varieties[va], varieties[vb]
    return None


def leq_radical_info(L: FiniteLattice, X: frozenset[int]) -> RadicalInfo:
    """√a = ⋀{x ∈ X : a <= x} for every a, and its fixed points."""
    radical = tuple(L.meet_all(mask(x for x in X if L.leq(a, x))) for a in range(L.n))
    return RadicalInfo(radical, mask(a for a in range(L.n) if radical[a] == a))


def leq_is_xtop_by_irreducibility(L: FiniteLattice, X: frozenset[int]) -> bool:
    """Every x ∈ X: radical a, b not below x have a ∧ b not below x."""
    radicals = sorted(members(leq_radical_info(L, X).radical_elements))
    for x in X:
        outside = [a for a in radicals if not L.leq(a, x)]
        for i, a in enumerate(outside):
            for b in outside[i:]:
                if L.leq(L.meet(a, b), x):
                    return False
    return True


# -- the pair forms of the carrier criteria, on variety masks -----------------


def pair_union_witness(varieties) -> tuple[int, int] | None:
    """The first pair of distinct varieties, in (size, sorted elements)
    order, whose union is not a variety, named by their least elements:
    every pair is scanned."""
    first: dict[int, int] = {}
    for a, v in enumerate(varieties):
        first.setdefault(v, a)

    def elements(v: int) -> list[int]:
        return [x for x in range(v.bit_length()) if v >> x & 1]

    values = sorted(first, key=lambda v: (v.bit_count(), elements(v)))
    for i, va in enumerate(values):
        for vb in values[i + 1 :]:
            if va | vb not in first:
                return first[va], first[vb]
    return None


def pair_irreducible(L: FiniteLattice, varieties, radicals: int) -> bool:
    """No pair (a, b) of the elements of the mask ``radicals`` has a point
    in V(a ∧ b) \\ (V(a) ∪ V(b)): every pair is scanned."""
    radicals = sorted(members(radicals))
    for i, a in enumerate(radicals):
        for b in radicals[i + 1 :]:
            if varieties[L.meet(a, b)] & ~(varieties[a] | varieties[b]):
                return False
    return True


# -- poset closure by iterating to a fixpoint ---------------------------------


def fixpoint_from_pairs(labels, index_pairs) -> FinitePoset:
    """The poset of (i <= j) index pairs, closed by repeating row unions
    over all rows until a whole pass changes nothing."""
    n = len(labels)
    up = [1 << i for i in range(n)]
    for i, j in index_pairs:
        up[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            row = up[i]
            for j in range(n):
                if row >> j & 1 and up[j] & ~row:
                    row |= up[j]
            if row != up[i]:
                up[i] = row
                changed = True
    return FinitePoset(labels, up)


# -- shapes closed from their covers, and their pairwise component reads ------


def _shape_covers(kind: str, size: int) -> tuple[list[str], list[tuple[int, int]]]:
    """Labels and cover pairs of C_k, T_n, V_m or the k-antichain "A"."""
    if kind == "C":
        return [f"x{i}" for i in range(size)], [(i, i + 1) for i in range(size - 1)]
    if kind == "A":
        return [f"a{i}" for i in range(size)], []
    if kind == "T":
        minimals = [name for name in _letters(size + 1) if name != "m"][:size]
        return minimals + ["m"], [(i, size) for i in range(size)]
    maximals = [name for name in _letters(size + 1) if name != "r"][:size]
    return ["r"] + maximals, [(0, i) for i in range(1, size + 1)]


def shape_by_closure(kind: str, size: int) -> FinitePoset:
    """C_k, T_n, V_m or the k-antichain, closed from its covers."""
    return fixpoint_from_pairs(*_shape_covers(kind, size))


def forest_by_closure(spec) -> FinitePoset:
    """The forest of ``spec``, its components' covers shifted by their
    offsets and closed as one relation."""
    labels, pairs = [], []
    for k, (kind, size) in enumerate(spec, start=1):
        names, covers = _shape_covers(kind.upper(), size)
        offset = len(labels)
        labels.extend(f"{name}#{k}" for name in names)
        pairs.extend((offset + i, offset + j) for i, j in covers)
    return fixpoint_from_pairs(labels, pairs)


def pairwise_tree_component(P: FinitePoset, component: int) -> int | None:
    """n if the component, a mask, is a T_n (n >= 1), by lt calls over its
    pairs."""
    comp = sorted(_bits(component))
    tops = [i for i in comp if not any(P.lt(i, j) for j in comp)]
    if len(tops) != 1:
        return None
    top = tops[0]
    base = [i for i in comp if i != top]
    if not base:
        return None
    for i in base:
        if not P.lt(i, top):
            return None
        if any(P.lt(j, i) or (j != i and P.lt(i, j) and j != top) for j in comp):
            return None
    return len(base)


def pairwise_dual_tree_component(P: FinitePoset, component: int) -> int | None:
    """m if the component, a mask, is a V_m (m >= 1), by lt calls over its
    pairs."""
    comp = sorted(_bits(component))
    bottoms = [i for i in comp if not any(P.lt(j, i) for j in comp)]
    if len(bottoms) != 1:
        return None
    bottom = bottoms[0]
    cover = [i for i in comp if i != bottom]
    if not cover:
        return None
    for i in cover:
        if not P.lt(bottom, i):
            return None
        if any(P.lt(i, j) or (j != i and P.lt(j, i) and j != bottom) for j in comp):
            return None
    return len(cover)


def pairwise_component_shape(P: FinitePoset, component: int):
    """("C", k), ("T", n), ("V", m) or None for the component, a mask, by
    leq calls over its pairs."""
    comp = sorted(_bits(component))
    if all(P.leq(a, b) or P.leq(b, a) for a in comp for b in comp):
        return ("C", len(comp))
    n = pairwise_tree_component(P, component)
    if n is not None:
        return ("T", n)
    m = pairwise_dual_tree_component(P, component)
    if m is not None:
        return ("V", m)
    return None


def component_shape(P: FinitePoset, component: int):
    """Classify one order-component, a mask, as ("C", k), ("T", n) or ("V", m).

    A 2-chain reports as ("C", 2) even though T_1 = C_2 = V_1; callers that
    care about the coincidence should test with ``is_tree_component`` and
    ``is_dual_tree_component`` instead.  Returns None for any other shape.
    """
    down = P.down_rows()
    C = component
    if all((P.up_mask(i) | down[i]) & C == C for i in _bits(C)):
        return ("C", C.bit_count())
    n = is_tree_component(P, component)
    if n is not None:
        return ("T", n)
    m = is_dual_tree_component(P, component)
    if m is not None:
        return ("V", m)
    return None


# -- point classes through leq/meet calls and family sizes ---------------------


def leq_extremes(space: XTopSpace) -> tuple[frozenset[int], frozenset[int]]:
    """(Min(X), Max(X)) under the order of L."""
    L, X = space.lattice, points(space)
    below = {x: {y for y in X if y != x and L.leq(y, x)} for x in X}
    above = {x: {y for y in X if y != x and L.leq(x, y)} for x in X}
    return (
        frozenset(x for x in X if not below[x]),
        frozenset(x for x in X if not above[x]),
    )


def closed_points(space: XTopSpace) -> frozenset[int]:
    """The points x whose singleton {x} is a closed set."""
    return frozenset(x for x in points(space) if frozenset({x}) in closed_sets(space))


def isolated_points(space: XTopSpace) -> frozenset[int]:
    """The points x whose singleton {x} is an open set."""
    opens = set(open_family(space))
    return frozenset(x for x in points(space) if frozenset({x}) in opens)


def leq_strongly_irreducible(space: XTopSpace) -> frozenset[int]:
    """SI: the q with a ∧ b <= q only if a <= q or b <= q, over a, b ∈ X."""
    L, xs = space.lattice, sorted(points(space))
    return frozenset(
        q
        for q in xs
        if not any(
            L.leq(L.meet(a, b), q) and not L.leq(a, q) and not L.leq(b, q)
            for a in xs
            for b in xs
        )
    )


def leq_completely_strongly_irreducible(space: XTopSpace) -> frozenset[int]:
    """CSI: the q with ⋀{a ∈ X : a ≰ q} ≰ q."""
    L, X = space.lattice, points(space)
    return frozenset(
        q for q in X if not L.leq(L.meet_all(mask(a for a in X if not L.leq(a, q))), q)
    )


def leq_barely(space: XTopSpace, extremes: frozenset[int]) -> frozenset[int]:
    """The q in ``extremes`` with ⋀(extremes \\ {q}) ≰ q: AMin from Min(X),
    BMax from Max(X)."""
    L = space.lattice
    return frozenset(q for q in extremes if not L.leq(L.meet_all(mask(extremes - {q})), q))


def meet_irredundant(space: XTopSpace, extremes: frozenset[int]) -> bool:
    """No point of ``extremes`` can be dropped without changing its meet:
    J(X) from Max(X), Q(X) from Min(X)."""
    L = space.lattice
    meet = L.meet_all(mask(extremes))
    return all(L.meet_all(mask(extremes - {m})) != meet for m in extremes)


def lattice_point_classes(space: XTopSpace) -> dict:
    """The lattice classes and the KC/discrete flags the way they are
    defined: meets in L, ``excluded_meet`` and the family sizes."""
    X = points(space)
    minima, maxima = leq_extremes(space)
    return {
        "min": minima,
        "max": maxima,
        "si": leq_strongly_irreducible(space),
        "csi": leq_completely_strongly_irreducible(space),
        "amin": leq_barely(space, minima),
        "bmax": leq_barely(space, maxima),
        "excl": frozenset(x for x in X if excluded_meet(space, x)[2]),
        "kc": len(closed_sets(space)) == 1 << len(X),
        "discrete": len(open_family(space)) == 1 << len(X),
    }


def pair_scan_flags(kernels: dict[int, frozenset[int]]) -> dict[str, bool]:
    """T0, R0, T1, R1 and T2 by scanning every pair of points, given the
    kernel Ker(x) of each point x."""
    pts = sorted(kernels)
    pairs = [(x, y) for i, x in enumerate(pts) for y in pts[i + 1 :]]
    distinguishable = [
        (x, y) for x, y in pairs if not (y in kernels[x] and x in kernels[y])
    ]

    def separated(x, y):
        return y not in kernels[x] and x not in kernels[y]

    def disjoint(x, y):
        return not kernels[x] & kernels[y]

    return {
        "t0": len(distinguishable) == len(pairs),
        "r0": all(separated(x, y) for x, y in distinguishable),
        "t1": all(separated(x, y) for x, y in pairs),
        "r1": all(disjoint(x, y) for x, y in distinguishable),
        "t2": all(disjoint(x, y) for x, y in pairs),
    }


# -- posets up to isomorphism by scanning every relation code ------------------


def canonical_form_by_extensions(P: FinitePoset) -> tuple[int, int]:
    """(n, least code): the upper-triangle code of P relabelled along each
    linear extension in turn, encoded pair by pair, minimized."""
    n = P.n
    lt = [[P.lt(i, j) for j in range(n)] for i in range(n)]

    def encode(order: list[int]) -> int:
        code = 0
        bit = 0
        for a in range(n):
            for b in range(a + 1, n):
                if lt[order[a]][order[b]]:
                    code |= 1 << bit
                bit += 1
        return code

    best: int | None = None
    order: list[int] = []
    used = [False] * n

    def extend():
        nonlocal best
        if len(order) == n:
            code = encode(order)
            if best is None or code < best:
                best = code
            return
        for i in range(n):
            # i can come next iff everything below it is already placed
            if not used[i] and all(used[j] or not lt[j][i] for j in range(n)):
                used[i] = True
                order.append(i)
                extend()
                order.pop()
                used[i] = False

    extend()
    if best is None:
        raise ValueError("no linear extension: the relation is not a partial order")
    return n, best


def code_rows(n: int, code: int) -> list[int]:
    """The strict up rows of the upper-triangle code, decoded bit by bit."""
    rows = [0] * n
    bit = 0
    for a in range(n):
        for b in range(a + 1, n):
            if code >> bit & 1:
                rows[a] |= 1 << b
            bit += 1
    return rows


def poset_from_code(n: int, code: int) -> FinitePoset:
    """The poset on p0..p{n-1} whose strict relation is the upper-triangle code."""
    rows = code_rows(n, code)
    return FinitePoset([f"p{i}" for i in range(n)], [rows[i] | 1 << i for i in range(n)])


@lru_cache(maxsize=None)
def posets_by_code_scan(n: int) -> tuple[FinitePoset, ...]:
    """One poset per class on n points: scan all 2^(n(n-1)/2) codes, keep
    the transitive ones and the first of each canonical form, decoded
    from that form."""
    if n == 0:
        return ()
    seen: set[tuple[int, int]] = set()
    out: list[FinitePoset] = []
    for code in range(1 << n * (n - 1) // 2):
        lt = code_rows(n, code)
        if any(lt[b] & ~lt[a] for a in range(n) for b in range(n) if lt[a] >> b & 1):
            continue
        key = canonical_form_by_extensions(poset_from_code(n, code))
        if key not in seen:
            seen.add(key)
            out.append(poset_from_code(*key))
    return tuple(out)


def semidomain_by_pairs(R: FiniteSemiring) -> bool:
    """R is a semidomain by its definition: ab ≠ 0 for all nonzero a, b."""
    return all(
        R.mul[a][b] != R.zero
        for a in R.elements()
        for b in R.elements()
        if a != R.zero and b != R.zero
    )
