"""Point classification and separation axioms for finite spaces.

Every flag and point class is read off the specialization order of X by
the order lemmas below, each with its proof.  The structure theorems and
the definitions those lemmas replace become executable checks in
:func:`cross_check`, which evaluates the other side of each from the open
and closed families, from pair scans and from meets in L, and reports
disagreements with a witness.

Every finite topology is Alexandrov (Alexandroff 1937; Stong 1966), so the
point-level sets are read off the specialization order of X, x <= y iff
x <= y in L, with these one-line reductions:

* closure({x}) = V(x) = ↑x and Ker(x) = ↓x: y lies in every D(a) that
  contains x iff a <= y implies a <= x for all a, iff y <= x (take a = y).
  Ker(x) is a finite intersection of opens, so it is open; that is checked
  once per space.  Hence "some open set around x avoids S" is
  "↓x ∩ S = ∅", and the least open set around F is the union of the ↓f.
* {x} is closed iff ↑x = {x} and open iff ↓x = {x}, so the closed points
  are Max(X) and the isolated and kerneled points are Min(X).
* interior(S) = {y : ↓y ⊆ S}, since ↓y is the least open set around y.
* The connected components are the comparability components of the
  order: each is an up-set and a down-set, hence clopen, and a relatively
  clopen part of one is closed under comparability, hence empty or all.
  So X is connected iff it has at most one component, and Q(x) = C(x): a
  clopen set is closed under comparability, so it is a union of components.
* X is zero-dimensional (ind) iff every component is one point: then every
  set is clopen; if x < y, every clopen set around x holds C(x) ∋ y, so
  none fits in the open ↓x.
* T_F needs only |F| <= 2: a failing F has some y ∈ F ∩ Ker(x) (else
  {x} ⊢ F) and some f ∈ F with x ∈ Ker(f) (else F ⊢ {x}), and then
  {y, f} fails too.
* A closed set C is irreducible iff C = closure({x}) = ↑x for some
  x ∈ C: C is the union of ↑m over its minimal points m, and with two or
  more of them, ↑m and the union of the others split C into two proper
  closed parts; conversely a cover of ↑x by closed sets has x, hence ↑x,
  in one of them.  So X is irreducible iff some ↑x is X, that is iff X
  has exactly one minimal point (every point lies above a minimal one).
  The space is sober (one generic point per irreducible closed set) iff
  the closures of distinct points differ, and they do: ↑x = ↑y gives
  x <= y <= x.  The report records the field as true.
* T0 holds: the specialization order is antisymmetric, so of two points
  x ≠ y at least one is outside the other's kernel.  "Spectral" is
  recorded as T0: every finite T0 space is spectral, and the
  projective-limit characterizations are out of scope.
* T1 = R0 = T2 = R1, and each holds iff every ↑x is {x}.  Every pair is
  distinguishable (T0), so R0 = T1 and R1 = T2.  T1 says no x < y, and
  then the ↓x are disjoint singletons, so T2 holds; if x < y, x lies in
  ↓x ∩ ↓y and T2 fails.
* Every space is quasi-Hausdorff: if two points i, j have no disjoint
  open neighbourhoods, ↓i ∩ ↓j holds some k, and then i and j both lie in
  ↑k = closure({k}).  The report records the field as true.

The report sets T0, sober and quasi-Hausdorff true and reads
T1 = R0 = T2 = R1 off Max; :func:`cross_check` still runs the pair scans
and compares the closures.

The classes defined by meets in L are order reads too.  For A ⊆ X,
V(⋀A) = closure(A) = ∪{↑a : a ∈ A}: V(⋀A) is closed and contains A; a
closed set V(b) ⊇ A has b <= ⋀A, so V(b) ⊇ V(⋀A); and a finite union of
the closed sets ↑a is closed.  So ⋀A <= q iff A ∩ ↓q ≠ ∅, and:

* SI = CSI = X: a ∧ b <= q puts a or b in ↓q, and ⋀{a ∈ X : a ≰ q} <= q
  would put some a ≰ q in ↓q.  So ``es`` holds.
* AMin = Min and BMax = Max: ⋀(Min(X) \\ {m}) <= m needs another minimal
  point in ↓m = {m}, and no maximal point lies below another.  The
  complete-max property is the BMax condition over the maximal proper
  radicals, which are Max(X): a proper radical r = ⋀V(r) has V(r) ≠ ∅,
  so r lies below a point, and every point is radical.  So ``amin``,
  ``bmax`` and ``complete_max_property`` hold on every X-top space; ``pamin`` is Min(X) = X and ``pbmax`` is Max(X) = X.  Likewise
  Max(X) and Min(X) are discrete subspaces: for m in either set Y,
  V(m) ∩ Y = {m} is closed, and a finite T1 space is discrete.
* The prime meets J(X) = ⋀Max(X) and Q(X) = ⋀Min(X) are irredundant: no
  point can be dropped from either without changing the meet.  A meet of
  points is radical, so two such meets are equal iff their unions
  ∪{↑y} are (next line), and m ∈ ↑y with y ∈ Min or y ∈ Max forces
  y = m; so dropping m from Min(X) or Max(X) drops m from the union.
* x is excluded, ⋀(X \\ {x}) = ⋀D(x), iff ∪{↑y : y ≠ x} = ∪{↑y : y ∉ ↑x}:
  D(x) = X \\ ↑x; a meet m of points is radical (V(m) contains the
  points, so ⋀V(m) <= m), and two radicals are equal iff their varieties
  are, since r = ⋀V(r).
* Every up-set U of X is the closed set V(⋀U), so the closed sets are the
  up-sets and the open sets the down-sets.  Compactness is degenerate at
  finite scale (every subset is compact), so KC is "every subset is
  closed", and KC and discreteness both hold iff every ↑x is {x}.

The paper characterizes T1, T¼, T½ and T¾ graphically.  On the order,
these axioms, T_F and the regular-open and excluded points are reads of
Min, Max and the rows ↓y:

* For minimal x, interior(↑x) = {y : Min ∩ ↓y = {x}}, and for any other
  x it is ∅.  If ↓y ⊆ ↑x, every minimal m <= y has x <= m, so m = x and x
  is minimal, and Min ∩ ↓y = {x} since ↓y holds a minimal point.
  Conversely, if Min ∩ ↓y = {x}, every z <= y lies above a minimal point
  of ↓y, which is x, so ↓y ⊆ ↑x.  Hence x is regular open,
  interior(closure({x})) = {x}, iff x is minimal and no other point y has
  Min ∩ ↓y = {x}.
* x is excluded iff x is not minimal or x is regular open.  Every point
  lies above a minimal one.  If x is not minimal, no minimal point lies
  in ↑x, so both unions of the excluded lemma are X.  If x is minimal,
  ∪{↑y : y ≠ x} = X \\ {x}, and ∪{↑y : y ∉ ↑x} is the set of points above
  a minimal point other than x; the two are equal iff no y ≠ x has
  Min ∩ ↓y = {x}.
* T¼ (every point closed or kerneled) and T½ (every point closed or
  isolated) hold iff X = Max ∪ Min, since the closed points are Max and
  the kerneled and isolated points are Min.  T_F holds iff X = Max ∪ Min
  too, that is iff the order has height <= 1: by the |F| <= 2 line, T_F
  fails iff some y ∈ F lies below x and x below some f ∈ F, a chain
  y < x < f, and such a chain exists iff some x is neither minimal nor
  maximal.
* T¾ (every point closed or regular open) holds iff X = Max ∪ RO.

So every source takes one route: Min, Max, the rows ↓y, the heights and
the comparability components of its specialization order, in O(n) big-int
operations beyond those rows.  A space's families are read once, to check
that each Ker(x) is open, and its lattice only for the prime meets J(X)
and Q(X).  :func:`cross_check` takes the other side of each lemma and
theorem from the families, from pair scans and from meets in L.

A :class:`~xtoplat.poset.FinitePoset` P is accepted wherever a space is
classified, and read as the space ``from_poset(P)``: X is {↑x : x ∈ P}
inside the lattice of up-sets under reverse inclusion, so the order of X
is the order of P, and the open sets are all the down-sets, so Ker(x) =
↓x is open without a check.  Neither that lattice nor its families are
built, and P is read in its own indices.  Only the output lists the
points, the component parts and their labels in (|↑x|, ↑x) order, the
index order of the up-set lattice, so the report and the point rows match
``from_poset(P)``'s.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations, combinations_with_replacement

from .errors import EmptyPosetError, XtoplatError
from .lattice import EmbeddedSubset, has_complete_max_property
from .poset import (
    FinitePoset,
    _bits,
    _mask_to_set,
    has_dual_tree_component,
    is_forest_of_trees,
)
from .topology import XTopSpace, _irreducible, _radical_info, _union_witness


@dataclass(frozen=True)
class PointClassification:
    """Per-point flags, each read off the specialization order by a lemma of
    the module docstring."""

    label: str
    is_closed: bool
    is_kerneled: bool
    is_isolated: bool
    is_regular_open: bool
    is_excluded: bool
    is_min: bool
    is_max: bool
    in_SI: bool
    in_CSI: bool
    is_abs_min: bool
    is_barely_max: bool


@dataclass(frozen=True)
class SpecialSets:
    """The distinguished point sets of a space, as sets of lattice indices."""

    min: frozenset[int]
    max: frozenset[int]
    si: frozenset[int]
    csi: frozenset[int]
    amin: frozenset[int]
    bmax: frozenset[int]
    iso: frozenset[int]
    ro: frozenset[int]
    cl: frozenset[int]
    k: frozenset[int]
    excl: frozenset[int]


@dataclass(frozen=True)
class SeparationReport:
    """Every axiom verdict for one space, plus the component partitions."""

    kdim: int
    t0: bool
    t_quarter: bool
    t_half: bool
    t_threequarter: bool
    t1: bool
    t2: bool
    t1half_kc: bool
    r0: bool
    r1: bool
    tf: bool
    es: bool
    discrete: bool
    irreducible: bool
    connected: bool
    sober: bool
    spectral: bool
    quasi_hausdorff: bool
    totally_separated: bool
    totally_disconnected: bool
    ind_zero_dim: bool
    stone: bool
    amin: bool
    bmax: bool
    pamin: bool
    pbmax: bool
    complete_max_property: bool
    components: tuple[tuple[str, ...], ...]
    quasicomponents: tuple[tuple[str, ...], ...]

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("components", "quasicomponents"):
                value = [list(part) for part in value]
            out[f.name] = value
        return out


@dataclass(frozen=True)
class PrimeMeets:
    """J(X) = ⋀Max(X) and Q(X) = ⋀Min(X) with their irredundance flags."""

    jacobson: int
    min_meet: int
    jacobson_irredundant: bool
    min_meet_irredundant: bool


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    holds: bool
    witness: str | None = None


class _Analysis:
    """Per-space scratch state: points as bit positions, the order as mask rows.

    Bit k is element k of ``spec_poset``: for a space, the point ``pts[k]``
    of its sorted points; for a poset source, whose ``space`` is None,
    element k of P itself.  ``order`` lists the bits in output order and
    ``position`` inverts it; for a space both are the identity.  Every read
    is an order lemma of the module docstring, whatever the source; only
    ``prime_meets`` reads the lattice.
    """

    def __init__(self, source: XTopSpace | FinitePoset):
        if isinstance(source, FinitePoset):
            if source.n == 0:
                raise EmptyPosetError("from_poset needs at least one element")
            self.space = None
            P = source
            self.order, self.position = _in_upset_order(P)
        else:
            self.space = source
            self.pts = source.sorted_points()
            # the poset lists the points in sorted order too, so its rows are masks
            P = source.specialization_poset()
            opens = set(source.open_family)
            for k, kernel in enumerate(P.down_rows()):
                if self.unmask(kernel) not in opens:
                    raise XtoplatError(
                        f"Ker({P.labels[k]!r}) is not open: the open family does not "
                        "match the specialization order"
                    )
            self.order = self.position = range(P.n)
        self.spec_poset = P
        self.n = P.n
        self.full = (1 << self.n) - 1
        self.min_mask = sum(1 << k for k in P.minimals())
        self.max_mask = sum(1 << k for k in P.maximals())
        # regular open: minimal, and no other y has Min ∩ ↓y = {x}; excluded:
        # not minimal, or regular open (module docstring)
        shared = 0
        down = P.down_rows()
        for y in _bits(self.full & ~self.min_mask):
            below = down[y] & self.min_mask
            if below & (below - 1) == 0:
                shared |= below
        self.ro_mask = self.min_mask & ~shared
        self.excl_mask = self.full & ~self.min_mask | self.ro_mask

    def unmask(self, mask: int) -> frozenset[int]:
        return frozenset(self.pts[k] for k in _mask_to_set(mask))

    def labels(self, mask: int) -> tuple[str, ...]:
        """The labels of the points in ``mask``, in output order."""
        bits = sorted(_bits(mask), key=self.position.__getitem__)
        return tuple(self.spec_poset.labels[k] for k in bits)

    # -- distinguished point sets -------------------------------------------

    def special(self) -> SpecialSets:
        u = self.unmask
        minima, maxima = u(self.min_mask), u(self.max_mask)
        # SI = CSI = X, AMin = Min and BMax = Max (module docstring)
        return SpecialSets(
            min=minima,
            max=maxima,
            si=u(self.full),
            csi=u(self.full),
            amin=minima,
            bmax=maxima,
            iso=minima,
            ro=u(self.ro_mask),
            cl=maxima,
            k=minima,
            excl=u(self.excl_mask),
        )

    # -- connectedness ---------------------------------------------------------

    def components(self) -> list[int]:
        """The components, which are the quasicomponents: the comparability
        components of the order, as masks in order of their first point."""
        parts = self.spec_poset.order_components()
        masks = [sum(1 << k for k in part) for part in parts]
        return sorted(masks, key=lambda m: min(self.position[k] for k in _bits(m)))

    # -- prime meets -------------------------------------------------------------

    def prime_meets(self) -> PrimeMeets:
        L = self.space.lattice
        j = L.meet_all(self.unmask(self.max_mask))
        q = L.meet_all(self.unmask(self.min_mask))
        # both meets are irredundant (module docstring)
        return PrimeMeets(j, q, True, True)


def _in_upset_order(P: FinitePoset) -> tuple[list[int], dict[int, int]]:
    """P's elements in (|↑x|, ↑x) order, and each element's position in it.

    That is the index order of the principal up-sets in
    ``upset_lattice(P)``, so position k here is point k of ``from_poset(P)``.
    """
    order = sorted(range(P.n), key=lambda x: (P.up_mask(x).bit_count(), P.up_mask(x)))
    return order, {x: k for k, x in enumerate(order)}


def special_sets(space: XTopSpace) -> SpecialSets:
    """Min/Max/SI/CSI/AMin/BMax plus the topological point classes."""
    return _Analysis(space).special()


def classify_points(source: XTopSpace | FinitePoset) -> tuple[PointClassification, ...]:
    """One row of flags per point, in sorted point order (for a poset, the
    (|↑x|, ↑x) order of the module docstring)."""
    return _points(_Analysis(source))


def _points(a: _Analysis) -> tuple[PointClassification, ...]:
    # closed points are Max; kerneled and isolated points are both Min
    masks = {
        "is_closed": a.max_mask,
        "is_kerneled": a.min_mask,
        "is_isolated": a.min_mask,
        "is_regular_open": a.ro_mask,
        "is_excluded": a.excl_mask,
        "is_min": a.min_mask,
        "is_max": a.max_mask,
        # SI = CSI = X, AMin = Min and BMax = Max (module docstring)
        "in_SI": a.full,
        "in_CSI": a.full,
        "is_abs_min": a.min_mask,
        "is_barely_max": a.max_mask,
    }
    labels = a.spec_poset.labels
    return tuple(
        PointClassification(
            labels[k], **{name: mask >> k & 1 == 1 for name, mask in masks.items()}
        )
        for k in a.order
    )


def components(space: XTopSpace) -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
    """(connected components, quasicomponents) as partitions of the point set.

    On a finite space the two partitions coincide (see the module docstring).
    """
    a = _Analysis(space)
    comps = tuple(a.unmask(m) for m in a.components())
    return comps, comps


def jacobson_and_prime_meets(space: XTopSpace) -> PrimeMeets:
    """⋀Max(X) and ⋀Min(X); both are irredundant on every space (module
    docstring)."""
    return _Analysis(space).prime_meets()


def separation_report(source: XTopSpace | FinitePoset) -> SeparationReport:
    """Every axiom verdict, read off the specialization order by the lemmas
    of the module docstring."""
    return _report(_Analysis(source))


def report_and_points(
    source: XTopSpace | FinitePoset,
) -> tuple[SeparationReport, tuple[PointClassification, ...]]:
    """:func:`separation_report` and :func:`classify_points` from one analysis."""
    a = _Analysis(source)
    return _report(a), _points(a)


def _report(a: _Analysis) -> SeparationReport:
    # closed points are Max; kerneled and isolated points are both Min
    minima, maxima = a.min_mask, a.max_mask
    # T1 = R0 = T2 = R1 = KC = discrete: every ↑x is {x}; T¼ = T½ = T_F:
    # height <= 1 (module docstring)
    antichain = maxima == a.full
    height_le_1 = maxima | minima == a.full
    comp = a.components()
    singletons = len(comp) == a.n
    parts = tuple(a.labels(m) for m in comp)
    return SeparationReport(
        kdim=a.spec_poset.krull_dim() if a.n else 0,
        t0=True,
        t_quarter=height_le_1,
        t_half=height_le_1,
        t_threequarter=maxima | a.ro_mask == a.full,
        t1=antichain,
        t2=antichain,
        t1half_kc=antichain,
        r0=antichain,
        r1=antichain,
        tf=height_le_1,
        es=True,
        discrete=antichain,
        irreducible=minima.bit_count() == 1,
        connected=len(comp) <= 1,
        sober=True,
        spectral=True,
        quasi_hausdorff=True,
        totally_separated=singletons,
        totally_disconnected=singletons,
        ind_zero_dim=singletons,
        stone=singletons,
        amin=True,
        bmax=True,
        pamin=minima == a.full,
        pbmax=maxima == a.full,
        complete_max_property=True,
        components=parts,
        quasicomponents=parts,
    )


# -- executable theorems -------------------------------------------------------


def _eq_witness(a: _Analysis, left: frozenset[int], right: frozenset[int]) -> str:
    diff = sorted(left ^ right)
    return f"point {a.space.label(diff[0])!r}" if diff else "sets equal"


def _mask(S) -> int:
    return sum(1 << x for x in S)


def _least_around(family: set[int], S: int, full: int) -> int:
    """The intersection of the members of ``family`` that contain mask S
    (the smallest one, when the family is closed under intersections)."""
    acc = full
    for F in family:
        if F & S == S:
            acc &= F
    return acc


def _trace_is_discrete(varieties: tuple[int, ...], Y: frozenset[int]) -> bool:
    """The subspace topology on Y, whose closed sets are the V(a) ∩ Y, is
    discrete: it has all 2^|Y| of them."""
    ymask = _mask(Y)
    return len({v & ymask for v in varieties}) == 1 << len(Y)


def _bool_chain(name_values: list[tuple[str, bool]]) -> tuple[bool, str | None]:
    values = {v for _, v in name_values}
    if len(values) <= 1:
        return True, None
    return False, "; ".join(f"{name}={value}" for name, value in name_values)


def cross_check(space: XTopSpace) -> tuple[CheckResult, ...]:
    """Evaluate both sides of every finite-scale structure theorem.

    Each check must hold on every valid space; a failure indicates a bug
    and its witness names the violating point or flag assignment.  The
    report reads every flag off the specialization order; the other sides
    come from the families, from pair scans and from meets in L.
    """
    return _report_and_checks(space)[2]


def _report_and_checks(
    space: XTopSpace,
) -> tuple[SeparationReport, PrimeMeets, tuple[CheckResult, ...]]:
    """The report and prime meets :func:`cross_check` compares, with its
    results, all from one analysis of the space.  The prime meets carry
    their irredundance by its definition, each point dropped in turn."""
    a = _Analysis(space)
    s = a.special()
    r = _report(a)
    L = space.lattice
    j, q = L.meet_all(s.max), L.meet_all(s.min)
    pm = PrimeMeets(
        j,
        q,
        all(L.meet_all(s.max - {m}) != j for m in s.max),
        all(L.meet_all(s.min - {m}) != q for m in s.min),
    )
    X = space.points
    # the definitional side of the point classes the report reads off the
    # order, from the families as masks over lattice indices
    full = _mask(X)
    closed = {_mask(C) for C in space.closed_family}
    opens = {_mask(U) for U in space.open_family}
    clopens = closed & opens
    closed_pts = frozenset(x for x in X if 1 << x in closed)
    isolated = frozenset(x for x in X if 1 << x in opens)
    kernel = {x: _least_around(opens, 1 << x, full) for x in X}
    kerneled = frozenset(x for x in X if kernel[x] == 1 << x)
    quasi = {x: frozenset(_bits(_least_around(clopens, 1 << x, full))) for x in X}
    kc = len(closed) == 1 << len(X)
    discrete = len(opens) == 1 << len(X)
    # the varieties and radicals of (L, X), shared by the carrier checks
    varieties = L.variety_masks(X)
    rad = _radical_info(L, varieties)
    totally_separated = all(len(Q) == 1 for Q in quasi.values())

    # the lattice classes, from meets in L: ⋀A <= q iff q ∈ V(⋀A)
    def meet_avoids(A, q: int) -> bool:
        return not varieties[L.meet_all(A)] >> q & 1

    csi = frozenset(
        q for q in X if meet_avoids([x for x in X if not varieties[x] >> q & 1], q)
    )
    amin = frozenset(m for m in s.min if meet_avoids(s.min - {m}, m))
    bmax = frozenset(m for m in s.max if meet_avoids(s.max - {m}, m))
    excl = frozenset(x for x in X if space.excluded_meet(x)[2])
    es = s.min - s.max <= csi
    complete_max = has_complete_max_property(L, EmbeddedSubset(L, X))

    # the report records T0, T1 = R0 = T2 = R1 and quasi-Hausdorff as
    # lemmas; these are the pair scans over the kernels from the open family
    def separated(x: int, y: int) -> bool:
        return not kernel[x] >> y & 1 and not kernel[y] >> x & 1

    def disjoint(x: int, y: int) -> bool:
        return kernel[x] & kernel[y] == 0

    pairs = list(combinations(sorted(X), 2))
    distinguishable = [
        (x, y) for x, y in pairs if not (kernel[x] >> y & 1 and kernel[y] >> x & 1)
    ]
    t0 = len(distinguishable) == len(pairs)
    t1 = all(separated(x, y) for x, y in pairs)
    r0 = all(separated(x, y) for x, y in distinguishable)
    t2 = all(disjoint(x, y) for x, y in pairs)
    r1 = all(disjoint(x, y) for x, y in distinguishable)
    anti_t2 = len(X) >= 2 and not any(disjoint(x, y) for x, y in pairs)
    quasi_hausdorff = all(
        disjoint(x, y) or any(varieties[z] >> x & 1 and varieties[z] >> y & 1 for z in X)
        for x, y in pairs
    )
    # T_F by its definition (|F| <= 2 suffices): for every x and every
    # F = {y, f} ⊆ X \\ {x}, y = f allowed, {x} ⊢ F or F ⊢ {x}
    tf = all(
        not kernel[x] & (1 << y | 1 << f) or not (kernel[y] | kernel[f]) >> x & 1
        for x in X
        for y, f in combinations_with_replacement(sorted(X - {x}), 2)
    )
    # sober iff distinct points have distinct closures (module docstring)
    sober = len({_least_around(closed, 1 << x, full) for x in X}) == len(X)
    checks: list[CheckResult] = []

    def add(check_id: str, holds: bool, witness: str | None = None):
        checks.append(CheckResult(check_id, holds, None if holds else witness))

    add(
        "t0-and-sober",
        r.t0 and t0 and r.sober and sober,
        f"t0={r.t0}; t0 by pairs={t0}; sober={r.sober}; sober by closures={sober}",
    )
    add(
        "closed-points-are-maximal",
        closed_pts == s.max,
        _eq_witness(a, closed_pts, s.max),
    )
    add(
        "kerneled-points-are-minimal",
        kerneled == s.min,
        _eq_witness(a, kerneled, s.min),
    )
    add(
        "ro-iso-min-nested",
        s.ro <= isolated <= s.min,
        _eq_witness(a, s.ro | isolated, s.min),
    )

    ok, w = _bool_chain(
        [
            ("t1", r.t1),
            ("r0", r.r0),
            ("t1 by pairs", t1),
            ("r0 by pairs", r0),
            ("kdim==0", r.kdim == 0),
        ]
    )
    add("t1-iff-r0-iff-dim0", ok, w)
    ok, w = _bool_chain(
        [
            ("t2", r.t2),
            ("r1", r.r1),
            ("t2 by pairs", t2),
            ("r1 by pairs", r1),
            ("kdim==0 and quasi_hausdorff", r.kdim == 0 and quasi_hausdorff),
        ]
    )
    add("t2-iff-r1-iff-dim0-quasihausdorff", ok, w)
    ok, w = _bool_chain(
        [
            ("t_quarter", r.t_quarter),
            ("kdim<=1", r.kdim <= 1),
            ("tf", r.tf),
            ("tf by pairs", tf),
        ]
    )
    add("t-quarter-iff-dim-le-1-iff-tf", ok, w)

    decomposition_half = X == s.max | (s.min & csi)
    ok, w = _bool_chain(
        [
            ("t_half", r.t_half),
            ("X == Max ∪ (Min ∩ CSI)", decomposition_half),
            ("t_quarter and es", r.t_quarter and es),
        ]
    )
    add("t-half-decomposition", ok, w)

    decomposition_tq = X == s.max | (s.min & csi & excl)
    ok, w = _bool_chain(
        [
            ("t_threequarter", r.t_threequarter),
            ("X == Max ∪ RO", X == s.max | s.ro),
            ("X == Max ∪ (Min ∩ CSI ∩ Excl)", decomposition_tq),
        ]
    )
    add("t-threequarter-decomposition", ok, w)

    add(
        "isolated-iff-min-csi",
        isolated == s.min & csi,
        _eq_witness(a, isolated, s.min & csi),
    )

    boundary = frozenset(
        x
        for x in X
        if _least_around(closed, full & ~varieties[x], full) == full & ~(1 << x)
    )
    add(
        "regular-open-iff-isolated-excluded",
        s.ro == isolated & excl == boundary and s.excl == excl,
        _eq_witness(a, s.ro, isolated & excl)
        + "; "
        + _eq_witness(a, s.ro, boundary)
        + "; "
        + _eq_witness(a, s.excl, excl),
    )

    names = [
        ("discrete", r.discrete),
        ("discrete by family size", discrete),
        ("X == AMin", X == amin),
        ("X == BMax", X == bmax),
        ("t1 and bmax", t1 and bmax == s.max),
        ("t1 and complete_max_property", t1 and complete_max),
    ]
    ok, w = _bool_chain(names)
    if ok and r.discrete:
        ok = amin == s.min == X == s.max == bmax
        w = "AMin=Min=X=Max=BMax fails"
    add("discrete-characterizations", ok, w)

    ok, w = _bool_chain(
        [
            ("es", r.es),
            ("es by meets", es),
            ("csi covers X", s.csi == csi == X),
            ("si covers X", s.si == X and _irreducible(L, varieties, X)),
            ("bmax", r.bmax),
            ("BMax == Max", bmax == s.bmax == s.max),
            ("amin", r.amin),
            ("AMin == Min", amin == s.amin == s.min),
            ("complete_max_property", r.complete_max_property),
            ("complete max property by meets", complete_max),
        ]
    )
    add("finite-carrier-irreducibility", ok, w)
    # the report's T¼, T½ and T_F all read Max ∪ Min; here T¼ comes from the
    # families and T_F from the pair scan
    ok, w = _bool_chain(
        [
            ("t_half", r.t_half),
            ("t_quarter", X == closed_pts | kerneled),
            ("tf by pairs", tf),
        ]
    )
    add("es-collapse", ok, w)

    add(
        "anti-hausdorff-iff-irreducible",
        anti_t2 == (r.irreducible and a.n >= 2),
        f"anti_t2={anti_t2}; irreducible={r.irreducible}; |X|={a.n}",
    )
    ok, w = _bool_chain([("discrete", discrete), ("t1", t1), ("kdim==0", r.kdim == 0)])
    add("discrete-iff-t1-at-finite-scale", ok, w)
    ok, w = _bool_chain(
        [
            ("kc", r.t1half_kc),
            ("discrete", r.discrete),
            ("kc by family size", kc),
            ("discrete by family size", discrete),
        ]
    )
    add("kc-iff-discrete-at-finite-scale", ok, w)

    ok = t2 == (t1 and quasi_hausdorff) and (not t1 or t2)
    add(
        "t2-iff-t1-quasihausdorff",
        ok,
        f"t1={t1}; t2={t2}; quasi_hausdorff={quasi_hausdorff}",
    )

    if r.ind_zero_dim:
        ok, w = _bool_chain(
            [
                ("totally_separated", totally_separated),
                ("totally_disconnected", r.totally_disconnected),
                ("t1", t1),
                ("t0", t0),
                ("t2", t2),
            ]
        )
    else:
        ok, w = True, None
    add("zero-dimensional-collapse", ok, w)

    ok, w = _bool_chain(
        [
            ("stone", r.stone),
            ("spectral and ind_zero_dim", r.spectral and r.ind_zero_dim),
            ("spectral and totally_separated", r.spectral and totally_separated),
            ("spectral and t2", r.spectral and t2),
            ("spectral and kc", r.spectral and kc),
            ("spectral and t1", r.spectral and t1),
            ("spectral and kdim==0", r.spectral and r.kdim == 0),
        ]
    )
    add("stone-characterizations", ok, w)

    add(
        "union-criterion-iff-irreducibility",
        (_union_witness(varieties) is None)
        == _irreducible(L, varieties, rad.radical_elements),
        "the two carrier criteria disagree",
    )

    radical_maxima = L.maximals_of(rad.radical_elements - {L.top})
    add(
        "maxima-of-radicals",
        radical_maxima == s.max,
        _eq_witness(a, radical_maxima & X, s.max),
    )

    ok, w = _bool_chain(
        [
            ("bmax", bmax == s.max),
            ("jacobson irredundant", pm.jacobson_irredundant),
            (
                "Max(X) discrete",
                _trace_is_discrete(varieties, s.max),
            ),
        ]
    )
    add("jacobson-irredundant-iff-bmax-iff-max-discrete", ok, w)

    ok, w = _bool_chain(
        [
            ("amin", amin == s.min),
            ("min meet irredundant", pm.min_meet_irredundant),
            (
                "Min(X) discrete",
                _trace_is_discrete(varieties, s.min),
            ),
        ]
    )
    add("min-meet-irredundant-iff-amin-iff-min-discrete", ok, w)

    ok = (not totally_separated or t2) and (not r.totally_disconnected or t1)
    add(
        "total-separation-implications",
        ok,
        f"totally_separated={totally_separated}; "
        f"totally_disconnected={r.totally_disconnected}; t1={t1}; t2={t2}",
    )

    unrefined = [
        x for C in map(a.unmask, a.components()) for x in C if not C <= quasi[x]
    ]
    add(
        "components-refine-quasicomponents",
        not unrefined,
        f"point {space.label(unrefined[0])!r}" if unrefined else None,
    )

    P = a.spec_poset
    if a.n and is_forest_of_trees(P):
        ok = r.t_threequarter and not r.t1
        add(
            "tree-forests-are-t-threequarter",
            ok,
            f"t_threequarter={r.t_threequarter}; t1={r.t1}",
        )
    else:
        add("tree-forests-are-t-threequarter", True)
    if r.t_threequarter:
        ok = r.kdim <= 1 and not (a.n and has_dual_tree_component(P))
        add(
            "dual-tree-blocks-t-threequarter",
            ok,
            f"kdim={r.kdim}; dual tree component present",
        )
    else:
        add("dual-tree-blocks-t-threequarter", True)

    return r, pm, tuple(checks)
