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
  ``bmax`` and ``complete_max_property`` hold on every X-top space;
  ``pamin`` is Min(X) = X and ``pbmax`` is Max(X) = X.  Likewise Max(X)
  and Min(X) are discrete subspaces: for m in either set Y,
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

Of the paper's point classes, then, only Min, Max, RO and Excl are sets
of their own.  SI and CSI are X, AMin and the isolated and kerneled
points are Min, and BMax and the closed points are Max, so the point rows
read them off X, Min and Max.

So every source takes one route: Min, Max, the rows ↓y, the heights and
the comparability components of its specialization order, in O(n)
big-int operations beyond those rows.  A space's variety masks are read
once, to check that each Ker(x) is open (X \\ ↓x is a variety), and its
lattice not at all.  :func:`cross_check` takes the other side of each
lemma and theorem from the families, as the varieties and their
complements in X, from pair scans and from meets in L, and compares it
with X, Min, Max, RO or Excl.  Every point set on either side is a mask
over lattice indices, like the space's variety masks and every point set
the library takes or returns.  It computes each side on demand, the
first time a check reads it, so a run of some of the checks (``verify
quarter`` and ``verify discrete`` ask for theirs) computes only the sides
they read, and a check builds its witness, the lowest point in one set
but not the other, only when it fails.

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

from functools import cached_property
from itertools import combinations, combinations_with_replacement
from types import SimpleNamespace
from typing import Callable, Collection, NamedTuple

from .errors import EmptyPosetError, XtoplatError
from .lattice import has_complete_max_property
from .poset import (
    FinitePoset,
    _bits,
    _mask,
    has_dual_tree_component,
    is_forest_of_trees,
)
from .topology import XTopSpace, _irreducible, _radical_info, _union_witness


class PointClassification(NamedTuple):
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


class SeparationReport(NamedTuple):
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


class PrimeMeets(NamedTuple):
    """J(X) = ⋀Max(X) and Q(X) = ⋀Min(X) with their irredundance flags."""

    jacobson: int
    min_meet: int
    jacobson_irredundant: bool
    min_meet_irredundant: bool


class CheckResult(NamedTuple):
    check_id: str
    holds: bool
    witness: str | None = None


class _Analysis:
    """Per-space scratch state: points as bit positions, the order as mask rows.

    Bit k is element k of ``spec_poset``: for a space, the point ``pts[k]``
    of its sorted points; for a poset source, element k of P itself.
    ``order`` lists the bits in output order and ``position`` inverts it;
    for a space both are the identity, and so they are for a poset read
    ``in_index_order``.  Every read is an order lemma of the module
    docstring, whatever the source.
    """

    def __init__(self, source: XTopSpace | FinitePoset, in_index_order: bool = False):
        if isinstance(source, FinitePoset):
            P = source
            if in_index_order:
                self.order = self.position = range(P.n)
            else:
                self.order, self.position = _in_upset_order(P)
        else:
            self.pts = source.sorted_points()
            # the poset lists the points in sorted order too, so its rows are masks
            P = source.specialization_poset()
            # Ker(x) = ↓x is open iff X \\ ↓x is a variety
            closed = set(source.variety_masks)
            full = source.points
            for k, kernel in enumerate(P.down_rows()):
                if full & ~self.lift(kernel) not in closed:
                    raise XtoplatError(
                        f"Ker({P.labels[k]!r}) is not open: the open family does not "
                        "match the specialization order"
                    )
            self.order = self.position = range(P.n)
        self.spec_poset = P
        self.n = P.n
        self.full = (1 << self.n) - 1
        self.min_mask = P.minimals()
        self.max_mask = P.maximals()
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

    def lift(self, mask: int) -> int:
        """A mask over the bits k as a mask over the lattice indices pts[k]."""
        return _mask(self.pts[k] for k in _bits(mask))

    def labels(self, mask: int) -> tuple[str, ...]:
        """The labels of the points in ``mask``, in output order."""
        bits = sorted(_bits(mask), key=self.position.__getitem__)
        return tuple(self.spec_poset.labels[k] for k in bits)

    # -- connectedness ---------------------------------------------------------

    @cached_property
    def components(self) -> list[int]:
        """The components, which are the quasicomponents: the comparability
        components of the order, as masks in order of their first point."""
        parts = self.spec_poset.order_components()
        return sorted(parts, key=lambda m: min(self.position[k] for k in _bits(m)))


def _in_upset_order(P: FinitePoset) -> tuple[list[int], dict[int, int]]:
    """P's elements in (|↑x|, ↑x) order, and each element's position in it.

    That is the index order of the principal up-sets in
    ``upset_lattice(P)``, so position k here is point k of ``from_poset(P)``.
    """
    if P.n == 0:
        raise EmptyPosetError("from_poset needs at least one element")
    up = P.up_rows()
    # the up rows are distinct, so the sort never compares the indices
    order = [x for _, _, x in sorted(zip(map(int.bit_count, up), up, range(P.n)))]
    return order, dict(zip(order, range(P.n)))


def classify_points(source: XTopSpace | FinitePoset) -> tuple[PointClassification, ...]:
    """One row of flags per point, in sorted point order (for a poset, the
    (|↑x|, ↑x) order of the module docstring)."""
    return _points(_Analysis(source))


def _points(a: _Analysis) -> tuple[PointClassification, ...]:
    def column(mask: int) -> list[bool]:
        return [mask >> k & 1 == 1 for k in a.order]

    closed, minimal = column(a.max_mask), column(a.min_mask)
    everywhere = [True] * a.n
    labels = a.spec_poset.labels
    # the columns in field order: closed points are Max; kerneled and
    # isolated points are both Min; SI = CSI = X, AMin = Min and BMax = Max
    # (module docstring)
    columns = (closed, minimal, minimal, column(a.ro_mask), column(a.excl_mask),
               minimal, closed, everywhere, everywhere, minimal, closed)
    return tuple(map(PointClassification, [labels[k] for k in a.order], *columns))


def jacobson_and_prime_meets(space: XTopSpace) -> PrimeMeets:
    """J(X) = ⋀Max(X) and Q(X) = ⋀Min(X), each with its irredundance by
    the definition: no point can be dropped without changing the meet.
    The module docstring proves both irredundant on every space, and
    :func:`cross_check` compares the two flags with that lemma."""
    return _Sides(space).pm


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


def _report_and_points_in_index_order(P: FinitePoset):
    """:func:`report_and_points` of the space whose closed sets are the
    up-sets of P, its points listed in P's own index order, not in the
    (|↑x|, ↑x) order of ``from_poset(P)``.  That is how
    :func:`~xtoplat.semiring.spec_poset` lists the primes of a subspace of
    Spec(R).  An empty P is the empty space."""
    a = _Analysis(P, in_index_order=True)
    return _report(a), _points(a)


def _report(a: _Analysis) -> SeparationReport:
    # closed points are Max; kerneled and isolated points are both Min
    minima, maxima = a.min_mask, a.max_mask
    # T1 = R0 = T2 = R1 = KC = discrete: every ↑x is {x}; T¼ = T½ = T_F:
    # height <= 1 (module docstring)
    antichain = maxima == a.full
    height_le_1 = maxima | minima == a.full
    comp = a.components
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

# a check's verdict, and the witness to build when it fails
Verdict = tuple[bool, Callable[[], str]]


def _least_around(family: set[int], S: int, full: int) -> int:
    """The intersection of the members of ``family`` that contain mask S
    (the smallest one, when the family is closed under intersections)."""
    acc = full
    for F in family:
        if F & S == S:
            acc &= F
    return acc


def _trace_is_discrete(varieties: tuple[int, ...], Y: int) -> bool:
    """The subspace topology on the mask Y, whose closed sets are the
    V(a) ∩ Y, is discrete: it has all 2^|Y| of them."""
    return len({v & Y for v in varieties}) == 1 << Y.bit_count()


def _chain(*name_values: tuple[str, bool]) -> Verdict:
    """Holds when all the named values agree; the witness lists them."""
    holds = len({v for _, v in name_values}) <= 1
    return holds, lambda: "; ".join(f"{name}={value}" for name, value in name_values)


def cross_check(
    space: XTopSpace, only: Collection[str] | None = None
) -> tuple[CheckResult, ...]:
    """Evaluate both sides of every finite-scale structure theorem.

    Each check must hold on every valid space; a failure indicates a bug
    and its witness names the violating point or flag assignment.  The
    report reads every flag off the specialization order; the other sides
    come from the families, from pair scans and from meets in L.  The
    results follow :data:`CHECK_IDS`; ``only`` keeps the checks it names,
    and the sides the others need are not computed.
    """
    return _Sides(space).results(only)


def _report_and_checks(
    space: XTopSpace,
) -> tuple[SeparationReport, PrimeMeets, tuple[CheckResult, ...]]:
    """The report and prime meets :func:`cross_check` compares, with its
    results, all from one analysis of the space."""
    sides = _Sides(space)
    return sides.r, sides.pm, sides.results()


class _Sides:
    """Both sides of every check of :func:`cross_check` on one space.

    Every point set here is a mask over lattice indices, like the space's
    ``variety_masks``.  The order side, the report ``r`` and the masks
    ``min``, ``max``, ``ro`` and ``excl``, is read first, since nearly
    every check compares with it.  Each definitional side (the families,
    kernels, quasicomponents, lattice classes, radicals, pair scans, the
    T_F scan) is computed on first read, so a run of some checks computes
    only the sides they read.  The closed sets are the varieties and the
    open sets their complements in X.
    """

    def __init__(self, space: XTopSpace):
        self.space, self.L, self.masks = space, space.lattice, space.variety_masks
        self.a = a = _Analysis(space)
        self.r, self.pts, self.full = _report(a), a.pts, space.points
        self.min, self.max, self.ro, self.excl = (
            a.lift(m) for m in (a.min_mask, a.max_mask, a.ro_mask, a.excl_mask)
        )

    def results(self, only: Collection[str] | None = None) -> tuple[CheckResult, ...]:
        out = []
        for check_id, check in _CHECKS:
            if only is None or check_id in only:
                holds, witness = check(self)
                out.append(CheckResult(check_id, holds, None if holds else witness()))
        return tuple(out)

    def _same(self, left: int, right: int) -> Verdict:
        return left == right, lambda: self._diff(left, right)

    def _diff(self, left: int, right: int) -> str:
        """The lowest point in only one of the two masks."""
        diff = left ^ right
        return f"point {self.space.label(next(_bits(diff)))!r}" if diff else "sets equal"

    # -- sides -----------------------------------------------------------------

    @cached_property
    def pm(self) -> PrimeMeets:
        """The prime meets, with their irredundance by its definition: each
        point dropped in turn."""
        L = self.L

        def irredundant(Y: int) -> tuple[int, bool]:
            meet = L.meet_all(_bits(Y))
            return meet, all(L.meet_all(_bits(Y & ~(1 << m))) != meet for m in _bits(Y))

        (j, j_ok), (q, q_ok) = irredundant(self.max), irredundant(self.min)
        return PrimeMeets(j, q, j_ok, q_ok)

    @cached_property
    def families(self) -> SimpleNamespace:
        pts, closed = self.pts, set(self.masks)
        opens = {self.full & ~v for v in closed}
        return SimpleNamespace(
            closed=closed,
            opens=opens,
            closed_pts=_mask(x for x in pts if 1 << x in closed),
            isolated=_mask(x for x in pts if 1 << x in opens),
            kc=len(closed) == 1 << len(pts),
            discrete=len(opens) == 1 << len(pts),
        )

    @cached_property
    def kernel(self) -> dict[int, int]:
        return {x: _least_around(self.families.opens, 1 << x, self.full) for x in self.pts}

    @cached_property
    def kerneled(self) -> int:
        return _mask(x for x in self.pts if self.kernel[x] == 1 << x)

    @cached_property
    def quasi(self) -> dict[int, int]:
        clopens = self.families.closed & self.families.opens
        return {x: _least_around(clopens, 1 << x, self.full) for x in self.pts}

    @cached_property
    def totally_separated(self) -> bool:
        return all(Q.bit_count() == 1 for Q in self.quasi.values())

    @cached_property
    def classes(self) -> SimpleNamespace:
        """The lattice classes, from meets in L: ⋀A <= q iff q ∈ V(⋀A)."""
        L, pts, full, varieties = self.L, self.pts, self.full, self.masks

        def meet_avoids(A: int, q: int) -> bool:
            return not varieties[L.meet_all(_bits(A))] >> q & 1

        def barely(S: int) -> int:
            return _mask(m for m in _bits(S) if meet_avoids(S & ~(1 << m), m))

        # CSI: ⋀{a ∈ X : a ≰ q} ≰ q; Excl: ⋀(X \ {x}) = ⋀D(x), D(x) = X \ V(x)
        csi = _mask(
            q
            for q in pts
            if meet_avoids(_mask(a for a in pts if not varieties[a] >> q & 1), q)
        )
        excl = _mask(
            x
            for x in pts
            if L.meet_all(_bits(full & ~(1 << x))) == L.meet_all(_bits(full & ~varieties[x]))
        )
        return SimpleNamespace(
            csi=csi,
            amin=barely(self.min),
            bmax=barely(self.max),
            excl=excl,
            es=self.min & ~self.max & ~csi == 0,
            complete_max=has_complete_max_property(L, self.space.points),
        )

    @cached_property
    def pairs(self) -> SimpleNamespace:
        """T0, T1 = R0, T2 = R1 and quasi-Hausdorff by pair scans over the
        kernels from the open family; the report records them as lemmas."""
        kernel, varieties, pts = self.kernel, self.masks, self.pts

        def separated(x: int, y: int) -> bool:
            return not kernel[x] >> y & 1 and not kernel[y] >> x & 1

        def disjoint(x: int, y: int) -> bool:
            return kernel[x] & kernel[y] == 0

        pairs = list(combinations(pts, 2))
        distinguishable = [
            (x, y) for x, y in pairs if not (kernel[x] >> y & 1 and kernel[y] >> x & 1)
        ]
        return SimpleNamespace(
            t0=len(distinguishable) == len(pairs),
            t1=all(separated(x, y) for x, y in pairs),
            r0=all(separated(x, y) for x, y in distinguishable),
            t2=all(disjoint(x, y) for x, y in pairs),
            r1=all(disjoint(x, y) for x, y in distinguishable),
            anti_t2=len(pts) >= 2 and not any(disjoint(x, y) for x, y in pairs),
            quasi_hausdorff=all(
                disjoint(x, y)
                or any(varieties[z] >> x & 1 and varieties[z] >> y & 1 for z in pts)
                for x, y in pairs
            ),
        )

    @cached_property
    def radicals(self) -> int:
        return _radical_info(self.L, self.masks).radical_elements

    @cached_property
    def tf(self) -> bool:
        """T_F by its definition (|F| <= 2 suffices): for every x and every
        F = {y, f} ⊆ X \\ {x}, y = f allowed, {x} ⊢ F or F ⊢ {x}."""
        kernel, pts = self.kernel, self.pts
        return all(
            not kernel[x] & (1 << y | 1 << f) or not (kernel[y] | kernel[f]) >> x & 1
            for x in pts
            for y, f in combinations_with_replacement([y for y in pts if y != x], 2)
        )

    # -- checks: check_<id> tests the check <id>, with '_' for '-' ------------

    def check_t0_and_sober(self) -> Verdict:
        r, t0 = self.r, self.pairs.t0
        # sober iff distinct points have distinct closures (module docstring)
        closed, full = self.families.closed, self.full
        sober = len({_least_around(closed, 1 << x, full) for x in self.pts}) == len(self.pts)
        return r.t0 and t0 and r.sober and sober, lambda: (
            f"t0={r.t0}; t0 by pairs={t0}; sober={r.sober}; sober by closures={sober}"
        )

    def check_closed_points_are_maximal(self) -> Verdict:
        return self._same(self.families.closed_pts, self.max)

    def check_kerneled_points_are_minimal(self) -> Verdict:
        return self._same(self.kerneled, self.min)

    def check_ro_iso_min_nested(self) -> Verdict:
        ro, isolated, minima = self.ro, self.families.isolated, self.min
        return ro & ~isolated == isolated & ~minima == 0, lambda: self._diff(ro | isolated, minima)

    def check_t1_iff_r0_iff_dim0(self) -> Verdict:
        r, p = self.r, self.pairs
        return _chain(
            ("t1", r.t1),
            ("r0", r.r0),
            ("t1 by pairs", p.t1),
            ("r0 by pairs", p.r0),
            ("kdim==0", r.kdim == 0),
        )

    def check_t2_iff_r1_iff_dim0_quasihausdorff(self) -> Verdict:
        r, p = self.r, self.pairs
        return _chain(
            ("t2", r.t2),
            ("r1", r.r1),
            ("t2 by pairs", p.t2),
            ("r1 by pairs", p.r1),
            ("kdim==0 and quasi_hausdorff", r.kdim == 0 and p.quasi_hausdorff),
        )

    def check_t_quarter_iff_dim_le_1_iff_tf(self) -> Verdict:
        r = self.r
        return _chain(
            ("t_quarter", r.t_quarter),
            ("kdim<=1", r.kdim <= 1),
            ("tf", r.tf),
            ("tf by pairs", self.tf),
        )

    def check_t_half_decomposition(self) -> Verdict:
        r, c = self.r, self.classes
        return _chain(
            ("t_half", r.t_half),
            ("X == Max ∪ (Min ∩ CSI)", self.full == self.max | (self.min & c.csi)),
            ("t_quarter and es", r.t_quarter and c.es),
        )

    def check_t_threequarter_decomposition(self) -> Verdict:
        r, c, full, maxima = self.r, self.classes, self.full, self.max
        return _chain(
            ("t_threequarter", r.t_threequarter),
            ("X == Max ∪ RO", full == maxima | self.ro),
            ("X == Max ∪ (Min ∩ CSI ∩ Excl)", full == maxima | (self.min & c.csi & c.excl)),
        )

    def check_isolated_iff_min_csi(self) -> Verdict:
        return self._same(self.families.isolated, self.min & self.classes.csi)

    def check_regular_open_iff_isolated_excluded(self) -> Verdict:
        ro, excl, full = self.ro, self.classes.excl, self.full
        isolated, closed = self.families.isolated, self.families.closed
        boundary = _mask(
            x
            for x in self.pts
            if _least_around(closed, full & ~self.masks[x], full) == full & ~(1 << x)
        )
        w = self._diff
        return ro == isolated & excl == boundary and self.excl == excl, lambda: (
            f"{w(ro, isolated & excl)}; {w(ro, boundary)}; {w(self.excl, excl)}"
        )

    def check_discrete_characterizations(self) -> Verdict:
        full, r, c, t1 = self.full, self.r, self.classes, self.pairs.t1
        holds, witness = _chain(
            ("discrete", r.discrete),
            ("discrete by family size", self.families.discrete),
            ("X == AMin", full == c.amin),
            ("X == BMax", full == c.bmax),
            ("t1 and bmax", t1 and c.bmax == self.max),
            ("t1 and complete_max_property", t1 and c.complete_max),
        )
        if holds and r.discrete:
            return c.amin == self.min == full == self.max == c.bmax, lambda: (
                "AMin=Min=X=Max=BMax fails"
            )
        return holds, witness

    def check_finite_carrier_irreducibility(self) -> Verdict:
        r, c, L, varieties = self.r, self.classes, self.L, self.masks
        # SI over pairs of points; X need not be closed under meets
        si = all(
            not varieties[L.meet(a, b)] & ~(varieties[a] | varieties[b])
            for a, b in combinations(self.pts, 2)
        )
        return _chain(
            ("es", r.es),
            ("es by meets", c.es),
            ("csi covers X", c.csi == self.full),
            ("si covers X", si),
            ("bmax", r.bmax),
            ("BMax == Max", c.bmax == self.max),
            ("amin", r.amin),
            ("AMin == Min", c.amin == self.min),
            ("complete_max_property", r.complete_max_property),
            ("complete max property by meets", c.complete_max),
        )

    def check_es_collapse(self) -> Verdict:
        # the report's T¼, T½ and T_F all read Max ∪ Min; here T¼ comes from
        # the families and T_F from the pair scan
        return _chain(
            ("t_half", self.r.t_half),
            ("t_quarter", self.full == self.families.closed_pts | self.kerneled),
            ("tf by pairs", self.tf),
        )

    def check_anti_hausdorff_iff_irreducible(self) -> Verdict:
        anti_t2, r, n = self.pairs.anti_t2, self.r, self.a.n
        return anti_t2 == (r.irreducible and n >= 2), lambda: (
            f"anti_t2={anti_t2}; irreducible={r.irreducible}; |X|={n}"
        )

    def check_discrete_iff_t1_at_finite_scale(self) -> Verdict:
        return _chain(
            ("discrete", self.families.discrete),
            ("t1", self.pairs.t1),
            ("kdim==0", self.r.kdim == 0),
        )

    def check_kc_iff_discrete_at_finite_scale(self) -> Verdict:
        r, f = self.r, self.families
        return _chain(
            ("kc", r.t1half_kc),
            ("discrete", r.discrete),
            ("kc by family size", f.kc),
            ("discrete by family size", f.discrete),
        )

    def check_t2_iff_t1_quasihausdorff(self) -> Verdict:
        p = self.pairs
        return p.t2 == (p.t1 and p.quasi_hausdorff) and (not p.t1 or p.t2), lambda: (
            f"t1={p.t1}; t2={p.t2}; quasi_hausdorff={p.quasi_hausdorff}"
        )

    def check_zero_dimensional_collapse(self) -> Verdict:
        if not self.r.ind_zero_dim:
            return _chain()  # nothing to compare
        p = self.pairs
        return _chain(
            ("totally_separated", self.totally_separated),
            ("totally_disconnected", self.r.totally_disconnected),
            ("t1", p.t1),
            ("t0", p.t0),
            ("t2", p.t2),
        )

    def check_stone_characterizations(self) -> Verdict:
        r, p = self.r, self.pairs
        return _chain(
            ("stone", r.stone),
            ("spectral and ind_zero_dim", r.spectral and r.ind_zero_dim),
            ("spectral and totally_separated", r.spectral and self.totally_separated),
            ("spectral and t2", r.spectral and p.t2),
            ("spectral and kc", r.spectral and self.families.kc),
            ("spectral and t1", r.spectral and p.t1),
            ("spectral and kdim==0", r.spectral and r.kdim == 0),
        )

    def check_union_criterion_iff_irreducibility(self) -> Verdict:
        by_unions = _union_witness(self.masks) is None
        by_irreducibility = _irreducible(self.L, self.masks, self.radicals)
        return by_unions == by_irreducibility, lambda: "the two carrier criteria disagree"

    def check_maxima_of_radicals(self) -> Verdict:
        proper = self.radicals & ~(1 << self.L.top)
        radical_maxima, maxima = self.L.maximals_of(proper), self.max
        return radical_maxima == maxima, lambda: self._diff(radical_maxima & self.full, maxima)

    def check_jacobson_irredundant_iff_bmax_iff_max_discrete(self) -> Verdict:
        return _chain(
            ("bmax", self.classes.bmax == self.max),
            ("jacobson irredundant", self.pm.jacobson_irredundant),
            ("Max(X) discrete", _trace_is_discrete(self.masks, self.max)),
        )

    def check_min_meet_irredundant_iff_amin_iff_min_discrete(self) -> Verdict:
        return _chain(
            ("amin", self.classes.amin == self.min),
            ("min meet irredundant", self.pm.min_meet_irredundant),
            ("Min(X) discrete", _trace_is_discrete(self.masks, self.min)),
        )

    def check_total_separation_implications(self) -> Verdict:
        separated, disconnected = self.totally_separated, self.r.totally_disconnected
        t1, t2 = self.pairs.t1, self.pairs.t2
        return (not separated or t2) and (not disconnected or t1), lambda: (
            f"totally_separated={separated}; "
            f"totally_disconnected={disconnected}; t1={t1}; t2={t2}"
        )

    def check_components_refine_quasicomponents(self) -> Verdict:
        quasi = self.quasi
        unrefined = [
            x for C in map(self.a.lift, self.a.components) for x in _bits(C) if C & ~quasi[x]
        ]
        return not unrefined, lambda: f"point {self.space.label(unrefined[0])!r}"

    def check_tree_forests_are_t_threequarter(self) -> Verdict:
        r = self.r
        if not (self.a.n and is_forest_of_trees(self.a.spec_poset)):
            return _chain()  # nothing to compare
        return r.t_threequarter and not r.t1, lambda: (
            f"t_threequarter={r.t_threequarter}; t1={r.t1}"
        )

    def check_dual_tree_blocks_t_threequarter(self) -> Verdict:
        r, a = self.r, self.a
        if not r.t_threequarter:
            return _chain()  # nothing to compare
        return r.kdim <= 1 and not (a.n and has_dual_tree_component(a.spec_poset)), lambda: (
            f"kdim={r.kdim}; dual tree component present"
        )


# each check's id and method, in the order cross_check reports them
_CHECKS = tuple(
    (name[len("check_") :].replace("_", "-"), method)
    for name, method in vars(_Sides).items()
    if name.startswith("check_")
)
CHECK_IDS = tuple(check_id for check_id, _ in _CHECKS)
