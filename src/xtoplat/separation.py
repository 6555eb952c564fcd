"""Point classification and separation axioms for finite spaces.

Every axiom flag is computed from its definition, never via the structure
theorems that relate them.  The theorems instead become executable checks
in :func:`cross_check`, which evaluates both sides of each equivalence
independently and reports disagreements with a witness.

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
* q is completely strongly irreducible iff ⋀{a ∈ X : a ≰ q} ≰ q: any A
  with no member below q and ⋀A <= q is a subset of that set, whose meet
  is then <= ⋀A <= q too.
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
  in one of them.  So X is irreducible iff some closure({x}) is X, and
  the space is sober (one generic point per irreducible closed set) iff
  the closures of distinct points differ.
* Every space is quasi-Hausdorff: if two points i, j have no disjoint
  open neighbourhoods, ↓i ∩ ↓j holds some k, and then i and j both lie in
  ↑k = closure({k}).  The report records the field as true;
  :func:`cross_check` still runs the pair scan.
* The maximal proper radicals are Max(X), so the complete-max property is
  the BMax condition over all of Max(X): a proper radical r = ⋀V(r) has
  V(r) ≠ ∅, so r lies below a point, and every point is radical.
* BMax = Max and AMin = Min, so ``bmax``, ``amin`` and
  ``complete_max_property`` hold on every X-top space: each point q is
  strongly irreducible over the radical elements, which are closed under
  meets, so ⋀(Max(X) \\ {q}) <= q would put some other maximal point
  below q, and dually for Min(X).  Likewise Max(X) and Min(X) are
  discrete subspaces: for m in either set Y, V(m) ∩ Y = {m} is closed,
  and a finite T1 space is discrete.  The fields are kept; they carry no
  information at finite scale.

Compactness is degenerate at finite scale (every subset is compact), so
the KC flag reduces to "every subset is closed" and is computed as
``len(closed_family) == 2^|X|``, and the discrete flag as
``len(open_family) == 2^|X|``: reads of the family sizes, not scans.
"Spectral" is recorded as T0: every finite T0 space is spectral, and the
projective-limit characterizations are out of scope.

A :class:`~xtoplat.poset.FinitePoset` P is accepted wherever a space is
classified, and read as the space ``from_poset(P)``: X is {↑x : x ∈ P}
inside the lattice of up-sets under reverse inclusion, so the order of X
is the order of P.  Neither that lattice nor its families are built; the
few reads that need them are lemmas of the order:

* ⋀A = ∪{↑a : a ∈ A} (meet is union), and ↑q ⊆ ⋀A iff q ∈ ↑a for some
  a ∈ A, so ⋀A <= q iff A ∩ ↓q ≠ ∅.
* Hence SI = CSI = X (a ∧ b <= q puts a or b in ↓q), AMin = Min (↓m = {m}
  for m minimal) and BMax = Max (no maximal point lies below another).
* x is excluded iff ∪{↑y : y ≠ x} = ∪{↑y : y ∉ ↑x}: the two meets
  ⋀(X \\ {x}) and ⋀D(x) are those unions, since D(x) = X \\ V(x) and
  V(x) = ↑x.
* Ker(x) = ↓x is open without a check: the closed sets are all the
  up-sets, so the open sets are all the down-sets.
* KC and discrete both hold iff every ↑x is a singleton: the closed sets
  are the up-sets, and every subset is one iff the order is an antichain.

Its points are listed in (|↑x|, ↑x) order, the index order of the up-set
lattice, so the report and the point rows match ``from_poset(P)``'s.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

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
    """Per-point flags, each computed from its primary definition."""

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

    Point k is ``pts[k]``: a lattice index for a space, an element of P for
    a poset source, whose ``space`` is None.  The reads that need the
    lattice or the families (``_meet_avoids``, ``si_mask``, ``excl_mask``,
    the Ker(x)-is-open check, ``kc`` and ``discrete``) take the poset
    lemmas of the module docstring there instead.
    """

    def __init__(self, source: XTopSpace | FinitePoset):
        if isinstance(source, FinitePoset):
            if source.n == 0:
                raise EmptyPosetError("from_poset needs at least one element")
            self.space = None
            self.pts, P = _in_upset_order(source)
        else:
            space = self.space = source
            self.pts = space.sorted_points()
            # the poset lists the points in sorted order too, so its rows are masks
            P = space.specialization_poset()
        self.spec_poset = P
        self.n = P.n
        self.full = (1 << self.n) - 1
        self.closure1 = [P.up_mask(k) for k in range(self.n)]
        self.kernel1 = list(P.down_rows())
        self.min_mask = sum(1 << k for k in P.minimals())
        self.max_mask = sum(1 << k for k in P.maximals())
        if self.space is None:
            # ↓x is a down-set, so open; every subset is closed (and open)
            # iff every ↑x is a singleton
            self.kc = self.discrete = self.max_mask == self.full
            return
        opens = set(space.open_family)
        for k, kernel in enumerate(self.kernel1):
            if self.unmask(kernel) not in opens:
                raise XtoplatError(
                    f"Ker({P.labels[k]!r}) is not open: the open family does not "
                    "match the specialization order"
                )
        self.kc = len(space.closed_family) == 1 << self.n
        self.discrete = len(opens) == 1 << self.n

    def _where(self, holds) -> int:
        """The mask of the points k with holds(k)."""
        return sum(1 << k for k in range(self.n) if holds(k))

    def unmask(self, mask: int) -> frozenset[int]:
        return frozenset(self.pts[k] for k in _mask_to_set(mask))

    def labels(self, mask: int) -> tuple[str, ...]:
        return tuple(self.spec_poset.labels[k] for k in _bits(mask))

    # -- distinguished point sets -------------------------------------------

    def special(self) -> SpecialSets:
        u = self.unmask
        minima, maxima = u(self.min_mask), u(self.max_mask)
        return SpecialSets(
            min=minima,
            max=maxima,
            si=u(self.si_mask),
            csi=u(self.csi_mask),
            amin=u(self.amin_mask),
            bmax=u(self.bmax_mask),
            iso=minima,
            ro=u(self.ro_mask),
            cl=maxima,
            k=minima,
            excl=u(self.excl_mask),
        )

    @cached_property
    def ro_mask(self) -> int:
        """Regular open points: interior(closure({x})) = {x}."""
        return self._where(lambda k: self._interior(self.closure1[k]) == 1 << k)

    def _interior(self, S: int) -> int:
        """{y : ↓y ⊆ S}, the union of the open sets contained in S."""
        return self._where(lambda y: self.kernel1[y] & ~S == 0)

    @cached_property
    def excl_mask(self) -> int:
        if self.space is None:
            return self._where(self._excluded_in_order)
        return self._where(lambda k: self.space.excluded_meet(self.pts[k])[2])

    def _excluded_in_order(self, k: int) -> bool:
        """∪{↑y : y ≠ x} = ∪{↑y : y ∉ ↑x} for the point x at k."""
        up_k = self.closure1[k]
        others = outside = 0
        for y, up in enumerate(self.closure1):
            if y != k:
                others |= up
            if not up_k >> y & 1:
                outside |= up
        return others == outside

    @cached_property
    def si_mask(self) -> int:
        if self.space is None:
            return self.full
        return self._where(self._strongly_irreducible)

    def _strongly_irreducible(self, k: int) -> bool:
        L = self.space.lattice
        q = self.pts[k]
        xs = self.pts
        for i, a in enumerate(xs):
            if L.leq(a, q):
                continue
            for b in xs[i + 1 :]:
                if not L.leq(b, q) and L.leq(L.meet(a, b), q):
                    return False
        return True

    @cached_property
    def csi_mask(self) -> int:
        """Completely strongly irreducible points: ⋀{a ∈ X : a ≰ q} ≰ q."""
        return self._where(lambda k: self._meet_avoids(self.full & ~self.kernel1[k], k))

    @cached_property
    def amin_mask(self) -> int:
        return self._barely(self.min_mask)

    @cached_property
    def bmax_mask(self) -> int:
        return self._barely(self.max_mask)

    def _barely(self, extremes: int) -> int:
        """The members q of ``extremes`` with ⋀(extremes \\ {q}) ≰ q."""
        return self._where(
            lambda k: extremes >> k & 1 and self._meet_avoids(extremes & ~(1 << k), k)
        )

    def _meet_avoids(self, mask: int, k: int) -> bool:
        """The meet of the points in ``mask`` is not below point k."""
        if self.space is None:
            return mask & self.kernel1[k] == 0
        L = self.space.lattice
        return not L.leq(L.meet_all(self.unmask(mask)), self.pts[k])

    # -- pairwise separation ---------------------------------------------------

    def distinguishable(self, a: int, b: int) -> bool:
        return not (self.kernel1[a] >> b & 1 and self.kernel1[b] >> a & 1)

    def separated(self, a: int, b: int) -> bool:
        return not self.kernel1[a] >> b & 1 and not self.kernel1[b] >> a & 1

    def disjoint_open_separated(self, a: int, b: int) -> bool:
        return self.kernel1[a] & self.kernel1[b] == 0

    def anti_t2(self) -> bool:
        return self.n >= 2 and not any(
            self.disjoint_open_separated(a, b)
            for a in range(self.n)
            for b in range(a + 1, self.n)
        )

    def tf(self) -> bool:
        """For every x and every F = {y, f} ⊆ X\\{x}, y = f allowed: {x} ⊢ F or F ⊢ {x}."""
        for k in range(self.n):
            others = [i for i in range(self.n) if i != k]
            for j, y in enumerate(others):
                for f in others[j:]:
                    x_shields_F = not self.kernel1[k] & (1 << y | 1 << f)
                    F_shields_x = not (self.kernel1[y] | self.kernel1[f]) >> k & 1
                    if not (x_shields_F or F_shields_x):
                        return False
        return True

    # -- connectedness ---------------------------------------------------------

    def components(self) -> list[int]:
        """The components, which are the quasicomponents: the comparability
        components of the order, as masks in order of their least point."""
        parts = self.spec_poset.order_components()
        return [sum(1 << k for k in part) for part in parts]

    # -- global flags ------------------------------------------------------------

    def irreducible(self) -> bool:
        """X is irreducible iff X = closure({x}) for some point x."""
        return self.full in self.closure1

    def sober(self) -> bool:
        """The irreducible closed sets are the closure({x}), so sober iff
        no two points share a closure."""
        return len(set(self.closure1)) == self.n

    def kdim(self) -> int:
        if self.n == 0:
            return 0
        return self.spec_poset.krull_dim()

    def prime_meets(self) -> PrimeMeets:
        L = self.space.lattice
        maxima = self.unmask(self.max_mask)
        minima = self.unmask(self.min_mask)
        j = L.meet_all(maxima)
        q = L.meet_all(minima)
        j_irr = all(L.meet_all(maxima - {m}) != j for m in maxima)
        q_irr = all(L.meet_all(minima - {m}) != q for m in minima)
        return PrimeMeets(j, q, j_irr, q_irr)


def _in_upset_order(P: FinitePoset) -> tuple[tuple[int, ...], FinitePoset]:
    """P's elements in (|↑x|, ↑x) order, and P relabelled in that order.

    That is the index order of the principal up-sets in
    ``upset_lattice(P)``, so position k here is point k of ``from_poset(P)``.
    """
    order = tuple(
        sorted(range(P.n), key=lambda x: (P.up_mask(x).bit_count(), P.up_mask(x)))
    )
    position = [0] * P.n
    for k, x in enumerate(order):
        position[x] = k
    rows = [sum(1 << position[y] for y in _bits(P.up_mask(x))) for x in order]
    return order, FinitePoset([P.labels[x] for x in order], rows)


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
        "in_SI": a.si_mask,
        "in_CSI": a.csi_mask,
        "is_abs_min": a.amin_mask,
        "is_barely_max": a.bmax_mask,
    }
    return tuple(
        PointClassification(
            label, **{name: mask >> k & 1 == 1 for name, mask in masks.items()}
        )
        for k, label in enumerate(a.spec_poset.labels)
    )


def components(space: XTopSpace) -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
    """(connected components, quasicomponents) as partitions of the point set.

    On a finite space the two partitions coincide (see the module docstring).
    """
    a = _Analysis(space)
    comps = tuple(a.unmask(m) for m in a.components())
    return comps, comps


def jacobson_and_prime_meets(space: XTopSpace) -> PrimeMeets:
    """⋀Max(X) and ⋀Min(X) with single-drop irredundance flags."""
    return _Analysis(space).prime_meets()


def separation_report(source: XTopSpace | FinitePoset) -> SeparationReport:
    """Evaluate every axiom from its definition (see the module docstring)."""
    return _report(_Analysis(source))


def report_and_points(
    source: XTopSpace | FinitePoset,
) -> tuple[SeparationReport, tuple[PointClassification, ...]]:
    """:func:`separation_report` and :func:`classify_points` from one analysis."""
    a = _Analysis(source)
    return _report(a), _points(a)


def _report(a: _Analysis) -> SeparationReport:
    n = a.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    t0 = all(a.distinguishable(i, j) for i, j in pairs)
    r0 = all(
        a.separated(i, j) for i, j in pairs if a.distinguishable(i, j)
    )
    t1 = all(a.separated(i, j) for i, j in pairs)
    r1 = all(
        a.disjoint_open_separated(i, j)
        for i, j in pairs
        if a.distinguishable(i, j)
    )
    t2 = all(a.disjoint_open_separated(i, j) for i, j in pairs)
    # closed points are Max; kerneled and isolated points are both Min
    minima, maxima = a.min_mask, a.max_mask
    comp = a.components()
    singletons = len(comp) == n
    parts = tuple(a.labels(m) for m in comp)
    return SeparationReport(
        kdim=a.kdim(),
        t0=t0,
        t_quarter=maxima | minima == a.full,
        t_half=maxima | minima == a.full,
        t_threequarter=maxima | a.ro_mask == a.full,
        t1=t1,
        t2=t2,
        t1half_kc=a.kc,
        r0=r0,
        r1=r1,
        tf=a.tf(),
        es=(minima & ~maxima) & ~a.csi_mask == 0,
        discrete=a.discrete,
        irreducible=a.irreducible(),
        connected=len(comp) <= 1,
        sober=a.sober(),
        spectral=t0,
        quasi_hausdorff=True,
        totally_separated=singletons,
        totally_disconnected=singletons,
        ind_zero_dim=singletons,
        stone=t0 and singletons,
        amin=a.amin_mask == minima,
        bmax=a.bmax_mask == maxima,
        pamin=a.amin_mask == a.full,
        pbmax=a.bmax_mask == a.full,
        complete_max_property=a.bmax_mask == maxima,
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
    and its witness names the violating point or flag assignment.
    """
    a = _Analysis(space)
    s = a.special()
    r = _report(a)
    pm = a.prime_meets()
    L = space.lattice
    X = space.points
    # the definitional side of the point classes the report reads off the
    # order, from the families as masks over lattice indices
    full = _mask(X)
    closed = {_mask(C) for C in space.closed_family}
    opens = {_mask(U) for U in space.open_family}
    clopens = closed & opens
    closed_pts = frozenset(x for x in X if 1 << x in closed)
    isolated = frozenset(x for x in X if 1 << x in opens)
    kerneled = frozenset(x for x in X if _least_around(opens, 1 << x, full) == 1 << x)
    quasi = {x: frozenset(_bits(_least_around(clopens, 1 << x, full))) for x in X}
    # the varieties and radicals of (L, X), shared by the carrier checks
    varieties = L.variety_masks(X)
    rad = _radical_info(L, varieties)
    totally_separated = all(len(Q) == 1 for Q in quasi.values())
    # the report records quasi-Hausdorff as a lemma; this is the pair scan
    quasi_hausdorff = all(
        a.disjoint_open_separated(i, j)
        or any(C >> i & 1 and C >> j & 1 for C in a.closure1)
        for i in range(a.n)
        for j in range(i + 1, a.n)
    )
    checks: list[CheckResult] = []

    def add(check_id: str, holds: bool, witness: str | None = None):
        checks.append(CheckResult(check_id, holds, None if holds else witness))

    add("t0-and-sober", r.t0 and r.sober, f"t0={r.t0}; sober={r.sober}")
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

    ok, w = _bool_chain([("t1", r.t1), ("r0", r.r0), ("kdim==0", r.kdim == 0)])
    add("t1-iff-r0-iff-dim0", ok, w)
    ok, w = _bool_chain(
        [
            ("t2", r.t2),
            ("r1", r.r1),
            ("kdim==0 and quasi_hausdorff", r.kdim == 0 and quasi_hausdorff),
        ]
    )
    add("t2-iff-r1-iff-dim0-quasihausdorff", ok, w)
    ok, w = _bool_chain(
        [("t_quarter", r.t_quarter), ("kdim<=1", r.kdim <= 1), ("tf", r.tf)]
    )
    add("t-quarter-iff-dim-le-1-iff-tf", ok, w)

    decomposition_half = X == s.max | (s.min & s.csi)
    ok, w = _bool_chain(
        [
            ("t_half", r.t_half),
            ("X == Max ∪ (Min ∩ CSI)", decomposition_half),
            ("t_quarter and es", r.t_quarter and r.es),
        ]
    )
    add("t-half-decomposition", ok, w)

    decomposition_tq = X == s.max | (s.min & s.csi & s.excl)
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
        isolated == s.min & s.csi,
        _eq_witness(a, isolated, s.min & s.csi),
    )

    boundary = frozenset(
        x
        for x in X
        if _least_around(closed, full & ~varieties[x], full) == full & ~(1 << x)
    )
    add(
        "regular-open-iff-isolated-excluded",
        s.ro == isolated & s.excl == boundary,
        _eq_witness(a, s.ro, isolated & s.excl) + "; " + _eq_witness(a, s.ro, boundary),
    )

    names = [
        ("discrete", r.discrete),
        ("X == AMin", X == s.amin),
        ("X == BMax", X == s.bmax),
        ("t1 and bmax", r.t1 and r.bmax),
        (
            "t1 and complete_max_property",
            r.t1 and has_complete_max_property(L, EmbeddedSubset(L, X)),
        ),
    ]
    ok, w = _bool_chain(names)
    if ok and r.discrete:
        ok = s.amin == s.min == X == s.max == s.bmax
        w = "AMin=Min=X=Max=BMax fails"
    add("discrete-characterizations", ok, w)

    ok, w = _bool_chain(
        [
            ("es", r.es),
            ("csi covers X", s.csi == X),
            ("si covers X", s.si == X),
            ("bmax", r.bmax),
            ("amin", r.amin),
        ]
    )
    add("finite-carrier-irreducibility", ok, w)
    # the report's T¼ and T½ both read Max ∪ Min; here T¼ comes from the families
    ok, w = _bool_chain(
        [("t_half", r.t_half), ("t_quarter", X == closed_pts | kerneled), ("tf", r.tf)]
    )
    add("es-collapse", ok, w)

    add(
        "anti-hausdorff-iff-irreducible",
        a.anti_t2() == (r.irreducible and a.n >= 2),
        f"anti_t2={a.anti_t2()}; irreducible={r.irreducible}; |X|={a.n}",
    )
    ok, w = _bool_chain(
        [("discrete", r.discrete), ("t1", r.t1), ("kdim==0", r.kdim == 0)]
    )
    add("discrete-iff-t1-at-finite-scale", ok, w)
    ok, w = _bool_chain([("kc", r.t1half_kc), ("discrete", r.discrete)])
    add("kc-iff-discrete-at-finite-scale", ok, w)

    ok = r.t2 == (r.t1 and quasi_hausdorff) and (not r.t1 or r.t2)
    add(
        "t2-iff-t1-quasihausdorff",
        ok,
        f"t1={r.t1}; t2={r.t2}; quasi_hausdorff={quasi_hausdorff}",
    )

    if r.ind_zero_dim:
        ok, w = _bool_chain(
            [
                ("totally_separated", totally_separated),
                ("totally_disconnected", r.totally_disconnected),
                ("t1", r.t1),
                ("t0", r.t0),
                ("t2", r.t2),
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
            ("spectral and t2", r.spectral and r.t2),
            ("spectral and kc", r.spectral and r.t1half_kc),
            ("spectral and t1", r.spectral and r.t1),
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
            ("bmax", r.bmax),
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
            ("amin", r.amin),
            ("min meet irredundant", pm.min_meet_irredundant),
            (
                "Min(X) discrete",
                _trace_is_discrete(varieties, s.min),
            ),
        ]
    )
    add("min-meet-irredundant-iff-amin-iff-min-discrete", ok, w)

    ok = (not totally_separated or r.t2) and (
        not r.totally_disconnected or r.t1
    )
    add(
        "total-separation-implications",
        ok,
        f"totally_separated={totally_separated}; "
        f"totally_disconnected={r.totally_disconnected}; t1={r.t1}; t2={r.t2}",
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
    if a.n and is_forest_of_trees(P, min_base=2):
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

    return tuple(checks)
