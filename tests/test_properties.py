"""Property tests over randomly generated posets and carriers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from xtoplat import (
    FiniteLattice,
    cross_check,
    from_poset,
    is_xtop_by_irreducibility,
    is_xtop_by_unions,
    jacobson_and_prime_meets,
    separation_report,
    verify_bni,
)
from xtoplat.errors import CycleError, NotALatticeError
from xtoplat.formats import poset_from_json, poset_to_json
from xtoplat.poset import FinitePoset, _from_pairs
from xtoplat.semiring import (
    _additive_generators,
    _divisor_masks,
    _generated_axioms_hold,
    _high_powers,
    bni,
    semiring_from_tables,
    spec_space,
    spectrum,
)

from .oracles import (
    axiom_outcome,
    axiom_violation_by_scan,
    fixpoint_from_pairs,
    lattice_by_search,
    lattice_outcome,
    leq_extremes,
    mask,
    meet_irredundant,
    mutated_tables,
    pairwise_maximal_ideals,
    permuted,
    pi_regular_by_powers,
    primes_by_ideal_scan,
    product_semiring,
    restrict,
    saturations_by_orbits,
    spectrum_reads_by_scan,
)


@st.composite
def posets(draw, max_size=6):
    """A random poset: closure of random upward (i -> j, i < j) pairs."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                up[i] |= 1 << j
    for i in range(n - 1, -1, -1):  # transitive closure, highest first
        row = up[i]
        j = i + 1
        while j < n:
            if row >> j & 1:
                row |= up[j]
            j += 1
        up[i] = row
    return FinitePoset([f"e{i}" for i in range(n)], up)


@st.composite
def semirings(draw):
    """A product B(n, i) × B(m, j) of two small grid semirings, or the
    up-sets of a random poset under (union, intersection)."""
    if draw(st.booleans()):
        factors = []
        for _ in range(2):
            n = draw(st.integers(min_value=2, max_value=5))
            factors.append(bni(n, draw(st.integers(min_value=0, max_value=n - 1))))
        return product_semiring(*factors)
    P = draw(posets(max_size=4))
    masks = P.upset_masks()
    index = {m: k for k, m in enumerate(masks)}
    return semiring_from_tables(
        [f"u{m}" for m in masks],
        [[index[a | b] for b in masks] for a in masks],
        [[index[a & b] for b in masks] for a in masks],
        index[0],
        index[(1 << P.n) - 1],
    )


@given(semirings())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_maximal_ideals_match_the_pairwise_scan(R):
    assert spectrum(R).max == tuple(map(mask, pairwise_maximal_ideals(R)))


@given(semirings())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_primes_from_saturated_sets_match_the_ideal_scan(R):
    # with the reads off the prime order and the lemma reads
    report = spectrum(R)
    assert report.spec == tuple(map(mask, primes_by_ideal_scan(R)))
    oracle = spectrum_reads_by_scan(R)
    assert {name: getattr(report, name) for name in oracle} == oracle
    space = spec_space(R)
    minima, maxima = leq_extremes(space)
    pm = jacobson_and_prime_meets(space)
    assert (pm.jacobson_irredundant, pm.min_meet_irredundant) == (
        meet_irredundant(space, maxima),
        meet_irredundant(space, minima),
    )


@given(semirings())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_saturation_by_squaring_matches_the_orbit_scan(R):
    # the power lemma of semiring._primes
    squared = tuple(_divisor_masks(R, _high_powers(R)))
    assert squared == saturations_by_orbits(R)


@given(semirings())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pi_regular_matches_the_power_scan(R):
    assert spectrum(R).is_pi_regular == pi_regular_by_powers(R) is True


def test_products_have_more_than_one_additive_generator():
    R = product_semiring(bni(2, 1), bni(3, 0))
    assert _additive_generators(R.add, R.zero) == [R.index("0.1"), R.index("1.0")]
    assert axiom_violation_by_scan(R.labels, R.add, R.mul, R.zero, R.one) is None


@given(semirings(), st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_generator_check_meets_the_scan(R, data):
    # R passed the generator check; so must it the scan, and a symmetric
    # change of one add or mul entry must meet the same verdict in both
    assert axiom_violation_by_scan(R.labels, R.add, R.mul, R.zero, R.one) is None
    assert _generated_axioms_hold(R.add, R.mul, _additive_generators(R.add, R.zero))
    key = data.draw(st.sampled_from(["add", "mul"]))
    element = st.integers(min_value=0, max_value=R.n - 1)
    args = mutated_tables(R, key, data.draw(element), data.draw(element), data.draw(element))
    assert axiom_outcome(*args) == axiom_violation_by_scan(*args)


@given(posets())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_upsets_form_a_ring_of_sets(P):
    family = set(P.upset_masks())
    as_list = sorted(family)
    for A in as_list:
        for B in as_list:
            assert A | B in family and A & B in family


@given(posets())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_height_is_monotone(P):
    for x in range(P.n):
        for y in range(P.n):
            if P.leq(x, y):
                assert P.heights()[x] <= P.heights()[y]


@given(posets())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_from_poset_passes_every_cross_check(P):
    for result in cross_check(from_poset(P)):
        assert result.holds, f"{result.check_id}: {result.witness}"


@given(posets())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_specialization_order_round_trips(P):
    space = from_poset(P)
    Q = space.specialization_poset()
    assert Q.n == P.n
    # the embedding preserves and reflects the order, so heights agree
    assert sorted(Q.heights()) == sorted(P.heights())


@st.composite
def shuffled_bounded_posets(draw):
    """A random poset, with a bottom and a top adjoined or not, its
    elements listed in a random order; about two in five are lattices."""
    P = draw(posets(max_size=6))
    n = P.n + 2
    up = [(1 << n) - 1] + [row << 1 | 1 << n - 1 for row in P._up] + [1 << n - 1]
    Q = FinitePoset(["bot", *P.labels, "top"], up)
    keep = [0] * draw(st.booleans()) + list(range(1, n - 1)) + [n - 1] * draw(st.booleans())
    return permuted(restrict(Q, keep), draw(st.permutations(range(len(keep)))))


@given(shuffled_bounded_posets())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_row_lookup_matches_the_search(P):
    assert lattice_outcome(FiniteLattice, P) == lattice_outcome(lattice_by_search, P)


@given(shuffled_bounded_posets(), st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_carrier_criteria_agree(P, seed):
    try:
        L = FiniteLattice(P)
    except NotALatticeError:
        return
    candidates = [i for i in range(L.n) if i != L.top]
    X = mask(c for k, c in enumerate(candidates) if seed >> k & 1)
    assert is_xtop_by_unions(L, X) == is_xtop_by_irreducibility(L, X)


@given(posets())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_poset_json_round_trip(P):
    assert poset_from_json(poset_to_json(P)) == P


@given(st.integers(min_value=2, max_value=14), st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_bni_spectrum_matches_closed_form(n, data):
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert verify_bni(n, i).match


@given(posets(max_size=5))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_quarter_ladder(P):
    r = separation_report(from_poset(P))
    ladder = [r.t1, r.t_threequarter, r.t_half, r.t_quarter, r.t0]
    for stronger, weaker in zip(ladder, ladder[1:]):
        assert not stronger or weaker


@st.composite
def pair_lists(draw, max_size=7):
    """Labels and index pairs on them; about half the lists close a cycle
    through two or more distinct elements."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    index = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    if n >= 2 and draw(st.booleans()):
        cycle = draw(st.lists(index, min_size=2, max_size=n, unique=True))
        pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
    return [f"e{i}" for i in range(n)], pairs


@given(pair_lists())
@settings(max_examples=300, deadline=None)
def test_one_pass_closure_matches_the_fixpoint(case):
    labels, pairs = case

    def outcome(build):
        try:
            return build(labels, pairs)
        except CycleError as err:
            return str(err)

    assert outcome(_from_pairs) == outcome(fixpoint_from_pairs)
