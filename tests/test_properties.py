"""Property tests over randomly generated posets and carriers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from xtoplat import (
    cross_check,
    from_poset,
    is_xtop_by_irreducibility,
    is_xtop_by_unions,
    lattice_from_poset,
    separation_report,
    verify_bni,
)
from xtoplat.errors import NotALatticeError
from xtoplat.formats import poset_from_json, poset_to_json
from xtoplat.poset import FinitePoset


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


@given(posets())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_upsets_form_a_ring_of_sets(P):
    family = set(P.upsets())
    as_list = sorted(family, key=sorted)
    for A in as_list:
        for B in as_list:
            assert A | B in family and A & B in family


@given(posets())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_height_is_monotone(P):
    for x in range(P.n):
        for y in range(P.n):
            if P.leq(x, y):
                assert P.height(x) <= P.height(y)


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


@given(posets(max_size=5), st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_carrier_criteria_agree(P, seed):
    try:
        L = lattice_from_poset(P)
    except NotALatticeError:
        return
    candidates = [i for i in range(L.n) if i != L.top]
    X = frozenset(c for k, c in enumerate(candidates) if seed >> k & 1)
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
