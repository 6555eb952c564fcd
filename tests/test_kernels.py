"""The lattice and space kernels that skip the per-bit walks, each against
the plain form it replaces.

A kernel here reads a table, a running AND or a C-level pass where the
plain form walks a mask bit by bit: the variety masks of ``from_poset``,
the up-sets of the up-set lattice, the meets of ``_meet_all`` and its
batched forms, ``maximals_of`` and the irreducibility test.  Each is
compared with its plain form on masks that take every route: below 256
(a table entry), wider with at most 8 members, and wider and denser.
"""

import random
from functools import reduce

from xtoplat import chain, forest, from_poset, tree, upset_lattice
from xtoplat.enumeration import forest_specs
from xtoplat.lattice import _BYTE_BITS, _elements, _upsets
from xtoplat.poset import _bits
from xtoplat.topology import _irreducible, _union_witness, radical_info

from .oracles import mask, pair_irreducible, subsets

# posets whose up-set lattices run past 256 elements or whose points take
# more than one byte: 729, 513, 729, 17, 21 and 100 up-sets, on 12, 10,
# 12, 16, 20 and 18 points
WIDE = [
    forest([("C", 2)] * 6),
    forest([("T", 9)]),
    forest([("V", 3)] * 3),
    chain(16),
    chain(20),
    forest([("C", 9), ("C", 9)]),
]


def sample_masks(n: int, rng: random.Random, sizes=(1, 2, 5, 8, 9, 20, 60)) -> list[int]:
    """Every mask below 256 that names elements of an n-element lattice,
    and five random masks of each size in ``sizes`` that fits, spread
    over all n elements."""
    wide = [
        sum(1 << b for b in rng.sample(range(n), k)) for k in sizes if k <= n for _ in range(5)
    ]
    return [*range(min(256, 1 << n)), *wide]


def route(S: int) -> str:
    return "table" if S < 256 else "peel" if S.bit_count() <= 8 else "compress"


def test_elements_read_the_bits_in_index_order():
    rng = random.Random(35)
    assert [list(bits) for bits in _BYTE_BITS] == [list(_bits(m)) for m in range(256)]
    masks = [*range(600), *(rng.getrandbits(k) for k in (9, 40, 200, 900) for _ in range(50))]
    for S in masks:
        assert list(_elements(S)) == list(_bits(S)), S


def test_from_poset_masks_match_the_per_bit_sum(posets_upto_6):
    # the byte tables against the OR of one point mask per element of
    # each up-set, and against the lattice's own V(a) over the points
    shapes = [forest(spec) for spec in forest_specs(8)]
    assert len(shapes) == 183
    for P in [*posets_upto_6, *shapes, *WIDE]:
        L, embedding = upset_lattice(P)
        point = [1 << embedding[x] for x in range(P.n)]
        per_bit = tuple(sum(point[x] for x in _bits(U)) for U in L.masks)
        assert from_poset(P).variety_masks == per_bit, P
        assert per_bit == L.variety_masks(sum(point)), P


def test_upsets_are_the_upset_masks_each_once(posets_upto_6):
    for P in [*posets_upto_6, *WIDE]:
        found = _upsets(P)
        assert len(found) == len(set(found)), P
        assert set(found) == set(P.upset_masks()), P


def test_meet_all_matches_a_fold_of_meet():
    rng = random.Random(36)
    routes = set()
    for P in [tree(3), *WIDE]:
        L = upset_lattice(P)[0]
        for S in sample_masks(L.n, rng, sizes=(1, 2, 5, 8, 9, 20, 60, L.n)):
            assert L._meet_all(S) == reduce(L.meet, _bits(S), L.top), (P, S)
            routes.add(route(S))
    assert routes == {"table", "peel", "compress"}


def test_meets_of_match_one_meet_per_mask():
    # on the varieties of a space each mask less its highest member comes
    # earlier; on random masks it mostly does not, and the meet is taken
    rng = random.Random(39)
    for P in [tree(3), forest([("T", 2), ("V", 2)]), *WIDE]:
        space = from_poset(P)
        L = space.lattice
        for masks in (space.variety_masks, sample_masks(L.n, rng)):
            assert L._meets_of(masks) == {S: L._meet_all(S) for S in masks}, P


def test_meets_without_each_match_one_meet_per_dropped_member():
    rng = random.Random(37)
    for P in [tree(3), *WIDE]:
        L = upset_lattice(P)[0]
        for S in sample_masks(L.n, rng):
            expected = [L._meet_all(S & ~(1 << x)) for x in _bits(S)]
            assert L._meets_without_each(S) == expected, (P, S)


def test_meets_avoiding_match_a_fold_over_each_point():
    # ⋀{a ∈ among : x ∉ V(a)} for each point x, with among every element
    # and the radical elements
    for P in [tree(3), forest([("T", 2), ("V", 2)]), *WIDE]:
        space = from_poset(P)
        L, varieties, X = space.lattice, space.variety_masks, space.points
        for among in ((1 << L.n) - 1, radical_info(L, X).radical_elements):
            expected = [
                reduce(L.meet, (a for a in _bits(among) if not varieties[a] >> x & 1), L.top)
                for x in _bits(X)
            ]
            assert list(L._meets_avoiding(varieties, among, X)) == expected, P


def test_maximals_of_matches_a_naive_filter():
    rng = random.Random(38)
    for P in [tree(3), *WIDE]:
        L = upset_lattice(P)[0]
        for S in sample_masks(L.n, rng):
            members = list(_bits(S))
            naive = mask(a for a in members if not any(a != b and L.leq(a, b) for b in members))
            assert L.maximals_of(S) == naive, (P, S)


def test_irreducible_matches_the_pair_definition(lattice_spaces, lattices_upto_6):
    # true on every carrier, and false on every (L, X) with |L| <= 6
    # whose varieties are not closed under unions
    assert len(lattice_spaces) == 742
    for space in lattice_spaces:
        L, varieties = space.lattice, space.variety_masks
        radicals = radical_info(L, space.points).radical_elements
        assert _irreducible(L, varieties, radicals)
        assert pair_irreducible(L, varieties, radicals)
    refused = 0
    for L in lattices_upto_6:
        for X in subsets(i for i in range(L.n) if i != L.top):
            varieties = L.variety_masks(mask(X))
            if _union_witness(varieties) is None:
                continue
            radicals = radical_info(L, mask(X)).radical_elements
            assert not _irreducible(L, varieties, radicals), (L, X)
            assert not pair_irreducible(L, varieties, radicals), (L, X)
            refused += 1
    assert refused > 0
