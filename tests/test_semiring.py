"""Semirings: axioms, the B(n, i) family, ideals, spectra.

Derived expectations are pinned from the oracles: the modular-search
overflow rule, the exhaustive subset scan for ideals, and hand-checked
table entries.
"""

import re

import pytest

from xtoplat import (
    AxiomError,
    NotAnIdealError,
    RangeError,
    bni,
    covariety,
    ideal_lattice,
    ideals,
    omega,
    s3,
    semiring_from_tables,
    spec_poset,
    spec_space,
    spectrum,
    verify_bni,
)
from xtoplat.enumeration import all_posets, canonical_form
from xtoplat.poset import _bits, _mask, _size_key, chain, dual_tree
from xtoplat.semiring import (
    FiniteSemiring,
    _additive_generators,
    _divisor_masks,
    _generated_axioms_hold,
    _high_powers,
    ideal_label,
    principal_ideal,
)
from xtoplat.separation import (
    _report_and_checks,
    _report_and_points_in_index_order,
    classify_points,
    jacobson_and_prime_meets,
    report_and_points,
    separation_report,
)
from xtoplat.topology import build_space, is_xtop_by_irreducibility, is_xtop_by_unions

from .oracles import (
    absolutely_minimal,
    axiom_outcome,
    axiom_violation_by_scan,
    barely_maximal,
    bni_by_wrap,
    downset_semiring,
    ideals_by_subset_scan,
    is_ideal,
    is_prime_ideal,
    is_subtractive,
    leq_extremes,
    longest_inclusion_chain,
    meet_irredundant,
    mutated_tables,
    open_family,
    pairwise_maximal_ideals,
    pairwise_minimal_primes,
    pi_regular_by_powers,
    primes_by_ideal_scan,
    product_semiring,
    saturations_by_orbits,
    truncated_power_semiring,
    semidomain_by_pairs,
    spectrum_reads_by_scan,
    wrap_by_search,
)


def label_sets(R, family):
    return {tuple(sorted(R.labels[a] for a in _bits(I))) for I in family}


class TestFromTables:
    def test_boolean(self):
        B = semiring_from_tables(["0", "1"], [["0", "1"], ["1", "1"]], [["0", "0"], ["0", "1"]], "0", "1")
        assert B.add[1][1] == 1

    def test_s3_is_valid(self):
        R = s3()
        assert R.add[R.index("a")][R.index("1")] == R.index("1")
        assert R.mul[R.index("1")][R.index("a")] == R.index("a")

    def test_broken_absorption(self):
        # proper identities, but 0·a = a
        with pytest.raises(AxiomError) as err:
            semiring_from_tables(
                ["0", "a", "1"],
                [["0", "a", "1"], ["a", "a", "1"], ["1", "1", "1"]],
                [["0", "a", "0"], ["a", "a", "a"], ["0", "a", "1"]],
                "0",
                "1",
            )
        assert err.value.axiom == "absorption"

    def test_zero_equal_one_rejected(self):
        with pytest.raises(AxiomError) as err:
            semiring_from_tables(["0"], [["0"]], [["0"]], "0", "0")
        assert err.value.axiom == "distinct-identities"

    def test_non_associative_add_rejected(self):
        # a + a = 1 breaks associativity: (a+a)+a = 1+a = 1 but a+(a+a) needs 1 too;
        # use a truly broken table instead
        with pytest.raises(AxiomError):
            semiring_from_tables(
                ["0", "a", "1"],
                [["0", "a", "1"], ["a", "1", "0"], ["1", "0", "a"]],
                [["0", "0", "0"], ["0", "a", "a"], ["0", "a", "1"]],
                "0",
                "1",
            )


    def test_string_labels_tables_and_rows_refused(self):
        # each string was once split into labels, rows or entries
        with pytest.raises(ValueError, match="labels must be a sequence of strings"):
            semiring_from_tables("01", ["01", "11"], [[0, 0], "01"], "0", "1")
        with pytest.raises(ValueError, match="the 'add' table and its rows"):
            semiring_from_tables(["0", "1"], ["01", "11"], [[0, 0], [0, 1]], "0", "1")
        with pytest.raises(ValueError, match="the 'add' table and its rows"):
            semiring_from_tables(["0", "1"], "0111", [[0, 0], [0, 1]], "0", "1")
        with pytest.raises(ValueError, match="the 'mul' table and its rows"):
            semiring_from_tables(["0", "1"], [[0, 1], [1, 1]], [[0, 0], "01"], "0", "1")

    def test_non_string_labels_refused(self):
        # int labels once built a semiring whose spectrum labels raised TypeError
        with pytest.raises(ValueError, match="label 10 is not a string"):
            semiring_from_tables([10, 11], [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1)
        with pytest.raises(ValueError, match="label None is not a string"):
            semiring_from_tables(["0", None], [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1)

    @pytest.mark.parametrize(
        "entry, message",
        [
            (True, "element True is neither a label nor an index"),
            (1.0, "element 1.0 is neither a label nor an index"),
            (2, "element index 2 out of range"),
            (-1, "element index -1 out of range"),
            ("b", "unknown element label 'b'"),
        ],
    )
    def test_table_entry_messages(self, entry, message):
        # True and 1.0 equal the index 1 and hash like it
        with pytest.raises(ValueError) as err:
            semiring_from_tables(["0", "1"], [[0, 1], [1, entry]], [[0, 0], [0, 1]], 0, 1)
        assert str(err.value) == message

    def test_labels_and_indices_mix(self):
        mixed = semiring_from_tables(["0", "1"], [["0", 1], [1, "1"]], [[0, "0"], ["0", 1]], "0", 1)
        assert mixed == bni(2, 1)

    def test_greedy_additive_generators(self):
        for n in range(2, 17):
            for i in range(n):
                assert _additive_generators(bni(n, i).add, 0) == [1]
        R = s3()
        assert _additive_generators(R.add, R.zero) == [R.index("a"), R.index("1")]

    def test_generator_check_matches_the_scan_on_the_grid(self):
        for R in [s3()] + [bni(n, i) for n in range(2, 17) for i in range(n)]:
            assert axiom_violation_by_scan(R.labels, R.add, R.mul, R.zero, R.one) is None

    def test_generator_tests_hold_on_every_semiring(self):
        # so the definitional scan runs only for a table that breaks an axiom
        sources = [s3(), *(bni(n, i) for n in range(2, 31) for i in range(n))]
        sources += [truncated_power_semiring(k) for k in range(1, 17)]
        sources += [downset_semiring(P) for P in all_posets(4)]
        for R in sources:
            assert _generated_axioms_hold(R.add, R.mul, _additive_generators(R.add, R.zero))

    def test_non_associative_product_is_caught(self):
        # F2³ on the basis 1, x, y with the commutative bilinear product
        # x·x = y, x·y = 0, y·y = x: every axiom holds but the associativity
        # of ·, as (x·x)·y = x and x·(x·y) = 0.  No change of one table entry
        # of a B(n, i) gets this far: with G = {1}, distributivity makes ac
        # the sum of c copies of a.
        basis = [[0b001, 0b010, 0b100], [0b010, 0b100, 0], [0b100, 0, 0b010]]
        mul = [[0] * 8 for _ in range(8)]
        for u in range(8):
            for v in range(8):
                for i in range(3):
                    for j in range(3):
                        if u >> i & v >> j & 1:
                            mul[u][v] ^= basis[i][j]
        args = ([str(v) for v in range(8)], [[u ^ v for v in range(8)] for u in range(8)], mul, 0, 1)
        assert _additive_generators(args[1], 0) == [1, 2, 4]
        expected = axiom_violation_by_scan(*args)
        assert expected[0] == "multiplicative-associativity"
        assert axiom_outcome(*args) == expected

    @pytest.mark.parametrize(
        "changes, expected",
        [
            ({("add", 2, 3): 4}, ("additive-commutativity", ("2", "3"))),
            ({("mul", 3, 2): 4}, ("multiplicative-commutativity", ("2", "3"))),
            # the first pair in row order is named, whichever table breaks
            ({("add", 4, 3): 2, ("mul", 3, 2): 4}, ("multiplicative-commutativity", ("2", "3"))),
            ({("add", 2, 4): 2, ("mul", 4, 2): 3}, ("additive-commutativity", ("2", "4"))),
        ],
    )
    def test_commutativity_witness(self, changes, expected):
        # each table is compared with its transpose; a failure names the
        # first pair of the entrywise scan
        R = bni(5, 2)
        tables = {"add": [list(row) for row in R.add], "mul": [list(row) for row in R.mul]}
        for (key, a, b), value in changes.items():
            tables[key][a][b] = value
        args = (R.labels, tables["add"], tables["mul"], 0, 1)
        assert axiom_outcome(*args) == expected == axiom_violation_by_scan(*args)

    def test_every_single_entry_mutation_meets_the_scan(self):
        # one entry of add or mul set to every other value, most of them
        # breaking commutativity
        for R in [s3()] + [bni(n, i) for n in range(2, 6) for i in range(n)]:
            for key in ("add", "mul"):
                for a in range(R.n):
                    for b in range(R.n):
                        for value in range(R.n):
                            if getattr(R, key)[a][b] == value:
                                continue
                            table = [list(row) for row in getattr(R, key)]
                            table[a][b] = value
                            tables = {"add": R.add, "mul": R.mul, key: table}
                            args = (R.labels, tables["add"], tables["mul"], R.zero, R.one)
                            assert axiom_outcome(*args) == axiom_violation_by_scan(*args)

    def test_every_symmetric_mutation_meets_the_scan(self):
        # each symmetric pair of add or mul entries set to every other
        # value: commutativity still holds, so the generator tests decide
        seen = set()
        for R in [s3()] + [bni(n, i) for n in range(2, 7) for i in range(n)]:
            for key in ("add", "mul"):
                for a in range(R.n):
                    for b in range(a, R.n):
                        for value in range(R.n):
                            if getattr(R, key)[a][b] == value:
                                continue
                            args = mutated_tables(R, key, a, b, value)
                            expected = axiom_violation_by_scan(*args)
                            assert axiom_outcome(*args) == expected
                            seen.add(expected and expected[0])
        assert {
            "additive-associativity",
            "multiplicative-associativity",
            "distributivity",
        } <= seen


class TestBni:
    def test_b21_is_boolean(self):
        B = bni(2, 1)
        assert B.add[1][1] == 1
        assert B.mul[1][1] == 1

    def test_bn0_is_integers_mod_n(self):
        for n in (2, 6, 12):
            R = bni(n, 0)
            for a in range(n):
                for b in range(n):
                    assert R.add[a][b] == (a + b) % n
                    assert R.mul[a][b] == (a * b) % n

    def test_b52_overflow_matches_search(self):
        R = bni(5, 2)
        assert R.add[4][3] == wrap_by_search(7, 5, 2) == 4

    def test_all_entries_match_search_oracle(self):
        for n, i in ((5, 2), (7, 1), (6, 5), (9, 4)):
            R = bni(n, i)
            for a in range(n):
                for b in range(n):
                    assert R.add[a][b] == wrap_by_search(a + b, n, i)
                    assert R.mul[a][b] == wrap_by_search(a * b, n, i)

    def test_slices_match_the_entrywise_wrap(self):
        for n in range(2, 31):
            for i in range(n):
                assert bni(n, i) == bni_by_wrap(n, i), (n, i)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            bni(1, 0)
        with pytest.raises(RangeError):
            bni(5, 5)
        with pytest.raises(RangeError):
            bni(5, -1)


class TestOmega:
    def test_prime_power(self):
        assert omega(8) == 1

    def test_two_primes(self):
        assert omega(6) == 2

    def test_three_primes(self):
        assert omega(70) == 3

    def test_range_error(self):
        with pytest.raises(RangeError):
            omega(1)


class TestIdeals:
    def test_s3(self):
        R = s3()
        assert label_sets(R, ideals(R)) == {("0",), ("0", "a"), ("0", "1", "a")}

    def test_pi_regular_matches_the_power_scan(self):
        # the report records π-regularity as a finite-carrier constant
        for R in [bni(n, i) for n in range(2, 17) for i in range(n)] + [s3()]:
            assert spectrum(R).is_pi_regular == pi_regular_by_powers(R) is True

    def test_boolean(self):
        R = bni(2, 1)
        assert len(ideals(R)) == 2

    def test_z12_has_six(self):
        R = bni(12, 0)
        assert len(ideals(R)) == 6
        assert set(ideals(R)) == set(map(_mask, ideals_by_subset_scan(R)))

    def test_matches_subset_scan_on_small_semirings(self):
        for n in range(2, 9):
            for i in (0, 1, n - 1, n // 2):
                R = bni(n, i)
                assert set(ideals(R)) == set(map(_mask, ideals_by_subset_scan(R)))
        assert set(ideals(s3())) == set(map(_mask, ideals_by_subset_scan(s3())))

    def test_failed_ideal_check_raises_not_assert(self):
        # tables built past the axiom checks, each failing one of the three
        # checks the closure makes on every set it reaches
        def broken(R, key, a, b, value):
            tables = {"add": [list(row) for row in R.add], "mul": [list(row) for row in R.mul]}
            tables[key][a][b] = tables[key][b][a] = value
            add, mul = (tuple(map(tuple, tables[k])) for k in ("add", "mul"))
            return FiniteSemiring(R.labels, add, mul, R.zero, R.one)

        cases = [
            # B(2, 1) listed as 1, 0 with 1·0 = 1, so (1) = {1} lacks 0
            (FiniteSemiring(("1", "0"), ((0, 0), (0, 1)), ((0, 0), (0, 1)), 1, 0), [0], "zero"),
            # 0·0 = 1 in S3, so (0) = {0, 1} holds 1, and (1) = S3 is not in it
            (broken(s3(), "mul", 0, 0, 2), [0, 2], "principal"),
            # 0 + 0 = 1 in B(2, 1), so {0} + (0) = {1}
            (broken(bni(2, 1), "add", 0, 0, 1), [0], "sum"),
        ]
        for R, members, check in cases:
            with pytest.raises(NotAnIdealError, match=re.escape(f"{members} is not an ideal")):
                ideals.__wrapped__(R)
            I = frozenset(members)
            assert not is_ideal(R, I)
            failed = {
                "zero": R.zero not in I,
                "principal": any(not I.issuperset(R.mul[a]) for a in I),
                "sum": any(R.add[a][b] not in I for a in I for b in I),
            }
            assert [name for name, fails in failed.items() if fails] == [check]

    def test_listed_by_size_then_elements(self):
        # products and down-set semirings have ideals of equal size
        sources = [product_semiring(bni(3, 1), s3()), product_semiring(bni(4, 0), bni(2, 1))]
        sources += [downset_semiring(P) for P in all_posets(3)]
        ties = 0
        for R in sources:
            listed = [frozenset(_bits(I)) for I in ideals(R)]
            assert list(listed) == sorted(listed, key=lambda I: (len(I), sorted(I)))
            ties += len(listed) - len({len(I) for I in listed})
        assert ties > 0

    def test_predicate_matches_the_subset_scan(self):
        # is_ideal rejects every non-ideal subset, not only accepts ideals
        from .oracles import subsets

        for R in [s3()] + [bni(n, i) for n in range(2, 9) for i in range(n)]:
            accepted = {S for S in subsets(R.elements()) if is_ideal(R, S)}
            assert accepted == ideals_by_subset_scan(R)

    def test_integers_mod_210(self):
        # the 16 ideals dZ/210Z, d | 210; the closure reads 16 columns
        R = bni(210, 0)
        divisors = [d for d in range(1, 211) if 210 % d == 0]
        assert set(ideals(R)) == {_mask(range(0, 210, d)) for d in divisors}
        assert len(ideals(R)) == 16

    def test_every_enumerated_ideal_passes_predicate(self):
        for n, i in ((10, 3), (12, 11), (9, 1)):
            R = bni(n, i)
            for I in ideals(R):
                assert is_ideal(R, frozenset(_bits(I)))


class TestSubtractive:
    def test_zero_ideal_in_a_ring(self):
        R = bni(12, 0)
        assert is_subtractive(R, frozenset({0}))

    def test_s3_is_subtractive(self):
        R = s3()
        for I in ideals(R):
            assert is_subtractive(R, frozenset(_bits(I)))

    def test_non_ideal_rejected(self):
        with pytest.raises(NotAnIdealError):
            is_subtractive(s3(), frozenset({1}))

    def test_b32_top_pattern(self):
        R = bni(3, 2)
        # {0, 2} is an ideal; subtractivity by definition scan
        assert is_ideal(R, frozenset({0, 2}))
        expected = all(
            r in {0, 2} for r in range(3) for a in (0, 2) if R.add[r][a] in {0, 2}
        )
        assert is_subtractive(R, frozenset({0, 2})) == expected


class TestSpectrum:
    def test_s3_report(self):
        R = s3()
        rep = spectrum(R)
        assert label_sets(R, rep.spec) == {("0",), ("0", "a")}
        assert label_sets(R, rep.max) == {("0", "a")}
        assert rep.kdim == 1
        assert rep.is_local and rep.is_idempotent and rep.is_reduced
        assert rep.is_vnr and rep.is_pi_regular
        assert rep.is_subtractive_semiring and rep.is_semidomain
        assert rep.is_fmin and rep.is_fmax and rep.is_amin and rep.is_bmax
        # J(R) = {0, a} is not a nil ideal
        assert sorted(R.labels[a] for a in _bits(rep.jacobson)) == ["0", "a"]
        assert rep.nilradical == _mask({R.zero})
        assert rep.jacobson != rep.nilradical

    def test_z12(self):
        R = bni(12, 0)
        rep = spectrum(R)
        assert {frozenset(_bits(I)) for I in rep.spec} == {
            frozenset({0, 2, 4, 6, 8, 10}),
            frozenset({0, 3, 6, 9}),
        }
        assert rep.spec == rep.max == rep.min_primes
        assert rep.kdim == 0
        assert rep.is_pamin and rep.is_pbmax

    def test_boolean(self):
        R = bni(2, 1)
        rep = spectrum(R)
        assert label_sets(R, rep.spec) == {("0",)}

    def test_nilradical_equals_prime_radical(self):
        for source in (s3(), bni(12, 0), bni(8, 0), bni(9, 2), bni(10, 9)):
            rep = spectrum(source)
            assert rep.nilradical == rep.prime_radical

    def test_max_and_min_are_primes_and_spec_is_atomic(self):
        for source in (s3(), bni(12, 0), bni(9, 2), bni(15, 14), bni(13, 1)):
            rep = spectrum(source)
            assert set(rep.max) <= set(rep.spec)
            assert set(rep.min_primes) <= set(rep.spec)
            for P in rep.spec:
                assert any(Q & ~P == 0 for Q in rep.min_primes)

    def test_primality_predicate_on_z12(self):
        R = bni(12, 0)
        assert is_prime_ideal(R, frozenset(_bits(principal_ideal(R, 2))))
        assert not is_prime_ideal(R, frozenset(_bits(principal_ideal(R, 4))))
        assert not is_prime_ideal(R, frozenset(range(12)))


class TestMaximalIdeals:
    """The maximal-ideal scan against the pairwise scan over proper ideals."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_bni_grid(self, n):
        from .oracles import pairwise_maximal_ideals

        for i in range(n):
            R = bni(n, i)
            assert spectrum(R).max == tuple(map(_mask, pairwise_maximal_ideals(R)))

    def test_s3(self):
        from .oracles import pairwise_maximal_ideals

        assert spectrum(s3()).max == tuple(map(_mask, pairwise_maximal_ideals(s3())))


def saturations_by_squaring(R):
    return tuple(_divisor_masks(R, _high_powers(R)))


def assert_spectrum_matches_the_ideal_scans(R):
    # Spec from saturated sets, the reads off its prime order and the lemma
    # reads against the ideal scans, and the irredundance of J(X) and Q(X)
    # on Spec(R) against the single-drop scan
    report = spectrum(R)
    assert report.spec == tuple(map(_mask, primes_by_ideal_scan(R)))
    oracle = spectrum_reads_by_scan(R)
    assert {name: getattr(report, name) for name in oracle} == oracle, R
    space = spec_space(R)
    minima, maxima = leq_extremes(space)
    pm = jacobson_and_prime_meets(space)
    assert (pm.jacobson_irredundant, pm.min_meet_irredundant) == (
        meet_irredundant(space, maxima),
        meet_irredundant(space, minima),
    ), R


class TestPowerLemma:
    """sat(a) read as div(a^m) after L squarings, m = 2^L >= n, against the
    OR of div over the whole orbit of a."""

    @pytest.mark.parametrize("n", range(2, 41))
    def test_bni_grid(self, n):
        for i in range(n):
            R = bni(n, i)
            assert saturations_by_squaring(R) == saturations_by_orbits(R), (n, i)

    def test_s3(self):
        assert saturations_by_squaring(s3()) == saturations_by_orbits(s3())

    def test_orbits_of_n_minus_one_steps(self):
        # a^(n-2) != 0 = a^(n-1): only m >= n - 1 reaches the constant
        for k in range(1, 41):
            R = truncated_power_semiring(k)
            assert saturations_by_squaring(R) == saturations_by_orbits(R), k
        for k in range(1, 13):
            assert_spectrum_matches_the_ideal_scans(truncated_power_semiring(k))


class TestPrimesFromSaturatedSets:
    """Spec from saturated sets; Max, Min and K.dim off its inclusion order;
    the nilradical as the prime radical, BMax and AMin by prime avoidance,
    PAMin as Spec = Min, PBMax as Spec = Max, subtractivity by the pair
    lemma and the irredundant prime meets: all against the scans over all
    ideals and the definitions."""

    @pytest.mark.parametrize("n", range(2, 21))
    def test_bni_grid(self, n):
        for i in range(n):
            assert_spectrum_matches_the_ideal_scans(bni(n, i))

    def test_s3(self):
        assert_spectrum_matches_the_ideal_scans(s3())

    def test_products(self):
        factors = [s3()] + [bni(n, i) for n in range(2, 6) for i in range(n)]
        pairs = [(A, B) for k, A in enumerate(factors) for B in factors[k:]]
        assert len(pairs) == 120
        for A, B in pairs:
            assert_spectrum_matches_the_ideal_scans(product_semiring(A, B))

    @pytest.mark.parametrize("points", range(1, 6))
    def test_downset_semirings(self, points):
        # Birkhoff duality: Spec(D(P)) has one prime per point of P
        for P in all_posets(points):
            R = downset_semiring(P)
            assert_spectrum_matches_the_ideal_scans(R)
            assert len(spectrum(R).spec) == points


class TestSemidomain:
    """is_semidomain, one count of 0 per nonzero row of the product,
    against the pairwise definition."""

    @staticmethod
    def assert_flags_match(sources):
        flags = [spectrum(R).is_semidomain for R in sources]
        assert flags == [semidomain_by_pairs(R) for R in sources]
        assert set(flags) == {True, False}

    def test_spec_grid_and_s3(self):
        grid = [bni(n, i) for n in range(2, 17) for i in range(n)]
        self.assert_flags_match(grid + [bni(30, 15), s3()])

    def test_products_and_downset_semirings(self):
        factors = [s3()] + [bni(n, i) for n in range(2, 6) for i in range(n)]
        sources = [product_semiring(A, B) for k, A in enumerate(factors) for B in factors[k:]]
        sources += [downset_semiring(P) for points in range(1, 5) for P in all_posets(points)]
        self.assert_flags_match(sources)
        # a product has zero divisors (a, 0)·(0, b); D(P) has none iff its
        # nonempty down-sets meet, as they do over a chain
        assert not any(spectrum(R).is_semidomain for R in sources[:120])
        assert spectrum(downset_semiring(chain(3))).is_semidomain


class TestIdealLattice:
    def test_s3_is_three_chain(self):
        L, _ = ideal_lattice(s3())
        assert canonical_form(L.poset) == canonical_form(chain(3))

    def test_boolean_is_two_chain(self):
        L, _ = ideal_lattice(bni(2, 1))
        assert canonical_form(L.poset) == canonical_form(chain(2))

    def test_z12_is_divisor_lattice(self):
        L, all_ideals = ideal_lattice(bni(12, 0))
        divisors = [1, 2, 3, 4, 6, 12]
        pairs = [
            (f"d{a}", f"d{b}") for a in divisors for b in divisors if b % a == 0
        ]
        from xtoplat import poset_from_relation

        divisor_poset = poset_from_relation([f"d{d}" for d in divisors], pairs)
        # (d) ⊇ (e) iff d | e, so the ideal lattice is the divisor lattice upside down;
        # self-duality of the divisor lattice makes the canonical forms agree
        assert canonical_form(L.poset) == canonical_form(divisor_poset)

    def test_meet_is_intersection_join_is_sum(self):
        R = bni(12, 0)
        L, all_ideals = ideal_lattice(R)
        two = all_ideals.index(principal_ideal(R, 2))
        three = all_ideals.index(principal_ideal(R, 3))
        assert all_ideals[L.meet(two, three)] == principal_ideal(R, 6)
        assert all_ideals[L.join(two, three)] == _mask(range(12))


class TestSpecSpace:
    def test_s3_all(self):
        space = spec_space(s3())
        opens = {space.labels_of(_mask(U)) for U in open_family(space)}
        assert opens == {(), ("{0}",), ("{0}", "{0,a}")}

    def test_s3_max_discrete_singleton(self):
        space = spec_space(s3(), "max")
        assert separation_report(space).discrete

    def test_b12_1_spectrum_is_two_chain(self):
        space = spec_space(bni(12, 1))
        assert omega(11) == 1
        assert canonical_form(space.specialization_poset()) == canonical_form(
            dual_tree(1)
        )

    def test_always_a_valid_carrier(self):
        for R in (s3(), bni(12, 0), bni(9, 2), bni(7, 6), bni(10, 1)):
            for which in ("all", "max", "min"):
                space = spec_space(R, which)
                L, X = space.lattice, space.points
                assert is_xtop_by_unions(L, X)
                assert is_xtop_by_irreducibility(L, X)

    def test_bad_selector(self):
        with pytest.raises(ValueError):
            spec_space(s3(), "everything")


DIFFERENTIAL_SOURCES = [pytest.param(s3(), id="s3")] + [
    pytest.param(bni(n, i), id=f"B({n},{i})") for n in range(2, 13) for i in range(n)
]


def _space_over_all_ideals(R, which):
    """The definitional route: X embedded in the lattice of all ideals."""
    L, all_ideals = ideal_lattice(R)
    rep = spectrum(R)
    chosen = {
        "all": rep.spec,
        "max": rep.max,
        "min": rep.min_primes,
        "drop-zero": [P for P in rep.spec if P != _mask({R.zero})],
    }[which]
    position = {I: k for k, I in enumerate(all_ideals)}
    return build_space(L, _mask(position[I] for I in chosen))


@pytest.mark.parametrize("which", ["all", "max", "min", "drop-zero"])
@pytest.mark.parametrize("R", DIFFERENTIAL_SOURCES)
def test_radical_lattice_matches_the_ideal_lattice(R, which):
    fast = spec_space(R, which)
    slow = _space_over_all_ideals(R, which)
    assert fast.labels_of(fast.points) == slow.labels_of(slow.points)
    for family in (
        lambda space: space.closed_family,
        lambda space: map(_mask, open_family(space)),
    ):
        assert [fast.labels_of(S) for S in family(fast)] == [
            slow.labels_of(S) for S in family(slow)
        ]
    assert separation_report(fast) == separation_report(slow)
    assert classify_points(fast) == classify_points(slow)
    pm_fast, pm_slow = jacobson_and_prime_meets(fast), jacobson_and_prime_meets(slow)
    assert (
        fast.label(pm_fast.jacobson),
        fast.label(pm_fast.min_meet),
        pm_fast.jacobson_irredundant,
        pm_fast.min_meet_irredundant,
    ) == (
        slow.label(pm_slow.jacobson),
        slow.label(pm_slow.min_meet),
        pm_slow.jacobson_irredundant,
        pm_slow.min_meet_irredundant,
    )


def _product_and_downset_sources():
    factors = [s3()] + [bni(n, i) for n in range(2, 6) for i in range(n)]
    products = [product_semiring(A, B) for k, A in enumerate(factors) for B in factors[k:]]
    return products + [downset_semiring(P) for k in range(1, 5) for P in all_posets(k)]


class TestSpecPoset:
    """The chosen primes under inclusion against ``spec_space``: the same
    order and points, its up-sets the closed sets (semiring module
    docstring), and the same report, point rows and open sets."""

    @staticmethod
    def assert_matches_spec_space(R, which):
        P, space = spec_poset(R, which), spec_space(R, which)
        assert P == space.specialization_poset(), (R.labels, which)
        full = (1 << P.n) - 1

        def labelled(masks):
            ordered = sorted(masks, key=_size_key, reverse=True)
            return [tuple(P.labels[k] for k in _bits(S)) for S in ordered]

        assert labelled(P.upset_masks()) == list(map(space.labels_of, space.closed_family))
        opens = labelled(full & ~U for U in P.upset_masks())
        assert opens == list(map(space.labels_of, map(_mask, open_family(space))))
        assert _report_and_points_in_index_order(P) == report_and_points(space)

    @pytest.mark.parametrize("which", ["all", "max", "min", "drop-zero"])
    def test_bni_grid_and_s3(self, which):
        for R in [s3()] + [bni(n, i) for n in range(2, 21) for i in range(n)]:
            self.assert_matches_spec_space(R, which)

    @pytest.mark.parametrize("which", ["all", "max", "min", "drop-zero"])
    def test_products_and_downset_semirings(self, which):
        for R in _product_and_downset_sources():
            self.assert_matches_spec_space(R, which)

    def test_empty_subspace(self):
        # Spec(B(2, 1)) is the zero ideal alone, so drop-zero keeps nothing
        P = spec_poset(bni(2, 1), "drop-zero")
        assert P.n == 0 and P.upset_masks() == [0]
        report, points = _report_and_points_in_index_order(P)
        assert points == () and report.kdim == 0 and report.components == ()

    def test_bad_selector(self):
        with pytest.raises(ValueError):
            spec_poset(s3(), "everything")


class TestVerifyBni:
    def test_7_1(self):
        v = verify_bni(7, 1)
        assert v.case == "i=1" and v.predicted_kdim == 1 and v.match
        assert len(v.predicted_spec) == 3  # {0}, 2B, 3B

    def test_5_4(self):
        v = verify_bni(5, 4)
        assert v.predicted_spec == (_mask({0}), _mask({0, 2, 3, 4}))
        assert v.predicted_kdim == 1 and v.match

    def test_6_3_two_dimensional(self):
        v = verify_bni(6, 3)
        assert v.predicted_kdim == 2 and v.match
        r = separation_report(spec_space(bni(6, 3)))
        assert r.t0 and not r.t_quarter

    def test_range_error(self):
        with pytest.raises(RangeError):
            verify_bni(5, 9)


class TestDiscretenessEquivalences:
    """BMax/AMin/PAMin flags agree across three independent routes:
    ideal-set intersections (the ideal scans), lattice meets (the
    single-drop scan of cross_check) and subspace topologies (separation
    reports)."""

    SOURCES = [
        (2, 1), (4, 0), (6, 0), (12, 0), (5, 2), (9, 8), (10, 1),
        (8, 7), (7, 1), (6, 3), (13, 0), (16, 5),
    ]

    def semirings(self):
        yield s3()
        for n, i in self.SOURCES:
            yield bni(n, i)

    def test_bmax_routes_agree(self):
        for R in self.semirings():
            maximal = pairwise_maximal_ideals(R)
            by_ideals = all(barely_maximal(P, maximal) for P in maximal)
            by_meets = _report_and_checks(spec_space(R))[1].jacobson_irredundant
            max_discrete = separation_report(spec_space(R, "max")).discrete
            assert by_ideals == by_meets == max_discrete, R

    def test_amin_routes_agree(self):
        for R in self.semirings():
            min_primes = pairwise_minimal_primes(R)
            by_ideals = all(absolutely_minimal(P, min_primes) for P in min_primes)
            by_meets = _report_and_checks(spec_space(R))[1].min_meet_irredundant
            min_discrete = separation_report(spec_space(R, "min")).discrete
            assert by_ideals == by_meets == min_discrete, R

    def test_pamin_pbmax_and_discreteness_collapse(self):
        for R in self.semirings():
            spec = primes_by_ideal_scan(R)
            maximal = pairwise_maximal_ideals(R)
            min_primes = pairwise_minimal_primes(R)
            kdim = longest_inclusion_chain(spec)
            spec_discrete = separation_report(spec_space(R)).discrete
            assert (
                all(absolutely_minimal(P, min_primes) for P in spec)
                == all(barely_maximal(P, maximal) for P in spec)
                == spec_discrete
                == (kdim == 0 and all(barely_maximal(P, maximal) for P in maximal))
                == (kdim == 0 and all(absolutely_minimal(P, min_primes) for P in min_primes))
            ), R


def test_zn_singleton_opens_have_principal_witnesses():
    # each {(p)} in Spec(Z_n) is the covariety of the ideal (n / p^m); the
    # space's lattice holds radical ideals only, so V(I) is read at √I, the
    # intersection of the primes containing I
    for n in (12, 30, 60):
        R = bni(n, 0)
        space = spec_space(R)
        primes = spectrum(R).spec

        def position(I):
            root = _mask(range(n))
            for P in primes:
                if I & ~P == 0:
                    root &= P
            return space.lattice.labels.index(ideal_label(R, root))

        remaining = n
        d = 2
        parts = {}
        while d * d <= remaining:
            if remaining % d == 0:
                power = 1
                while remaining % d == 0:
                    remaining //= d
                    power *= d
                parts[d] = power
            d += 1
        if remaining > 1:
            parts[remaining] = remaining
        for p, power in parts.items():
            witness = position(principal_ideal(R, (n // power) % n))
            target = position(principal_ideal(R, p))
            assert covariety(space.lattice, space.points, witness) == _mask({target})
