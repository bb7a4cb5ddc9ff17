import math
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from delins import channels as ch
from delins import qstrings as qs

from closed_forms import composition_count, runs_distribution


def qary_strings(q: int, max_len: int = 10):
    return st.lists(st.integers(0, q - 1), max_size=max_len).map(tuple)


class TestBinomial:
    @pytest.mark.parametrize("n,k", [(5, 2), (10, 0), (7, 7), (12, 5)])
    def test_matches_comb_in_range(self, n, k):
        assert qs.binomial(n, k) == math.comb(n, k)

    @pytest.mark.parametrize("n,k", [(-1, 0), (3, 5), (2, -1), (-4, -2)])
    def test_clamps_to_zero(self, n, k):
        assert qs.binomial(n, k) == 0


class TestRankRoundtrip:
    @given(st.integers(2, 7), st.lists(st.integers(0, 100), max_size=8))
    def test_rank_then_unrank(self, q, raw):
        x = tuple(sym % q for sym in raw)
        assert qs.string_of(qs.rank_of(x, q), q, len(x)) == x

    def test_numeric_order_matches_enumeration(self):
        for rank, x in enumerate(qs.all_strings(3, 4)):
            assert qs.rank_of(x, 3) == rank


class TestSymmetryOrbits:
    @pytest.mark.parametrize("q,max_n", [(2, 7), (3, 5), (4, 4)])
    def test_ids_are_smallest_rank_over_every_group_element(self, q, max_n):
        for n in range(max_n + 1):
            want = []
            for x in qs.all_strings(q, n):
                images = [
                    tuple(perm[c] for c in y)
                    for perm in permutations(range(q))
                    for y in (x, x[::-1])
                ]
                want.append(min(qs.rank_of(y, q) for y in images))
            assert qs.symmetry_orbits(q, n) == want, (q, n)

    def test_orbit_counts(self):
        counts = {(2, 8): 72, (2, 10): 272, (3, 6): 70, (4, 5): 31}
        for (q, n), count in counts.items():
            assert len(set(qs.symmetry_orbits(q, n))) == count, (q, n)

    @pytest.mark.parametrize("q,max_n", [(2, 8), (3, 5), (4, 4)])
    def test_representatives_are_the_orbit_ids_with_their_sizes(self, q, max_n):
        # rank_of is not invariant, so the key reads the string it is called
        # on: the smallest of each orbit, its id, counted with the orbit size
        for n in range(max_n + 1):
            orbit_of = qs.symmetry_orbits(q, n)
            tally = qs.orbit_tally(q, n, lambda x: qs.rank_of(x, q))
            assert tally == Counter(orbit_of), (q, n)
            assert list(tally) == sorted(set(orbit_of)), (q, n)
            assert sum(tally.values()) == q ** n

    @pytest.mark.parametrize("q,max_n", [(2, 8), (3, 5), (4, 4)])
    def test_orbit_tally_equals_a_full_scan(self, q, max_n):
        for n in range(max_n + 1):
            splits = [(a, s - a) for s in range(3) for a in range(min(s, n) + 1)]
            keys = [lambda x, a=a, b=b: len(ch.output_ranks(x, a, b, q)) for a, b in splits]
            for key in [qs.string_stats] + keys:
                want = Counter(key(x) for x in qs.all_strings(q, n))
                assert qs.orbit_tally(q, n, key) == want, (q, n)

    @pytest.mark.parametrize("q,max_n", [(2, 8), (3, 5), (4, 4)])
    def test_string_stats_are_constant_on_every_orbit(self, q, max_n):
        # the packing bound classifies orbit representatives only
        for n in range(max_n + 1):
            orbit_of = qs.symmetry_orbits(q, n)
            stats = [qs.string_stats(x) for x in qs.all_strings(q, n)]
            for rank, orbit in enumerate(orbit_of):
                assert stats[rank] == stats[orbit], (q, n, rank)


class TestTextFormat:
    @given(st.integers(2, 10), st.lists(st.integers(0, 100), max_size=8))
    def test_digit_roundtrip(self, q, raw):
        x = tuple(sym % q for sym in raw)
        assert qs.parse_qary(qs.format_qary(x, q), q) == x

    def test_comma_format_above_ten(self):
        x = (0, 11, 3)
        assert qs.format_qary(x, 12) == "0,11,3"
        assert qs.parse_qary("0,11,3", 12) == x

    def test_rejects_out_of_range_symbol(self):
        with pytest.raises(ValueError):
            qs.parse_qary("021", 2)


class TestAlternating:
    def test_empty_and_short(self):
        assert qs.is_alternating(())
        assert qs.is_alternating((1,))

    def test_examples(self):
        assert qs.is_alternating((0, 1, 0, 1))
        assert not qs.is_alternating((0, 0, 1))
        assert qs.is_alternating((2, 0, 2, 0, 2))
        assert not qs.is_alternating((0, 1, 2))

    @pytest.mark.parametrize("q,n,expected", [(2, 5, 2), (3, 2, 6), (2, 0, 1), (5, 1, 5)])
    def test_count_formula(self, q, n, expected):
        assert qs.alternating_count(q, n) == expected

    def test_count_matches_exhaustive_filter(self):
        for q in (2, 3, 4):
            for n in range(0, 9):
                found = sum(1 for x in qs.all_strings(q, n) if qs.is_alternating(x))
                assert found == qs.alternating_count(q, n), (q, n)

    def test_rejects_unary_alphabet(self):
        with pytest.raises(ValueError):
            qs.alternating_count(1, 3)

    def test_non_alternating_strings_complement(self):
        for q in (2, 3):
            for n in range(0, 6):
                pool = qs.non_alternating_strings(q, n)
                assert len(pool) == q ** n - qs.alternating_count(q, n)
                assert all(not qs.is_alternating(x) for x in pool)
                assert list(pool) == sorted(pool)


class TestRuns:
    @pytest.mark.parametrize(
        "x,expected",
        [((0, 0, 1, 1, 0), 3), ((0, 0, 0, 0), 1), ((0, 1, 0, 1), 4), ((), 0), ((7,), 1)],
    )
    def test_examples(self, x, expected):
        assert qs.run_count(x) == expected

    @given(st.integers(2, 5), st.lists(st.integers(0, 100), min_size=1, max_size=12))
    def test_equals_one_plus_nonzero_first_differences(self, q, raw):
        x = tuple(sym % q for sym in raw)
        diffs = [(x[i + 1] - x[i]) % q for i in range(len(x) - 1)]
        assert qs.run_count(x) == 1 + sum(1 for d in diffs if d != 0)


class TestLongestAlternatingInterval:
    @pytest.mark.parametrize(
        "x,expected",
        [
            ((0, 0, 1, 1, 1, 0, 0), 2),
            ((1, 0, 1, 0, 1), 5),
            ((0, 0, 0), 1),
            ((), 0),
            ((0, 1, 2, 1, 2), 4),
        ],
    )
    def test_examples(self, x, expected):
        assert qs.longest_alternating_interval(x) == expected

    @given(st.integers(2, 4), st.lists(st.integers(0, 100), max_size=10))
    def test_matches_window_scan(self, q, raw):
        x = tuple(sym % q for sym in raw)
        windows = [
            len(x[i:j])
            for i in range(len(x) + 1)
            for j in range(i, len(x) + 1)
            if qs.is_alternating(x[i:j])
        ]
        brute = max(windows) if x else 0
        assert qs.longest_alternating_interval(x) == brute


class TestStringStats:
    @given(st.integers(2, 5), st.lists(st.integers(0, 100), min_size=1, max_size=12))
    def test_invariants_for_nonempty_strings(self, q, raw):
        x = tuple(sym % q for sym in raw)
        stats = qs.string_stats(x)
        assert 1 <= stats.runs <= len(x)
        assert stats.longest_alternating >= 1
        if stats.runs >= 2:
            assert stats.longest_alternating >= 2

    def test_empty_string_conventions(self):
        assert qs.string_stats(()) == (0, 0)


class TestCompositions:
    def test_unique_tight_case(self):
        assert list(qs.enumerate_compositions(3, 6, 2)) == [(2, 2, 2)]

    def test_small_by_hand(self):
        assert list(qs.enumerate_compositions(2, 3, 0)) == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_count_example(self):
        stream = list(qs.enumerate_compositions(4, 10, 2))
        assert len(stream) == composition_count(4, 10, 2) == 10

    @pytest.mark.parametrize(
        "t,l,k,expected", [(3, 6, 2, 1), (2, 3, 0, 4), (4, 3, 2, 0), (1, 0, 0, 1)]
    )
    def test_count_formula(self, t, l, k, expected):
        assert composition_count(t, l, k) == expected

    def test_stream_matches_count_and_invariants(self):
        for t in range(1, 6):
            for l in range(0, 16):
                for k in range(0, 4):
                    seen = list(qs.enumerate_compositions(t, l, k))
                    assert len(seen) == composition_count(t, l, k), (t, l, k)
                    assert len(set(seen)) == len(seen)
                    assert seen == sorted(seen)
                    for comp in seen:
                        assert len(comp) == t
                        assert sum(comp) == l
                        assert all(part >= k for part in comp)

    def test_empty_when_infeasible(self):
        assert list(qs.enumerate_compositions(4, 3, 2)) == []


class TestInsertionCount:
    @pytest.mark.parametrize(
        "q,s,n,expected", [(2, 1, 3, 4), (2, 0, 7, 1), (3, 0, 4, 1), (2, 1, 2, 3)]
    )
    def test_examples(self, q, s, n, expected):
        assert qs.insertion_count(q, s, n) == expected

    def test_formula_terms(self):
        # spot value: sum over i <= s of binom(n, i)(q-1)^i
        assert qs.insertion_count(3, 2, 5) == 1 + 5 * 2 + 10 * 4


class TestRunsDistribution:
    def test_examples(self):
        assert runs_distribution(2, 3, 2) == 4
        assert runs_distribution(2, 7, 1) == 2
        assert runs_distribution(3, 4, 1) == 3
        assert runs_distribution(2, 4, 3) == 6

    def test_out_of_range_is_zero(self):
        assert runs_distribution(2, 4, 0) == 0
        assert runs_distribution(2, 4, 5) == 0

    def test_matches_exhaustive_histogram(self):
        for q in (2, 3):
            for n in range(1, 7):
                histogram = [0] * (n + 1)
                for x in qs.all_strings(q, n):
                    histogram[qs.run_count(x)] += 1
                for r in range(1, n + 1):
                    assert histogram[r] == runs_distribution(q, n, r), (q, n, r)

    def test_total_is_full_space(self):
        for q in (2, 3):
            for n in range(1, 11):
                total = sum(runs_distribution(q, n, r) for r in range(1, n + 1))
                assert total == q ** n
