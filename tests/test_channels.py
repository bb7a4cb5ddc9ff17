import io
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from delins import channels as ch
from delins import qstrings as qs
from delins.errors import CapExceededError


def qary_pair(q: int, max_len: int = 7):
    strings = st.lists(st.integers(0, q - 1), max_size=max_len).map(tuple)
    return st.tuples(strings, strings)


class TestIsSubsequence:
    def test_examples(self):
        assert ch.is_subsequence((0, 1, 0), (0, 1, 1, 0))
        assert not ch.is_subsequence((1, 1), (0, 0))
        assert ch.is_subsequence((), (0, 1))

    @given(qary_pair(2))
    def test_reflexive_and_consistent_with_deletion(self, pair):
        x, _ = pair
        assert ch.is_subsequence(x, x)

    @given(st.integers(2, 3).flatmap(lambda q: qary_pair(q, 6)))
    def test_matches_deletion_set_membership(self, pair):
        z, x = pair
        if len(z) > len(x):
            z, x = x, z
        expected = z in ch.deletion_set(x, len(x) - len(z))
        assert ch.is_subsequence(z, x) == expected


class TestLcsScs:
    def test_lcs_basic(self):
        assert ch.lcs_length((0, 1, 0, 1), (1, 0, 1, 0)) == 3
        assert ch.lcs_length((), (0, 1)) == 0
        assert ch.lcs_length((0, 1, 2), (0, 1, 2)) == 3

    @given(qary_pair(3, 6))
    def test_lcs_symmetric(self, pair):
        x, y = pair
        assert ch.lcs_length(x, y) == ch.lcs_length(y, x)

    @given(qary_pair(2, 6), st.integers(0, 7))
    def test_lcs_at_least_agrees_with_full_table(self, pair, l):
        x, y = pair
        assert ch.lcs_at_least(x, y, l) == (ch.lcs_length(x, y) >= l)

    def test_scs_against_breadth_first_oracle(self):
        # smallest supersequence length found by trying every length upward
        for x in qs.all_strings(2, 3):
            for y in qs.all_strings(2, 2):
                brute = None
                for length in range(max(len(x), len(y)), len(x) + len(y) + 1):
                    if any(
                        ch.is_subsequence(x, w) and ch.is_subsequence(y, w)
                        for w in qs.all_strings(2, length)
                    ):
                        brute = length
                        break
                assert ch.scs_length(x, y) == brute, (x, y)


class TestDeletionSet:
    def test_examples(self):
        assert ch.deletion_set((0, 0, 0), 1) == {(0, 0)}
        assert ch.deletion_set((0, 1, 0, 1), 1) == {(1, 0, 1), (0, 0, 1), (0, 1, 1), (0, 1, 0)}
        assert ch.deletion_set((0, 1, 1), 0) == {(0, 1, 1)}
        assert ch.deletion_set((0, 1), 2) == {()}

    def test_rejects_overlong_deletion(self):
        with pytest.raises(ValueError):
            ch.deletion_set((0, 1), 3)


class TestInsertionSet:
    def test_examples(self):
        assert ch.insertion_set((0,), 1, 2) == {(0, 0), (0, 1), (1, 0)}
        assert ch.insertion_set((0, 1), 0, 2) == {(0, 1)}

    def test_size_is_input_independent(self):
        for q in (2, 3):
            for n in range(0, 5):
                for s in (0, 1, 2):
                    sizes = {len(ch.insertion_set(x, s, q)) for x in qs.all_strings(q, n)}
                    assert sizes == {qs.insertion_count(q, s, n + s)}, (q, n, s)

    def test_members_are_superstrings_of_right_length(self):
        x = (0, 2, 1)
        for w in ch.insertion_set(x, 2, 3):
            assert len(w) == 5
            assert ch.is_subsequence(x, w)


class TestInsertionRanks:
    def test_examples(self):
        assert sorted(ch.insertion_ranks((0,), 1, 2)) == [0, 1, 2]  # 00, 01, 10
        assert ch.insertion_ranks((0, 1), 0, 2) == [1]
        assert sorted(ch.insertion_ranks((), 2, 3)) == list(range(9))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ch.insertion_ranks((0,), -1, 2)
        with pytest.raises(ValueError):
            ch.insertion_ranks((0,), 1, 1)

    def test_duplicate_free_and_equal_to_brute_force_supersequences(self):
        # independent route: scan every string of the output length for x as a
        # subsequence; no code is shared with either insertion enumerator
        for q, max_n in ((2, 4), (3, 3), (4, 2)):
            for n in range(max_n + 1):
                for s in range(4):
                    candidates = list(qs.all_strings(q, n + s))
                    for x in qs.all_strings(q, n):
                        ranks = ch.insertion_ranks(x, s, q)
                        assert len(ranks) == len(set(ranks)), (q, x, s)
                        brute = {qs.rank_of(w, q) for w in candidates if ch.is_subsequence(x, w)}
                        assert set(ranks) == brute, (q, x, s)
                        assert len(ranks) == qs.insertion_count(q, s, n + s)

    def test_output_ranks_match_channel_output_set(self):
        for q, max_n in ((2, 5), (3, 4)):
            for n in range(max_n + 1):
                for s in range(3):
                    for a in range(min(s, n) + 1):
                        for x in qs.all_strings(q, n):
                            expected = {
                                qs.rank_of(y, q) for y in ch.channel_output_set(x, a, s - a, q)
                            }
                            assert ch.output_ranks(x, a, s - a, q) == expected, (q, x, a)

    def test_output_ranks_rejects_overlong_deletion(self):
        with pytest.raises(ValueError):
            ch.output_ranks((0,), 2, 0, 2)


class TestChannelOutputSet:
    def test_identity_channel(self):
        assert ch.channel_output_set((0, 1, 1), 0, 0, 2) == {(0, 1, 1)}

    def test_pure_deletion_reduces_to_deletion_set(self):
        x = (0, 1, 0, 1)
        assert ch.channel_output_set(x, 1, 0, 2) == ch.deletion_set(x, 1)

    def test_worked_small_case(self):
        # delete one symbol of 00 then insert one: exactly the 3 outputs below
        assert ch.channel_output_set((0, 0), 1, 1, 2) == {(0, 0), (0, 1), (1, 0)}

    def test_matches_definition_union(self):
        for x in qs.all_strings(2, 4):
            direct = ch.channel_output_set(x, 1, 1, 2)
            union = set()
            for z in ch.deletion_set(x, 1):
                union |= ch.insertion_set(z, 1, 2)
            assert direct == union

    def test_rejects_overlong_deletion(self):
        with pytest.raises(ValueError):
            ch.channel_output_set((0,), 2, 0, 2)


class TestChannelGraph:
    def test_six_edge_anchor(self):
        graph = ch.build_channel_graph(2, 1, 1, 0)
        edges = set(graph.edges())
        assert edges == {
            ((0, 0), (0,)),
            ((0, 1), (0,)),
            ((0, 1), (1,)),
            ((1, 0), (0,)),
            ((1, 0), (1,)),
            ((1, 1), (1,)),
        }
        assert graph.edge_count == 6

    @pytest.mark.parametrize("q,l", [(2, 3), (3, 2)])
    def test_zero_error_graph_is_perfect_matching(self, q, l):
        graph = ch.build_channel_graph(q, l, 0, 0)
        assert graph.edge_count == q ** l
        for rank in range(graph.left_size):
            assert graph.neighbors(rank) == (rank,)

    def test_neighbors_equal_channel_output_set(self):
        for q, l, a, b in [(2, 3, 1, 0), (2, 2, 1, 1), (2, 3, 2, 0), (3, 2, 1, 1)]:
            graph = ch.build_channel_graph(q, l, a, b)
            for rank in range(graph.left_size):
                x = graph.left_string(rank)
                expected = {
                    qs.rank_of(y, q) for y in ch.channel_output_set(x, a, b, q)
                }
                assert set(graph.neighbors(rank)) == expected, (q, l, a, b, x)

    def test_adjacency_matches_pairwise_lcs(self):
        for q, l, a, b in [(2, 2, 1, 1), (2, 4, 1, 0), (3, 2, 1, 0)]:
            graph = ch.build_channel_graph(q, l, a, b)
            for xr in range(graph.left_size):
                x = graph.left_string(xr)
                neighbor_set = set(graph.neighbors(xr))
                for yr in range(graph.right_size):
                    y = graph.right_string(yr)
                    assert (yr in neighbor_set) == ch.lcs_at_least(x, y, l)

    def test_reversal_symmetry(self):
        graph = ch.build_channel_graph(2, 3, 1, 1)
        edges = set(graph.edges())
        for x, y in edges:
            assert (x[::-1], y[::-1]) in edges

    def test_degree_stats(self):
        graph = ch.build_channel_graph(2, 1, 1, 0)
        dmin, davg, dmax = graph.degree_stats()
        assert (dmin, dmax) == (1, 2)
        assert davg == 1.5

    def test_cap_error_names_requirement(self):
        with pytest.raises(CapExceededError) as err:
            ch.build_channel_graph(2, 30, 1, 1, cap=1 << 10)
        assert err.value.required == 2 ** 31 + 2 ** 31
        assert err.value.cap == 1 << 10

    def test_edge_list_export(self):
        graph = ch.build_channel_graph(2, 1, 1, 0)
        buf = io.StringIO()
        graph.write_edge_list(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "2 1 1 0"
        assert len(lines) == 1 + 6
        assert "00 0" in lines


class TestParallelogram:
    @pytest.mark.parametrize("q,l,m,n", [(2, 2, 3, 3), (2, 1, 2, 2), (3, 1, 2, 3)])
    def test_holds_on_anchor_instances(self, q, l, m, n):
        assert ch.check_parallelogram(q, l, m, n)

    def test_agrees_with_explicit_set_search(self):
        # independent route: materialize subsequence and supersequence sets
        q, m, n = 2, 3, 4
        for l in range(1, 3):
            for x in qs.all_strings(q, m):
                for y in qs.all_strings(q, n):
                    zs = ch.deletion_set(x, m - l) & ch.deletion_set(y, n - l)
                    ws = ch.insertion_set(x, n - l, q) & ch.insertion_set(y, m - l, q)
                    assert (len(zs) > 0) == ch.lcs_at_least(x, y, l)
                    assert (len(ws) > 0) == (ch.scs_length(x, y) <= m + n - l)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            ch.check_parallelogram(2, 3, 3, 4)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            ch.check_parallelogram(2, 2, 20, 20, cap=1 << 10)


class TestChannelEquivalence:
    @pytest.mark.parametrize("q,n,a,b", [(2, 4, 1, 1), (2, 5, 0, 2), (3, 3, 1, 0)])
    def test_holds_on_anchor_instances(self, q, n, a, b):
        assert ch.check_channel_equivalence(q, n, a, b)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            ch.check_channel_equivalence(2, 14, 1, 1, cap=1 << 10)
