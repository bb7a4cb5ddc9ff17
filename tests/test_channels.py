import io
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from delins import channels as ch
from delins import cli
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
        # and the grouping on the channel side: conflict_masks over the ranks
        # equals pairwise isdisjoint over the tuple sets
        for q, max_n in ((2, 5), (3, 4)):
            for n in range(max_n + 1):
                strings = list(qs.all_strings(q, n))
                for s in range(3):
                    for a in range(min(s, n) + 1):
                        outs = [ch.channel_output_set(x, a, s - a, q) for x in strings]
                        ranks = [ch.output_ranks(x, a, s - a, q) for x in strings]
                        for x, out, got in zip(strings, outs, ranks):
                            assert got == {qs.rank_of(y, q) for y in out}, (q, x, a)
                        expected = [
                            sum(
                                1 << j
                                for j, other in enumerate(outs)
                                if j != i and not mine.isdisjoint(other)
                            )
                            for i, mine in enumerate(outs)
                        ]
                        masks, costs = ch.conflict_masks(ranks)
                        assert masks == expected, (q, n, a)
                        assert costs == [len(out) for out in outs], (q, n, a)

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


class TestChannelGraphMemory:
    @pytest.mark.parametrize("q,l,a,b", [(3, 6, 1, 1), (2, 10, 1, 1)])
    def test_build_peaks_near_what_it_keeps(self, q, l, a, b):
        # one neighbour set at a time: the peak stays close to the tuples kept
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            graph = ch.build_channel_graph(q, l, a, b)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.edge_count > 0
        assert peak - base < 2 * (kept - base), (kept - base, peak - base)


class TestParallelogram:
    @pytest.mark.parametrize("q,l,m,n", [(2, 2, 3, 3), (2, 1, 2, 2), (3, 1, 2, 3)])
    def test_holds_on_anchor_instances(self, q, l, m, n):
        assert ch.parallelogram_counterexample(q, l, m, n) is None

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
            ch.parallelogram_counterexample(2, 3, 3, 4)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            ch.parallelogram_counterexample(2, 2, 20, 20, cap=1 << 10)


def _skewed_scs(x, y, lcs, scs):
    """A deliberately wrong SCS: two short on pairs with LCS 1 whose first and
    last symbols differ, which breaks the duality at l = 2 and l = 3."""
    return scs - 2 if lcs == 1 and x[0] != y[-1] else scs


class TestDualitySweep:
    @pytest.mark.parametrize("q,max_len", [(2, 5), (3, 4)])
    def test_values_equal_the_tables(self, q, max_len):
        for m in range(max_len + 1):
            for n in range(max_len + 1):
                want = [
                    (x, y_rank, ch.lcs_length(x, y), ch.scs_length(x, y))
                    for x in qs.all_strings(q, m)
                    for y_rank, y in enumerate(qs.all_strings(q, n))
                ]
                assert list(ch._duality_sweep(q, m, n)) == want, (m, n)

    @pytest.mark.parametrize("q,m,n", [(2, 5, 4), (2, 4, 6), (3, 4, 4)])
    def test_first_violation_matches_brute_force(self, monkeypatch, q, m, n):
        sweep = ch._duality_sweep

        def skewed(q, m, n):
            for x, y_rank, lcs, scs in sweep(q, m, n):
                y = qs.string_of(y_rank, q, n)
                yield x, y_rank, lcs, _skewed_scs(x, y, lcs, scs)

        monkeypatch.setattr(ch, "_duality_sweep", skewed)
        brute = None
        for x in qs.all_strings(q, m):
            for y in qs.all_strings(q, n):
                lcs = ch.lcs_length(x, y)
                scs = _skewed_scs(x, y, lcs, ch.scs_length(x, y))
                bad = [l for l in range(1, min(m, n)) if (lcs >= l) != (scs <= m + n - l)]
                if bad:
                    brute = bad[0], x, y
                    break
            if brute is not None:
                break
        assert brute is not None and brute[0] == 2
        assert ch.parallelogram_range_counterexample(q, m, n) == brute
        for l in (2, 3):
            assert ch.parallelogram_counterexample(q, l, m, n) == brute[1:]
        assert ch.parallelogram_counterexample(q, 1, m, n) is None


class TestChannelEquivalence:
    @pytest.mark.parametrize("q,n,a,b", [(2, 4, 1, 1), (2, 5, 0, 2), (3, 3, 1, 0)])
    def test_holds_on_anchor_instances(self, q, n, a, b):
        assert ch.check_channel_equivalence(q, n, a, b)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            ch.check_channel_equivalence(2, 14, 1, 1, cap=1 << 10)

    @pytest.mark.parametrize(
        "q,n,a,b,victim",
        [(2, 5, 0, 2, "00101"), (3, 3, 1, 0, "002"), (2, 4, 2, 0, "0010"), (3, 4, 0, 2, "0012")],
    )
    def test_first_disagreement_matches_brute_force(self, monkeypatch, capsys, q, n, a, b, victim):
        victim = qs.parse_qary(victim, q)
        real = ch.output_ranks

        def dropped(x, a_, b_, q_):
            out = real(x, a_, b_, q_)
            if tuple(x) == victim and (a_, b_) == (a, b):
                out.discard(max(out))
            return out

        monkeypatch.setattr(ch, "output_ranks", dropped)
        strings = list(qs.all_strings(q, n))
        dels = [ch.deletion_set(x, a + b) for x in strings]
        outs = [dropped(x, a, b, q) for x in strings]
        brute = next(
            (
                (strings[i], strings[j])
                for i in range(len(strings))
                for j in range(i + 1, len(strings))
                if dels[i].isdisjoint(dels[j]) != outs[i].isdisjoint(outs[j])
            ),
            None,
        )
        assert brute is not None
        assert ch.channel_equivalence_counterexample(q, n, a, b) == brute

        assert cli.main(["verify", "--q", str(q), "--max-n", str(n)]) == 1
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("channel conflict equivalence"))
        assert "FAIL" in lines[at]
        x, y = (qs.format_qary(w, q) for w in brute)
        assert lines[at + 1] == f"  counterexample: q={q} n={n} a={a} b={b} x={x} y={y}"

    def test_memory_peak_stays_small(self):
        # each input's output set is dropped once it has been grouped
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert ch.check_channel_equivalence(3, 4, 0, 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak


class TestConflictMasks:
    def test_examples(self):
        masks, costs = ch.conflict_masks([{1, 2}, {3}, {2, 4}, set()])
        assert masks == [0b100, 0, 0b1, 0]
        assert costs == [2, 1, 2, 0]
        assert ch.conflict_masks([]) == ([], [])
