import io
import tracemalloc
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from delins import channels as ch
from delins import cli
from delins import qstrings as qs
from delins.errors import CapExceededError

from lcs_reference import is_subsequence, lcs_at_least, lcs_length, scs_length


def qary_pair(q: int, max_len: int = 7):
    strings = st.lists(st.integers(0, q - 1), max_size=max_len).map(tuple)
    return st.tuples(strings, strings)


class TestIsSubsequence:
    def test_examples(self):
        assert is_subsequence((0, 1, 0), (0, 1, 1, 0))
        assert not is_subsequence((1, 1), (0, 0))
        assert is_subsequence((), (0, 1))

    @given(qary_pair(2))
    def test_reflexive_and_consistent_with_deletion(self, pair):
        x, _ = pair
        assert is_subsequence(x, x)

    @given(st.integers(2, 3).flatmap(lambda q: qary_pair(q, 6)))
    def test_matches_deletion_set_membership(self, pair):
        z, x = pair
        if len(z) > len(x):
            z, x = x, z
        expected = z in ch.deletion_set(x, len(x) - len(z))
        assert is_subsequence(z, x) == expected


class TestLcsScs:
    def test_lcs_basic(self):
        assert lcs_length((0, 1, 0, 1), (1, 0, 1, 0)) == 3
        assert lcs_length((), (0, 1)) == 0
        assert lcs_length((0, 1, 2), (0, 1, 2)) == 3

    @given(qary_pair(3, 6))
    def test_lcs_symmetric(self, pair):
        x, y = pair
        assert lcs_length(x, y) == lcs_length(y, x)

    @given(qary_pair(2, 6), st.integers(0, 7))
    def test_lcs_at_least_agrees_with_full_table(self, pair, l):
        x, y = pair
        assert lcs_at_least(x, y, l) == (lcs_length(x, y) >= l)

    @pytest.mark.parametrize("q,max_len", [(2, 6), (3, 4)])
    def test_bit_parallel_lcs_at_least_on_every_pair(self, q, max_len):
        strings = [x for n in range(max_len + 1) for x in qs.all_strings(q, n)]
        for x in strings:
            for y in strings:
                lcs = lcs_length(x, y)
                for l in range(max_len + 2):
                    assert lcs_at_least(x, y, l) == (lcs >= l), (x, y, l)

    def test_scs_against_breadth_first_oracle(self):
        # smallest supersequence length found by trying every length upward
        for x in qs.all_strings(2, 3):
            for y in qs.all_strings(2, 2):
                brute = None
                for length in range(max(len(x), len(y)), len(x) + len(y) + 1):
                    if any(
                        is_subsequence(x, w) and is_subsequence(y, w)
                        for w in qs.all_strings(2, length)
                    ):
                        brute = length
                        break
                assert scs_length(x, y) == brute, (x, y)


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
            assert is_subsequence(x, w)


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
                        brute = {qs.rank_of(w, q) for w in candidates if is_subsequence(x, w)}
                        assert set(ranks) == brute, (q, x, s)
                        assert len(ranks) == qs.insertion_count(q, s, n + s)

    def test_output_ranks_match_channel_output_set(self):
        # and the grouping on the channel side: conflict_masks over the inputs
        # holding each output rank equals pairwise isdisjoint over the tuple sets
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
                        holders = [[] for _ in range(q ** (n - 2 * a + s))]
                        for i, got in enumerate(ranks):
                            for y in got:
                                holders[y].append(i)
                        assert ch.conflict_masks(len(strings), holders) == expected, (q, n, a)

    def test_output_ranks_match_channel_output_set_up_to_four_deletions(self):
        for q, max_n in ((2, 7), (3, 5), (4, 4)):
            for n in range(max_n + 1):
                for x in qs.all_strings(q, n):
                    for a in range(min(4, n) + 1):
                        for b in range(3 - (q > 2)):
                            expected = {qs.rank_of(y, q) for y in ch.channel_output_set(x, a, b, q)}
                            assert ch.output_ranks(x, a, b, q) == expected, (q, x, a, b)

    def test_output_ranks_build_no_deletion_set(self, monkeypatch):
        cases = [((0, 1, 1, 0, 2, 2, 1), a, b) for a in range(4) for b in range(2)]
        expected = [ch.output_ranks(x, a, b, 3) for x, a, b in cases]

        monkeypatch.setattr(ch, "deletion_set", lambda *args: pytest.fail("deletion_set called"))
        assert [ch.output_ranks(x, a, b, 3) for x, a, b in cases] == expected

    def test_output_ranks_rejects_overlong_deletion(self):
        with pytest.raises(ValueError, match="cannot delete 2 symbols from a string of length 1"):
            ch.output_ranks((0,), 2, 0, 2)

    def test_output_ranks_rejects_bad_alphabet_and_insertions(self):
        # at b = 0 no insertion enumerator runs, so the alphabet check is the
        # deletion enumerator's own
        for q in (1, 0):
            with pytest.raises(ValueError, match="alphabet size must be at least 2"):
                ch.output_ranks((0, 0), 1, 0, q)
        with pytest.raises(ValueError, match="cannot insert -1 symbols"):
            ch.output_ranks((0, 1), 1, -1, 2)

    def test_output_ranks_rank_no_result_at_b0(self, monkeypatch):
        # the a-deletion results come out as ranks: no insertion enumerator
        # and no rank_of per result
        cases = [((0, 1, 1, 0, 2, 2, 1), a, 0) for a in range(8)] + [((0, 0, 1, 0), 2, 0)]
        expected = [ch.output_ranks(x, a, b, 3) for x, a, b in cases]

        def refuse(name):
            return lambda *args: pytest.fail(f"{name} called")

        for module, name in ((ch, "insertion_ranks"), (ch, "rank_of"), (qs, "rank_of")):
            monkeypatch.setattr(module, name, refuse(name))
        assert [ch.output_ranks(x, a, b, 3) for x, a, b in cases] == expected


class TestDeletionRanks:
    def test_examples(self):
        assert ch.deletion_ranks((0, 1), 0, 2) == [1]
        assert ch.deletion_ranks((), 0, 3) == [0]
        assert sorted(ch.deletion_ranks((0, 1, 1, 2), 1, 3)) == [4, 5, 14]  # 011, 012, 112

    def test_block_rule_is_not_monotone_at_a_fixed_start(self):
        # 10 keeps x[2:]: its leftmost embedding deletes x[0:2], although
        # the shorter block x[0:1] is not allowed
        ranks = ch.deletion_ranks((0, 0, 1, 0), 2, 2)
        assert sorted(ranks) == [0, 1, 2]  # 00, 01, 10

    def test_trailing_block_is_free(self):
        # x[0:1] is not allowed before the kept x[1] = 0; the empty string
        # comes from the block that runs to the end
        assert ch.deletion_ranks((0, 0), 2, 2) == [0]
        assert sorted(ch.deletion_ranks((1, 1, 0), 2, 2)) == [0, 1]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="cannot delete 3 symbols from a string of length 2"):
            ch.deletion_ranks((0, 1), 3, 2)
        with pytest.raises(ValueError, match="cannot delete -1 symbols"):
            ch.deletion_ranks((0, 1), -1, 2)
        with pytest.raises(ValueError, match="alphabet size"):
            ch.deletion_ranks((0, 1), 1, 1)

    @pytest.mark.parametrize("q,max_n", [(2, 8), (3, 6), (4, 5)])
    def test_duplicate_free_and_equal_to_deletion_set(self, q, max_n):
        for n in range(max_n + 1):
            for x in qs.all_strings(q, n):
                for a in range(n + 1):
                    ranks = ch.deletion_ranks(x, a, q)
                    assert isinstance(ranks, list)
                    assert len(ranks) == len(set(ranks)), (q, x, a)
                    brute = {qs.rank_of(z, q) for z in ch.deletion_set(x, a)}
                    assert set(ranks) == brute, (q, x, a)


class TestOrbitDegrees:
    @pytest.mark.parametrize("q,max_n", [(2, 8), (3, 5), (4, 4)])
    def test_output_counts_are_constant_on_every_orbit(self, q, max_n):
        # degree_histogram and the packing bound count orbit representatives only
        for n in range(max_n + 1):
            orbit_of = qs.symmetry_orbits(q, n)
            strings = list(qs.all_strings(q, n))
            for a, b in [(a, s - a) for s in range(3) for a in range(min(s, n) + 1)]:
                counts = [len(ch.output_ranks(x, a, b, q)) for x in strings]
                for rank, orbit in enumerate(orbit_of):
                    assert counts[rank] == counts[orbit], (q, n, a, b, rank)

    def test_histogram_counts_every_input_by_its_output_count(self):
        for q, l, a, b in [(2, 5, 2, 0), (2, 4, 1, 1), (3, 3, 0, 2), (3, 2, 2, 1), (2, 0, 2, 1)]:
            want = Counter(
                len(ch.channel_output_set(x, a, b, q)) for x in qs.all_strings(q, l + a)
            )
            assert ch.degree_histogram(q, l, a, b) == want, (q, l, a, b)
            assert ch.build_channel_graph(q, l, a, b).degree_histogram() == want, (q, l, a, b)

    def test_quaternary_edge_counts_equal_the_built_graph(self):
        # the cells that `verify --q 4` counts only by orbit; criterion 02
        # covers q = 2, 3
        for l in range(1, 5):
            for a, b in [(a, s - a) for s in range(3) for a in range(s + 1)]:
                edges = sum(d * c for d, c in ch.degree_histogram(4, l, a, b).items())
                assert edges == ch.build_channel_graph(4, l, a, b).edge_count, (l, a, b)

    def test_histogram_cap_and_arguments_checked_before_enumeration(self, monkeypatch):
        monkeypatch.setattr(ch, "orbit_tally", lambda *args: pytest.fail("enumerated"))
        with pytest.raises(CapExceededError) as err:
            ch.degree_histogram(2, 30, 1, 1, cap=1 << 10)
        assert err.value.required == 2 ** 31 + 2 ** 31
        with pytest.raises(ValueError, match="nonnegative"):
            ch.degree_histogram(2, 3, -1, 0)
        with pytest.raises(ValueError, match="alphabet"):
            ch.degree_histogram(1, 3, 1, 0)


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
        with pytest.raises(ValueError, match="cannot delete 2 symbols from a string of length 1"):
            ch.channel_output_set((0,), 2, 0, 2)


def edge_set(graph: ch.ChannelGraph) -> set:
    return {
        (graph.left_string(r), graph.right_string(y))
        for r, neigh in enumerate(graph.adjacency)
        for y in neigh
    }


class TestChannelGraph:
    def test_six_edge_anchor(self):
        graph = ch.build_channel_graph(2, 1, 1, 0)
        edges = edge_set(graph)
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
        for rank in range(len(graph.adjacency)):
            assert graph.adjacency[rank] == (rank,)

    def test_neighbors_equal_channel_output_set(self):
        for q, l, a, b in [(2, 3, 1, 0), (2, 2, 1, 1), (2, 3, 2, 0), (3, 2, 1, 1)]:
            graph = ch.build_channel_graph(q, l, a, b)
            for rank in range(len(graph.adjacency)):
                x = graph.left_string(rank)
                expected = {
                    qs.rank_of(y, q) for y in ch.channel_output_set(x, a, b, q)
                }
                assert set(graph.adjacency[rank]) == expected, (q, l, a, b, x)

    def test_adjacency_matches_pairwise_lcs(self):
        for q, l, a, b in [(2, 2, 1, 1), (2, 4, 1, 0), (3, 2, 1, 0)]:
            graph = ch.build_channel_graph(q, l, a, b)
            for xr in range(len(graph.adjacency)):
                x = graph.left_string(xr)
                neighbor_set = set(graph.adjacency[xr])
                for yr in range(graph.right_size):
                    y = graph.right_string(yr)
                    assert (yr in neighbor_set) == lcs_at_least(x, y, l)

    def test_reversal_symmetry(self):
        graph = ch.build_channel_graph(2, 3, 1, 1)
        edges = edge_set(graph)
        for x, y in edges:
            assert (x[::-1], y[::-1]) in edges

    def test_degree_stats(self):
        # inputs 00 and 11 reach one output, 01 and 10 reach two
        graph = ch.build_channel_graph(2, 1, 1, 0)
        assert graph.degree_histogram() == {1: 2, 2: 2}
        assert ch.degree_histogram(2, 1, 1, 0) == {1: 2, 2: 2}

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
        assert 1 <= l < min(m, n)  # within the range of lengths checked
        assert ch.parallelogram_range_counterexample(q, m, n) is None

    def test_agrees_with_explicit_set_search(self):
        # independent route: materialize subsequence and supersequence sets
        q, m, n = 2, 3, 4
        for l in range(1, 3):
            for x in qs.all_strings(q, m):
                for y in qs.all_strings(q, n):
                    zs = ch.deletion_set(x, m - l) & ch.deletion_set(y, n - l)
                    ws = ch.insertion_set(x, n - l, q) & ch.insertion_set(y, m - l, q)
                    assert (len(zs) > 0) == lcs_at_least(x, y, l)
                    assert (len(ws) > 0) == (scs_length(x, y) <= m + n - l)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            ch.parallelogram_range_counterexample(2, 20, 20, cap=1 << 10)


def _skewed_scs(x, y, lcs, scs):
    """A deliberately wrong SCS: two short on pairs with LCS 1 whose first and
    last symbols differ, which breaks the duality at l = 2 and l = 3."""
    return scs - 2 if lcs == 1 and x[0] != y[-1] else scs


def _long_scs(x, y, lcs, scs):
    """Three long on pairs with LCS 2 whose first and last symbols differ, so
    m + n - scs is negative there and the duality breaks from l = 1 on."""
    return scs + 3 if lcs == 2 and x[0] != y[-1] else scs


def _first_violations(monkeypatch, q, m, n, skew):
    """The first (l, x, y) by a brute-force loop over the skewed tables, and
    the one parallelogram_range_counterexample finds with skew applied to
    the rows of its tables."""
    tables = ch._duality_tables

    def skewed(q, m, n):
        ys = list(qs.all_strings(q, n))
        for x, lcs_row, scs_row in tables(q, m, n):
            yield x, lcs_row, [skew(x, y, *v) for y, v in zip(ys, zip(lcs_row, scs_row))]

    monkeypatch.setattr(ch, "_duality_tables", skewed)
    for x in qs.all_strings(q, m):
        for y in qs.all_strings(q, n):
            lcs = lcs_length(x, y)
            scs = skew(x, y, lcs, scs_length(x, y))
            bad = [l for l in range(1, min(m, n)) if (lcs >= l) != (scs <= m + n - l)]
            if bad:
                return (bad[0], x, y), ch.parallelogram_range_counterexample(q, m, n)
    return None, ch.parallelogram_range_counterexample(q, m, n)


class TestDualitySweep:
    @pytest.mark.parametrize("q,max_len", [(2, 5), (3, 4)])
    def test_values_equal_the_tables(self, q, max_len):
        for m in range(max_len + 1):
            for n in range(max_len + 1):
                ys = list(qs.all_strings(q, n))
                want = [
                    (x, [lcs_length(x, y) for y in ys], [scs_length(x, y) for y in ys])
                    for x in qs.all_strings(q, m)
                ]
                assert list(ch._duality_tables(q, m, n)) == want, (m, n)

    @pytest.mark.parametrize("q,m,n", [(2, 5, 4), (2, 4, 6), (3, 4, 4)])
    def test_first_violation_matches_brute_force(self, monkeypatch, q, m, n):
        brute, got = _first_violations(monkeypatch, q, m, n, _skewed_scs)
        assert brute is not None and brute[0] == 2
        assert got == brute

    @pytest.mark.parametrize("q,m,n", [(2, 5, 4), (2, 4, 6), (3, 4, 4)])
    def test_negative_supersequence_room_fails_at_length_one(self, monkeypatch, q, m, n):
        brute, got = _first_violations(monkeypatch, q, m, n, _long_scs)
        assert brute is not None and brute[0] == 1
        assert got == brute

    def test_peak_memory_stays_small(self):
        # (m + 1) * 2 * sum(q**j for j <= n) = 15,302 table slots at (3, 6, 6)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert ch.parallelogram_range_counterexample(3, 6, 6) is None
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


class TestChannelEquivalence:
    @pytest.mark.parametrize("q,n,a,b", [(2, 4, 1, 1), (2, 5, 0, 2), (3, 3, 1, 0)])
    def test_holds_on_anchor_instances(self, q, n, a, b):
        assert ch.check_channel_equivalence(q, n, a, b)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            ch.channel_equivalence_counterexample(2, 14, 1, 1, cap=1 << 10)

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
        # inputs 0..3 with outputs {1, 2}, {3}, {2, 4}, {}: one group per output
        assert ch.conflict_masks(4, [[0], [0, 2], [1], [2]]) == [0b100, 0, 0b1, 0]
        assert ch.conflict_masks(0, []) == []

    def test_deletion_groups_are_the_inputs_sharing_each_deletion_result(self):
        for q, max_n in ((2, 6), (3, 4), (4, 3)):
            for n in range(max_n + 1):
                strings = list(qs.all_strings(q, n))
                for s in range(n + 1):
                    groups = list(ch.deletion_groups(q, n, s))
                    shorter = list(qs.all_strings(q, n - s))
                    assert len(groups) == len(shorter), (q, n, s)
                    for z, group in zip(shorter, groups):
                        assert len(set(group)) == len(group), (q, n, s, z)
                        expected = {
                            rank for rank, x in enumerate(strings) if z in ch.deletion_set(x, s)
                        }
                        assert set(group) == expected, (q, n, s, z)
