import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from delins import bounds as bnd
from delins import channels as ch
from delins import qstrings as qs
from delins.errors import CapExceededError


class TestEdgeCountUpper:
    def test_examples(self):
        assert bnd.edge_count_upper(2, 1, 1, 0) == 6
        assert bnd.edge_count_upper(2, 2, 1, 1) == 64
        assert bnd.edge_count_upper(3, 4, 0, 0) == 81

    def test_dominates_true_edge_count(self):
        for q, l, a, b in [(2, 3, 1, 1), (2, 4, 2, 0), (3, 3, 1, 0)]:
            graph = ch.build_channel_graph(q, l, a, b)
            assert graph.edge_count <= bnd.edge_count_upper(q, l, a, b)


class TestDegreeLowerBound:
    def test_arithmetic_example(self):
        assert bnd.degree_lower_bound(2, 12, 8, 2, 1, 1) == 1

    def test_single_run_string_clamps_to_zero(self):
        # a constant string has r=1, c=1; any deletion makes the bound vanish
        assert bnd.degree_lower_bound(2, 6, 1, 1, 1, 0) == 0
        assert bnd.degree_lower_bound(2, 6, 1, 1, 2, 0) == 0

    def test_sound_against_brute_force_small(self):
        for q, n_max in ((2, 6), (3, 5)):
            for n in range(1, n_max + 1):
                for x in qs.all_strings(q, n):
                    stats = qs.string_stats(x)
                    for s in range(0, min(2, n) + 1):
                        for a in range(s + 1):
                            b = s - a
                            lower = bnd.degree_lower_bound(
                                q, n, stats.runs, stats.longest_alternating, a, b
                            )
                            actual = len(ch.channel_output_set(x, a, b, q))
                            assert lower <= actual, (q, x, a, b)


class TestAlternatingIntervalBound:
    def test_examples(self):
        assert bnd.alternating_interval_bound(2, 6, 4) == 24
        assert bnd.alternating_interval_bound(2, 5, 5) == 2
        assert bnd.alternating_interval_bound(3, 5, 3) == 162

    def test_whole_string_case_is_tight_binary(self):
        for n in range(2, 9):
            count = sum(
                1 for x in qs.all_strings(2, n) if qs.longest_alternating_interval(x) >= n
            )
            assert count == 2 == bnd.alternating_interval_bound(2, n, n)

    def test_sound_against_window_counts(self):
        for q in (2, 3):
            for n in range(2, 8):
                for c in range(2, n + 1):
                    count = sum(
                        1
                        for x in qs.all_strings(q, n)
                        if qs.longest_alternating_interval(x) >= c
                    )
                    assert count <= bnd.alternating_interval_bound(q, n, c)

    def test_rejects_out_of_range_cutoff(self):
        with pytest.raises(ValueError):
            bnd.alternating_interval_bound(2, 5, 1)
        with pytest.raises(ValueError):
            bnd.alternating_interval_bound(2, 5, 6)


class TestFewRunsBound:
    def test_examples(self):
        assert bnd.few_runs_bound(2, 10, 0.2) == pytest.approx(1024 * math.exp(-0.72))
        assert bnd.few_runs_bound(2, 7, 0.0) == 128
        assert bnd.few_runs_bound(2, 5, 0.5) == pytest.approx(32 * math.exp(-2))

    def test_worked_comparison(self):
        # length 10, eps 0.2: strings with at most 3 runs
        count = sum(qs.runs_distribution(2, 10, r) for r in (1, 2, 3))
        assert count == 92
        assert count <= bnd.few_runs_bound(2, 10, 0.2)

    def test_sound_against_histograms(self):
        for q in (2, 3):
            for n in range(1, 8):
                histogram = [0] * (n + 1)
                for x in qs.all_strings(q, n):
                    histogram[qs.run_count(x)] += 1
                for eps in (0.1, 0.2, 0.3, 0.5):
                    cutoff = math.floor(((q - 1) / q - eps) * (n - 1) + 1 + bnd.FLOAT_GUARD)
                    count = sum(histogram[: max(cutoff, 0) + 1])
                    limit = bnd.few_runs_bound(q, n, eps)
                    assert count <= limit + 1e-12 * max(1.0, limit)


class TestCodeBounds:
    def test_levenshtein_case(self):
        assert bnd.generalized_code_bound(2, 10, 2, 0) == Fraction(1024, 45)

    def test_improvement_ratio_example(self):
        gen = bnd.generalized_code_bound(2, 20, 2, 1)
        lev = bnd.generalized_code_bound(2, 20, 3, 0)
        assert gen / lev == Fraction(2, 3)

    def test_insertion_bound(self):
        assert bnd.insertion_code_bound(2, 10, 1) == Fraction(2048, 10)
        assert bnd.insertion_code_bound(3, 6, 0) == 3 ** 6

    def test_ratio_law(self):
        for q in (2, 3, 4):
            for n in range(1, 12):
                for s in range(0, n + 1):
                    assert bnd.insertion_code_bound(q, n, s) == q ** s * bnd.generalized_code_bound(q, n, s, 0)

    def test_generalized_at_full_insertion_matches_insertion_bound(self):
        for q, n, s in [(2, 8, 2), (3, 9, 3), (2, 12, 4)]:
            assert bnd.generalized_code_bound(q, n, 0, s) == bnd.insertion_code_bound(q, n, s)

    def test_rejects_too_many_errors(self):
        with pytest.raises(ValueError):
            bnd.generalized_code_bound(2, 3, 2, 2)


class TestOptimalB:
    @pytest.mark.parametrize("q,s,expected", [(2, 3, 1), (2, 2, 0), (2, 10, 3), (4, 3, 0)])
    def test_examples(self, q, s, expected):
        assert bnd.optimal_b(q, s) == expected

    def test_attains_sweep_minimum(self):
        for q in range(2, 11):
            for s in range(0, 31):
                values = [Fraction(q ** b, qs.binomial(s, b)) for b in range(s + 1)]
                formula = bnd.optimal_b(q, s)
                assert values[formula] == min(values), (q, s)

    def test_improvement_examples(self):
        assert bnd.improvement_factor(2, 3, 1) == Fraction(3, 2)
        assert bnd.improvement_factor(5, 7, 0) == 1
        assert bnd.improvement_factor(2, 10, 3) == 15

    def test_improvement_at_least_one_at_optimum(self):
        for q in range(2, 11):
            for s in range(0, 31):
                assert bnd.improvement_factor(q, s, bnd.optimal_b(q, s)) >= 1

    def test_exponential_growth_floor(self):
        # at the optimal mixture the gain is at least e^(b-1)/sqrt(b)
        for q in range(2, 11):
            for s in range(0, 31):
                b = bnd.optimal_b(q, s)
                if b >= 1:
                    gain = float(bnd.improvement_factor(q, s, b))
                    assert gain >= math.exp(b - 1) / math.sqrt(b) - 1e-9


class TestTypicalitySplit:
    def test_cutoff_exceeding_length_empties_alternating_class(self):
        split = bnd.typicality_split(2, 8, 1, 0)
        assert split.c_threshold == pytest.approx(9.0)
        assert split.alt_cutoff == 9
        assert split.long_alternating == 0

    def test_classes_cover_space(self):
        for q, n, a, b in [(2, 6, 1, 0), (2, 8, 1, 1), (3, 5, 1, 0)]:
            split = bnd.typicality_split(q, n, a, b)
            assert split.typical + split.long_alternating + split.few_runs >= q ** n

    def test_class_sizes_respect_bounds(self):
        for q, n, a, b in [(2, 7, 1, 0), (2, 9, 1, 1), (3, 5, 0, 1)]:
            split = bnd.typicality_split(q, n, a, b)
            if 2 <= split.alt_cutoff <= n:
                assert split.long_alternating <= bnd.alternating_interval_bound(
                    q, n, split.alt_cutoff
                )
            limit = bnd.few_runs_bound(q, n, split.eps)
            assert split.few_runs <= limit + 1e-12 * max(1.0, limit)

    def test_alternating_cutoff_is_exact_and_agrees_with_float_formula(self):
        # least c with q**c >= n**(s+2), against ceil((s+2) log_q n) in floats
        for q in range(2, 17):
            for n in range(2, 400):
                for s in range(12):
                    c = bnd.typicality_split(q, n, s, 0, cap=0).alt_cutoff
                    target = n ** (s + 2)
                    assert q ** c >= target and (c == 0 or q ** (c - 1) < target)
                    assert c == math.ceil((s + 2) * math.log(n, q) - bnd.FLOAT_GUARD), (q, n, s)

    def test_sizes_omitted_above_cap(self):
        split = bnd.typicality_split(2, 10, 1, 0, cap=100)
        assert split.typical is None
        assert split.eps > 0

    def test_rejects_tiny_length(self):
        with pytest.raises(ValueError):
            bnd.typicality_split(2, 1, 1, 0)


class TestAverageDegree:
    def test_identity_channel(self):
        result = bnd.average_degree(2, 5, 0, 0)
        assert result.average == 1 and result.asymptote == 1 and result.ratio == 1

    def test_single_deletion_average_is_average_run_count(self):
        # |outputs| under one deletion equals the run count
        for n in (4, 6):
            result = bnd.average_degree(2, n, 1, 0)
            expected = Fraction(
                sum(qs.run_count(x) for x in qs.all_strings(2, n)), 2 ** n
            )
            assert result.average == expected

    def test_brute_force_cross_check_via_graph(self):
        # the left degrees of the (n-1, 1, 1) graph are exactly the outputs
        n = 6
        result = bnd.average_degree(2, n, 1, 1)
        graph = ch.build_channel_graph(2, n - 1, 1, 1)
        assert result.average == Fraction(graph.edge_count, 2 ** n)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            bnd.average_degree(2, 18, 1, 1, cap=1 << 10)


class TestBoundReport:
    def test_generalized_minimized_at_best_b(self):
        for q, n, s in [(2, 20, 3), (2, 30, 6), (3, 30, 5), (4, 25, 3)]:
            rows = [bnd.bound_report(q, n, s, b) for b in range(s + 1)]
            best = rows[0].best_b
            by_b = {r.b: r.generalized for r in rows}
            assert by_b[best] == min(by_b.values())

    def test_improvement_is_lev_over_generalized_at_best(self):
        r = bnd.bound_report(2, 20, 3, 1)
        assert r.improvement == r.levenshtein / bnd.generalized_code_bound(2, 20, 2, 1)

    def test_csv_shape(self):
        rows = [bnd.bound_report(2, 20, 3, b) for b in range(4)]
        lines = list(bnd.report_csv_lines(rows))
        assert lines[0] == "q,n,a,b,s,levenshtein,generalized,insertion_bound,best_b,improvement"
        assert len(lines) == 5
        cells = lines[1].split(",")
        assert cells[:5] == ["2", "20", "3", "0", "3"]
        assert all("/" in cell for cell in (cells[5], cells[6], cells[7], cells[9]))

    def test_json_uses_numerator_denominator_strings(self):
        obj = bnd.report_json_obj([bnd.bound_report(2, 10, 2, 1)])
        row = obj["rows"][0]
        assert row["levenshtein"] == {"numerator": "1024", "denominator": "45"}
        assert isinstance(row["generalized"]["numerator"], str)
