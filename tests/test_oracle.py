import io

import pytest

from delins import bounds as bnd
from delins import channels as ch
from delins import codec as cdc
from delins import oracle as orc
from delins import qstrings as qs
from delins.errors import CapExceededError


class TestConflictGraph:
    def test_zero_errors_no_conflicts(self):
        graph = orc.build_conflict_graph(2, 4, 0)
        assert graph.conflict_count == 0

    def test_specific_conflict(self):
        graph = orc.build_conflict_graph(2, 3, 1)
        i = qs.rank_of((0, 0, 0), 2)
        j = qs.rank_of((0, 0, 1), 2)
        assert graph.conflicts(i, j)  # both strings contain 00

    def test_symmetric_and_irreflexive(self):
        graph = orc.build_conflict_graph(2, 4, 1)
        for i in range(graph.size):
            assert not graph.conflicts(i, i)
            for j in range(graph.size):
                assert graph.conflicts(i, j) == graph.conflicts(j, i)

    def test_matches_output_set_conflicts(self):
        # same relation built from the mixed-channel output sets
        for n in (3, 4, 5):
            graph = orc.build_conflict_graph(2, n, 2)
            strings = list(qs.all_strings(2, n))
            outputs = [ch.channel_output_set(x, 1, 1, 2) for x in strings]
            for i in range(len(strings)):
                for j in range(i + 1, len(strings)):
                    expected = not outputs[i].isdisjoint(outputs[j])
                    assert graph.conflicts(i, j) == expected, (n, i, j)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            orc.build_conflict_graph(2, 20, 1, cap=1 << 10)

    def test_masks_and_costs_match_pairwise_deletion_sets(self):
        # independent of the group-mask build: direct pairwise isdisjoint
        for q, max_n in ((2, 6), (3, 4), (4, 3)):
            for n in range(1, max_n + 1):
                strings = list(qs.all_strings(q, n))
                for s in range(n + 1):
                    graph = orc.build_conflict_graph(q, n, s)
                    del_sets = [ch.deletion_set(x, s) for x in strings]
                    expected = [
                        sum(
                            1 << j
                            for j, other in enumerate(del_sets)
                            if j != i and not mine.isdisjoint(other)
                        )
                        for i, mine in enumerate(del_sets)
                    ]
                    assert list(graph.masks) == expected, (q, n, s)
                    assert list(graph.costs) == [len(d) for d in del_sets], (q, n, s)

    def test_search_rows_are_conflicts_in_position_order(self):
        for q, n, s in [(2, 5, 1), (2, 6, 2), (3, 3, 1), (3, 4, 2), (4, 3, 1)]:
            graph = orc.build_conflict_graph(q, n, s)
            search = orc._CodeSearch(graph)
            order = search.order
            for i, row in enumerate(search.conflicts):
                assert not row >> i & 1
                for j in range(graph.size):
                    if j != i:
                        assert bool(row >> j & 1) == graph.conflicts(order[i], order[j])


class TestMaxCodeExact:
    def test_four_word_anchor(self):
        cert = orc.max_code_exact(orc.build_conflict_graph(2, 4, 1))
        assert cert.size == 4
        assert cert.verified and cert.exact
        assert orc.pairwise_disjoint_deletions(cert.codewords, 1)

    def test_no_errors_gives_whole_space(self):
        cert = orc.max_code_exact(orc.build_conflict_graph(2, 3, 0))
        assert cert.size == 8

    def test_everything_deleted_gives_singleton(self):
        cert = orc.max_code_exact(orc.build_conflict_graph(2, 3, 3))
        assert cert.size == 1

    def test_monotone_nonincreasing_in_s(self):
        sizes = [
            orc.max_code_exact(orc.build_conflict_graph(2, 5, s)).size for s in range(6)
        ]
        assert sizes[0] == 32
        assert all(sizes[i] >= sizes[i + 1] for i in range(len(sizes) - 1))

    def test_ternary_instance(self):
        cert = orc.max_code_exact(orc.build_conflict_graph(3, 3, 1))
        assert cert.verified and cert.exact
        assert orc.pairwise_disjoint_deletions(cert.codewords, 1)

    def test_timeout_returns_flagged_lower_bound(self):
        graph = orc.build_conflict_graph(2, 8, 1)
        cert = orc.max_code_exact(graph, time_limit=0.05)
        assert not cert.exact
        assert cert.verified
        assert cert.size >= 1

    def test_cap_guard(self):
        graph = orc.build_conflict_graph(2, 6, 1)
        with pytest.raises(CapExceededError):
            orc.max_code_exact(graph, cap=10)


class TestVtCode:
    def test_residue_zero_length_four(self):
        cert = orc.vt_code(4, 0)
        assert set(cert.codewords) == {(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1)}
        assert cert.size == 4
        assert cert.verified

    def test_every_residue_is_independent_in_conflict_graph(self):
        for n in range(1, 11):
            for residue in range(n + 1):
                cert = orc.vt_code(n, residue)
                assert cert.verified
                assert orc.pairwise_disjoint_deletions(cert.codewords, 1)

    def test_residues_partition_the_space(self):
        for n in range(1, 11):
            total = sum(orc.vt_code(n, r).size for r in range(n + 1))
            assert total == 2 ** n

    def test_best_residue_matches_exact_maximum_small(self):
        for n in (4, 5, 6):
            exact = orc.max_code_exact(orc.build_conflict_graph(2, n, 1)).size
            assert orc.best_vt_size(n) == exact

    def test_rejects_bad_residue(self):
        with pytest.raises(ValueError):
            orc.vt_code(4, 5)


class TestPackingBound:
    def test_exact_maximum_respects_packing_bound(self):
        for q, n, a, b in [(2, 6, 1, 0), (2, 6, 0, 1), (2, 7, 1, 0), (3, 4, 1, 0)]:
            bound = orc.packing_code_bound(q, n, a, b)
            exact = orc.max_code_exact(orc.build_conflict_graph(q, n, a + b)).size
            assert exact <= bound, (q, n, a, b)

    def test_degenerate_split_falls_back_to_space_size(self):
        # tiny lengths make every string atypical
        assert orc.packing_code_bound(2, 4, 1, 0) <= 2 ** 4 + 2 ** 4

    def test_no_typical_input_found_is_an_error(self, monkeypatch):
        # the split counts typical inputs, but the scan is made to see none
        monkeypatch.setattr(
            orc, "string_stats", lambda x: qs.StringStats(runs=len(x), longest_alternating=10 ** 6)
        )
        with pytest.raises(RuntimeError, match="q=2 n=6 a=1 b=0"):
            orc.packing_code_bound(2, 6, 1, 0)


class TestFormulaValueTracking:
    def test_formula_value_vs_exact_maximum_is_tracked_not_asserted(self):
        # the generalized bound is asymptotic; at small lengths its value may
        # fall below the exact maximum, which is tracked here, while the
        # certified packing bound must always hold
        flagged = []
        for n in range(3, 8):
            for s in (1, 2):
                if s > n:
                    continue
                exact = orc.max_code_exact(orc.build_conflict_graph(2, n, s)).size
                for b in range(s + 1):
                    formula = bnd.generalized_code_bound(2, n, s - b, b)
                    if formula < exact:
                        flagged.append((n, s, b, exact, str(formula)))
        for item in flagged:
            print(f"FORMULA-BELOW-EXACT n={item[0]} s={item[1]} b={item[2]} "
                  f"exact={item[3]} formula={item[4]}")
        # sanity: tracked list is well-formed, nothing more is claimed
        assert all(len(item) == 5 for item in flagged)


class TestCertificateFormat:
    def test_header_and_words(self):
        cert = orc.vt_code(4, 0)
        buf = io.StringIO()
        cert.write(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "2 4 1 4 true"
        assert len(lines) == 5
        assert "0000" in lines[1:]

    def test_verify_rejects_conflicting_set(self):
        bad = orc.CodeCertificate(2, 3, 1, ((0, 0, 0), (0, 0, 1)), False, True)
        with pytest.raises(ValueError):
            orc.verify_certificate(bad)


class TestVerifyAllLemmas:
    def test_binary_defaults_all_pass(self):
        checks = orc.verify_all_lemmas(2, orc.VerifyCaps(max_n=5, pair_length=4, graph_l=4, codec_l=5))
        assert len(checks) == 8
        for check in checks:
            assert check.passed, check
            assert check.instances > 0

    def test_ternary_small_all_pass(self):
        caps = orc.VerifyCaps(max_n=4, pair_length=3, graph_l=3, codec_l=4, interval_length=4)
        for check in orc.verify_all_lemmas(3, caps):
            assert check.passed, check

    def test_cap_exceeded_names_instance(self):
        with pytest.raises(CapExceededError) as err:
            orc.verify_all_lemmas(2, orc.VerifyCaps(max_n=40))
        assert "n=40" in str(err.value)

    def test_corrupted_delete_step_is_caught(self, monkeypatch):
        # a codec that silently picks a side on ties and misorders matches
        # must produce a round-trip counterexample
        def broken_delete_step(x, y, q):
            gap = (x[0] - y[0]) % q
            left_prefix, lx, ly = cdc.match(x[1:], y)
            right_prefix, rx, ry = cdc.match(x, y[1:])
            if len(left_prefix) >= len(right_prefix):  # wrong on ties and order
                return cdc.InsertTriple(cdc.RIGHT, (-gap) % q, right_prefix), rx, ry
            return cdc.InsertTriple(cdc.LEFT, gap, left_prefix), lx, ly

        monkeypatch.setattr(cdc, "delete_step", broken_delete_step)
        checks = orc.verify_all_lemmas(2, orc.VerifyCaps(max_n=5, pair_length=3, graph_l=3, codec_l=5))
        roundtrip = [c for c in checks if c.name == "construct/deconstruct round-trip"][0]
        assert not roundtrip.passed
        assert roundtrip.counterexample is not None


class TestEdgeSandwich:
    def test_known_instance(self):
        constructable, edges, upper = orc.edge_sandwich(2, 1, 1, 0)
        assert (constructable, edges, upper) == (0, 6, 6)

    def test_sandwich_holds_on_grid(self):
        for q, l, a, b in [(2, 4, 1, 1), (2, 5, 2, 0), (3, 3, 1, 0)]:
            constructable, edges, upper = orc.edge_sandwich(q, l, a, b)
            assert constructable <= edges <= upper
