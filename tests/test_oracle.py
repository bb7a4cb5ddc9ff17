import hashlib
import inspect
import io
from itertools import combinations, combinations_with_replacement
from operator import itemgetter

import pytest

from delins import bounds as bnd
from delins import channels as ch
from delins import codec as cdc
from delins import oracle as orc
from delins import qstrings as qs
from delins.errors import CapExceededError
from verify_reference import (
    concentration_full_scan,
    degree_lower_bound_full_scan,
    equivariance_counterexample,
    insert_delete_full_scan,
)


# SHA-256 of the CodeCertificate.write text of the exact search, as the
# search gave it before it had its root orbit rule: the benchmark's seven
# search rungs, then three small instances.  Pruning may change the node
# count of a search, never the code it returns.
CERTIFICATE_SHA256 = {
    (2, 7, 1): "20108c370b510e55036fd5ee1f47bd254de519ab98da6bba5385585cddf369f8",
    (2, 9, 2): "98d6df71d6c37fa347582ac6eed90d46d46a1de7dc7eaea36a0d4c32b661fa31",
    (3, 6, 2): "0ff611b15e218708df29998590a94d353305936889a1c9523a69132ed1153ac4",
    (4, 5, 2): "60e2d28b82821f6e281c45d13d2ffc8ec1aaf8f27195d0b5fe747f22b453cdb3",
    (2, 10, 3): "f0f81900fbc9db96500d39751e58941a42fd70247b7831441e5d791fbbea3a4c",
    (2, 10, 4): "ccd965ba5ee95dd566f6fe2a2a28e3c3512e8032c7b7b3515764ac529dc7df01",
    (3, 7, 3): "403e323cabd91c7f09f8574302698961e1f69cebacab104b3679cbf8d2c082cc",
    (2, 5, 1): "19209965cdd70e5fb8e8d4a8c4933f541a6209ef24630a9094ea496a12629c9b",
    (3, 3, 1): "faecd6d56a44132947dc9aaae66c632c821cc67758686adadbe7b66e3d2c07e9",
    (2, 5, 2): "12e8679e3cabe4876e37ed132d6805c46ee79f3df73eba8341dc5ede0d6e0321",
}


def certificate_sha256(cert):
    buf = io.StringIO()
    cert.write(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def rank_masks(graph):
    """graph.masks indexed by rank: bit j of row i is set iff the strings of
    ranks i and j conflict."""
    rows = [0] * graph.size
    for position, mask in enumerate(graph.masks):
        row = 0
        while mask:
            low = mask & -mask
            row |= 1 << graph.order[low.bit_length() - 1]
            mask ^= low
        rows[graph.order[position]] = row
    return rows


# The benchmark's seven search rungs, and the most search nodes each may take.
SEARCH_RUNGS = [(2, 7, 1), (2, 9, 2), (3, 6, 2), (4, 5, 2), (2, 10, 3), (2, 10, 4), (3, 7, 3)]
SEARCH_NODE_CEILINGS = [2426, 3436, 2953, 4060, 83, 1, 415]


class TestConflictGraph:
    def test_zero_errors_no_conflicts(self):
        graph = orc.build_conflict_graph(2, 4, 0)
        assert graph.conflict_count == 0

    def test_specific_conflict(self):
        graph = orc.build_conflict_graph(2, 3, 1)
        i = qs.rank_of((0, 0, 0), 2)
        j = qs.rank_of((0, 0, 1), 2)
        assert rank_masks(graph)[i] >> j & 1  # both strings contain 00

    def test_symmetric_and_irreflexive(self):
        graph = orc.build_conflict_graph(2, 4, 1)
        masks = rank_masks(graph)
        for i in range(graph.size):
            assert not masks[i] >> i & 1
            for j in range(graph.size):
                assert masks[i] >> j & 1 == masks[j] >> i & 1

    def test_matches_output_set_conflicts(self):
        # same relation built from the mixed-channel output sets
        for n in (3, 4, 5):
            masks = rank_masks(orc.build_conflict_graph(2, n, 2))
            strings = list(qs.all_strings(2, n))
            outputs = [ch.channel_output_set(x, 1, 1, 2) for x in strings]
            for i in range(len(strings)):
                for j in range(i + 1, len(strings)):
                    expected = not outputs[i].isdisjoint(outputs[j])
                    assert bool(masks[i] >> j & 1) == expected, (n, i, j)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            orc.build_conflict_graph(2, 20, 1, cap=1 << 10)

    def test_masks_match_pairwise_deletion_sets(self):
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
                    assert rank_masks(graph) == expected, (q, n, s)

    def test_positions_ascend_in_deletion_set_size_then_rank(self):
        # the search branches in position order, so this order fixes its
        # node counts and the certificates pinned below
        instances = [
            (q, n, s)
            for q, max_n in ((2, 6), (3, 4), (4, 3))
            for n in range(1, max_n + 1)
            for s in range(n + 1)
        ]
        for q, n, s in instances + SEARCH_RUNGS:
            graph = orc.build_conflict_graph(q, n, s)
            sizes = [len(ch.deletion_set(x, s)) for x in qs.all_strings(q, n)]
            expected = sorted(range(graph.size), key=lambda r: (sizes[r], r))
            assert list(graph.order) == expected, (q, n, s)

    def test_masks_commute_with_the_symmetry_generators(self):
        # the search's root orbit rule rests on this: each generator g of the
        # group (reversal, the transposition (0 1), the cycle c -> c+1) maps
        # the conflict graph onto itself, masks[g(v)] == g(masks[v])
        instances = [
            (q, n, s)
            for q, max_n in ((2, 8), (3, 5), (4, 4))
            for n in range(1, max_n + 1)
            for s in range(n + 1)
        ]
        instances += SEARCH_RUNGS
        generators = {
            "reversal": lambda x, q: x[::-1],
            "transposition": lambda x, q: tuple(1 - c if c < 2 else c for c in x),
            "cycle": lambda x, q: tuple((c + 1) % q for c in x),
        }
        images = {}
        for q, n, s in instances:
            graph = orc.build_conflict_graph(q, n, s)
            masks = rank_masks(graph)
            size, width = graph.size, f"0{graph.size}b"
            for name, gen in generators.items():
                if (q, n, name) not in images:
                    images[q, n, name] = [qs.rank_of(gen(x, q), q) for x in qs.all_strings(q, n)]
                image = images[q, n, name]
                inverse = [0] * size
                for v, gv in enumerate(image):
                    inverse[gv] = v
                # character k of a mask's binary text is rank size-1-k
                pick = itemgetter(*[size - 1 - inverse[size - 1 - k] for k in range(size)])
                for v in range(size):
                    moved = int("".join(pick(format(masks[v], width))), 2)
                    assert masks[image[v]] == moved, (q, n, s, name, v)

    def test_search_rows_are_conflicts_in_position_order(self):
        for q, n, s in [(2, 5, 1), (2, 6, 2), (3, 3, 1), (3, 4, 2), (4, 3, 1)]:
            graph = orc.build_conflict_graph(q, n, s)
            search = orc._CodeSearch(graph)
            masks, order = rank_masks(graph), graph.order
            for i, row in enumerate(search.conflicts):
                assert not row >> i & 1
                for j in range(graph.size):
                    if j != i:
                        assert row >> j & 1 == masks[order[i]] >> order[j] & 1

    def test_build_and_search_rows_build_no_deletion_set(self, monkeypatch):
        # both take their groups from the insertion balls of the shorter strings
        monkeypatch.setattr(ch, "deletion_set", lambda *args: pytest.fail("deletion_set called"))
        graph = orc.build_conflict_graph(2, 6, 2)
        search = orc._CodeSearch(graph)
        assert graph.conflict_count > 0
        assert search.size == graph.size

    def test_build_and_search_make_one_conflict_row_pass(self, monkeypatch):
        calls = []
        real = ch.conflict_masks

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(ch, "conflict_masks", counted)
        cert = orc.max_code_exact(orc.build_conflict_graph(2, 6, 2))
        assert cert.exact and cert.size == 4
        assert calls == [64]


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

    def test_certificates_are_pinned(self):
        for (q, n, s), digest in CERTIFICATE_SHA256.items():
            cert = orc.max_code_exact(orc.build_conflict_graph(q, n, s))
            assert cert.exact and cert.verified, (q, n, s)
            assert certificate_sha256(cert) == digest, (q, n, s)

    @pytest.mark.parametrize(
        ("q", "n", "s", "ceiling"),
        [rung + (ceiling,) for rung, ceiling in zip(SEARCH_RUNGS, SEARCH_NODE_CEILINGS)],
    )
    def test_node_count_stays_under_its_ceiling(self, q, n, s, ceiling):
        # pruning may get cheaper, never weaker, so a change that raises a
        # ceiling says so in CHANGES.md; (3, 6, 2) took 15,046 nodes without
        # the root orbit rule, and the codes found are pinned above
        search = orc._CodeSearch(orc.build_conflict_graph(q, n, s))
        _, completed = search.run(None)
        assert completed and search.nodes <= ceiling

    def test_timeout_returns_flagged_lower_bound(self):
        graph = orc.build_conflict_graph(2, 8, 1)
        cert = orc.max_code_exact(graph, time_limit=0.05)
        assert not cert.exact
        assert cert.verified
        assert cert.size >= 1

    @pytest.mark.parametrize("time_limit", [float("nan"), -1.0, float("-inf")])
    def test_time_limit_must_be_nonnegative(self, time_limit):
        # a NaN deadline is never passed, so the search would never time out
        with pytest.raises(ValueError, match="time limit"):
            orc.max_code_exact(orc.build_conflict_graph(2, 4, 1), time_limit=time_limit)


class TestInsertionOrder:
    # SHA-256 of `delins graph --q 3 --l 4 --a 1 --b 1 --export`, as test_cli pins it
    EXPORT_3411_SHA256 = "7bcfdcb2a2a347f3923d0c2e840c4981f20caac058fba957622e50107bfec324"

    def test_callers_do_not_depend_on_emission_order(self, monkeypatch):
        # insertion_ranks promises each rank once, unordered: with every list
        # the enumerator returns reversed, the conflict graph, the degree
        # histogram, an edge-list export and a search certificate stay the same
        def outputs():
            graph = orc.build_conflict_graph(2, 9, 2)
            edges = io.StringIO()
            ch.build_channel_graph(3, 4, 1, 1).write_edge_list(edges)
            return (
                (graph.order, graph.masks),
                ch.degree_histogram(3, 4, 1, 1),
                hashlib.sha256(edges.getvalue().encode()).hexdigest(),
                certificate_sha256(orc.max_code_exact(graph)),
            )

        forward = outputs()
        assert forward[2:] == (self.EXPORT_3411_SHA256, CERTIFICATE_SHA256[2, 9, 2])
        enumerate_ranks = ch._insertion_ranks
        reversed_calls = []

        def reversed_ranks(*args):
            reversed_calls.append(args)
            return enumerate_ranks(*args)[::-1]

        monkeypatch.setattr(ch, "_insertion_ranks", reversed_ranks)
        assert outputs() == forward
        assert reversed_calls


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


def packing_bound_full_scan(q, n, a, b):
    """The packing bound with every input classified and every typical
    input's output set built as tuples: the reference route for the orbit
    scan of orc.packing_code_bound."""
    split = bnd.typicality_split(q, n, a, b)
    typical = [
        x
        for x in qs.all_strings(q, n)
        if qs.longest_alternating_interval(x) < split.alt_cutoff
        and qs.run_count(x) > split.run_cutoff
    ]
    if not typical:
        return q ** n
    min_degree = min(len(ch.channel_output_set(x, a, b, q)) for x in typical)
    return q ** (n - a + b) // min_degree + q ** n - len(typical)


class TestPackingBound:
    def test_equals_the_full_scan(self):
        with_typical = 0
        for q, max_n in ((2, 9), (3, 5), (4, 4)):
            for n in range(2, max_n + 1):
                for a, b in [(a, s - a) for s in range(3) for a in range(min(s, n) + 1)]:
                    want = packing_bound_full_scan(q, n, a, b)
                    assert orc.packing_code_bound(q, n, a, b) == want, (q, n, a, b)
                    with_typical += want != q ** n
        assert with_typical >= 20

    def test_benchmark_pins(self):
        assert orc.packing_code_bound(2, 12, 1, 1) == 315
        assert orc.packing_code_bound(2, 12, 0, 2) == 154

    def test_exact_maximum_respects_packing_bound(self):
        for q, n, a, b in [(2, 6, 1, 0), (2, 6, 0, 1), (2, 7, 1, 0), (3, 4, 1, 0)]:
            bound = orc.packing_code_bound(q, n, a, b)
            exact = orc.max_code_exact(orc.build_conflict_graph(q, n, a + b)).size
            assert exact <= bound, (q, n, a, b)

    def test_degenerate_split_falls_back_to_space_size(self):
        # tiny lengths make every string atypical
        assert orc.packing_code_bound(2, 4, 1, 0) <= 2 ** 4 + 2 ** 4

    @pytest.mark.parametrize("a,b", [(-1, 0), (1, -2), (5, 0)])
    def test_rejects_invalid_channel_before_enumerating(self, monkeypatch, a, b):
        # the channel graph with inputs of length 4 has l = 4 - a: 5, 3, -1
        monkeypatch.setattr(orc, "orbit_tally", lambda *args: pytest.fail("enumerated"))
        with pytest.raises(
            ValueError, match=rf"^graph parameters must be nonnegative, got l={4 - a}, a={a}, b={b}$"
        ):
            orc.packing_code_bound(2, 4, a, b)

    def test_cap_exceeded_before_enumerating(self, monkeypatch):
        monkeypatch.setattr(orc, "orbit_tally", lambda *args: pytest.fail("enumerated"))
        with pytest.raises(CapExceededError) as err:
            orc.packing_code_bound(2, 23, 1, 1)
        assert err.value.required == 2 ** 23


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
        checks = orc.verify_all_lemmas(2, 5)
        assert len(checks) == 8
        for check in checks:
            assert check.passed, check
            assert check.instances > 0

    def test_ternary_small_all_pass(self):
        for check in orc.verify_all_lemmas(3, 4):
            assert check.passed, check

    def test_cap_exceeded_names_instance(self):
        with pytest.raises(CapExceededError) as err:
            orc.verify_all_lemmas(2, 40)
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
        checks = orc.verify_all_lemmas(2, 5)
        roundtrip = [c for c in checks if c.name == "construct/deconstruct round-trip"][0]
        assert not roundtrip.passed
        assert roundtrip.counterexample is not None

    @pytest.mark.parametrize(
        "refusal",
        [
            cdc.NotDeconstructableError("matches of equal length 1 deleting either head"),
            ValueError("delete step needs strings with different first symbols"),
        ],
    )
    def test_refused_delete_step_is_the_inversion_counterexample(self, monkeypatch, refusal):
        # a delete_step that refuses an instance, with its own error or a
        # plain ValueError, fails the inversion claim there, like a wrong
        # answer would; the other claims still run
        real = cdc.delete_step
        calls = []

        def refuses_fifth(x, y, q):
            calls.append((x, y))
            if len(calls) == 5:
                raise refusal
            return real(x, y, q)

        monkeypatch.setattr(cdc, "delete_step", refuses_fifth)
        checks = orc.verify_all_lemmas(2, 3)
        assert len(checks) == 8
        inversion = [c for c in checks if c.name == "insert/delete inversion"][0]
        assert (inversion.passed, inversion.instances) == (False, 5)
        assert inversion.counterexample == "q=2 side=left offset=1 w=00 u=1 v=0"
        assert all(c.passed for c in checks if c is not inversion)

    def test_claim_that_ran_no_instance_does_not_pass(self):
        checks = orc.verify_all_lemmas(2, 1)
        empty = [c for c in checks if c.instances == 0]
        assert [c.name for c in empty] == [
            "substring parallelogram",
            "insert/delete inversion",
            "construct/deconstruct round-trip",
            "alternating interval count",
        ]
        for check in empty:
            assert not check.passed
            assert check.counterexample == "no instance in range"
        assert all(c.passed for c in checks if c.instances > 0)


class TestClaimRegistry:
    # The benchmark times each claim as the span oracle.check.<key> by
    # rebinding the module attribute oracle._check_<key>.  A claim run some
    # other way, or a renamed key, would silently time as zero.
    def test_keys_are_the_benchmark_span_names(self):
        assert tuple(orc.CHECKS) == (
            "parallelogram",
            "channel_equivalence",
            "edge_bounds",
            "insert_delete",
            "roundtrip",
            "degree_lower_bound",
            "alternating_bound",
            "runs_bound",
        )
        defined = {
            name[len("_check_"):]
            for name, obj in vars(orc).items()
            if name.startswith("_check_") and inspect.isfunction(obj)
        }
        assert defined == set(orc.CHECKS)
        for key in orc.CHECKS:
            assert not inspect.isgeneratorfunction(getattr(orc, f"_check_{key}"))

    def test_rebinding_a_check_changes_what_verify_runs(self, monkeypatch):
        calls = []
        for i, key in enumerate(orc.CHECKS):
            def fake(q, limit, cap, key=key, i=i):
                calls.append((key, q, limit, cap))
                return i + 1, (f"fake {key}" if key == "roundtrip" else None)

            monkeypatch.setattr(orc, f"_check_{key}", fake)
        checks = orc.verify_all_lemmas(3, 2, cap=1000)
        assert calls == [(key, 3, 2, 1000) for key in orc.CHECKS]
        assert [(c.name, c.instances) for c in checks] == [
            (name, i + 1) for i, (name, _) in enumerate(orc.CHECKS.values())
        ]
        assert [c.name for c in checks if not c.passed] == ["construct/deconstruct round-trip"]
        assert checks[4].counterexample == "fake roundtrip"

    def test_run_check_takes_its_limit_and_verify_clamps_it(self):
        # run_check runs a claim at exactly its limit; verify_all_lemmas
        # runs it at min(ceiling, max_n), so at max_n = 8 the round trip
        # stops at its ceiling l = 6 and prints 386 instances
        assert orc.run_check("roundtrip", 2, 8).instances > 386
        checks = orc.verify_all_lemmas(2, 8)
        assert checks[4].instances == 386
        for check, (key, (_, ceiling)) in zip(checks, orc.CHECKS.items()):
            limit = 8 if ceiling is None else ceiling
            assert check == orc.run_check(key, 2, limit)


class TestEdgeSandwich:
    def test_known_instance(self):
        edges = ch.build_channel_graph(2, 1, 1, 0).edge_count
        constructable, upper = orc.edge_sandwich(2, 1, 1, 0)
        assert (constructable, edges, upper) == (0, 6, 6)

    def test_sandwich_holds_on_grid(self):
        for q, l, a, b in [(2, 4, 1, 1), (2, 5, 2, 0), (3, 3, 1, 0)]:
            edges = ch.build_channel_graph(q, l, a, b).edge_count
            constructable, upper = orc.edge_sandwich(q, l, a, b)
            assert constructable <= edges <= upper

    @pytest.mark.parametrize("q,max_n", [(2, 4), (3, 3), (4, 2)])
    def test_claim_counts_the_edges_of_the_built_graph(self, monkeypatch, q, max_n):
        # a sandwich that closes on the built graph's edge count passes, and
        # one just above it fails and names that count
        def exact(q, l, a, b, shift=0):
            edges = ch.build_channel_graph(q, l, a, b).edge_count
            return edges + shift, edges + shift

        monkeypatch.setattr(orc, "edge_sandwich", exact)
        assert orc.run_check("edge_bounds", q, max_n).passed
        monkeypatch.setattr(orc, "edge_sandwich", lambda *args: exact(*args, shift=1))
        check = orc.run_check("edge_bounds", q, max_n)
        edges = ch.build_channel_graph(q, 1, 0, 0).edge_count
        assert check.instances == 1
        assert check.counterexample == (
            f"q={q} l=1 a=0 b=0 constructable={edges + 1} edges={edges} upper={edges + 1}"
        )


def _pairwise_isdisjoint(words, s):
    """The direct pairwise rule: every two s-deletion sets are disjoint."""
    sets = [ch.deletion_set(w, s) for w in words]
    return all(a.isdisjoint(b) for a, b in combinations(sets, 2))


class TestPairwiseDisjointDeletions:
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("k", [2, 3])
    def test_union_rule_is_the_pairwise_rule(self, k, s):
        # every k-word subset of [2]^5, a word repeated included; no three
        # words of length 5 correct two deletions, so (3, 2) has no True
        outcomes = set()
        for words in combinations_with_replacement(qs.all_strings(2, 5), k):
            got = orc.pairwise_disjoint_deletions(words, s)
            assert got == _pairwise_isdisjoint(words, s), words
            outcomes.add(got)
        assert outcomes == ({False} if (k, s) == (3, 2) else {True, False})


def _unless(real, wrong, value):
    """real, except that it returns value where wrong(*args) holds."""
    return lambda *args: value if wrong(*args) else real(*args)


# (claim key, bound function, where it is wrong, its value there, then the
# claim's instances and counterexample at q = 2, limit 5)
BROKEN_BOUNDS = [
    # n = 1 and 2 run 2 * 3 + 4 * 6 instances; x = 000 meets (1, 1) fifth
    (
        "degree_lower_bound", "degree_lower_bound",
        lambda q, n, r, c, a, b: (n, a, b) == (3, 1, 1), 10 ** 6,
        35, "q=2 n=3 a=1 b=1 x=000 lower=1000000 actual=4",
    ),
    # (n, c) = (2, 2), (3, 2), (3, 3); 010 and 101 alternate over 3
    (
        "alternating_bound", "alternating_interval_bound",
        lambda q, n, c: (n, c) == (3, 3), 1,
        3, "q=2 n=3 c=3 count=2 bound=1",
    ),
    # four eps at n = 1, then 0.1, 0.2, 0.3 at n = 2
    (
        "runs_bound", "few_runs_bound",
        lambda q, n, eps: (n, eps) == (2, 0.3), 0.5,
        7, "q=2 n=2 eps=0.3 count=2 bound=0.5",
    ),
]


class TestClaimCounterexamples:
    # Each claim, run with one patched bound or skewed duality tables, fails
    # at the first instance the patch breaks and counts every instance up to
    # and including it.

    @pytest.mark.parametrize(
        "key,bound,wrong,value,instances,counterexample", BROKEN_BOUNDS
    )
    def test_a_broken_bound_is_the_counterexample(
        self, monkeypatch, key, bound, wrong, value, instances, counterexample
    ):
        monkeypatch.setattr(bnd, bound, _unless(getattr(bnd, bound), wrong, value))
        check = orc.run_check(key, 2, 5)
        assert (check.passed, check.instances, check.counterexample) == (
            False, instances, counterexample
        )

    @pytest.mark.parametrize("q", [2, 3])
    def test_skewed_duality_tables_are_the_parallelogram_counterexample(self, monkeypatch, q):
        # at m = 3 only, SCS three long on pairs with LCS 2 whose first and
        # last symbols differ; (m, n) = (2, 2), (2, 3), (2, 4) pass first,
        # every (m, n) up to (3, 2) checks one length l, and at (3, 2) the
        # pairs before x = 001 (rank 1), y = 01 (rank 1) number q**2 + 1
        tables = ch._duality_tables

        def skewed(q, m, n):
            ys = list(qs.all_strings(q, n))
            for x, lcs_row, scs_row in tables(q, m, n):
                yield x, lcs_row, [
                    scs + 3 if m == 3 and lcs == 2 and x[0] != y[-1] else scs
                    for y, lcs, scs in zip(ys, lcs_row, scs_row)
                ]

        monkeypatch.setattr(ch, "_duality_tables", skewed)
        check = orc.run_check("parallelogram", q, 4)
        assert (check.passed, check.instances, check.counterexample) == (
            False, q ** 4 + q ** 5 + q ** 6 + q ** 2 + 2, f"q={q} l=1 m=3 n=2 x=001 y=01"
        )

    def test_a_walk_that_misses_a_parameter_fails_the_round_trip(self, monkeypatch):
        # every edge the walk sees decodes, but its count is not the closed
        # form's; l = 1 has no parameter, and (l, a, b) = (2, 0, 0) has the
        # block of 00 and 11, which loses 11
        blocks = cdc.parameter_blocks

        def drops_one_string(*args):
            for sides, offsets, pools in blocks(*args):
                yield sides, offsets, pools[:-1] + (pools[-1][:-1],)

        monkeypatch.setattr(cdc, "parameter_blocks", drops_one_string)
        check = orc.run_check("roundtrip", 2, 6)
        assert (check.passed, check.instances, check.counterexample) == (
            False, 1, "q=2 l=2 a=0 b=0 walked=1 parameter_count=2"
        )


# The instance counts of the inversion and degree lines of `delins verify`
# at the benchmark's four grids (q, max_n).
VERIFY_GRID_COUNTS = {
    (3, 5): (130368, 2169),
    (4, 4): (541800, 2028),
    (2, 8): (1976, 3054),
    (2, 3): (304, 78),
}


def _counting(monkeypatch, module, name):
    """Rebind module.name to a wrapper that counts its calls."""
    real = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _refuses_right_steps_of_length_three(real):
    """delete_step, except that it refuses every RIGHT step of an interval
    of length 3: a fault every map c -> +-c + t mod q maps onto itself."""
    def refusing(x, y, q):
        triple, rest_x, rest_y = real(x, y, q)
        if triple.side == cdc.RIGHT and len(triple.interval) == 3:
            raise cdc.NotDeconstructableError("refused")
        return triple, rest_x, rest_y

    return refusing


class TestConcentrationClaims:
    # Both claims tally one string per orbit of symmetry_orbits; the full
    # scans in verify_reference must give the same report.

    @pytest.mark.parametrize("key", ["alternating_bound", "runs_bound"])
    @pytest.mark.parametrize("q,limit", [(2, 10), (3, 10)] + list(VERIFY_GRID_COUNTS))
    def test_orbit_tally_is_the_full_scan(self, key, q, limit):
        # criterion 04's grid, then the benchmark's four verify grids
        check = orc.run_check(key, q, limit)
        assert check.passed
        assert (check.instances, check.counterexample) == concentration_full_scan(key, q, limit)

    @pytest.mark.parametrize(
        "key,bound,wrong,value,instances,counterexample",
        [case for case in BROKEN_BOUNDS if case[0] != "degree_lower_bound"],
    )
    def test_a_broken_bound_fails_the_full_scan_alike(
        self, monkeypatch, key, bound, wrong, value, instances, counterexample
    ):
        # test_a_broken_bound_is_the_counterexample pins run_check to these
        monkeypatch.setattr(bnd, bound, _unless(getattr(bnd, bound), wrong, value))
        assert concentration_full_scan(key, 2, 5) == (instances, counterexample)


class TestSymmetryClassClaims:
    # verify runs the inversion claim on one interval per class of the maps
    # c -> +-c + t mod q and the degree lower bound on one string per orbit;
    # the full scans in verify_reference must give the same (instances,
    # counterexample).

    @pytest.mark.parametrize("q,max_n", list(VERIFY_GRID_COUNTS))
    def test_reduced_claims_are_the_full_scans_on_the_verify_grids(self, q, max_n):
        inversion_limit = min(orc.CHECKS["insert_delete"][1], max_n)
        inversion = orc._check_insert_delete(q, inversion_limit, ch.DEFAULT_CAP)
        degree = orc._check_degree_lower_bound(q, max_n, ch.DEFAULT_CAP)
        assert inversion == insert_delete_full_scan(q, inversion_limit)
        assert degree == degree_lower_bound_full_scan(q, max_n)
        assert (inversion, degree) == tuple((n, None) for n in VERIFY_GRID_COUNTS[q, max_n])

    @pytest.mark.parametrize("q,limit,instances", [(2, 6, 22572), (3, 3, 97440)])
    def test_inversion_at_suffix_length_three(self, monkeypatch, q, limit, instances):
        monkeypatch.setattr(orc, "SUFFIX_LENGTH", 3)
        got = orc._check_insert_delete(q, limit, ch.DEFAULT_CAP)
        assert got == insert_delete_full_scan(q, limit) == (instances, None)

    @pytest.mark.parametrize("q,limit", [(2, 5), (3, 4), (4, 3)])
    def test_a_shift_invariant_refusal_fails_both_routes_alike(self, monkeypatch, q, limit):
        monkeypatch.setattr(cdc, "delete_step", _refuses_right_steps_of_length_three(cdc.delete_step))
        got = orc._check_insert_delete(q, limit, ch.DEFAULT_CAP)
        assert got == insert_delete_full_scan(q, limit)
        assert got[1] == f"q={q} side=right offset=1 w=000 u= v="

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_a_bound_overshooting_at_one_orbit_fails_both_routes_alike(self, monkeypatch, q):
        # runs 3 and longest alternating interval 3 at n = 4, the orbit of
        # 0010, at split (1, 0); a bound sees only these statistics, so the
        # fault is the same on every string of the orbit
        wrong = lambda q, n, r, c, a, b: (n, r, c, a, b) == (4, 3, 3, 1, 0)
        monkeypatch.setattr(
            bnd, "degree_lower_bound", _unless(bnd.degree_lower_bound, wrong, 10 ** 6)
        )
        got = orc._check_degree_lower_bound(q, 4, ch.DEFAULT_CAP)
        assert got == degree_lower_bound_full_scan(q, 4)
        assert got[1].startswith(f"q={q} n=4 a=1 b=0 x=0010 lower=1000000 ")

    @pytest.mark.parametrize("q,limit", [(3, 5), (4, 4)])
    def test_codec_steps_commute_with_every_shift_and_negation(self, q, limit):
        # the symmetry the reduced inversion claim rests on, on its full grid
        assert equivariance_counterexample(q, limit) is None

    @pytest.mark.parametrize(
        "wrong",
        [
            # neither head is 0, which no instance with w[0] = 0 has (w is
            # the head of x or of y)
            lambda x, y, w, q: x[0] and y[0],
            # the negation of the interval is smaller, which the claim skips
            lambda x, y, w, q: tuple([-c % q for c in w]) < w,
        ],
        ids=["shift", "negation"],
    )
    @pytest.mark.parametrize("q,limit", [(3, 4), (4, 3)])
    def test_equivariance_refuses_a_fault_off_the_representatives(
        self, monkeypatch, q, limit, wrong
    ):
        # wrong only on instances the reduced claim does not run, so it
        # passes: only the equivariance check and the full scan see it
        real = cdc.delete_step

        def mutant(x, y, q):
            triple, rest_x, rest_y = real(x, y, q)
            if wrong(x, y, triple.interval, q):
                raise cdc.NotDeconstructableError("mutant")
            return triple, rest_x, rest_y

        monkeypatch.setattr(cdc, "delete_step", mutant)
        assert orc.run_check("insert_delete", q, limit).passed
        assert insert_delete_full_scan(q, limit)[1] is not None
        assert equivariance_counterexample(q, limit) is not None

    @pytest.mark.parametrize("q,max_n", [(2, 7), (3, 4), (4, 3)])
    def test_degree_claim_inputs_are_orbit_invariant(self, q, max_n):
        for n in range(1, max_n + 1):
            orbit_of = qs.symmetry_orbits(q, n)
            splits = orc._splits(min(orc.MAX_S, n))

            def profile(r):
                x = qs.string_of(r, q, n)
                counts = [len(ch.output_ranks(x, a, b, q)) for a, b in splits]
                return qs.string_stats(x), counts

            representative = {r: profile(r) for r in set(orbit_of)}
            for r, orbit in enumerate(orbit_of):
                assert profile(r) == representative[orbit], (q, n, r)

    @pytest.mark.parametrize(
        "q,limit,calls,instances", [(3, 5, 22504, 130368), (4, 4, 77658, 541800)]
    )
    def test_inversion_calls_delete_step_once_per_class(
        self, monkeypatch, q, limit, calls, instances
    ):
        # the intervals with w[0] = 0, one in q, less those whose negation
        # is smaller: a little over instances / (2 * q)
        counted = _counting(monkeypatch, cdc, "delete_step")
        assert orc.run_check("insert_delete", q, limit).instances == instances
        assert len(counted) == calls

    @pytest.mark.parametrize(
        "q,max_n,calls", [(3, 5, 249), (4, 4, 105), (2, 8, 897), (2, 3, 33)]
    )
    def test_degree_claim_bounds_once_per_orbit_and_split(self, monkeypatch, q, max_n, calls):
        # e.g. (3, 5): 1, 2, 4, 10 and 25 orbits at n = 1..5, 3 splits at
        # n = 1 and 6 above, 3 + 41 * 6 = 249 calls for 2,169 instances
        counted = _counting(monkeypatch, bnd, "degree_lower_bound")
        orc.run_check("degree_lower_bound", q, max_n)
        assert len(counted) == calls
