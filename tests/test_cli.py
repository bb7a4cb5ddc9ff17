import hashlib
import json
import os
import shlex
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from delins import channels as ch
from delins import cli
from delins import codec as cdc


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_csv_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--q", "2", "--n", "15", "--s", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,n,a,b,s,levenshtein,generalized,insertion_bound,best_b,improvement"
        assert len(lines) == 3  # b = 0 and b = 1
        first = lines[1].split(",")
        assert first[:5] == ["2", "15", "1", "0", "1"]

    def test_mixture_beats_deletion_only_when_errors_exceed_alphabet(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--q", "2", "--n", "20", "--s", "3", "--format", "csv"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        by_b = {int(r[3]): Fraction(*map(int, r[6].split("/"))) for r in rows}
        assert by_b[1] / by_b[0] == Fraction(2, 3)
        assert all(int(r[8]) == 1 for r in rows)

    def test_large_alphabet_prefers_pure_deletion(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--q", "4", "--n", "30", "--s", "3", "--format", "csv"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert all(int(r[8]) == 0 for r in rows)

    def test_csv_deterministic(self, capsys):
        _, first, _ = run_cli(
            capsys, "bounds", "--q", "2", "3", "--n", "30", "--s", "2", "4", "--format", "csv"
        )
        _, second, _ = run_cli(
            capsys, "bounds", "--q", "3", "2", "--n", "30", "--s", "4", "2", "--format", "csv"
        )
        assert first == second

    def test_json_rationals(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--q", "2", "--n", "10", "--s", "2", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        row0 = obj["rows"][0]
        assert row0["levenshtein"] == {"numerator": "1024", "denominator": "45"}

    def test_text_mode_shows_fraction_and_decimal(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--q", "2", "--n", "10", "--s", "2")
        assert code == 0
        assert "1024/45" in out
        assert "22.7556" in out

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("csv", "75ef09d18f7ef76209be3782c3de34d4db6c6f7ef6af36cd74479afb7e41b11b"),
            ("json", "3f5e93f868c6d2fad6b21d3a8ca2710828f586f2cb36f0c739f58844ed7c0bfc"),
            ("text", "4679ea6622c36e7db727fe2cc27ffdf67c386fdf88c22d19b6c41c3672d8dc12"),
        ],
    )
    def test_stdout_digest(self, capsys, fmt, digest):
        # the whole table, byte for byte, in each format
        code, out, _ = run_cli(
            capsys,
            "bounds", "--q", "2", "3", "4", "5", "11", "--n", "7", "30", "100",
            "--s", "0", "1", "2", "3", "4", "5", "6", "--format", fmt,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys,
            "bounds", "--q", "2", "--n", "15", "--s", "1",
            "--format", "csv", "--output", str(path),
        )
        assert code == 0
        assert path.read_text().startswith("q,n,a,b,s,")

    def test_invalid_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--q", "2", "--n", "3", "--s", "5")
        assert code == 2
        assert "usage error" in err

    def test_missing_subcommand_usage(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()


VERIFY_Q2_N5 = """\
substring parallelogram           PASS  (instances=10064)
channel conflict equivalence      PASS  (instances=8172)
edge count sandwich               PASS  (instances=30)
insert/delete inversion           PASS  (instances=1976)
construct/deconstruct round-trip  PASS  (instances=108)
degree lower bound                PASS  (instances=366)
alternating interval count        PASS  (instances=10)
run count concentration           PASS  (instances=20)
"""

# the default --max-n 7: every grid ceiling (5, or 6 for the round trip) binds
VERIFY_Q2_N7 = """\
substring parallelogram           PASS  (instances=10064)
channel conflict equivalence      PASS  (instances=8172)
edge count sandwich               PASS  (instances=30)
insert/delete inversion           PASS  (instances=1976)
construct/deconstruct round-trip  PASS  (instances=386)
degree lower bound                PASS  (instances=1518)
alternating interval count        PASS  (instances=21)
run count concentration           PASS  (instances=28)
"""

VERIFY_Q3_N4 = """\
substring parallelogram           PASS  (instances=31914)
channel conflict equivalence      PASS  (instances=44253)
edge count sandwich               PASS  (instances=24)
insert/delete inversion           PASS  (instances=38412)
construct/deconstruct round-trip  PASS  (instances=135)
degree lower bound                PASS  (instances=711)
alternating interval count        PASS  (instances=6)
run count concentration           PASS  (instances=16)
"""


class TestVerify:
    def test_binary_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--q", "2", "--max-n", "5")
        assert code == 0
        assert out == VERIFY_Q2_N5

    def test_binary_default_sweep_clamps_to_the_ceilings(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--q", "2")
        assert code == 0
        assert out == VERIFY_Q2_N7

    def test_ternary_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--q", "3", "--max-n", "4")
        assert code == 0
        assert out == VERIFY_Q3_N4

    @pytest.mark.parametrize("max_n", ["-3", "0", "1"])
    def test_max_n_below_two_is_usage_error(self, capsys, max_n):
        # below 2 some claims have no instance at all; a PASS line would be empty
        code, out, err = run_cli(capsys, "verify", "--q", "2", "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert "usage error" in err and "--max-n" in err

    @pytest.mark.parametrize(
        "refusal",
        [
            cdc.NotDeconstructableError("matches of equal length 1 deleting either head"),
            ValueError("delete step needs strings with different first symbols"),
        ],
    )
    def test_refused_delete_step_fails_its_line(self, capsys, monkeypatch, refusal):
        # a refusal inside the inversion check is that claim's counterexample
        # (exit 1, every line printed), not a usage error
        real = cdc.delete_step
        calls = []

        def refuses_fifth(x, y, q):
            calls.append((x, y))
            if len(calls) == 5:
                raise refusal
            return real(x, y, q)

        monkeypatch.setattr(cdc, "delete_step", refuses_fifth)
        code, out, err = run_cli(capsys, "verify", "--q", "2", "--max-n", "3")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[3:5] == [
            "insert/delete inversion           FAIL  (instances=5)",
            "  counterexample: q=2 side=left offset=1 w=00 u=1 v=0",
        ]
        assert sum(" PASS " in line for line in lines) == 7

    def test_cap_exceeded_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--q", "2", "--max-n", "40")
        assert code == 3
        assert "cap" in err.lower()
        assert "n=40" in err

    def test_cap_refusal_inside_a_claim_names_its_instance(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--q", "5", "--max-n", "5")
        assert (code, out) == (3, "")
        assert err.startswith("cap exceeded: parallelogram pair enumeration at q=5 m=5 n=5 needs")


class TestGraph:
    def test_six_edge_instance(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--q", "2", "--l", "1", "--a", "1", "--b", "0")
        assert code == 0
        assert "edges=6" in out
        assert "sandwich=ok" in out

    def test_perfect_matching(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--q", "2", "--l", "3", "--a", "0", "--b", "0")
        assert code == 0
        assert "edges=8" in out
        assert "degree_min=1" in out and "degree_max=1" in out

    def test_sandwich_reported(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--q", "2", "--l", "4", "--a", "1", "--b", "1")
        assert code == 0
        fields = dict(
            part.split("=", 1) for line in out.splitlines() for part in [line] if "=" in line
        )
        assert int(fields["constructable"]) <= int(fields["edges"]) <= int(fields["upper"])

    def test_export_file(self, capsys, tmp_path):
        path = tmp_path / "edges.txt"
        code, out, _ = run_cli(
            capsys, "graph", "--q", "2", "--l", "1", "--a", "1", "--b", "0",
            "--export", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "2 1 1 0"
        assert len(lines) == 7

    def test_export_is_bit_identical(self, capsys, tmp_path):
        # edge lists are bit-reproducible: one full text and two digests pinned
        path = tmp_path / "edges.txt"
        code, _, _ = run_cli(
            capsys, "graph", "--q", "2", "--l", "2", "--a", "1", "--b", "1",
            "--export", str(path),
        )
        assert code == 0
        assert path.read_text() == (
            "2 2 1 1\n000 000\n000 001\n000 010\n000 100\n001 000\n001 001\n"
            "001 010\n001 011\n001 100\n001 101\n010 000\n010 001\n010 010\n"
            "010 011\n010 100\n010 101\n010 110\n011 001\n011 010\n011 011\n"
            "011 101\n011 110\n011 111\n100 000\n100 001\n100 010\n100 100\n"
            "100 101\n100 110\n101 001\n101 010\n101 011\n101 100\n101 101\n"
            "101 110\n101 111\n110 010\n110 011\n110 100\n110 101\n110 110\n"
            "110 111\n111 011\n111 101\n111 110\n111 111\n"
        )
        digests = {
            ("3", "4", "1", "1"): "7bcfdcb2a2a347f3923d0c2e840c4981f20caac058fba957622e50107bfec324",
            ("2", "6", "0", "2"): "499b48e280eeeb2f541bbd9d6a73880c91fd5a93ae0204603f8f52048a2cd518",
        }
        for (q, l, a, b), digest in digests.items():
            code, _, _ = run_cli(
                capsys, "graph", "--q", q, "--l", l, "--a", a, "--b", b, "--export", str(path),
            )
            assert code == 0
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_cap_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "graph", "--q", "2", "--l", "30", "--a", "1", "--b", "1")
        assert code == 3

    def test_cap_exit_three_before_any_enumeration(self, capsys, monkeypatch):
        for name in ("orbit_tally", "output_ranks", "all_strings", "insertion_ranks"):
            monkeypatch.setattr(ch, name, lambda *args: pytest.fail("enumerated past the cap"))
        code, out, err = run_cli(capsys, "graph", "--q", "2", "--l", "30", "--a", "1", "--b", "1")
        assert (code, out) == (3, "")
        assert err.startswith("cap exceeded: channel graph vertex enumeration")

    # stdout that the full-graph route prints; the orbit route must match it
    FULL_STDOUT = {
        ("3", "4", "1", "1"): (
            "q=3 l=4 a=1 b=1\nleft=243 right=243\nedges=8301\nconstructable=0\n"
            "upper=9801\nsandwich=ok\ndegree_min=11 degree_avg=2767/81 (34.1605) "
            "degree_max=47\nconstructable_ratio=0/1 (0)\n"
        ),
        ("2", "6", "2", "0"): (
            "q=2 l=6 a=2 b=0\nleft=256 right=64\nedges=2368\nconstructable=8\n"
            "upper=2368\nsandwich=ok\ndegree_min=1 degree_avg=37/4 (9.25) "
            "degree_max=22\nconstructable_ratio=1/296 (0.00337838)\n"
        ),
        ("4", "2", "0", "2"): (
            "q=4 l=2 a=0 b=2\nleft=16 right=256\nedges=1072\nconstructable=0\n"
            "upper=1072\nsandwich=ok\ndegree_min=67 degree_avg=67/1 (67) "
            "degree_max=67\nconstructable_ratio=0/1 (0)\n"
        ),
    }

    def test_stats_without_building_the_graph(self, capsys, monkeypatch):
        monkeypatch.setattr(
            ch, "build_channel_graph", lambda *args: pytest.fail("graph built without --export")
        )
        for (q, l, a, b), text in self.FULL_STDOUT.items():
            code, out, _ = run_cli(capsys, "graph", "--q", q, "--l", l, "--a", a, "--b", b)
            assert (code, out) == (0, text)

    def test_export_prints_the_same_stats(self, capsys, tmp_path):
        path = tmp_path / "edges.txt"
        for (q, l, a, b), text in self.FULL_STDOUT.items():
            code, out, _ = run_cli(
                capsys, "graph", "--q", q, "--l", l, "--a", a, "--b", b, "--export", str(path)
            )
            assert (code, out) == (0, text + f"edge list written to {path}\n")

    @pytest.mark.parametrize("route", ["orbit", "built"])
    def test_export_cross_check_mismatch_exits_one(self, capsys, monkeypatch, tmp_path, route):
        # one input loses one output on one route only
        if route == "orbit":
            real_output_ranks = ch.output_ranks

            def corrupted(x, a, b, q):
                out = real_output_ranks(x, a, b, q)
                if x == (0, 0, 0):
                    out.discard(max(out))
                return out

            monkeypatch.setattr(ch, "output_ranks", corrupted)
        else:
            real_build = ch.build_channel_graph

            def corrupted(*args):
                graph = real_build(*args)
                adjacency = (graph.adjacency[0][1:],) + graph.adjacency[1:]
                return ch.ChannelGraph(graph.q, graph.l, graph.a, graph.b, adjacency)

            monkeypatch.setattr(ch, "build_channel_graph", corrupted)
        path = tmp_path / "edges.txt"
        # with and without insertions: both go through output_ranks
        for a, b in (("1", "1"), ("1", "0")):
            code, out, err = run_cli(
                capsys, "graph", "--q", "2", "--l", "2", "--a", a, "--b", b, "--export", str(path)
            )
            assert (code, out) == (1, ""), (a, b)
            assert err.startswith(
                f"check failed: q=2 l=2 a={a} b={b}: the built graph's degree histogram"
            )
            assert not path.exists()


class TestSearch:
    def test_small_single_deletion(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--q", "2", "--n", "4", "--s", "1")
        assert code == 0
        assert "code_size=4 (maximum" in out
        assert "vt_best=4" in out

    def test_full_stdout(self, capsys):
        expected = {
            ("2", "6", "1"): "q=2 n=6 s=1\ncode_size=10 (maximum, verified=true)\nvt_best=10\n"
            "levenshtein_bound=32/3 (10.6667)\ngeneralized_bound_at_b=0: 32/3 (10.6667)\n"
            "insertion_bound=64/3 (21.3333)\n",
            ("3", "4", "2"): "q=3 n=4 s=2\ncode_size=3 (maximum, verified=true)\n"
            "levenshtein_bound=27/8 (3.375)\ngeneralized_bound_at_b=0: 27/8 (3.375)\n"
            "insertion_bound=243/8 (30.375)\n",
        }
        for (q, n, s), text in expected.items():
            code, out, _ = run_cli(capsys, "search", "--q", q, "--n", n, "--s", s)
            assert code == 0
            assert out == text

    def test_zero_errors(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--q", "2", "--n", "5", "--s", "0")
        assert code == 0
        assert "code_size=32" in out

    def test_certificate_file(self, capsys, tmp_path):
        # certificates are bit-reproducible, so their whole text is pinned
        expected = {
            ("2", "6", "1"): "2 6 1 10 true\n000000\n000011\n001100\n001111\n010010\n"
            "101101\n110000\n110011\n111100\n111111\n",
            ("3", "4", "2"): "3 4 2 3 true\n0000\n1111\n2222\n",
        }
        for (q, n, s), text in expected.items():
            path = tmp_path / f"{q}-{n}-{s}.code"
            code, _, _ = run_cli(
                capsys, "search", "--q", q, "--n", n, "--s", s, "--certificate", str(path),
            )
            assert code == 0
            assert path.read_text() == text

    def test_failed_certificate_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.orc, "pairwise_disjoint_deletions", lambda words, s: False)
        code, _, err = run_cli(capsys, "search", "--q", "2", "--n", "4", "--s", "1")
        assert code == 1
        assert err.startswith("check failed: certificate contains a conflicting pair")
        assert "usage error" not in err

    def test_cap_refusal_names_its_instance(self, capsys):
        code, out, err = run_cli(capsys, "search", "--q", "2", "--n", "13", "--s", "1")
        assert (code, out) == (3, "")
        assert err == (
            "cap exceeded: conflict graph vertex enumeration at q=2 n=13 s=1 needs 8192 "
            "enumerated items but the cap is 4096; rerun with a cap of at least 8192\n"
        )

    def test_timeout_exit_four(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--q", "2", "--n", "8", "--s", "1",
            "--time-limit", "0.05",
        )
        assert code == 4
        assert "lower bound" in out

    @pytest.mark.parametrize("limit", ["-1", "-0.5"])
    def test_time_limit_must_be_nonnegative(self, capsys, limit):
        code, out, err = run_cli(
            capsys, "search", "--q", "2", "--n", "4", "--s", "1", f"--time-limit={limit}"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: time limit must be a nonnegative number")

    @pytest.mark.parametrize(
        "text",
        ["\u0661", "\uff12", "1_0", "+1", " 2", "2 ", "inf", "nan", "-inf", "1e3", "1.", ".5", "0x1"],
    )
    def test_time_limit_refuses_other_text(self, capsys, text):
        # the integer rule with an optional '.' and digits; float() alone
        # takes every one of these but 0x1
        code, out, err = run_cli(
            capsys, "search", f"--time-limit={text}", "--q", "2", "--n", "4", "--s", "1"
        )
        assert (code, out) == (2, "")
        assert "argument --time-limit: invalid" in err

    @pytest.mark.parametrize("text", ["0", "30", "2.5", "0.000"])
    def test_time_limit_takes_ascii_decimals(self, capsys, text):
        code, out, err = run_cli(
            capsys, "search", "--q", "2", "--n", "4", "--s", "1", "--time-limit", text
        )
        assert (code, err) == (0, "")
        assert "code_size=4 (maximum" in out


class TestCodec:
    def test_deconstruct_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "codec", "--deconstruct", "00100", "0000")
        assert code == 0
        assert out.strip() == "z0=00; left 1 00"

    def test_deconstruct_ambiguous_tie(self, capsys):
        code, out, _ = run_cli(capsys, "codec", "--deconstruct", "10", "01")
        assert code == 0
        assert out.startswith("NotDeconstructable")

    @pytest.mark.parametrize(
        "q,x,y",
        [
            ("3", "\u0661\u0662\u0660", "\u0662\u0660"),  # Arabic-Indic digits
            ("2", "\u0661\u0660", "0"),
            ("3", "\uff11", "0"),  # fullwidth 1
            ("11", "1_0", "1"),
            ("11", " 2,+3", "2"),
        ],
    )
    def test_deconstruct_rejects_text_outside_the_format(self, capsys, q, x, y):
        code, out, err = run_cli(capsys, "codec", "--q", q, "--deconstruct", x, y)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: expected ")

    def test_trace_lines(self, capsys):
        code, out, _ = run_cli(capsys, "codec", "--trace", "--deconstruct", "00100", "0000")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "left 1 00 |  "  # both remainders empty after the only step
        assert lines[-1] == "z0=00; left 1 00"

    def test_roundtrip_command(self, capsys):
        # no composition of 5 into 3 parts >= 2: nothing to round-trip
        code, out, err = run_cli(
            capsys, "codec", "--roundtrip", "--q", "2", "--l", "5", "--a", "1", "--b", "1"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "usage error: no edge parameter exists at q=2 l=5 a=1 b=1, "
            "so a round trip would check nothing\n"
        )
        code, out, _ = run_cli(
            capsys, "codec", "--roundtrip", "--q", "2", "--l", "6", "--a", "1", "--b", "1"
        )
        assert code == 0
        assert out == "all 16 parameters round-trip\n"

    @pytest.mark.parametrize("given", ["", "--l 6", "--l 6 --a 1", "--a 1 --b 1"])
    def test_roundtrip_needs_every_graph_parameter(self, capsys, given):
        code, out, err = run_cli(capsys, "codec", "--roundtrip", *given.split())
        assert (code, out, err) == (2, "", "usage error: --roundtrip needs --l, --a and --b\n")

    def test_roundtrip_decode_failure_exits_one(self, capsys, monkeypatch):
        def refuse(rx, ry, q, on_step=None):
            raise cli.cdc.NotDeconstructableError("forced")

        monkeypatch.setattr(cli.cdc, "undo_steps", refuse)
        code, out, err = run_cli(
            capsys, "codec", "--roundtrip", "--q", "2", "--l", "6", "--a", "1", "--b", "1"
        )
        assert code == 1
        assert out.startswith("round-trip FAILED for x=")
        assert out.endswith(" (parameter 1 of 16)\n")
        assert "usage error" not in err

    def test_roundtrip_failure_names_its_position(self, capsys, monkeypatch):
        # match splits one tail's rests wrongly: the tail (00, 11) of the
        # second block, whose first edge is the tenth parameter of (2, 6, 1, 1)
        tenth = ((0, 0, 0, 0, 0, 1, 1), (0, 0, 1, 0, 0, 1, 1))
        match = cli.cdc.match
        rests = match(*tenth)[1:]

        def splits_late(x, y):
            p, u, v = match(x, y)
            return (p + u[:1], u[1:], v[1:]) if (x, y) == rests else (p, u, v)

        monkeypatch.setattr(cli.cdc, "match", splits_late)
        code, out, _ = run_cli(
            capsys, "codec", "--roundtrip", "--q", "2", "--l", "6", "--a", "1", "--b", "1"
        )
        assert (code, out) == (1, "round-trip FAILED for x=0000011 y=0010011 (parameter 10 of 16)\n")

    def test_match_wrong_on_one_whole_edge_shows_in_its_deconstruct(self, capsys, monkeypatch):
        # the round trip calls match on rests only, so it passes a match
        # wrong on the whole sixth edge; deconstructing that edge shows it
        sixth = ((1, 1, 1, 0, 0, 1, 1), (1, 1, 0, 0, 0, 1, 1))
        match = cli.cdc.match

        def misreports_sixth(x, y):
            z0, rx, ry = match(x, y)
            return (z0[:-1], rx, ry) if (x, y) == sixth else (z0, rx, ry)

        assert run_cli(capsys, "codec", "--deconstruct", "1110011", "1100011")[1] == (
            "z0=11; left 1 00; right 1 11\n"
        )
        monkeypatch.setattr(cli.cdc, "match", misreports_sixth)
        code, out, _ = run_cli(
            capsys, "codec", "--roundtrip", "--q", "2", "--l", "6", "--a", "1", "--b", "1"
        )
        assert (code, out) == (0, "all 16 parameters round-trip\n")
        assert run_cli(capsys, "codec", "--deconstruct", "1110011", "1100011")[1] == (
            "z0=1; left 1 00; right 1 11\n"
        )

    def test_roundtrip_count_must_be_the_parameter_count(self, capsys, monkeypatch):
        # a walk that misses a parameter passes every edge it sees; the
        # closed-form count catches it
        blocks = cli.cdc.parameter_blocks

        def drops_one_string(*args):
            for i, (sides, offsets, pools) in enumerate(blocks(*args)):
                yield sides, offsets, (pools[:-1] + (pools[-1][:-1],) if i == 0 else pools)

        monkeypatch.setattr(cli.cdc, "parameter_blocks", drops_one_string)
        code, out, _ = run_cli(
            capsys, "codec", "--roundtrip", "--q", "2", "--l", "6", "--a", "1", "--b", "1"
        )
        assert (code, out) == (
            1, "round-trip FAILED: the walk checked 12 parameters, parameter_count is 16\n"
        )

    def test_construct_from_file(self, capsys, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("z0 00\nleft 1 00\n")
        code, out, _ = run_cli(capsys, "codec", "--construct", str(path))
        assert code == 0
        assert out.strip() == "x=00100 y=0000"

    @pytest.mark.parametrize(
        "text,err",
        [
            ("z0 00\nleft 0 00\n", "usage error: offset must be in [1, 1], got 0\n"),
            ("z0 00\nleft 1\n", "usage error: bad triple line: 'left 1' "
             "(want 'left|right offset interval')\n"),
            ("z000\nleft 1 00\n", "usage error: parameter file must start with a "
             "'z0 <string>' line\n"),
            ("z0 00 11\nleft 1 00\n", "usage error: parameter file must start with a "
             "'z0 <string>' line\n"),
        ],
    )
    def test_construct_rejects_a_bad_parameter_file(self, capsys, tmp_path, text, err):
        path = tmp_path / "params.txt"
        path.write_text(text)
        assert run_cli(capsys, "codec", "--construct", str(path)) == (2, "", err)

    def test_codec_without_action_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "codec")
        assert code == 2

    @pytest.mark.parametrize("modes", [
        "--deconstruct 00100 0000 --roundtrip",
        "--deconstruct 00100 0000 --construct params.txt",
        "--construct params.txt --roundtrip",
    ])
    def test_codec_takes_one_mode(self, capsys, modes):
        code, out, _ = run_cli(capsys, "codec", *modes.split(), "--l", "6", "--a", "1", "--b", "1")
        assert (code, out) == (2, "")


class TestUnopenablePath:
    """A path the tool cannot open is a usage error, not a traceback."""

    def test_codec_construct_missing_file(self, capsys, tmp_path):
        path = tmp_path / "missing"
        code, out, err = run_cli(capsys, "codec", "--construct", str(path), "--q", "2")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and str(path) in err

    def test_search_certificate_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "nodir" / "x.code"
        code, _, err = run_cli(
            capsys, "search", "--q", "2", "--n", "4", "--s", "1", "--certificate", str(path)
        )
        assert code == 2
        assert err.startswith("usage error: ") and str(path) in err

    def test_graph_export_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "nodir" / "e.txt"
        code, _, err = run_cli(
            capsys, "graph", "--q", "2", "--l", "1", "--a", "1", "--b", "0", "--export", str(path)
        )
        assert code == 2
        assert err.startswith("usage error: ") and str(path) in err


def _run_with_closed_stdout(args, unbuffered):
    """Run `python -m delins.cli args` with stdout on a pipe whose read end
    is closed before the command starts: (exit code, stderr)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "delins.cli", *args],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    return done.returncode, done.stderr


class TestClosedStdout:
    """A reader that goes away is neither bad input nor a failed check."""

    # unbuffered, the first print meets the closed pipe; buffered, the
    # flush after the command does
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "args", ["search --q 2 --n 7 --s 1", "codec --deconstruct 01 10", "verify --q 2 --max-n 3"]
    )
    def test_exits_141_with_nothing_on_stderr(self, args, unbuffered):
        # 141 = 128 + SIGPIPE, what a shell reports for a SIGPIPE death
        assert _run_with_closed_stdout(args.split(), unbuffered) == (128 + signal.SIGPIPE, b"")


# A valid command per subcommand and its integer options.  The option under
# test comes first with the text under test, so were that text taken, the
# valid value after it would win and the small command would run.
INTEGER_OPTIONS = {
    "bounds --q 2 --n 5 --s 1": ("--q", "--n", "--s"),
    "verify --q 2 --max-n 3": ("--q", "--max-n", "--cap"),
    "graph --q 2 --l 2 --a 1 --b 0": ("--q", "--l", "--a", "--b", "--cap"),
    "search --q 2 --n 4 --s 1": ("--q", "--n", "--s", "--cap"),
    "codec --roundtrip --q 2 --l 6 --a 1 --b 1": ("--q", "--l", "--a", "--b", "--cap"),
}


class TestIntegerText:
    """Integers are an optional ASCII '-' then ASCII digits; int() alone
    would also take '+', underscores, spaces and the digits of other
    scripts."""

    @pytest.mark.parametrize(
        "command,option",
        [(command, option) for command, options in INTEGER_OPTIONS.items() for option in options],
    )
    @pytest.mark.parametrize(
        "text", ["\u0662", "\uff12", "1_0", "+1", " 2", "2.0"]
    )
    def test_every_integer_option_refuses_other_text(self, capsys, command, option, text):
        subcommand, *rest = command.split()
        code, out, err = run_cli(capsys, subcommand, option, text, *rest)
        assert (code, out) == (2, "")
        assert f"argument {option}: invalid" in err

    def test_arabic_indic_digits_do_not_run_as_a_graph(self, capsys):
        code, out, err = run_cli(
            capsys, "graph", "--q", "\u0662", "--l", "\u0661", "--a", "1", "--b", "0"
        )
        assert (code, out) == (2, "")
        assert "argument --q: invalid" in err

    def test_underscore_and_plus_do_not_run_as_a_graph(self, capsys):
        code, out, err = run_cli(capsys, "graph", "--q", "2", "--l", "1_0", "--a", "+1", "--b", "0")
        assert (code, out) == (2, "")
        assert "argument --l: invalid" in err
        code, out, err = run_cli(capsys, "graph", "--q", "2", "--l", "10", "--a", "+1", "--b", "0")
        assert (code, out) == (2, "")
        assert "argument --a: invalid" in err

    @pytest.mark.parametrize("offset", ["\u0661", "+1", "0_1", "1.0", "\uff11"])
    def test_parameter_file_offset_refuses_other_text(self, capsys, tmp_path, offset):
        path = tmp_path / "params.txt"
        path.write_text(f"z0 00\nleft {offset} 00\n", encoding="utf-8")
        assert run_cli(capsys, "codec", "--construct", str(path)) == (
            2, "", f"usage error: expected a decimal integer, got {offset!r}\n"
        )

    def test_negative_values_reach_the_command(self, capsys, tmp_path):
        # a '-' is part of the integer text, so the command gives its own message
        code, out, err = run_cli(capsys, "graph", "--q", "2", "--l", "-1", "--a", "1", "--b", "0")
        assert (code, out, err) == (
            2, "", "usage error: graph parameters must be nonnegative, got l=-1, a=1, b=0\n"
        )
        assert run_cli(
            capsys, "codec", "--roundtrip", "--q", "2", "--l", "-1", "--a", "0", "--b", "0"
        ) == (2, "", "usage error: graph parameters must be nonnegative, got l=-1, a=0, b=0\n")
        path = tmp_path / "params.txt"
        path.write_text("z0 00\nleft -1 00\n", encoding="utf-8")
        assert run_cli(capsys, "codec", "--construct", str(path)) == (
            2, "", "usage error: offset must be in [1, 1], got -1\n"
        )


def readme_commands():
    """Every `delins ...` line of the README's "Command line" block, as argv lists."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("delins ")]


def test_readme_command_lines_parse():
    # parsing only: no subcommand runs, so no file is written
    commands = readme_commands()
    assert len(commands) >= 5
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0], argv
