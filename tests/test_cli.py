import hashlib
import json
from fractions import Fraction

import pytest

from delins import cli


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

    def test_cap_exceeded_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--q", "2", "--max-n", "40")
        assert code == 3
        assert "cap" in err.lower()
        assert "n=40" in err


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

    def test_timeout_exit_four(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--q", "2", "--n", "8", "--s", "1",
            "--time-limit", "0.05",
        )
        assert code == 4
        assert "lower bound" in out


class TestCodec:
    def test_deconstruct_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "codec", "--deconstruct", "00100", "0000")
        assert code == 0
        assert out.strip() == "z0=00; left 1 00"

    def test_deconstruct_ambiguous_tie(self, capsys):
        code, out, _ = run_cli(capsys, "codec", "--deconstruct", "10", "01")
        assert code == 0
        assert out.startswith("NotDeconstructable")

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

    def test_roundtrip_decode_failure_exits_one(self, capsys, monkeypatch):
        def refuse(x, y, q, on_step=None):
            raise cli.cdc.NotDeconstructableError("forced")

        monkeypatch.setattr(cli.cdc, "deconstruct", refuse)
        code, out, err = run_cli(
            capsys, "codec", "--roundtrip", "--q", "2", "--l", "6", "--a", "1", "--b", "1"
        )
        assert code == 1
        assert out.startswith("round-trip FAILED for x=")
        assert "usage error" not in err

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
        ],
    )
    def test_construct_rejects_a_bad_parameter_file(self, capsys, tmp_path, text, err):
        path = tmp_path / "params.txt"
        path.write_text(text)
        assert run_cli(capsys, "codec", "--construct", str(path)) == (2, "", err)

    def test_codec_without_action_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "codec")
        assert code == 2


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
