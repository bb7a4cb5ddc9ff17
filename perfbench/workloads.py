"""Workload task lists with their pinned answers.

A task runs one exact instance through a public entry point of delins and
checks the answer against the value pinned here.  Answers are exact counts
(code sizes, edge counts, parameter counts, instance counts); search node
counts are not pinned, because the branch and bound may get cheaper.

The seed never changes which exhaustive instances run.  It draws the random
inputs of the channel workload's sample and shuffles the task order of each
pass, so every seed exercises the same code paths.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import tempfile
from dataclasses import dataclass
from typing import Callable

from delins import channels as ch
from delins import cli
from delins import oracle as orc
from delins.qstrings import format_qary, insertion_count, run_count

WORKLOADS = ("search", "channel", "verify")


@dataclass(frozen=True)
class Task:
    """One checked instance.

    run() returns None when the answer matches its pin, and otherwise a short
    description of what was wrong; it may also raise.
    """

    name: str
    run: Callable[[], str | None]


def run_task(task: Task) -> str | None:
    """Run one task and return None, or a failure line naming the instance.

    A wrong answer, an exception (a cap error included) and a non-zero exit
    code all count as a failed task; none of them stops the pass.
    """
    try:
        problem = task.run()
    except Exception as exc:  # the pass must go on; the failure names the instance
        problem = f"{type(exc).__name__}: {exc}"
    return None if problem is None else f"{task.name}: {problem}"


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _exit_problem(code: int, text: str) -> str:
    last = text.strip().splitlines()[-1:] or ["no output"]
    return f"exit {code} ({last[0]})"


def _field(pattern: str, text: str) -> str | None:
    m = re.search(pattern, text, re.MULTILINE)
    return m.group(1) if m else None


def search(q: int, n: int, s: int, size: int, vt_best: int | None = None) -> Task:
    """`delins search` must prove `size` maximum and re-verify the code."""

    def run() -> str | None:
        code, out = _cli(["search", "--q", str(q), "--n", str(n), "--s", str(s)])
        if code != 0:
            return _exit_problem(code, out)
        got = _field(r"^code_size=(\d+) \(maximum, verified=true\)$", out)
        if got is None:
            return f"no exact verified code size in output: {out.splitlines()[1:2]}"
        if int(got) != size:
            return f"got {got}, want {size}"
        got_vt = _field(r"^vt_best=(\d+)$", out)
        if vt_best is not None and got_vt != str(vt_best):
            return f"vt_best={got_vt}, want {vt_best}"
        return None

    return Task(f"search q={q} n={n} s={s}", run)


def graph(q: int, l: int, a: int, b: int, edges: int) -> Task:
    """`delins graph` must count `edges` edges inside the sandwich."""

    def run() -> str | None:
        code, out = _cli(["graph", *_graph_args(q, l, a, b)])
        if code != 0:
            return _exit_problem(code, out)
        return _graph_problem(out, edges)

    return Task(f"graph q={q} l={l} a={a} b={b}", run)


def graph_export(q: int, l: int, a: int, b: int, edges: int, tmp_dir: str) -> Task:
    """`delins graph --export` must write the header and one line per edge."""

    def run() -> str | None:
        with tempfile.TemporaryDirectory(dir=tmp_dir) as tmp:
            path = os.path.join(tmp, "edges.txt")
            code, out = _cli(["graph", *_graph_args(q, l, a, b), "--export", path])
            if code != 0:
                return _exit_problem(code, out)
            with open(path, encoding="utf-8") as fp:
                header = fp.readline().strip()
                lines = sum(1 for _ in fp)
        if header != f"{q} {l} {a} {b}":
            return f"header {header!r}, want '{q} {l} {a} {b}'"
        if lines != edges:
            return f"{lines} edge lines, want {edges}"
        return _graph_problem(out, edges)

    return Task(f"graph --export q={q} l={l} a={a} b={b}", run)


def _graph_args(q: int, l: int, a: int, b: int) -> list[str]:
    return ["--q", str(q), "--l", str(l), "--a", str(a), "--b", str(b)]


def _graph_problem(out: str, edges: int) -> str | None:
    got = _field(r"^edges=(\d+)$", out)
    if got != str(edges):
        return f"got {got} edges, want {edges}"
    if _field(r"^sandwich=(\w+)$", out) != "ok":
        return "edge count sandwich violated"
    return None


def codec_roundtrip(q: int, l: int, a: int, b: int, params: int) -> Task:
    """`delins codec --roundtrip` must round-trip all `params` parameters."""

    def run() -> str | None:
        code, out = _cli(["codec", "--roundtrip", *_graph_args(q, l, a, b)])
        if code != 0:
            return _exit_problem(code, out)
        got = _field(r"^all (\d+) parameters round-trip$", out)
        return None if got == str(params) else f"got {got} parameters, want {params}"

    return Task(f"codec --roundtrip q={q} l={l} a={a} b={b}", run)


def packing(q: int, n: int, a: int, b: int, bound: int) -> Task:
    """`oracle.packing_code_bound` (no subcommand exists) must equal `bound`."""

    def run() -> str | None:
        got = orc.packing_code_bound(q, n, a, b)
        return None if got == bound else f"got {got}, want {bound}"

    return Task(f"packing_code_bound q={q} n={n} a={a} b={b}", run)


def verify(q: int, max_n: int, instances: dict[str, int]) -> Task:
    """`delins verify` must print PASS on every line with the pinned counts."""

    def run() -> str | None:
        code, out = _cli(["verify", "--q", str(q), "--max-n", str(max_n)])
        if code != 0:
            return _exit_problem(code, out)
        got = {}
        for line in out.splitlines():
            m = re.fullmatch(r"(\S.*?)\s+(PASS|FAIL)\s+\(instances=(\d+)\)", line)
            if m is None:
                continue
            if m.group(2) != "PASS":
                return f"{m.group(1)}: FAIL"
            got[m.group(1)] = int(m.group(3))
        if got != instances:
            wrong = sorted(set(got.items()) ^ set(instances.items()))
            return f"instance counts differ from the pins: {wrong}"
        return None

    return Task(f"verify q={q} max-n={max_n}", run)


def equivalence(q: int, n: int, a: int, b: int) -> Task:
    """`channels.check_channel_equivalence` must hold at this instance."""

    def run() -> str | None:
        return None if ch.check_channel_equivalence(q, n, a, b) else "equivalence fails"

    return Task(f"check_channel_equivalence q={q} n={n} a={a} b={b}", run)


# The sample's shape is fixed; only the strings depend on the seed, so the
# work per pass is the same for every seed.
SAMPLE_SHAPE = tuple(
    (q, n, b) for q in (2, 3) for n in (14, 15, 16) for b in (1, 2)
)
SAMPLE_PER_SHAPE = 8


def draw_sample(rng: random.Random) -> list[tuple[int, tuple[int, ...], int]]:
    return [
        (q, tuple(rng.randrange(q) for _ in range(n)), b)
        for q, n, b in SAMPLE_SHAPE
        for _ in range(SAMPLE_PER_SHAPE)
    ]


def channel_sample(inputs: list[tuple[int, tuple[int, ...], int]]) -> Task:
    """Output-set sizes against exact counts that do not depend on the input
    beyond its run count: |D_1(x)| = runs(x), |I_b(x)| = insertion_count."""

    def run() -> str | None:
        for q, x, b in inputs:
            n = len(x)
            runs, grown = run_count(x), insertion_count(q, b, n + b)
            got = (
                len(ch.deletion_set(x, 1)),
                len(ch.channel_output_set(x, 1, 0, q)),
                len(ch.insertion_set(x, b, q)),
                len(ch.channel_output_set(x, 0, b, q)),
            )
            if got != (runs, runs, grown, grown):
                return f"x={format_qary(x, q)} q={q} b={b}: sizes {got}, want {(runs, runs, grown, grown)}"
        return None

    return Task(f"channel sample of {len(inputs)} random inputs", run)


VERIFY_PINS = {
    (3, 5): {
        "substring parallelogram": 416826,
        "channel conflict equivalence": 398547,
        "edge count sandwich": 30,
        "insert/delete inversion": 130368,
        "construct/deconstruct round-trip": 876,
        "degree lower bound": 2169,
        "alternating interval count": 10,
        "run count concentration": 20,
    },
    (4, 4): {
        "substring parallelogram": 280832,
        "channel conflict equivalence": 419376,
        "edge count sandwich": 24,
        "insert/delete inversion": 541800,
        "construct/deconstruct round-trip": 396,
        "degree lower bound": 2028,
        "alternating interval count": 6,
        "run count concentration": 16,
    },
    (2, 8): {
        "substring parallelogram": 10064,
        "channel conflict equivalence": 8172,
        "edge count sandwich": 30,
        "insert/delete inversion": 1976,
        "construct/deconstruct round-trip": 386,
        "degree lower bound": 3054,
        "alternating interval count": 28,
        "run count concentration": 32,
    },
    (2, 3): {
        "substring parallelogram": 208,
        "channel conflict equivalence": 492,
        "edge count sandwich": 18,
        "insert/delete inversion": 304,
        "construct/deconstruct round-trip": 8,
        "degree lower bound": 78,
        "alternating interval count": 3,
        "run count concentration": 12,
    },
}


def tasks(workload: str, rng: random.Random, tmp_dir: str) -> list[Task]:
    """The timed tasks of one workload, in their unshuffled order."""
    if workload == "search":
        return [
            search(2, 7, 1, 16, vt_best=16),
            search(2, 9, 2, 11),
            search(3, 6, 2, 11),
            search(4, 5, 2, 12),
            search(2, 10, 3, 6),
            search(2, 10, 4, 4),
            search(3, 7, 3, 7),
        ]
    if workload == "channel":
        return [
            graph(3, 8, 1, 1, 2115921),
            graph(2, 12, 2, 0, 434176),
            graph(2, 12, 0, 2, 434176),
            graph_export(2, 10, 1, 1, 118782, tmp_dir),
            codec_roundtrip(3, 8, 1, 1, 47952),
            codec_roundtrip(2, 12, 1, 1, 104992),
            packing(2, 12, 1, 1, 315),
            packing(2, 12, 0, 2, 154),
            channel_sample(draw_sample(rng)),
        ]
    if workload == "verify":
        return [
            verify(3, 5, VERIFY_PINS[3, 5]),
            verify(4, 4, VERIFY_PINS[4, 4]),
            verify(2, 8, VERIFY_PINS[2, 8]),
            equivalence(2, 9, 0, 3),
            equivalence(3, 5, 0, 4),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warmup(workload: str, tmp_dir: str) -> list[Task]:
    """Small untimed tasks that load every code path a workload's pass uses."""
    if workload == "search":
        return [search(2, 4, 1, 4, vt_best=4), search(2, 6, 2, 4)]
    if workload == "channel":
        return [
            graph(2, 4, 1, 1, 414),
            graph_export(2, 4, 1, 1, 414, tmp_dir),
            codec_roundtrip(2, 6, 1, 1, 16),
            packing(2, 6, 1, 1, 9),
            channel_sample(draw_sample(random.Random(0))[:1]),
        ]
    if workload == "verify":
        return [verify(2, 3, VERIFY_PINS[2, 3]), equivalence(2, 4, 0, 2)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

