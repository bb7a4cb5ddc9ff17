"""One pass of a workload in a fresh interpreter: set-up, the timed pass, and
optionally a traced pass.

run.py starts this script for each set-up sample (with --setup-only) and for
each measured pass, and reads the JSON object it prints last.  One process,
no extra threads: each task starts only after the previous one has been
checked (a closed loop with one client).  With --trace 1 the untraced pass
is followed by a traced one in the same process.

    python3 perfbench/worker.py --workload search --seed 1 --pass-index 0 --trace 0 --out DIR
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
PROBE_INTERVAL_S = 0.005
# About the probe's typical duration on the 2-core machine where the
# benchmark was defined; it only sets the scale of the rescaled times.
PROBE_REFERENCE_S = 60e-6
_PROBE_BASE = tuple(range(8))
_PROBE_MASK = (1 << 2048) - 1


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _probe_kernel() -> None:
    """A fixed mix of what delins spends its time on: tuple slicing and
    concatenation into a set, small table updates, big-integer masks."""
    seen = set()
    row = [0] * 8
    mask = _PROBE_MASK
    for i in range(40):
        seen.add(_PROBE_BASE[: i & 7] + (i & 3,) + _PROBE_BASE[i & 7 :])
        row[i & 7] = max(row[(i + 1) & 7], row[i & 7]) + 1
        low = mask & -mask
        mask ^= low


class SpeedProbe:
    """Samples how fast the machine runs Python while something is timed.

    On a shared machine the same pass can take 20% longer in one minute than
    in the next, and CPU time stretches with it.  A timer signal interrupts
    the timed code every PROBE_INTERVAL_S to time _probe_kernel, which runs
    no delins code.  scale() turns a time taken meanwhile into reference
    seconds: PROBE_REFERENCE_S over the kernel's mean duration, leaving out
    the slowest tenth of the samples, which are interrupts rather than the
    machine's pace.  It costs about 1%.
    """

    def __init__(self) -> None:
        self.samples: list[int] = []

    def _sample(self, signum: int, frame: Any) -> None:
        start = time.perf_counter_ns()
        _probe_kernel()
        self.samples.append(time.perf_counter_ns() - start)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(signal.SIGALRM, None)  # so that a short span has a sample too

    def kernel_s(self) -> float:
        kept = sorted(self.samples)[: max(1, len(self.samples) * 9 // 10)]
        return sum(kept) / len(kept) / 1e9

    def scale(self) -> float:
        return PROBE_REFERENCE_S / self.kernel_s()


def run_pass(tasks: list, rng: random.Random, run_task: Callable, tracer: Any = None) -> dict:
    """Run every task once, in an order drawn from rng, checking each answer."""
    order = list(tasks)
    rng.shuffle(order)
    gc.collect()
    failures, task_s = [], {}
    with SpeedProbe() as probe:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        for task in order:
            start = time.perf_counter()
            if tracer is None:
                problem = run_task(task)
            else:
                with tracer.span(task.name):
                    problem = run_task(task)
            task_s[task.name] = time.perf_counter() - start
            if problem is not None:
                failures.append(problem)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "wall_ref_s": wall * probe.scale(),
        "cpu_ref_s": cpu * probe.scale(),
        "probe_kernel_s": probe.kernel_s(),
        "probe_samples": len(probe.samples),
        "tasks": len(order),
        "task_s": task_s,
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # set-up: import delins from this tree, build the parser, warm up
    with SpeedProbe() as setup_probe:
        sys.path.insert(0, str(ROOT / "src"))
        import delins
        import workloads
        from delins import cli

        if not Path(delins.__file__).resolve().is_relative_to(ROOT / "src"):
            print(f"worker: imported delins from {delins.__file__}, not {ROOT / 'src'}", file=sys.stderr)
            return 2
        cli.build_parser()
        warmup = workloads.warmup(args.workload, args.out)
        warmup_failures = [f"warm-up {p}" for p in map(workloads.run_task, warmup) if p is not None]
        ready = time.monotonic()
    result: dict[str, Any] = {
        "ready": ready,
        "setup_scale": setup_probe.scale(),
        "warmup_tasks": len(warmup),
        "warmup_failures": warmup_failures,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    rng = random.Random(args.seed)
    tasks = workloads.tasks(args.workload, rng, args.out)
    for _ in range(args.pass_index):  # earlier passes drew their orders first
        rng.shuffle(list(tasks))
    result["pass"] = run_pass(tasks, rng, workloads.run_task)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        import layers
        from machine import machine_record

        tracer = layers.Tracer()
        with tracer.installed():
            traced = run_pass(tasks, rng, workloads.run_task, tracer)
        report = layers.LayerReport(tracer, traced["wall_ref_s"] - result["pass"]["wall_ref_s"])
        spans_path = Path(args.out) / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(str(spans_path), {"machine": machine_record(ROOT, args.seed), "workload": args.workload})
        result["traced_pass"] = traced
        result["per_layer"] = report.metrics()
        result["spans"] = tracer.span_count()
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
