"""delins benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload search --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: it imports delins from src/ there.  Every
pass runs in a fresh interpreter, so that its peak resident memory is the
workload's own and no one process's memory layout sets the time; set-up is
timed in those and in set-up-only interpreters before, between and after
them.  With --trace 0 the last line of output is a JSON object with the
end-to-end metrics, with --trace 1 one with the per-layer metrics.  The whole record, with the
machine it ran on, goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import loadavg, machine_record

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "channel", "verify")
TIME_LIMIT_S = 170  # the whole run, every process included

# (name, unit); each is better when lower.  BENCHMARK.json lists the same
# names.  Raw times swing by 20% between runs on a shared machine, so the
# bounded times, setup_s included, are rescaled by worker.SpeedProbe; the
# summary prints the raw wall_s and cpu_s as well.
END_TO_END = (
    ("wall_ref_s", "s"),
    ("cpu_ref_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)
REPORTED = END_TO_END + (("wall_s", "s"), ("cpu_s", "s"))


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _worker(args: argparse.Namespace, deadline: float, *extra: str) -> tuple[float, dict]:
    """Start worker.py in a fresh interpreter; return its start time and result."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--out", str(HERE / "out"), *extra,
    ]
    # tuple and int hashes are fixed anyway; this fixes str hashes as well
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {TIME_LIMIT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return started, json.loads(lines[-1])


def measure(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    machine = machine_record(ROOT, args.seed)
    setup_s, runs = [], []

    def setup_probe() -> None:
        started, probe = _worker(args, deadline, "--setup-only")
        setup_s.append((probe["ready"] - started) * probe["setup_scale"])

    # Set-up samples come before, between and after the passes, so that they
    # see the machine at more than one speed.
    begun = time.monotonic()
    while True:
        setup_probe()
        started, run = _worker(args, deadline, "--pass-index", str(len(runs)))
        setup_s.append((run["ready"] - started) * run["setup_scale"])
        runs.append(run)
        elapsed = time.monotonic() - begun
        # start another pass only if one of average length still fits
        if args.trace or elapsed + elapsed / len(runs) > args.seconds:
            break
    setup_probe()
    machine["loadavg_end"] = loadavg()

    untraced = [run["pass"] for run in runs]
    passes = untraced + [run["traced_pass"] for run in runs if "traced_pass" in run]
    failures = [f for run in runs for f in run["warmup_failures"]]
    failures += [f for p in passes for f in p["failures"]]
    attempted = sum(run["warmup_tasks"] for run in runs) + sum(p["tasks"] for p in passes)
    end_to_end = {
        "wall_ref_s": statistics.median(p["wall_ref_s"] for p in untraced),
        "cpu_ref_s": statistics.median(p["cpu_ref_s"] for p in untraced),
        "peak_rss_mib": statistics.median(run["peak_rss_mib"] for run in runs),
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
    }
    if args.trace:
        metrics = runs[0]["per_layer"]
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "setup_samples_s": setup_s,
        "end_to_end": end_to_end,
        "failed_ratio": len(failures) / attempted,
        "failures": failures,
        "runs": runs,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        },
    }


def summary(record: dict) -> list[str]:
    result, runs = record["result"], record["runs"]
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"{len(runs)} untraced pass(es) of {runs[0]['pass']['tasks']} checked tasks, "
        f"load {record['machine']['loadavg_start']} -> {record['machine']['loadavg_end']}",
    ]
    units = dict(REPORTED)
    for name, value in record["end_to_end"].items():
        lines.append(f"  {name:<14} {value:.6g} {units[name]}")
    lines.append(
        f"  {'failed_ratio':<14} {record['failed_ratio']:.6g} "
        f"({result['failed']} of {result['attempted']} tasks)"
    )
    if record["trace"]:
        lines.append(f"  per layer, traced pass ({runs[0]['spans']} spans in {runs[0]['spans_file']}):")
        for name, metric in result["metrics"].items():
            lines.append(f"    {name:<58} {metric['value']:.6g} {metric['unit']}")
    lines.extend(f"FAILED {failure}" for failure in record["failures"])
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="how long the passes may take")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "delins" / "__init__.py").is_file():
        print(f"perfbench: no delins source at {ROOT / 'src' / 'delins'}", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    path = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(summary(record)))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
