"""Fast checks of the benchmark itself.

    python3 -m pytest perfbench -q

They write only under perfbench/out/, like the benchmark.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from delins import oracle  # noqa: E402


def scratch(name: str) -> Path:
    path = OUT / "test" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_wrong_answers_are_failed_tasks_and_the_pass_goes_on():
    tasks = [
        workloads.search(2, 4, 1, 5),  # the maximum is 4
        workloads.Task("conflict graph q=2 n=13", lambda: oracle.build_conflict_graph(2, 13, 1)),
        workloads.graph(1, 2, 1, 1, 0),  # q=1 is a usage error, exit 2
        workloads.search(2, 5, 1, 6, vt_best=6),
    ]
    result = worker.run_pass(tasks, random.Random(0), workloads.run_task)
    assert result["tasks"] == 4
    assert len(result["task_s"]) == 4
    failures = sorted(result["failures"])
    assert len(failures) == 3
    assert failures[0].startswith("conflict graph q=2 n=13: CapExceededError: ")
    assert failures[1].startswith("graph q=1 l=2 a=1 b=1: exit 2 (usage error: ")
    assert failures[2] == "search q=2 n=4 s=1: got 4, want 5"


def delins_attributes() -> dict:
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "delins" or name.startswith("delins."):
            found.update({(name, attr): obj for attr, obj in vars(mod).items()})
    for cls, attr, _ in layers.METHODS:
        found[(cls.__qualname__, attr)] = vars(cls)[attr]
    return found


def test_traced_pass_restores_every_wrapped_attribute():
    tmp = str(scratch("trace"))
    tasks = [t for name in workloads.WORKLOADS for t in workloads.warmup(name, tmp)]
    before = delins_attributes()
    tracer = layers.Tracer()
    with tracer.installed():
        during = delins_attributes()
        result = worker.run_pass(tasks, random.Random(0), workloads.run_task, tracer)
    after = delins_attributes()

    wrapped = {key for key in before if during[key] is not before[key]}
    # name-bound imports and methods are traced, not only the defining module
    for key in [
        ("delins.channels", "deletion_set"),
        ("delins.bounds", "channel_output_set"),
        ("delins.oracle", "all_strings"),
        ("delins", "deconstruct"),
        ("_CodeSearch", "run"),
        ("ChannelGraph", "write_edge_list"),
    ]:
        assert key in wrapped
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []

    assert result["failures"] == []
    metrics = layers.LayerReport(tracer, 0.0).metrics()
    assert [name for name, *_ in layers.PER_LAYER] == list(metrics)
    assert metrics["oracle.search.nodes"]["value"] > 0
    assert metrics["codec.deconstruct.calls"]["value"] == metrics["codec.enumerate_parameters.params"]["value"]
    assert 0 < metrics["channels.deletion_set.distinct_ratio"]["value"] <= 1
    task_names = {t.name for t in tasks}
    for i, parent in enumerate(tracer.parent):
        if parent < 0:  # every root span is a benchmark task
            assert tracer.names[tracer.name[i]] in task_names
            assert tracer.root[i] == i
        else:
            assert tracer.root[i] == tracer.root[parent]
            assert tracer.start[parent] <= tracer.start[i] <= tracer.end[i] <= tracer.end[parent]


def test_seeds_share_the_exhaustive_tasks():
    tmp = str(scratch("seeds"))
    for name in workloads.WORKLOADS:
        one = workloads.tasks(name, random.Random(1), tmp)
        two = workloads.tasks(name, random.Random(2), tmp)
        assert [t.name for t in one] == [t.name for t in two]
    one = workloads.draw_sample(random.Random(1))
    two = workloads.draw_sample(random.Random(2))
    assert [(q, len(x), b) for q, x, b in one] == [(q, len(x), b) for q, x, b in two]
    assert one != two
    assert workloads.draw_sample(random.Random(1)) == one


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(m["better"] == "lower" for m in spec["end_to_end"])
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]


def test_refuses_to_run_without_the_source():
    bare = scratch("bare")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", "test_*"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
