"""Per-layer spans recorded from outside the program.

A Tracer wraps the functions of the six delins layers (qstrings, channels,
codec, bounds, oracle, cli) and rebinds every module attribute that refers to
one of them, so calls through name-bound imports such as
`delins.bounds.channel_output_set` are traced too.  Uninstalling puts every
original object back.  src/ is never edited.

Each span records its name, start, end, parent span and root span; the root
is the benchmark task that caused it.  Spans are kept in flat arrays while
the pass runs and written out when it has ended.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from delins import bounds, channels, cli, codec, oracle, qstrings

LAYER_MODULES = (qstrings, channels, codec, bounds, oracle, cli)

# Called once per string, symbol or pair inside a layer's inner loop.  A span
# around each would cost more than the call itself and distort the layer it
# sits in, so their time stays in the self time of the function calling them.
INNER_HELPERS = frozenset(
    {
        "qstrings.check_alphabet",
        "qstrings.binomial",
        "qstrings.rank_of",
        "qstrings.string_of",
        "qstrings.format_qary",
        "qstrings.parse_qary",
        "qstrings.is_alternating",
        "qstrings.run_count",
        "qstrings.longest_alternating_interval",
        "qstrings.alternating_count",
        "qstrings.insertion_count",
        "channels.is_subsequence",
        "channels.lcs_length",
        "channels.lcs_at_least",
        "channels.scs_length",
        "codec.match",
        "codec.construct",
    }
)

# Methods and private functions that are layers of their own.
METHODS = (
    (oracle._CodeSearch, "__init__", "oracle.search_init"),
    (oracle._CodeSearch, "run", "oracle.search"),
    (channels.ChannelGraph, "write_edge_list", "channels.write_edge_list"),
)
CHECK_PREFIX = "_check_"  # oracle._check_<name> becomes span oracle.check.<name>

# Functions returning an iterator whose items are produced lazily: each
# next() is a span of its own, so the span time covers the generator's work.
ITERATORS = {"codec.enumerate_parameters": "codec.enumerate_parameters.params"}


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _deletion_counts(counters: Counter, args: tuple, kwargs: dict, result: Any, _: Any) -> None:
    x, s = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "s")
    counters["channels.deletion_set.built"] += math.comb(len(x), s)
    counters["channels.deletion_set.distinct"] += len(result)


def _insertion_counts(counters: Counter, args: tuple, kwargs: dict, result: Any, _: Any) -> None:
    x, s, q = (_arg(args, kwargs, i, k) for i, k in enumerate(("x", "s", "q")))
    if s < 1:
        return
    n = len(x)
    # round i extends each of the insertion_count(q, i-1, n+i-1) strings left
    # by round i-1 at n+i positions with q symbols
    counters["channels.insertion_set.built"] += sum(
        qstrings.insertion_count(q, i - 1, n + i - 1) * (n + i) * q for i in range(1, s + 1)
    )
    counters["channels.insertion_set.distinct"] += len(result)


def _all_strings_counts(counters: Counter, args: tuple, kwargs: dict, result: Any, _: Any) -> None:
    counters["qstrings.all_strings.strings"] += _arg(args, kwargs, 0, "q") ** _arg(args, kwargs, 1, "n")


def _graph_counts(counters: Counter, args: tuple, kwargs: dict, result: Any, _: Any) -> None:
    counters["channels.build_channel_graph.edges"] += result.edge_count


def _edge_list_before(args: tuple, kwargs: dict) -> int:
    return _arg(args, kwargs, 1, "fp").tell()


def _edge_list_counts(counters: Counter, args: tuple, kwargs: dict, result: Any, start: int) -> None:
    counters["channels.write_edge_list.bytes"] += _arg(args, kwargs, 1, "fp").tell() - start


def _parallelogram_counts(counters: Counter, args: tuple, kwargs: dict, result: Any, _: Any) -> None:
    q, m, n = (_arg(args, kwargs, i, k) for i, k in enumerate(("q", "m", "n")))
    if min(m, n) >= 2:
        counters["channels.parallelogram_range_counterexample.pairs"] += q ** (m + n)


def _equivalence_counts(counters: Counter, args: tuple, kwargs: dict, result: Any, _: Any) -> None:
    size = _arg(args, kwargs, 0, "q") ** _arg(args, kwargs, 1, "n")
    counters["channels.channel_equivalence_counterexample.pairs"] += size * (size - 1) // 2


def _conflict_counts(counters: Counter, args: tuple, kwargs: dict, result: Any, _: Any) -> None:
    counters["oracle.build_conflict_graph.conflicts"] += result.conflict_count


def _search_counts(counters: Counter, args: tuple, kwargs: dict, result: Any, _: Any) -> None:
    counters["oracle.search.nodes"] += args[0].nodes


AFTER: dict[str, Callable[[Counter, tuple, dict, Any, Any], None]] = {
    "channels.deletion_set": _deletion_counts,
    "channels.insertion_set": _insertion_counts,
    "qstrings.all_strings": _all_strings_counts,
    "channels.build_channel_graph": _graph_counts,
    "channels.write_edge_list": _edge_list_counts,
    "channels.parallelogram_range_counterexample": _parallelogram_counts,
    "channels.channel_equivalence_counterexample": _equivalence_counts,
    "oracle.build_conflict_graph": _conflict_counts,
    "oracle.search": _search_counts,
}
BEFORE: dict[str, Callable[[tuple, dict], Any]] = {"channels.write_edge_list": _edge_list_before}


def traced_functions() -> dict[str, Callable]:
    """Span name -> original module-level function, for every traced one."""
    found = {}
    for mod in LAYER_MODULES:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if mod is oracle and attr.startswith(CHECK_PREFIX):
                found[f"oracle.check.{attr[len(CHECK_PREFIX):]}"] = obj
            elif not attr.startswith("_") and f"{layer}.{attr}" not in INNER_HELPERS:
                found[f"{layer}.{attr}"] = obj
    return found


class Tracer:
    """Spans in flat arrays, and the wrappers that record them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._cache_before = self._cache_after = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        stack = self._stack
        parent = stack[-1] if stack else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else i)
        self.end.append(0)
        stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self.name_id(name)
        open_, close, counters = self.open, self.close, self.counters
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = before(args, kwargs) if before else None
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if after:
                after(counters, args, kwargs, result, state)
            return result

        if name not in ITERATORS:
            return traced
        items_key = ITERATORS[name]

        def each_item(iterator: Iterator) -> Iterator:
            while True:
                i = open_(nid)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    close(i)
                counters[items_key] += 1
                yield item

        @functools.wraps(fn)
        def traced_iterator(*args: Any, **kwargs: Any) -> Iterator:
            return each_item(traced(*args, **kwargs))

        return traced_iterator

    def install(self) -> None:
        """Replace every traced function wherever a delins module names it."""
        wrappers = {id(fn): (fn, self.wrap(fn, name)) for name, fn in traced_functions().items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "delins" and not mod_name.startswith("delins."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._rebind(mod, attr, entry[1])
        for cls, attr, name in METHODS:
            self._rebind(cls, attr, self.wrap(cls.__dict__[attr], name))
        self._cache_before = qstrings.non_alternating_strings.cache_info()

    def _rebind(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        self._cache_after = qstrings.non_alternating_strings.cache_info()
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def span_count(self) -> int:
        return len(self.start)

    def write(self, path: str, header: dict) -> None:
        """Write every span as gzipped tab-separated lines after a JSON header."""
        columns = ("span", "name", "parent", "root", "start_ns", "end_ns")
        head = dict(header, names=self.names, columns=columns, clock="time.perf_counter_ns")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fp:
            fp.write(json.dumps(head) + "\n")
            rows = zip(range(len(self.start)), self.name, self.parent, self.root, self.start, self.end)
            fp.writelines(f"{i}\t{n}\t{p}\t{r}\t{s}\t{e}\n" for i, n, p, r, s, e in rows)


class LayerReport:
    """Calls, busy time and self time per span name, plus the counters."""

    def __init__(self, tracer: Tracer, overhead_s: float) -> None:
        size = len(tracer.names)
        self.names = tracer.names
        self.calls_by = [0] * size
        self.busy_by = [0] * size
        self.self_by = [0] * size
        child = [0] * tracer.span_count()
        for i, (p, s, e) in enumerate(zip(tracer.parent, tracer.start, tracer.end)):
            if p >= 0:
                child[p] += e - s
        for nid, s, e, c in zip(tracer.name, tracer.start, tracer.end, child):
            self.calls_by[nid] += 1
            self.busy_by[nid] += e - s
            self.self_by[nid] += e - s - c
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self.counters = tracer.counters
        self.overhead_s = overhead_s
        before, after = tracer._cache_before, tracer._cache_after
        hits = after.hits - before.hits
        misses = after.misses - before.misses
        self.cache_hit_ratio = _ratio(hits, hits + misses)

    def calls(self, name: str) -> int:
        return self.calls_by[self._ids[name]] if name in self._ids else 0

    def s(self, name: str) -> float:
        return self.busy_by[self._ids[name]] / 1e9 if name in self._ids else 0.0

    def self_s(self, name: str) -> float:
        return self.self_by[self._ids[name]] / 1e9 if name in self._ids else 0.0

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for name, t in zip(self.names, self.self_by) if name.startswith(prefix)) / 1e9

    def count(self, key: str) -> int:
        return self.counters[key]

    def metrics(self) -> dict[str, dict[str, float | str]]:
        return {name: {"value": value(self), "unit": unit} for name, unit, _, value in PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


CHECKS = (
    "parallelogram",
    "channel_equivalence",
    "edge_bounds",
    "insert_delete",
    "roundtrip",
    "degree_lower_bound",
    "alternating_bound",
    "runs_bound",
)

# (metric name, unit, better, value).  BENCHMARK.json lists the same names.
PER_LAYER: tuple[tuple[str, str, str, Callable[[LayerReport], float]], ...] = (
    ("oracle.search.nodes", "count", "lower", lambda r: r.count("oracle.search.nodes")),
    ("oracle.search.nodes_per_s", "1/s", "higher",
     lambda r: _ratio(r.count("oracle.search.nodes"), r.s("oracle.search"))),
    ("oracle.search.s", "s", "lower", lambda r: r.s("oracle.search")),
    ("oracle.search.init_s", "s", "lower", lambda r: r.s("oracle.search_init")),
    ("oracle.max_code_exact.s", "s", "lower", lambda r: r.s("oracle.max_code_exact")),
    ("oracle.verify_certificate.s", "s", "lower", lambda r: r.s("oracle.verify_certificate")),
    ("oracle.best_vt_size.s", "s", "lower", lambda r: r.s("oracle.best_vt_size")),
    ("oracle.build_conflict_graph.s", "s", "lower", lambda r: r.s("oracle.build_conflict_graph")),
    ("oracle.build_conflict_graph.conflicts", "count", "lower",
     lambda r: r.count("oracle.build_conflict_graph.conflicts")),
    ("channels.deletion_set.calls", "count", "lower", lambda r: r.calls("channels.deletion_set")),
    ("channels.deletion_set.s", "s", "lower", lambda r: r.s("channels.deletion_set")),
    ("channels.deletion_set.distinct_ratio", "1", "higher",
     lambda r: _ratio(r.count("channels.deletion_set.distinct"), r.count("channels.deletion_set.built"))),
    ("channels.insertion_set.calls", "count", "lower", lambda r: r.calls("channels.insertion_set")),
    ("channels.insertion_set.s", "s", "lower", lambda r: r.s("channels.insertion_set")),
    ("channels.insertion_set.distinct_ratio", "1", "higher",
     lambda r: _ratio(r.count("channels.insertion_set.distinct"), r.count("channels.insertion_set.built"))),
    ("channels.channel_output_set.calls", "count", "lower", lambda r: r.calls("channels.channel_output_set")),
    ("channels.channel_output_set.s", "s", "lower", lambda r: r.s("channels.channel_output_set")),
    ("channels.build_channel_graph.s", "s", "lower", lambda r: r.s("channels.build_channel_graph")),
    ("channels.build_channel_graph.edges_per_s", "1/s", "higher",
     lambda r: _ratio(r.count("channels.build_channel_graph.edges"), r.s("channels.build_channel_graph"))),
    ("channels.write_edge_list.s", "s", "lower", lambda r: r.s("channels.write_edge_list")),
    ("channels.write_edge_list.mib_per_s", "MiB/s", "higher",
     lambda r: _ratio(r.count("channels.write_edge_list.bytes") / 2**20, r.s("channels.write_edge_list"))),
    ("channels.parallelogram_range_counterexample.s", "s", "lower",
     lambda r: r.s("channels.parallelogram_range_counterexample")),
    ("channels.parallelogram_range_counterexample.pairs_per_s", "1/s", "higher",
     lambda r: _ratio(r.count("channels.parallelogram_range_counterexample.pairs"),
                      r.s("channels.parallelogram_range_counterexample"))),
    ("channels.channel_equivalence_counterexample.s", "s", "lower",
     lambda r: r.s("channels.channel_equivalence_counterexample")),
    ("channels.channel_equivalence_counterexample.pairs_per_s", "1/s", "higher",
     lambda r: _ratio(r.count("channels.channel_equivalence_counterexample.pairs"),
                      r.s("channels.channel_equivalence_counterexample"))),
    ("oracle.verify_all_lemmas.s", "s", "lower", lambda r: r.s("oracle.verify_all_lemmas")),
    *(
        (f"oracle.check.{check}.s", "s", "lower", lambda r, c=check: r.s(f"oracle.check.{c}"))
        for check in CHECKS
    ),
    ("codec.enumerate_parameters.params", "count", "lower",
     lambda r: r.count("codec.enumerate_parameters.params")),
    ("codec.enumerate_parameters.s", "s", "lower", lambda r: r.s("codec.enumerate_parameters")),
    ("codec.construct_edge.s", "s", "lower", lambda r: r.s("codec.construct_edge")),
    ("codec.deconstruct.calls", "count", "lower", lambda r: r.calls("codec.deconstruct")),
    ("codec.deconstruct.s", "s", "lower", lambda r: r.s("codec.deconstruct")),
    ("codec.roundtrips_per_s", "1/s", "higher",
     lambda r: _ratio(r.calls("codec.deconstruct"), r.s("codec.construct_edge") + r.s("codec.deconstruct"))),
    ("codec.insert_step.s", "s", "lower", lambda r: r.s("codec.insert_step")),
    ("codec.delete_step.calls", "count", "lower", lambda r: r.calls("codec.delete_step")),
    ("codec.delete_step.s", "s", "lower", lambda r: r.s("codec.delete_step")),
    ("bounds.typicality_split.s", "s", "lower", lambda r: r.s("bounds.typicality_split")),
    ("bounds.degree_lower_bound.calls", "count", "lower", lambda r: r.calls("bounds.degree_lower_bound")),
    ("bounds.self_s", "s", "lower", lambda r: r.layer_self_s("bounds")),
    ("oracle.packing_code_bound.self_s", "s", "lower", lambda r: r.self_s("oracle.packing_code_bound")),
    ("qstrings.string_stats.calls", "count", "lower", lambda r: r.calls("qstrings.string_stats")),
    ("qstrings.string_stats.s", "s", "lower", lambda r: r.s("qstrings.string_stats")),
    ("qstrings.all_strings.strings", "count", "lower", lambda r: r.count("qstrings.all_strings.strings")),
    ("qstrings.non_alternating_strings.hit_ratio", "1", "higher", lambda r: r.cache_hit_ratio),
    ("cli.main.s", "s", "lower", lambda r: r.s("cli.main")),
    ("cli.self_s", "s", "lower", lambda r: r.layer_self_s("cli")),
    ("trace.overhead_s", "s", "lower", lambda r: r.overhead_s),
)
