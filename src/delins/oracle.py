"""Brute-force ground truth: conflict graphs, exact maximum code search,
weighted-congruence single-deletion codes, and exhaustive checks for every
combinatorial claim used by the bound formulas.

Everything here is exact at desk scale.  Results above the configured caps
are errors, never approximations; a timed-out search returns its incumbent
flagged as a lower bound only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import IO

from delins import bounds as bnd
from delins import channels as ch
from delins import codec as cdc
from delins.channels import DEFAULT_CAP
from delins.errors import CapExceededError, VerificationError
from delins.qstrings import (
    Qstr,
    all_strings,
    check_alphabet,
    format_qary,
    non_alternating_strings,
    string_of,
    string_stats,
)

# Conflict graphs store one adjacency bitmask per vertex, so they get a much
# tighter default cap than plain string enumerations.
SEARCH_CAP = 1 << 12


@dataclass(frozen=True)
class ConflictGraph:
    """Conflict relation on [q]^n for s total errors.

    Vertices are ranks of strings in [q]^n; masks[i] has bit j set iff the
    s-deletion sets of strings i and j intersect.  Irreflexive and symmetric
    as stored.  costs[i] is the size of the s-deletion set of string i.  Both
    come from channels.conflict_masks, which the channel equivalence check
    also uses to build the (a, b)-channel masks it compares with these.
    """

    q: int
    n: int
    s: int
    masks: tuple[int, ...]
    costs: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.masks)

    @property
    def conflict_count(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def conflicts(self, i: int, j: int) -> bool:
        return bool(self.masks[i] >> j & 1)

    def vertex_string(self, rank: int) -> Qstr:
        return string_of(rank, self.q, self.n)


def build_conflict_graph(q: int, n: int, s: int, cap: int = SEARCH_CAP) -> ConflictGraph:
    """Conflict graph via the s-deletion formulation: channels.conflict_masks
    groups the inputs on shared deletion results."""
    check_alphabet(q)
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    size = q ** n
    if size > cap:
        raise CapExceededError("conflict graph vertex enumeration", size, cap)
    masks, costs = ch.conflict_masks(ch.deletion_set(x, s) for x in all_strings(q, n))
    return ConflictGraph(q, n, s, tuple(masks), tuple(costs))


@dataclass(frozen=True)
class CodeCertificate:
    """A set of codewords together with its verification status.

    verified means pairwise disjointness of the deletion sets was re-checked
    directly, independently of however the set was found.  exact means the
    set was proved maximum; a timed-out search yields exact=False.
    """

    q: int
    n: int
    s: int
    codewords: tuple[Qstr, ...]
    verified: bool
    exact: bool

    @property
    def size(self) -> int:
        return len(self.codewords)

    def write(self, fp: IO[str]) -> None:
        fp.write(f"{self.q} {self.n} {self.s} {self.size} {str(self.verified).lower()}\n")
        for word in self.codewords:
            fp.write(format_qary(word, self.q) + "\n")


def pairwise_disjoint_deletions(words: tuple[Qstr, ...], s: int) -> bool:
    """Direct re-check that all pairwise s-deletion sets are disjoint."""
    del_sets = [frozenset(ch.deletion_set(w, s)) for w in words]
    for i in range(len(del_sets)):
        for j in range(i + 1, len(del_sets)):
            if not del_sets[i].isdisjoint(del_sets[j]):
                return False
    return True


def verify_certificate(cert: CodeCertificate) -> CodeCertificate:
    ok = pairwise_disjoint_deletions(cert.codewords, cert.s)
    if not ok:
        raise VerificationError("certificate contains a conflicting pair")
    return replace(cert, verified=True)


class _CodeSearch:
    """Branch and bound maximum independent set on a conflict graph.

    Vertices are relabeled by ascending deletion-set size (then rank), so
    cheap vertices branch first; the sizes are the graph's costs.  Each
    vertex keeps one conflict row in that position order, its own bit
    excluded, permuted from the graph's rank-order mask in C (one bit string
    per row through an itemgetter).  Two bounds prune each node: a greedy
    clique cover of the candidates, and a budget argument specific to this
    graph family: chosen codewords consume pairwise disjoint deletion sets,
    so the remaining output-space capacity caps how many candidates can
    still be added (counting the cheapest candidates, one per clique class).
    """

    def __init__(self, graph: ConflictGraph):
        size = graph.size
        costs_by_rank = graph.costs
        order = sorted(range(size), key=lambda v: (costs_by_rank[v], v))
        self.graph = graph
        self.order = order
        self.size = size
        self.full = (1 << size) - 1
        self.cost = [costs_by_rank[v] for v in order]
        # character k of a row's size-digit binary text is rank size-1-k;
        # character k of the relabeled text must be position size-1-k
        pick = itemgetter(*[size - 1 - order[size - 1 - k] for k in range(size)])
        width = f"0{size}b"
        self.conflicts = [
            int("".join(pick(format(graph.masks[v], width))), 2) for v in order
        ]
        self.capacity = graph.q ** (graph.n - graph.s)
        self.best_mask = self._greedy_seed()
        self.best_size = self.best_mask.bit_count()
        self.timed_out = False
        self.deadline: float | None = None
        self.nodes = 0

    def _greedy_seed(self) -> int:
        chosen = 0
        blocked = 0
        for v in range(self.size):
            bit = 1 << v
            if not blocked & bit:
                chosen |= bit
                blocked |= bit | self.conflicts[v]
        return chosen

    def run(self, time_limit: float | None) -> tuple[int, bool]:
        if time_limit is not None:
            self.deadline = time.monotonic() + time_limit
        self._expand(0, 0, self.full, self.capacity)
        return self.best_mask, not self.timed_out

    def _expand(self, r_mask: int, r_size: int, cand: int, capacity: int) -> None:
        if self.timed_out:
            return
        self.nodes += 1
        if self.deadline is not None and self.nodes % 4096 == 0:
            if time.monotonic() > self.deadline:
                self.timed_out = True
                return
        conflicts = self.conflicts
        cost = self.cost
        # greedy clique cover of the candidates; members kept in ascending
        # order so cheap vertices branch first within a class
        classes: list[list[int]] = []
        class_costs: list[int] = []
        uncolored = cand
        while uncolored:
            avail = uncolored
            members: list[int] = []
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                members.append(v)
                uncolored ^= low
                avail &= conflicts[v]
            classes.append(members)
            class_costs.append(cost[members[0]])
        # budget bound: one vertex per class, cheapest classes first
        class_costs.sort()
        usable = 0
        room = capacity
        for c in class_costs:
            if c > room:
                break
            room -= c
            usable += 1
        limit = min(usable, len(classes))
        if r_size + limit <= self.best_size:
            return
        for color_index in range(len(classes) - 1, -1, -1):
            if r_size + color_index + 1 <= self.best_size:
                return
            for v in classes[color_index]:
                bit = 1 << v
                if not cand & bit:
                    continue
                if cost[v] <= capacity:
                    sub = (cand ^ bit) & ~conflicts[v]
                    if sub:
                        self._expand(r_mask | bit, r_size + 1, sub, capacity - cost[v])
                        if self.timed_out:
                            return
                    elif r_size + 1 > self.best_size:
                        self.best_size = r_size + 1
                        self.best_mask = r_mask | bit
                cand ^= bit


def max_code_exact(
    graph: ConflictGraph,
    time_limit: float | None = None,
    cap: int = SEARCH_CAP,
) -> CodeCertificate:
    """Maximum independent set in the conflict graph, re-verified pairwise.

    Deterministic branch and bound with a greedy warm start.  On timeout the
    incumbent is returned with exact=False (a verified lower bound only).
    """
    if graph.size > cap:
        raise CapExceededError("maximum code search", graph.size, cap)
    search = _CodeSearch(graph)
    best_mask, completed = search.run(time_limit)
    ranks = sorted(search.order[v] for v in range(search.size) if best_mask >> v & 1)
    words = tuple(graph.vertex_string(r) for r in ranks)
    cert = CodeCertificate(graph.q, graph.n, graph.s, words, verified=False, exact=completed)
    return verify_certificate(cert)


def vt_code(n: int, residue: int) -> CodeCertificate:
    """Binary single-deletion code from the weighted-sum congruence
    sum i*x_i = residue (mod n+1), positions counted from 1.

    The certificate is verified against pairwise single-deletion disjointness.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if not 0 <= residue <= n:
        raise ValueError(f"residue must be in [0, {n}], got {residue}")
    words = tuple(
        x
        for x in all_strings(2, n)
        if sum((i + 1) * sym for i, sym in enumerate(x)) % (n + 1) == residue
    )
    cert = CodeCertificate(2, n, 1, words, verified=False, exact=False)
    return verify_certificate(cert)


def best_vt_size(n: int) -> int:
    return max(vt_code(n, r).size for r in range(n + 1))


def packing_code_bound(q: int, n: int, a: int, b: int, cap: int = DEFAULT_CAP) -> int:
    """Certified finite-length code size bound from the packing argument.

    Typical inputs (no long alternating interval, near-average run count)
    each reach at least min-degree many outputs, so at most
    outputs / min-degree of them fit in a code; every atypical input is
    counted in full.  All quantities are exact, so unlike the asymptotic
    formula values this is a true bound at this n.
    """
    split = bnd.typicality_split(q, n, a, b, cap)
    if split.typical is None:
        raise CapExceededError("packing bound enumeration", q ** n, cap)
    atypical = q ** n - split.typical
    if split.typical == 0:
        return q ** n
    min_degree: int | None = None
    for x in all_strings(q, n):
        stats = string_stats(x)
        if stats.longest_alternating >= split.alt_cutoff or stats.runs <= split.run_cutoff:
            continue
        degree = len(ch.output_ranks(x, a, b, q))
        if min_degree is None or degree < min_degree:
            min_degree = degree
    if min_degree is None:
        raise RuntimeError(
            f"packing bound at q={q} n={n} a={a} b={b}: the typicality split counts "
            f"{split.typical} typical inputs but the scan found none"
        )
    return q ** (n - a + b) // min_degree + atypical


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    instances: int
    counterexample: str | None = None


@dataclass(frozen=True)
class VerifyCaps:
    """Knobs for the exhaustive verification sweep.

    max_n bounds every string length; the remaining fields bound the
    quadratic or codec-heavy checks and are clamped by max_n.
    """

    max_n: int = 7
    pair_length: int = 5
    graph_l: int = 5
    codec_l: int = 6
    interval_length: int = 5
    suffix_length: int = 2
    max_s: int = 2
    eps_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.5)
    cap: int = DEFAULT_CAP


def _splits(max_s: int, max_a: int | None = None) -> list[tuple[int, int]]:
    out = []
    for s in range(max_s + 1):
        for a in range(s + 1):
            if max_a is not None and a > max_a:
                continue
            out.append((a, s - a))
    return out


def _check_parallelogram(q: int, caps: VerifyCaps) -> LemmaCheck:
    name = "substring parallelogram"
    limit = min(caps.pair_length, caps.max_n)
    instances = 0
    for m in range(2, limit + 1):
        for n in range(2, limit + 1):
            witness = ch.parallelogram_range_counterexample(q, m, n, caps.cap)
            instances += q ** (m + n) * (min(m, n) - 1)
            if witness is not None:
                l, x, y = witness
                detail = (
                    f"q={q} l={l} m={m} n={n} "
                    f"x={format_qary(x, q)} y={format_qary(y, q)}"
                )
                return LemmaCheck(name, False, instances, detail)
    return LemmaCheck(name, True, instances)


def _check_channel_equivalence(q: int, caps: VerifyCaps) -> LemmaCheck:
    name = "channel conflict equivalence"
    limit = min(caps.pair_length, caps.max_n)
    instances = 0
    for n in range(1, limit + 1):
        for a, b in _splits(min(caps.max_s, n)):
            witness = ch.channel_equivalence_counterexample(q, n, a, b, caps.cap)
            instances += q ** (2 * n)
            if witness is not None:
                x, y = witness
                detail = (
                    f"q={q} n={n} a={a} b={b} "
                    f"x={format_qary(x, q)} y={format_qary(y, q)}"
                )
                return LemmaCheck(name, False, instances, detail)
    return LemmaCheck(name, True, instances)


def edge_sandwich(q: int, l: int, a: int, b: int, cap: int = DEFAULT_CAP) -> tuple[int, int, int]:
    """(constructable count, exact edge count, upper bound) for one graph."""
    graph = ch.build_channel_graph(q, l, a, b, cap)
    return (
        cdc.parameter_count(q, l, a, b),
        graph.edge_count,
        bnd.edge_count_upper(q, l, a, b),
    )


def _check_edge_bounds(q: int, caps: VerifyCaps) -> LemmaCheck:
    name = "edge count sandwich"
    limit = min(caps.graph_l, caps.max_n)
    instances = 0
    for l in range(1, limit + 1):
        for a, b in _splits(caps.max_s):
            constructable, edges, upper = edge_sandwich(q, l, a, b, caps.cap)
            instances += 1
            if not constructable <= edges <= upper:
                detail = (
                    f"q={q} l={l} a={a} b={b} "
                    f"constructable={constructable} edges={edges} upper={upper}"
                )
                return LemmaCheck(name, False, instances, detail)
    return LemmaCheck(name, True, instances)


def _check_insert_delete(q: int, caps: VerifyCaps) -> LemmaCheck:
    name = "insert/delete inversion"
    instances = 0
    suffixes: list[Qstr] = [()]
    for length in range(1, min(caps.suffix_length, caps.max_n) + 1):
        suffixes.extend(all_strings(q, length))
    pairs = [
        (u, v)
        for u in suffixes
        for v in suffixes
        if (not u and not v) or (u and v and u[0] != v[0])
    ]
    for length in range(2, min(caps.interval_length, caps.max_n) + 1):
        for w in non_alternating_strings(q, length):
            for side in (cdc.LEFT, cdc.RIGHT):
                for offset in range(1, q):
                    triple = cdc.InsertTriple(side, offset, w)
                    x, y = cdc.insert_step(triple, q)
                    for u, v in pairs:
                        instances += 1
                        got = cdc.delete_step(x + u, y + v, q)
                        if got != (triple, u, v):
                            detail = (
                                f"q={q} side={side} offset={offset} "
                                f"w={format_qary(w, q)} u={format_qary(u, q)} "
                                f"v={format_qary(v, q)}"
                            )
                            return LemmaCheck(name, False, instances, detail)
    return LemmaCheck(name, True, instances)


def _check_roundtrip(q: int, caps: VerifyCaps) -> LemmaCheck:
    name = "construct/deconstruct round-trip"
    limit = min(caps.codec_l, caps.max_n)
    instances = 0
    for l in range(1, limit + 1):
        for a, b in _splits(caps.max_s):
            for param in cdc.enumerate_parameters(q, l, a, b, caps.cap):
                instances += 1
                x, y = cdc.construct_edge(param, q)
                try:
                    z0, triples = cdc.deconstruct(x, y, q)
                    ok = cdc.EdgeParameter.from_construction(z0, triples) == param
                except cdc.NotDeconstructableError:
                    ok = False
                if not ok:
                    detail = (
                        f"q={q} l={l} a={a} b={b} "
                        f"x={format_qary(x, q)} y={format_qary(y, q)}"
                    )
                    return LemmaCheck(name, False, instances, detail)
    return LemmaCheck(name, True, instances)


def _check_degree_lower_bound(q: int, caps: VerifyCaps) -> LemmaCheck:
    name = "degree lower bound"
    limit = min(caps.max_n, 8 if q == 2 else 5)
    instances = 0
    for n in range(1, limit + 1):
        for x in all_strings(q, n):
            stats = string_stats(x)
            for a, b in _splits(min(caps.max_s, n)):
                instances += 1
                lower = bnd.degree_lower_bound(q, n, stats.runs, stats.longest_alternating, a, b)
                actual = len(ch.output_ranks(x, a, b, q))
                if lower > actual:
                    detail = (
                        f"q={q} n={n} a={a} b={b} x={format_qary(x, q)} "
                        f"lower={lower} actual={actual}"
                    )
                    return LemmaCheck(name, False, instances, detail)
    return LemmaCheck(name, True, instances)


def _check_alternating_bound(q: int, caps: VerifyCaps) -> LemmaCheck:
    name = "alternating interval count"
    instances = 0
    for n in range(2, caps.max_n + 1):
        histogram = [0] * (n + 1)
        for x in all_strings(q, n):
            histogram[string_stats(x).longest_alternating] += 1
        for c in range(2, n + 1):
            count = sum(histogram[c:])
            limit = bnd.alternating_interval_bound(q, n, c)
            instances += 1
            if count > limit:
                detail = f"q={q} n={n} c={c} count={count} bound={limit}"
                return LemmaCheck(name, False, instances, detail)
    return LemmaCheck(name, True, instances)


def _check_runs_bound(q: int, caps: VerifyCaps) -> LemmaCheck:
    name = "run count concentration"
    instances = 0
    for n in range(1, caps.max_n + 1):
        histogram = [0] * (n + 2)
        for x in all_strings(q, n):
            histogram[string_stats(x).runs] += 1
        for eps in caps.eps_grid:
            cutoff = math.floor(((q - 1) / q - eps) * (n - 1) + 1 + bnd.FLOAT_GUARD)
            count = sum(histogram[: max(cutoff, 0) + 1])
            limit = bnd.few_runs_bound(q, n, eps)
            instances += 1
            if count > limit + 1e-12 * max(1.0, limit):
                detail = f"q={q} n={n} eps={eps} count={count} bound={limit}"
                return LemmaCheck(name, False, instances, detail)
    return LemmaCheck(name, True, instances)


def verify_all_lemmas(q: int, caps: VerifyCaps | None = None) -> list[LemmaCheck]:
    """Run every exhaustive check at the given caps, one report line each.

    Raises CapExceededError up front when the requested lengths cannot be
    enumerated under the cap.
    """
    check_alphabet(q)
    caps = caps or VerifyCaps()
    if q ** caps.max_n > caps.cap:
        raise CapExceededError(
            f"string enumeration at q={q}, n={caps.max_n}", q ** caps.max_n, caps.cap
        )
    return [
        _check_parallelogram(q, caps),
        _check_channel_equivalence(q, caps),
        _check_edge_bounds(q, caps),
        _check_insert_delete(q, caps),
        _check_roundtrip(q, caps),
        _check_degree_lower_bound(q, caps),
        _check_alternating_bound(q, caps),
        _check_runs_bound(q, caps),
    ]
