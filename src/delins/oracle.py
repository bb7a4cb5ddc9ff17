"""Brute-force ground truth: conflict graphs, exact maximum code search,
weighted-congruence single-deletion codes, the packing bound (one orbit
tally of the output counts) and exhaustive checks for every combinatorial
claim used by the bound formulas.

Everything here is exact at desk scale.  Results above the configured caps
are errors, never approximations; a timed-out search returns its incumbent
flagged as a lower bound only.

Each exhaustive claim is one function over its instance grid, registered in
CHECKS with its grid ceiling.  run_check(key, q, limit, cap) runs one claim
up to length limit, unclamped, as the acceptance suite does at larger grids;
`delins verify` (verify_all_lemmas) runs every claim at the smaller of its
ceiling and max_n.  `codec --roundtrip` and `graph`
run the per-instance parts, codec.roundtrip_counterexample and
edge_sandwich.  The duality claim reads the prefix-shared LCS/SCS tables of
channels.parallelogram_range_counterexample, and the edge sandwich counts
edges by orbit with channels.degree_histogram, as `graph` does.  Five
claims run on symmetry classes and count each class at its size: the
duality on one x per symbol relabelling, the insert/delete inversion on
one interval per class of the maps c -> +-c + t mod q, the degree lower
bound on one string per orbit of symmetry_orbits, and the two
concentration claims on one orbit_tally of the longest alternating
interval or the run count, both orbit invariants.  Their instance counts
and first counterexamples are those of a full scan.  The acceptance suite
also keeps independent second routes to some claims (per-input output
sets, pairwise LCS, the built channel graph); those are not copies.  The
tests keep the full scans of the five reduced claims and check that the
codec steps commute with every c -> +-c + t mod q on the full grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
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
    longest_alternating_interval,
    non_alternating_strings,
    orbit_tally,
    rank_of,
    run_count,
    string_of,
    string_stats,
    symmetry_orbits,
)

# Conflict graphs store one adjacency bitmask per vertex, so they get a much
# tighter default cap than plain string enumerations.
SEARCH_CAP = 1 << 12


@dataclass(frozen=True)
class ConflictGraph:
    """Conflict relation on [q]^n for s total errors, in search order.

    order[p] is the rank of the string at position p: ranks sorted by
    s-deletion set size, then by rank.  This order fixes the search's branch
    order, so its node counts and the code it returns.  masks[p] has bit p'
    set iff the s-deletion sets at positions p and p' intersect; irreflexive
    and symmetric as stored.
    """

    q: int
    n: int
    s: int
    order: tuple[int, ...]
    masks: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.masks)

    @property
    def conflict_count(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2


def build_conflict_graph(q: int, n: int, s: int, cap: int = SEARCH_CAP) -> ConflictGraph:
    """Conflict graph via the s-deletion formulation.  The groups of inputs
    sharing a deletion result, the insertion balls of the strings of length
    n - s, are walked twice: once to count each input's deletion-set size,
    which fixes the order, then through channels.conflict_masks by position."""
    check_alphabet(q)
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    size = q ** n
    if size > cap:
        raise CapExceededError("conflict graph vertex enumeration", size, cap)
    set_sizes = [0] * size
    for group in ch.deletion_groups(q, n, s):
        for r in group:
            set_sizes[r] += 1
    order = sorted(range(size), key=set_sizes.__getitem__)  # stable: ties stay in rank order
    position_of = [0] * size
    for position, r in enumerate(order):
        position_of[r] = position
    groups = ch.deletion_groups(q, n, s)
    masks = ch.conflict_masks(size, ([position_of[r] for r in group] for group in groups))
    return ConflictGraph(q, n, s, tuple(order), tuple(masks))


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
    """Direct re-check that all pairwise s-deletion sets are disjoint: sets
    are pairwise disjoint iff their union is as large as their sizes summed."""
    del_sets = [ch.deletion_set(w, s) for w in words]
    return len(set().union(*del_sets)) == sum(map(len, del_sets))


def verify_certificate(cert: CodeCertificate) -> CodeCertificate:
    ok = pairwise_disjoint_deletions(cert.codewords, cert.s)
    if not ok:
        raise VerificationError("certificate contains a conflicting pair")
    return replace(cert, verified=True)


class _CodeSearch:
    """Branch and bound maximum independent set on a conflict graph.

    The search works on the graph's positions and rows as they are:
    positions ascend in deletion-set size, so small deletion sets branch
    first.  One bound prunes each node: a greedy clique cover of the
    candidates.  An independent set takes at most one vertex per class, so
    a node whose chosen vertices plus its classes cannot pass the incumbent
    returns; the branch loop tests this before each class, from the last.
    Every vertex taken from the classes is still a candidate, since the
    classes are disjoint subsets of the candidates, so it needs no test.

    A root orbit rule skips whole root branches.  Reversal and the symbol
    permutations map s-deletion sets onto s-deletion sets, so they are
    automorphisms of a graph from build_conflict_graph (mates[v] is the
    position mask of v's orbit under them).  Once the root branch of v has
    finished, the incumbent is at least the largest code through v or any
    vertex branched before it; a code through an orbit mate g(v) is the
    image under g of a code through v, of the same size, so the branch of
    every later mate holds no strict improvement and is skipped.  A skipped
    vertex still leaves the candidates as a searched one does, and the
    incumbent only changes on a strict improvement, so every node still
    visited sees what it saw without the rule and the code found is the
    same.  Below the root the rule would be unsound: there the vertices
    already chosen or excluded break the symmetry.
    """

    def __init__(self, graph: ConflictGraph):
        self.size = graph.size
        self.full = (1 << graph.size) - 1
        self.conflicts = graph.masks
        orbit_of = symmetry_orbits(graph.q, graph.n)
        orbit_bits: dict[int, int] = {}
        for position, v in enumerate(graph.order):
            orbit_bits[orbit_of[v]] = orbit_bits.get(orbit_of[v], 0) | 1 << position
        self.mates = [orbit_bits[orbit_of[v]] for v in graph.order]
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
        self._expand(0, 0, self.full)
        return self.best_mask, not self.timed_out

    def _expand(self, r_mask: int, r_size: int, cand: int) -> None:
        self.nodes += 1
        if self.deadline is not None and self.nodes % 4096 == 0:
            if time.monotonic() > self.deadline:
                self.timed_out = True
                return
        conflicts = self.conflicts
        # greedy clique cover of the candidates; members kept in ascending
        # order so small deletion sets branch first within a class
        classes: list[list[int]] = []
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
        # root orbit rule: orbit mates of the root vertices already searched
        mates = self.mates if not r_size else None
        skip = 0
        for color_index in range(len(classes) - 1, -1, -1):
            if r_size + color_index + 1 <= self.best_size:
                return
            for v in classes[color_index]:
                bit = 1 << v
                if not skip & bit:
                    sub = (cand ^ bit) & ~conflicts[v]
                    if sub:
                        self._expand(r_mask | bit, r_size + 1, sub)
                        if self.timed_out:
                            return
                    elif r_size + 1 > self.best_size:
                        self.best_size = r_size + 1
                        self.best_mask = r_mask | bit
                cand ^= bit
                if mates is not None:
                    skip |= mates[v]


def max_code_exact(graph: ConflictGraph, time_limit: float | None = None) -> CodeCertificate:
    """Maximum independent set in the conflict graph, re-verified pairwise.

    Deterministic branch and bound with a greedy warm start.  On timeout the
    incumbent is returned with exact=False (a verified lower bound only).
    """
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time limit must be a nonnegative number of seconds, got {time_limit}")
    search = _CodeSearch(graph)
    best_mask, completed = search.run(time_limit)
    ranks = sorted(graph.order[v] for v in range(graph.size) if best_mask >> v & 1)
    words = tuple(string_of(r, graph.q, graph.n) for r in ranks)
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


def packing_code_bound(q: int, n: int, a: int, b: int) -> int:
    """Certified finite-length code size bound from the packing argument.

    Typical inputs (no long alternating interval, near-average run count)
    each reach at least min-degree many outputs, so at most
    outputs / min-degree of them fit in a code; every atypical input is
    counted in full.  All quantities are exact, so unlike the asymptotic
    formula values this is a true bound at this n.  One orbit tally counts
    the inputs per output count, every atypical input under None.
    """
    ch.check_graph_parameters(q, n - a, a, b)  # a channel graph with inputs of length n
    split = bnd.typicality_split(q, n, a, b)
    if q ** n > DEFAULT_CAP:
        raise CapExceededError("packing bound enumeration", q ** n, DEFAULT_CAP)

    def degree(x: Qstr) -> int | None:
        return len(ch.output_ranks(x, a, b, q)) if split.is_typical(string_stats(x)) else None

    tally = orbit_tally(q, n, degree)
    atypical = tally.pop(None, 0)
    if not tally:
        return q ** n
    return q ** (n - a + b) // min(tally) + atypical


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    instances: int
    counterexample: str | None = None


# Most errors a + b of any split the sweep checks, the longest suffix
# appended to both sides of an insert step by the inversion check, and the
# eps values at which the run-count check compares.
MAX_S = 2
SUFFIX_LENGTH = 2
EPS_GRID = (0.1, 0.2, 0.3, 0.5)

# The claim registry: check key -> (report name, grid ceiling), in report
# order.  Each _check_<key>(q, limit, cap) runs one claim over its instance
# grid up to length limit and returns (instances run, up to and including
# the first counterexample; that counterexample or None).  verify_all_lemmas
# runs each claim at min(ceiling, max_n), or at max_n for a claim with no
# ceiling; the quadratic and codec-heavy claims have one.  run_check looks
# the function up in this module when it runs, so rebinding
# oracle._check_<key> (as a tracer or a test does) changes what runs.
CHECKS = {
    "parallelogram": ("substring parallelogram", 5),
    "channel_equivalence": ("channel conflict equivalence", 5),
    "edge_bounds": ("edge count sandwich", 5),
    "insert_delete": ("insert/delete inversion", 5),
    "roundtrip": ("construct/deconstruct round-trip", 6),
    "degree_lower_bound": ("degree lower bound", None),
    "alternating_bound": ("alternating interval count", None),
    "runs_bound": ("run count concentration", None),
}


def _splits(max_s: int) -> list[tuple[int, int]]:
    return [(a, s - a) for s in range(max_s + 1) for a in range(s + 1)]


def _pair(x: Qstr, y: Qstr, q: int) -> str:
    return f"x={format_qary(x, q)} y={format_qary(y, q)}"


def _check_parallelogram(q: int, limit: int, cap: int) -> tuple[int, str | None]:
    instances = 0
    for m in range(2, limit + 1):
        for n in range(2, limit + 1):
            witness = ch.parallelogram_range_counterexample(q, m, n, cap)
            if witness is not None:
                l, x, y = witness
                instances += (rank_of(x, q) * q ** n + rank_of(y, q)) * (min(m, n) - 1) + l
                return instances, f"q={q} l={l} m={m} n={n} {_pair(x, y, q)}"
            instances += q ** (m + n) * (min(m, n) - 1)
    return instances, None


def _check_channel_equivalence(q: int, limit: int, cap: int) -> tuple[int, str | None]:
    instances = 0
    for n in range(1, limit + 1):
        for a, b in _splits(min(MAX_S, n)):
            witness = ch.channel_equivalence_counterexample(q, n, a, b, cap)
            if witness is not None:
                instances += rank_of(witness[0], q) * q ** n + rank_of(witness[1], q) + 1
                return instances, f"q={q} n={n} a={a} b={b} {_pair(*witness, q)}"
            instances += q ** (2 * n)
    return instances, None


def edge_sandwich(q: int, l: int, a: int, b: int) -> tuple[int, int]:
    """(constructable count, upper bound) of the channel graph (q, l, a, b);
    the claim is that its edge count lies between them."""
    return cdc.parameter_count(q, l, a, b), bnd.edge_count_upper(q, l, a, b)


def _check_edge_bounds(q: int, limit: int, cap: int) -> tuple[int, str | None]:
    instances = 0
    for l in range(1, limit + 1):
        for a, b in _splits(MAX_S):
            histogram = ch.degree_histogram(q, l, a, b, cap)
            edges = sum(d * c for d, c in histogram.items())
            constructable, upper = edge_sandwich(q, l, a, b)
            instances += 1
            if not constructable <= edges <= upper:
                return instances, (
                    f"q={q} l={l} a={a} b={b} "
                    f"constructable={constructable} edges={edges} upper={upper}"
                )
    return instances, None


def _check_insert_delete(q: int, limit: int, cap: int) -> tuple[int, str | None]:
    """Run the intervals w with w[0] = 0 that are not larger than their
    negation -w mod q, and count every w with w[0] = 0 q times.

    The cyclic shift c -> c + t mod q and the negation c -> -c mod q commute
    with insert_step and with delete_step, refusals included: offsets are
    differences mod q, so the negation maps offset k to q - k, and every
    other step compares symbols or slices.  Both map the suffix pairs onto
    themselves and keep non-alternation.  The shifts map the w with
    w[0] = 0, which come first in numeric order, one to one onto the rest
    of each length; the negation keeps w[0] = 0.  So every instance passes
    iff its shift to w[0] = 0 does, an interval passes iff its negation
    does, and a skipped interval's negation ran before it.  A skipped
    interval adds its instances to the count, so a failure met is the
    first one, at the count, of a full scan.  At q = 2 the negation is the
    identity and skips nothing.
    """
    instances = 0
    suffixes: list[Qstr] = [()]
    for length in range(1, min(SUFFIX_LENGTH, limit) + 1):
        suffixes.extend(all_strings(q, length))
    pairs = [
        (u, v)
        for u in suffixes
        for v in suffixes
        if (not u and not v) or (u and v and u[0] != v[0])
    ]
    for length in range(2, limit + 1):
        start = instances
        for w in non_alternating_strings(q, length):
            if w[0]:
                break
            if tuple([-c % q for c in w]) < w:
                instances += 2 * (q - 1) * len(pairs)
                continue
            for side in (cdc.LEFT, cdc.RIGHT):
                for offset in range(1, q):
                    triple = cdc.InsertTriple(side, offset, w)
                    x, y = cdc.insert_step(triple, q)
                    for u, v in pairs:
                        instances += 1
                        try:
                            got = cdc.delete_step(x + u, y + v, q)
                        except ValueError:  # NotDeconstructableError, or another refusal
                            got = None  # a refusal fails the instance like a wrong answer
                        if got != (triple, u, v):
                            return instances, (
                                f"q={q} side={side} offset={offset} "
                                f"w={format_qary(w, q)} u={format_qary(u, q)} "
                                f"v={format_qary(v, q)}"
                            )
        instances += (q - 1) * (instances - start)
    return instances, None


def _check_roundtrip(q: int, limit: int, cap: int) -> tuple[int, str | None]:
    instances = 0
    for l in range(1, limit + 1):
        for a, b in _splits(MAX_S):
            count, failure = cdc.roundtrip_counterexample(q, l, a, b, cap)
            instances += count
            total = cdc.parameter_count(q, l, a, b)  # the closed form, a second route to count
            if failure is not None or count != total:
                found = _pair(*failure, q) if failure else f"walked={count} parameter_count={total}"
                return instances, f"q={q} l={l} a={a} b={b} {found}"
    return instances, None


def _check_degree_lower_bound(q: int, limit: int, cap: int) -> tuple[int, str | None]:
    """Run one string per orbit of symmetry_orbits, its smallest, in rank
    order, and count each string of [q]^n once.

    The run count, the longest alternating interval and the output count
    are invariant under the orbit group.  Every smaller rank lies in an
    orbit whose smallest string has already passed, so a failure at rank r
    and split i is the first one, at the count, of a full scan.
    """
    limit = min(limit, 8 if q == 2 else 5)
    instances = 0
    for n in range(1, limit + 1):
        splits = _splits(min(MAX_S, n))
        for r in sorted(set(symmetry_orbits(q, n))):
            x = string_of(r, q, n)
            stats = string_stats(x)
            for i, (a, b) in enumerate(splits):
                lower = bnd.degree_lower_bound(q, n, stats.runs, stats.longest_alternating, a, b)
                actual = len(ch.output_ranks(x, a, b, q))
                if lower > actual:
                    return instances + r * len(splits) + i + 1, (
                        f"q={q} n={n} a={a} b={b} x={format_qary(x, q)} "
                        f"lower={lower} actual={actual}"
                    )
        instances += q ** n * len(splits)
    return instances, None


def _check_alternating_bound(q: int, limit: int, cap: int) -> tuple[int, str | None]:
    instances = 0
    for n in range(2, limit + 1):
        tally = orbit_tally(q, n, longest_alternating_interval)
        for c in range(2, n + 1):
            count = sum(size for longest, size in tally.items() if longest >= c)
            bound = bnd.alternating_interval_bound(q, n, c)
            instances += 1
            if count > bound:
                return instances, f"q={q} n={n} c={c} count={count} bound={bound}"
    return instances, None


def _check_runs_bound(q: int, limit: int, cap: int) -> tuple[int, str | None]:
    instances = 0
    for n in range(1, limit + 1):
        tally = orbit_tally(q, n, run_count)
        for eps in EPS_GRID:
            cutoff = bnd.few_runs_cutoff(q, n, eps)
            count = sum(size for runs, size in tally.items() if runs <= cutoff)
            bound = bnd.few_runs_bound(q, n, eps)
            instances += 1
            if count > bound + 1e-12 * max(1.0, bound):
                return instances, f"q={q} n={n} eps={eps} count={count} bound={bound}"
    return instances, None


def run_check(key: str, q: int, limit: int, cap: int = DEFAULT_CAP) -> LemmaCheck:
    """Run the registered claim `key` over its instance grid up to length
    limit, unclamped by the claim's ceiling.  The degree lower bound keeps
    its own limit: it stops at n = 8 for q = 2 and n = 5 above.

    A claim that ran no instance has shown nothing, so it does not pass.
    """
    instances, counterexample = globals()[f"_check_{key}"](q, limit, cap)
    if instances == 0 and counterexample is None:
        counterexample = "no instance in range"
    return LemmaCheck(CHECKS[key][0], counterexample is None, instances, counterexample)


def verify_all_lemmas(q: int, max_n: int, cap: int = DEFAULT_CAP) -> list[LemmaCheck]:
    """Run every registered claim up to length max_n, clamped by its
    ceiling, one report line each.

    Raises CapExceededError up front when the requested lengths cannot be
    enumerated under the cap.
    """
    check_alphabet(q)
    if q ** max_n > cap:
        raise CapExceededError(f"string enumeration at q={q}, n={max_n}", q ** max_n, cap)
    return [
        run_check(key, q, max_n if ceiling is None else min(ceiling, max_n), cap)
        for key, (_, ceiling) in CHECKS.items()
    ]
