"""Deletion/insertion output sets and the bipartite channel graph.

The channel with a deletions and b insertions maps an input x to any string
obtained by first deleting a symbols and then inserting b symbols.  The
bipartite graph over inputs of length l+a and outputs of length l+b joins
two strings whenever they share a common subsequence of length l; the
neighborhood of an input is exactly its channel output set.

Output sets come in two forms.  deletion_set, insertion_set and
channel_output_set build sets of tuples: they are the reference route of
the tests, and deletion_set re-checks code certificates.  deletion_ranks,
insertion_ranks and output_ranks enumerate base-q ranks without
duplicates, and every other caller uses them.  The deletion and insertion
enumerators walk leftmost embeddings, so each result is reached once: a
deleted block never holds the kept symbol after it, and insertion_ranks
inserts one symbol per step, at a gap no earlier than the last, never x[h]
just before x[h].  output_ranks hands the rank of each a-deletion result to
the insertion enumerator.  degree_histogram counts the graph's degrees as
qstrings.orbit_tally of the output count, one output set per orbit
representative, so only an export builds the graph.  conflict_masks ORs
each group of inputs sharing an output into their conflict rows.  The
inputs sharing a deletion result z are the insertion ball of z, so
deletion_groups builds no deletion set.  The s-deletion conflict graph,
whose rows the exact search reads, and the deletion side of the channel
equivalence check use them.  channel_conflict_masks builds the channel
side with no output set: a level walk of single-position deletions, whose
rows start as the identity and take a steps down, b up, b down and a up,
one whole-slice OR per position and symbol.  Channel equivalence is
equality of masks.
parallelogram_range_counterexample checks the subsequence/supersequence
duality at every length l from LCS and SCS tables that share the prefixes
of both strings: each prefix of x keeps one row per table over every prefix
of y, and one symbol more of x updates both rows.  The tables walk one x
per class under symbol permutations, the one whose symbols first appear in
the order 0, 1, 2, ..., because a common relabelling of both strings keeps
their LCS and SCS.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import add, or_
from typing import IO, Collection, Iterable, Iterator

from delins.errors import CapExceededError
from delins.qstrings import (
    Qstr,
    all_strings,
    binomial,
    check_alphabet,
    format_qary,
    insertion_count,
    orbit_tally,
    rank_of,
    string_of,
)

# Default ceiling on the number of enumerated strings in any one brute-force
# call.  Exceeding it raises CapExceededError; enumerations are never
# silently truncated.
DEFAULT_CAP = 1 << 22


def deletion_set(x: Qstr, s: int) -> set[Qstr]:
    """All distinct strings obtained from x by deleting exactly s symbols."""
    x = tuple(x)
    n = len(x)
    if not 0 <= s <= n:
        raise ValueError(f"cannot delete {s} symbols from a string of length {n}")
    return {tuple(x[i] for i in keep) for keep in combinations(range(n), n - s)}


def insertion_set(x: Qstr, s: int, q: int) -> set[Qstr]:
    """All distinct strings obtained from x by inserting exactly s symbols."""
    check_alphabet(q)
    if s < 0:
        raise ValueError(f"cannot insert {s} symbols")
    out = {tuple(x)}
    for _ in range(s):
        nxt: set[Qstr] = set()
        for z in out:
            for i in range(len(z) + 1):
                head, tail = z[:i], z[i:]
                for sym in range(q):
                    nxt.add(head + (sym,) + tail)
        out = nxt
    return out


@lru_cache(maxsize=64)
def _weights(q: int, n: int) -> tuple[int, ...]:
    """q ** (n - g) for g = 0 .. n: item g + 1 is the place value of x[g]."""
    return tuple(q ** (n - g) for g in range(n + 1))


def insertion_ranks(x: Qstr, s: int, q: int) -> list[int]:
    """Base-q ranks of insertion_set(x, s, q), each exactly once, unordered.

    A supersequence y of x is fixed by its leftmost embedding of x: the word
    inserted before x[h] avoids x[h], and the symbols after the end of x are
    free.  So y is built by s single insertions, each of a c != x[h] before
    x[h] or of any c at the end gap h = len(x), at a gap no earlier than the
    last: the words at a gap are written left to right, and y is reached
    once.  A partial output is kept as the rank of p + x[g:], p being what
    is built so far and g the first open gap, so each insertion is one
    multiply-add.  insertion_set stays the independent reference route.
    """
    check_alphabet(q)
    if s < 0:
        raise ValueError(f"cannot insert {s} symbols")
    return _insertion_ranks(rank_of(x, q), len(x), s, q)


def _insertion_ranks(rank: int, m: int, s: int, q: int) -> list[int]:
    """insertion_ranks of the string x of this rank in [q]^m."""
    if s == 0:
        return [rank]
    weight = _weights(q, m)
    # inserting c before x[h] (at the end if h = m) maps the rank r of
    # p + x[g:], g <= h, to r * q + c * w - rank(x[h:]) * (q - 1), w = q**(m-h);
    # moves lists (offset, index of the first move at gap h) gap by gap
    moves = [
        (c * w - rank % w * (q - 1), h * (q - 1))
        for h, w in enumerate(weight)
        for skip in [rank % w // weight[h + 1] if h < m else q]  # x[h]; none at the end
        for c in range(q)
        if c != skip
    ]
    # states: (rank of p + x[g:], index of the first move at gap g)
    states = [(rank, 0)]
    for _ in range(s - 1):
        states = [(r * q + o, h) for r, g in states for o, h in moves[g:]]
    return [r * q + o for r, g in states for o, _ in moves[g:]]


def deletion_ranks(x: Qstr, a: int, q: int) -> list[int]:
    """Base-q ranks of deletion_set(x, a), each exactly once, unordered.

    A subsequence z of x is fixed by its leftmost embedding in x: a deleted
    block x[h:e] followed by a kept x[e] does not hold the symbol x[e], so
    it starts after the last x[e] before e; a block that runs to the end of
    x is free.  At a fixed start the rule is not monotone in the length
    (x = 0010 may delete x[0:2] but not x[0:1]), so every length is tried.
    A partial result is kept as the rank r of p + x[g:], p being what is
    kept so far and g the first position where the next block may start, so
    deleting x[h:e] with h >= g is one step,
    r // q**(n-h) * q**(n-e) + rank(x[e:]), and the next block starts after
    the kept x[e].  States are grouped by deletions left; those with none
    left are results.  deletion_set stays the independent reference route.
    """
    check_alphabet(q)
    n = len(x)
    if not 0 <= a <= n:
        raise ValueError(f"cannot delete {a} symbols from a string of length {n}")
    rank = rank_of(x, q)
    if a == 0:
        return [rank]
    weight = _weights(q, n)
    suffix = [rank % w for w in weight]  # suffix[g] is the rank of x[g:]
    # At a fixed end e the allowed lengths run from 1 up to the distance to
    # the last x[e] before e, so the blocks of length k are those of length
    # k - 1 whose x[e - k] is not x[e].  ends[k] lists the end e of every
    # allowed block x[e-k:e] in order, the trailing block e = n last.
    ends: list[list[int]] = [[]]
    inner: Iterable[int] = range(n)
    for k in range(1, a + 1):
        inner = [e for e in inner if e >= k and x[e] != x[e - k]]
        ends.append(inner + [n])
    out: list[int] = []
    # states[left]: (rank of p + x[g:], first start g), left deletions to go
    states: list[list[tuple[int, int]]] = [[] for _ in range(a + 1)]
    states[a].append((rank, 0))
    for left in range(a, 0, -1):
        current = states[left]
        for k in range(1, left + 1):
            allowed = ends[k]
            if k == left:
                out += [
                    r // weight[e - k] * weight[e] + suffix[e]
                    for r, g in current
                    for e in allowed[bisect_left(allowed, g + k):]
                ]
            else:
                # a block starting at n - left or later leaves no room for the rest
                stop = bisect_left(allowed, n - left + k)
                states[left - k] += [
                    (r // weight[e - k] * weight[e] + suffix[e], e + 1)
                    for r, g in current
                    for e in allowed[bisect_left(allowed, g + k):stop]
                ]
    return out


def output_ranks(x: Qstr, a: int, b: int, q: int) -> set[int]:
    """Base-q ranks of channel_output_set(x, a, b, q): the union of the
    insertion ranks of every rank of deletion_ranks(x, a, q).  Each
    a-deletion result is reached once, as its rank, and goes to the
    insertion enumerator with no tuple built."""
    if b < 0:
        raise ValueError(f"cannot insert {b} symbols")
    results = deletion_ranks(x, a, q)
    if b == 0:
        return set(results)
    m = len(x) - a
    return set().union(*[_insertion_ranks(z, m, b, q) for z in results])


def channel_output_set(x: Qstr, a: int, b: int, q: int) -> set[Qstr]:
    """All outputs of the a-deletion b-insertion channel on input x."""
    out: set[Qstr] = set()
    for z in deletion_set(x, a):
        out.update(insertion_set(z, b, q))
    return out


def check_graph_parameters(q: int, l: int, a: int, b: int) -> None:
    """Reject a channel graph (q, l, a, b) with q < 2 or a negative l, a or b."""
    check_alphabet(q)
    if min(l, a, b) < 0:
        raise ValueError(f"graph parameters must be nonnegative, got l={l}, a={a}, b={b}")


def output_count_bound(q: int, n: int, a: int, b: int) -> int:
    """An upper bound on |channel_output_set(x, a, b, q)| for x in [q]^n, for
    cap checks: every output is one of the insertion sets of the
    binom(n, a) deletion results, and a string of length n - a + b."""
    return min(binomial(n, a) * insertion_count(q, b, n - a + b), q ** (n - a + b))


def deletion_groups(q: int, n: int, s: int) -> Iterator[list[int]]:
    """For each z in [q]^(n-s) in all_strings order, the ranks of the inputs
    of length n whose s-deletion set holds z, each once: insertion_ranks(z, s, q)."""
    return (insertion_ranks(z, s, q) for z in all_strings(q, n - s))


def conflict_masks(size: int, groups: Iterable[Collection[int]]) -> list[int]:
    """Conflict rows of inputs 0 .. size-1 from the groups that share an output.

    groups holds one member list per shared output, each member once.  Bit j
    of row i is set iff some group holds both i and j, i != j: each group's
    mask, the OR of its members' bits, goes into the row of every member, and
    self bits are cleared at the end.
    """
    masks = [0] * size
    for members in groups:
        group = sum(1 << r for r in members)
        for r in members:
            masks[r] |= group
    for r in range(size):
        masks[r] &= ~(1 << r)
    return masks


@dataclass(frozen=True)
class ChannelGraph:
    """Explicit bipartite channel graph.

    Left vertices are all strings of length l+a, right vertices all strings
    of length l+b, both identified by their base-q rank.  Two vertices are
    adjacent iff they share a common subsequence of length l.  Adjacency is
    stored as a sorted tuple of right ranks per left rank, so iteration
    order is deterministic.
    """

    q: int
    l: int
    a: int
    b: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return sum(len(neigh) for neigh in self.adjacency)

    def degree_histogram(self) -> Counter[int]:
        return Counter(len(neigh) for neigh in self.adjacency)

    def write_edge_list(self, fp: IO[str]) -> None:
        """A `q l a b` header, then one `x y` line per edge: left vertices by
        rank, each one's right neighbours ascending.

        Each right vertex is formatted once; each left vertex's lines are
        written as one block.
        """
        q, l, a, b = self.q, self.l, self.a, self.b
        fp.write(f"{q} {l} {a} {b}\n")
        right_text = [format_qary(string_of(r, q, l + b), q) for r in range(q ** (l + b))]
        for left_rank, neigh in enumerate(self.adjacency):
            head = format_qary(string_of(left_rank, q, l + a), q)
            fp.write("".join([f"{head} {right_text[r]}\n" for r in neigh]))


def _check_graph_size(q: int, l: int, a: int, b: int, cap: int) -> None:
    check_graph_parameters(q, l, a, b)
    vertices = q ** (l + a) + q ** (l + b)
    if vertices > cap:
        what = f"channel graph vertex enumeration at q={q} l={l} a={a} b={b}"
        raise CapExceededError(what, vertices, cap)


def degree_histogram(q: int, l: int, a: int, b: int, cap: int = DEFAULT_CAP) -> Counter[int]:
    """Left vertices of the channel graph per degree, without building it:
    the degree of x is its output count, which every orbit mate of x
    shares.  The cap check is build_channel_graph's."""
    _check_graph_size(q, l, a, b, cap)
    return orbit_tally(q, l + a, lambda x: len(output_ranks(x, a, b, q)))


def build_channel_graph(q: int, l: int, a: int, b: int, cap: int = DEFAULT_CAP) -> ChannelGraph:
    """Build the explicit channel graph by grouping over common subsequences.

    Every length-l string z contributes the complete bipartite block between
    its a-insertion superstrings (left) and b-insertion superstrings (right);
    the union over z is exactly the adjacency relation.  The first pass keeps
    each z's right ranks and, per left vertex, the indices of the z it
    contains; the second builds one neighbour set at a time, so only the
    sorted tuples stay alive.
    """
    _check_graph_size(q, l, a, b, cap)
    right_ranks: list[list[int]] = []
    contained: list[list[int]] = [[] for _ in range(q ** (l + a))]
    for index, z in enumerate(all_strings(q, l)):
        right_ranks.append(insertion_ranks(z, b, q))
        for x_rank in insertion_ranks(z, a, q):
            contained[x_rank].append(index)
    adjacency = tuple(
        tuple(sorted(set().union(*[right_ranks[i] for i in indices]))) for indices in contained
    )
    return ChannelGraph(q, l, a, b, adjacency)


def _duality_tables(q: int, m: int, n: int) -> Iterator[tuple[Qstr, list[int], list[int]]]:
    """Yield (x, lcs, scs) for every restricted-growth x in [q]^m, in
    all_strings order, where lcs[r] and scs[r] are the LCS and SCS lengths
    of x and the string of rank r in [q]^n.

    x is restricted growth when its symbols first appear in the order 0, 1,
    2, ...: a prefix is extended only by the symbols it holds and the next
    unused one.  Such an x is the smallest string of its class under symbol
    permutations, and every class has exactly one.

    Both strings share their prefixes.  The x are walked depth first by
    recursion over their prefixes, and each prefix keeps one LCS row and
    one SCS row over every prefix of y, stored level by level: level j lists
    the q**j prefixes of length j in rank order, so the prefix of rank r
    extends that of rank r // q at level j - 1 by the symbol r % q.  A symbol
    c turns the rows of x[:i-1] into those of x[:i], each table by its own
    recurrence: the entries whose last symbol is c read the old level j - 1,
    the others the old level j and the new level j - 1.  That is about
    (q/(q-1))**2 cell updates per pair.  Only the rows of the m + 1 prefixes
    on the current path are alive, (m + 1) * 2 * sum(q**j for j <= n) slots,
    which the pairs cap bounds.
    """

    def extend(
        x: Qstr, lcs_rows: list[list[int]], scs_rows: list[list[int]]
    ) -> Iterator[tuple[Qstr, list[int], list[int]]]:
        if len(x) == m:
            yield x, lcs_rows[n], scs_rows[n]
            return
        # a symbol new to x is the next unused one
        for c in range(min(q, len(set(x)) + 1)):
            lcs_new = [[0]]
            scs_new = [[len(x) + 1]]
            for j in range(1, n + 1):
                lcs_up, scs_up = lcs_new[-1], scs_new[-1]
                lcs_here, scs_here = lcs_rows[j], scs_rows[j]
                lcs_level = [0] * len(lcs_here)
                scs_level = [0] * len(scs_here)
                for s in range(q):
                    if s == c:
                        lcs_level[s::q] = [v + 1 for v in lcs_rows[j - 1]]
                        scs_level[s::q] = [v + 1 for v in scs_rows[j - 1]]
                    else:
                        lcs_level[s::q] = [
                            u if u > v else v for u, v in zip(lcs_here[s::q], lcs_up)
                        ]
                        scs_level[s::q] = [
                            (u if u < v else v) + 1 for u, v in zip(scs_here[s::q], scs_up)
                        ]
                lcs_new.append(lcs_level)
                scs_new.append(scs_level)
            yield from extend(x + (c,), lcs_new, scs_new)

    return extend((), [[0] * q ** j for j in range(n + 1)], [[j] * q ** j for j in range(n + 1)])


def parallelogram_range_counterexample(
    q: int, m: int, n: int, cap: int = DEFAULT_CAP
) -> tuple[int, Qstr, Qstr] | None:
    """Search [q]^m x [q]^n for a pair violating the subsequence/supersequence
    duality at some length l in [1, min(m, n)): a common subsequence of length
    l exists iff a common supersequence of length m + n - l exists.  One walk
    of the prefix-shared tables gives both table values of each pair once.

    The walk reads only the restricted-growth x, the smallest of each class
    under symbol permutations.  LCS and SCS lengths do not change when both
    strings get the same relabelling, so a pair (x, y) fails at l iff its
    relabelling with x restricted growth does, and that pair comes no later
    in all_strings order.  So the first violation of the walk is that of a
    scan of every pair.

    Every (pair, l) instance is decided in closed form.  With t = m + n - scs
    and L = min(m, n) - 1, the l in [1, L] with lcs >= l are those up to lcs
    clamped to [0, L], and those with l <= t the ones up to t clamped to
    [0, L].  So the two predicates differ for some l iff the clamped values
    differ, and the first such l is the smaller clamped value plus 1.  A
    pair with lcs + scs = m + n has t = lcs and decides all its instances
    at once.

    Returns the first violation (l, x, y), pairs in all_strings order and l
    ascending within a pair, or None.
    """
    check_alphabet(q)
    if min(m, n) < 2:
        return None
    pairs = q ** (m + n)
    if pairs > cap:
        raise CapExceededError(f"parallelogram pair enumeration at q={q} m={m} n={n}", pairs, cap)
    total = m + n
    top = min(m, n) - 1
    balanced = [total] * q ** n
    for x, lcs_row, scs_row in _duality_tables(q, m, n):
        if list(map(add, lcs_row, scs_row)) == balanced:
            continue
        for y_rank, (lcs, scs) in enumerate(zip(lcs_row, scs_row)):
            held = min(max(lcs, 0), top)
            bound = min(max(total - scs, 0), top)
            if held != bound:
                return min(held, bound) + 1, x, string_of(y_rank, q, n)
    return None


def _removal_blocks(q: int, length: int, i: int) -> list[tuple[slice, slice]]:
    """Aligned slices (short, long) that pair each z in [q]^length, by rank,
    with the x in [q]^(length+1) such that x without position i is z: one
    pair per inserted symbol c, z = h + t and x = h + c + t.  With
    w = q**(length-i) ranks per tail t, the blocks of one head h are
    contiguous and are used when w >= q**i; otherwise the q**i heads of one
    tail form a stride-w slice of z and a stride-(q*w) slice of x."""
    w = q ** (length - i)
    if w >= q ** i:
        return [
            (slice(h * w, h * w + w), slice((h * q + c) * w, (h * q + c + 1) * w))
            for h in range(q ** i)
            for c in range(q)
        ]
    return [(slice(t, None, w), slice(c * w + t, None, q * w)) for t in range(w) for c in range(q)]


def channel_conflict_masks(q: int, n: int, a: int, b: int) -> list[int]:
    """Conflict rows of [q]^n under the (a, b)-channel: bit y of row x is
    set iff x != y and the two output sets meet.

    The conflict relation of out = I^b D^a is out^-1 out = I^a D^b I^b D^a,
    D and I the single deletion and insertion.  Rows start as the identity,
    row r = 1 << r at length n, and take a steps down, b up, b down, then
    a up, each between lengths L + 1 and L along the maps "x without
    position i" for every i.  Down, each shorter string ORs the rows of its
    1-insertions; up, each longer string ORs the rows of its 1-deletions.
    OR is idempotent, so positions giving the same string need no dedup.
    Each (position, symbol) is one whole-slice OR of _removal_blocks.
    """
    masks = [1 << r for r in range(q ** n)]
    length = n
    for up in [False] * a + [True] * b + [False] * b + [True] * a:
        short = length if up else length - 1
        length = short + 1 if up else short
        new = [0] * q ** length
        for i in range(short + 1):
            for z, x in _removal_blocks(q, short, i):
                if up:
                    new[x] = list(map(or_, new[x], masks[z]))
                else:
                    new[z] = list(map(or_, new[z], masks[x]))
        masks = new
    for r in range(len(masks)):
        masks[r] &= ~(1 << r)
    return masks


def channel_equivalence_counterexample(
    q: int, n: int, a: int, b: int, cap: int = DEFAULT_CAP
) -> tuple[Qstr, Qstr] | None:
    """Search [q]^n for a pair where the s-deletion conflict relation and the
    (a, b)-channel conflict relation disagree, s = a + b.

    The deletion side is conflict_masks over deletion_groups, the channel
    side the level walk of channel_conflict_masks: two mechanisms, insertion
    balls against position removal.  The walk is exact because the channel
    is out = I^b D^a, so its conflict relation is I^a D^b I^b D^a, and OR
    is idempotent.  The relations agree iff the masks are equal.  Returns
    the first violating pair in all_strings order, or None.

    The work cap is q**n inputs times the output and deletion-result bounds
    of one, and at least the q**(2n) bits of the length-n rows.  It is the
    refusal rule, not the walk's cost: the acceptance grid's skip set and
    verify's instance counts are pinned to the instances it refuses.
    """
    check_graph_parameters(q, n - a, a, b)  # a channel graph with inputs of length n
    s = a + b
    if s > n:
        raise ValueError(f"need a + b <= n, got {s} > {n}")
    work = max(q ** n * (output_count_bound(q, n, a, b) + binomial(n, s)), q ** (2 * n))
    if work > cap:
        what = f"channel equivalence enumeration at q={q} n={n} a={a} b={b}"
        raise CapExceededError(what, work, cap)
    deletion_masks = conflict_masks(q ** n, deletion_groups(q, n, s))
    channel_masks = channel_conflict_masks(q, n, a, b)
    for i, (mine, theirs) in enumerate(zip(deletion_masks, channel_masks)):
        later = (mine ^ theirs) >> (i + 1)
        if later:
            j = i + (later & -later).bit_length()
            return string_of(i, q, n), string_of(j, q, n)
    return None


def check_channel_equivalence(q: int, n: int, a: int, b: int) -> bool:
    return channel_equivalence_counterexample(q, n, a, b) is None
