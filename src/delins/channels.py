"""Deletion/insertion output sets and the bipartite channel graph.

The channel with a deletions and b insertions maps an input x to any string
obtained by first deleting a symbols and then inserting b symbols.  The
bipartite graph over inputs of length l+a and outputs of length l+b joins
two strings whenever they share a common subsequence of length l; the
neighborhood of an input is exactly its channel output set.

Output sets come in two forms.  insertion_set and channel_output_set build
sets of tuples and are the reference route of the tests; insertion_ranks
and output_ranks enumerate base-q ranks without duplicates, and every other
caller uses them.  conflict_masks groups inputs on shared outputs into one
conflict row per input.  The s-deletion conflict graph and the channel
equivalence check both build their relations with it, so channel
equivalence is equality of the deletion masks and the channel masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import IO, Collection, Hashable, Iterable, Iterator

from delins.errors import CapExceededError
from delins.qstrings import (
    Qstr,
    all_strings,
    binomial,
    check_alphabet,
    format_qary,
    insertion_count,
    rank_of,
    string_of,
)

# Default ceiling on the number of enumerated strings in any one brute-force
# call.  Exceeding it raises CapExceededError; enumerations are never
# silently truncated.
DEFAULT_CAP = 1 << 22


def is_subsequence(z: Qstr, x: Qstr) -> bool:
    """True iff z can be obtained from x by deleting symbols."""
    it = iter(x)
    return all(sym in it for sym in z)


def lcs_length(x: Qstr, y: Qstr) -> int:
    """Length of the longest common subsequence, by the standard table."""
    if not x or not y:
        return 0
    prev = [0] * (len(y) + 1)
    for xi in x:
        cur = [0] * (len(y) + 1)
        for j, yj in enumerate(y):
            if xi == yj:
                cur[j + 1] = prev[j] + 1
            else:
                a, b = cur[j], prev[j + 1]
                cur[j + 1] = a if a >= b else b
        prev = cur
    return prev[-1]


def lcs_at_least(x: Qstr, y: Qstr, l: int) -> bool:
    """Decide lcs_length(x, y) >= l, abandoning rows that cannot reach l."""
    m, n = len(x), len(y)
    if l <= 0:
        return True
    if l > m or l > n:
        return False
    prev = [0] * (n + 1)
    for i, xi in enumerate(x):
        cur = [0] * (n + 1)
        row_best = 0
        for j, yj in enumerate(y):
            if xi == yj:
                v = prev[j] + 1
            else:
                a, b = cur[j], prev[j + 1]
                v = a if a >= b else b
            cur[j + 1] = v
            if v > row_best:
                row_best = v
        if row_best >= l:
            return True
        # each remaining row can add at most one matched symbol
        if row_best + (m - 1 - i) < l:
            return False
        prev = cur
    return False


def scs_length(x: Qstr, y: Qstr) -> int:
    """Length of a shortest common supersequence, by its own table."""
    prev = list(range(len(y) + 1))
    for i, xi in enumerate(x, start=1):
        cur = [i] + [0] * len(y)
        for j, yj in enumerate(y):
            if xi == yj:
                cur[j + 1] = prev[j] + 1
            else:
                a, b = cur[j], prev[j + 1]
                cur[j + 1] = (a if a <= b else b) + 1
        prev = cur
    return prev[-1]


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
def _avoiding_words(q: int, k: int) -> tuple[tuple[int, ...], ...]:
    """For each symbol c, the ranks of every length-k word with no symbol c."""
    return tuple(
        tuple(rank_of(w, q) for w in product([d for d in range(q) if d != c], repeat=k))
        for c in range(q)
    )


def insertion_ranks(x: Qstr, s: int, q: int) -> list[int]:
    """Base-q ranks of insertion_set(x, s, q), each exactly once, unordered.

    A supersequence y of x is fixed by its leftmost embedding of x: the word
    inserted before x[g] avoids the symbol x[g], and the symbols after the
    last one of x are free.  A partial output is kept as the rank of
    p + x[g:], p being what is built so far and g the first gap still open,
    so passing a gap costs nothing and inserting a word w before x[g] is one
    multiply-add.  States are grouped by insertions left; those with none
    left are outputs, the others end in a free tail.  The tuple sets of
    insertion_set stay the independent reference route.
    """
    check_alphabet(q)
    if s < 0:
        raise ValueError(f"cannot insert {s} symbols")
    if s == 0:
        return [rank_of(x, q)]
    m = len(x)
    suffix = [0] * (m + 1)  # suffix[g] is the rank of x[g:]
    weight = [1] * (m + 1)  # weight[g] is q ** (m - g)
    for g in range(m - 1, -1, -1):
        weight[g] = weight[g + 1] * q
        suffix[g] = x[g] * weight[g + 1] + suffix[g + 1]
    # inserting a word w of length k before x[g] maps the rank r of p + x[g:]
    # to r * q**k + offset; moves[k] lists (offset, g + 1) gap by gap, with
    # (q-1)**k words per gap
    moves: list[list[tuple[int, int]]] = [[]]
    for k in range(1, s + 1):
        words = _avoiding_words(q, k)
        shift = 1 - q ** k
        moves.append(
            [(w * weight[g] + suffix[g] * shift, g + 1) for g in range(m) for w in words[x[g]]]
        )
    out: list[int] = []
    # states[left]: (rank of p + x[g:], first open gap g), left insertions to go
    states: list[list[tuple[int, int]]] = [[] for _ in range(s + 1)]
    states[s].append((suffix[0], 0))
    for left in range(s, 0, -1):
        current = states[left]
        span = q ** left
        out += [r * span + t for r, _ in current for t in range(span)]
        for k in range(1, left + 1):
            scale = q ** k
            width = (q - 1) ** k
            if k == left:
                out += [r * scale + o for r, g in current for o, _ in moves[k][g * width:]]
            else:
                states[left - k] += [
                    (r * scale + o, h) for r, g in current for o, h in moves[k][g * width:]
                ]
    return out


def output_ranks(x: Qstr, a: int, b: int, q: int) -> set[int]:
    """Base-q ranks of channel_output_set(x, a, b, q): the union of
    insertion_ranks over the a-deletion results of x."""
    x = tuple(x)
    if not 0 <= a <= len(x):
        raise ValueError(f"cannot delete {a} symbols from a string of length {len(x)}")
    out: set[int] = set()
    for z in deletion_set(x, a):
        out.update(insertion_ranks(z, b, q))
    return out


def channel_output_set(x: Qstr, a: int, b: int, q: int) -> set[Qstr]:
    """All outputs of the a-deletion b-insertion channel on input x."""
    x = tuple(x)
    if not 0 <= a <= len(x):
        raise ValueError(f"cannot delete {a} symbols from a string of length {len(x)}")
    out: set[Qstr] = set()
    for z in deletion_set(x, a):
        out.update(insertion_set(z, b, q))
    return out


def output_count_bound(q: int, n: int, a: int, b: int) -> int:
    """An upper bound on |channel_output_set(x, a, b, q)| for x in [q]^n, for
    cap checks: every output is one of the insertion sets of the
    binom(n, a) deletion results, and a string of length n - a + b."""
    return min(binomial(n, a) * insertion_count(q, b, n - a + b), q ** (n - a + b))


def conflict_masks(outputs: Iterable[Collection[Hashable]]) -> tuple[list[int], list[int]]:
    """Conflict rows of the inputs, grouping inputs by shared outputs.

    outputs holds one output collection per input, in input order; bit j of
    row i is set iff inputs i and j share an output.  Each output contributes
    one group mask, the OR of its inputs' bits, to the row of every input in
    the group; self bits are cleared at the end.  Returns the rows and each
    input's output count.
    """
    costs: list[int] = []
    groups: dict[Hashable, list[int]] = {}
    for rank, out in enumerate(outputs):
        costs.append(len(out))
        for z in out:
            groups.setdefault(z, []).append(rank)
    size = len(costs)
    masks = [0] * size
    for members in groups.values():
        group = sum(1 << r for r in members)
        for r in members:
            masks[r] |= group
    for r in range(size):
        masks[r] &= ~(1 << r)
    return masks, costs


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
    def left_length(self) -> int:
        return self.l + self.a

    @property
    def right_length(self) -> int:
        return self.l + self.b

    @property
    def left_size(self) -> int:
        return len(self.adjacency)

    @property
    def right_size(self) -> int:
        return self.q ** self.right_length

    @property
    def edge_count(self) -> int:
        return sum(len(neigh) for neigh in self.adjacency)

    def degree(self, left_rank: int) -> int:
        return len(self.adjacency[left_rank])

    def neighbors(self, left_rank: int) -> tuple[int, ...]:
        return self.adjacency[left_rank]

    def left_string(self, rank: int) -> Qstr:
        return string_of(rank, self.q, self.left_length)

    def right_string(self, rank: int) -> Qstr:
        return string_of(rank, self.q, self.right_length)

    def edges(self) -> Iterator[tuple[Qstr, Qstr]]:
        for left_rank, neigh in enumerate(self.adjacency):
            x = self.left_string(left_rank)
            for right_rank in neigh:
                yield x, self.right_string(right_rank)

    def degree_stats(self) -> tuple[int, Fraction, int]:
        degrees = [len(neigh) for neigh in self.adjacency]
        return min(degrees), Fraction(sum(degrees), len(degrees)), max(degrees)

    def write_edge_list(self, fp: IO[str]) -> None:
        """A `q l a b` header, then one `x y` line per edge in edges() order.

        Each right vertex is formatted once; each left vertex's lines are
        written as one block.
        """
        q = self.q
        fp.write(f"{q} {self.l} {self.a} {self.b}\n")
        right_text = [format_qary(self.right_string(r), q) for r in range(self.right_size)]
        for left_rank, neigh in enumerate(self.adjacency):
            head = format_qary(self.left_string(left_rank), q)
            fp.write("".join([f"{head} {right_text[r]}\n" for r in neigh]))


def build_channel_graph(q: int, l: int, a: int, b: int, cap: int = DEFAULT_CAP) -> ChannelGraph:
    """Build the explicit channel graph by grouping over common subsequences.

    Every length-l string z contributes the complete bipartite block between
    its a-insertion superstrings (left) and b-insertion superstrings (right);
    the union over z is exactly the adjacency relation.  The first pass keeps
    each z's right ranks and, per left vertex, the indices of the z it
    contains; the second builds one neighbour set at a time, so only the
    sorted tuples stay alive.
    """
    check_alphabet(q)
    if l < 0 or a < 0 or b < 0:
        raise ValueError("graph parameters must be nonnegative")
    left_size = q ** (l + a)
    right_size = q ** (l + b)
    if left_size + right_size > cap:
        raise CapExceededError("channel graph vertex enumeration", left_size + right_size, cap)
    right_ranks: list[list[int]] = []
    contained: list[list[int]] = [[] for _ in range(left_size)]
    for index, z in enumerate(all_strings(q, l)):
        right_ranks.append(insertion_ranks(z, b, q))
        for x_rank in insertion_ranks(z, a, q):
            contained[x_rank].append(index)
    adjacency = tuple(
        tuple(sorted(set().union(*[right_ranks[i] for i in indices]))) for indices in contained
    )
    return ChannelGraph(q, l, a, b, adjacency)


def _duality_sweep(q: int, m: int, n: int) -> Iterator[tuple[Qstr, int, int, int]]:
    """Yield (x, rank of y, lcs_length(x, y), scs_length(x, y)) for every pair
    of [q]^m x [q]^n, x and y each in all_strings order.

    For each x, [q]^n is walked depth first as an odometer.  Each node extends
    the LCS column and the SCS column of its parent prefix by one symbol c of
    y, each by its own recurrence, so strings y sharing a prefix share its
    columns: about q/(q-1) column steps per pair instead of n.
    """
    top_lcs = [0] * (m + 1)
    top_scs = list(range(m + 1))
    for x in all_strings(q, m):
        # lcs_cols[d], scs_cols[d]: the columns of the prefix y[:d]
        lcs_cols = [top_lcs] * (n + 1)
        scs_cols = [top_scs] * (n + 1)
        y = [0] * n
        depth = 0  # columns are current up to y[:depth]
        rank = 0
        while True:
            while depth < n:
                c = y[depth]
                lcs_up, scs_up = lcs_cols[depth], scs_cols[depth]
                depth += 1
                lcs = 0
                scs = depth
                lcs_col = [lcs]
                scs_col = [scs]
                for i, xi in enumerate(x):
                    if xi == c:
                        lcs = lcs_up[i] + 1
                        scs = scs_up[i] + 1
                    else:
                        v = lcs_up[i + 1]
                        if v > lcs:
                            lcs = v
                        v = scs_up[i + 1]
                        if v < scs:
                            scs = v
                        scs += 1
                    lcs_col.append(lcs)
                    scs_col.append(scs)
                lcs_cols[depth] = lcs_col
                scs_cols[depth] = scs_col
            yield x, rank, lcs_cols[n][m], scs_cols[n][m]
            rank += 1
            # advance the odometer; the columns above the changed digit stay
            k = n - 1
            while k >= 0 and y[k] == q - 1:
                y[k] = 0
                k -= 1
            if k < 0:
                break
            y[k] += 1
            depth = k


def parallelogram_counterexample(
    q: int, l: int, m: int, n: int, cap: int = DEFAULT_CAP
) -> tuple[Qstr, Qstr] | None:
    """Search [q]^m x [q]^n for a pair violating the subsequence/supersequence
    duality at length l: a common subsequence of length l exists iff a common
    supersequence of length m + n - l exists.

    Returns the first violating pair in all_strings order, or None after
    exhausting all pairs.
    """
    check_alphabet(q)
    if not (l < m and l < n):
        raise ValueError(f"need l < m and l < n, got l={l}, m={m}, n={n}")
    pairs = q ** (m + n)
    if pairs > cap:
        raise CapExceededError("parallelogram pair enumeration", pairs, cap)
    target = m + n - l
    for x, y_rank, lcs, scs in _duality_sweep(q, m, n):
        if (lcs >= l) != (scs <= target):
            return x, string_of(y_rank, q, n)
    return None


def parallelogram_range_counterexample(
    q: int, m: int, n: int, cap: int = DEFAULT_CAP
) -> tuple[int, Qstr, Qstr] | None:
    """Check the duality for every l in [1, min(m, n)) on one sweep of the
    pair space, which gives both table values of each pair once.

    Returns the first violation (l, x, y), pairs in all_strings order and l
    ascending within a pair, or None.
    """
    check_alphabet(q)
    if min(m, n) < 2:
        return None
    pairs = q ** (m + n)
    if pairs > cap:
        raise CapExceededError("parallelogram pair enumeration", pairs, cap)
    total = m + n
    levels = range(1, min(m, n))
    for x, y_rank, lcs, scs in _duality_sweep(q, m, n):
        for l in levels:
            if (lcs >= l) != (scs <= total - l):
                return l, x, string_of(y_rank, q, n)
    return None


def channel_equivalence_counterexample(
    q: int, n: int, a: int, b: int, cap: int = DEFAULT_CAP
) -> tuple[Qstr, Qstr] | None:
    """Search [q]^n for a pair where the s-deletion conflict relation and the
    (a, b)-channel conflict relation disagree, s = a + b.

    Both relations are built by conflict_masks, so they agree iff the masks
    are equal.  Returns the first violating pair in all_strings order, or None.
    """
    check_alphabet(q)
    s = a + b
    if not 0 <= a <= n or b < 0:
        raise ValueError(f"invalid channel parameters a={a}, b={b} for length {n}")
    if s > n:
        raise ValueError(f"need a + b <= n, got {s} > {n}")
    work = max(q ** n * (output_count_bound(q, n, a, b) + binomial(n, s)), q ** (2 * n))
    if work > cap:
        raise CapExceededError("channel equivalence enumeration", work, cap)
    deletion_masks, _ = conflict_masks(deletion_set(x, s) for x in all_strings(q, n))
    channel_masks, _ = conflict_masks(output_ranks(x, a, b, q) for x in all_strings(q, n))
    for i, (mine, theirs) in enumerate(zip(deletion_masks, channel_masks)):
        later = (mine ^ theirs) >> (i + 1)
        if later:
            j = i + (later & -later).bit_length()
            return string_of(i, q, n), string_of(j, q, n)
    return None


def check_channel_equivalence(q: int, n: int, a: int, b: int, cap: int = DEFAULT_CAP) -> bool:
    return channel_equivalence_counterexample(q, n, a, b, cap) is None
