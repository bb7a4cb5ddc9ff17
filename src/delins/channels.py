"""Deletion/insertion output sets and the bipartite channel graph.

The channel with a deletions and b insertions maps an input x to any string
obtained by first deleting a symbols and then inserting b symbols.  The
bipartite graph over inputs of length l+a and outputs of length l+b joins
two strings whenever they share a common subsequence of length l; the
neighborhood of an input is exactly its channel output set.

Output sets come in two forms.  insertion_set and channel_output_set build
sets of tuples and are the reference route; insertion_ranks and
output_ranks enumerate base-q ranks without duplicates, and the graph, the
packing bound and the equivalence check use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import IO, Iterator

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
    the union over z is exactly the adjacency relation.
    """
    check_alphabet(q)
    if l < 0 or a < 0 or b < 0:
        raise ValueError("graph parameters must be nonnegative")
    left_size = q ** (l + a)
    right_size = q ** (l + b)
    if left_size + right_size > cap:
        raise CapExceededError("channel graph vertex enumeration", left_size + right_size, cap)
    neighbor_sets: list[set[int]] = [set() for _ in range(left_size)]
    for z in all_strings(q, l):
        right_ranks = insertion_ranks(z, b, q)
        for x_rank in insertion_ranks(z, a, q):
            neighbor_sets[x_rank].update(right_ranks)
    return ChannelGraph(q, l, a, b, tuple(tuple(sorted(s)) for s in neighbor_sets))


def parallelogram_counterexample(
    q: int, l: int, m: int, n: int, cap: int = DEFAULT_CAP
) -> tuple[Qstr, Qstr] | None:
    """Search [q]^m x [q]^n for a pair violating the subsequence/supersequence
    duality at length l: a common subsequence of length l exists iff a common
    supersequence of length m + n - l exists.

    Returns a violating pair, or None after exhausting all pairs.
    """
    check_alphabet(q)
    if not (l < m and l < n):
        raise ValueError(f"need l < m and l < n, got l={l}, m={m}, n={n}")
    pairs = q ** (m + n)
    if pairs > cap:
        raise CapExceededError("parallelogram pair enumeration", pairs, cap)
    target = m + n - l
    for x in all_strings(q, m):
        for y in all_strings(q, n):
            has_sub = lcs_at_least(x, y, l)
            has_super = scs_length(x, y) <= target
            if has_sub != has_super:
                return x, y
    return None


def check_parallelogram(q: int, l: int, m: int, n: int, cap: int = DEFAULT_CAP) -> bool:
    return parallelogram_counterexample(q, l, m, n, cap) is None


def parallelogram_range_counterexample(
    q: int, m: int, n: int, cap: int = DEFAULT_CAP
) -> tuple[int, Qstr, Qstr] | None:
    """Check the duality for every l in [1, min(m, n)) with one sweep of the
    pair space, computing both tables once per pair.

    Returns (l, x, y) for a violation, or None.
    """
    check_alphabet(q)
    if min(m, n) < 2:
        return None
    pairs = q ** (m + n)
    if pairs > cap:
        raise CapExceededError("parallelogram pair enumeration", pairs, cap)
    total = m + n
    for x in all_strings(q, m):
        for y in all_strings(q, n):
            lcs = lcs_length(x, y)
            scs = scs_length(x, y)
            for l in range(1, min(m, n)):
                if (lcs >= l) != (scs <= total - l):
                    return l, x, y
    return None


def _output_rank_sets(q: int, n: int, a: int, b: int) -> list[frozenset[int]]:
    """Channel output sets for every x in [q]^n, as ranks over [q]^(n-a+b).

    Insertion sets are cached per deleted string, since deletion results are
    shared heavily across inputs.
    """
    cache: dict[Qstr, frozenset[int]] = {}
    out = []
    for x in all_strings(q, n):
        acc: set[int] = set()
        for z in deletion_set(x, a):
            ranks = cache.get(z)
            if ranks is None:
                ranks = frozenset(insertion_ranks(z, b, q))
                cache[z] = ranks
            acc |= ranks
        out.append(frozenset(acc))
    return out


def equivalence_workload(q: int, n: int, a: int, b: int) -> int:
    """Estimated enumeration size of check_channel_equivalence, for cap checks."""
    s = a + b
    per_input = min(binomial(n, a) * insertion_count(q, b, n - a + b), q ** (n - a + b))
    return q ** n * (per_input + binomial(n, s))


def channel_equivalence_counterexample(
    q: int, n: int, a: int, b: int, cap: int = DEFAULT_CAP
) -> tuple[Qstr, Qstr] | None:
    """Search [q]^n for a pair where the s-deletion conflict relation and the
    (a, b)-channel conflict relation disagree, s = a + b.

    Returns a violating pair, or None after exhausting all pairs.
    """
    check_alphabet(q)
    s = a + b
    if not 0 <= a <= n or b < 0:
        raise ValueError(f"invalid channel parameters a={a}, b={b} for length {n}")
    if s > n:
        raise ValueError(f"need a + b <= n, got {s} > {n}")
    work = max(equivalence_workload(q, n, a, b), q ** (2 * n))
    if work > cap:
        raise CapExceededError("channel equivalence enumeration", work, cap)
    strings = list(all_strings(q, n))
    del_sets = [frozenset(rank_of(z, q) for z in deletion_set(x, s)) for x in strings]
    out_sets = _output_rank_sets(q, n, a, b)
    for i in range(len(strings)):
        di, oi = del_sets[i], out_sets[i]
        for j in range(i + 1, len(strings)):
            if di.isdisjoint(del_sets[j]) != oi.isdisjoint(out_sets[j]):
                return strings[i], strings[j]
    return None


def check_channel_equivalence(q: int, n: int, a: int, b: int, cap: int = DEFAULT_CAP) -> bool:
    return channel_equivalence_counterexample(q, n, a, b, cap) is None
