"""Q-ary string primitives shared by every other module.

A string is a plain tuple of ints with each symbol in range(q).  Functions
that depend on the alphabet take q explicitly; purely structural operations
(runs, alternating tests) work on any symbol sequence.  The text form used
by the CLI and fixtures is digit concatenation for q <= 10 ("0211" for
(0, 2, 1, 1)) and comma-separated integers for larger alphabets.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import product
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple

Qstr = tuple[int, ...]


def check_alphabet(q: int) -> None:
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got {q}")


def binomial(n: int, k: int) -> int:
    """math.comb clamped to 0 whenever k < 0, n < 0, or n < k.

    Bound formulas are allowed to drive the top index negative on degenerate
    inputs; clamping keeps them valid lower bounds with no special-casing.
    """
    if k < 0 or n < 0 or n < k:
        return 0
    return math.comb(n, k)


def all_strings(q: int, n: int) -> Iterator[Qstr]:
    """Every string in [q]^n, in numeric (base-q) order."""
    check_alphabet(q)
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    return product(range(q), repeat=n)


def rank_of(x: Iterable[int], q: int) -> int:
    """The string read as a base-q integer, most significant symbol first."""
    r = 0
    for sym in x:
        r = r * q + sym
    return r


def string_of(rank: int, q: int, n: int) -> Qstr:
    syms = [0] * n
    for i in range(n - 1, -1, -1):
        rank, syms[i] = divmod(rank, q)
    return tuple(syms)


def symmetry_orbits(q: int, n: int) -> list[int]:
    """Orbit id of every string in [q]^n, indexed by rank, under the group
    generated by reversal and the q! symbol permutations.

    The id is the smallest rank in the orbit.  Deletion and insertion sets
    commute with every element of this group, so orbit mates have the same
    channel behaviour up to relabeling.
    """
    check_alphabet(q)
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    # Built one symbol at a time over all prefixes, by rank: relabeled[r] is
    # the rank of prefix r with its symbols renamed 0, 1, 2, ... in order of
    # first appearance (its smallest image under symbol permutations),
    # seen[r] lists those symbols, reversal[r] is the rank of its reversal.
    relabeled, seen, reversal = [0], [()], [0]
    for k in range(n):
        weight = q ** k
        next_relabeled, next_seen, next_reversal = [], [], []
        for rank, names, rev in zip(relabeled, seen, reversal):
            for sym in range(q):
                if sym in names:
                    next_relabeled.append(rank * q + names.index(sym))
                    next_seen.append(names)
                else:
                    next_relabeled.append(rank * q + len(names))
                    next_seen.append(names + (sym,))
                next_reversal.append(sym * weight + rev)
        relabeled, seen, reversal = next_relabeled, next_seen, next_reversal
    return [min(r, relabeled[rev]) for r, rev in zip(relabeled, reversal)]


def orbit_tally(q: int, n: int, key: Callable[[Qstr], Hashable]) -> Counter:
    """Strings of [q]^n per value of key: key is called once per orbit of
    symmetry_orbits(q, n), on its smallest string, and counted with the
    orbit size.  key must be invariant under reversal and the symbol
    permutations."""
    tally: Counter = Counter()
    # an orbit id is first met at its own rank, so orbits come in rank order
    for r, size in Counter(symmetry_orbits(q, n)).items():
        tally[key(string_of(r, q, n))] += size
    return tally


def format_qary(x: Qstr, q: int) -> str:
    if q <= 10:
        return "".join(str(sym) for sym in x)
    return ",".join(str(sym) for sym in x)


def parse_qary(text: str, q: int) -> Qstr:
    """The inverse of format_qary: ASCII decimal digits only, one per symbol
    for q <= 10 and one comma-separated number per symbol above that.  No
    sign, space, underscore or non-ASCII digit is accepted."""
    check_alphabet(q)
    if not text:
        return ()
    parts = text if q <= 10 else text.split(",")
    if not all(part.isascii() and part.isdigit() for part in parts):
        form = "a digit string" if q <= 10 else "comma-separated decimal symbols"
        raise ValueError(f"expected {form}, got {text!r}")
    syms = tuple(int(part) for part in parts)
    for sym in syms:
        if not 0 <= sym < q:
            raise ValueError(f"symbol {sym} out of range for alphabet of size {q}")
    return syms


def alternating_count(q: int, n: int) -> int:
    """|A_{q,n}|: the number of alternating strings of length n over [q]."""
    check_alphabet(q)
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    if n == 0:
        return 1
    if n == 1:
        return q
    return q * (q - 1)


@lru_cache(maxsize=None)
def non_alternating_strings(q: int, n: int) -> tuple[Qstr, ...]:
    """All length-n strings over [q] that are not alternating, numeric order.

    x alternates when two distinct symbols alternate through it, that is when
    longest_alternating_interval(x) == len(x); lengths 0 and 1 alternate."""
    return tuple(x for x in all_strings(q, n) if longest_alternating_interval(x) < n)


def run_count(x: Qstr) -> int:
    """Number of maximal constant blocks; 0 for the empty string."""
    if not x:
        return 0
    return 1 + sum(1 for i in range(1, len(x)) if x[i] != x[i - 1])


def longest_alternating_interval(x: Qstr) -> int:
    """Length of the longest contiguous window that is alternating on its own.

    Window indices are taken relative to the window start.  0 for the empty
    string, at least 1 otherwise.
    """
    if not x:
        return 0
    best = 1
    cur = 1  # length of the longest alternating window ending at i
    for i in range(1, len(x)):
        if x[i] == x[i - 1]:
            cur = 1
        elif cur == 1 or x[i] == x[i - 2]:
            cur += 1
        else:
            cur = 2
        if cur > best:
            best = cur
    return best


class StringStats(NamedTuple):
    runs: int
    longest_alternating: int


def string_stats(x: Qstr) -> StringStats:
    return StringStats(run_count(x), longest_alternating_interval(x))


def enumerate_compositions(t: int, l: int, k: int) -> Iterator[tuple[int, ...]]:
    """All t-tuples of integers >= k summing to l, in lexicographic order.

    Empty stream when l < k*t.
    """
    if t < 1:
        raise ValueError(f"need at least one part, got t={t}")
    if l < 0 or k < 0:
        raise ValueError(f"total and minimum part must be nonnegative, got l={l}, k={k}")

    def rec(parts: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            if remaining >= k:
                yield (remaining,)
            return
        for first in range(k, remaining - k * (parts - 1) + 1):
            for rest in rec(parts - 1, remaining - first):
                yield (first,) + rest

    return rec(t, l)


def insertion_count(q: int, s: int, n: int) -> int:
    """Number of length-n superstrings of any string of length n - s.

    This count does not depend on the starting string; n is the superstring
    length.
    """
    check_alphabet(q)
    if s < 0 or n < 0:
        raise ValueError(f"need s >= 0 and n >= 0, got s={s}, n={n}")
    return sum(binomial(n, i) * (q - 1) ** i for i in range(s + 1))
