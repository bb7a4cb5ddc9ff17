"""Construct/deconstruct codec for channel graph edges.

An edge of the channel graph can be built from a parameter: a starting
interval, then one insert step per gap.  Each insert step prepends a fresh
symbol to the next interval on exactly one side, chosen so the two sides
disagree on their first symbol.  Because every interval is required to be
non-alternating, the greedy deconstruction below recovers the parameter
exactly, which makes construction injective and the parameter count a lower
bound on the edge count.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Callable, Iterator, NamedTuple

from delins.channels import DEFAULT_CAP
from delins.errors import CapExceededError
from delins.qstrings import (
    Qstr,
    alternating_count,
    check_alphabet,
    enumerate_compositions,
    non_alternating_strings,
)

LEFT = "left"
RIGHT = "right"


class NotDeconstructableError(ValueError):
    """The edge is not in the image of the constructor."""


class AmbiguousDeletionError(NotDeconstructableError):
    """A delete step found equally long matches on both sides.

    This cannot happen on constructed edges; choosing a side arbitrarily
    would fabricate parameters and break the injectivity accounting, so it
    is an error instead.
    """


class InsertTriple(NamedTuple):
    side: str
    offset: int
    interval: Qstr


class EdgeParameter(NamedTuple):
    """One constructable edge: gap sides, offsets, and s+1 intervals.

    Exactly a of the gap sides are LEFT, offsets lie in [1, q-1], and no
    interval is alternating.  The edge's common subsequence is the
    concatenation of the intervals.
    """

    gap_sides: tuple[str, ...]
    offsets: tuple[int, ...]
    intervals: tuple[Qstr, ...]


def insert_step(triple: InsertTriple, q: int) -> tuple[Qstr, Qstr]:
    """Prepend (offset + head) mod q to the interval on the chosen side.

    The two outputs always differ in their first symbol because the offset
    is nonzero mod q.
    """
    check_alphabet(q)
    side, offset, interval = triple
    interval = tuple(interval)
    if not interval:
        raise ValueError("insert step needs a nonempty interval")
    if not 1 <= offset <= q - 1:
        raise ValueError(f"offset must be in [1, {q - 1}], got {offset}")
    extended = ((offset + interval[0]) % q,) + interval
    if side == LEFT:
        return extended, interval
    if side == RIGHT:
        return interval, extended
    raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}, got {side!r}")


def construct(z0: Qstr, triples: tuple[InsertTriple, ...], q: int) -> tuple[Qstr, Qstr]:
    """Build an edge endpoint pair from a starting interval and insert steps."""
    x = y = tuple(z0)
    for triple in triples:
        u, v = insert_step(triple, q)
        x += u
        y += v
    return x, y


def match(x: Qstr, y: Qstr) -> tuple[Qstr, Qstr, Qstr]:
    """Split off the longest common prefix: returns (prefix, x_rest, y_rest)."""
    k = 0
    for a, b in zip(x, y):
        if a != b:
            break
        k += 1
    return tuple(x[:k]), tuple(x[k:]), tuple(y[k:])


def delete_step(x: Qstr, y: Qstr, q: int) -> tuple[InsertTriple, Qstr, Qstr]:
    """Undo one insert step from the front of (x, y).

    Matches after dropping the head of x and after dropping the head of y;
    the longer match identifies the inserted symbol's side and the interval.
    Equal match lengths raise AmbiguousDeletionError.  Both match lengths are
    counted in place; only the winning side is sliced and has its offset
    computed.
    """
    check_alphabet(q)
    if not x or not y:
        raise ValueError("delete step needs two nonempty strings")
    x0, y0 = x[0], y[0]
    if x0 == y0:
        raise ValueError("delete step needs strings with different first symbols")
    nx, ny = len(x), len(y)
    end = ny if ny < nx else nx - 1  # min(nx - 1, ny), without a call
    left = 0  # common prefix length of x[1:] and y
    while left < end and x[left + 1] == y[left]:
        left += 1
    end = nx if nx < ny else ny - 1
    right = 0  # common prefix length of x and y[1:]
    while right < end and x[right] == y[right + 1]:
        right += 1
    if left == right:
        raise AmbiguousDeletionError(f"matches of equal length {left} deleting either head")
    # tuple.__new__ builds the InsertTriple without its Python-level __new__
    if left > right:
        triple = tuple.__new__(InsertTriple, (LEFT, (x0 - y0) % q, tuple(x[1:left + 1])))
        return triple, tuple(x[left + 1:]), tuple(y[left:])
    triple = tuple.__new__(InsertTriple, (RIGHT, (y0 - x0) % q, tuple(x[:right])))
    return triple, tuple(x[right:]), tuple(y[right + 1:])


def deconstruct(
    x: Qstr,
    y: Qstr,
    q: int,
    on_step: Callable[[InsertTriple, Qstr, Qstr], None] | None = None,
) -> tuple[Qstr, tuple[InsertTriple, ...]]:
    """Recover (starting interval, insert steps) from an edge endpoint pair.

    Exact inverse of construct on constructable edges.  Raises
    NotDeconstructableError (or its AmbiguousDeletionError subclass) when the
    pair is outside the constructable image.
    """
    z0, rest_x, rest_y = match(tuple(x), tuple(y))
    triples: list[InsertTriple] = []
    while rest_x and rest_y:
        triple, rest_x, rest_y = delete_step(rest_x, rest_y, q)
        if on_step is not None:
            on_step(triple, rest_x, rest_y)
        triples.append(triple)
    if rest_x or rest_y:
        leftover = rest_x if rest_x else rest_y
        raise NotDeconstructableError(
            f"one side has {len(leftover)} unmatched trailing symbols"
        )
    return z0, tuple(triples)


def parameter_count(q: int, l: int, a: int, b: int) -> int:
    """|P|: closed product-sum count of the constructable edge parameters.

    Sides contribute comb(s, a), offsets (q-1)^s, and each composition of l
    into s+1 parts of size >= 2 contributes the product of non-alternating
    string counts per part.  Parts of size 0 or 1 have no non-alternating
    strings, so restricting to parts >= 2 loses nothing.
    """
    check_alphabet(q)
    if l < 0 or a < 0 or b < 0:
        raise ValueError("parameters must be nonnegative")
    s = a + b
    interval_total = 0
    for comp in enumerate_compositions(s + 1, l, 2):
        prod = 1
        for part in comp:
            prod *= q ** part - alternating_count(q, part)
        interval_total += prod
    return math.comb(s, a) * (q - 1) ** s * interval_total


def enumerate_parameters(
    q: int, l: int, a: int, b: int, cap: int = DEFAULT_CAP
) -> Iterator[EdgeParameter]:
    """Yield every constructable edge parameter exactly once.

    Order: gap-side subsets in colex order, offsets lexicographic,
    compositions lexicographic, per-interval strings in base-q numeric order
    (earlier intervals vary slowest).
    """
    total = parameter_count(q, l, a, b)
    if total > cap:
        raise CapExceededError("edge parameter enumeration", total, cap)
    s = a + b
    side_subsets = sorted(combinations(range(s), a), key=lambda c: c[::-1])

    def generate() -> Iterator[EdgeParameter]:
        for subset in side_subsets:
            chosen = set(subset)
            sides = tuple(LEFT if i in chosen else RIGHT for i in range(s))
            for offsets in product(range(1, q), repeat=s):
                for comp in enumerate_compositions(s + 1, l, 2):
                    pools = [non_alternating_strings(q, part) for part in comp]
                    for intervals in product(*pools):
                        yield EdgeParameter(sides, offsets, intervals)

    return generate()


def roundtrip_counterexample(
    q: int, l: int, a: int, b: int, cap: int = DEFAULT_CAP
) -> tuple[int, tuple[Qstr, Qstr] | None]:
    """Construct the edge of every parameter of (q, l, a, b) and deconstruct it.

    Each distinct (side, offset, interval) insert step is built once per call
    and reused.  Returns (parameters checked, None) when every edge gives back
    its own parameter; otherwise the count up to and including the first edge
    (x, y), in enumerate_parameters order, that does not, and that edge.
    """
    count = 0
    steps: dict[tuple[str, int, Qstr], tuple[Qstr, Qstr]] = {}  # insert_step memo
    for sides, offsets, intervals in enumerate_parameters(q, l, a, b, cap):
        count += 1
        keys = tuple(zip(sides, offsets, intervals[1:]))
        x = y = intervals[0]
        for key in keys:
            step = steps.get(key)
            if step is None:
                step = steps[key] = insert_step(InsertTriple(*key), q)
            x += step[0]
            y += step[1]
        try:
            got = deconstruct(x, y, q)
        except NotDeconstructableError:
            return count, (x, y)
        # an InsertTriple compares equal to its plain (side, offset, interval) key
        if got != (intervals[0], keys):
            return count, (x, y)
    return count, None
