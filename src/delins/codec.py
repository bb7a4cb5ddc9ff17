"""Construct/deconstruct codec for channel graph edges.

An edge of the channel graph can be built from a parameter: a starting
interval, then one insert step per gap.  Each insert step prepends a fresh
symbol to the next interval on exactly one side, chosen so the two sides
disagree on their first symbol.  Because every interval is required to be
non-alternating, the greedy deconstruction below recovers the parameter
exactly, which makes construction injective and the parameter count a lower
bound on the edge count.

The round trip walks the parameters in blocks that share the gap sides, the
offsets and the interval lengths.  Within a block every starting interval
shares the same tails, so each tail is built and decoded once, and each edge
only has its starting interval split off by match.
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


# (gap sides, offsets, interval pools): the parameters sharing the sides, the
# offsets and the interval lengths
Block = tuple[tuple[str, ...], tuple[int, ...], tuple[tuple[Qstr, ...], ...]]


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


def undo_steps(
    rest_x: Qstr,
    rest_y: Qstr,
    q: int,
    on_step: Callable[[InsertTriple, Qstr, Qstr], None] | None = None,
) -> tuple[InsertTriple, ...]:
    """Undo insert steps from the front of (rest_x, rest_y) until both are empty.

    The rests are what match leaves after the starting interval.  Raises
    NotDeconstructableError (or its AmbiguousDeletionError subclass) when
    they are not the concatenated outputs of insert steps.
    """
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
    return tuple(triples)


def deconstruct(
    x: Qstr,
    y: Qstr,
    q: int,
    on_step: Callable[[InsertTriple, Qstr, Qstr], None] | None = None,
) -> tuple[Qstr, tuple[InsertTriple, ...]]:
    """Recover (starting interval, insert steps) from an edge endpoint pair.

    Exact inverse of construct on constructable edges: match splits off the
    starting interval and undo_steps the rest.  Raises NotDeconstructableError
    (or its AmbiguousDeletionError subclass) when the pair is outside the
    constructable image.
    """
    z0, rest_x, rest_y = match(tuple(x), tuple(y))
    return z0, undo_steps(rest_x, rest_y, q, on_step)


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


def parameter_blocks(
    q: int, l: int, a: int, b: int, cap: int = DEFAULT_CAP
) -> Iterator[Block]:
    """Yield every block (gap sides, offsets, interval pools) exactly once.

    A block fixes the sides, the offsets and the interval lengths; its
    parameters are product(*pools), with the starting interval from pools[0]
    varying slowest.  Order: gap-side subsets in colex order, offsets
    lexicographic, compositions of l lexicographic, and within each pool the
    strings in base-q numeric order.  Raises CapExceededError up front when
    the parameter count exceeds cap.
    """
    total = parameter_count(q, l, a, b)
    if total > cap:
        raise CapExceededError("edge parameter enumeration", total, cap)
    s = a + b
    side_subsets = sorted(combinations(range(s), a), key=lambda c: c[::-1])

    def generate() -> Iterator[Block]:
        for subset in side_subsets:
            chosen = set(subset)
            sides = tuple(LEFT if i in chosen else RIGHT for i in range(s))
            for offsets in product(range(1, q), repeat=s):
                for comp in enumerate_compositions(s + 1, l, 2):
                    yield sides, offsets, tuple(non_alternating_strings(q, part) for part in comp)

    return generate()


def roundtrip_counterexample(
    q: int, l: int, a: int, b: int, cap: int = DEFAULT_CAP
) -> tuple[int, tuple[Qstr, Qstr] | None]:
    """Check that deconstruct inverts construct on every parameter of (q, l, a, b).

    Returns (parameters checked, None) when every edge gives back its own
    parameter; otherwise the count up to and including the first edge (x, y),
    in parameter order (parameter_blocks, then product of the pools), that
    does not, and that edge.

    The walk goes block by block.  Each tail (the intervals after the first)
    is built once per block into its insert-step keys and its rests (rx, ry)
    from insert_step, memoised per call; the edge of starting interval z0 is
    (z0 + rx, z0 + ry).  deconstruct is match followed by undo_steps on the
    rests, so that edge decodes to its own parameter exactly when
    match(z0 + rx, z0 + ry) == (z0, rx, ry) and undo_steps(rx, ry) == keys.
    The second condition does not depend on z0, so undo_steps runs once per
    tail, on the block's first z0, while every edge still goes through
    match.  A tail whose decode fails fails for every z0, and the first z0's
    row comes first in parameter order, so the first failing edge, and the
    count, are the ones a per-edge deconstruct would report.
    """
    count = 0
    steps: dict[tuple[str, int, Qstr], tuple[Qstr, Qstr]] = {}  # insert_step memo
    for sides, offsets, pools in parameter_blocks(q, l, a, b, cap):
        tails = []
        for tail in product(*pools[1:]):
            keys = tuple(zip(sides, offsets, tail))
            rx = ry = ()
            for key in keys:
                step = steps.get(key)
                if step is None:
                    step = steps[key] = insert_step(InsertTriple(*key), q)
                rx += step[0]
                ry += step[1]
            tails.append((keys, rx, ry))
        decoded = False  # set once the block's first z0 has decoded every tail
        for z0 in pools[0]:
            for keys, rx, ry in tails:
                count += 1
                x, y = z0 + rx, z0 + ry
                if match(x, y) != (z0, rx, ry):
                    return count, (x, y)
                if not decoded:
                    try:
                        got = undo_steps(rx, ry, q)
                    except NotDeconstructableError:
                        return count, (x, y)
                    # an InsertTriple compares equal to its plain (side, offset, interval) key
                    if got != keys:
                        return count, (x, y)
            decoded = True
    return count, None
