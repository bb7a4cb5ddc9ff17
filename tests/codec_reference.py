"""Per-parameter view of the edge codec, for tests.

The codec walks parameters block by block; these helpers flatten the blocks
into one parameter at a time, in the same order, and build each edge with
the plain constructor, so tests can compare the block walk with a per-edge
loop.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

from delins import codec as cdc
from delins.channels import DEFAULT_CAP
from delins.codec import InsertTriple
from delins.qstrings import Qstr


class EdgeParameter(NamedTuple):
    """One constructable edge: gap sides, offsets, and s+1 intervals.

    Exactly a of the gap sides are LEFT, offsets lie in [1, q-1], and no
    interval is alternating.  The edge's common subsequence is the
    concatenation of the intervals.
    """

    gap_sides: tuple[str, ...]
    offsets: tuple[int, ...]
    intervals: tuple[Qstr, ...]


def enumerate_parameters(
    q: int, l: int, a: int, b: int, cap: int = DEFAULT_CAP
) -> Iterator[EdgeParameter]:
    """Yield every constructable edge parameter once, in parameter_blocks order
    with the intervals of each block in product order (earlier intervals vary
    slowest).  The cap check happens at the call, not at the first item."""
    blocks = cdc.parameter_blocks(q, l, a, b, cap)
    return (
        EdgeParameter(sides, offsets, intervals)
        for sides, offsets, pools in blocks
        for intervals in product(*pools)
    )


def construct_edge(param: EdgeParameter, q: int) -> tuple[Qstr, Qstr]:
    triples = tuple(map(InsertTriple, param.gap_sides, param.offsets, param.intervals[1:]))
    return cdc.construct(param.intervals[0], triples, q)
