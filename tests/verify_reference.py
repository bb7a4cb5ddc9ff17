"""Second routes to six claims of `delins verify`, for tests.

Five claims run on symmetry classes: oracle._check_parallelogram reads
one x per symbol relabelling, oracle._check_insert_delete one interval per
class of the maps c -> +-c + t mod q, oracle._check_degree_lower_bound
one string per orbit, and the two concentration claims one orbit_tally.
The scans here run every instance, in the same order, and report the same
(instances, first counterexample), so tests can compare the reduced claims
with a plain loop.  equivariance_counterexample
checks the symmetry that the inversion reduction rests on.  Like the
claims, these read SUFFIX_LENGTH, MAX_S and the codec and bound functions
from their modules when they run, so a test that rebinds one changes both
routes; parallelogram_full_scan reads lcs_length and scs_length from this
module, so a test skews it by rebinding them here.

channels.channel_conflict_masks builds the channel side of the equivalence
claim by a level walk of single-position deletions;
channel_masks_by_outputs builds it from each input's output set instead.
"""

from __future__ import annotations

from typing import Iterator

from delins import bounds as bnd
from delins import channels as ch
from delins import codec as cdc
from delins import oracle as orc
from delins.codec import InsertTriple
from delins.qstrings import Qstr, all_strings, format_qary, non_alternating_strings, string_stats

from lcs_reference import lcs_length, scs_length


def inversion_grid(q: int, limit: int) -> Iterator[tuple[InsertTriple, Qstr, Qstr, Qstr, Qstr]]:
    """Every inversion instance (triple, x, y, u, v) up to interval length
    limit, in the order of the claim: (x, y) is insert_step(triple) and the
    suffix pair (u, v) is both empty or has differing heads."""
    suffixes: list[Qstr] = [()]
    for length in range(1, min(orc.SUFFIX_LENGTH, limit) + 1):
        suffixes.extend(all_strings(q, length))
    pairs = [
        (u, v)
        for u in suffixes
        for v in suffixes
        if (not u and not v) or (u and v and u[0] != v[0])
    ]
    for length in range(2, limit + 1):
        for w in non_alternating_strings(q, length):
            for side in (cdc.LEFT, cdc.RIGHT):
                for offset in range(1, q):
                    triple = cdc.InsertTriple(side, offset, w)
                    x, y = cdc.insert_step(triple, q)
                    for u, v in pairs:
                        yield triple, x, y, u, v


def _instance(q: int, triple: InsertTriple, u: Qstr, v: Qstr) -> str:
    return (
        f"q={q} side={triple.side} offset={triple.offset} "
        f"w={format_qary(triple.interval, q)} u={format_qary(u, q)} v={format_qary(v, q)}"
    )


def insert_delete_full_scan(q: int, limit: int) -> tuple[int, str | None]:
    """The inversion claim on every instance of the grid."""
    instances = 0
    for triple, x, y, u, v in inversion_grid(q, limit):
        instances += 1
        try:
            got = cdc.delete_step(x + u, y + v, q)
        except cdc.NotDeconstructableError:
            got = None  # a refusal fails the instance like a wrong answer
        if got != (triple, u, v):
            return instances, _instance(q, triple, u, v)
    return instances, None


def parallelogram_full_scan(q: int, limit: int) -> tuple[int, str | None]:
    """The duality claim on every pair (x, y) of every (m, n), each length
    l in [1, min(m, n)) decided from lcs_length and scs_length, counted up
    to and including the first failure."""
    instances = 0
    for m in range(2, limit + 1):
        for n in range(2, limit + 1):
            for x in all_strings(q, m):
                for y in all_strings(q, n):
                    lcs, scs = lcs_length(x, y), scs_length(x, y)
                    for l in range(1, min(m, n)):
                        instances += 1
                        if (lcs >= l) != (scs <= m + n - l):
                            return instances, f"q={q} l={l} m={m} n={n} {orc._pair(x, y, q)}"
    return instances, None


def degree_lower_bound_full_scan(q: int, limit: int) -> tuple[int, str | None]:
    """The degree lower bound claim on every string of every length."""
    limit = min(limit, 8 if q == 2 else 5)
    instances = 0
    for n in range(1, limit + 1):
        for x in all_strings(q, n):
            stats = string_stats(x)
            for a, b in orc._splits(min(orc.MAX_S, n)):
                instances += 1
                lower = bnd.degree_lower_bound(q, n, stats.runs, stats.longest_alternating, a, b)
                actual = len(ch.output_ranks(x, a, b, q))
                if lower > actual:
                    return instances, (
                        f"q={q} n={n} a={a} b={b} x={format_qary(x, q)} "
                        f"lower={lower} actual={actual}"
                    )
    return instances, None


def concentration_full_scan(key: str, q: int, limit: int) -> tuple[int, str | None]:
    """The concentration claim `key`, "alternating_bound" or "runs_bound",
    from a histogram over every string of [q]^n, counted up to and
    including the first failure."""
    instances = 0
    if key == "alternating_bound":
        for n in range(2, limit + 1):
            histogram = [0] * (n + 1)
            for x in all_strings(q, n):
                histogram[string_stats(x).longest_alternating] += 1
            for c in range(2, n + 1):
                count = sum(histogram[c:])
                bound = bnd.alternating_interval_bound(q, n, c)
                instances += 1
                if count > bound:
                    return instances, f"q={q} n={n} c={c} count={count} bound={bound}"
        return instances, None
    for n in range(1, limit + 1):
        histogram = [0] * (n + 2)
        for x in all_strings(q, n):
            histogram[string_stats(x).runs] += 1
        for eps in orc.EPS_GRID:
            count = sum(histogram[: max(bnd.few_runs_cutoff(q, n, eps), 0) + 1])
            bound = bnd.few_runs_bound(q, n, eps)
            instances += 1
            if count > bound + 1e-12 * max(1.0, bound):
                return instances, f"q={q} n={n} eps={eps} count={count} bound={bound}"
    return instances, None


def channel_masks_by_outputs(q: int, n: int, a: int, b: int) -> list[int]:
    """The (a, b)-channel conflict rows of [q]^n from the output sets: each
    input joins the holders of every rank of output_ranks, and
    conflict_masks ORs each output's holders into their rows."""
    holders: list[list[int]] = [[] for _ in range(q ** (n - a + b))]
    for rank, x in enumerate(all_strings(q, n)):
        for y in ch.output_ranks(x, a, b, q):
            holders[y].append(rank)
    return ch.conflict_masks(q ** n, holders)


def relabel(x: Qstr, sign: int, t: int, q: int) -> Qstr:
    """x under the map c -> sign * c + t mod q."""
    return tuple([(sign * c + t) % q for c in x])


def _maps(q: int) -> list[tuple[int, int]]:
    """(sign, t) of every map c -> sign * c + t mod q but the identity.  At
    q = 2 the negation is the identity, so two pairs repeat a map; that only
    repeats checks."""
    return [(sign, t) for sign in (1, -1) for t in range(q) if (sign, t) != (1, 0)]


def _delete_outcome(x: Qstr, y: Qstr, q: int) -> object:
    """delete_step(x, y) as plain tuples, or the type of the exception it raised."""
    try:
        triple, rest_x, rest_y = cdc.delete_step(x, y, q)
    except ValueError as err:
        return type(err)
    return tuple(triple), rest_x, rest_y


def _relabelled(outcome: object, sign: int, t: int, q: int) -> object:
    if isinstance(outcome, type):
        return outcome
    (side, offset, interval), rest_x, rest_y = outcome
    return (
        (side, sign * offset % q, relabel(interval, sign, t, q)),
        relabel(rest_x, sign, t, q),
        relabel(rest_y, sign, t, q),
    )


def equivariance_counterexample(q: int, limit: int) -> str | None:
    """The first instance of the inversion grid, with a map c -> sign * c + t
    mod q, at which insert_step or delete_step does not commute with that
    map, or None.  The map sends offset k to sign * k mod q.  A refusal must
    stay a refusal of the same exception type.

    The grid is closed under the maps and they form a group, so the
    instances R with w[0] = 0 are compared, each against its every map:
    every instance is I = g(R) for a shift g and such an R, and the steps
    commute with g and with hg at R, so they commute with h at I.
    """
    maps = _maps(q)
    checked = None
    for triple, x, y, u, v in inversion_grid(q, limit):
        if triple.interval[0]:
            continue  # a shift of an instance with w[0] = 0
        side, offset, w = triple
        if triple != checked:
            checked = triple
            for sign, t in maps:
                mapped = InsertTriple(side, sign * offset % q, relabel(w, sign, t, q))
                if cdc.insert_step(mapped, q) != (
                    relabel(x, sign, t, q), relabel(y, sign, t, q)
                ):
                    return (
                        f"q={q} side={side} offset={offset} w={format_qary(w, q)} "
                        f"sign={sign} t={t}"
                    )
        xu, yv = x + u, y + v
        want = _delete_outcome(xu, yv, q)
        for sign, t in maps:
            got = _delete_outcome(relabel(xu, sign, t, q), relabel(yv, sign, t, q), q)
            if got != _relabelled(want, sign, t, q):
                return f"{_instance(q, triple, u, v)} sign={sign} t={t}"
    return None
