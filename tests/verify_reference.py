"""Full-scan routes to the two claims that `delins verify` runs on symmetry
classes, for tests.

oracle._check_insert_delete runs one interval per cyclic-shift class and
oracle._check_degree_lower_bound one string per orbit.  The scans here run
every instance, in the same order, and report the same (instances, first
counterexample), so tests can compare the reduced claims with a plain loop.
shift_equivariance_counterexample checks the symmetry that the inversion
reduction rests on.  Like the claims, these read SUFFIX_LENGTH, MAX_S and
the codec and bound functions from their modules when they run, so a test
that rebinds one changes both routes.
"""

from __future__ import annotations

from typing import Iterator

from delins import bounds as bnd
from delins import channels as ch
from delins import codec as cdc
from delins import oracle as orc
from delins.codec import InsertTriple
from delins.qstrings import Qstr, all_strings, format_qary, non_alternating_strings, string_stats


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


def shift(x: Qstr, t: int, q: int) -> Qstr:
    """x under the cyclic shift c -> c + t mod q."""
    return tuple([(c + t) % q for c in x])


def _delete_outcome(x: Qstr, y: Qstr, q: int) -> object:
    """delete_step(x, y) as plain tuples, or the type of the exception it raised."""
    try:
        triple, rest_x, rest_y = cdc.delete_step(x, y, q)
    except ValueError as err:
        return type(err)
    return tuple(triple), rest_x, rest_y


def _shifted(outcome: object, t: int, q: int) -> object:
    if isinstance(outcome, type):
        return outcome
    (side, offset, interval), rest_x, rest_y = outcome
    return (side, offset, shift(interval, t, q)), shift(rest_x, t, q), shift(rest_y, t, q)


def shift_equivariance_counterexample(q: int, limit: int) -> str | None:
    """The first instance of the inversion grid, with a shift t, at which
    insert_step or delete_step does not commute with the cyclic shift
    c -> c + t mod q, or None.  A refusal must stay a refusal of the same
    exception type.

    The grid is closed under the shifts and they form a group, so the
    instances with w[0] = 0 are compared, each against its every shift:
    for an instance I = shift_s(R), the shift t of I is shift_(s+t)(R), so
    this compares every instance with every shift of it.
    """
    checked = None
    for triple, x, y, u, v in inversion_grid(q, limit):
        if triple.interval[0]:
            continue  # a shift of an instance with w[0] = 0
        side, offset, w = triple
        if triple != checked:
            checked = triple
            for t in range(1, q):
                inserted = cdc.insert_step(InsertTriple(side, offset, shift(w, t, q)), q)
                if inserted != (shift(x, t, q), shift(y, t, q)):
                    return f"q={q} side={side} offset={offset} w={format_qary(w, q)} t={t}"
        xu, yv = x + u, y + v
        want = _delete_outcome(xu, yv, q)
        for t in range(1, q):
            if _delete_outcome(shift(xu, t, q), shift(yv, t, q), q) != _shifted(want, t, q):
                return f"{_instance(q, triple, u, v)} t={t}"
    return None
