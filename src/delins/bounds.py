"""Closed-form bounds on channel graph degrees and code sizes.

Counting bounds use exact integer/rational arithmetic.  The concentration
bound on run counts is inherently real-valued and is computed in double
precision; comparisons against it tolerate 1e-12 relative slack.  The code
size bounds are finite-length evaluations of asymptotic expressions: they
are formula values, not certified finite-length statements (certified
finite-length bounds come from the packing argument in the oracle module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Iterator

# channel_output_set is not used here: it stays importable as
# delins.bounds.channel_output_set, the name-bound import that perfbench's
# tracer test checks is traced.
from delins.channels import channel_output_set, check_graph_parameters  # noqa: F401
from delins.qstrings import StringStats, binomial, check_alphabet, insertion_count

# Tolerance when turning real-valued thresholds into integer cutoffs.
FLOAT_GUARD = 1e-9


def edge_count_upper(q: int, l: int, a: int, b: int) -> int:
    """Upper bound on the channel graph edge count: every edge appears in at
    least one (common subsequence, left endpoint, right endpoint) triple."""
    check_graph_parameters(q, l, a, b)
    return q ** l * insertion_count(q, a, l + a) * insertion_count(q, b, l + b)


def degree_lower_bound(q: int, n: int, r: int, c: int, a: int, b: int) -> int:
    """Lower bound on the output count of an input with r runs whose longest
    alternating interval has length at most c.

    Clamped binomials absorb degenerate inputs, so the value is always a
    valid (possibly zero) lower bound.
    """
    check_alphabet(q)
    return (
        binomial(r - a - 2 - (a + 1) * c, a)
        * binomial(n - 2 * a - 1 - (2 * a + b + 1) * c, b)
        * (q - 1) ** b
    )


def alternating_interval_bound(q: int, n: int, c: int) -> int:
    """Upper bound on the number of length-n strings containing an
    alternating interval of length at least c."""
    check_alphabet(q)
    if not 2 <= c <= n:
        raise ValueError(f"need 2 <= c <= n, got c={c}, n={n}")
    return (n - c + 1) * q ** (n - c + 1) * (q - 1)


def few_runs_bound(q: int, n: int, eps: float) -> float:
    """Upper bound on the number of length-n strings with at most
    ((q-1)/q - eps)(n-1) + 1 runs."""
    check_alphabet(q)
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    return q ** n * math.exp(-2 * (n - 1) * eps * eps)


def few_runs_cutoff(q: int, n: int, eps: float) -> int:
    """The most runs a length-n string may have and still count as having
    few runs: the floor of ((q-1)/q - eps)(n-1) + 1.  eps is a float (the
    typicality radius is the square root of a logarithm), so the floor is
    taken with a small guard, so that float noise cannot flip a boundary
    case."""
    return math.floor(((q - 1) / q - eps) * (n - 1) + 1 + FLOAT_GUARD)


def generalized_code_bound(q: int, n: int, a: int, b: int) -> Fraction:
    """Finite-length value of the mixed-channel packing bound on codes that
    correct a deletions and b insertions: q^(n+b) over
    (q-1)^s binom(n, s) binom(s, b), with s = a + b.

    At b = 0 this is Levenshtein's deletion-channel bound, at a = 0 the
    insertion-channel bound.
    """
    check_alphabet(q)
    if a < 0 or b < 0:
        raise ValueError("deletions and insertions must be nonnegative")
    s = a + b
    if s > n:
        raise ValueError(f"need a + b <= n, got {s} > {n}")
    return Fraction(q ** (n + b), (q - 1) ** s * binomial(n, s) * binomial(s, b))


def optimal_b(q: int, s: int) -> int:
    """The insertion count minimizing the generalized bound at fixed s:
    ceil((s - q) / (q + 1)), clamped to 0."""
    check_alphabet(q)
    if s < 0:
        raise ValueError(f"total errors must be nonnegative, got {s}")
    return max(0, -((q - s) // (q + 1)))


def improvement_factor(q: int, s: int, b: int) -> Fraction:
    """Ratio of Levenshtein's bound to the generalized bound at b insertions:
    binom(s, b) / q^b."""
    check_alphabet(q)
    if not 0 <= b <= s:
        raise ValueError(f"need 0 <= b <= s, got b={b}, s={s}")
    return Fraction(binomial(s, b), q ** b)


@dataclass(frozen=True)
class TypicalitySplit:
    """Three-way classification of [q]^n used by the code size bound.

    Strings with a long alternating interval and strings with few runs are
    the atypical classes (they may overlap); everything else is typical.
    """

    alt_cutoff: int  # least c with q**c >= n**(s+2), i.e. ceil((s+2) log_q n)
    run_cutoff: int  # few_runs_cutoff at radius sqrt((s+1) ln n / (2(n-1)))

    def is_typical(self, stats: StringStats) -> bool:
        """Typical: every alternating interval is shorter than alt_cutoff and
        there are more than run_cutoff runs."""
        return stats.longest_alternating < self.alt_cutoff and stats.runs > self.run_cutoff


def typicality_split(q: int, n: int, a: int, b: int) -> TypicalitySplit:
    """Compute the typicality thresholds.

    The alternating cutoff is ceil((s+2) log_q n) in exact integers: the
    least c >= 0 with q**c >= n**(s+2).  The run-count radius uses the
    natural log; few_runs_cutoff turns it into the run-count cutoff.
    """
    check_alphabet(q)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    s = a + b
    eps = math.sqrt((s + 1) * math.log(n) / (2 * (n - 1)))
    alt_cutoff, power, target = 0, 1, n ** (s + 2)
    while power < target:
        alt_cutoff += 1
        power *= q
    return TypicalitySplit(alt_cutoff, few_runs_cutoff(q, n, eps))


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound formulas for one channel, for table emission."""

    q: int
    n: int
    a: int
    b: int
    s: int
    levenshtein: Fraction
    generalized: Fraction
    insertion_bound: Fraction
    best_b: int
    improvement: Fraction


def bound_report(q: int, n: int, s: int, b: int) -> BoundReport:
    """Report row for a given total error count s split as (s - b, b); the
    levenshtein and insertion_bound cells are its endpoints b = 0 and a = 0."""
    if not 0 <= b <= s:
        raise ValueError(f"need 0 <= b <= s, got b={b}, s={s}")
    if s > n:
        raise ValueError(f"need s <= n, got s={s}, n={n}")
    best = optimal_b(q, s)
    return BoundReport(
        q=q,
        n=n,
        a=s - b,
        b=b,
        s=s,
        levenshtein=generalized_code_bound(q, n, s, 0),
        generalized=generalized_code_bound(q, n, s - b, b),
        insertion_bound=generalized_code_bound(q, n, 0, s),
        best_b=best,
        improvement=improvement_factor(q, s, best),
    )


CSV_COLUMNS = tuple(f.name for f in fields(BoundReport))


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def report_csv_lines(rows: Iterable[BoundReport]) -> Iterator[str]:
    """The header, then one line per report: a Fraction cell as n/d, an int as is."""
    yield ",".join(CSV_COLUMNS)
    for r in rows:
        cells = (getattr(r, name) for name in CSV_COLUMNS)
        yield ",".join(fraction_str(v) if isinstance(v, Fraction) else str(v) for v in cells)


def report_json_obj(rows: Iterable[BoundReport]) -> dict:
    """The columns and one object per report: a Fraction cell as numerator and
    denominator strings, an int as is."""

    def cell(value: int | Fraction) -> int | dict[str, str]:
        if isinstance(value, Fraction):
            return {"numerator": str(value.numerator), "denominator": str(value.denominator)}
        return value

    return {
        "columns": list(CSV_COLUMNS),
        "rows": [{name: cell(getattr(r, name)) for name in CSV_COLUMNS} for r in rows],
    }
