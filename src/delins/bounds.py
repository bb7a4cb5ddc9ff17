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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from delins.channels import DEFAULT_CAP, output_count_bound, output_ranks

# Not used here: it stays importable as delins.bounds.channel_output_set, the
# name-bound import that perfbench's tracer test checks is traced.
from delins.channels import channel_output_set  # noqa: F401
from delins.errors import CapExceededError
from delins.qstrings import (
    all_strings,
    binomial,
    check_alphabet,
    insertion_count,
    string_stats,
)

# Tolerance when turning real-valued thresholds into integer cutoffs.
FLOAT_GUARD = 1e-9


def edge_count_upper(q: int, l: int, a: int, b: int) -> int:
    """Upper bound on the channel graph edge count: every edge appears in at
    least one (common subsequence, left endpoint, right endpoint) triple."""
    check_alphabet(q)
    if l < 0 or a < 0 or b < 0:
        raise ValueError("parameters must be nonnegative")
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


def generalized_code_bound(q: int, n: int, a: int, b: int) -> Fraction:
    """Finite-length value of the mixed-channel packing bound on codes that
    correct a deletions and b insertions: q^(n+b) over
    (q-1)^s binom(n, s) binom(s, b), with s = a + b.

    At b = 0 this is Levenshtein's deletion-channel bound.
    """
    check_alphabet(q)
    if a < 0 or b < 0:
        raise ValueError("deletions and insertions must be nonnegative")
    s = a + b
    if s > n:
        raise ValueError(f"need a + b <= n, got {s} > {n}")
    return Fraction(q ** (n + b), (q - 1) ** s * binomial(n, s) * binomial(s, b))


def insertion_code_bound(q: int, n: int, s: int) -> Fraction:
    """Packing bound from the pure-insertion channel:
    q^(n+s) over binom(n, s) (q-1)^s."""
    check_alphabet(q)
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    return Fraction(q ** (n + s), binomial(n, s) * (q - 1) ** s)


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
    Exact class sizes are filled in only when q^n is under the cap.
    """

    q: int
    n: int
    a: int
    b: int
    c_threshold: float  # alternating-interval length cutoff, (s+2) log_q n
    eps: float  # run-count concentration radius, sqrt((s+1) ln n / (2(n-1)))
    alt_cutoff: int  # cutoff actually used: least c with q**c >= n**(s+2)
    run_cutoff: int  # integer cutoff actually used: floor of the run threshold
    typical: int | None = None
    long_alternating: int | None = None
    few_runs: int | None = None


def typicality_split(q: int, n: int, a: int, b: int, cap: int = DEFAULT_CAP) -> TypicalitySplit:
    """Compute the typicality thresholds and, under the cap, exact class sizes.

    The alternating cutoff is ceil(c_threshold) in exact integers: the least
    c >= 0 with q**c >= n**(s+2).  The run-count radius uses the natural log;
    its cutoff is rounded with a small guard so that float noise cannot flip
    a boundary case.
    """
    check_alphabet(q)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    s = a + b
    c_threshold = (s + 2) * math.log(n, q)
    eps = math.sqrt((s + 1) * math.log(n) / (2 * (n - 1)))
    alt_cutoff, power, target = 0, 1, n ** (s + 2)
    while power < target:
        alt_cutoff += 1
        power *= q
    run_threshold = ((q - 1) / q - eps) * (n - 1) + 1
    run_cutoff = math.floor(run_threshold + FLOAT_GUARD)
    base = TypicalitySplit(q, n, a, b, c_threshold, eps, alt_cutoff, run_cutoff)
    if q ** n > cap:
        return base
    typical = long_alt = few = 0
    for x in all_strings(q, n):
        stats = string_stats(x)
        is_long_alt = stats.longest_alternating >= alt_cutoff
        is_few = stats.runs <= run_cutoff
        long_alt += is_long_alt
        few += is_few
        typical += not (is_long_alt or is_few)
    return TypicalitySplit(
        q, n, a, b, c_threshold, eps, alt_cutoff, run_cutoff, typical, long_alt, few
    )


class AverageDegree(NamedTuple):
    average: Fraction
    asymptote: Fraction
    ratio: Fraction | None  # None when the asymptote is zero


def average_degree(q: int, n: int, a: int, b: int, cap: int = DEFAULT_CAP) -> AverageDegree:
    """Exact average output count over [q]^n, with the asymptotic expression
    binom(n, s) binom(s, a) (q-1)^s / q^a and their ratio for trend reports."""
    check_alphabet(q)
    if not 0 <= a <= n or b < 0:
        raise ValueError(f"invalid channel parameters a={a}, b={b} for length {n}")
    work = q ** n * output_count_bound(q, n, a, b)
    if work > cap:
        raise CapExceededError("average degree enumeration", work, cap)
    total = sum(len(output_ranks(x, a, b, q)) for x in all_strings(q, n))
    avg = Fraction(total, q ** n)
    s = a + b
    asym = Fraction(binomial(n, s) * binomial(s, a) * (q - 1) ** s, q ** a)
    return AverageDegree(avg, asym, avg / asym if asym else None)


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
    """Report row for a given total error count s split as (s - b, b)."""
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
        insertion_bound=insertion_code_bound(q, n, s),
        best_b=best,
        improvement=improvement_factor(q, s, best),
    )


CSV_COLUMNS = (
    "q",
    "n",
    "a",
    "b",
    "s",
    "levenshtein",
    "generalized",
    "insertion_bound",
    "best_b",
    "improvement",
)


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def report_csv_lines(rows: Iterable[BoundReport]) -> Iterator[str]:
    yield ",".join(CSV_COLUMNS)
    for r in rows:
        yield ",".join(
            (
                str(r.q),
                str(r.n),
                str(r.a),
                str(r.b),
                str(r.s),
                fraction_str(r.levenshtein),
                fraction_str(r.generalized),
                fraction_str(r.insertion_bound),
                str(r.best_b),
                fraction_str(r.improvement),
            )
        )


def _fraction_json(value: Fraction) -> dict[str, str]:
    return {"numerator": str(value.numerator), "denominator": str(value.denominator)}


def report_json_obj(rows: Iterable[BoundReport]) -> dict:
    return {
        "columns": list(CSV_COLUMNS),
        "rows": [
            {
                "q": r.q,
                "n": r.n,
                "a": r.a,
                "b": r.b,
                "s": r.s,
                "levenshtein": _fraction_json(r.levenshtein),
                "generalized": _fraction_json(r.generalized),
                "insertion_bound": _fraction_json(r.insertion_bound),
                "best_b": r.best_b,
                "improvement": _fraction_json(r.improvement),
            }
            for r in rows
        ],
    }
