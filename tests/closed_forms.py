"""Closed-form counts used only by the tests.

The tests check the enumerators of delins.qstrings against them:
composition_count against enumerate_compositions, runs_distribution
against the run-count histogram of all_strings.
"""

from delins.qstrings import binomial, check_alphabet


def composition_count(t: int, l: int, k: int) -> int:
    """Closed form for the number of t-part compositions of l with parts >= k."""
    if t < 1:
        raise ValueError(f"need at least one part, got t={t}")
    return binomial(l + (1 - k) * t - 1, t - 1)


def runs_distribution(q: int, n: int, r: int) -> int:
    """Number of strings in [q]^n with exactly r runs; 0 outside 1 <= r <= n."""
    check_alphabet(q)
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if not 1 <= r <= n:
        return 0
    return q * binomial(n - 1, r - 1) * (q - 1) ** (r - 1)
