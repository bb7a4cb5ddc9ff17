"""Reference routes to LCS and SCS questions, used only by the tests.

Each answers from its own dynamic-programming table, independently of the
LCS/SCS sweep and the rank enumerators in delins.channels, so the tests can
compare those against them.
"""

from delins.qstrings import Qstr


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
