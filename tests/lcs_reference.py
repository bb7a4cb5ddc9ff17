"""Reference routes to subsequence, LCS and SCS questions, used only by the
tests.

Each answers by its own method, independently of the prefix-shared LCS/SCS
tables and the rank enumerators in delins.channels, so the tests can
compare those against them: is_subsequence by one scan of x, lcs_length
and scs_length by their own dynamic-programming tables, lcs_at_least by
bit-parallel bit vectors.
"""

from functools import lru_cache

from delins.qstrings import Qstr


def is_subsequence(z: Qstr, x: Qstr) -> bool:
    """True iff z can be obtained from x by deleting symbols."""
    it = iter(x)
    return all(sym in it for sym in z)


def lcs_length(x: Qstr, y: Qstr) -> int:
    """Length of the longest common subsequence, by the standard table."""
    if not x or not y:
        return 0
    prev = [0] * (len(y) + 1)
    for xi in x:
        cur = [0] * (len(y) + 1)
        for j, yj in enumerate(y):
            if xi == yj:
                cur[j + 1] = prev[j] + 1
            else:
                a, b = cur[j], prev[j + 1]
                cur[j + 1] = a if a >= b else b
        prev = cur
    return prev[-1]


@lru_cache(maxsize=1)
def _match_masks(x: Qstr) -> dict[int, int]:
    """Bit i of masks[c] is set iff x[i] == c."""
    masks: dict[int, int] = {}
    for i, c in enumerate(x):
        masks[c] = masks.get(c, 0) | 1 << i
    return masks


def lcs_at_least(x: Qstr, y: Qstr, l: int) -> bool:
    """Decide lcs_length(x, y) >= l with the bit-parallel LCS of Allison and
    Dix (1986) in the form of Hyyro (2004).

    For the prefix p of y read so far, bit i of v is clear iff
    LCS(x[:i+1], p) exceeds LCS(x[:i], p), so the LCS is the number of clear
    bits among the low len(x).  With u = v & masks[c], reading the next
    symbol c of y is v = (v + u) | (v - u).  The masks of the last x are
    kept, so a scan over many y for one x builds them once.
    """
    m = len(x)
    if l <= 0:
        return True
    if l > m or l > len(y):
        return False
    masks = _match_masks(tuple(x))
    full = (1 << m) - 1
    v = full
    for c in y:
        u = v & masks.get(c, 0)
        v = ((v + u) | (v - u)) & full
    return m - v.bit_count() >= l


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
