"""Reference route to the alternating test, used only by the tests.

delins.qstrings decides alternation through longest_alternating_interval;
is_alternating here answers from the definition, so the tests can compare
the two.
"""

from delins.qstrings import Qstr


def is_alternating(x: Qstr) -> bool:
    """True iff two distinct symbols alternate through x.

    The empty string and single symbols count as alternating.  For longer
    strings this means one symbol at every even index and a different one at
    every odd index.
    """
    if len(x) <= 1:
        return True
    if x[0] == x[1]:
        return False
    return all(x[i] == x[i - 2] for i in range(2, len(x)))
