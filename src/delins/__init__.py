"""Combinatorics of fixed-length deletion/insertion channels.

Channel output sets and bipartite channel graphs, an injective edge
construct/deconstruct codec, exact packing bounds on deletion correcting
codes, and brute-force oracles that verify every combinatorial claim at
desk scale.  Import each name from the module that defines it.
"""

# deconstruct is not used here: it stays bound as delins.deconstruct, the
# package-level binding that perfbench's tracer test checks is traced.
from delins.codec import deconstruct  # noqa: F401

__version__ = "0.1.0"
