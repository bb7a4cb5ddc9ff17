"""Combinatorics of fixed-length deletion/insertion channels.

Channel output sets and bipartite channel graphs, an injective edge
construct/deconstruct codec, exact packing bounds on deletion correcting
codes, and brute-force oracles that verify every combinatorial claim at
desk scale.
"""

from delins.bounds import (
    BoundReport,
    TypicalitySplit,
    alternating_interval_bound,
    bound_report,
    degree_lower_bound,
    edge_count_upper,
    few_runs_bound,
    generalized_code_bound,
    improvement_factor,
    optimal_b,
    typicality_split,
)
from delins.channels import (
    DEFAULT_CAP,
    ChannelGraph,
    build_channel_graph,
    channel_output_set,
    check_channel_equivalence,
    deletion_ranks,
    deletion_set,
    insertion_ranks,
    insertion_set,
    output_ranks,
)
from delins.codec import (
    LEFT,
    RIGHT,
    AmbiguousDeletionError,
    InsertTriple,
    NotDeconstructableError,
    construct,
    deconstruct,
    delete_step,
    insert_step,
    match,
    parameter_count,
)
from delins.errors import CapExceededError
from delins.oracle import (
    CodeCertificate,
    ConflictGraph,
    LemmaCheck,
    VerifyCaps,
    build_conflict_graph,
    max_code_exact,
    packing_code_bound,
    verify_all_lemmas,
    vt_code,
)
from delins.qstrings import (
    Qstr,
    alternating_count,
    enumerate_compositions,
    insertion_count,
    is_alternating,
    longest_alternating_interval,
    run_count,
)

__version__ = "0.1.0"
