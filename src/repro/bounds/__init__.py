"""Numerical capacity bounds for no-feedback deletion/insertion channels
(the computational-bounds literature the paper cites in Section 4.1).

Every finite-block table and bound is computed over a grid of channel
parameters; a single point is a one-element grid. The insertion-only
channel is the indel channel at ``P_d = 0``.
"""

from .brackets import BracketRow, capacity_bracket_sweep
from .deletion import (
    BlockBoundResult,
    block_bound_sweep,
    deletion_block_transition_stack,
    erasure_upper_bound_binary,
    gallager_lower_bound,
    subsequence_embedding_counts,
)
from .markov_input import (
    MarkovInputBound,
    markov_block_distribution,
    optimize_markov_input_sweep,
)
from .indel import (
    IndelBlockResult,
    indel_block_bound_sweep,
    indel_block_transition_stack,
)

__all__ = [
    "BracketRow",
    "capacity_bracket_sweep",
    "BlockBoundResult",
    "block_bound_sweep",
    "deletion_block_transition_stack",
    "erasure_upper_bound_binary",
    "gallager_lower_bound",
    "subsequence_embedding_counts",
    "MarkovInputBound",
    "markov_block_distribution",
    "optimize_markov_input_sweep",
    "IndelBlockResult",
    "indel_block_bound_sweep",
    "indel_block_transition_stack",
]
