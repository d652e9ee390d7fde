"""Information-theory substrate.

Entropy/mutual-information primitives, a generic discrete memoryless
channel class with a Blahut-Arimoto capacity solver (plus the batched
stack-of-channels kernels in :mod:`.kernels`), factories for the
standard channels used by the paper (erasure, Z, M-ary symmetric,
converted channel), and Shannon's noiseless channel with non-uniform
symbol durations.
"""

from .blahut_arimoto import BlahutArimotoResult, blahut_arimoto
from .channels import (
    bec_capacity,
    binary_erasure_channel,
    binary_symmetric_channel,
    converted_channel_capacity,
    m_ary_erasure_capacity,
    m_ary_erasure_channel,
    m_ary_symmetric_capacity,
    m_ary_symmetric_channel,
    z_channel,
    z_channel_capacity,
)
from .dmc import DiscreteMemorylessChannel
from .kernels import (
    BatchedBAResult,
    blahut_arimoto_batch,
    validate_transition_stack,
)
from .entropy import (
    binary_entropy,
    mutual_information,
    mutual_information_from_joint,
    validate_distribution,
)
from .noiseless import characteristic_root, noiseless_capacity_per_second
from .probability import PROB_ATOL, is_one, is_zero, validate_probability

__all__ = [
    "BlahutArimotoResult",
    "blahut_arimoto",
    "DiscreteMemorylessChannel",
    "BatchedBAResult",
    "blahut_arimoto_batch",
    "validate_transition_stack",
    "binary_entropy",
    "mutual_information",
    "mutual_information_from_joint",
    "validate_distribution",
    "bec_capacity",
    "binary_erasure_channel",
    "binary_symmetric_channel",
    "converted_channel_capacity",
    "m_ary_erasure_capacity",
    "m_ary_erasure_channel",
    "m_ary_symmetric_capacity",
    "m_ary_symmetric_channel",
    "z_channel",
    "z_channel_capacity",
    "characteristic_root",
    "noiseless_capacity_per_second",
    "PROB_ATOL",
    "is_zero",
    "is_one",
    "validate_probability",
]
