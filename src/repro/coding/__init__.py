"""Coding over deletion-insertion channels without feedback.

The paper's Section 4.1 references: Zigangirov sequential decoding
(ref [12]), Davey-MacKay watermark codes (ref [13]) and marker codes —
plus the supporting machinery (convolutional codes, drift
forward-backward, LDPC).
"""

from .alignment import AlignmentResult, MLAlignmentDecoder
from .convolutional import NASA_CC_GENERATORS, ConvolutionalCode
from .forward_backward import DriftChannelModel, DriftDecodeResult
from .identification import ChannelEstimate, estimate_channel_parameters
from .iterative import IterativeDecodeResult, IterativeWatermarkCode
from .ldpc import LDPCCode, make_peg_parity_check
from .marker import MarkerCode, MarkerDecodeResult
from .stack_decoder import StackDecodeResult, StackDecoder
from .watermark import SparseCodebook, WatermarkCode, WatermarkDecodeResult

__all__ = [
    "AlignmentResult",
    "MLAlignmentDecoder",
    "NASA_CC_GENERATORS",
    "ConvolutionalCode",
    "DriftChannelModel",
    "DriftDecodeResult",
    "ChannelEstimate",
    "estimate_channel_parameters",
    "IterativeDecodeResult",
    "IterativeWatermarkCode",
    "LDPCCode",
    "make_peg_parity_check",
    "MarkerCode",
    "MarkerDecodeResult",
    "StackDecodeResult",
    "StackDecoder",
    "SparseCodebook",
    "WatermarkCode",
    "WatermarkDecodeResult",
]
