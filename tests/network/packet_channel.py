"""A gap decoder with no caller in the package, kept for its tests."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.network.packet_channel import PacketFlowConfig, _nearest_symbol


def decode_gaps(
    gaps: Sequence[float], config: PacketFlowConfig
) -> np.ndarray:
    """Nearest-duration hard decoding of a gap sequence."""
    arr = np.asarray(gaps, dtype=float)
    if arr.ndim != 1:
        raise ValueError("gaps must be 1-D")
    if np.any(arr < 0):
        raise ValueError("gaps must be non-negative")
    return _nearest_symbol(arr, np.asarray(config.gap_durations))
