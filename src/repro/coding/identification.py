"""Channel parameter identification from pilot transmissions.

The paper's estimation recipe needs ``P_d`` (and ``P_i``) of the real
channel, but an attacker or evaluator usually cannot observe channel
events directly — only what was sent and what arrived. This module
closes that gap: given one or more *pilot* transmissions (known bit
sequences) and their received streams, it maximum-likelihood-estimates
``(P_i, P_d)`` using the exact frame likelihood of the drift
forward-backward model.

The likelihood surface is smooth and unimodal in practice; a coarse
grid pass followed by Nelder-Mead polish is robust and fast at pilot
lengths of a few hundred bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize

from ..infotheory.probability import validate_probability
from .forward_backward import DriftChannelModel

__all__ = ["ChannelEstimate", "estimate_channel_parameters"]


@dataclass(frozen=True)
class ChannelEstimate:
    """ML estimate of the channel's synchronization parameters.

    Attributes
    ----------
    insertion_prob, deletion_prob:
        The ML point estimate.
    log_likelihood:
        Total pilot log-likelihood at the estimate.
    """

    insertion_prob: float
    deletion_prob: float
    log_likelihood: float

    def __post_init__(self) -> None:
        validate_probability(self.insertion_prob, "insertion_prob")
        validate_probability(self.deletion_prob, "deletion_prob")


def _total_log_likelihood(
    pi: float,
    pd: float,
    pilots: Sequence[np.ndarray],
    received: Sequence[np.ndarray],
    max_drift: int,
) -> float:
    if pi + pd >= 0.95:
        return -np.inf
    model = DriftChannelModel(
        insertion_prob=pi,
        deletion_prob=pd,
        substitution_prob=1e-3,
        max_drift=max_drift,
    )
    total = 0.0
    for bits, y in zip(pilots, received):
        try:
            total += model.log_likelihood(
                np.asarray(y), np.asarray(bits, dtype=float)
            )
        except ValueError:
            return -np.inf
    return total


def estimate_channel_parameters(
    pilots: Sequence[np.ndarray],
    received: Sequence[np.ndarray],
    *,
    grid: Sequence[float] = (0.01, 0.03, 0.08, 0.15),
) -> ChannelEstimate:
    """ML-estimate ``(P_i, P_d)`` from pilot/received pairs.

    Parameters
    ----------
    pilots:
        Known transmitted bit sequences.
    received:
        The corresponding received streams.
    grid:
        Coarse candidate values for both parameters.

    Returns
    -------
    ChannelEstimate
        The polished ML point estimate.

    The model assumes a small substitution rate, 1e-3, which keeps the
    likelihood finite when a stream contains a flipped bit, and a drift
    window of the worst pilot length difference plus slack, so every
    pilot's likelihood is finite.
    """
    if len(pilots) == 0 or len(pilots) != len(received):
        raise ValueError("need matching non-empty pilot/received lists")
    worst = max(
        abs(len(np.asarray(y)) - len(np.asarray(x)))
        for x, y in zip(pilots, received)
    )
    max_drift = max(12, worst + 8)
    # A large finite penalty keeps Nelder-Mead's simplex arithmetic
    # well-defined when a candidate leaves the feasible region.
    penalty = 1e12

    def objective(params: np.ndarray) -> float:
        pi, pd = float(params[0]), float(params[1])
        if not (0.0 <= pi <= 0.45 and 0.0 <= pd <= 0.45):
            return penalty
        value = _total_log_likelihood(
            pi, pd, pilots, received, max_drift
        )
        if not np.isfinite(value):
            return penalty
        return -value

    # Coarse grid pass.
    best = (np.inf, 0.01, 0.01)
    for pi in grid:
        for pd in grid:
            val = objective(np.array([pi, pd]))
            if val < best[0]:
                best = (val, pi, pd)

    # Local polish.
    result = optimize.minimize(
        objective,
        x0=np.array([best[1], best[2]]),
        method="Nelder-Mead",
        options={"xatol": 1e-4, "fatol": 1e-4, "maxiter": 120},
    )
    pi_hat = float(max(0.0, result.x[0]))
    pd_hat = float(max(0.0, result.x[1]))
    return ChannelEstimate(
        insertion_prob=pi_hat,
        deletion_prob=pd_hat,
        log_likelihood=float(-result.fun),
    )
