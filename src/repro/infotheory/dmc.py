"""Discrete memoryless channel (DMC) abstraction.

A :class:`DiscreteMemorylessChannel` wraps a row-stochastic transition
matrix ``P(y|x)`` and provides capacity computation (closed-form where
known, Blahut-Arimoto otherwise), mutual information under a given input
distribution, and sampling.

The converted channel of Wang & Lee's Appendix A (Figure 5) is an
instance of this class; see
:func:`repro.infotheory.channels.m_ary_symmetric_channel`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .blahut_arimoto import BlahutArimotoResult, blahut_arimoto
from .entropy import mutual_information

__all__ = ["DiscreteMemorylessChannel"]


class DiscreteMemorylessChannel:
    """A discrete memoryless channel defined by ``P(y|x)``.

    Parameters
    ----------
    transition:
        Row-stochastic matrix of shape ``(nx, ny)``.
    input_labels, output_labels:
        Optional human-readable labels for the alphabets; purely
        cosmetic, used in ``repr`` and experiment reports.
    """

    def __init__(
        self,
        transition: np.ndarray,
        *,
        input_labels: Optional[Sequence[str]] = None,
        output_labels: Optional[Sequence[str]] = None,
    ) -> None:
        w = np.asarray(transition, dtype=float)
        if w.ndim != 2:
            raise ValueError("transition must be a 2-D matrix P(y|x)")
        if np.any(w < 0):
            raise ValueError("transition probabilities must be non-negative")
        if not np.allclose(w.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("transition matrix rows must each sum to 1")
        self._w = w
        if input_labels is not None and len(input_labels) != w.shape[0]:
            raise ValueError("input_labels length mismatch")
        if output_labels is not None and len(output_labels) != w.shape[1]:
            raise ValueError("output_labels length mismatch")
        self.input_labels = list(input_labels) if input_labels else None
        self.output_labels = list(output_labels) if output_labels else None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def transition_matrix(self) -> np.ndarray:
        """A copy of the ``(nx, ny)`` transition matrix."""
        return self._w.copy()

    @property
    def num_inputs(self) -> int:
        return self._w.shape[0]

    @property
    def num_outputs(self) -> int:
        return self._w.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(nx={self.num_inputs}, "
            f"ny={self.num_outputs})"
        )

    # ------------------------------------------------------------------
    # Information quantities
    # ------------------------------------------------------------------
    def mutual_information(self, input_dist: np.ndarray) -> float:
        """``I(X; Y)`` in bits under input distribution *input_dist*."""
        return mutual_information(input_dist, self._w)

    def capacity(self) -> float:
        """Channel capacity in bits per use, via Blahut-Arimoto."""
        return self.capacity_result().capacity

    def capacity_result(self) -> BlahutArimotoResult:
        """Full Blahut-Arimoto result (capacity + optimal input)."""
        return blahut_arimoto(self._w)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def transmit(
        self, inputs: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Pass an array of input symbol indices through the channel.

        Vectorized inverse-CDF sampling: one uniform draw per symbol.
        """
        x = np.asarray(inputs)
        if x.ndim != 1:
            raise ValueError("inputs must be a 1-D array of symbol indices")
        if x.size and (x.min() < 0 or x.max() >= self.num_inputs):
            raise ValueError("input symbol index out of range")
        cdf = np.cumsum(self._w, axis=1)
        u = rng.random(x.shape[0])
        # searchsorted per row of the CDF selected by x.
        rows = cdf[x]
        y = (u[:, None] > rows).sum(axis=1)
        return np.minimum(y, self.num_outputs - 1).astype(np.int64)
