"""Blahut-Arimoto algorithm for discrete memoryless channel capacity.

The algorithm alternates between the optimal "backward" conditional
distribution and the capacity-achieving input distribution, converging to
the channel capacity ``C = max_{p(x)} I(X; Y)``. It is the numerical
workhorse used to cross-check every closed-form capacity in this package
(erasure channels, M-ary symmetric converted channels, Z-channels, ...).

:func:`blahut_arimoto` solves one channel as a one-stack call of
:func:`repro.infotheory.kernels.blahut_arimoto_batch`, the package's
one guarded Blahut-Arimoto iteration. It ends an extreme-regime solve
(``P_d -> 1``, near-degenerate rows) with an honest
:class:`repro.numerics.SolverStatus` and a certified bracket
``[capacity, capacity + gap]``; ``converged`` means ``gap <= tol``.

Reference: R. Blahut, "Computation of channel capacity and
rate-distortion functions", IEEE Trans. IT, 1972.
"""

from __future__ import annotations

import numpy as np

from ..store import cached_solve
from .kernels import (
    BatchedBAResult,
    BlahutArimotoResult,
    blahut_arimoto_batch,
)

__all__ = [
    "BlahutArimotoResult",
    "blahut_arimoto",
]


@cached_solve("blahut_arimoto")
def blahut_arimoto(
    transition: np.ndarray,
    *,
    tol: float = 1e-10,
) -> BlahutArimotoResult:
    """Compute DMC capacity via the Blahut-Arimoto iteration.

    A one-channel call of
    :func:`repro.infotheory.kernels.blahut_arimoto_batch` on the
    ``(nx, ny)`` row-stochastic matrix *transition*, with a
    10,000-iteration cap; *tol* is the kernel's. Memoized through
    :mod:`repro.store` when a result store is active (``REPRO_STORE_DIR`` or
    :func:`repro.store.use_store`); with no store the decorator is a
    bit-exact pass-through.

    Returns
    -------
    BlahutArimotoResult
        The true capacity lies in ``[capacity, capacity + gap]`` on
        every status; ``converged`` means ``gap <= tol``, and otherwise
        ``status`` says how the solve ended.
    """
    w = np.asarray(transition, dtype=float)
    if w.ndim != 2:
        raise ValueError("transition must be a 2-D matrix P(y|x)")
    batch: BatchedBAResult = blahut_arimoto_batch(
        w[None], tol=tol, max_iter=10_000
    )
    return batch.unbatch()[0]

