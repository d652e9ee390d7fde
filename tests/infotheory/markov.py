"""Finite Markov chains: stationary distributions and entropy rates.

Nothing in the package calls these; they live here with their tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.infotheory.entropy import _xlogx  # type: ignore[attr-defined]

__all__ = [
    "validate_stochastic_matrix",
    "stationary_distribution",
    "entropy_rate",
    "is_irreducible",
    "simulate_chain",
]


def validate_stochastic_matrix(p: np.ndarray) -> np.ndarray:
    """Validate and return a row-stochastic square matrix."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("transition matrix must be square")
    if np.any(arr < 0):
        raise ValueError("transition probabilities must be non-negative")
    if not np.allclose(arr.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("rows must each sum to 1")
    return arr


def stationary_distribution(p: np.ndarray, *, tol: float = 1e-12) -> np.ndarray:
    """Stationary distribution ``pi P = pi`` via eigen-decomposition.

    For reducible chains this returns one valid stationary distribution
    (the one associated with the dominant left eigenvector); chains used
    in this package are irreducible, which callers can check with
    :func:`is_irreducible`.
    """
    arr = validate_stochastic_matrix(p)
    vals, vecs = np.linalg.eig(arr.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    if abs(vals[idx] - 1.0) > 1e-6:
        raise ValueError("matrix has no eigenvalue 1; not stochastic?")
    v = np.real(vecs[:, idx])
    v = np.abs(v)
    total = v.sum()
    if total <= tol:
        raise ValueError("degenerate stationary vector")
    return v / total


def entropy_rate(p: np.ndarray) -> float:
    """Entropy rate ``H(X) = -sum_i pi_i sum_j P_ij log2 P_ij`` in bits."""
    arr = validate_stochastic_matrix(p)
    pi = stationary_distribution(arr)
    per_state = -_xlogx(arr).sum(axis=1)
    return float(pi @ per_state)


def is_irreducible(p: np.ndarray) -> bool:
    """Check irreducibility by reachability on the support digraph."""
    arr = validate_stochastic_matrix(p)
    n = arr.shape[0]
    adj = arr > 0
    reach = np.eye(n, dtype=bool) | adj
    # Repeated squaring of the boolean reachability matrix.
    for _ in range(int(np.ceil(np.log2(max(n, 2))))):
        reach = reach | (reach @ reach)
    return bool(reach.all())


def simulate_chain(
    p: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    *,
    initial_state: Optional[int] = None,
) -> np.ndarray:
    """Sample a trajectory of length *steps* from the chain.

    The initial state is drawn from the stationary distribution unless
    *initial_state* is given.
    """
    arr = validate_stochastic_matrix(p)
    n = arr.shape[0]
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if initial_state is None:
        pi = stationary_distribution(arr)
        state = int(rng.choice(n, p=pi))
    else:
        if not 0 <= initial_state < n:
            raise ValueError("initial_state out of range")
        state = initial_state
    cdf = np.cumsum(arr, axis=1)
    out = np.empty(steps, dtype=np.int64)
    u = rng.random(steps)
    for t in range(steps):
        out[t] = state
        state = int(np.searchsorted(cdf[state], u[t], side="right"))
        state = min(state, n - 1)
    return out
