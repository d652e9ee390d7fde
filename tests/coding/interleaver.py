"""Interleavers.

Drift-decoder residual errors are bursty (clustered around drift
excursions), so outer codes benefit from interleaving. Both block and
seeded pseudorandom interleavers are provided; each is a bijection with
an exact inverse. No decoder in the package uses them; they live here
with their tests.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BlockInterleaver", "RandomInterleaver"]


class BlockInterleaver:
    """Row-in / column-out block interleaver of shape (rows, cols)."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be positive")
        self.rows = rows
        self.cols = cols
        self.length = rows * cols
        self._perm = (
            np.arange(self.length).reshape(rows, cols).T.reshape(-1)
        )
        self._inv = np.argsort(self._perm)

    def interleave(self, data: np.ndarray) -> np.ndarray:
        arr = np.asarray(data)
        if arr.shape != (self.length,):
            raise ValueError(f"data must have length {self.length}")
        return arr[self._perm]

    def deinterleave(self, data: np.ndarray) -> np.ndarray:
        arr = np.asarray(data)
        if arr.shape != (self.length,):
            raise ValueError(f"data must have length {self.length}")
        return arr[self._inv]


class RandomInterleaver:
    """Seeded pseudorandom permutation interleaver."""

    def __init__(self, length: int, seed: int = 0) -> None:
        if length < 1:
            raise ValueError("length must be positive")
        self.length = length
        rng = np.random.default_rng(seed)
        self._perm = rng.permutation(length)
        self._inv = np.argsort(self._perm)

    def interleave(self, data: np.ndarray) -> np.ndarray:
        arr = np.asarray(data)
        if arr.shape != (self.length,):
            raise ValueError(f"data must have length {self.length}")
        return arr[self._perm]

    def deinterleave(self, data: np.ndarray) -> np.ndarray:
        arr = np.asarray(data)
        if arr.shape != (self.length,):
            raise ValueError(f"data must have length {self.length}")
        return arr[self._inv]
