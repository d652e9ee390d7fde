"""Varshamov-Tenengolts (VT) single-deletion-correcting codes.

The classic algebraic answer to synchronization errors (Levenshtein
1966): the code ``VT_a(n)`` is the set of binary words ``x`` of length
``n`` with ``sum_i i * x_i = a (mod n+1)`` (positions 1-indexed). Every
``VT_a(n)`` corrects any single deletion, and ``VT_0(n)`` is
asymptotically optimal in size.

Where watermark/marker codes handle i.i.d. deletion *rates*, VT codes
handle exactly one deletion per block. No experiment runs them; they
live here with their tests.
"""

from __future__ import annotations


import numpy as np

__all__ = [
    "vt_syndrome",
    "is_vt_codeword",
    "vt_codewords",
    "VTCode",
]


def vt_syndrome(word: np.ndarray) -> int:
    """The VT checksum ``sum_i i * x_i mod (n + 1)`` (1-indexed)."""
    x = np.asarray(word, dtype=np.int64)
    if x.ndim != 1:
        raise ValueError("word must be 1-D")
    if x.size and not np.all((x == 0) | (x == 1)):
        raise ValueError("word must be binary")
    n = x.size
    return int((np.arange(1, n + 1) @ x) % (n + 1))


def is_vt_codeword(word: np.ndarray, a: int = 0) -> bool:
    """Membership test for ``VT_a(n)``."""
    return vt_syndrome(word) == a % (len(np.asarray(word)) + 1)


def vt_codewords(n: int, a: int = 0) -> np.ndarray:
    """Enumerate all codewords of ``VT_a(n)`` (small ``n`` only)."""
    if not 1 <= n <= 20:
        raise ValueError("enumeration supported for 1 <= n <= 20")
    codes = np.arange(1 << n, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1).astype(
        np.int64
    )
    weights = bits @ np.arange(1, n + 1)
    mask = (weights % (n + 1)) == (a % (n + 1))
    return bits[mask]


class VTCode:
    """Encoder/decoder for ``VT_a(n)`` with enumeration-based encoding.

    Encoding maps message indices ``0 .. |VT_a(n)|-1`` to codewords in
    lexicographic order (a systematic VT encoder exists but the
    enumeration keeps this reference implementation transparent).
    Decoding corrects exactly one deletion via Levenshtein's algorithm.
    """

    def __init__(self, n: int, a: int = 0) -> None:
        if not 2 <= n <= 20:
            raise ValueError("supported block lengths: 2..20")
        self.n = n
        self.a = a % (n + 1)
        self._codewords = vt_codewords(n, a)
        if self._codewords.shape[0] == 0:  # pragma: no cover - impossible
            raise ValueError("empty VT code")
        self._index = {
            tuple(int(b) for b in cw): k for k, cw in enumerate(self._codewords)
        }

    @property
    def size(self) -> int:
        return self._codewords.shape[0]

    @property
    def rate(self) -> float:
        """Information bits per transmitted bit."""
        return float(np.log2(self.size)) / self.n

    @property
    def message_bits(self) -> int:
        """Whole information bits the code can carry per block."""
        return int(np.floor(np.log2(self.size)))

    # ------------------------------------------------------------------
    def encode_index(self, message: int) -> np.ndarray:
        """Map a message index to its codeword."""
        if not 0 <= message < self.size:
            raise ValueError(f"message index out of range [0, {self.size})")
        return self._codewords[message].copy()

    def decode_index(self, word: np.ndarray) -> int:
        """Inverse of :meth:`encode_index` for a clean codeword."""
        key = tuple(int(b) for b in np.asarray(word, dtype=np.int64))
        if len(key) != self.n or key not in self._index:
            raise ValueError("not a codeword of this VT code")
        return self._index[key]

    # ------------------------------------------------------------------
    def correct_deletion(self, received: np.ndarray) -> np.ndarray:
        """Recover the codeword from a single-deletion word.

        Levenshtein's algorithm: let the received word have weight
        ``w`` and checksum ``s``; the deficiency
        ``D = (a - s) mod (n+1)`` decides the deleted bit: if
        ``D <= w`` a 0 was deleted with exactly ``D`` ones to its
        right; otherwise a 1 was deleted with ``D - 1 - (#positions?)``
        — concretely, with ``n' - (D - w - 1)``-style left-count
        bookkeeping handled below.
        """
        y = np.asarray(received, dtype=np.int64)
        if y.shape != (self.n - 1,):
            raise ValueError(
                f"received word must have length {self.n - 1} (one deletion)"
            )
        if y.size and not np.all((y == 0) | (y == 1)):
            raise ValueError("received word must be binary")
        w = int(y.sum())
        s = int((np.arange(1, self.n) @ y) % (self.n + 1))
        deficiency = (self.a - s) % (self.n + 1)
        if deficiency <= w:
            # A 0 was deleted with `deficiency` ones to its right:
            # insert a 0 just left of the `deficiency`-th one from the
            # right (at the far right when deficiency == 0).
            ones_seen = 0
            pos = y.size  # insertion index counting from the left
            for i in range(y.size - 1, -1, -1):
                if ones_seen == deficiency:
                    break
                if y[i] == 1:
                    ones_seen += 1
                pos = i
            if ones_seen < deficiency:  # all ones counted; insert at front
                pos = 0
            candidate = np.insert(y, pos, 0)
        else:
            # A 1 was deleted with `deficiency - w - 1` zeros to its
            # left: insert a 1 right of that many zeros.
            zeros_needed = deficiency - w - 1
            zeros_seen = 0
            pos = 0
            for i in range(y.size):
                if zeros_seen == zeros_needed:
                    pos = i
                    break
                if y[i] == 0:
                    zeros_seen += 1
                pos = i + 1
            if zeros_needed == 0:
                pos = 0
            candidate = np.insert(y, pos, 1)
        if vt_syndrome(candidate) != self.a:  # pragma: no cover - safety net
            raise RuntimeError("VT correction failed; input not 1 deletion away?")
        return candidate

    def decode(self, received: np.ndarray) -> int:
        """Full decode: corrects a single deletion if present, then maps
        back to the message index."""
        y = np.asarray(received, dtype=np.int64)
        if y.shape == (self.n,):
            return self.decode_index(y)
        if y.shape == (self.n - 1,):
            return self.decode_index(self.correct_deletion(y))
        raise ValueError("received length must be n or n-1")
