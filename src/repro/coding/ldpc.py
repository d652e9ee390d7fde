"""Regular binary LDPC codes with sum-product decoding.

Davey & MacKay's outer code was a (non-binary) low-density parity-check
code; this module provides the binary counterpart: a Gallager-style
regular parity-check construction, systematic encoding via GF(2)
elimination, and belief-propagation (sum-product) decoding from channel
LLRs. Used as an alternative outer code around the drift decoder and
as a standalone FEC substrate in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..numerics import SolverStatus, record_status

__all__ = ["LDPCCode", "make_peg_parity_check"]


def make_peg_parity_check(
    n: int,
    column_weight: int,
    num_checks: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Progressive Edge-Growth (PEG) parity-check construction.

    Hu, Eleftheriou & Arnold's algorithm: edges are added one variable
    node at a time; each new edge attaches to a check node as *far* as
    possible from the variable in the current graph (maximizing local
    girth), with lowest-degree tie-breaking. Produces column-regular
    codes free of 4-cycles at practical sizes — the construction used
    by the test-suite codes.
    """
    if n < 2 or num_checks < 1 or column_weight < 1:
        raise ValueError("invalid dimensions")
    if num_checks >= n:
        raise ValueError("construction yields a rate <= 0 code")
    if column_weight > num_checks:
        raise ValueError("column weight exceeds number of checks")
    h = np.zeros((num_checks, n), dtype=np.int8)
    check_deg = np.zeros(num_checks, dtype=np.int64)
    var_neighbors: list = [[] for _ in range(n)]
    check_neighbors: list = [[] for _ in range(num_checks)]

    for v in range(n):
        for k in range(column_weight):
            if k == 0:
                # First edge: any lowest-degree check.
                candidates = np.nonzero(check_deg == check_deg.min())[0]
            else:
                # BFS from v to find checks reachable in the current
                # graph; prefer unreachable (infinitely far) checks.
                reached = set(var_neighbors[v])
                frontier_vars = set()
                for c in var_neighbors[v]:
                    frontier_vars.update(check_neighbors[c])
                visited_vars = set(frontier_vars) | {v}
                while True:
                    new_checks = set()
                    for u in frontier_vars:
                        new_checks.update(var_neighbors[u])
                    new_checks -= reached
                    if not new_checks or len(reached) + len(new_checks) >= num_checks:
                        break
                    reached |= new_checks
                    next_vars = set()
                    for c in new_checks:
                        next_vars.update(check_neighbors[c])
                    frontier_vars = next_vars - visited_vars
                    visited_vars |= frontier_vars
                    if not frontier_vars:
                        break
                outside = np.asarray(
                    [c for c in range(num_checks) if c not in reached],
                    dtype=np.int64,
                )
                if outside.size == 0:  # graph saturated: fall back
                    outside = np.asarray(
                        [c for c in range(num_checks) if c not in var_neighbors[v]],
                        dtype=np.int64,
                    )
                degs = check_deg[outside]
                candidates = outside[degs == degs.min()]
            c = int(candidates[rng.integers(0, candidates.size)])
            h[c, v] = 1
            check_deg[c] += 1
            var_neighbors[v].append(c)
            check_neighbors[c].append(v)
    return h


def _gf2_row_reduce(h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row-reduce *h* over GF(2); returns (reduced, pivot columns)."""
    a = h.copy().astype(np.int8) % 2
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_rows = np.nonzero(a[r:, c])[0]
        if pivot_rows.size == 0:
            continue
        p = pivot_rows[0] + r
        if p != r:
            a[[r, p]] = a[[p, r]]
        mask = a[:, c].copy()
        mask[r] = 0
        a[mask == 1] ^= a[r]
        pivots.append(c)
        r += 1
    return a[:r], np.asarray(pivots, dtype=np.int64)


@dataclass
class LDPCCode:
    """A binary LDPC code defined by a parity-check matrix.

    Encoding permutes columns so the pivot positions form an identity
    block, then computes parity from the systematic message positions.
    """

    parity_check: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.parity_check, dtype=np.int8) % 2
        if h.ndim != 2:
            raise ValueError("parity_check must be a matrix")
        self.parity_check = h
        reduced, pivots = _gf2_row_reduce(h)
        self._reduced = reduced
        self._pivots = pivots
        n = h.shape[1]
        self._free = np.setdiff1d(np.arange(n), pivots)
        if self._free.size == 0:
            raise ValueError("code has zero rate")
        # For encoding: pivot bits = reduced[:, free] @ message (mod 2).
        self._encode_matrix = reduced[:, self._free] % 2
        # Adjacency for BP.
        self._check_neighbors = [np.nonzero(h[r])[0] for r in range(h.shape[0])]
        self._var_neighbors = [np.nonzero(h[:, c])[0] for c in range(n)]

    # ------------------------------------------------------------------
    @property
    def block_length(self) -> int:
        return self.parity_check.shape[1]

    @property
    def message_length(self) -> int:
        return int(self._free.size)

    @property
    def rate(self) -> float:
        return self.message_length / self.block_length

    # ------------------------------------------------------------------
    def encode(self, message: np.ndarray) -> np.ndarray:
        """Systematic encode: message bits land on the non-pivot
        (free) positions, parity on the pivot positions."""
        msg = np.asarray(message, dtype=np.int8) % 2
        if msg.shape != (self.message_length,):
            raise ValueError(
                f"message must have shape ({self.message_length},)"
            )
        codeword = np.zeros(self.block_length, dtype=np.int8)
        codeword[self._free] = msg
        parity = (self._encode_matrix @ msg) % 2
        codeword[self._pivots] = parity
        assert not np.any((self.parity_check @ codeword) % 2)
        return codeword.astype(np.int64)

    def extract_message(self, codeword: np.ndarray) -> np.ndarray:
        """Read the systematic message bits out of a codeword."""
        cw = np.asarray(codeword, dtype=np.int64)
        if cw.shape != (self.block_length,):
            raise ValueError("codeword has wrong length")
        return cw[self._free]

    def syndrome(self, word: np.ndarray) -> np.ndarray:
        return (self.parity_check @ (np.asarray(word, dtype=np.int64) % 2)) % 2

    # ------------------------------------------------------------------
    def decode_soft(
        self,
        llrs: np.ndarray,
        *,
        max_iterations: int = 50,
    ) -> Tuple[np.ndarray, bool, np.ndarray]:
        """Sum-product decoding returning posterior LLRs as well.

        Returns ``(hard_decisions, converged, posterior_llrs)``; the
        posteriors are the channel LLRs plus all check-to-variable
        messages — the soft beliefs iterative outer/inner receivers
        feed back (:mod:`repro.coding.iterative`).
        """
        channel = np.asarray(llrs, dtype=float)
        if channel.shape != (self.block_length,):
            raise ValueError("llrs must match the block length")
        if not np.all(np.isfinite(channel)):
            raise ValueError(
                "channel llrs contain non-finite entries; saturate "
                "upstream evidence before decoding"
            )
        h = self.parity_check
        m, n = h.shape
        # Messages live on the edges; store dense (m, n) masked by h.
        var_to_check = np.where(h == 1, channel[None, :], 0.0)
        mask = h == 1
        for _ in range(max_iterations):
            # Check-node update (tanh rule), numerically clipped. The
            # extrinsic product must exclude each edge's own factor;
            # exact zeros (erasures) need explicit handling — dividing
            # a zero row-product by the zero factor would wrongly zero
            # the erased edge's own extrinsic message.
            t = np.tanh(np.clip(var_to_check / 2.0, -30, 30))
            t = np.where(mask, t, 1.0)
            # Exact-zero sentinel, not a tolerance check: np.where wrote
            # literal 0.0 for erased channel LLRs.
            is_zero = mask & (t == 0.0)  # repro: noqa[PROB001]
            zero_count = is_zero.sum(axis=1)
            t_nz = np.where(is_zero, 1.0, t)
            prod_nz = t_nz.prod(axis=1)  # product of non-zero factors
            quotient = np.zeros_like(t)
            rows0 = zero_count == 0
            if np.any(rows0):
                quotient[rows0] = prod_nz[rows0, None] / t_nz[rows0]
            rows1 = zero_count == 1
            if np.any(rows1):
                # Only the erased edge receives the (non-zero) product
                # of the others; every other edge sees a zero factor.
                quotient[rows1] = np.where(
                    is_zero[rows1], prod_nz[rows1, None], 0.0
                )
            quotient = np.where(mask, quotient, 0.0)
            quotient = np.clip(quotient, -0.999999999, 0.999999999)
            check_to_var = np.where(mask, 2.0 * np.arctanh(quotient), 0.0)
            # Variable-node update.
            totals = channel[None, :] + check_to_var.sum(axis=0)[None, :]
            var_to_check = np.where(mask, totals - check_to_var, 0.0)
            # Hard decision + syndrome check.
            posterior = channel + check_to_var.sum(axis=0)
            hard = (posterior < 0).astype(np.int64)
            if not np.any((h @ hard) % 2):
                record_status("ldpc_bp", SolverStatus.CONVERGED)
                return hard, True, posterior
        record_status("ldpc_bp", SolverStatus.MAX_ITER)
        return hard, False, posterior

    def decode(self, llrs: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Sum-product decoding from per-bit LLRs
        (``log P(y|0) - log P(y|1)``; positive favors 0), at most 50
        iterations.

        Returns ``(hard_decisions, converged)`` where *converged* means
        the syndrome check passed.
        """
        hard, converged, _posterior = self.decode_soft(llrs)
        return hard, converged
