"""Forward-backward decoding over the insertion-deletion drift lattice.

The hidden-Markov view of a Definition-1 channel (Davey & MacKay 2001):
while the channel processes transmitted bit ``i`` it first emits ``k``
inserted random bits (probability ``P_i`` each), then either deletes
the bit (``P_d``) or transmits it (``P_t``), flipping it with the
substitution probability ``P_s``. The hidden state is the **drift**
``d_i = (#output bits emitted) - (#input bits consumed)`` before bit
``i``. Given the received stream and per-position priors on the
transmitted bits, the forward-backward recursion yields:

* the frame likelihood ``P(y | priors)``;
* per-position posteriors ``P(t_i = 1 | y)`` — the soft information the
  watermark and marker decoders feed to their outer codes.

Drift is truncated to ``[-max_drift, +max_drift]`` and insertions per
input bit to ``max_insertions``; both tails are geometrically small.
Probabilities are kept in linear domain with per-step normalization
(scaling factors accumulate the log-likelihood), the standard HMM
stabilization.

**Kernel layout.** The recursion over transmitted positions ``t`` is
inherently sequential, but for each ``t`` the sums over the insertion
count ``k`` and the drift window ``w`` are batched: emissions, branch
masks, and scatter/gather index tables are precomputed as
``(max_insertions + 1, window)`` arrays, the forward scatter collapses
to a single ``np.bincount`` over precomputed flat targets, and the
backward/posterior passes are gathers from a zero-padded column. The
pre-vectorization position-by-position loops live beside the tests
that hold the batched kernel to them (agreement to 1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..numerics import safe_log, stage
from ..store import cached_solve

__all__ = ["DriftChannelModel", "DriftDecodeResult"]


@dataclass(frozen=True)
class DriftDecodeResult:
    """Output of one forward-backward pass.

    Attributes
    ----------
    posteriors:
        ``P(t_i = 1 | y)`` for each transmitted position, shape ``(n,)``.
    log_likelihood:
        ``ln P(y, final drift consistent | priors)``.
    drift_map:
        Posterior mode of the drift before each position (diagnostic).
    """

    posteriors: np.ndarray
    log_likelihood: float
    drift_map: np.ndarray


class DriftChannelModel:
    """Forward-backward engine for a Definition-1 bit channel.

    Parameters
    ----------
    insertion_prob, deletion_prob:
        Per-use insertion/deletion probabilities (``P_t`` is implied).
    substitution_prob:
        Flip probability of transmitted bits.
    max_drift:
        Half-width of the drift window.

    Insertions per input bit are capped at ``max_insertions = 5``
    (probability mass beyond the cap is renormalized away; with
    ``P_i <= 0.2`` the truncation is below 1e-3).
    """

    def __init__(
        self,
        insertion_prob: float,
        deletion_prob: float,
        substitution_prob: float = 0.0,
        *,
        max_drift: int = 24,
    ) -> None:
        for name, v in (
            ("insertion_prob", insertion_prob),
            ("deletion_prob", deletion_prob),
            ("substitution_prob", substitution_prob),
        ):
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        if insertion_prob + deletion_prob >= 1.0:
            raise ValueError("P_i + P_d must be < 1")
        if max_drift < 1:
            raise ValueError("max_drift must be >= 1")
        self.pi = insertion_prob
        self.pd = deletion_prob
        self.pt = 1.0 - insertion_prob - deletion_prob
        self.ps = substitution_prob
        self.max_drift = max_drift
        self.max_insertions = 5

    # ------------------------------------------------------------------
    def _validate(
        self, received: np.ndarray, prior_one: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        y = np.asarray(received, dtype=np.int64)
        priors = np.asarray(prior_one, dtype=float)
        if y.ndim != 1 or priors.ndim != 1:
            raise ValueError("received and prior_one must be 1-D")
        if y.size and not np.all((y == 0) | (y == 1)):
            raise ValueError("received bits must be 0/1")
        if np.any((priors < 0) | (priors > 1)):
            raise ValueError("priors must be probabilities")
        if priors.size == 0:
            raise ValueError("need at least one transmitted position")
        return y, priors, priors.size, y.size

    def _lattice_tables(self, n: int, m: int, y: np.ndarray) -> dict:
        """Precompute everything of the lattice that does not depend on
        the priors: branch masks, emission splits, and the forward
        scatter / backward gather index tables, batched over the whole
        ``(k, w)`` plane.

        Transition targets (derivation): a step that consumes input bit
        ``t`` at window index ``w`` with ``k`` insertions moves to
        window index ``w + k - 1`` on the deletion branch and ``w + k``
        on the transmission branch. All tables carry an origin offset of
        1 so out-of-window targets land in padding instead of wrapping.
        """
        dmax = self.max_drift
        width = 2 * dmax + 1
        kmax = self.max_insertions
        k_col = np.arange(kmax + 1)[:, None]  # (K, 1)
        w_row = np.arange(width)[None, :]  # (1, W)
        # Next unread output index per (k, w) at t = 0; add t per step.
        base_j = k_col + (w_row - dmax)
        # Geometric insertion coefficients (P_i/2)^k, column-shaped for
        # broadcasting over the window axis.
        ins = (self.pi * 0.5) ** k_col.astype(float)
        # Scatter targets with origin 1: deletion -> w + k, tx -> w+k+1.
        gather_del = w_row + k_col  # also the backward gather (b[w+k-1])
        gather_tx = gather_del + 1
        ext = width + kmax + 1
        scatter = np.concatenate([gather_del.ravel(), gather_tx.ravel()])
        # Padded received stream so every gathered observation index is
        # in range; padded reads are masked out by the branch masks.
        y_pad = np.concatenate([y, np.zeros(kmax + 2, dtype=np.int64)])
        # Per position t: observation, branch masks, emission splits.
        t_axis = np.arange(n)[:, None, None]
        j_all = base_j[None, :, :] + t_axis  # (n, K, W)
        obs = y_pad[np.clip(j_all, 0, m + kmax)]
        le = j_all <= m  # deletion branch stays inside the stream
        lt = j_all < m  # transmission consumes an output bit
        emit_one = np.where(obs == 1, 1.0 - self.ps, self.ps)
        return {
            "width": width,
            "kmax": kmax,
            "ins": ins,
            "gather_del": gather_del,
            "gather_tx": gather_tx,
            "ext": ext,
            "scatter": scatter,
            "le": le,
            "lt": lt,
            "emit_one": emit_one,
        }

    @staticmethod
    def _valid_states(t: int, dmax: int, width: int) -> np.ndarray:
        """Window states whose next unread output index is non-negative."""
        return (np.arange(width) - dmax + t) >= 0

    @cached_solve(
        "drift_decode",
        instance_attrs=("pi", "pd", "ps", "max_drift", "max_insertions"),
    )
    def decode(
        self,
        received: np.ndarray,
        prior_one: np.ndarray,
    ) -> DriftDecodeResult:
        """Run forward-backward (batched over the insertion axis).

        Memoized through :mod:`repro.store` when a result store is
        active; the cache key covers the channel parameters on ``self``,
        so equal-parameter model instances share entries.

        Parameters
        ----------
        received:
            The observed bit stream ``y`` (0/1 array).
        prior_one:
            ``P(t_i = 1)`` prior for each of the ``n`` transmitted
            positions (known watermark/marker bits use 0 or 1).
        """
        y, priors, n, m = self._validate(received, prior_one)
        dmax = self.max_drift
        d_final = m - n
        if not -dmax <= d_final <= dmax:
            raise ValueError(
                f"final drift {d_final} outside the window +-{dmax}"
            )
        with stage("lattice"):
            return self._decode_vectorized(y, priors, n, m)

    def _decode_vectorized(
        self, y: np.ndarray, priors: np.ndarray, n: int, m: int
    ) -> DriftDecodeResult:
        dmax = self.max_drift
        d_final = m - n
        tab = self._lattice_tables(n, m, y)
        width, ext = tab["width"], tab["ext"]
        ins, scatter = tab["ins"], tab["scatter"]
        le, lt, emit_one = tab["le"], tab["lt"], tab["emit_one"]
        gather_del, gather_tx = tab["gather_del"], tab["gather_tx"]

        # Forward pass. fwd[t, w] = P(y[:t + (w - dmax)], drift index w
        # before transmitted bit t), scaled per step; all (deletion,
        # transmission) branches for every insertion count k land in one
        # bincount scatter.
        fwd = np.zeros((n + 1, width))
        fwd[0, dmax] = 1.0  # zero drift at the start
        scale = np.zeros(n + 1)
        for t in range(n):
            prob1 = float(priors[t])
            valid = self._valid_states(t, dmax, width)[None, :]
            emit = prob1 * emit_one[t] + (1.0 - prob1) * (1.0 - emit_one[t])
            base = np.where(le[t] & valid, fwd[t][None, :], 0.0) * ins
            dl = base * self.pd
            tx = np.where(lt[t], base * self.pt * emit, 0.0)
            nxt = np.bincount(
                scatter,
                weights=np.concatenate([dl.ravel(), tx.ravel()]),
                minlength=ext,
            )[1 : 1 + width]
            total = nxt.sum()
            if not np.isfinite(total) or total <= 0:
                raise ValueError(
                    "received stream has zero or non-finite likelihood "
                    "under the model (drift window too small or "
                    "parameters inconsistent)"
                )
            scale[t + 1] = np.log(total)
            fwd[t + 1] = nxt / total

        # Backward pass. bwd[t, w] = P(y[t + (w-dmax):] | drift w at t):
        # gather bwd[t+1] at the branch targets from a padded column.
        bwd = np.zeros((n + 1, width))
        bwd[n, d_final + dmax] = 1.0
        b_pad = np.zeros(ext + 1)
        for t in range(n - 1, -1, -1):
            prob1 = float(priors[t])
            valid = self._valid_states(t, dmax, width)
            emit = prob1 * emit_one[t] + (1.0 - prob1) * (1.0 - emit_one[t])
            b_pad[1 : 1 + width] = bwd[t + 1]
            cur = (
                ins
                * (
                    self.pd * le[t] * b_pad[gather_del]
                    + self.pt * emit * lt[t] * b_pad[gather_tx]
                )
            ).sum(axis=0) * valid
            total = cur.sum()
            bwd[t] = cur / total if total > 0 else cur

        log_likelihood = float(scale[1:].sum()) + float(
            safe_log(fwd[n, d_final + dmax])
        )

        # Posteriors: split each transmission branch by bit value.
        posteriors = np.empty(n)
        drift_map = np.empty(n, dtype=np.int64)
        for t in range(n):
            prob1 = float(priors[t])
            valid = self._valid_states(t, dmax, width)[None, :]
            base = np.where(valid, fwd[t][None, :], 0.0) * ins
            b_pad[1 : 1 + width] = bwd[t + 1]
            # Deletion branch: bit unobserved, prior passes through.
            del_mass = float(
                np.where(le[t], base * self.pd * b_pad[gather_del], 0.0).sum()
            )
            den = del_mass
            num1 = del_mass * prob1
            # Transmission branch: split the emission by bit value.
            p1 = emit_one[t]
            p0 = 1.0 - p1
            common = np.where(lt[t], base * self.pt * b_pad[gather_tx], 0.0)
            num1 += prob1 * float((common * p1).sum())
            den += float((common * (prob1 * p1 + (1.0 - prob1) * p0)).sum())
            posteriors[t] = num1 / den if den > 0 else prob1
            joint = fwd[t] * bwd[t]
            drift_map[t] = int(np.argmax(joint)) - dmax

        return DriftDecodeResult(
            posteriors=posteriors,
            log_likelihood=log_likelihood,
            drift_map=drift_map,
        )

    def log_likelihood(
        self, received: np.ndarray, prior_one: np.ndarray
    ) -> float:
        """Frame log-likelihood ``ln P(y | priors)`` via the forward
        pass only — one third the work of :meth:`decode`, used by the
        channel-identification search
        (:mod:`repro.coding.identification`)."""
        y, priors, n, m = self._validate(received, prior_one)
        dmax = self.max_drift
        d_final = m - n
        if not -dmax <= d_final <= dmax:
            raise ValueError(
                f"final drift {d_final} outside the window +-{dmax}"
            )
        with stage("lattice"):
            tab = self._lattice_tables(n, m, y)
            width, ext = tab["width"], tab["ext"]
            ins, scatter = tab["ins"], tab["scatter"]
            le, lt, emit_one = tab["le"], tab["lt"], tab["emit_one"]
            fwd = np.zeros(width)
            fwd[dmax] = 1.0
            log_total = 0.0
            for t in range(n):
                prob1 = float(priors[t])
                valid = self._valid_states(t, dmax, width)[None, :]
                emit = (
                    prob1 * emit_one[t] + (1.0 - prob1) * (1.0 - emit_one[t])
                )
                base = np.where(le[t] & valid, fwd[None, :], 0.0) * ins
                dl = base * self.pd
                tx = np.where(lt[t], base * self.pt * emit, 0.0)
                nxt = np.bincount(
                    scatter,
                    weights=np.concatenate([dl.ravel(), tx.ravel()]),
                    minlength=ext,
                )[1 : 1 + width]
                total = nxt.sum()
                if not np.isfinite(total) or total <= 0:
                    raise ValueError(
                        "received stream has zero or non-finite likelihood "
                        "under the model"
                    )
                log_total += np.log(total)
                fwd = nxt / total
            return float(log_total + safe_log(fwd[d_final + dmax]))

    # ------------------------------------------------------------------
    def transmit(
        self, bits: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample the channel: returns ``(received, events)``.

        Matches the decoder's generative model exactly: for each input
        bit, Geometric insertions of uniform bits, then deletion or
        (possibly flipped) transmission.
        """
        x = np.asarray(bits, dtype=np.int64)
        if x.ndim != 1:
            raise ValueError("bits must be 1-D")
        out = []
        events = []
        for b in x:
            while rng.random() < self.pi:
                out.append(int(rng.integers(0, 2)))
                events.append("i")
            if rng.random() < self.pd / (self.pd + self.pt):
                events.append("d")
            else:
                v = int(b)
                if self.ps > 0 and rng.random() < self.ps:
                    v ^= 1
                out.append(v)
                events.append("t")
        return np.asarray(out, dtype=np.int64), np.asarray(events)
