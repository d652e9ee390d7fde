"""Position-by-position reference forward-backward over the drift lattice.

These are the pre-vectorization kernels of
:class:`repro.coding.forward_backward.DriftChannelModel`, kept as the
oracle the batched :meth:`~DriftChannelModel.decode` and
:meth:`~DriftChannelModel.log_likelihood` are held to: posterior and
likelihood agreement to 1e-12 on randomized ``(P_d, P_i, P_s)`` grids
(``tests/coding/test_vectorized_fb.py``), and the vectorization speedup
in ``benchmarks/test_bench_kernels.py``.
"""

from __future__ import annotations

import numpy as np

from repro.coding.forward_backward import DriftChannelModel, DriftDecodeResult
from repro.numerics import safe_log


def decode_reference(
    model: DriftChannelModel,
    received: np.ndarray,
    prior_one: np.ndarray,
) -> DriftDecodeResult:
    """Position-by-position reference of ``model.decode``."""
    y, priors, n, m = model._validate(received, prior_one)

    dmax = model.max_drift
    width = 2 * dmax + 1
    kmax = model.max_insertions
    ins_coeff = (model.pi * 0.5) ** np.arange(kmax + 1)
    w_idx = np.arange(width)
    # Padded copy so gathered indices never wrap; validity masks
    # zero out the padded reads.
    y_pad = np.concatenate([y, np.zeros(kmax + 2, dtype=np.int64)])

    def shifted(arr: np.ndarray, shift: int) -> np.ndarray:
        """``out[w] = arr[w + shift]`` with zero fill."""
        if shift == 0:
            return arr
        out = np.zeros_like(arr)
        if shift > 0:
            out[: width - shift] = arr[shift:]
        else:
            out[-shift:] = arr[:width + shift]
        return out

    def emit_probs(jk: np.ndarray, prob1: float) -> np.ndarray:
        obs = y_pad[np.clip(jk, 0, m + kmax)]
        return np.where(
            obs == 1,
            prob1 * (1 - model.ps) + (1 - prob1) * model.ps,
            prob1 * model.ps + (1 - prob1) * (1 - model.ps),
        )

    # Forward pass. F[t, w] = P(y[:t + (w - dmax)] , drift index w
    # before transmitted bit t), scaled per step. Each step handles
    # the (deletion, transmission) branches for every insertion
    # count k at once via window shifts.
    fwd = np.zeros((n + 1, width))
    fwd[0, dmax] = 1.0  # zero drift at the start
    scale = np.zeros(n + 1)
    for t in range(n):
        prob1 = float(priors[t])
        j_vec = t + w_idx - dmax  # next unread output per state
        reachable = (fwd[t] > 0) & (j_vec >= 0)
        nxt = np.zeros(width)
        for k in range(kmax + 1):
            jk = j_vec + k
            base_k = np.where(reachable & (jk <= m), fwd[t], 0.0)
            base_k = base_k * ins_coeff[k]
            # Deletion: target drift w + (k - 1); scatter = reverse
            # gather with the opposite shift.
            nxt += shifted(base_k * model.pd, -(k - 1))
            # Transmission: target w + k, needs jk < m.
            tx = np.where(jk < m, base_k * model.pt * emit_probs(jk, prob1), 0.0)
            nxt += shifted(tx, -k)
        total = nxt.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError(
                "received stream has zero or non-finite likelihood "
                "under the model (drift window too small or "
                "parameters inconsistent)"
            )
        scale[t + 1] = np.log(total)
        fwd[t + 1] = nxt / total

    # The frame ends with drift d_final = m - n; require it in
    # window (otherwise the likelihood of the truncation is zero).
    d_final = m - n
    if not -dmax <= d_final <= dmax:
        raise ValueError(
            f"final drift {d_final} outside the window +-{dmax}"
        )

    # Backward pass. B[t, w] = P(y[t + (w-dmax):] | drift w at t):
    # gather B[t+1] at the branch targets.
    bwd = np.zeros((n + 1, width))
    bwd[n, d_final + dmax] = 1.0
    for t in range(n - 1, -1, -1):
        prob1 = float(priors[t])
        j_vec = t + w_idx - dmax
        valid_state = j_vec >= 0
        cur = np.zeros(width)
        b_next = bwd[t + 1]
        for k in range(kmax + 1):
            jk = j_vec + k
            ok_del = valid_state & (jk <= m)
            cur += np.where(
                ok_del,
                ins_coeff[k] * model.pd * shifted(b_next, k - 1),
                0.0,
            )
            ok_tx = valid_state & (jk < m)
            cur += np.where(
                ok_tx,
                ins_coeff[k]
                * model.pt
                * emit_probs(jk, prob1)
                * shifted(b_next, k),
                0.0,
            )
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
        j_vec = t + w_idx - dmax
        reachable = (fwd[t] > 0) & (j_vec >= 0)
        b_next = bwd[t + 1]
        num1 = 0.0
        den = 0.0
        for k in range(kmax + 1):
            jk = j_vec + k
            base_k = np.where(reachable, fwd[t], 0.0) * ins_coeff[k]
            # Deletion branch: bit unobserved, prior passes through.
            val = np.where(
                jk <= m,
                base_k * model.pd * shifted(b_next, k - 1),
                0.0,
            ).sum()
            den += val
            num1 += val * prob1
            # Transmission branch: split the emission by bit value.
            obs = y_pad[np.clip(jk, 0, m + kmax)]
            p1 = np.where(obs == 1, 1 - model.ps, model.ps)
            p0 = np.where(obs == 0, 1 - model.ps, model.ps)
            common = np.where(
                jk < m,
                base_k * model.pt * shifted(b_next, k),
                0.0,
            )
            num1 += (common * prob1 * p1).sum()
            den += (common * (prob1 * p1 + (1 - prob1) * p0)).sum()
        posteriors[t] = num1 / den if den > 0 else prob1
        joint = fwd[t] * bwd[t]
        drift_map[t] = int(np.argmax(joint)) - dmax

    return DriftDecodeResult(
        posteriors=posteriors,
        log_likelihood=log_likelihood,
        drift_map=drift_map,
    )

def log_likelihood_reference(
    model: DriftChannelModel, received: np.ndarray, prior_one: np.ndarray
) -> float:
    """Position-by-position reference of ``model.log_likelihood``."""
    y, priors, n, m = model._validate(received, prior_one)
    dmax = model.max_drift
    d_final = m - n
    if not -dmax <= d_final <= dmax:
        raise ValueError(
            f"final drift {d_final} outside the window +-{dmax}"
        )
    width = 2 * dmax + 1
    kmax = model.max_insertions
    fwd = np.zeros(width)
    fwd[dmax] = 1.0
    log_total = 0.0
    ins_coeff = (model.pi * 0.5) ** np.arange(kmax + 1)
    # Pad the received stream so gathered indices never wrap; the
    # validity masks below zero out the padded reads.
    y_pad = np.concatenate([y, np.zeros(kmax + 2, dtype=np.int64)])
    w_idx = np.arange(width)
    for t in range(n):
        prob1 = float(priors[t])
        nxt = np.zeros(width)
        j_vec = t + w_idx - dmax  # next unread output per state
        reachable = (fwd > 0) & (j_vec >= 0)
        for k in range(kmax + 1):
            jk = j_vec + k
            base_k = np.where(reachable & (jk <= m), fwd, 0.0) * ins_coeff[k]
            # Deletion branch: drift shifts by k - 1.
            shift = k - 1
            contrib = base_k * model.pd
            if shift >= 0:
                nxt[shift:] += contrib[: width - shift]
            else:
                nxt[:-1] += contrib[1:]
            # Transmission branch: drift shifts by k; needs jk < m.
            obs = y_pad[np.clip(jk, 0, m + kmax)]
            emit = np.where(
                obs == 1,
                prob1 * (1 - model.ps) + (1 - prob1) * model.ps,
                prob1 * model.ps + (1 - prob1) * (1 - model.ps),
            )
            tx = np.where(jk < m, base_k * model.pt * emit, 0.0)
            if k > 0:
                nxt[k:] += tx[: width - k]
            else:
                nxt += tx
        total = nxt.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError(
                "received stream has zero or non-finite likelihood "
                "under the model"
            )
        log_total += np.log(total)
        fwd = nxt / total
    return float(
        log_total + safe_log(fwd[d_final + dmax])
    )
