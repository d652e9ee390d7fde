"""The paper's figures, reproduced as text.

Figures 1-5 of the paper are block diagrams of the channel and protocol
models; this module renders each as ASCII art annotated with the module
that implements it, plus ASCII line plots of the quantitative curves
the analysis implies (the convergence of eqs. 6-7 and the E5
degradation lines). ``repro-covert figures`` prints them all.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..core.capacity import convergence_ratio, feedback_lower_bound_exact

__all__ = ["FIGURES", "render_figure", "ascii_plot", "convergence_figure", "rate_figure"]

_FIG1 = r"""
Figure 1 — synchronization using two variables (repro.os_model.covert)

   SENDER                                      RECEIVER
     |  writes symbol -> [ shared register ]      |
     |  toggles ------->  [ S-R "ready" ]  ----reads
     |                                            | reads symbol,
   waits until                                    | toggles
     reads <----------  [ R-S "ack" ]  <----------+
     |  then writes the next symbol ...

  Guarantees: no symbol lost or duplicated under ANY scheduling
  interleaving; cost: quanta spent waiting (E7: ~0.25 bits/quantum
  vs round-robin's 0.5).
"""

_FIG2 = r"""
Figure 2 — the deletion-insertion channel (repro.core.channels)

                      one channel use
            +--------------------------------------+
   queued   |   P_d : next queued symbol DELETED   |
  symbols ->|   P_i : random symbol INSERTED       |-> received
            |   P_t : next queued symbol DELIVERED |   stream
            |         (substituted w.p. P_s)       |
            +--------------------------------------+

  Unlike an erasure channel, the receiver learns NOTHING about where
  deletions/insertions happened (Definition 1).
"""

_FIG3 = r"""
Figure 3 — two ways to synchronize (repro.sync.feedback / common_event)

  (a) Feedback                      (b) Common events
   SENDER ----channel----> RECEIVER   SENDER ----channel----> RECEIVER
     ^                        |          ^                        ^
     +------- feedback -------+          |      [ event source E ]|
                                         +-----------+------------+
  Perfect feedback: Theorems 2-5.     Ticks drive both parties (open
                                      loop): never beats feedback.
"""

_FIG4 = r"""
Figure 4 — common events never beat feedback (repro.sync.common_event)

  (a) E broadcasts to both            (b) add a path Receiver -> E:
      parties (open loop)                 E + Receiver merge into one
                                          party => configuration (a)
   S --ch--> R                            degenerates into FEEDBACK.
   ^         ^
   +--[E]----+                        Hence C(common events) <= C(feedback)
                                      — measured in E6 (ratio <= 1).
"""

_FIG5 = r"""
Figure 5 — the converted channel (repro.infotheory.channels)

  After the counter protocol, each received position k carries:
        with prob 1 - alpha*q :  message[k]        (correct)
        with prob     alpha*q :  one of the other 2^N - 1 symbols
  where q = P_i / (1 - P_d)  and  alpha = (2^N - 1)/2^N.

        x=0 o---(1 - e)---o y=0        an M-ary SYMMETRIC DMC
             \    ...    /             e = alpha * q
        x=1 o---(1 - e)---o y=1        C_conv = N - e log2(M-1) - H(e)
             `--- e/(M-1) crossings ---'
"""

FIGURES: Dict[int, str] = {1: _FIG1, 2: _FIG2, 3: _FIG3, 4: _FIG4, 5: _FIG5}


def render_figure(number: int) -> str:
    """The ASCII rendering of paper figure *number* (1-5)."""
    if number not in FIGURES:
        raise ValueError(f"no figure {number}; the paper has figures 1-5")
    return FIGURES[number].strip("\n")


def ascii_plot(
    series: Dict[str, Sequence[float]],
    x_values: Sequence[float],
    *,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Plot named series as ASCII (one marker character per series) on a
    60 x 14 grid."""
    width, height = 60, 14
    if not series:
        raise ValueError("need at least one series")
    xs = np.asarray(x_values, dtype=float)
    markers = "*o+x#@%&"
    all_vals = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    lo, hi = float(all_vals.min()), float(all_vals.max())
    if hi == lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    x_lo, x_hi = float(xs.min()), float(xs.max())
    x_span = (x_hi - x_lo) or 1.0
    for idx, (name, vals) in enumerate(series.items()):
        marker = markers[idx % len(markers)]
        arr = np.asarray(vals, dtype=float)
        if arr.shape != xs.shape:
            raise ValueError(f"series {name!r} length mismatch")
        for x, v in zip(xs, arr):
            col = int(round((x - x_lo) / x_span * (width - 1)))
            row = int(round((hi - v) / (hi - lo) * (height - 1)))
            grid[row][col] = marker
    lines = [f"{y_label}  max={hi:.4g}"]
    lines += ["  |" + "".join(row) for row in grid]
    lines.append("  +" + "-" * width + f"  min={lo:.4g}")
    lines.append(f"   {x_label}: {x_lo:.4g} .. {x_hi:.4g}")
    legend = "   legend: " + "  ".join(
        f"{markers[i % len(markers)]} {name}"
        for i, name in enumerate(series.keys())
    )
    lines.append(legend)
    return "\n".join(lines)


def convergence_figure() -> str:
    """ASCII plot of eqs. (6)-(7): C_lower/C_upper vs N at P_i = P_d,
    for N up to 24."""
    ns = list(range(1, 25))
    series = {
        f"p={p}": [convergence_ratio(n, p) for n in ns] for p in (0.05, 0.1, 0.2)
    }
    return (
        "Convergence of C_lower/C_upper at P_i = P_d (paper eqs. 6-7)\n"
        + ascii_plot(series, ns, x_label="N (bits/symbol)", y_label="ratio")
    )


def rate_figure() -> str:
    """ASCII plot of the Theorem-5 rate vs P_d (the E5 degradation) at
    N = 2 and P_i = 0.05."""
    n, insertion = 2, 0.05
    pds = np.linspace(0.0, 0.6, 25)
    series = {
        "exact LB": [
            feedback_lower_bound_exact(n, float(pd), insertion) for pd in pds
        ],
        "erasure UB": [n * (1 - float(pd)) for pd in pds],
    }
    return (
        f"Feedback rates vs P_d (N={n}, P_i={insertion})\n"
        + ascii_plot(series, pds, x_label="P_d", y_label="bits")
    )
