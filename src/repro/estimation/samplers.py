"""Channel samplers: turning models into ``(x, y)`` sample sources.

The kNN capacity estimator (:mod:`repro.estimation.optimize`) never
sees a transition matrix — it sees draws. A :class:`ChannelSampler` is
the contract between the two worlds: given an array of input symbols
and an RNG, produce the channel's observable output for each symbol.
Adapters here wrap the repository's existing channel models:

* :class:`DMCSampler` — enumerable DMCs, used by experiment E17 to
  cross-validate the sample path against Blahut–Arimoto ground truth;
* :class:`SchedulerTimingSampler` — the §3.1 uniprocessor
  burst-length timing channel of
  :class:`repro.os_model.TimingChannelConfig`: the output is the
  preemption-stretched gap the receiver observes, a channel with a
  countably infinite output alphabet that no enumerable estimator in
  the repo can touch.

Samplers are frozen dataclasses built from plain tuples, so they feed
directly into :func:`repro.store.canonical_key` — the sampler value
*is* the cache fingerprint of the channel being estimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..infotheory.probability import validate_probability
from ..os_model.timing_channel import TimingChannelConfig

try:  # Python 3.9 compatibility: Protocol with runtime_checkable
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - 3.9+ always has these
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[no-redef]
        return cls


__all__ = [
    "ChannelSampler",
    "DMCSampler",
    "SchedulerTimingSampler",
    "bsc_sampler",
    "mary_sampler",
]


@runtime_checkable
class ChannelSampler(Protocol):
    """One memoryless use of a channel, as a sample source.

    Implementations must be deterministic functions of ``(symbols,
    rng)`` — all randomness comes from the generator the caller hands
    in, so the estimation pipeline replays bit-identically from a seed.
    Implementations are frozen dataclasses: their field values identify
    the channel for caching (:func:`repro.store.canonical_key`).
    """

    @property
    def num_symbols(self) -> int:
        """Size of the input alphabet."""
        ...  # pragma: no cover - protocol stub

    def symbol_durations(self) -> np.ndarray:
        """Expected channel-occupation time of each input symbol.

        All ones for untimed channels; the capacity optimizer then
        maximizes plain MI. Anything non-uniform turns the objective
        into bits per time unit, ``I(p) / sum_x p(x) tau(x)``.
        """
        ...  # pragma: no cover - protocol stub

    def sample(
        self, symbols: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Channel output for each input symbol, shape ``(n,)`` float."""
        ...  # pragma: no cover - protocol stub


def _coerce_rows(transition: Sequence[Sequence[float]]) -> Tuple[Tuple[float, ...], ...]:
    rows = tuple(tuple(float(v) for v in row) for row in transition)
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("transition must be a non-empty rectangular matrix")
    for row in rows:
        if any(not np.isfinite(v) or v < 0 for v in row):
            raise ValueError("transition entries must be finite and >= 0")
        if abs(sum(row) - 1.0) > 1e-9:
            raise ValueError("transition rows must sum to 1")
    return rows


@dataclass(frozen=True)
class DMCSampler:
    """Draws from an enumerable DMC ``P(y|x)`` — the ground-truth rig.

    The output is the discrete received symbol (as a float; the
    estimator's tie-breaking jitter handles the repeated values). Used
    to cross-validate the sample-based pipeline against Blahut–Arimoto
    on the very same matrix.
    """

    transition: Tuple[Tuple[float, ...], ...]

    def __init__(self, transition: Sequence[Sequence[float]]) -> None:
        object.__setattr__(self, "transition", _coerce_rows(transition))

    @property
    def num_symbols(self) -> int:
        return len(self.transition)

    def transition_matrix(self) -> np.ndarray:
        """The ``(nx, ny)`` row-stochastic matrix as an array."""
        return np.asarray(self.transition, dtype=float)

    def symbol_durations(self) -> np.ndarray:
        return np.ones(self.num_symbols)

    def sample(
        self, symbols: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        w = self.transition_matrix()
        cdf = np.cumsum(w, axis=1)
        u = rng.random(symbols.size)
        # Inverse-CDF draw per symbol: one searchsorted per row class.
        out = np.empty(symbols.size, dtype=float)
        for s in range(self.num_symbols):
            mask = symbols == s
            if np.any(mask):
                out[mask] = np.searchsorted(cdf[s], u[mask], side="right")
        return np.minimum(out, w.shape[1] - 1)


@dataclass(frozen=True)
class SchedulerTimingSampler:
    """The uniprocessor burst-length timing channel, §3.1 substrate.

    Input symbol ``s`` holds the CPU for ``burst_durations[s]`` quanta;
    the observable is the gap the receiver counts, stretched by a
    negative-binomial number of stolen quanta (probability
    ``preempt_prob`` per quantum), exposed symbol by symbol. The output
    alphabet is countably infinite, so this channel has no transition
    matrix to hand Blahut–Arimoto: the kNN path is the first estimator
    in the repo that can price it.

    ``symbol_durations`` counts time in quanta: the *expected*
    stretched gap ``hold / (1 - q)`` plus the receiver's own sampling
    quantum.
    """

    burst_durations: Tuple[int, ...]
    preempt_prob: float = 0.0

    def __init__(
        self, burst_durations: Sequence[int], preempt_prob: float = 0.0
    ) -> None:
        # TimingChannelConfig owns the validation of a legal channel.
        config = TimingChannelConfig(burst_durations, preempt_prob)
        object.__setattr__(self, "burst_durations", config.durations)
        object.__setattr__(self, "preempt_prob", config.preempt_prob)
        self.__post_init__()

    def __post_init__(self) -> None:
        validate_probability(self.preempt_prob, "preempt_prob")

    @property
    def num_symbols(self) -> int:
        return len(self.burst_durations)

    def symbol_durations(self) -> np.ndarray:
        holds = np.asarray(self.burst_durations, dtype=float)
        return holds / (1.0 - self.preempt_prob) + 1.0

    def sample(
        self, symbols: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        holds = np.asarray(self.burst_durations, dtype=np.int64)[symbols]
        if self.preempt_prob:
            stretch = rng.negative_binomial(holds, 1.0 - self.preempt_prob)
        else:
            stretch = np.zeros_like(holds)
        return (holds + stretch).astype(float)


def bsc_sampler(crossover: float) -> DMCSampler:
    """Binary symmetric channel sampler with the given crossover."""
    p = validate_probability(crossover, "crossover")
    return DMCSampler([[1.0 - p, p], [p, 1.0 - p]])


def mary_sampler(num_symbols: int, error_prob: float = 0.0) -> DMCSampler:
    """M-ary symmetric channel: correct w.p. ``1 - e``, else uniform.

    With ``error_prob == 0`` this is the noiseless M-ary channel whose
    capacity ``log2 M`` anchors the estimator property suite.
    """
    if num_symbols < 2:
        raise ValueError("need at least 2 symbols")
    e = validate_probability(error_prob, "error_prob")
    off = e / (num_symbols - 1)
    rows = [
        [1.0 - e if i == j else off for j in range(num_symbols)]
        for i in range(num_symbols)
    ]
    return DMCSampler(rows)
