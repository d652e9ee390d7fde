"""Named fault scenarios.

A scenario is a reproducible recipe for a :class:`~repro.faults.
injector.FaultInjector`: given the *nominal* channel parameters and a
seed it builds the injector, so the counter protocol can be
stress-tested under ``bursty_loss`` or ``stress`` with one call.
Experiment E15 sweeps this registry; the CLI lists it via
``repro-covert faults list``.

The registry is extensible: :func:`register_scenario` adds new recipes
(e.g. traces fitted to a real scheduler) without touching the sweep
code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..core.events import ChannelParameters
from .injector import FaultInjector
from .models import DriftingParameterModel, GilbertElliottModel, IIDEventModel

__all__ = [
    "FaultScenario",
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
]


@dataclass(frozen=True)
class FaultScenario:
    """A named, parameter-relative fault recipe.

    Attributes
    ----------
    name:
        Registry key (also the CLI spelling).
    description:
        One line for tables and ``faults list``.
    builder:
        ``builder(params, seed) -> FaultInjector`` — receives the
        nominal :class:`ChannelParameters` so scenarios scale with the
        channel under test.
    """

    name: str
    description: str
    builder: Callable[[ChannelParameters, int], FaultInjector]

    def build(self, params: ChannelParameters, *, seed: int = 0) -> FaultInjector:
        """Instantiate the injector for *params* with *seed*."""
        return self.builder(params, seed)


def _degraded(params: ChannelParameters, extra_d: float, extra_i: float) -> ChannelParameters:
    """Nominal parameters pushed toward a congested regime.

    Deletion/insertion rates rise by the given amounts, clipped so the
    three event probabilities stay a valid distribution.
    """
    d = min(0.9, params.deletion + extra_d)
    i = min(max(0.0, 0.95 - d), params.insertion + extra_i)
    return ChannelParameters.from_rates(deletion=d, insertion=i)


def _baseline(params: ChannelParameters, seed: int) -> FaultInjector:
    return FaultInjector(IIDEventModel(params), seed=seed)


def _bursty_loss(params: ChannelParameters, seed: int) -> FaultInjector:
    model = GilbertElliottModel(
        good=params,
        bad=_degraded(params, 0.35, 0.10),
        p_gb=0.01,
        p_bg=0.05,
    )
    return FaultInjector(model, desync_prob=0.002, seed=seed)


def _slow_drift(params: ChannelParameters, seed: int) -> FaultInjector:
    model = DriftingParameterModel(
        start=params, end=_degraded(params, 0.20, 0.05), ramp_uses=20_000
    )
    return FaultInjector(model, seed=seed)


def _counter_desync(params: ChannelParameters, seed: int) -> FaultInjector:
    return FaultInjector(IIDEventModel(params), desync_prob=0.005, seed=seed)


def _stress(params: ChannelParameters, seed: int) -> FaultInjector:
    model = GilbertElliottModel(
        good=params,
        bad=_degraded(params, 0.45, 0.15),
        p_gb=0.02,
        p_bg=0.04,
    )
    return FaultInjector(model, desync_prob=0.01, seed=seed)


SCENARIOS: Dict[str, FaultScenario] = {}


def register_scenario(scenario: FaultScenario) -> FaultScenario:
    """Add *scenario* to the registry (name must be unused)."""
    if scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


for _name, _desc, _builder in (
    ("baseline", "nominal i.i.d. events, perfect feedback", _baseline),
    (
        "bursty_loss",
        "Gilbert-Elliott bursts of heavy loss + rare counter desync",
        _bursty_loss,
    ),
    (
        "slow_drift",
        "P_d/P_i ramp up over the run (load drift)",
        _slow_drift,
    ),
    (
        "counter_desync",
        "receiver counter drifts ±1 w.p. 0.5% per use",
        _counter_desync,
    ),
    (
        "stress",
        "long bad bursts + counter desync w.p. 1% per use",
        _stress,
    ),
):
    register_scenario(FaultScenario(_name, _desc, _builder))


def get_scenario(name: str) -> FaultScenario:
    """Look up a scenario by name."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown fault scenario {name!r}; known: {sorted(SCENARIOS)}"
        )
    return SCENARIOS[name]


def list_scenarios() -> List[FaultScenario]:
    """All registered scenarios, sorted by name."""
    return [SCENARIOS[k] for k in sorted(SCENARIOS)]
