"""The named fault-scenario registry."""

import pytest

from repro.core.events import ChannelParameters
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    DriftingParameterModel,
    GilbertElliottModel,
    IIDEventModel,
)
from repro.faults.scenarios import (
    SCENARIOS,
    FaultScenario,
    get_scenario,
    list_scenarios,
    register_scenario,
)

PARAMS = ChannelParameters.from_rates(deletion=0.1, insertion=0.05)

EXPECTED_NAMES = {
    "baseline",
    "bursty_loss",
    "slow_drift",
    "counter_desync",
    "stress",
}


def test_registry_contents():
    assert set(SCENARIOS) == EXPECTED_NAMES
    names = [s.name for s in list_scenarios()]
    assert names == sorted(names)


def test_get_scenario_unknown():
    with pytest.raises(KeyError, match="no_such"):
        get_scenario("no_such")


def test_register_rejects_duplicates():
    with pytest.raises(ValueError):
        register_scenario(
            FaultScenario(
                "baseline", "dup", lambda p, s: FaultInjector(IIDEventModel(p))
            )
        )


def test_every_scenario_builds():
    for scenario in list_scenarios():
        injector = scenario.build(PARAMS, seed=3)
        assert isinstance(injector, FaultInjector)
        assert injector.seed == 3
        assert scenario.description


def test_build_injector_shorthand():
    a = get_scenario("counter_desync").build(PARAMS, seed=5)
    assert a.desync_prob == pytest.approx(0.005)
    assert isinstance(a.event_model, IIDEventModel)


def test_scenario_shapes():
    assert isinstance(
        get_scenario("bursty_loss").build(PARAMS).event_model, GilbertElliottModel
    )
    assert isinstance(
        get_scenario("slow_drift").build(PARAMS).event_model,
        DriftingParameterModel,
    )
    desync = {s.name for s in list_scenarios() if s.build(PARAMS).desync_prob > 0}
    assert desync == {"bursty_loss", "counter_desync", "stress"}
    stress = get_scenario("stress").build(PARAMS)
    assert isinstance(stress.event_model, GilbertElliottModel)


def test_scenarios_scale_with_nominal_params():
    """Recipes are parameter-relative: a heavier nominal channel yields a
    heavier bad state."""
    light = get_scenario("bursty_loss").build(
        ChannelParameters.from_rates(0.05, 0.0)
    )
    heavy = get_scenario("bursty_loss").build(
        ChannelParameters.from_rates(0.3, 0.0)
    )
    assert heavy.event_model.bad.deletion > light.event_model.bad.deletion
    assert heavy.event_model.good.deletion == pytest.approx(0.3)


def test_bad_state_distribution_is_valid():
    for name in EXPECTED_NAMES:
        injector = get_scenario(name).build(
            ChannelParameters.from_rates(0.8, 0.1)
        )
        model = injector.event_model
        for params in (
            getattr(model, "bad", None),
            getattr(model, "end", None),
        ):
            if params is not None:
                total = params.deletion + params.insertion + params.transmission
                assert total == pytest.approx(1.0)
