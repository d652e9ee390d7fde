"""Composition laws for deletion-insertion stages."""

from dataclasses import replace

import pytest

from repro.core.channels import DeletionInsertionChannel
from repro.core.events import ChannelParameters
from tests.core.composition import (
    compose_parameters,
    composite_erasure_bound,
    composition_is_degrading,
)


class TestComposeParameters:
    def test_single_stage_identity(self):
        p = ChannelParameters.from_rates(0.2, 0.1)
        c = compose_parameters([p])
        assert c.deletion == pytest.approx(p.deletion)
        assert c.insertion == pytest.approx(p.insertion)

    def test_two_deletion_stages(self):
        # Survival multiplies: (1-0.2)(1-0.25) = 0.6 => Pd' = 0.4.
        a = ChannelParameters.from_rates(0.2, 0.0)
        b = ChannelParameters.from_rates(0.25, 0.0)
        c = compose_parameters([a, b])
        assert c.insertion == 0.0
        assert c.deletion == pytest.approx(0.4)

    def test_two_insertion_stages_accumulate(self):
        a = ChannelParameters.from_rates(0.0, 0.1)
        b = ChannelParameters.from_rates(0.0, 0.1)
        c = compose_parameters([a, b])
        assert c.deletion == 0.0
        # Loads r = 1/9 each, no thinning: total 2/9 per symbol.
        expected_load = 2 * (0.1 / 0.9)
        assert c.insertion / c.transmission == pytest.approx(expected_load)

    def test_order_matters_for_insertions(self):
        """Insertions injected before a deleting stage get thinned;
        after it they do not."""
        ins_first = compose_parameters(
            [
                ChannelParameters.from_rates(0.0, 0.2),
                ChannelParameters.from_rates(0.3, 0.0),
            ]
        )
        del_first = compose_parameters(
            [
                ChannelParameters.from_rates(0.3, 0.0),
                ChannelParameters.from_rates(0.0, 0.2),
            ]
        )
        assert ins_first.insertion < del_first.insertion

    def test_validation(self):
        with pytest.raises(ValueError):
            compose_parameters([])
        with pytest.raises(ValueError):
            compose_parameters(
                [replace(ChannelParameters.from_rates(0.1, 0.0), substitution=0.1)]
            )
        with pytest.raises(ValueError):
            compose_parameters(
                [ChannelParameters.from_rates(0.0, 1.0)]
            )

    def test_matches_simulation(self, rng):
        """Composite deletion/insertion statistics match actually
        chaining two channel simulators."""
        a = ChannelParameters.from_rates(0.15, 0.1)
        b = ChannelParameters.from_rates(0.1, 0.05)
        predicted = compose_parameters([a, b])

        ch_a = DeletionInsertionChannel(a, bits_per_symbol=1)
        ch_b = DeletionInsertionChannel(b, bits_per_symbol=1)
        msg = rng.integers(0, 2, 60_000)
        mid = ch_a.transmit(msg, rng).received
        out = ch_b.transmit(mid, rng).received

        # Surviving originals: track a marker-free statistic instead —
        # expected output length = inputs * Pt'(per consumed) ratio.
        consumed = msg.size
        expected_outputs = consumed * (
            (predicted.insertion + predicted.transmission)
            / (predicted.deletion + predicted.transmission)
        )
        assert out.size == pytest.approx(expected_outputs, rel=0.03)


class TestBounds:
    def test_composite_bound_below_each_stage(self):
        stages = [
            ChannelParameters.from_rates(0.1, 0.05),
            ChannelParameters.from_rates(0.2, 0.1),
            ChannelParameters.from_rates(0.05, 0.0),
        ]
        assert composition_is_degrading(3, stages)

    def test_composite_bound_value(self):
        stages = [
            ChannelParameters.from_rates(0.2, 0.0),
            ChannelParameters.from_rates(0.25, 0.0),
        ]
        assert composite_erasure_bound(2, stages) == pytest.approx(2 * 0.6)

    def test_identity_stage_is_neutral(self):
        ident = ChannelParameters.from_rates(0.0, 0.0)
        p = ChannelParameters.from_rates(0.2, 0.1)
        c = compose_parameters([ident, p, ident])
        assert c.deletion == pytest.approx(p.deletion)
        assert c.insertion == pytest.approx(p.insertion)
