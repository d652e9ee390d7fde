"""Sampler adapters: protocol conformance, determinism, semantics."""

import numpy as np
import pytest

from repro.estimation import (
    ChannelSampler,
    DMCSampler,
    SchedulerTimingSampler,
    bsc_sampler,
    mary_sampler,
)
from repro.simulation.rng import RngFactory
from tests.estimation.samplers import PacketGapSampler, TimedDMCSampler

ALL_SAMPLERS = [
    bsc_sampler(0.1),
    mary_sampler(4, 0.2),
    DMCSampler([[0.7, 0.3], [0.2, 0.8]]),
    TimedDMCSampler([[0.9, 0.1], [0.1, 0.9]], [1.0, 2.5]),
    SchedulerTimingSampler((1, 2, 4), 0.2),
    PacketGapSampler((1.0, 2.0), loss_prob=0.1, jitter_std=0.05),
]


@pytest.mark.parametrize(
    "sampler", ALL_SAMPLERS, ids=lambda s: type(s).__name__
)
class TestProtocol:
    def test_conforms_to_protocol(self, sampler):
        assert isinstance(sampler, ChannelSampler)

    def test_sample_shape_and_determinism(self, sampler):
        m = sampler.num_symbols
        x = RngFactory(1).fresh("x").integers(0, m, 200)
        a = sampler.sample(x, RngFactory(2).fresh("s"))
        b = sampler.sample(x, RngFactory(2).fresh("s"))
        assert a.shape == (200,)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a))

    def test_durations_positive_and_sized(self, sampler):
        tau = sampler.symbol_durations()
        assert tau.shape == (sampler.num_symbols,)
        assert np.all(tau > 0)


class TestDMCSampler:
    def test_empirical_transition_matches_matrix(self):
        sampler = DMCSampler([[0.7, 0.3], [0.2, 0.8]])
        x = np.repeat(np.arange(2), 20000)
        y = sampler.sample(x, RngFactory(3).fresh("s"))
        for s in range(2):
            frac = float(np.mean(y[x == s] == 1))
            assert frac == pytest.approx(
                sampler.transition[s][1], abs=0.02
            )

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DMCSampler([[0.7, 0.2], [0.2, 0.8]])
        with pytest.raises(ValueError, match="finite"):
            DMCSampler([[np.nan, 1.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="rectangular"):
            DMCSampler([[1.0], [0.5, 0.5]])

    def test_bsc_helper_validates(self):
        with pytest.raises(ValueError):
            bsc_sampler(1.5)

    def test_mary_helper_shape(self):
        sampler = mary_sampler(8)
        assert sampler.num_symbols == 8
        with pytest.raises(ValueError, match="at least 2"):
            mary_sampler(1)


class TestTimedDMCSampler:
    def test_duration_validation(self):
        with pytest.raises(ValueError, match="match the input"):
            TimedDMCSampler([[1.0, 0.0], [0.0, 1.0]], [1.0])
        with pytest.raises(ValueError, match="positive"):
            TimedDMCSampler([[1.0, 0.0], [0.0, 1.0]], [1.0, -2.0])

    def test_durations_surface(self):
        sampler = TimedDMCSampler([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.5])
        assert np.array_equal(sampler.symbol_durations(), [1.0, 2.5])


class TestSchedulerTimingSampler:
    def test_noiseless_gaps_equal_bursts(self):
        sampler = SchedulerTimingSampler((1, 2, 4))
        x = np.array([0, 1, 2, 2, 0])
        y = sampler.sample(x, RngFactory(1).fresh("s"))
        assert np.array_equal(y, [1.0, 2.0, 4.0, 4.0, 1.0])

    def test_preemption_only_stretches(self):
        sampler = SchedulerTimingSampler((1, 2, 4), 0.4)
        x = RngFactory(2).fresh("x").integers(0, 3, 500)
        y = sampler.sample(x, RngFactory(2).fresh("s"))
        holds = np.asarray((1, 2, 4))[x]
        assert np.all(y >= holds)  # one-sided noise, never shrinks

    def test_expected_duration_accounts_for_stretch(self):
        sampler = SchedulerTimingSampler((1, 2, 4), 0.5)
        # hold / (1 - q) + 1 receiver quantum
        assert np.allclose(sampler.symbol_durations(), [3.0, 5.0, 9.0])

    def test_reuses_simulator_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SchedulerTimingSampler((2, 1))
        with pytest.raises(ValueError, match="positive integers"):
            SchedulerTimingSampler((0, 1))
        with pytest.raises(ValueError, match="preempt_prob"):
            SchedulerTimingSampler((1, 2), 1.0)


class TestPacketGapSampler:
    def test_lossless_gaps_are_jittered_durations(self):
        sampler = PacketGapSampler((1.0, 2.0))
        x = np.array([0, 1, 1, 0])
        y = sampler.sample(x, RngFactory(4).fresh("s"))
        assert np.array_equal(y, [1.0, 2.0, 2.0, 1.0])

    def test_deleted_symbols_get_merged_gap(self):
        sampler = PacketGapSampler((1.0, 2.0), loss_prob=0.4)
        x = RngFactory(5).fresh("x").integers(0, 2, 300)
        y = sampler.sample(x, RngFactory(5).fresh("s"))
        durations = np.asarray((1.0, 2.0))
        # Every output is an observed gap: at least as long as some
        # sent gap, and any value above max(durations) must be a merge
        # (sum of >= 2 sent gaps).
        assert np.all(y >= durations[0] - 1e-9)
        merged = y > durations[1] + 1e-9
        assert np.any(merged)  # loss at 0.4 over 300 symbols: certain
        assert np.all(y[merged] >= 2 * durations[0] - 1e-9)

    def test_all_interior_lost_flow_is_finite(self):
        # Degenerate path: with every interior packet lost the
        # receiver sees nothing — outputs must still be finite and
        # deterministic, not NaN.
        sampler = PacketGapSampler((1.0, 2.0), loss_prob=0.999999)
        x = np.array([0, 1, 0])
        y = sampler.sample(x, RngFactory(6).fresh("s"))
        assert y.shape == (3,)
        assert np.all(np.isfinite(y))

    def test_prob_validation(self):
        with pytest.raises(ValueError, match="loss_prob"):
            PacketGapSampler((1.0, 2.0), loss_prob=1.5)
        with pytest.raises(ValueError, match="jitter_std"):
            PacketGapSampler((1.0, 2.0), jitter_std=-0.1)
