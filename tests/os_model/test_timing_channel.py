"""Burst-length timing covert channel."""

import numpy as np
import pytest

from repro.os_model.timing_channel import TimingChannelConfig
from tests.os_model.timing_channel import simulate_timing_channel


class TestConfig:
    def test_valid(self):
        cfg = TimingChannelConfig([1, 2, 4], preempt_prob=0.1)
        assert cfg.durations == (1, 2, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimingChannelConfig([])
        with pytest.raises(ValueError):
            TimingChannelConfig([2, 1])  # not increasing
        with pytest.raises(ValueError):
            TimingChannelConfig([1, 1])  # duplicate
        with pytest.raises(ValueError):
            TimingChannelConfig([0, 1])
        with pytest.raises(ValueError):
            TimingChannelConfig([1, 2], preempt_prob=1.0)


class TestSimulation:
    def test_noiseless_perfect_decoding(self, rng):
        cfg = TimingChannelConfig([1, 3])
        msg = rng.integers(0, 2, 5000)
        run = simulate_timing_channel(msg, cfg, rng)
        assert run.symbol_errors == 0
        assert np.array_equal(run.decoded, msg)

    def test_quanta_accounting(self, rng):
        cfg = TimingChannelConfig([1, 3])
        msg = np.array([0, 1, 0])
        run = simulate_timing_channel(msg, cfg, rng)
        # 1+1 + 3+1 + 1+1 quanta.
        assert run.quanta == 8

    def test_preemption_causes_one_sided_errors(self, rng):
        cfg = TimingChannelConfig([1, 4], preempt_prob=0.4)
        msg = rng.integers(0, 2, 20_000)
        run = simulate_timing_channel(msg, cfg, rng)
        assert run.symbol_errors > 0
        # Errors are one-sided: a 0 (short burst) can stretch into a 1,
        # but a 1 can never shrink into a 0 — the timed-Z structure.
        upgraded = np.count_nonzero((msg == 0) & (run.decoded == 1))
        downgraded = np.count_nonzero((msg == 1) & (run.decoded == 0))
        assert upgraded > 0
        assert downgraded == 0

    def test_empirical_rate_below_stc_capacity(self, rng):
        cfg = TimingChannelConfig([1, 2, 4])
        msg = rng.integers(0, 3, 20_000)
        run = simulate_timing_channel(msg, cfg, rng)
        # Uniform signaling cannot beat the STC capacity.
        assert run.empirical_rate <= run.stc_capacity + 1e-9
        assert run.mutual_information_rate <= run.empirical_rate + 1e-9

    def test_noise_reduces_information_rate(self, rng):
        cfg_clean = TimingChannelConfig([1, 4])
        cfg_noisy = TimingChannelConfig([1, 4], preempt_prob=0.5)
        msg = rng.integers(0, 2, 30_000)
        clean = simulate_timing_channel(msg, cfg_clean, np.random.default_rng(1))
        noisy = simulate_timing_channel(msg, cfg_noisy, np.random.default_rng(1))
        assert noisy.mutual_information_rate < clean.mutual_information_rate

    def test_message_validation(self, rng):
        cfg = TimingChannelConfig([1, 2])
        with pytest.raises(ValueError):
            simulate_timing_channel(np.array([0, 2]), cfg, rng)
        with pytest.raises(ValueError):
            simulate_timing_channel(np.zeros((2, 2), dtype=int), cfg, rng)


class TestSchedulersExtra:
    """The stride and MLFQ schedulers added for the E7 design space."""

    def test_stride_equal_tickets_alternates(self, rng):
        from repro.os_model.measurement import run_oblivious_channel
        from repro.os_model.scheduler import StrideScheduler

        m = run_oblivious_channel(StrideScheduler(), rng, message_symbols=3000)
        assert m.params.deletion == 0.0
        assert m.params.insertion == 0.0

    def test_mlfq_synchronous_for_symmetric_pair(self, rng):
        from repro.os_model.measurement import run_oblivious_channel
        from repro.os_model.scheduler import MultilevelFeedbackScheduler

        m = run_oblivious_channel(
            MultilevelFeedbackScheduler(), rng, message_symbols=3000
        )
        assert m.params.deletion == 0.0
