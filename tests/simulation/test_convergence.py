"""Sequential (precision-targeted) Monte-Carlo."""

import pytest

from tests.simulation.convergence import half_width, run_until_precise


class TestRunUntilPrecise:
    def test_reaches_absolute_target(self):
        result = run_until_precise(
            lambda rng: rng.normal(5.0, 1.0),
            abs_half_width=0.2,
            max_replications=5000,
        )
        assert result.reached_target
        assert half_width(result.interval) <= 0.2
        assert result.estimate == pytest.approx(5.0, abs=0.5)

    def test_reaches_relative_target(self):
        result = run_until_precise(
            lambda rng: rng.normal(10.0, 2.0),
            rel_half_width=0.05,
            max_replications=5000,
        )
        assert result.reached_target
        assert half_width(result.interval) / abs(result.estimate) <= 0.05

    def test_harder_targets_need_more_samples(self):
        loose = run_until_precise(
            lambda rng: rng.normal(0.0, 1.0),
            abs_half_width=0.5,
            root_seed=1,
        )
        tight = run_until_precise(
            lambda rng: rng.normal(0.0, 1.0),
            abs_half_width=0.1,
            root_seed=1,
        )
        assert tight.replications > loose.replications

    def test_cap_respected(self):
        result = run_until_precise(
            lambda rng: rng.normal(0.0, 100.0),
            abs_half_width=1e-6,
            max_replications=50,
        )
        assert result.replications == 50
        assert not result.reached_target

    def test_deterministic_trial_stops_immediately(self):
        result = run_until_precise(
            lambda rng: 3.0, abs_half_width=0.01, min_replications=4
        )
        assert result.reached_target
        assert result.replications <= 8
        assert result.estimate == 3.0

    def test_reproducible(self):
        a = run_until_precise(
            lambda rng: rng.normal(), abs_half_width=0.2, root_seed=7
        )
        b = run_until_precise(
            lambda rng: rng.normal(), abs_half_width=0.2, root_seed=7
        )
        assert a.estimate == b.estimate
        assert a.replications == b.replications

    def test_validation(self):
        with pytest.raises(ValueError):
            run_until_precise(lambda rng: 0.0)
        with pytest.raises(ValueError):
            run_until_precise(
                lambda rng: 0.0, abs_half_width=0.1, min_replications=1
            )
        with pytest.raises(ValueError):
            run_until_precise(
                lambda rng: 0.0,
                abs_half_width=0.1,
                min_replications=10,
                max_replications=5,
            )
        with pytest.raises(ValueError):
            run_until_precise(lambda rng: 0.0, abs_half_width=0.1, batch=0)

    def test_protocol_rate_estimation_use_case(self):
        """Realistic use: estimate the resend-protocol rate to +-1%."""
        from repro.core.events import ChannelParameters
        from repro.sync.feedback import ResendProtocol

        proto = ResendProtocol(ChannelParameters.from_rates(0.2, 0.0))

        def trial(rng):
            run = proto.run(rng.integers(0, 2, 2000), rng)
            return run.throughput_per_use

        result = run_until_precise(
            trial, rel_half_width=0.01, max_replications=500
        )
        assert result.reached_target
        assert result.estimate == pytest.approx(0.8, abs=0.02)
