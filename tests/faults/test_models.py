"""Fault models: event-stream processes."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.events import ChannelEvent, ChannelParameters, empirical_parameters
from repro.faults.models import (
    DriftingParameterModel,
    GilbertElliottModel,
    IIDEventModel,
)

GOOD = ChannelParameters.from_rates(deletion=0.1, insertion=0.05)
BAD = ChannelParameters.from_rates(deletion=0.5, insertion=0.15)
DEAD = ChannelParameters.from_rates(deletion=1.0, insertion=0.0)


class TestIIDEventModel:
    def test_matches_nominal_frequencies(self, rng):
        model = IIDEventModel(GOOD)
        events = model.sample(200_000, rng)
        freq_d = np.mean(events == ChannelEvent.DELETION)
        freq_i = np.mean(events == ChannelEvent.INSERTION)
        assert freq_d == pytest.approx(0.1, abs=0.01)
        assert freq_i == pytest.approx(0.05, abs=0.01)

    def test_expected_parameters_is_nominal(self, rng):
        # The stream's long-run parameters are the nominal bundle.
        nominal = replace(ChannelParameters.from_rates(0.1, 0.05), substitution=0.2)
        est = empirical_parameters(IIDEventModel(nominal).sample(200_000, rng))
        for name in ("deletion", "insertion", "transmission", "substitution"):
            assert getattr(est, name) == pytest.approx(
                getattr(nominal, name), abs=0.01
            )

    def test_rejects_negative_uses(self, rng):
        with pytest.raises(ValueError):
            IIDEventModel(GOOD).sample(-1, rng)

    def test_rejects_certain_deletion(self):
        with pytest.raises(ValueError, match="never delivers"):
            IIDEventModel(DEAD)


class TestGilbertElliott:
    def test_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottModel(GOOD, BAD, p_gb=0.0, p_bg=0.1)
        with pytest.raises(ValueError):
            GilbertElliottModel(GOOD, BAD, p_gb=0.1, p_bg=1.5)
        with pytest.raises(ValueError, match="never delivers"):
            GilbertElliottModel(DEAD, DEAD, p_gb=0.1, p_bg=0.1)
        # One dead state still leaves the chain a way out.
        GilbertElliottModel(GOOD, DEAD, p_gb=0.1, p_bg=0.1)

    def test_stationary_bad_fraction(self, rng):
        # Long-run share of bad uses: p_gb / (p_gb + p_bg) = 0.2.
        model = GilbertElliottModel(GOOD, BAD, p_gb=0.01, p_bg=0.04)
        model.sample(200_000, rng)
        assert model.bad_uses / 200_000 == pytest.approx(0.2, abs=0.02)

    def test_bad_state_raises_deletion_rate(self, rng):
        model = GilbertElliottModel(GOOD, BAD, p_gb=0.02, p_bg=0.02)
        events = model.sample(200_000, rng)
        freq_d = np.mean(events == ChannelEvent.DELETION)
        # Half the uses are bad in the long run (p_gb = p_bg).
        expected = 0.5 * (GOOD.deletion + BAD.deletion)
        assert expected == pytest.approx(0.3, abs=1e-12)
        assert freq_d == pytest.approx(expected, abs=0.02)
        assert model.bad_uses > 0

    def test_burstiness(self, rng):
        """Deletions cluster: the bad state produces runs of loss that an
        i.i.d. process at the same mean rate essentially never does."""
        model = GilbertElliottModel(GOOD, BAD, p_gb=0.005, p_bg=0.02)
        events = model.sample(100_000, rng)
        deleted = (events == ChannelEvent.DELETION).astype(int)
        # Longest run of consecutive deletions.
        longest = run = 0
        for d in deleted:
            run = run + 1 if d else 0
            longest = max(longest, run)
        assert longest >= 6  # i.i.d. at P_d≈0.18: P(run of 6) ≈ 3e-5 per site

    def test_state_persists_across_blocks(self, rng):
        """sample() continues one chain; reset() restarts it."""
        model = GilbertElliottModel(GOOD, BAD, p_gb=0.05, p_bg=0.05)
        a1 = model.sample(500, np.random.default_rng(7))
        a2 = model.sample(500, np.random.default_rng(8))
        model.reset()
        b1 = model.sample(500, np.random.default_rng(7))
        assert np.array_equal(a1, b1)
        assert model.state in (model.GOOD, model.BAD)
        assert not np.array_equal(a2, b1)  # different position in the chain

    def test_empty_draw(self, rng):
        model = GilbertElliottModel(GOOD, BAD, p_gb=0.05, p_bg=0.05)
        assert model.sample(0, rng).shape == (0,)


class TestDriftingParameterModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriftingParameterModel(GOOD, BAD, ramp_uses=0)
        with pytest.raises(ValueError, match="never delivers"):
            DriftingParameterModel(GOOD, DEAD, ramp_uses=100)
        # Starting dead is fine: the ramp leaves P_d = 1.
        DriftingParameterModel(DEAD, GOOD, ramp_uses=100)

    def test_params_at_endpoints(self, rng):
        # A ramp long enough that one 100k-use window sees one bundle.
        ramp = 10**9
        model = DriftingParameterModel(GOOD, BAD, ramp_uses=ramp)

        def deletion_rate_at(t):
            model.t = t
            return np.mean(model.sample(100_000, rng) == ChannelEvent.DELETION)

        assert deletion_rate_at(0) == pytest.approx(GOOD.deletion, abs=0.01)
        assert deletion_rate_at(ramp) == pytest.approx(BAD.deletion, abs=0.01)
        assert deletion_rate_at(10 * ramp) == pytest.approx(BAD.deletion, abs=0.01)
        assert deletion_rate_at(ramp // 2) == pytest.approx(
            0.5 * (GOOD.deletion + BAD.deletion), abs=0.01
        )

    def test_drift_is_visible_in_frequencies(self, rng):
        model = DriftingParameterModel(GOOD, BAD, ramp_uses=50_000)
        early = model.sample(10_000, rng)
        model.t = 40_000
        late = model.sample(10_000, rng)
        rate = lambda ev: np.mean(ev == ChannelEvent.DELETION)  # noqa: E731
        assert rate(late) > rate(early) + 0.15

    def test_reset_rewinds_time(self, rng):
        model = DriftingParameterModel(GOOD, BAD, ramp_uses=100)
        model.sample(500, rng)
        assert model.t == 500
        model.reset()
        assert model.t == 0

    def test_expected_parameters_is_plateau(self, rng):
        # Past the ramp the stream holds at the ``end`` bundle.
        model = DriftingParameterModel(GOOD, BAD, ramp_uses=10)
        model.sample(10, rng)
        events = model.sample(100_000, rng)
        assert np.mean(events == ChannelEvent.DELETION) == pytest.approx(
            BAD.deletion, abs=0.01
        )
