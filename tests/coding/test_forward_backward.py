"""Drift forward-backward decoder (Davey-MacKay lattice)."""

import numpy as np
import pytest

from repro.coding.forward_backward import DriftChannelModel


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriftChannelModel(0.6, 0.5)
        with pytest.raises(ValueError):
            DriftChannelModel(-0.1, 0.1)
        with pytest.raises(ValueError):
            DriftChannelModel(0.1, 0.1, max_drift=0)

    def test_pt_computed(self):
        m = DriftChannelModel(0.1, 0.2)
        assert m.pt == pytest.approx(0.7)


class TestTransmit:
    def test_statistics(self, rng):
        m = DriftChannelModel(0.1, 0.2)
        bits = rng.integers(0, 2, 50_000)
        y, events = m.transmit(bits, rng)
        counts = {
            "i": (events == "i").sum(),
            "d": (events == "d").sum(),
            "t": (events == "t").sum(),
        }
        total = sum(counts.values())
        assert counts["i"] / total == pytest.approx(0.1, abs=0.01)
        assert counts["d"] / total == pytest.approx(0.2, abs=0.01)
        assert y.size == counts["i"] + counts["t"]

    def test_noiseless_channel_identity(self, rng):
        m = DriftChannelModel(0.0, 0.0)
        bits = rng.integers(0, 2, 500)
        y, _ = m.transmit(bits, rng)
        assert np.array_equal(y, bits)

    def test_substitutions(self, rng):
        m = DriftChannelModel(0.0, 0.0, substitution_prob=0.25)
        bits = rng.integers(0, 2, 40_000)
        y, _ = m.transmit(bits, rng)
        assert (y != bits).mean() == pytest.approx(0.25, abs=0.01)


class TestDecode:
    def test_known_bits_confident_posteriors(self, rng):
        m = DriftChannelModel(0.05, 0.05, max_drift=12)
        bits = rng.integers(0, 2, 200)
        y, _ = m.transmit(bits, rng)
        res = m.decode(y, bits.astype(float))  # delta priors
        assert res.posteriors.shape == (200,)
        # With delta priors the posteriors collapse onto the priors.
        assert np.allclose(res.posteriors, bits, atol=1e-9)
        assert np.isfinite(res.log_likelihood)

    def test_recovers_unknown_bits(self, rng):
        m = DriftChannelModel(0.04, 0.04, max_drift=12)
        n = 240
        bits = rng.integers(0, 2, n)
        y, _ = m.transmit(bits, rng)
        known = rng.random(n) < 0.75
        priors = np.where(known, bits.astype(float), 0.5)
        res = m.decode(y, priors)
        est = (res.posteriors > 0.5).astype(int)
        err = (est[~known] != bits[~known]).mean()
        assert err < 0.25  # far better than the 0.5 of guessing

    def test_clean_channel_perfect_recovery(self, rng):
        m = DriftChannelModel(0.0, 0.0, max_drift=4)
        bits = rng.integers(0, 2, 100)
        priors = np.full(100, 0.5)
        res = m.decode(bits, priors)
        est = (res.posteriors > 0.5).astype(int)
        assert np.array_equal(est, bits)
        assert np.all(res.drift_map == 0)

    def test_drift_map_tracks_length_difference(self, rng):
        m = DriftChannelModel(insertion_prob=0.05, deletion_prob=0.0, max_drift=24)
        bits = rng.integers(0, 2, 150)
        y, _ = m.transmit(bits, rng)
        res = m.decode(y, bits.astype(float))
        # Insertions only: drift grows to m - n by the end.
        assert res.drift_map[-1] >= 0

    def test_rejects_out_of_window_final_drift(self, rng):
        m = DriftChannelModel(0.1, 0.1, max_drift=2)
        priors = np.full(10, 0.5)
        with pytest.raises(ValueError):
            m.decode(np.zeros(20, dtype=int), priors)  # drift 10 > 2

    def test_input_validation(self, rng):
        m = DriftChannelModel(0.1, 0.1)
        with pytest.raises(ValueError):
            m.decode(np.array([0, 2]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            m.decode(np.array([0, 1]), np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            m.decode(np.array([0, 1]), np.array([], dtype=float))

    def test_log_likelihood_prefers_true_params(self, rng):
        """Model mismatch shows up as lower frame likelihood."""
        true = DriftChannelModel(0.06, 0.06, max_drift=14)
        wrong = DriftChannelModel(0.25, 0.25, max_drift=14)
        bits = rng.integers(0, 2, 300)
        lik_true = 0.0
        lik_wrong = 0.0
        for _ in range(3):
            y, _ = true.transmit(bits, rng)
            lik_true += true.decode(y, bits.astype(float)).log_likelihood
            lik_wrong += wrong.decode(y, bits.astype(float)).log_likelihood
        assert lik_true > lik_wrong
