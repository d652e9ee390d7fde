"""Channel parameter identification from pilots."""

import numpy as np
import pytest

from repro.coding.forward_backward import DriftChannelModel
from repro.coding.identification import estimate_channel_parameters


def _make_pilots(pi, pd, *, count, length, seed):
    rng = np.random.default_rng(seed)
    channel = DriftChannelModel(pi, pd, max_drift=32)
    pilots, received = [], []
    for _ in range(count):
        bits = rng.integers(0, 2, length)
        y, _ = channel.transmit(bits, rng)
        pilots.append(bits)
        received.append(y)
    return pilots, received


class TestEstimation:
    def test_recovers_parameters(self):
        pilots, received = _make_pilots(0.06, 0.03, count=4, length=200, seed=2)
        est = estimate_channel_parameters(
            pilots, received, grid=(0.02, 0.06, 0.12)
        )
        assert est.insertion_prob == pytest.approx(0.06, abs=0.04)
        assert est.deletion_prob == pytest.approx(0.03, abs=0.04)
        assert np.isfinite(est.log_likelihood)

    def test_clean_channel_estimates_near_zero(self):
        pilots, received = _make_pilots(0.0, 0.0, count=2, length=150, seed=3)
        est = estimate_channel_parameters(
            pilots, received, grid=(0.01, 0.05)
        )
        assert est.insertion_prob < 0.02
        assert est.deletion_prob < 0.02

    def test_asymmetric_channel_ranked_correctly(self):
        """Heavy deletions, no insertions: the estimate must reflect
        the asymmetry even if the exact values are noisy."""
        pilots, received = _make_pilots(0.0, 0.12, count=4, length=200, seed=4)
        est = estimate_channel_parameters(
            pilots, received, grid=(0.01, 0.05, 0.12)
        )
        assert est.deletion_prob > est.insertion_prob + 0.03

    def test_likelihood_at_truth_not_worse(self):
        """The ML estimate's likelihood must be >= the truth's (it is
        the maximizer)."""
        from repro.coding.identification import _total_log_likelihood

        pilots, received = _make_pilots(0.05, 0.05, count=3, length=200, seed=5)
        est = estimate_channel_parameters(
            pilots, received, grid=(0.02, 0.05, 0.1)
        )
        truth_ll = _total_log_likelihood(0.05, 0.05, pilots, received, 24)
        assert est.log_likelihood >= truth_ll - 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_channel_parameters([], [])
        with pytest.raises(ValueError):
            estimate_channel_parameters([np.zeros(5, dtype=int)], [])

    def test_auto_drift_window_covers_pilots(self):
        """A pilot with a large length difference must not poison the
        search (regression: fixed window used to penalize everything)."""
        pilots, received = _make_pilots(0.12, 0.0, count=3, length=220, seed=6)
        est = estimate_channel_parameters(
            pilots, received, grid=(0.02, 0.1)
        )
        assert est.insertion_prob > 0.05
