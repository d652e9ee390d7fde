"""Vectorized vs. scalar forward-backward: 1e-12 agreement.

``DriftChannelModel.decode``/``log_likelihood`` are batched-NumPy
kernels; ``decode_reference``/``log_likelihood_reference`` in
``tests/coding/fb_oracle.py`` keep the pre-vectorization
position-by-position loops as the oracle. Randomized
``(P_d, P_i, P_s)`` grids must agree to 1e-12 in posterior, likelihood,
and drift-map terms.
"""

import numpy as np
import pytest

from repro.coding.forward_backward import DriftChannelModel
from repro.numerics import collect_stage_timings
from tests.coding.fb_oracle import decode_reference, log_likelihood_reference

TOL = 1e-12


def _random_instance(rng, *, max_drift=10):
    pd_ = float(rng.uniform(0.0, 0.3))
    pi_ = float(rng.uniform(0.0, min(0.3, 0.85 - pd_)))
    ps_ = float(rng.uniform(0.0, 0.2))
    model = DriftChannelModel(pi_, pd_, ps_, max_drift=max_drift)
    n = int(rng.integers(6, 72))
    bits = rng.integers(0, 2, size=n)
    for _ in range(64):
        y, _events = model.transmit(bits, rng)
        if -max_drift <= y.size - n <= max_drift:
            return model, y, n
    pytest.skip("could not sample an in-window frame")


@pytest.mark.parametrize("seed", range(8))
def test_decode_matches_reference_on_random_grids(seed):
    rng = np.random.default_rng(seed)
    model, y, n = _random_instance(rng)
    priors = rng.uniform(0.02, 0.98, size=n)
    vec = model.decode(y, priors)
    ref = decode_reference(model, y, priors)
    np.testing.assert_allclose(vec.posteriors, ref.posteriors, atol=TOL, rtol=0)
    assert abs(vec.log_likelihood - ref.log_likelihood) < TOL * max(
        1.0, abs(ref.log_likelihood)
    )
    np.testing.assert_array_equal(vec.drift_map, ref.drift_map)


@pytest.mark.parametrize("seed", range(8))
def test_log_likelihood_matches_reference(seed):
    rng = np.random.default_rng(100 + seed)
    model, y, n = _random_instance(rng)
    priors = rng.uniform(0.02, 0.98, size=n)
    vec = model.log_likelihood(y, priors)
    ref = log_likelihood_reference(model, y, priors)
    assert abs(vec - ref) < TOL * max(1.0, abs(ref))


def test_decode_consistent_with_own_likelihood():
    rng = np.random.default_rng(42)
    model, y, n = _random_instance(rng)
    priors = np.full(n, 0.5)
    assert abs(
        model.decode(y, priors).log_likelihood
        - model.log_likelihood(y, priors)
    ) < 1e-10


def test_hard_priors_pass_through():
    """Known (0/1-prior) positions keep their hard posteriors."""
    rng = np.random.default_rng(7)
    model = DriftChannelModel(0.05, 0.08, 0.02, max_drift=8)
    bits = rng.integers(0, 2, size=40)
    while True:
        y, _ = model.transmit(bits, rng)
        if -8 <= y.size - 40 <= 8:
            break
    priors = np.where(bits == 1, 1.0, 0.0)
    vec = model.decode(y, priors)
    ref = decode_reference(model, y, priors)
    np.testing.assert_allclose(vec.posteriors, ref.posteriors, atol=TOL, rtol=0)
    np.testing.assert_allclose(vec.posteriors, priors, atol=1e-9)


def test_substitution_free_channel():
    model = DriftChannelModel(0.0, 0.15, 0.0, max_drift=8)
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=32)
    while True:
        y, _ = model.transmit(bits, rng)
        if -8 <= y.size - 32 <= 8:
            break
    priors = np.full(32, 0.5)
    vec = model.decode(y, priors)
    ref = decode_reference(model, y, priors)
    np.testing.assert_allclose(vec.posteriors, ref.posteriors, atol=TOL, rtol=0)


def test_decode_records_lattice_stage():
    model = DriftChannelModel(0.05, 0.05, 0.0, max_drift=6)
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=16)
    while True:
        y, _ = model.transmit(bits, rng)
        if -6 <= y.size - 16 <= 6:
            break
    with collect_stage_timings() as timing:
        model.decode(y, np.full(16, 0.5))
        model.log_likelihood(y, np.full(16, 0.5))
    assert timing["lattice"] > 0.0


def test_error_paths_match_reference():
    model = DriftChannelModel(0.05, 0.05, 0.0, max_drift=2)
    y = np.zeros(20, dtype=np.int64)
    priors = np.full(4, 0.5)  # final drift 16 >> max_drift
    with pytest.raises(ValueError, match="final drift"):
        model.decode(y, priors)
    with pytest.raises(ValueError, match="final drift"):
        decode_reference(model, y, priors)
