"""RNG streams, the experiment runner, and empirical MI estimation."""

import numpy as np
import pytest

from repro.infotheory.dmc import DiscreteMemorylessChannel
from repro.infotheory.entropy import binary_entropy
from repro.simulation.mutual_information import (
    joint_histogram,
    miller_madow_correction,
    per_position_mutual_information,
    plugin_mutual_information,
)
from repro.simulation.rng import RngFactory, make_rng
from repro.simulation.runner import ExperimentRunner


class TestRng:
    def test_make_rng_accepts_variants(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g
        assert isinstance(make_rng(5), np.random.Generator)
        assert isinstance(make_rng(None), np.random.Generator)

    def test_factory_deterministic(self):
        a = RngFactory(7).stream("channel").random(5)
        b = RngFactory(7).stream("channel").random(5)
        assert np.array_equal(a, b)

    def test_factory_streams_independent(self):
        f = RngFactory(7)
        a = f.stream("a").random(5)
        b = f.stream("b").random(5)
        assert not np.array_equal(a, b)

    def test_order_independence(self):
        f1 = RngFactory(3)
        f1.stream("x")
        y_after = f1.stream("y").random(3)
        f2 = RngFactory(3)
        y_first = f2.stream("y").random(3)
        assert np.array_equal(y_after, y_first)

    def test_stream_cached(self):
        f = RngFactory(1)
        assert f.stream("s") is f.stream("s")

    def test_fresh_restarts(self):
        f = RngFactory(1)
        a = f.stream("s").random(3)
        b = f.fresh("s").random(3)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(TypeError):
            RngFactory("seed")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            RngFactory(0).stream("")


class TestRunner:
    def test_aggregates_metrics(self):
        runner = ExperimentRunner(root_seed=0, replications=5)
        out = runner.run(lambda rng: {"x": float(rng.random())})
        assert out["x"].replications == 5
        assert 0 <= out["x"].mean <= 1

    def test_reproducible(self):
        def trial(rng):
            return {"v": float(rng.random())}

        a = ExperimentRunner(root_seed=9, replications=4).run(trial)
        b = ExperimentRunner(root_seed=9, replications=4).run(trial)
        assert a["v"].samples == b["v"].samples

    def test_metric_name_consistency_enforced(self):
        calls = [0]

        def trial(rng):
            calls[0] += 1
            return {"a": 1.0} if calls[0] == 1 else {"b": 1.0}

        runner = ExperimentRunner(replications=3)
        with pytest.raises(ValueError):
            runner.run(trial)

    def test_empty_metrics_rejected(self):
        runner = ExperimentRunner(replications=2)
        with pytest.raises(ValueError):
            runner.run(lambda rng: {})

    def test_sweep(self):
        runner = ExperimentRunner(root_seed=0, replications=3)
        out = runner.sweep(
            lambda rng, v: {"twice": 2 * v}, parameter_values=[1.0, 2.0]
        )
        assert out[1.0]["twice"].mean == pytest.approx(2.0)
        assert out[2.0]["twice"].mean == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentRunner(replications=1)
        with pytest.raises(ValueError):
            ExperimentRunner(confidence=2.0)


class TestEmpiricalMI:
    def test_joint_histogram_normalized(self, rng):
        xs = rng.integers(0, 3, 1000)
        ys = rng.integers(0, 4, 1000)
        joint = joint_histogram(xs, ys)
        assert joint.shape == (3, 4)
        assert joint.sum() == pytest.approx(1.0)

    def test_plugin_matches_bsc_capacity(self, rng):
        """MI of a uniform-input BSC sample approaches 1 - H(p)."""
        p = 0.11
        ch = DiscreteMemorylessChannel(
            np.array([[1 - p, p], [p, 1 - p]])
        )
        xs = rng.integers(0, 2, 400_000)
        ys = ch.transmit(xs, rng)
        mi = plugin_mutual_information(xs, ys, bias_correct=True)
        assert mi == pytest.approx(1.0 - binary_entropy(p), abs=0.005)

    def test_independent_streams_near_zero(self, rng):
        xs = rng.integers(0, 2, 100_000)
        ys = rng.integers(0, 2, 100_000)
        mi = plugin_mutual_information(xs, ys, bias_correct=True)
        assert mi < 0.001

    def test_bias_correction_magnitude(self):
        assert miller_madow_correction((4, 4), 1000) == pytest.approx(
            9 / (2000 * np.log(2))
        )
        with pytest.raises(ValueError):
            miller_madow_correction((2, 2), 0)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            plugin_mutual_information([], [])
        with pytest.raises(ValueError):
            plugin_mutual_information([0, 1], [1])
        with pytest.raises(ValueError):
            joint_histogram([-1, 0], [0, 1])

    def test_per_position_identity(self, rng):
        xs = rng.integers(0, 4, 50_000)
        mi = per_position_mutual_information(xs, xs, alphabet_size=4)
        assert mi == pytest.approx(2.0, abs=0.01)

    def test_per_position_empty(self):
        assert per_position_mutual_information(
            np.array([]), np.array([]), alphabet_size=2
        ) == 0.0

    def test_per_position_collapses_under_shift(self, rng):
        """One deletion misaligns everything downstream: MI collapses
        even though the data is a perfect copy otherwise."""
        xs = rng.integers(0, 2, 50_000)
        shifted = xs[1:]  # first symbol 'deleted'
        mi = per_position_mutual_information(xs, shifted, alphabet_size=2)
        assert mi < 0.01
