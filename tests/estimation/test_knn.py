"""Property suite for the Kraskov kNN MI estimator.

Anchors the mixed estimator on channels with closed-form mutual
information — independence (MI = 0), noiseless M-ary (MI = log2 M),
the binary symmetric channel (MI = 1 - h(p)) — across sample sizes,
and pins the fast paths (sorted arrays for 1-D outputs, cKDTree
otherwise) to their naive O(n^2) oracles bit-for-bit.

Documented bias trend (mixed estimator, BSC(0.1), capacity-achieving
uniform input, seed-averaged): the estimate is biased low by an amount
that shrinks with both n and k; with the self-exclusive counting
convention used here the residual bias at k=8 is ~0.02 bits at n=512
and ~0.005 bits at n=4096 — the margin the E17 agreement gate
(0.05 bits at n=4096) rests on. The parametrized tolerances below
encode that trend: looser at small n, tight at large n.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimation import (
    mixed_mi_contributions,
    mixed_mutual_information,
    tie_break_jitter,
)
from repro.simulation.rng import RngFactory
from tests.estimation.oracles import mixed_mutual_information_reference


def _h2(p: float) -> float:
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def _bsc_pairs(n: int, crossover: float, factory: RngFactory):
    x = factory.fresh("x").integers(0, 2, n)
    flip = factory.fresh("flip").random(n) < crossover
    return x, np.where(flip, 1 - x, x).astype(float)


class TestMixedEstimatorAnchors:
    @pytest.mark.parametrize("n", [512, 2048])
    def test_independent_pairs_give_zero(self, n):
        factory = RngFactory(101)
        x = factory.fresh("x").integers(0, 2, n)
        y = factory.fresh("y").normal(size=n)  # independent of x
        mi = mixed_mutual_information(x, y, k=8, rng=factory.fresh("j"))
        assert abs(mi) < 0.05

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_noiseless_mary_gives_log2_m(self, m):
        factory = RngFactory(202 + m)
        x = factory.fresh("x").integers(0, m, 2048)
        mi = mixed_mutual_information(
            x, x.astype(float), k=8, rng=factory.fresh("j")
        )
        assert mi == pytest.approx(np.log2(m), abs=0.05)

    @pytest.mark.parametrize(
        "n,tol",
        [(512, 0.08), (2048, 0.05), (4096, 0.03)],
        ids=["n512", "n2048", "n4096"],
    )
    def test_bsc_tracks_closed_form_with_shrinking_bias(self, n, tol):
        # The tolerance ladder IS the documented bias trend: the
        # absolute error bound tightens as n grows.
        crossover = 0.1
        truth = 1.0 - _h2(crossover)
        factory = RngFactory(n)
        x, y = _bsc_pairs(n, crossover, factory)
        mi = mixed_mutual_information(x, y, k=8, rng=factory.fresh("j"))
        assert mi == pytest.approx(truth, abs=tol)

    def test_bias_shrinks_with_k(self):
        # At fixed n the mixed estimator's systematic error decreases
        # (weakly, over seed-averages) as k grows; check the coarse
        # ordering on an averaged batch to avoid flaking on one draw.
        crossover = 0.1
        truth = 1.0 - _h2(crossover)
        errs = {}
        for k in (4, 16):
            batch = []
            for seed in range(5):
                factory = RngFactory(1000 + seed)
                x, y = _bsc_pairs(2048, crossover, factory)
                batch.append(
                    mixed_mutual_information(
                        x, y, k=k, rng=factory.fresh("j")
                    )
                )
            errs[k] = abs(float(np.mean(batch)) - truth)
        assert errs[16] <= errs[4] + 0.01

    def test_contributions_mean_is_estimate(self):
        factory = RngFactory(7)
        x, y = _bsc_pairs(600, 0.2, factory)
        xi = mixed_mi_contributions(x, y, k=6, rng=factory.fresh("j"))
        mi = mixed_mutual_information(x, y, k=6, rng=factory.fresh("j"))
        assert float(np.mean(xi)) == mi


class TestOracleParity:
    """The fast paths — sorted (1-D) and tree (d > 1) — must match the
    O(n^2) scans bit-for-bit."""

    def test_mixed_matches_reference(self):
        factory = RngFactory(42)
        x, y = _bsc_pairs(700, 0.15, factory)
        fast = mixed_mutual_information(x, y, k=5, rng=factory.fresh("j"))
        slow = mixed_mutual_information_reference(
            x, y, k=5, rng=factory.fresh("j")
        )
        assert fast == slow

    def test_mixed_contributions_match_reference(self):
        factory = RngFactory(43)
        x = factory.fresh("x").integers(0, 3, 500)
        y = x + 0.4 * factory.fresh("n").normal(size=500)
        fast = mixed_mi_contributions(x, y, k=4, rng=factory.fresh("j"))
        slow = mixed_mutual_information_reference(
            x, y, k=4, rng=factory.fresh("j"), return_contributions=True
        )
        assert np.array_equal(fast, slow)

    def test_mixed_2d_outputs_match_reference(self):
        # A two-column output takes the tree path.
        factory = RngFactory(45)
        x = factory.fresh("x").integers(0, 3, 400)
        noise = factory.fresh("n").normal(size=(400, 2))
        y = np.column_stack([x, -x]) + 0.5 * noise
        fast = mixed_mi_contributions(x, y, k=4, rng=factory.fresh("j"))
        slow = mixed_mutual_information_reference(
            x, y, k=4, rng=factory.fresh("j"), return_contributions=True
        )
        assert np.array_equal(fast, slow)

    @given(
        k=st.integers(1, 8),
        extras=st.lists(st.integers(0, 30), min_size=1, max_size=5),
        kind=st.sampled_from(["discrete", "negative", "offset"]),
        offset=st.floats(-1e6, 1e6),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_mixed_1d_matches_reference_on_generated_inputs(
        self, k, extras, kind, offset, seed
    ):
        # Class sizes go down to exactly k + 1; the estimator needs
        # more than k + 1 samples overall, so a lone class gets one more.
        sizes = [k + 1 + e for e in extras]
        if len(sizes) == 1:
            sizes[0] += 1
        rng = np.random.default_rng(seed)
        x = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        if kind == "discrete":  # massive exact ties
            y = rng.integers(-2, 3, x.size).astype(float)
        elif kind == "negative":
            y = -rng.exponential(size=x.size)
        else:  # far from zero, where y +/- r rounds unlike |y - s|
            y = offset + x + rng.normal(size=x.size)
        fast = mixed_mi_contributions(x, y, k=k, rng=RngFactory(seed).fresh("j"))
        slow = mixed_mutual_information_reference(
            x, y, k=k, rng=RngFactory(seed).fresh("j"),
            return_contributions=True,
        )
        assert np.array_equal(fast, slow)


class TestDeterminismAndJitter:
    def test_same_stream_position_is_bit_identical(self):
        factory_a = RngFactory(9)
        factory_b = RngFactory(9)
        x = factory_a.fresh("x").integers(0, 2, 400)
        _ = factory_b.fresh("x").integers(0, 2, 400)
        y = x.astype(float)
        a = mixed_mutual_information(x, y, k=4, rng=factory_a.fresh("j"))
        b = mixed_mutual_information(x, y, k=4, rng=factory_b.fresh("j"))
        assert a == b

    def test_jitter_is_tiny_and_deterministic(self):
        values = np.array([0.0, 1.0, 1.0, 2.0])
        a = tie_break_jitter(values, RngFactory(3).fresh("j"))
        b = tie_break_jitter(values, RngFactory(3).fresh("j"))
        assert np.array_equal(a, b)
        assert np.max(np.abs(a.ravel() - values)) < 1e-9

    def test_discrete_ties_do_not_crash_or_blow_up(self):
        # A fully discrete y with massive tie classes is the exact
        # case the jitter exists for.
        factory = RngFactory(5)
        x = factory.fresh("x").integers(0, 2, 1000)
        mi = mixed_mutual_information(
            x, x.astype(float), k=8, rng=factory.fresh("j")
        )
        assert mi == pytest.approx(1.0, abs=0.05)


class TestValidation:
    def test_empty_inputs_rejected(self):
        rng = RngFactory(1).fresh("j")
        with pytest.raises(ValueError, match="non-empty"):
            mixed_mutual_information(
                np.array([], dtype=int), np.array([]), rng=rng
            )

    def test_non_integer_labels_rejected(self):
        rng = RngFactory(1).fresh("j")
        with pytest.raises(ValueError, match="integer"):
            mixed_mutual_information(
                np.array([0.5, 1.5]), np.array([1.0, 2.0]), rng=rng
            )

    def test_length_mismatch_rejected(self):
        rng = RngFactory(1).fresh("j")
        with pytest.raises(ValueError, match="same number"):
            mixed_mutual_information(
                np.array([0, 1, 0]), np.array([1.0, 2.0]), rng=rng
            )

    def test_small_symbol_class_rejected(self):
        rng = RngFactory(1).fresh("j")
        x = np.array([0] * 50 + [1] * 3)
        y = x.astype(float)
        with pytest.raises(ValueError, match="needs more than k"):
            mixed_mutual_information(x, y, k=8, rng=rng)

    def test_non_finite_samples_rejected(self):
        rng = RngFactory(1).fresh("j")
        x = np.array([0, 1] * 20)
        y = x.astype(float)
        y[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            mixed_mutual_information(x, y, k=2, rng=rng)

    def test_too_few_samples_for_k_rejected(self):
        rng = RngFactory(1).fresh("j")
        with pytest.raises(ValueError, match="need more than"):
            mixed_mutual_information(
                np.array([0, 1] * 2), np.arange(4.0), k=4, rng=rng
            )
