"""Log-domain primitives: flooring, domain validation, stable reductions."""

import numpy as np
import pytest

from repro.numerics import (
    LOG_FLOOR,
    masked_log2,
    normalized_exp2,
    safe_log,
    safe_log2,
)
from tests.numerics.safeops import logsumexp2, normalized_exp


class TestSafeLog:
    def test_positive_values_pass_through(self):
        x = np.array([0.5, 1.0, 2.0])
        assert np.allclose(safe_log(x), np.log(x))
        assert np.allclose(safe_log2(x), np.log2(x))

    def test_zero_maps_to_log_of_floor(self):
        assert safe_log(0.0) == pytest.approx(np.log(LOG_FLOOR))
        assert safe_log2(0.0) == pytest.approx(np.log2(LOG_FLOOR))
        assert np.isfinite(safe_log(0.0))
        assert np.isfinite(safe_log2(0.0))

    def test_custom_floor(self):
        assert safe_log(0.0, floor=1e-12) == pytest.approx(np.log(1e-12))

    def test_shape_preserved(self):
        x = np.zeros((3, 4))
        assert safe_log(x).shape == (3, 4)
        assert safe_log2(x).shape == (3, 4)

    def test_negative_input_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            safe_log(-0.1)
        with pytest.raises(ValueError, match="non-negative"):
            safe_log2(np.array([0.5, -1e-9]))

    def test_non_positive_floor_raises(self):
        with pytest.raises(ValueError, match="floor must be positive"):
            safe_log(0.5, floor=0.0)

    def test_underflowed_probability_stays_finite(self):
        # The motivating case: a 5e-324 subnormal forward-backward mass.
        assert np.isfinite(safe_log(5e-324))
        assert np.isfinite(safe_log2(5e-324))


class TestMaskedLog2:
    def test_positive_entries_get_plain_log2(self):
        x = np.array([0.25, 0.5, 1.0, 2.0])
        assert np.array_equal(masked_log2(x), np.log2(x))

    def test_zero_entries_are_exactly_zero(self):
        out = masked_log2(np.array([0.0, 0.5, 0.0]))
        assert out[0] == 0.0 and out[2] == 0.0
        assert out[1] == np.log2(0.5)

    def test_matches_the_idiom_it_replaces(self):
        # The shared helper must be bitwise what every call site used
        # to spell as np.where(w > 0, safe_log2(w), 0.0).
        rng = np.random.default_rng(7)
        w = rng.random((5, 8))
        w[w < 0.3] = 0.0
        assert np.array_equal(
            masked_log2(w), np.where(w > 0, safe_log2(w), 0.0)
        )

    def test_subnormal_entries_stay_finite(self):
        # A 5e-324 subnormal is > 0, so it is logged — through the
        # floor, keeping the result finite instead of -inf.
        out = masked_log2(np.array([5e-324, 0.0]))
        assert np.isfinite(out[0])
        assert out[0] == np.log2(LOG_FLOOR)
        assert out[1] == 0.0

    def test_negative_input_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            masked_log2(np.array([0.5, -1e-9]))

    def test_shape_preserved(self):
        assert masked_log2(np.zeros((3, 4))).shape == (3, 4)


class TestLogSumExp2:
    def test_matches_reference_on_moderate_values(self):
        a = np.array([-3.0, -1.0, 0.5, 2.0])
        assert logsumexp2(a) == pytest.approx(np.log2(np.sum(np.exp2(a))))

    def test_no_overflow_on_large_logits(self):
        assert logsumexp2(np.array([1000.0, 1000.0])) == pytest.approx(1001.0)

    def test_mixed_neg_inf_entries_ignored(self):
        a = np.array([-np.inf, 0.0, 1.0])
        assert logsumexp2(a) == pytest.approx(np.log2(1.0 + 2.0))

    def test_all_neg_inf_returns_neg_inf(self):
        assert logsumexp2(np.array([-np.inf, -np.inf])) == -np.inf

    def test_axis_reduction(self):
        a = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
        out = logsumexp2(a, axis=1)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(np.log2(3.0))
        assert out[1] == -np.inf

    def test_scalar_return_for_full_reduction(self):
        assert isinstance(logsumexp2([0.0, 0.0]), float)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            logsumexp2(np.array([]))


class TestNormalizedExp:
    def test_matches_reference_softmax(self):
        logits = np.array([-1.0, 0.0, 2.5])
        expected2 = np.exp2(logits) / np.exp2(logits).sum()
        expected_e = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(normalized_exp2(logits), expected2)
        assert np.allclose(normalized_exp(logits), expected_e)

    def test_sums_to_one_under_extreme_logits(self):
        logits = np.array([0.0, -2000.0, 3000.0])
        for fn in (normalized_exp2, normalized_exp):
            p = fn(logits)
            assert np.all(np.isfinite(p))
            assert p.sum() == pytest.approx(1.0)
            assert p[2] == pytest.approx(1.0)

    def test_all_neg_inf_degrades_to_uniform(self):
        p = normalized_exp2(np.array([-np.inf, -np.inf, -np.inf]))
        assert np.allclose(p, 1.0 / 3.0)
        p = normalized_exp(np.array([-np.inf, -np.inf]))
        assert np.allclose(p, 0.5)

    def test_axis_handling(self):
        logits = np.array([[0.0, 0.0], [-np.inf, -np.inf]])
        p = normalized_exp2(logits, axis=1)
        assert np.allclose(p, 0.5)
        p0 = normalized_exp2(np.array([[0.0], [1.0]]), axis=0)
        assert p0.sum() == pytest.approx(1.0)
