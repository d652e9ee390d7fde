"""Symbol-width design helpers."""

import pytest

from repro.core.capacity import feedback_lower_bound_exact
from repro.core.design import (
    optimal_symbol_width,
    symbol_time,
    width_sweep,
)


class TestSymbolTime:
    def test_serial_linear(self):
        assert symbol_time(4, cost_model="serial") == 4.0

    def test_timing_exponential(self):
        assert symbol_time(3, cost_model="timing") == pytest.approx(4.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            symbol_time(0)
        with pytest.raises(ValueError):
            symbol_time(3, cost_model="quantum")


class TestRates:
    def test_serial_monotone_increasing(self):
        sweep = width_sweep(0.1, 0.1, max_bits=10, cost_model="serial")
        rates = [d.rate_per_time for d in sweep]
        assert rates == sorted(rates)

    def test_serial_saturates_at_coefficient(self):
        # Limit: ((1-Pd)/(1-Pi)) (1 - q) / t with q = Pi/(1-Pd).
        pd, pi = 0.1, 0.1
        q = pi / (1 - pd)
        limit = (1 - pd) / (1 - pi) * (1 - q)
        sweep = width_sweep(pd, pi, max_bits=16, cost_model="serial")
        assert sweep[-1].rate_per_time == pytest.approx(limit, abs=0.05)
        assert sweep[-1].rate_per_time < limit

    def test_timing_has_interior_optimum(self):
        best = optimal_symbol_width(0.1, 0.05, max_bits=10, cost_model="timing")
        assert 1 <= best.bits_per_symbol <= 4
        sweep = width_sweep(0.1, 0.05, max_bits=10, cost_model="timing")
        # The curve decreases after the optimum.
        assert sweep[-1].rate_per_time < best.rate_per_time

    def test_rate_function_matches_sweep(self):
        r = feedback_lower_bound_exact(3, 0.1, 0.05) / symbol_time(
            3, cost_model="timing"
        )
        sweep = width_sweep(0.1, 0.05, max_bits=3, cost_model="timing")
        assert r == pytest.approx(sweep[-1].rate_per_time)

    def test_validation(self):
        with pytest.raises(ValueError):
            width_sweep(0.1, 0.1, max_bits=0)
