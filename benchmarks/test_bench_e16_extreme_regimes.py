"""Benchmark E16 — extension experiment: extreme-regime stress sweep of
the guarded numerics layer (see ``repro.numerics``).

Besides regenerating the E16 table, this file pins the nominal-path
cost of guarding: the Blahut-Arimoto iteration counts on well-behaved
channels are pinned exactly, and none may exceed the pre-guard
implementation's, so neither the guard nor the safeguarded step adds
iterations where nothing goes wrong.
"""

import numpy as np

from repro.experiments.e16_extreme_regimes import run
from repro.infotheory import (
    binary_symmetric_channel,
    blahut_arimoto,
    m_ary_symmetric_channel,
    z_channel,
)

# ``(channel, iterations, pre-guard iterations)`` at tol=1e-10 from the
# uniform start: the count of the safeguarded over-relaxed step, and
# the one recorded on the unguarded plain-step implementation.
_NOMINAL_ITERATIONS = (
    (binary_symmetric_channel(0.1), 1, 1),
    (z_channel(0.3), 17, 26),
    (m_ary_symmetric_channel(4, 0.15), 1, 1),
)


def test_bench_e16(benchmark, report):
    report(benchmark, run)


def test_guarding_adds_no_nominal_iterations():
    """Nominal solves converge on their pinned iteration, never later
    than the pre-guard one."""
    for channel, expected, pre_guard in _NOMINAL_ITERATIONS:
        result = blahut_arimoto(channel.transition_matrix, tol=1e-10)
        assert result.converged
        assert result.status.ok
        assert result.iterations == expected
        assert result.iterations <= pre_guard
        assert np.isfinite(result.capacity)
