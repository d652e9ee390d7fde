"""Golden regression values.

Frozen numeric outputs of the deterministic computations: any change to
these values means a formula changed, intentionally or not. Values were
produced by the initial validated implementation (cross-checked against
Blahut-Arimoto and Monte-Carlo simulation; see EXPERIMENTS.md).
"""

import numpy as np
import pytest

from repro.bounds.deletion import (
    block_bound_sweep,
    deletion_block_transition_stack,
    gallager_lower_bound,
)
from repro.bounds.markov_input import optimize_markov_input_sweep
from repro.core.capacity import (
    converted_capacity,
    convergence_ratio,
    erasure_upper_bound,
    feedback_lower_bound,
    feedback_lower_bound_exact,
)
from repro.infotheory.channels import z_channel_capacity
from repro.infotheory.entropy import mutual_information
from repro.infotheory.kernels import blahut_arimoto_batch
from repro.infotheory.noiseless import noiseless_capacity_per_second
from tests.core.noisy import noisy_feedback_lower_bound
from tests.timing.timed_z import timed_z_capacity


GOLDEN = [
    # (description, value_fn, expected)
    ("erasure UB N=4 pd=.1", lambda: erasure_upper_bound(4, 0.1), 3.6),
    (
        "C_conv N=3 pi=.1",
        lambda: converted_capacity(3, 0.1),
        2.326286815091,
    ),
    (
        "paper LB N=4 pd=pi=.1",
        lambda: feedback_lower_bound(4, 0.1, 0.1),
        3.184864517939,
    ),
    (
        "exact LB N=4 pd=pi=.1",
        lambda: feedback_lower_bound_exact(4, 0.1, 0.1),
        3.110966081541,
    ),
    (
        "noisy LB N=3 pd=pi=.1 ps=.05",
        lambda: noisy_feedback_lower_bound(3, 0.1, 0.1, 0.05),
        2.013704312109,
    ),
    (
        "convergence ratio N=8 p=.1",
        lambda: convergence_ratio(8, 0.1),
        0.935546018527,
    ),
    ("Gallager LB pd=.1", lambda: gallager_lower_bound(0.1), 0.531004406410),
    (
        "telegraph capacity {1,2}",
        lambda: noiseless_capacity_per_second([1, 2]),
        0.694241913631,
    ),
    (
        "STC {1,2,3}",
        lambda: noiseless_capacity_per_second([1, 2, 3]),
        0.879146421607,
    ),
    (
        "Z-channel p=.3",
        lambda: z_channel_capacity(0.3),
        0.503691933485,
    ),
    (
        "timed Z t0=1 t1=2 p=.2",
        lambda: timed_z_capacity(1.0, 2.0, 0.2),
        0.470925051116,
    ),
]


@pytest.mark.parametrize(
    "description,value_fn,expected", GOLDEN, ids=[g[0] for g in GOLDEN]
)
def test_golden_value(description, value_fn, expected):
    assert value_fn() == pytest.approx(expected, abs=1e-9)


class TestGoldenBlockBounds:
    """Heavier deterministic computations, looser freeze tolerance."""

    def test_block8_deletion_info(self):
        [b] = block_bound_sweep([0.2], block_length=8)
        stack, _groups = deletion_block_transition_stack(8, [0.2])
        uniform = np.full(stack.shape[1], 1.0 / stack.shape[1])
        [capacity] = blahut_arimoto_batch(stack, tol=1e-9).capacity
        assert capacity == pytest.approx(4.52990915, abs=1e-6)
        assert mutual_information(uniform, stack[0]) == pytest.approx(
            4.33610051, abs=1e-6
        )
        assert b.lower_bound == pytest.approx(
            (4.52990915 - np.log2(9)) / 8, abs=1e-6
        )

    def test_markov_block8(self):
        [b] = optimize_markov_input_sweep(8, [0.3])
        assert b.block_information == pytest.approx(3.4634, abs=2e-3)
        assert b.best_flip_prob == pytest.approx(0.297, abs=0.01)
