"""A metric-dict wrapper with no caller in the package, kept for its test."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.os_model.measurement import run_oblivious_channel
from repro.os_model.scheduler import Scheduler


def measure_scheduler(
    scheduler: Scheduler,
    rng: np.random.Generator,
    **kwargs,
) -> Dict[str, float]:
    """Flat metric dict for the experiment runner (E7)."""
    m = run_oblivious_channel(scheduler, rng, **kwargs)
    return {
        "deletion": m.params.deletion,
        "insertion": m.params.insertion,
        "corrected_capacity": m.report.corrected_capacity,
        "corrected_per_quantum": (
            m.report.corrected_capacity * m.events.size / m.quanta
        ),
        "achievable_per_quantum": m.achievable_per_quantum,
        "degradation": m.report.degradation,
    }
