"""Traditional (synchronous-model) covert-channel capacity estimators.

Millen's finite-state noiseless channels and the timed DMC (a discrete
memoryless channel whose inputs take unequal time, of which the
Moskowitz-Greenwald-Kang timed Z-channel is a special case) — the
prior-work estimators whose outputs the paper's ``(1 - P_d)`` correction
adjusts for non-synchronous effects.
"""

from .fsm import FiniteStateChannel, Transition, fsm_capacity
from .timed_dmc import TimedDMCResult, timed_dmc_capacity

__all__ = [
    "FiniteStateChannel",
    "Transition",
    "fsm_capacity",
    "TimedDMCResult",
    "timed_dmc_capacity",
]
