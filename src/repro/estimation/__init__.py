"""Sample-based capacity estimation (Kraskov kNN mutual information).

The matrix-based estimators (`repro.infotheory`, `repro.timing`) need
an enumerable channel; this package prices channels we can only *draw
from*. :mod:`repro.estimation.knn` hosts the KSG mutual-information
estimators (continuous KSG1 and the discrete/continuous mixed variant)
on ``scipy.spatial.cKDTree``, or on sorted arrays for 1-D outputs, with
deterministic tie-breaking jitter;
:mod:`repro.estimation.samplers` adapts the repository's channel
models to the :class:`ChannelSampler` draw protocol; and
:mod:`repro.estimation.optimize` maximizes the estimated MI over input
distributions — projected stochastic gradient on the simplex under an
:class:`repro.numerics.IterationGuard` — to produce capacity numbers
for channels Blahut–Arimoto cannot touch (experiment E17).

All ``cKDTree`` usage in the repository lives inside this package
(lint rule EST001), so every kNN query flows through the guarded,
cached entry points.
"""

from .knn import (
    mixed_mi_contributions,
    mixed_mutual_information,
    tie_break_jitter,
)
from .optimize import (
    SampleCapacityResult,
    estimate_sample_capacity,
    project_to_simplex,
)
from .samplers import (
    ChannelSampler,
    DMCSampler,
    SchedulerTimingSampler,
    bsc_sampler,
    mary_sampler,
)

__all__ = [
    "mixed_mi_contributions",
    "mixed_mutual_information",
    "tie_break_jitter",
    "SampleCapacityResult",
    "estimate_sample_capacity",
    "project_to_simplex",
    "ChannelSampler",
    "DMCSampler",
    "SchedulerTimingSampler",
    "bsc_sampler",
    "mary_sampler",
]
