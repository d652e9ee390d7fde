"""Fault injection for non-synchronous covert channels.

The paper's capacity results assume i.i.d. channel events and a perfect
feedback path. This package systematically breaks those assumptions —
bursty Gilbert-Elliott loss, slow parameter drift, and counter
desynchronization — so the counter protocol and the bounds can be
measured where the theory's hypotheses fail. Lossy acknowledgments are
measured separately, by :class:`repro.sync.AlternatingBitProtocol` and
:class:`repro.sync.BlockAckProtocol` in experiment E10. See
``docs/api.md`` ("Fault injection & resilience") for a tour and
:mod:`repro.experiments.e15_fault_resilience` for the sweep.
"""

from .injector import (
    FaultedMeasurement,
    FaultInjector,
    FaultLog,
    run_under_faults,
)
from .models import (
    DriftingParameterModel,
    EventStreamModel,
    GilbertElliottModel,
    IIDEventModel,
)
from .process import in_worker_process, kill_current_worker
from .scenarios import (
    SCENARIOS,
    FaultScenario,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from .service_faults import (
    SERVICE_SCENARIOS,
    ServiceFaultPlan,
    TransientWorkerError,
    apply_worker_faults,
    get_service_scenario,
)

__all__ = [
    "DriftingParameterModel",
    "EventStreamModel",
    "GilbertElliottModel",
    "IIDEventModel",
    "FaultLog",
    "FaultInjector",
    "FaultedMeasurement",
    "run_under_faults",
    "FaultScenario",
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "in_worker_process",
    "kill_current_worker",
    "TransientWorkerError",
    "ServiceFaultPlan",
    "SERVICE_SCENARIOS",
    "get_service_scenario",
    "apply_worker_faults",
]
