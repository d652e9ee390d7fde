"""Every protocol run ends: it returns a record or raises ``ValueError``.

Each loop advances only on a delivery, so a channel that deletes every
send would spin forever. Each case runs under an in-process
``signal.alarm``, which starts no extra process or thread, and a case
that outlives it fails with ``TimeoutError``.

Rates just below 1 are left out on purpose. P_d = 1 − 1e-12 lies
within ``PROB_ATOL`` of 1 and is refused like P_d = 1, but 1 − 1e-9 is
accepted, and the per-event counter loop needs about 1e9 channel uses
per symbol there.
"""

import inspect
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.events import ChannelParameters
from repro.faults.injector import FaultInjector, run_under_faults
from repro.faults.models import DriftingParameterModel
from repro.sync import SynchronizationProtocol

#: Seconds a single case may take before it counts as a hang.
DEADLINE_SECONDS = 10

MESSAGE = np.arange(16) % 2


def _protocol_classes():
    """Every concrete protocol class the package defines."""
    found, todo = [], list(SynchronizationProtocol.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.") and not inspect.isabstract(cls):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


@contextmanager
def _deadline(seconds):
    def on_alarm(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_every_protocol_class_is_covered():
    names = {cls.__name__ for cls in _protocol_classes()}
    assert {
        "AlternatingBitProtocol",
        "BlockAckProtocol",
        "CounterProtocol",
        "ResendProtocol",
    } <= names


@pytest.mark.parametrize("pd", [0.0, 0.5, 0.999, 1.0])
@pytest.mark.parametrize("cls", _protocol_classes(), ids=lambda cls: cls.__name__)
def test_run_returns_or_raises(cls, pd):
    protocol = cls(ChannelParameters.from_rates(pd, 0.0))
    with _deadline(DEADLINE_SECONDS):
        try:
            run = protocol.run(MESSAGE, np.random.default_rng(0))
        except ValueError as exc:
            assert pd == 1.0, exc
            return
    assert pd < 1.0
    assert run.symbols_delivered == MESSAGE.size


def test_injector_drifting_to_certain_deletion():
    """A one-use ramp reaches P_d = 1 before the second symbol."""
    params = ChannelParameters.from_rates(0.1, 0.0)
    with _deadline(DEADLINE_SECONDS):
        with pytest.raises(ValueError, match="never delivers"):
            model = DriftingParameterModel(
                params, ChannelParameters.from_rates(1.0, 0.0), ramp_uses=1
            )
            run_under_faults(
                params,
                MESSAGE,
                np.random.default_rng(0),
                FaultInjector(model),
                bits_per_symbol=1,
            )
