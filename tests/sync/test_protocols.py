"""ProtocolRun records and base-class validation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.events import ChannelParameters
from repro.sync.protocols import ProtocolRun, SynchronizationProtocol


def make_run(**overrides):
    defaults = dict(
        message=np.array([0, 1, 1, 0]),
        delivered=np.array([0, 1, 0, 0]),
        channel_uses=10,
        sender_slots=8,
        deletions=4,
        insertions=2,
        transmissions=4,
        bits_per_symbol=2,
    )
    defaults.update(overrides)
    return ProtocolRun(**defaults)


class TestProtocolRun:
    def test_symbol_errors(self):
        run = make_run()
        assert run.symbol_errors == 1
        assert run.symbol_error_rate == pytest.approx(0.25)

    def test_throughputs(self):
        run = make_run()
        assert run.throughput_per_use == pytest.approx(2 * 4 / 10)
        assert run.information_rate_per_slot(run.bits_per_symbol) == pytest.approx(
            2 * 4 / 8
        )

    def test_information_rate_scaling(self):
        run = make_run()
        assert run.information_rate_per_slot(1.5) == pytest.approx(1.5 * 4 / 8)

    def test_zero_uses(self):
        run = make_run(
            channel_uses=0,
            sender_slots=0,
            deletions=0,
            insertions=0,
            transmissions=0,
            delivered=np.array([], dtype=int),
        )
        assert run.throughput_per_use == 0.0
        assert run.information_rate_per_slot(run.bits_per_symbol) == 0.0
        assert run.information_rate_per_slot(1.0) == 0.0
        assert run.symbol_error_rate == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_run(sender_slots=20)  # more slots than uses
        with pytest.raises(ValueError):
            make_run(channel_uses=-1)


class TestBaseClass:
    class _Dummy(SynchronizationProtocol):
        def run(self, message, rng):  # pragma: no cover
            raise NotImplementedError

    def test_rejects_substitution_noise(self):
        with pytest.raises(ValueError):
            self._Dummy(
                replace(ChannelParameters.from_rates(0.1, 0.1), substitution=0.2)
            )

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            self._Dummy(
                ChannelParameters.from_rates(0.1, 0.1), bits_per_symbol=0
            )

    def test_message_validation(self):
        proto = self._Dummy(
            ChannelParameters.from_rates(0.1, 0.1), bits_per_symbol=2
        )
        with pytest.raises(ValueError):
            proto._validate_message(np.array([0, 4]))
        with pytest.raises(ValueError):
            proto._validate_message(np.zeros((2, 2), dtype=int))
        out = proto._validate_message([0, 3, 1])
        assert out.dtype == np.int64
