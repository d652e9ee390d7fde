"""Network packet-timing covert channel."""

import numpy as np
import pytest

from repro.core.events import ChannelEvent
from repro.network.packet_channel import (
    FlowRecord,
    PacketFlowConfig,
    measured_parameters,
    transmit_flow,
)
from tests.network.packet_channel import decode_gaps


class TestConfig:
    def test_valid(self):
        cfg = PacketFlowConfig([1.0, 2.0], loss_prob=0.1)
        assert cfg.num_symbols == 2

    def test_synchronous_capacity_is_shannon(self):
        cfg = PacketFlowConfig([1.0, 2.0])
        assert cfg.synchronous_capacity() == pytest.approx(0.6942, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketFlowConfig([1.0])
        with pytest.raises(ValueError):
            PacketFlowConfig([2.0, 1.0])
        with pytest.raises(ValueError):
            PacketFlowConfig([1.0, 1.0])
        with pytest.raises(ValueError):
            PacketFlowConfig([1.0, 2.0], loss_prob=1.0)
        with pytest.raises(ValueError):
            PacketFlowConfig([1.0, 2.0], jitter_std=-0.1)


class TestCleanNetwork:
    def test_perfect_transmission(self, rng):
        cfg = PacketFlowConfig([1.0, 2.0])
        msg = rng.integers(0, 2, 2000)
        rec = transmit_flow(msg, cfg, rng)
        assert np.array_equal(rec.decoded, msg)
        assert np.all(rec.events == int(ChannelEvent.TRANSMISSION))


class TestImpairments:
    def test_loss_rate_measured(self, rng):
        cfg = PacketFlowConfig([1.0, 2.0], loss_prob=0.15)
        msg = rng.integers(0, 2, 30_000)
        params = measured_parameters(transmit_flow(msg, cfg, rng))
        assert params.deletion == pytest.approx(0.15, abs=0.01)

    def test_duplication_creates_insertions(self, rng):
        cfg = PacketFlowConfig([1.0, 2.0], duplicate_prob=0.1)
        msg = rng.integers(0, 2, 30_000)
        rec = transmit_flow(msg, cfg, rng)
        params = measured_parameters(rec)
        assert params.insertion == pytest.approx(0.1, abs=0.015)
        # The receiver sees more gaps than symbols sent.
        assert rec.decoded.size > msg.size

    def test_jitter_causes_substitutions_only(self, rng):
        cfg = PacketFlowConfig([1.0, 2.0], jitter_std=0.2)
        msg = rng.integers(0, 2, 20_000)
        params = measured_parameters(transmit_flow(msg, cfg, rng))
        assert params.deletion == 0.0
        assert params.insertion == 0.0
        assert params.substitution > 0.01

    def test_no_jitter_no_substitutions(self, rng):
        cfg = PacketFlowConfig([1.0, 2.0], loss_prob=0.1)
        msg = rng.integers(0, 2, 5000)
        rec = transmit_flow(msg, cfg, rng)
        # Losses merge gaps; merged gaps decode as (long) symbols but
        # deletions themselves are labeled exactly.
        counts = np.bincount(rec.events, minlength=4)
        assert counts[int(ChannelEvent.DELETION)] > 0

    def test_gap_merge_lengthens_observed_gap(self, rng):
        # Force the middle packet lost in a 2-symbol flow.
        cfg = PacketFlowConfig([1.0, 2.0], loss_prob=0.999)
        msg = np.array([0, 0])
        rec = transmit_flow(msg, cfg, np.random.default_rng(3))
        # With both interior/last packets almost surely lost, at most
        # one (merged or empty) gap remains.
        assert rec.decoded.size <= 1


class TestDecodeGaps:
    def test_threshold_decoding(self):
        cfg = PacketFlowConfig([1.0, 2.0])
        out = decode_gaps([0.9, 1.4, 1.6, 5.0], cfg)
        assert list(out) == [0, 0, 1, 1]

    def test_validation(self):
        cfg = PacketFlowConfig([1.0, 2.0])
        with pytest.raises(ValueError):
            decode_gaps([[1.0]], cfg)
        with pytest.raises(ValueError):
            decode_gaps([-1.0], cfg)


class TestMeasurement:
    def test_empty_flow_rejected(self):
        empty = FlowRecord(
            message=np.array([], dtype=int),
            decoded=np.array([], dtype=int),
            events=np.array([], dtype=int),
        )
        with pytest.raises(ValueError):
            measured_parameters(empty)

    def test_estimation_pipeline(self, rng):
        """End to end: flow -> parameters -> corrected capacity."""
        from repro.core.estimation import CapacityEstimator

        cfg = PacketFlowConfig([1.0, 2.0], loss_prob=0.2)
        msg = rng.integers(0, 2, 20_000)
        params = measured_parameters(transmit_flow(msg, cfg, rng))
        naive = cfg.synchronous_capacity()
        report = CapacityEstimator(1, physical_capacity=naive).estimate(params)
        assert report.corrected_physical == pytest.approx(0.8 * naive, rel=0.05)


class TestMeasurementDegeneratePaths:
    """Edge cases the E17 samplers drive through measured_parameters."""

    def _record(self, events):
        events = np.asarray(events, dtype=np.int64)
        return FlowRecord(
            message=np.zeros(events.size, dtype=np.int64),
            decoded=np.array([], dtype=np.int64),
            events=events,
        )

    def test_all_interior_packets_lost(self, rng):
        # Force a flow whose every interior packet is lost: the record
        # is all deletions and the measured parameters are the
        # degenerate-but-valid P_d = 1 corner, not NaN or a crash.
        cfg = PacketFlowConfig([1.0, 2.0], loss_prob=0.999999)
        record = transmit_flow(rng.integers(0, 2, 50), cfg, rng)
        assert record.decoded.size == 0
        params = measured_parameters(record)
        assert params.deletion == 1.0
        assert params.insertion == 0.0
        assert params.substitution == 0.0

    def test_duplicate_of_duplicate_still_counts_insertions(self, rng):
        # With duplicate_prob high, a duplicated packet's copy lands in
        # the same gap as further duplicates: each copy must still be
        # one insertion in the event ledger.
        cfg = PacketFlowConfig([1.0, 2.0], duplicate_prob=0.9)
        msg = rng.integers(0, 2, 2000)
        record = transmit_flow(msg, cfg, rng)
        extra = record.decoded.size - msg.size
        assert extra > 0
        counts = np.bincount(record.events, minlength=4)
        assert counts[int(ChannelEvent.INSERTION)] == extra
        params = measured_parameters(record)
        assert 0.0 < params.insertion < 1.0

    def test_duplicate_of_last_packet_uses_fallback_gap(self):
        # The final packet has no following gap; its duplicate lands a
        # fraction of durations[0] later and must appear as exactly one
        # insertion, not an index error.
        cfg = PacketFlowConfig([1.0, 2.0], duplicate_prob=0.999999)
        rng = np.random.default_rng(0)
        record = transmit_flow(np.array([0]), cfg, rng)
        counts = np.bincount(record.events, minlength=4)
        assert counts[int(ChannelEvent.INSERTION)] >= 1
        params = measured_parameters(record)
        assert params.insertion > 0

    def test_negative_event_code_rejected(self):
        with pytest.raises(ValueError, match="invalid event code -1"):
            measured_parameters(self._record([2, -1, 2]))

    def test_out_of_range_event_code_rejected(self):
        # Codes above 3 used to silently inflate the denominator and
        # deflate every rate; now they are named and rejected.
        with pytest.raises(ValueError, match="invalid event code 7"):
            measured_parameters(self._record([2, 7, 2]))

    def test_non_integer_events_rejected(self):
        record = FlowRecord(
            message=np.array([0]),
            decoded=np.array([], dtype=np.int64),
            events=np.array([2.0, 0.5]),
        )
        with pytest.raises(ValueError, match="integer"):
            measured_parameters(record)

    def test_empty_flow_message_names_the_problem(self):
        record = self._record([])
        with pytest.raises(ValueError, match="no channel events"):
            measured_parameters(record)
