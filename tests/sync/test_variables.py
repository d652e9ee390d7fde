"""Figure-1 two-variable handshake."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.sync.variables import HandshakeSimulator, SyncVariable


class TestSyncVariable:
    def test_toggle(self):
        v = SyncVariable()
        assert v.value == 0
        assert v.toggle() == 1
        assert v.toggle() == 0
        assert v.writes == 2

    def test_read_counts(self):
        v = SyncVariable(1)
        assert v.read() == 1
        assert v.reads == 1

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError):
            SyncVariable(2)


class TestHandshake:
    def test_lossless_in_order_delivery(self, rng):
        msg = rng.integers(0, 2, 4000)
        result = HandshakeSimulator(0.5).run(msg, rng)
        assert np.array_equal(result.delivered, msg)

    def test_never_duplicates(self, rng):
        # A message of distinct symbols: duplicates would be visible.
        msg = np.arange(1000) % 2
        result = HandshakeSimulator(0.5).run(msg, rng)
        assert len(result.delivered) == 1000

    def test_wasted_fraction_near_half_for_fair_schedule(self, rng):
        msg = rng.integers(0, 2, 20_000)
        result = HandshakeSimulator(0.5).run(msg, rng)
        # Each symbol needs one send + one receive; with random
        # alternation about half the opportunities are wasted waiting.
        assert result.wasted_fraction == pytest.approx(0.5, abs=0.02)
        assert result.symbols_per_op(1) == pytest.approx(0.25, abs=0.01)

    def test_biased_schedule_wastes_more(self, rng):
        msg = rng.integers(0, 2, 10_000)
        fair = HandshakeSimulator(0.5).run(msg, np.random.default_rng(1))
        biased = HandshakeSimulator(0.9).run(msg, np.random.default_rng(1))
        assert biased.wasted_fraction > fair.wasted_fraction

    def test_ops_accounting(self, rng):
        msg = rng.integers(0, 2, 500)
        result = HandshakeSimulator(0.5).run(msg, rng)
        assert result.total_ops == result.sender_ops + result.receiver_ops
        assert result.useful_ops == 2 * len(result.delivered)

    def test_max_ops_truncation(self, rng):
        msg = rng.integers(0, 2, 100_000)
        result = HandshakeSimulator(0.5).run(msg, rng, max_ops=1000)
        assert result.total_ops <= 1000
        assert len(result.delivered) < 100_000

    def test_rejects_bad_sender_prob(self):
        with pytest.raises(ValueError):
            HandshakeSimulator(0.0)
        with pytest.raises(ValueError):
            HandshakeSimulator(1.0)

    def test_empty_message(self, rng):
        result = HandshakeSimulator(0.5).run(np.array([], dtype=int), rng)
        assert len(result.delivered) == 0
        assert result.wasted_fraction == 0.0

    @given(
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_no_loss_no_reorder(self, sender_prob, seed):
        rng = np.random.default_rng(seed)
        msg = rng.integers(0, 2, 300)
        result = HandshakeSimulator(sender_prob).run(msg, rng)
        got = result.delivered
        assert np.array_equal(got, msg[: got.size])
