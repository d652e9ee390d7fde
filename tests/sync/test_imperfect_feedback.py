"""Alternating-bit protocol over lossy feedback (extension E10)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import ChannelParameters
from repro.sync.imperfect_feedback import (
    AlternatingBitProtocol,
    lossy_feedback_capacity,
)


class TestClosedForm:
    def test_reduces_to_theorem3(self):
        assert lossy_feedback_capacity(3, 0.2, 0.0) == pytest.approx(3 * 0.8)

    def test_multiplicative_penalty(self):
        base = lossy_feedback_capacity(2, 0.1, 0.0)
        assert lossy_feedback_capacity(2, 0.1, 0.25) == pytest.approx(0.75 * base)

    def test_validation(self):
        with pytest.raises(ValueError):
            lossy_feedback_capacity(0, 0.1, 0.1)
        with pytest.raises(ValueError):
            lossy_feedback_capacity(1, 1.5, 0.1)
        with pytest.raises(ValueError):
            lossy_feedback_capacity(1, 0.1, -0.2)


class TestBoundaries:
    """Exact behaviour at the edges of the ack-loss parameter ``q``."""

    def test_q_zero_recovers_erasure_bound_exactly(self):
        from repro.core.capacity import erasure_upper_bound

        for n in (1, 2, 4, 8):
            for pd in (0.0, 0.1, 0.37, 0.9, 1.0):
                assert lossy_feedback_capacity(n, pd, 0.0) == erasure_upper_bound(
                    n, pd
                )

    def test_q_to_one_drives_rate_to_zero(self):
        rates = [lossy_feedback_capacity(4, 0.1, q) for q in (0.9, 0.99, 0.999)]
        assert rates == sorted(rates, reverse=True)
        assert rates[-1] < 0.004
        assert lossy_feedback_capacity(4, 0.1, 1.0) == 0.0

    def test_invalid_q_raises(self):
        for q in (-1e-9, -0.5, 1.0 + 1e-9, 2.0):
            with pytest.raises(ValueError):
                lossy_feedback_capacity(2, 0.1, q)

    def test_protocol_rate_collapses_as_q_approaches_one(self, rng):
        proto = AlternatingBitProtocol(
            ChannelParameters.from_rates(0.1, 0.0), ack_loss_prob=0.98
        )
        run = proto.run(rng.integers(0, 2, 300), rng)
        assert run.throughput_per_use == pytest.approx(
            lossy_feedback_capacity(1, 0.1, 0.98), rel=0.35
        )
        assert run.throughput_per_use < 0.05


class TestProtocol:
    def test_rejects_insertions(self):
        with pytest.raises(ValueError):
            AlternatingBitProtocol(ChannelParameters.from_rates(0.1, 0.1))

    def test_rejects_ack_loss_one(self):
        with pytest.raises(ValueError):
            AlternatingBitProtocol(
                ChannelParameters.from_rates(0.1, 0.0), ack_loss_prob=1.0
            )

    def test_lossless_delivery(self, rng):
        proto = AlternatingBitProtocol(
            ChannelParameters.from_rates(0.3, 0.0),
            bits_per_symbol=2,
            ack_loss_prob=0.3,
        )
        msg = rng.integers(0, 4, 3000)
        run = proto.run(msg, rng)
        assert np.array_equal(run.delivered, msg)
        assert run.symbol_errors == 0

    def test_rate_matches_closed_form(self, rng):
        for pd, q in [(0.0, 0.0), (0.2, 0.0), (0.0, 0.2), (0.3, 0.4)]:
            proto = AlternatingBitProtocol(
                ChannelParameters.from_rates(pd, 0.0),
                bits_per_symbol=2,
                ack_loss_prob=q,
            )
            msg = rng.integers(0, 4, 60_000)
            run = proto.run(msg, rng)
            assert run.throughput_per_use == pytest.approx(
                lossy_feedback_capacity(2, pd, q), rel=0.03
            )

    def test_perfect_case_matches_resend(self, rng):
        """At q = 0 the protocol is exactly the Theorem-3 resend."""
        from repro.sync.feedback import ResendProtocol

        params = ChannelParameters.from_rates(0.25, 0.0)
        msg = rng.integers(0, 2, 80_000)
        alt = AlternatingBitProtocol(params, ack_loss_prob=0.0)
        res = ResendProtocol(params)
        r1 = alt.run(msg, np.random.default_rng(5))
        r2 = res.run(msg, np.random.default_rng(6))
        assert r1.throughput_per_use == pytest.approx(
            r2.throughput_per_use, rel=0.03
        )

    def test_event_accounting(self, rng):
        proto = AlternatingBitProtocol(
            ChannelParameters.from_rates(0.2, 0.0), ack_loss_prob=0.2
        )
        run = proto.run(rng.integers(0, 2, 10_000), rng)
        assert run.channel_uses == run.deletions + run.transmissions
        assert run.transmissions >= run.symbols_delivered  # duplicates

    @given(
        st.floats(min_value=0.0, max_value=0.6),
        st.floats(min_value=0.0, max_value=0.6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_rate_never_exceeds_theorem3(self, pd, q, seed):
        rng = np.random.default_rng(seed)
        proto = AlternatingBitProtocol(
            ChannelParameters.from_rates(pd, 0.0), ack_loss_prob=q
        )
        run = proto.run(rng.integers(0, 2, 20_000), rng)
        assert run.throughput_per_use <= (1 - pd) * 1.05  # MC slack


class TestBlockAck:
    from repro.sync.imperfect_feedback import BlockAckProtocol
    from tests.sync.imperfect_feedback import block_ack_rate

    def test_rejects_bad_params(self):
        from repro.sync.imperfect_feedback import BlockAckProtocol

        with pytest.raises(ValueError):
            BlockAckProtocol(ChannelParameters.from_rates(0.1, 0.1))
        with pytest.raises(ValueError):
            BlockAckProtocol(
                ChannelParameters.from_rates(0.1, 0.0), block_size=0
            )
        with pytest.raises(ValueError):
            BlockAckProtocol(
                ChannelParameters.from_rates(0.1, 0.0), ack_loss_prob=1.0
            )

    def test_lossless_delivery(self, rng):
        from repro.sync.imperfect_feedback import BlockAckProtocol

        proto = BlockAckProtocol(
            ChannelParameters.from_rates(0.3, 0.0),
            bits_per_symbol=2,
            ack_loss_prob=0.3,
            block_size=16,
        )
        msg = rng.integers(0, 4, 5000)
        run = proto.run(msg, rng)
        assert np.array_equal(run.delivered, msg)
        assert run.symbol_errors == 0

    def test_amortizes_ack_loss(self, rng):
        """Large windows recover (nearly) the Theorem-3 rate despite a
        heavily lossy feedback path — unlike the alternating bit."""
        from repro.sync.imperfect_feedback import (
            AlternatingBitProtocol,
            BlockAckProtocol,
        )

        params = ChannelParameters.from_rates(0.2, 0.0)
        msg = rng.integers(0, 2, 60_000)
        alt = AlternatingBitProtocol(params, ack_loss_prob=0.3)
        blk = BlockAckProtocol(params, ack_loss_prob=0.3, block_size=64)
        r_alt = alt.run(msg, np.random.default_rng(1)).throughput_per_use
        r_blk = blk.run(msg, np.random.default_rng(2)).throughput_per_use
        assert r_blk > r_alt * 1.2
        assert r_blk == pytest.approx(0.8, abs=0.02)  # Theorem 3 ceiling

    def test_rate_improves_with_block_size(self, rng):
        from repro.sync.imperfect_feedback import BlockAckProtocol

        params = ChannelParameters.from_rates(0.2, 0.0)
        msg = rng.integers(0, 2, 40_000)
        rates = []
        for b in (1, 8, 64):
            proto = BlockAckProtocol(params, ack_loss_prob=0.4, block_size=b)
            rates.append(proto.run(msg, np.random.default_rng(b)).throughput_per_use)
        assert rates[0] < rates[1] < rates[2] + 0.02

    def test_closed_form_monotone(self):
        from tests.sync.imperfect_feedback import block_ack_rate

        vals = [block_ack_rate(1, 0.2, 0.4, b) for b in (1, 4, 16, 64)]
        assert vals == sorted(vals)
        assert vals[-1] == pytest.approx(0.8, abs=0.02)
        with pytest.raises(ValueError):
            block_ack_rate(1, 0.2, 0.4, 0)
