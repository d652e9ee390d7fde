"""Deletion-insertion channel simulators (Definition 1 / Figure 2)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capacity import erasure_upper_bound
from repro.core.channels import (
    ERASURE,
    DeletionInsertionChannel,
)
from repro.core.events import ChannelEvent, ChannelParameters


def _count(rec, *events):
    """How many channel uses in ``rec`` were one of ``events``."""
    return int(np.isin(rec.events, events).sum())


def _deletions(rec):
    return _count(rec, ChannelEvent.DELETION)


def _insertions(rec):
    return _count(rec, ChannelEvent.INSERTION)


def _transmissions(rec):
    return _count(rec, ChannelEvent.TRANSMISSION, ChannelEvent.SUBSTITUTION)


def _consumed(rec):
    """Input symbols the channel consumed: deleted or transmitted."""
    return _deletions(rec) + _transmissions(rec)


class TestDeletionInsertionChannel:
    def test_noiseless_synchronous_identity(self, rng):
        chan = DeletionInsertionChannel(
            ChannelParameters.from_rates(0.0, 0.0), bits_per_symbol=3
        )
        msg = rng.integers(0, 8, 500)
        rec = chan.transmit(msg, rng)
        assert np.array_equal(rec.received, msg)
        assert rec.num_uses == 500
        assert _consumed(rec) == 500

    def test_event_statistics(self, rng):
        params = ChannelParameters.from_rates(0.2, 0.1)
        chan = DeletionInsertionChannel(params, bits_per_symbol=1)
        rec = chan.transmit(rng.integers(0, 2, 30_000), rng)
        total = rec.num_uses
        assert _deletions(rec) / total == pytest.approx(0.2, abs=0.01)
        assert _insertions(rec) / total == pytest.approx(0.1, abs=0.01)

    def test_received_length_conservation(self, rng):
        params = ChannelParameters.from_rates(0.15, 0.25)
        chan = DeletionInsertionChannel(params, bits_per_symbol=2)
        rec = chan.transmit(rng.integers(0, 4, 5000), rng)
        assert len(rec.received) == _insertions(rec) + _transmissions(rec)
        assert _deletions(rec) + _transmissions(rec) == 5000  # all consumed

    def test_substitution_errors(self, rng):
        params = replace(ChannelParameters.from_rates(0.0, 0.0), substitution=0.3)
        chan = DeletionInsertionChannel(params, bits_per_symbol=4)
        msg = rng.integers(0, 16, 20_000)
        rec = chan.transmit(msg, rng)
        errors = (rec.received != msg).mean()
        assert errors == pytest.approx(0.3, abs=0.02)
        # Substituted symbols are never equal to the original.
        sub_mask = rec.events == ChannelEvent.SUBSTITUTION
        assert np.all(rec.received[sub_mask] != msg[sub_mask])

    def test_rejects_out_of_alphabet(self, rng):
        chan = DeletionInsertionChannel(ChannelParameters.from_rates(0.1, 0.1))
        with pytest.raises(ValueError):
            chan.transmit(np.array([0, 1, 2]), rng)

    def test_rejects_2d_input(self, rng):
        chan = DeletionInsertionChannel(ChannelParameters.from_rates(0.1, 0.1))
        with pytest.raises(ValueError):
            chan.transmit(np.zeros((2, 2), dtype=int), rng)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            DeletionInsertionChannel(
                ChannelParameters.from_rates(0.1, 0.1), bits_per_symbol=0
            )

    def test_never_consuming_channel_needs_max_uses(self, rng):
        params = ChannelParameters.from_rates(0.0, 1.0)
        chan = DeletionInsertionChannel(params)
        with pytest.raises(ValueError, match="never consumes"):
            chan.transmit(np.array([0, 1]), rng)

    @given(
        st.floats(min_value=0.0, max_value=0.6),
        st.floats(min_value=0.0, max_value=0.39),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_transmitted_subsequence_property(self, pd, pi, seed):
        """With no substitutions, the transmitted (non-inserted) symbols
        form a subsequence of the message, in order."""
        rng = np.random.default_rng(seed)
        chan = DeletionInsertionChannel(
            ChannelParameters.from_rates(pd, pi), bits_per_symbol=2
        )
        msg = rng.integers(0, 4, 200)
        rec = chan.transmit(msg, rng)
        # Rebuild the transmitted positions from the event stream.
        out = []
        qpos = 0
        for ev in rec.events:
            if ev == ChannelEvent.DELETION:
                qpos += 1
            elif ev in (ChannelEvent.TRANSMISSION, ChannelEvent.SUBSTITUTION):
                out.append(msg[qpos])
                qpos += 1
        received_trans = [
            s
            for s, ev in zip(
                rec.received,
                [e for e in rec.events if e != ChannelEvent.DELETION],
            )
            if ev != ChannelEvent.INSERTION
        ]
        assert received_trans == out


class TestSpecializations:
    def test_deletion_channel_no_insertions(self, rng):
        chan = DeletionInsertionChannel(
            ChannelParameters.from_rates(deletion=0.3, insertion=0.0),
            bits_per_symbol=2,
        )
        rec = chan.transmit(rng.integers(0, 4, 5000), rng)
        assert _insertions(rec) == 0
        assert len(rec.received) == 5000 - _deletions(rec)

    def test_insertion_channel_no_deletions(self, rng):
        chan = DeletionInsertionChannel(
            ChannelParameters.from_rates(deletion=0.0, insertion=0.3),
            bits_per_symbol=2,
        )
        rec = chan.transmit(rng.integers(0, 4, 5000), rng)
        assert _deletions(rec) == 0
        assert len(rec.received) == 5000 + _insertions(rec)


class TestErasureView:
    def test_requires_reveal_locations(self, rng):
        # The matched erasure view needs the genie's locations.
        chan = DeletionInsertionChannel(ChannelParameters.from_rates(0.1, 0.1))
        assert chan.transmit(rng.integers(0, 2, 100), rng).erasure_view is None

    def test_view_structure(self, rng):
        chan = DeletionInsertionChannel(
            ChannelParameters.from_rates(0.25, 0.15),
            bits_per_symbol=2,
            reveal_locations=True,
        )
        msg = rng.integers(0, 4, 5000)
        rec = chan.transmit(msg, rng)
        view = rec.erasure_view
        # One entry per consumed input symbol.
        assert view.size == _consumed(rec)
        erased = view == ERASURE
        assert erased.sum() == _deletions(rec)
        # Non-erased positions are exactly the original symbols.
        assert np.array_equal(view[~erased], msg[: view.size][~erased])

    def test_capacity_property(self, rng):
        # The matched erasure channel delivers N bits on each non-erased
        # position: N (1 - P_d) bits per use (eq. 1). With no insertions
        # every use consumes one input symbol.
        chan = DeletionInsertionChannel(
            ChannelParameters.from_rates(0.25, 0.0),
            bits_per_symbol=4,
            reveal_locations=True,
        )
        view = chan.transmit(rng.integers(0, 16, 20_000), rng).erasure_view
        delivered = float(np.mean(view != ERASURE))
        assert 4 * delivered == pytest.approx(
            erasure_upper_bound(4, 0.25), abs=0.05
        )
        assert erasure_upper_bound(4, 0.25) == pytest.approx(3.0)

    def test_transmit_wrapper(self, rng):
        # With no insertions every sent symbol is consumed, so the view
        # has one entry per sent symbol.
        chan = DeletionInsertionChannel(
            ChannelParameters.from_rates(0.2, 0.0),
            reveal_locations=True,
        )
        view = chan.transmit(rng.integers(0, 2, 1000), rng).erasure_view
        assert view.size == 1000
