"""Cross-cutting invariants, property-tested across random parameters.

These are the relations that must hold between *different* subsystems —
the orderings and conservation laws the paper's whole argument hangs
on. Each property is tested over hypothesis-generated parameter points
rather than hand-picked examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capacity import (
    converted_capacity,
    erasure_upper_bound,
    feedback_lower_bound,
    feedback_lower_bound_exact,
)
from repro.core.events import ChannelParameters
from repro.infotheory.blahut_arimoto import blahut_arimoto
from repro.sync.feedback import CounterProtocol
from repro.sync.imperfect_feedback import lossy_feedback_capacity
from tests.core.noisy import noisy_feedback_lower_bound
from tests.infotheory.oracles import converted_channel

probs = st.floats(min_value=0.0, max_value=0.45)
small_n = st.integers(min_value=1, max_value=8)


class TestBoundHierarchy:
    """synchronous >= erasure UB >= paper LB >= exact LB >= noisy LB >= 0."""

    @given(small_n, probs, probs, st.floats(min_value=0.0, max_value=0.4))
    @settings(max_examples=80)
    def test_full_ordering(self, n, pd, pi, ps):
        sync = float(n)
        upper = erasure_upper_bound(n, pd)
        paper = feedback_lower_bound(n, pd, pi)
        exact = feedback_lower_bound_exact(n, pd, pi)
        noisy = noisy_feedback_lower_bound(n, pd, pi, ps)
        assert sync >= upper - 1e-12
        assert upper >= paper - 1e-9
        assert paper >= exact - 1e-9
        assert exact >= noisy - 1e-9
        assert noisy >= -1e-9

    @given(small_n, probs)
    @settings(max_examples=40)
    def test_converted_capacity_matches_blahut_arimoto(self, n, pi):
        if n > 5:  # keep the BA matrix small
            n = 5
        closed = converted_capacity(n, pi)
        numeric = blahut_arimoto(
            converted_channel(n, pi).transition_matrix, tol=1e-9
        ).capacity
        assert closed == pytest.approx(numeric, abs=1e-6)

    @given(probs, probs)
    @settings(max_examples=40)
    def test_lossy_feedback_below_perfect(self, pd, q):
        assert lossy_feedback_capacity(2, pd, q) <= erasure_upper_bound(
            2, pd
        ) + 1e-12


class TestProtocolConservation:
    """Event-count conservation laws of the counter protocol."""

    @given(
        st.floats(min_value=0.0, max_value=0.35),
        st.floats(min_value=0.0, max_value=0.35),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_counter_protocol_ledger(self, pd, pi, seed):
        rng = np.random.default_rng(seed)
        proto = CounterProtocol(
            ChannelParameters.from_rates(pd, pi), bits_per_symbol=2
        )
        msg = rng.integers(0, 4, 5000)
        run = proto.run(msg, rng)
        # Every use is exactly one event.
        assert run.channel_uses == (
            run.deletions + run.insertions + run.transmissions
        )
        # Every delivered position came from an insertion or a
        # transmission; sender slots are the complement of insertions.
        assert run.symbols_delivered == run.insertions + run.transmissions
        assert run.sender_slots == run.channel_uses - run.insertions
        # Errors happen only at insertion positions.
        assert run.symbol_errors <= run.insertions

    @given(
        st.floats(min_value=0.0, max_value=0.35),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_rate_within_bracket(self, pd, seed):
        """Measured counter-protocol information rate stays inside the
        [exact LB, erasure UB] bracket (with Monte-Carlo slack)."""
        rng = np.random.default_rng(seed)
        pi = 0.1
        proto = CounterProtocol(
            ChannelParameters.from_rates(pd, pi), bits_per_symbol=2
        )
        from repro.sync.harness import measure_protocol

        m = measure_protocol(proto, rng.integers(0, 4, 30_000), rng)
        assert m.empirical_information_per_slot <= m.theoretical_upper + 0.1
        assert m.empirical_information_per_slot >= (
            m.theoretical_lower_exact - 0.1
        )


class TestChannelStatistics:
    @given(
        st.floats(min_value=0.05, max_value=0.3),
        st.floats(min_value=0.05, max_value=0.3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_received_length_distribution(self, pd, pi, seed):
        """E[received length] = n (Pi + Pt) / (Pd + Pt)."""
        from repro.core.channels import DeletionInsertionChannel

        rng = np.random.default_rng(seed)
        chan = DeletionInsertionChannel(
            ChannelParameters.from_rates(pd, pi), bits_per_symbol=1
        )
        n = 20_000
        rec = chan.transmit(rng.integers(0, 2, n), rng)
        expected = n * (pi + (1 - pd - pi)) / (pd + (1 - pd - pi))
        assert rec.received.size == pytest.approx(expected, rel=0.05)
