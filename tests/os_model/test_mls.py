"""MLS policy model and the §4.3 feedback-path exploit."""

import pytest

from repro.core.events import ChannelParameters
from repro.os_model.mls import (
    MLSPolicy,
    SecurityLevel,
    Subject,
    exploit_with_legal_feedback,
)


HIGH = Subject("high", SecurityLevel.SECRET)
LOW = Subject("low", SecurityLevel.UNCLASSIFIED)


class TestPolicy:
    def test_legal_flow_is_upward(self):
        policy = MLSPolicy()
        assert policy.allows_flow(
            SecurityLevel.UNCLASSIFIED, SecurityLevel.SECRET
        )
        assert not policy.allows_flow(
            SecurityLevel.SECRET, SecurityLevel.UNCLASSIFIED
        )

    def test_same_level_allowed(self):
        policy = MLSPolicy()
        assert policy.allows_flow(SecurityLevel.SECRET, SecurityLevel.SECRET)

    def test_covert_direction(self):
        policy = MLSPolicy()
        assert policy.is_covert(SecurityLevel.SECRET, SecurityLevel.UNCLASSIFIED)
        assert not policy.is_covert(
            SecurityLevel.UNCLASSIFIED, SecurityLevel.SECRET
        )

    def test_feedback_legality(self):
        policy = MLSPolicy()
        # Covert high->low: feedback low->high is the legal direction.
        assert policy.feedback_is_legal(HIGH, LOW)

    def test_levels_ordered(self):
        assert SecurityLevel.UNCLASSIFIED < SecurityLevel.CONFIDENTIAL
        assert SecurityLevel.SECRET < SecurityLevel.TOP_SECRET


class TestExploit:
    def test_achieves_theoretical_rate(self, rng):
        params = ChannelParameters.from_rates(0.1, 0.05)
        m = exploit_with_legal_feedback(
            HIGH, LOW, params, rng, bits_per_symbol=2, message_symbols=80_000
        )
        assert m.empirical_information_per_slot == pytest.approx(
            m.theoretical_lower_exact, rel=0.03
        )
        assert m.empirical_information_per_slot <= m.theoretical_upper

    def test_rejects_legal_direction(self, rng):
        with pytest.raises(PermissionError):
            exploit_with_legal_feedback(
                LOW, HIGH, ChannelParameters.from_rates(0.1, 0.05), rng
            )

    def test_rejects_same_level(self, rng):
        peer = Subject("peer", SecurityLevel.SECRET)
        with pytest.raises(PermissionError):
            exploit_with_legal_feedback(
                HIGH, peer, ChannelParameters.from_rates(0.1, 0.05), rng
            )

    def test_small_run(self, rng):
        params = ChannelParameters.from_rates(0.05, 0.0)
        m = exploit_with_legal_feedback(
            HIGH, LOW, params, rng, message_symbols=500
        )
        assert m.run.symbols_delivered == 500
