"""Covert-channel detection (the auditor's view)."""

import numpy as np
import pytest

from repro.os_model.covert import ObliviousReceiver, ObliviousSender
from repro.os_model.detection import (
    detect_covert_pair,
    interleaving_score,
    value_coupling_bits,
)
from repro.os_model.kernel import KernelTrace, UniprocessorKernel
from repro.os_model.scheduler import RandomScheduler, RoundRobinScheduler


def run_covert(rng, scheduler, symbols=4000):
    msg = rng.integers(0, 2, symbols)
    sender = ObliviousSender(0, msg)
    receiver = ObliviousReceiver(1)
    kernel = UniprocessorKernel([sender, receiver], scheduler)
    kernel.run(
        16 * symbols, rng, stop_condition=lambda _k: sender.done
    )
    return kernel.trace, msg, receiver.received


class TestInterleaving:
    def test_round_robin_pair_maximal(self, rng):
        trace, _w, _r = run_covert(rng, RoundRobinScheduler())
        assert interleaving_score(trace) > 0.99

    def test_random_schedule_near_half(self, rng):
        trace, _w, _r = run_covert(rng, RandomScheduler())
        assert interleaving_score(trace) == pytest.approx(0.5, abs=0.05)

    def test_empty_trace(self):
        assert interleaving_score(KernelTrace()) == 0.0

    def test_single_access(self):
        trace = KernelTrace(schedule=[0], annotations=["send"])
        assert interleaving_score(trace) == 0.0


class TestValueCoupling:
    def test_covert_pair_high_coupling(self, rng):
        _t, written, read = run_covert(rng, RoundRobinScheduler())
        mi = value_coupling_bits(written, read)
        assert mi > 0.9  # near 1 bit per symbol

    def test_independent_values_near_zero(self, rng):
        a = rng.integers(0, 2, 20_000)
        b = rng.integers(0, 2, 20_000)
        assert value_coupling_bits(a, b) < 0.01

    def test_short_sequences(self):
        assert value_coupling_bits([1], [1]) == 0.0


class TestDetector:
    def test_flags_round_robin_pair(self, rng):
        trace, written, read = run_covert(rng, RoundRobinScheduler())
        report = detect_covert_pair(trace, written, read)
        assert report.flagged
        assert "SUSPECTED" in report.summary()

    def test_flags_oblivious_pair_even_under_random_schedule(self, rng):
        """Scrambled scheduling kills the interleaving signal AND the
        naive positional pairing (the E1 alignment-collapse effect) —
        but the auditor can reconstruct the last-write-before-each-read
        pairing from the trace, and that coupling survives."""
        trace, written, read = run_covert(rng, RandomScheduler())
        # Naive positional pairing: near-zero MI (same as E1's naive
        # receiver) — the detector must NOT rely on it.
        naive = detect_covert_pair(trace, written, read)
        assert naive.interleaving < 0.6
        assert naive.coupling_bits < 0.05
        # Auditor's pairing: walk the trace, tracking the last value
        # written before each read.
        paired_writes, paired_reads = [], []
        w_pos = 0
        last_written = None
        r_pos = 0
        for note in trace.annotations:
            if note == "send":
                last_written = int(written[w_pos])
                w_pos += 1
            elif note == "recv":
                if last_written is not None:
                    paired_writes.append(last_written)
                    paired_reads.append(int(read[r_pos]))
                r_pos += 1
        report = detect_covert_pair(trace, paired_writes, paired_reads)
        assert report.coupling_bits > 0.9
        assert report.flagged

    def test_clean_workload_not_flagged(self, rng):
        """Independent processes touching the register do not trip the
        detector."""
        # Build a synthetic trace: random send/recv annotations with
        # independent random values.
        n = 10_000
        kinds = np.where(rng.random(n) < 0.5, "send", "recv")
        trace = KernelTrace(
            schedule=list(rng.integers(0, 2, n)),
            annotations=list(kinds),
        )
        written = rng.integers(0, 2, n)
        read = rng.integers(0, 2, n)
        report = detect_covert_pair(trace, written, read)
        assert not report.flagged

    def test_no_values_uses_interleaving_only(self, rng):
        trace, _w, _r = run_covert(rng, RoundRobinScheduler())
        report = detect_covert_pair(trace)
        assert report.flagged
        assert report.coupling_bits == 0.0
