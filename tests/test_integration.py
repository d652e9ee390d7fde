"""Cross-module integration tests: the paper's end-to-end stories."""

import pytest

from repro import (
    CapacityEstimator,
    ChannelParameters,
    DeletionInsertionChannel,
    erasure_upper_bound,
    feedback_lower_bound,
)
from repro.coding import ConvolutionalCode, DriftChannelModel, WatermarkCode
from repro.core.capacity import feedback_lower_bound_exact
from repro.core.events import empirical_parameters
from repro.infotheory.noiseless import noiseless_capacity_per_second
from repro.os_model import (
    RandomScheduler,
    RoundRobinScheduler,
    run_oblivious_channel,
)
from repro.sync import CounterProtocol, ResendProtocol, measure_protocol
from repro.timing import fsm_capacity


class TestEstimationPipeline:
    """§4.3 recipe: traditional estimate -> measure -> correct."""

    def test_fsm_estimate_corrected_by_measured_pd(self, rng):
        physical = fsm_capacity(1, [(0, 0, 1.0), (0, 0, 2.0)])
        channel = DeletionInsertionChannel(
            ChannelParameters.from_rates(0.15, 0.05), bits_per_symbol=1
        )
        record = channel.transmit(rng.integers(0, 2, 60_000), rng)
        measured = empirical_parameters(record.events)
        report = CapacityEstimator(
            1, physical_capacity=physical
        ).estimate(measured)
        assert report.corrected_physical == pytest.approx(
            physical * 0.85, rel=0.03
        )

    def test_scheduler_to_estimate_pipeline(self, rng):
        """Kernel trace -> event classification -> capacity report."""
        m = run_oblivious_channel(RandomScheduler(), rng, message_symbols=8000)
        assert m.report.corrected_capacity == pytest.approx(
            1 - m.params.deletion
        )
        assert 0 < m.achievable_per_quantum < 0.5


class TestProtocolVsChannelConsistency:
    """The sync protocols and the raw channel agree on statistics."""

    def test_counter_protocol_event_rates_match_channel(self, rng):
        params = ChannelParameters.from_rates(0.2, 0.15)
        proto = CounterProtocol(params, bits_per_symbol=2)
        run = proto.run(rng.integers(0, 4, 40_000), rng)
        total = run.channel_uses
        assert run.deletions / total == pytest.approx(0.2, abs=0.01)
        assert run.insertions / total == pytest.approx(0.15, abs=0.01)

    def test_bounds_sandwich_measured_rates(self, rng):
        for pd, pi in [(0.1, 0.05), (0.2, 0.2)]:
            params = ChannelParameters.from_rates(pd, pi)
            proto = CounterProtocol(params, bits_per_symbol=2)
            m = measure_protocol(proto, rng.integers(0, 4, 60_000), rng)
            assert (
                m.empirical_information_per_slot
                <= erasure_upper_bound(2, pd) + 0.05
            )
            assert m.empirical_information_per_slot == pytest.approx(
                feedback_lower_bound_exact(2, pd, pi), rel=0.05
            )


class TestFeedbackVsNoFeedback:
    """Section 4's central comparison, end to end."""

    def test_watermark_rate_below_feedback_rate(self, rng):
        pi = pd = 0.02
        channel = DriftChannelModel(pi, pd, max_drift=12)
        wm = WatermarkCode(payload_bits=36)
        result = wm.simulate_frame(channel, rng)
        assert result.bit_error_rate <= 0.15
        # Even counting only successful bits, the code rate is far
        # below what the feedback protocol sustains.
        assert wm.rate < 0.5 * feedback_lower_bound(1, pd, pi)

    def test_resend_protocol_beats_any_code_rate(self, rng):
        pd = 0.05
        proto = ResendProtocol(
            ChannelParameters.from_rates(pd, 0.0), bits_per_symbol=1
        )
        run = proto.run(rng.integers(0, 2, 50_000), rng)
        cc = ConvolutionalCode((0o23, 0o35))
        code_rate = 0.5  # rate-1/2 outer code
        assert run.throughput_per_use > code_rate


class TestSchedulerStory:
    """§3.1: round-robin is the covert pair's friend."""

    def test_round_robin_vs_random(self, rng):
        rr = run_oblivious_channel(
            RoundRobinScheduler(), rng, message_symbols=4000
        )
        rnd = run_oblivious_channel(
            RandomScheduler(), rng, message_symbols=4000
        )
        assert rr.params.deletion == 0.0
        assert rnd.params.deletion > 0.2
        assert rr.achievable_per_quantum > 2 * rnd.achievable_per_quantum


class TestTraditionalEstimatorsAgree:
    def test_stc_and_fsm_coincide_on_memoryless_channels(self):
        times = [1.0, 2.0, 3.5]
        edges = [(0, 0, t) for t in times]
        assert fsm_capacity(1, edges) == pytest.approx(
            noiseless_capacity_per_second(times), abs=1e-9
        )


class TestCompositionAcrossDomains:
    """Scheduler-induced channel feeding the network channel: the
    composition law predicts the end-to-end statistics."""

    def test_scheduler_then_network_composite(self, rng):
        from tests.core.composition import compose_parameters
        from repro.network.packet_channel import (
            PacketFlowConfig,
            measured_parameters,
            transmit_flow,
        )

        # Stage 1: measured scheduler channel (random scheduler).
        stage1 = run_oblivious_channel(
            RandomScheduler(), rng, message_symbols=10_000
        ).params
        # Stage 2: network with 10% loss.
        cfg = PacketFlowConfig([1.0, 2.0], loss_prob=0.1)
        msg = rng.integers(0, 2, 20_000)
        stage2 = measured_parameters(transmit_flow(msg, cfg, rng))

        composite = compose_parameters(
            [
                ChannelParameters.from_rates(stage1.deletion, stage1.insertion),
                ChannelParameters.from_rates(stage2.deletion, stage2.insertion),
            ]
        )
        # Survival through both stages multiplies.
        s1 = stage1.transmission / (stage1.deletion + stage1.transmission)
        s2 = stage2.transmission / (stage2.deletion + stage2.transmission)
        survival = composite.transmission / (
            composite.deletion + composite.transmission
        )
        assert survival == pytest.approx(s1 * s2, rel=1e-9)
        # The composite erasure bound is below each stage's.
        from tests.core.composition import composition_is_degrading

        assert composition_is_degrading(
            1,
            [
                ChannelParameters.from_rates(stage1.deletion, stage1.insertion),
                ChannelParameters.from_rates(stage2.deletion, stage2.insertion),
            ],
        )


class TestAdaptivePipeline:
    def test_attack_rate_close_to_oracle(self, rng):
        from repro.sync.adaptive import run_adaptive_session

        params = ChannelParameters.from_rates(0.08, 0.05)
        session = run_adaptive_session(
            params, rng, pilot_frames=2, pilot_length=120,
            payload_symbols=15_000,
        )
        assert session.effective_rate > 0.75 * session.oracle_rate
        assert session.overhead_fraction < 0.1
