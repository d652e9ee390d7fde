"""Micro-benchmarks of the library's computational kernels.

Not tied to a paper table; tracks the performance of the hot paths the
experiment harness leans on (Blahut-Arimoto, the counter protocol, the
drift forward-backward decoder, block-bound construction).
"""

import os
import time

import numpy as np

from repro.bounds.deletion import block_bound_sweep
from repro.coding.forward_backward import DriftChannelModel
from repro.core.events import ChannelParameters
from repro.infotheory.blahut_arimoto import blahut_arimoto
from repro.infotheory.channels import m_ary_symmetric_channel
from repro.infotheory.kernels import blahut_arimoto_batch
from repro.sync.feedback import CounterProtocol
from tests.coding.fb_oracle import decode_reference

#: CI smoke mode: tiny sizes, no speedup thresholds (see ci.yml).
_SMOKE = os.environ.get("BENCH_SMOKE") == "1"


def test_bench_blahut_arimoto(benchmark):
    w = m_ary_symmetric_channel(64, 0.1).transition_matrix
    result = benchmark(lambda: blahut_arimoto(w, tol=1e-9))
    assert result.converged


def test_bench_counter_protocol(benchmark):
    rng_master = np.random.default_rng(0)
    msg = rng_master.integers(0, 8, 50_000)
    proto = CounterProtocol(
        ChannelParameters.from_rates(0.1, 0.1), bits_per_symbol=3
    )

    def run():
        rng = np.random.default_rng(1)
        return proto.run(msg, rng)

    out = benchmark(run)
    assert out.symbols_delivered == 50_000


def test_bench_drift_decoder(benchmark):
    rng = np.random.default_rng(2)
    model = DriftChannelModel(0.02, 0.02, max_drift=10)
    bits = rng.integers(0, 2, 200)
    y, _ = model.transmit(bits, rng)
    priors = np.where(rng.random(200) < 0.8, bits.astype(float), 0.5)
    result = benchmark.pedantic(
        lambda: model.decode(y, priors), rounds=3, iterations=1
    )
    assert np.isfinite(result.log_likelihood)


def test_bench_drift_decoder_vectorized_vs_scalar(benchmark):
    """Scalar-vs-vectorized comparison on the n=64 lattice.

    Reports the batched kernel's time via the benchmark fixture and
    asserts the 1e-12 parity and the >=5x speedup over the retained
    scalar reference (the acceptance target; relaxed under
    ``BENCH_SMOKE``, where sizes shrink below the vectorization
    payoff's sweet spot).
    """
    n = 16 if _SMOKE else 64
    rng = np.random.default_rng(4)
    model = DriftChannelModel(0.05, 0.05, 0.03, max_drift=12)
    bits = rng.integers(0, 2, n)
    while True:
        y, _ = model.transmit(bits, rng)
        if -12 <= y.size - n <= 12:
            break
    priors = np.full(n, 0.5)

    vec = benchmark.pedantic(
        lambda: model.decode(y, priors), rounds=5, iterations=1
    )
    t0 = time.perf_counter()
    ref = decode_reference(model, y, priors)
    scalar_seconds = time.perf_counter() - t0
    np.testing.assert_allclose(
        vec.posteriors, ref.posteriors, atol=1e-12, rtol=0
    )
    vec_seconds = benchmark.stats.stats.min
    speedup = scalar_seconds / vec_seconds
    print(f"\nscalar {scalar_seconds * 1e3:.2f} ms / "
          f"vectorized {vec_seconds * 1e3:.2f} ms = {speedup:.1f}x")
    if not _SMOKE:
        assert speedup >= 5.0, f"vectorization speedup only {speedup:.1f}x"


def test_bench_blahut_arimoto_batched_vs_serial(benchmark):
    """Serial-vs-batched comparison on a stack of small channels.

    The batched kernel's promise is amortized dispatch: k channels per
    einsum instead of k separate solver loops. The serial side is k
    calls of the scalar ``blahut_arimoto``, i.e. k one-channel calls of
    the same kernel. Reports the batched time
    via the benchmark fixture, checks 1e-12 parity per channel, and
    asserts the >=3x speedup acceptance target (relaxed under
    ``BENCH_SMOKE``, whose tiny stack sits below the vectorization
    payoff).
    """
    k = 8 if _SMOKE else 48
    nx, ny = 8, 10
    rng = np.random.default_rng(6)
    stack = rng.random((k, nx, ny))
    stack /= stack.sum(axis=2, keepdims=True)

    batch = benchmark.pedantic(
        lambda: blahut_arimoto_batch(stack, tol=1e-9),
        rounds=5,
        iterations=1,
    )
    t0 = time.perf_counter()
    serial = [blahut_arimoto(stack[i], tol=1e-9) for i in range(k)]
    serial_seconds = time.perf_counter() - t0
    for i, scalar in enumerate(serial):
        assert abs(batch.capacity[i] - scalar.capacity) < 1e-12
        np.testing.assert_allclose(
            batch.input_distribution[i],
            scalar.input_distribution,
            atol=1e-12,
            rtol=0,
        )
    batch_seconds = benchmark.stats.stats.min
    speedup = serial_seconds / batch_seconds
    print(f"\nserial {serial_seconds * 1e3:.2f} ms / "
          f"batched {batch_seconds * 1e3:.2f} ms = {speedup:.1f}x")
    if not _SMOKE:
        assert speedup >= 3.0, f"batching speedup only {speedup:.1f}x"


def test_bench_block_bound(benchmark):
    [result] = benchmark.pedantic(
        lambda: block_bound_sweep([0.2], block_length=8),
        rounds=1,
        iterations=1,
    )
    assert result.lower_bound >= 0.0
