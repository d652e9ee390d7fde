"""Kernel, processes, and schedulers."""

import numpy as np
import pytest

from repro.os_model.kernel import SharedRegister, UniprocessorKernel
from repro.os_model.process import IdleProcess, Process
from repro.os_model.scheduler import (
    FuzzyTimeScheduler,
    LotteryScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)


class CountingProcess(Process):
    def step(self, kernel):
        kernel.annotate(f"step-{self.pid}")


class TestSharedRegister:
    def test_read_write(self):
        reg = SharedRegister()
        assert reg.read() == 0
        reg.write(9)
        assert reg.read() == 9
        assert reg.writes == 1
        assert reg.reads == 2


class TestProcess:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountingProcess(-1)

    def test_default_name(self):
        assert CountingProcess(3).name == "proc-3"

    def test_idle_process_does_nothing(self, rng):
        idle = IdleProcess(0)
        kernel = UniprocessorKernel([idle], RoundRobinScheduler())
        kernel.run(10, rng)
        assert kernel.register.writes == 0


class TestKernel:
    def test_trace_records_schedule(self, rng):
        procs = [CountingProcess(0), CountingProcess(1)]
        kernel = UniprocessorKernel(procs, RoundRobinScheduler())
        trace = kernel.run(6, rng)
        assert trace.schedule == [0, 1, 0, 1, 0, 1]
        assert trace.annotations[0] == "step-0"
        assert trace.schedule.count(0) == 3

    def test_duplicate_pids_rejected(self):
        with pytest.raises(ValueError):
            UniprocessorKernel(
                [CountingProcess(0), CountingProcess(0)], RoundRobinScheduler()
            )

    def test_empty_process_list_rejected(self):
        with pytest.raises(ValueError):
            UniprocessorKernel([], RoundRobinScheduler())

    def test_sync_variables(self, rng):
        kernel = UniprocessorKernel([CountingProcess(0)], RoundRobinScheduler())
        assert kernel.read_sync("x") == 0
        kernel.toggle_sync("x")
        assert kernel.read_sync("x") == 1
        kernel.toggle_sync("x")
        assert kernel.read_sync("x") == 0

    def test_stop_condition(self, rng):
        kernel = UniprocessorKernel([CountingProcess(0)], RoundRobinScheduler())
        kernel.run(100, rng, stop_condition=lambda k: k.time >= 7)
        assert kernel.time == 7

    def test_negative_quanta_rejected(self, rng):
        kernel = UniprocessorKernel([CountingProcess(0)], RoundRobinScheduler())
        with pytest.raises(ValueError):
            kernel.run(-1, rng)


class TestSchedulers:
    def _run(self, scheduler, num_procs=2, quanta=10_000, seed=0):
        procs = [CountingProcess(pid) for pid in range(num_procs)]
        kernel = UniprocessorKernel(procs, scheduler)
        trace = kernel.run(quanta, np.random.default_rng(seed))
        return np.asarray(trace.schedule)

    def test_round_robin_alternates(self):
        sched = self._run(RoundRobinScheduler())
        assert np.array_equal(sched[::2], np.zeros(5000))
        assert np.array_equal(sched[1::2], np.ones(5000))

    def test_random_is_fair(self):
        sched = self._run(RandomScheduler())
        assert sched.mean() == pytest.approx(0.5, abs=0.02)

    def test_fuzzy_time_repeats_processes(self):
        sched = self._run(FuzzyTimeScheduler(0.5), quanta=20_000)
        repeats = (sched[1:] == sched[:-1]).mean()
        # Round-robin alone would give zero repeats.
        assert repeats == pytest.approx(0.5, abs=0.03)

    def test_fuzzy_validation(self):
        with pytest.raises(ValueError):
            FuzzyTimeScheduler(1.0)

    def test_schedulers_reject_empty_ready(self):
        rng = np.random.default_rng(0)
        for sched in (
            RoundRobinScheduler(),
            RandomScheduler(),
            LotteryScheduler(),
            FuzzyTimeScheduler(),
        ):
            with pytest.raises(ValueError):
                sched.select([], rng)
