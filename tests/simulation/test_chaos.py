"""Chaos regressions: worker death and budget cutoff must not change
what a run computes.

The SIGKILL scenario is the one that used to take down the whole
parallel phase: ``ProcessPoolExecutor`` poisons every outstanding
future with ``BrokenProcessPool`` when any worker dies. The supervised
pool rebuilds and resubmits instead — and because every replication
re-derives its RNG substream from its arguments, the recovered run is
bit-identical to one that never crashed.
"""

import functools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from repro.faults import in_worker_process, kill_current_worker
from repro.simulation import ExperimentRunner


@dataclass(frozen=True)
class KillWorkerOnce:
    """Picklable trial wrapper that SIGKILLs its worker exactly once.

    The first invocation (across *all* worker processes) atomically
    creates *marker* via ``open(..., "x")`` and kills its own process
    mid-replication; every other invocation — including the retry of
    the killed replication — runs *trial* unchanged. Run serially
    (``workers=1``) the kill is skipped entirely, so the same wrapper
    is safe on both sides of a serial-vs-parallel bit-identity check.
    """

    trial: Callable[[np.random.Generator], Dict[str, float]]
    marker: str

    def __call__(self, rng: np.random.Generator) -> Dict[str, float]:
        if in_worker_process():
            try:
                with open(self.marker, "x", encoding="utf-8") as fh:
                    fh.write(str(os.getpid()))
            except FileExistsError:
                pass  # someone already died for this marker
            else:
                kill_current_worker()
        return self.trial(rng)


def chaos_trial(rng):
    return {"x": float(rng.random()), "y": float(rng.random())}


def marking_trial(rng, outdir, fail_after=10**6):
    """Write one marker per execution; refuse past *fail_after* markers."""
    markers = sorted(Path(outdir).glob("rep-*"))
    if len(markers) >= fail_after:
        raise RuntimeError("fixture refuses further replications")
    (Path(outdir) / f"rep-{len(markers)}").touch()
    return {"x": float(rng.random())}


def _samples(result):
    return {name: summary.samples for name, summary in result.items()}


def test_sigkilled_worker_mid_replication_is_bit_identical(tmp_path):
    marker = str(tmp_path / "killed")
    serial = ExperimentRunner(root_seed=17, replications=8, workers=1)
    oracle = serial.run(chaos_trial)

    chaotic = ExperimentRunner(root_seed=17, replications=8, workers=2)
    survived = chaotic.run(KillWorkerOnce(chaos_trial, marker))

    assert Path(marker).exists()  # the SIGKILL actually fired
    assert survived.pool_restarts >= 1  # and the pool rebuilt
    assert _samples(survived) == _samples(oracle)  # exact float equality
    assert survived["x"].interval == oracle["x"].interval
    assert survived.failed_replications == ()


def test_kill_wrapper_is_inert_in_the_parent_process(tmp_path):
    # workers=1 executes in-process: KillWorkerOnce must refuse to kill
    # the orchestrating process and just run the trial.
    marker = str(tmp_path / "never")
    runner = ExperimentRunner(root_seed=17, replications=4, workers=1)
    wrapped = runner.run(KillWorkerOnce(chaos_trial, marker))
    plain = ExperimentRunner(root_seed=17, replications=4, workers=1).run(
        chaos_trial
    )
    assert not Path(marker).exists()
    assert _samples(wrapped) == _samples(plain)
    assert wrapped.pool_restarts == 0


def test_exhausted_budget_blocks_every_new_submission(tmp_path):
    """Regression: the budget used to be checked only after completions,
    so a resumed run with nothing to learn still dispatched new work.
    Now ``should_stop`` gates every submission: an already-expired
    budget must execute zero trials."""
    ckpt = tmp_path / "ckpt.json"
    first_dir = tmp_path / "first"
    first_dir.mkdir()
    # Pass 1: replications 0-1 complete, 2-5 fail -> checkpoint holds 2.
    seeded = ExperimentRunner(
        root_seed=4,
        replications=6,
        workers=1,
        max_trial_retries=0,
        checkpoint_path=ckpt,
    )
    r1 = seeded.run(
        functools.partial(
            marking_trial, outdir=str(first_dir), fail_after=2
        )
    )
    assert len(r1.failed_replications) == 4

    # Pass 2: resume under workers with a budget that is already spent
    # by the time the first submission is considered.
    second_dir = tmp_path / "second"
    second_dir.mkdir()
    resumed = ExperimentRunner(
        root_seed=4,
        replications=6,
        workers=2,
        max_trial_retries=0,
        checkpoint_path=ckpt,
        time_budget_seconds=1e-6,
    )
    r2 = resumed.run(
        functools.partial(marking_trial, outdir=str(second_dir))
    )
    assert r2.budget_exhausted is True
    assert r2.resumed_replications == 2
    assert r2["x"].samples == r1["x"].samples  # checkpointed work only
    # The regression assertion: no trial ever executed.
    assert list(second_dir.iterdir()) == []
