"""Crash-proofing of the Monte-Carlo experiment runner: exception
isolation, retry substreams, wall-clock budget, metric-name validation,
and checkpoint/resume determinism."""

import json

import pytest

from repro.simulation.runner import (
    ExperimentRunner,
    ReplicationFailure,
    RunResult,
    TrialSummary,
)


def metric_trial(rng):
    return {"value": float(rng.random()), "other": float(rng.random())}


class TestValidation:
    def test_constructor_guards(self):
        with pytest.raises(ValueError):
            ExperimentRunner(replications=1)
        with pytest.raises(ValueError):
            ExperimentRunner(confidence=1.0)
        with pytest.raises(ValueError):
            ExperimentRunner(max_trial_retries=-1)
        with pytest.raises(ValueError):
            ExperimentRunner(time_budget_seconds=0.0)

    def test_empty_metrics_raise(self):
        runner = ExperimentRunner(replications=3)
        with pytest.raises(ValueError, match="replication 0 returned no metrics"):
            runner.run(lambda rng: {})

    def test_metric_mismatch_names_the_replication(self):
        def trial(rng):
            trial.calls += 1
            if trial.calls == 3:
                return {"value": 1.0, "rogue": 2.0}
            return {"value": 1.0, "other": 2.0}

        trial.calls = 0
        runner = ExperimentRunner(replications=5)
        with pytest.raises(ValueError) as excinfo:
            runner.run(trial)
        msg = str(excinfo.value)
        assert "replication 2" in msg
        assert "missing: ['other']" in msg
        assert "unexpected: ['rogue']" in msg


class TestExceptionIsolation:
    def test_crash_is_recorded_and_retried(self):
        calls = []

        def trial(rng):
            calls.append(None)
            if len(calls) == 2:  # first execution of replication 1
                raise RuntimeError("injected crash")
            return {"value": float(rng.random())}

        runner = ExperimentRunner(replications=5, max_trial_retries=1)
        result = runner.run(trial)
        assert isinstance(result, RunResult)
        assert result["value"].replications == 5  # retry recovered it
        assert result.failed_replications == ()
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure == ReplicationFailure(1, 0, "RuntimeError('injected crash')")

    def test_retry_uses_fresh_substream(self):
        """The retried replication draws different randomness than the
        crashed attempt would have."""
        seen = {}

        def trial(rng):
            v = float(rng.random())
            k = len(seen)
            if k == 1 and 1 not in seen:
                seen[1] = v
                raise RuntimeError("boom")
            seen.setdefault(k, v)
            return {"value": v}

        runner = ExperimentRunner(replications=3, max_trial_retries=1)
        result = runner.run(trial)
        # Replication 1's successful sample differs from its crashed draw.
        assert result["value"].samples[1] != seen[1]

    def test_permanent_failure_drops_the_replication(self):
        def trial(rng):
            v = float(rng.random())
            if v > 0.0:  # replication index unknown here; use a counter
                pass
            trial.calls += 1
            if trial.calls in (3, 4):  # both attempts of replication 2
                raise ValueError("always broken")
            return {"value": v}

        trial.calls = 0
        runner = ExperimentRunner(replications=4, max_trial_retries=1)
        result = runner.run(trial)
        assert result.failed_replications == (2,)
        assert result["value"].replications == 3
        assert len(result.failures) == 2

    def test_all_crashing_raises_runtime_error(self):
        def trial(rng):
            raise RuntimeError("nothing works")

        runner = ExperimentRunner(replications=3, max_trial_retries=0)
        with pytest.raises(RuntimeError, match="nothing works"):
            runner.run(trial)

    def test_crashes_do_not_shift_other_streams(self):
        """Replication k's sample depends only on k, not on whether
        earlier replications crashed (streams are index-derived)."""

        def clean(rng):
            return {"value": float(rng.random())}

        def crashy(rng):
            crashy.calls += 1
            if crashy.calls == 1:
                raise RuntimeError("first execution dies")
            return {"value": float(rng.random())}

        crashy.calls = 0
        a = ExperimentRunner(root_seed=9, replications=4).run(clean)
        b = ExperimentRunner(root_seed=9, replications=4, max_trial_retries=1).run(
            crashy
        )
        # Replications 1..3 are untouched by replication 0's crash.
        assert a["value"].samples[1:] == b["value"].samples[1:]


class TestTimeBudget:
    def test_budget_stops_early(self):
        def slow(rng):
            import time

            time.sleep(0.05)
            return {"value": float(rng.random())}

        runner = ExperimentRunner(replications=50, time_budget_seconds=0.2)
        result = runner.run(slow)
        assert result.budget_exhausted
        assert 2 <= result["value"].replications < 50
        assert result.elapsed_seconds < 5.0


class TestDeterminismAndResume:
    def test_same_root_seed_bit_identical(self):
        a = ExperimentRunner(root_seed=7, replications=6).run(metric_trial)
        b = ExperimentRunner(root_seed=7, replications=6).run(metric_trial)
        assert a["value"].samples == b["value"].samples
        assert a["other"].samples == b["other"].samples
        assert a["value"].interval == b["value"].interval
        c = ExperimentRunner(root_seed=8, replications=6).run(metric_trial)
        assert a["value"].samples != c["value"].samples

    def test_checkpoint_resume_bit_identical(self, tmp_path):
        """Crash mid-run, resume from the checkpoint: the final samples
        equal an uninterrupted run's exactly."""
        path = tmp_path / "ckpt.json"
        reference = ExperimentRunner(root_seed=3, replications=8).run(metric_trial)

        def dies_at_5(rng):
            dies_at_5.calls += 1
            if dies_at_5.calls == 5:
                raise KeyboardInterrupt  # simulated hard kill
            return metric_trial(rng)

        dies_at_5.calls = 0
        first = ExperimentRunner(
            root_seed=3, replications=8, checkpoint_path=path, max_trial_retries=0
        )
        with pytest.raises(KeyboardInterrupt):
            first.run(dies_at_5)
        # One header line, then one journal record per finished
        # replication.
        records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert [r["k"] for r in records] == [0, 1, 2, 3]

        resumed = ExperimentRunner(
            root_seed=3, replications=8, checkpoint_path=path
        ).run(metric_trial)
        assert resumed.resumed_replications == 4
        assert resumed["value"].samples == reference["value"].samples
        assert resumed["other"].samples == reference["other"].samples
        assert resumed["value"].interval == reference["value"].interval

    def test_completed_checkpoint_skips_all_work(self, tmp_path):
        path = tmp_path / "ckpt.json"
        runner = ExperimentRunner(root_seed=1, replications=4, checkpoint_path=path)
        full = runner.run(metric_trial)

        def never_called(rng):
            raise AssertionError("resume should not re-execute trials")

        again = ExperimentRunner(
            root_seed=1, replications=4, checkpoint_path=path
        ).run(never_called)
        assert again.resumed_replications == 4
        assert again["value"].samples == full["value"].samples

    def test_incompatible_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ExperimentRunner(root_seed=1, replications=4, checkpoint_path=path).run(
            metric_trial
        )
        other = ExperimentRunner(root_seed=2, replications=4, checkpoint_path=path)
        with pytest.raises(ValueError, match="incompatible"):
            other.run(metric_trial)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        runner = ExperimentRunner(replications=3, checkpoint_path=path)
        with pytest.raises(ValueError, match="unreadable"):
            runner.run(metric_trial)

    def test_sweep_labels_do_not_collide(self, tmp_path):
        path = tmp_path / "ckpt.json"
        runner = ExperimentRunner(root_seed=2, replications=3, checkpoint_path=path)

        def trial(rng, v):
            return {"value": v + float(rng.random())}

        out = runner.sweep(trial, [0.0, 10.0])
        records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert [r["label"] for r in records] == ["sweep/0.0"] * 3 + ["sweep/10.0"] * 3
        assert out[10.0]["value"].mean == pytest.approx(
            out[0.0]["value"].mean + 10.0
        )


class TestBackwardCompat:
    def test_result_behaves_like_dict(self):
        result = ExperimentRunner(replications=3).run(metric_trial)
        assert set(result) == {"value", "other"}
        assert isinstance(result["value"], TrialSummary)
        assert {k: v for k, v in result.items()} == dict(result)
