"""Runner <-> result-store integration: whole-run caching, checkpoint
fingerprint versioning, and the RunResult serializers."""

import json

import pytest

from repro.simulation.runner import (
    CHECKPOINT_SCHEMA_VERSION,
    RUNNER_FN_ID,
    ExperimentRunner,
    RunResult,
)
from repro.store import ResultStore, reset_store_counters, store_counters, use_store

CALLS = []


def counting_trial(rng):
    """Module-level so it is picklable AND code-fingerprintable."""
    CALLS.append(None)
    return {"value": float(rng.random())}


def flaky_trial(rng):
    value = float(rng.random())
    if value > 0.5:
        raise RuntimeError("injected permanent failure")
    return {"value": value}


@pytest.fixture(autouse=True)
def _reset_state():
    CALLS.clear()
    reset_store_counters()
    yield
    CALLS.clear()
    reset_store_counters()


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def summaries_equal(a: RunResult, b: RunResult) -> bool:
    return a.to_dict() == b.to_dict()


class TestWholeRunCaching:
    def test_warm_run_dispatches_no_replications(self, store):
        runner = ExperimentRunner(root_seed=7, replications=4)
        with use_store(store):
            cold = runner.run(counting_trial)
            dispatched = len(CALLS)
            warm = runner.run(counting_trial)
        assert dispatched == 4
        assert len(CALLS) == 4  # warm run never called the trial
        assert summaries_equal(cold, warm)
        assert store_counters()[f"{RUNNER_FN_ID}:miss"] == 1
        assert store_counters()[f"{RUNNER_FN_ID}:hit"] == 1

    def test_store_off_is_bit_identical_to_store_on(self, store):
        runner = ExperimentRunner(root_seed=7, replications=4)
        plain = runner.run(counting_trial)
        with use_store(store):
            cached = runner.run(counting_trial)
            warm = runner.run(counting_trial)
        assert plain["value"].samples == cached["value"].samples
        assert plain["value"].samples == warm["value"].samples
        assert plain["value"].interval == warm["value"].interval

    def test_unfingerprintable_trial_bypasses(self, store):
        class OpaqueTrial:
            # Not a function, not a dataclass: no code fingerprint, so
            # the runner must bypass the store rather than guess a key.
            def __call__(self, rng):
                return {"value": float(rng.random())}

        runner = ExperimentRunner(root_seed=1, replications=3)
        with use_store(store):
            runner.run(OpaqueTrial())
        assert store_counters() == {f"{RUNNER_FN_ID}:bypass": 1}
        assert store.stats().entries == 0

    def test_different_config_or_label_misses(self, store):
        with use_store(store):
            ExperimentRunner(root_seed=1, replications=3).run(counting_trial)
            ExperimentRunner(root_seed=2, replications=3).run(counting_trial)
            ExperimentRunner(root_seed=1, replications=3).run(
                counting_trial, label="other"
            )
        assert store_counters()[f"{RUNNER_FN_ID}:miss"] == 3
        assert store.stats().entries == 3

    def test_incomplete_runs_are_not_cached(self, store):
        """A run with permanently failed replications must not be served
        as the full aggregate later."""
        runner = ExperimentRunner(
            root_seed=0, replications=6, max_trial_retries=0
        )
        with use_store(store):
            result = runner.run(flaky_trial)
        assert result.failed_replications  # seed 0 trips the >0.5 branch
        assert store.stats().entries == 0

    def test_cached_run_survives_process_boundary_shape(self, store):
        """The cached payload round-trips every RunResult field."""
        runner = ExperimentRunner(
            root_seed=3, replications=4, collect_timing=True
        )
        with use_store(store):
            cold = runner.run(counting_trial)
            warm = runner.run(counting_trial)
        assert warm.solver_statuses == cold.solver_statuses
        assert warm.failures == cold.failures
        assert warm.budget_exhausted is False
        assert set(warm.timing) == set(cold.timing)


class TestRunResultSerializers:
    def test_roundtrip_preserves_everything(self):
        runner = ExperimentRunner(
            root_seed=0, replications=6, max_trial_retries=0
        )
        result = runner.run(flaky_trial)
        clone = RunResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()
        assert clone["value"].samples == result["value"].samples
        assert clone["value"].interval == result["value"].interval
        assert clone.failures == result.failures
        assert clone.failed_replications == result.failed_replications
        assert clone.budget_exhausted == result.budget_exhausted

    def test_to_dict_is_json_serializable(self):
        result = ExperimentRunner(replications=3).run(counting_trial)
        text = json.dumps(result.to_dict())
        assert RunResult.from_dict(json.loads(text)).to_dict() == result.to_dict()


class TestCheckpointMigration:
    def test_versioned_mismatch_is_incompatible(self, tmp_path):
        path = tmp_path / "ckpt.json"
        runner = ExperimentRunner(
            root_seed=5, replications=4, checkpoint_path=path
        )
        older = dict(
            runner._config_fingerprint(),
            schema_version=CHECKPOINT_SCHEMA_VERSION - 1,
        )
        newer = dict(
            runner._config_fingerprint(),
            schema_version=CHECKPOINT_SCHEMA_VERSION + 1,
        )
        # The pre-schema_version format: a bare seed/replications/
        # confidence triple is not resumed either.
        legacy = {
            "root_seed": runner.root_seed,
            "replications": runner.replications,
            "confidence": runner.confidence,
        }
        for config in (older, newer, legacy):
            header = json.dumps({"config": config}) + "\n"
            path.write_text(header)
            with pytest.raises(ValueError, match="incompatible"):
                runner.run(counting_trial)
            assert path.read_text() == header  # left untouched
        assert CALLS == []
