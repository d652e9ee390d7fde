"""Corrupt, foreign and torn checkpoint journals.

A checkpoint is an append-only JSONL journal: a config header line,
then one line per finished replication. A file that is not such a
journal for this configuration — binary garbage (e.g. a truncated
``.npz`` written by another tool), text that is not JSON, a header from
another configuration, an unreadable record line, or an old
whole-JSON checkpoint — must raise ``ValueError`` and be left exactly
as it was. A journal cut at any byte past its header is what a crash
mid-append leaves behind: resuming it must reproduce an uninterrupted
run bit for bit.
"""

import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics import SolverStatus, record_status
from repro.simulation import ExperimentRunner

SWEEP = [0.0, 1.0]
CONFIG = dict(root_seed=8, replications=8, max_trial_retries=1)


def trial(rng):
    return {"x": float(rng.random())}


def flaky_trial(rng, value):
    """Fails on a substream-determined subset of replications (some
    retries succeed, some do not) and reports a solver status."""
    draw = float(rng.random())
    if draw < 0.45:
        raise RuntimeError(f"injected failure at draw {draw:.3f}")
    record_status("fake_solver", SolverStatus.CONVERGED)
    return {"draw": draw + value}


def _outcome(result):
    """Everything a run computes; drops only wall-clock and how much of
    it was resumed."""
    data = result.to_dict()
    for key in ("elapsed_seconds", "resumed_replications", "timing"):
        del data[key]
    return data


def _sweep(path=None, workers=1):
    runner = ExperimentRunner(checkpoint_path=path, workers=workers, **CONFIG)
    return {v: _outcome(r) for v, r in runner.sweep(flaky_trial, SWEEP).items()}


@functools.lru_cache(maxsize=None)
def _full_journal():
    """An uninterrupted serial sweep's result and its journal bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.jsonl"
        outcome = _sweep(path)
        return outcome, path.read_bytes()


def _old_whole_json(path):
    runner = ExperimentRunner(root_seed=8, replications=4)
    config = dict(runner._config_fingerprint(), schema_version=2)
    state = {
        "config": config,
        "runs": {"run": {"completed": {"0": {"x": 0.5}}, "failures": []}},
    }
    path.write_text(json.dumps(state, indent=1, sort_keys=True))


def _truncated_npz(path):
    buffer = io.BytesIO()
    np.savez(buffer, samples=np.arange(64, dtype=np.float64))
    payload = buffer.getvalue()
    path.write_bytes(payload[: int(len(payload) * 0.6)])


def _not_json(path):
    path.write_text("{not json")


def _foreign_header(path):
    ExperimentRunner(root_seed=9, replications=4, checkpoint_path=path).run(trial)


def _garbage_record(path):
    ExperimentRunner(root_seed=8, replications=4, checkpoint_path=path).run(trial)
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"{not json"
    path.write_bytes(b"\n".join(lines))


CORRUPTIONS = {
    "old-whole-json": (_old_whole_json, "unreadable"),
    "truncated-npz": (_truncated_npz, "unreadable"),
    "not-json": (_not_json, "unreadable"),
    "foreign-header": (_foreign_header, "incompatible"),
    "garbage-record": (_garbage_record, "unreadable .* line 3"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_file_raises_untouched(tmp_path, case):
    corrupt, message = CORRUPTIONS[case]
    path = tmp_path / "ckpt.json"
    corrupt(path)
    before = path.read_bytes()
    runner = ExperimentRunner(root_seed=8, replications=4, checkpoint_path=path)
    with pytest.raises(ValueError, match=message) as excinfo:
        runner.run(trial)
    assert str(path) in str(excinfo.value)
    # Refusing to guess preserves the evidence for inspection.
    assert path.read_bytes() == before


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_torn_journal_resumes_bit_identically(data):
    reference, journal = _full_journal()
    header_end = journal.index(b"\n") + 1
    offset = data.draw(st.integers(header_end, len(journal)), label="offset")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.jsonl"
        path.write_bytes(journal[:offset])
        assert _sweep(path) == reference
        # The torn tail was cut away before the first append.
        assert path.read_bytes().endswith(b"\n")
        assert _sweep(path) == reference


def test_torn_serial_journal_resumes_under_workers(tmp_path):
    reference, journal = _full_journal()
    # The sweep mixes retried, permanently failed and status-reporting
    # replications, so the equality covers every journalled field.
    for outcome in reference.values():
        assert outcome["failures"] and outcome["failed_replications"]
        assert outcome["solver_statuses"]
    path = tmp_path / "ckpt.jsonl"
    path.write_bytes(journal[: len(journal) // 2])
    assert _sweep(path, workers=2) == reference
