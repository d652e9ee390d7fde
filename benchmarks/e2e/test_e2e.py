"""Self-test of the end-to-end benchmark on shrunken sizes (< 60 s).

    python3 -m pytest benchmarks/e2e/test_e2e.py -q

Not part of the tier-1 suite (``testpaths`` is ``tests``). It checks
that every metric BENCHMARK.json declares is emitted with its unit, that
a corrupted service answer makes the command fail, and that the command
refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload):
    result = run.run_workload(workload, 0, 1.0, trace=True, smoke=True)
    assert not result["problems"], result["problems"]
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        line = run.result_line(result, trace)
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        assert set(line["metrics"]) == {m["name"] for m in declared}
        for metric in declared:
            emitted = line["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], float)
    for metric in SPEC["end_to_end"]:
        assert result[metric["name"]] > 0, metric["name"]


def _command(*extra: str) -> list:
    return [sys.executable, "benchmarks/e2e/run.py", "--seed", "0", "--seconds", "1", *extra]


def test_corrupted_service_answer_fails_the_command():
    proc = subprocess.run(
        _command("--workload", "service_closed_form", "--smoke", "--inject-wrong-answer"),
        cwd=str(run.ROOT), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "CHECK FAILED" in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        _command("--workload", "estimate_e17", "--trace", "0"),
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
