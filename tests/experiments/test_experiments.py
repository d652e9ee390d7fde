"""Experiments E1-E9: each runs (with small parameters) and passes."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    e1_erasure_bound,
    e2_feedback_deletion,
    e3_counter_protocol,
    e6_common_event,
    e7_scheduler,
    e8_coding,
    e9_bounds,
    e10_imperfect_feedback,
    e11_iterative_decoding,
    e12_markov_bounds,
    e13_network_channel,
    e14_countermeasure,
    e15_fault_resilience,
    e16_extreme_regimes,
)
from repro.experiments.registry import EXPERIMENTS, run_all, run_experiment
from repro.faults.scenarios import get_scenario
from repro.experiments.tables import ExperimentResult


def scaled_down(monkeypatch, module, **settings):
    """Run with smaller module-level settings, for test speed."""
    for name, value in settings.items():
        assert hasattr(module, name), name
        monkeypatch.setattr(module, name, value)


class TestRegistry:
    def test_all_registered(self):
        assert sorted(EXPERIMENTS, key=lambda k: int(k[1:])) == [
            f"E{k}" for k in range(1, 18)
        ]

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E42")

    def test_case_insensitive(self):
        result = run_experiment("e4")
        assert result.experiment_id == "E4"


class TestIndividualExperiments:
    """Each experiment, scaled down for test speed, must PASS."""

    def test_e1(self, monkeypatch):
        scaled_down(
            monkeypatch,
            e1_erasure_bound,
            NUM_SYMBOLS=15_000,
            SWEEP=((0.0, 0.0), (0.2, 0.1)),
        )
        r = run_experiment("E1")
        assert r.passed, r.summary()

    def test_e2(self, monkeypatch):
        scaled_down(
            monkeypatch,
            e2_feedback_deletion,
            NUM_SYMBOLS=40_000,
            DELETION_PROBS=(0.0, 0.2, 0.5),
        )
        r = run_experiment("E2")
        assert r.passed, r.summary()
        # Simulated rate within tolerance of N(1-pd) on every row.
        for row in r.rows:
            assert row["rel err"] < 0.02

    def test_e3(self, monkeypatch):
        scaled_down(
            monkeypatch,
            e3_counter_protocol,
            NUM_SYMBOLS=60_000,
            SWEEP=((0.0, 0.1), (0.15, 0.1)),
        )
        r = run_experiment("E3")
        assert r.passed, r.summary()

    def test_e4(self):
        r = run_experiment("E4")
        assert r.passed, r.summary()
        # Ratios increase with N for fixed p.
        by_p = {}
        for row in r.rows:
            by_p.setdefault(row["p"], []).append(row["C_lower/C_upper"])
        for ratios in by_p.values():
            assert ratios == sorted(ratios)

    def test_e5(self):
        r = run_experiment("E5")
        assert r.passed, r.summary()

    def test_e6(self, monkeypatch):
        scaled_down(monkeypatch, e6_common_event, NUM_SYMBOLS=8000)
        r = run_experiment("E6")
        assert r.passed, r.summary()
        for row in r.rows:
            assert row["ratio"] <= 1.0 + 1e-9

    def test_e7(self, monkeypatch):
        scaled_down(monkeypatch, e7_scheduler, MESSAGE_SYMBOLS=6000)
        r = run_experiment("E7")
        assert r.passed, r.summary()

    def test_e8(self, monkeypatch):
        scaled_down(monkeypatch, e8_coding, FRAMES=2, PAYLOAD_BITS=36)
        r = run_experiment("E8")
        assert r.passed, r.summary()

    def test_e10(self, monkeypatch):
        scaled_down(
            monkeypatch,
            e10_imperfect_feedback,
            NUM_SYMBOLS=30_000,
            SWEEP=((0.1, 0.0), (0.2, 0.3)),
        )
        r = run_experiment("E10")
        assert r.passed, r.summary()

    def test_e11(self, monkeypatch):
        scaled_down(
            monkeypatch, e11_iterative_decoding, FRAMES=2, ITERATION_COUNTS=(1, 2)
        )
        r = run_experiment("E11")
        assert r.passed, r.summary()

    def test_e14(self, monkeypatch):
        scaled_down(
            monkeypatch,
            e14_countermeasure,
            FUZZ_LEVELS=(0.0, 0.4, 0.7),
            MESSAGE_SYMBOLS=4000,
        )
        r = run_experiment("E14")
        assert r.passed, r.summary()

    def test_e13(self, monkeypatch):
        scaled_down(
            monkeypatch,
            e13_network_channel,
            NUM_SYMBOLS=8000,
            SWEEP=((0.0, 0.0, 0.0), (0.1, 0.05, 0.1)),
        )
        r = run_experiment("E13")
        assert r.passed, r.summary()

    def test_e12(self, monkeypatch):
        scaled_down(
            monkeypatch, e12_markov_bounds, DELETION_PROBS=(0.1, 0.4), BLOCK_LENGTH=6
        )
        r = run_experiment("E12")
        assert r.passed, r.summary()
        assert r.rows[1]["gain (bits)"] > r.rows[0]["gain (bits)"]

    def test_e9(self, monkeypatch):
        scaled_down(
            monkeypatch, e9_bounds, DELETION_PROBS=(0.1, 0.3), BLOCK_LENGTH=6
        )
        r = run_experiment("E9")
        assert r.passed, r.summary()
        for row in r.rows:
            assert row["best LB"] <= row["erasure UB"]

    def test_e15(self, monkeypatch):
        names = ("baseline", "counter_desync", "slow_drift")
        scaled_down(
            monkeypatch,
            e15_fault_resilience,
            NUM_SYMBOLS=12_000,
            list_scenarios=lambda: [get_scenario(n) for n in names],
        )
        r = run_experiment("E15")
        assert r.passed, r.summary()
        by_name = {row["scenario"]: row for row in r.rows}
        assert not by_name["baseline"]["degraded"]
        assert by_name["counter_desync"]["degraded"]
        assert by_name["counter_desync"]["recovered"] > 0
        for row in r.rows:
            assert row["rate/use"] <= row["UB N(1-P̂d)"] + 1e-9

    def test_e17(self):
        # The tier-1 agreement gate: full sample size, |C_kNN - C_BA|
        # <= 0.05 bits on every enumerable channel, scheduler rows
        # anchored/monotone. No scaling down — the gate is the claim.
        r = run_experiment("E17")
        assert r.passed, r.summary()
        for row in r.rows:
            if not np.isnan(row["|err| (bits)"]):
                assert row["|err| (bits)"] <= 0.05, row

    def test_e16(self, monkeypatch):
        scaled_down(monkeypatch, e16_extreme_regimes, MAX_ITER=5_000)
        r = run_experiment("E16")
        assert r.passed, r.summary()
        for row in r.rows:
            assert row["finite"]
            assert row["ok"]


#: ``run_all(seed=1)`` as JSON, the record every refactor must keep.
GOLDEN_RUN_ALL = Path(__file__).resolve().parents[1] / "golden" / "run_all.json"

#: Relative tolerance on float cells of the golden run.
GOLDEN_RTOL = 1e-12


def assert_matches_golden(got, want, where="run_all"):
    """Floats within ``GOLDEN_RTOL`` relative (NaN equals NaN); every
    other cell, key and length exactly.

    There is no absolute tolerance, so a golden cell of exactly 0.0 is
    matched bit for bit: only 0.0 (or -0.0) passes. A regenerated
    golden file that turns a cell into 0.0 pins it exactly."""
    if isinstance(want, float):
        assert isinstance(got, float), (where, got, want)
        if math.isnan(want):
            assert math.isnan(got), (where, got, want)
        else:
            assert math.isclose(got, want, rel_tol=GOLDEN_RTOL), (
                where,
                got,
                want,
                f"relative tolerance {GOLDEN_RTOL}: a golden 0.0 matches only 0.0",
            )
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), (where, got)
        for key in want:
            assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (where, got)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


class TestRunAll:
    @pytest.mark.slow
    def test_run_all_passes(self):
        results = run_all(seed=1)
        assert len(results) == 17
        for r in results:
            assert isinstance(r, ExperimentResult)
            assert r.passed, r.summary()
        got = json.loads(json.dumps([r.to_dict() for r in results]))
        want = json.loads(GOLDEN_RUN_ALL.read_text(encoding="utf-8"))
        assert_matches_golden(got, want)

    def test_golden_comparison_is_strict(self):
        want = {"a": [1.0, float("nan"), "x", True]}
        assert_matches_golden({"a": [1.0 + 1e-13, float("nan"), "x", True]}, want)
        for bad in (
            {"a": [1.0 + 1e-9, float("nan"), "x", True]},
            {"a": [1.0, 0.0, "x", True]},
            {"a": [1.0, float("nan"), "y", True]},
            {"a": [1.0, float("nan"), "x", 1]},
            {"a": [1.0, float("nan"), "x"]},
            {"b": [1.0, float("nan"), "x", True]},
        ):
            with pytest.raises(AssertionError):
                assert_matches_golden(bad, want)
