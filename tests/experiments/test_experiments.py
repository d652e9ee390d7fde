"""Experiments E1-E9: each runs (with small parameters) and passes."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.registry import EXPERIMENTS, run_all, run_experiment
from repro.experiments.tables import ExperimentResult


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

    def test_e1(self):
        r = run_experiment(
            "E1", num_symbols=15_000, sweep=((0.0, 0.0), (0.2, 0.1))
        )
        assert r.passed, r.summary()

    def test_e2(self):
        r = run_experiment(
            "E2", num_symbols=40_000, deletion_probs=(0.0, 0.2, 0.5)
        )
        assert r.passed, r.summary()
        # Simulated rate within tolerance of N(1-pd) on every row.
        for row in r.rows:
            assert row["rel err"] < 0.02

    def test_e3(self):
        r = run_experiment(
            "E3", num_symbols=60_000, sweep=((0.0, 0.1), (0.15, 0.1))
        )
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

    def test_e6(self):
        r = run_experiment("E6", num_symbols=8000)
        assert r.passed, r.summary()
        for row in r.rows:
            assert row["ratio"] <= 1.0 + 1e-9

    def test_e7(self):
        r = run_experiment("E7", message_symbols=6000)
        assert r.passed, r.summary()

    def test_e8(self):
        r = run_experiment("E8", frames=2, payload_bits=36)
        assert r.passed, r.summary()

    def test_e10(self):
        r = run_experiment("E10", num_symbols=30_000, sweep=((0.1, 0.0), (0.2, 0.3)))
        assert r.passed, r.summary()

    def test_e11(self):
        r = run_experiment("E11", frames=2, iteration_counts=(1, 2))
        assert r.passed, r.summary()

    def test_e14(self):
        r = run_experiment(
            "E14", fuzz_levels=(0.0, 0.4, 0.7), message_symbols=4000
        )
        assert r.passed, r.summary()

    def test_e13(self):
        r = run_experiment(
            "E13", num_symbols=8000, sweep=((0.0, 0.0, 0.0), (0.1, 0.05, 0.1))
        )
        assert r.passed, r.summary()

    def test_e12(self):
        r = run_experiment("E12", deletion_probs=(0.1, 0.4), block_length=6)
        assert r.passed, r.summary()
        assert r.rows[1]["gain (bits)"] > r.rows[0]["gain (bits)"]

    def test_e9(self):
        r = run_experiment("E9", deletion_probs=(0.1, 0.3), block_length=6)
        assert r.passed, r.summary()
        for row in r.rows:
            assert row["best LB"] <= row["erasure UB"]

    def test_e15(self):
        r = run_experiment(
            "E15",
            num_symbols=12_000,
            scenarios=("baseline", "counter_desync", "lossy_ack"),
        )
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

    def test_e16(self):
        r = run_experiment("E16", max_iter=5_000)
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
