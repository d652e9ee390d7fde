"""End-to-end benchmark of the capacity-estimation stack.

One workload (the form a benchmark driver uses)::

    python3 benchmarks/e2e/run.py --workload estimate_e17 --seed 0 \\
        --seconds 10 --trace 0

prints each metric by name with its unit and, as the last stdout line,
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 1`` runs the
workload twice, untraced and then with spans recorded around the calls
into each layer, and reports the per-layer metrics of BENCHMARK.json;
``--trace PATH`` does the same and also writes the spans as JSONL.

Every workload::

    python3 benchmarks/e2e/run.py --seed 0 --repeats 5 --out results.json

runs all five workloads ``--repeats`` times each and writes every run's
metrics plus an environment fingerprint; ``compare.py`` compares two
such files. Run from the repository root: the program is imported from
``src/`` next to this directory, never from an installed copy.

Exit status is 1 when a correctness check fails (after printing the
result line) and 2 when the program or a workload cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) if (
    ROOT / "BENCHMARK.json"
).is_file() else None

WORKLOADS = (
    "reproduce_all",
    "service_closed_form",
    "service_solver_heavy",
    "estimate_e17",
    "checkpointed_sweep",
)

#: Set-up is measured this many times per run (the measured child plus
#: set-up-only children); the median is reported.
SETUP_SAMPLES = 3

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0

#: Variables that would change what a workload computes: a leaked
#: store turns every run into warm-cache replays.
SCRUBBED_ENV = ("REPRO_STORE_DIR", "REPRO_KERNEL_BACKEND")


class BenchmarkError(RuntimeError):
    """The program or a workload could not be run at all."""


def _units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    if SPEC is not None:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            units[metric["name"]] = metric["unit"]
    return units


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    workdir: Path,
    *,
    setup_only: bool = False,
    trace_dir: Optional[Path] = None,
    smoke: bool = False,
    inject_wrong_answer: bool = False,
) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; return its JSON line."""
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    if smoke:
        command.append("--smoke")
    if inject_wrong_answer:
        command.append("--inject-wrong-answer")
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            command, env=child_env(), cwd=str(ROOT), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: child exceeded {CHILD_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload}: child exited {proc.returncode}\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    trace_out: Optional[Path] = None,
    smoke: bool = False,
    inject_wrong_answer: bool = False,
) -> Dict[str, Any]:
    """One benchmark run of *workload*: set-up samples, the measured
    child, and (traced) a second child with spans recorded."""
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            probe = run_child(workload, seed, seconds, workdir, setup_only=True, smoke=smoke)
            setups.append(probe["setup_s"])
        window = seconds / 2 if trace else seconds
        main = run_child(
            workload, seed, window, workdir, smoke=smoke,
            inject_wrong_answer=inject_wrong_answer,
        )
        setups.append(main["setup_s"])
        result = {
            "workload": workload,
            "seed": seed,
            "setup_s": statistics.median(setups),
            "wall_s": main["wall_s"],
            "peak_rss_mb": main["peak_rss_mb"],
            "passes": main["passes"],
            "attempted": main["attempted"],
            "failed": main["failed"],
            "problems": main["problems"],
            "layer": dict(main["layer"]),
        }
        if trace:
            trace_dir = workdir / "spans"
            trace_dir.mkdir()
            traced = run_child(workload, seed, window, workdir, trace_dir=trace_dir, smoke=smoke)
            # Counts both runs report come from the untraced one.
            for name, value in traced["layer"].items():
                result["layer"].setdefault(name, value)
            result["layer"]["trace.overhead_share"] = traced["wall_s"] / main["wall_s"] - 1.0
            result["problems"] += traced["problems"]
            if trace_out is not None:
                shutil.copyfile(trace_dir / "trace.jsonl", trace_out)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The driver's JSON line: end-to-end metrics, or with *trace* the
    per-layer metrics of BENCHMARK.json (0 for a layer the workload
    never reaches)."""
    units = _units()
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        names = [m["name"] for m in SPEC["per_layer"]]
        source = result["layer"]
    else:
        names = [m["name"] for m in SPEC["end_to_end"]]
        source = result
    for name in names:
        metrics[name] = {"value": float(source.get(name, 0.0)), "unit": units[name]}
    return {
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def fingerprint() -> Dict[str, Any]:
    """Where a results file was measured."""
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def _print_human(result: Dict[str, Any], trace: bool) -> None:
    units = _units()
    line = result_line(result, trace)
    print(f"# {result['workload']} seed={result['seed']} passes={result['passes']} "
          f"attempted={line['attempted']} failed={line['failed']}")
    for name, metric in line["metrics"].items():
        print(f"{result['workload']:>22} {name:<44} {metric['value']:>14.6g} {units[name]}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", default="0",
                        help="0, 1, or a path for the JSONL spans (implies 1)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, seeds seed, seed+1, ... (all-workload mode)")
    parser.add_argument("--out", default=None, help="write every run to this JSON file")
    parser.add_argument("--smoke", action="store_true", help="shrunken sizes for a self-test")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="self-test: corrupt service answers; the checks must fail")
    args = parser.parse_args(argv)

    if SPEC is None or not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no BENCHMARK.json or src/repro under {ROOT}", file=sys.stderr)
        return 2
    trace = args.trace != "0"
    trace_out = Path(args.trace) if trace and args.trace != "1" else None
    seconds = args.seconds if args.seconds is not None else float(SPEC["run_seconds"])
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    try:
        for repeat in range(args.repeats):
            for workload in workloads:
                out_path = trace_out
                if trace_out is not None and len(workloads) * args.repeats > 1:
                    out_path = trace_out.with_name(f"{trace_out.stem}-{workload}-{repeat}{trace_out.suffix}")
                result = run_workload(
                    workload, args.seed + repeat, seconds, trace=trace,
                    trace_out=out_path, smoke=args.smoke,
                    inject_wrong_answer=args.inject_wrong_answer,
                )
                runs[workload].append(result)
                _print_human(result, trace)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    all_results = [r for rs in runs.values() for r in rs]
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": fingerprint(), "seconds": seconds, "trace": trace, "runs": runs},
            indent=1,
        ) + "\n", encoding="utf-8")
    correct = all(not r["problems"] for r in all_results)
    summary = result_line(all_results[-1], trace) if len(all_results) == 1 else {
        "correct": correct,
        "attempted": sum(int(r["attempted"]) for r in all_results),
        "failed": sum(int(r["failed"]) for r in all_results),
        "metrics": {},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
