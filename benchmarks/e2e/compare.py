"""Compare two results files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py parent.json change.json
    python3 benchmarks/e2e/compare.py results.json      # spreads only

For every workload and end-to-end metric it prints each side's median
and quartiles and a verdict, with the bounds read from BENCHMARK.json:

* ``improved``: the change wins at least 9 of every 10 pairs (run i of
  one file against run i of the other; ties count for neither side) and
  the medians differ by more than the parent's quartile spread;
* ``regressed``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved``: either side's quartile spread exceeds the bound, and
  not every run of the change beats every run of the parent;
* ``no worse`` otherwise.

``setup_s`` is judged on its median alone: its bound covers run-to-run
spread. Exit status is 1 when any pairing regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent


def load_spec() -> Dict[str, Dict[str, Any]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def series(results: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return [float(run[metric]) for run in results["runs"].get(workload, [])]


def verdict(
    parent: List[float], change: List[float], metric: Dict[str, Any]
) -> Tuple[str, float, Optional[float]]:
    """``(verdict, relative change in the worse direction, pair wins)``."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = float(metric["bound"])
    p_med = quartiles(parent)[1]
    c_med = quartiles(change)[1]
    worse = sign * (c_med - p_med) / abs(p_med)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_share = wins / len(pairs) if pairs else None
    p_q1, _, p_q3 = quartiles(parent)
    if metric["name"] != "setup_s":
        beats_all = all(sign * (c - p) < 0 for c in change for p in parent)
        if (
            win_share is not None
            and win_share >= 0.9
            and abs(c_med - p_med) > p_q3 - p_q1
            and sign * (c_med - p_med) < 0
        ):
            return "improved", worse, win_share
        if max(spread(parent), spread(change)) > bound and not beats_all:
            return "unresolved", worse, win_share
    if worse > bound:
        return "regressed", worse, win_share
    return "no worse", worse, win_share


def _describe(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.4g}, {q3:.4g}]"


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    files = [json.loads(Path(p).read_text(encoding="utf-8")) for p in argv]
    workloads = list(files[0]["runs"])
    regressed = False
    if len(files) == 1:
        print(f"{'workload':<22} {'metric':<16} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  runs")
        for workload in workloads:
            for name, metric in spec.items():
                values = series(files[0], workload, name)
                q1, med, q3 = quartiles(values)
                flag = "" if name == "setup_s" or spread(values) <= metric["bound"] / 3 else "  > bound/3"
                print(f"{workload:<22} {name:<16} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} "
                      f"{spread(values):>8.2%} {metric['bound']:>6.2f}  {len(values)}{flag}")
        return 0
    print(f"{'workload':<22} {'metric':<16} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse':>8} {'wins':>5}  verdict")
    for workload in workloads:
        for name, metric in spec.items():
            parent = series(files[0], workload, name)
            change = series(files[1], workload, name)
            if not parent or not change:
                continue
            result, worse, wins = verdict(parent, change, metric)
            regressed = regressed or result == "regressed"
            share = "" if wins is None else f"{wins:.0%}"
            print(f"{workload:<22} {name:<16} {_describe(parent):>34} "
                  f"{_describe(change):>34} {worse:>+8.2%} {share:>5}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
