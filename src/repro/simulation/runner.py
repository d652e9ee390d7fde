"""Monte-Carlo experiment runner.

An orchestration layer hardened for long, many-scenario campaigns: an
:class:`ExperimentRunner` repeats a trial function over independent
seeded replications and aggregates the results into
:class:`TrialSummary` objects. Experiments E1-E15 are built on it so
that every number in EXPERIMENTS.md carries a replication count and a
confidence interval.

Robustness guarantees (see ``tests/simulation/test_runner_robustness``
and ``tests/simulation/test_parallel_runner``):

* **Exception isolation** — a replication that raises is recorded as a
  :class:`ReplicationFailure` and retried on a fresh, independent RNG
  substream; a crash never kills the run, and successful replications
  are unaffected (their streams are derived from the replication index,
  not from execution order).
* **Wall-clock budget** — ``time_budget_seconds`` stops the run early
  (with however many replications completed) instead of overrunning a
  campaign schedule.
* **Checkpoint/resume** — with ``checkpoint_path`` set, every finished
  replication (its metrics, solver-status counts and failures) is
  appended as one line to a JSONL journal; a torn final line is
  dropped. Re-running the same configuration resumes from the journal
  and produces bit-identical summaries, because replication ``k``
  always draws from the substream ``trial/<k>`` regardless of which
  replications were restored.
* **Parallel execution** — ``workers > 1`` fans replications out over a
  :class:`repro.simulation.pool.SupervisedPool` (a restartable,
  hang-aware ``ProcessPoolExecutor``). Replication ``k`` still draws
  from ``trial/<k>`` (the worker re-derives the substream from
  ``(root_seed, k)``), so serial and parallel runs are bit-identical;
  both feed the same merge loop, and the parent process remains the
  only journal writer, appending worker results as tasks complete. A
  worker killed mid-replication no longer poisons the run: the pool is
  rebuilt and the interrupted replications are resubmitted on their
  original substreams. See ``docs/performance.md`` for the worker
  model and determinism contract.
"""

from __future__ import annotations

import json
import pickle
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .._version import PACKAGE_VERSION
from ..numerics import collect_solver_statuses, collect_stage_timings, stage
from ..store import (
    UnsupportedParameterError,
    active_store,
    callable_fingerprint,
    canonical_key,
    lookup,
    publish,
)
from .pool import SupervisedPool
from .rng import RngFactory
from .stats import ConfidenceInterval, mean_confidence_interval

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "RUNNER_FN_ID",
    "TrialSummary",
    "ReplicationFailure",
    "RunResult",
    "ExperimentRunner",
    "sweep_checkpoint_label",
]

#: Version of the checkpoint format (the journal's header fingerprint).
#: Bumped when the format or the fingerprint changes; a checkpoint
#: written under any other version is incompatible and is never resumed.
CHECKPOINT_SCHEMA_VERSION = 3

#: Store function-id under which whole aggregated runs are cached.
RUNNER_FN_ID = "experiment_runner.run"


@dataclass(frozen=True)
class TrialSummary:
    """Aggregate of one metric across replications."""

    name: str
    samples: tuple
    interval: ConfidenceInterval

    @property
    def mean(self) -> float:
        return self.interval.estimate

    @property
    def replications(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class ReplicationFailure:
    """Record of one failed trial execution.

    Attributes
    ----------
    replication:
        Index of the replication that failed.
    attempt:
        0 for the first execution, ``r`` for retry number ``r``.
    error:
        ``repr`` of the exception (kept as text so failures serialize
        into checkpoints).
    """

    replication: int
    attempt: int
    error: str


class RunResult(Dict[str, TrialSummary]):
    """Mapping of metric name to :class:`TrialSummary`, plus run
    metadata.

    Behaves exactly like the plain dict the runner used to return, so
    existing experiments index it unchanged; the extra attributes
    expose what the hardened runner observed.

    Attributes
    ----------
    failures:
        Every failed execution (including ones whose retry succeeded),
        ordered by ``(replication, attempt)``.
    failed_replications:
        Replication indices that failed *all* allowed attempts and
        contributed no sample.
    elapsed_seconds:
        Wall-clock duration of this call (resumed replications cost
        nothing).
    budget_exhausted:
        True when the wall-clock budget stopped the run early.
    resumed_replications:
        Number of replications restored from the checkpoint rather
        than executed.
    solver_statuses:
        Aggregate ``{"solver:status": count}`` reported by guarded
        solvers (:mod:`repro.numerics`) across all replications that
        contributed samples — including replications restored from a
        checkpoint, whose statuses are persisted per replication and
        restored on resume.
    timing:
        Per-stage wall-clock attribution, populated only when the
        runner was built with ``collect_timing=True`` (empty dict
        otherwise). ``"trial"`` is the summed in-trial execution time
        across replications, kernel stages such as ``"lattice"`` and
        ``"solver"`` are subsets of it, ``"checkpoint"`` is parent-side
        persistence, and ``"total"`` is this call's wall-clock. With
        ``workers > 1`` the stage sums aggregate across processes and
        may exceed ``"total"``.
    pool_restarts:
        How many times the supervised worker pool was rebuilt during
        this call (crashed or hung worker processes); 0 for serial
        runs. Replications interrupted by a pool restart were
        resubmitted and recomputed bit-identically.
    """

    def __init__(
        self,
        summaries: Dict[str, TrialSummary],
        *,
        failures: Tuple[ReplicationFailure, ...] = (),
        failed_replications: Tuple[int, ...] = (),
        elapsed_seconds: float = 0.0,
        budget_exhausted: bool = False,
        resumed_replications: int = 0,
        solver_statuses: Optional[Dict[str, int]] = None,
        timing: Optional[Dict[str, float]] = None,
        pool_restarts: int = 0,
    ) -> None:
        super().__init__(summaries)
        self.failures = failures
        self.failed_replications = failed_replications
        self.elapsed_seconds = elapsed_seconds
        self.budget_exhausted = budget_exhausted
        self.resumed_replications = resumed_replications
        self.solver_statuses = dict(solver_statuses or {})
        self.timing = dict(timing or {})
        self.pool_restarts = pool_restarts

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation: summaries plus all run metadata.

        Round-trips through :meth:`from_dict`; also the payload the
        result store persists for whole cached runs and the body of
        ``repro run --format json``.
        """
        return {
            "summaries": {
                name: {
                    "name": summary.name,
                    "samples": [float(v) for v in summary.samples],
                    "interval": {
                        "estimate": summary.interval.estimate,
                        "lower": summary.interval.lower,
                        "upper": summary.interval.upper,
                        "confidence": summary.interval.confidence,
                    },
                }
                for name, summary in self.items()
            },
            "failures": [
                {
                    "replication": f.replication,
                    "attempt": f.attempt,
                    "error": f.error,
                }
                for f in self.failures
            ],
            "failed_replications": list(self.failed_replications),
            "elapsed_seconds": self.elapsed_seconds,
            "budget_exhausted": self.budget_exhausted,
            "resumed_replications": self.resumed_replications,
            "solver_statuses": dict(self.solver_statuses),
            "timing": dict(self.timing),
            "pool_restarts": self.pool_restarts,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Rebuild a :class:`RunResult` from :meth:`to_dict` output."""
        summaries = {
            name: TrialSummary(
                name=s["name"],
                samples=tuple(float(v) for v in s["samples"]),
                interval=ConfidenceInterval(
                    estimate=float(s["interval"]["estimate"]),
                    lower=float(s["interval"]["lower"]),
                    upper=float(s["interval"]["upper"]),
                    confidence=float(s["interval"]["confidence"]),
                ),
            )
            for name, s in data["summaries"].items()
        }
        return cls(
            summaries,
            failures=tuple(
                ReplicationFailure(
                    replication=int(f["replication"]),
                    attempt=int(f["attempt"]),
                    error=str(f["error"]),
                )
                for f in data.get("failures", [])
            ),
            failed_replications=tuple(
                int(k) for k in data.get("failed_replications", [])
            ),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            budget_exhausted=bool(data.get("budget_exhausted", False)),
            resumed_replications=int(data.get("resumed_replications", 0)),
            solver_statuses={
                str(k): int(v)
                for k, v in data.get("solver_statuses", {}).items()
            },
            timing={
                str(k): float(v) for k, v in data.get("timing", {}).items()
            },
            pool_restarts=int(data.get("pool_restarts", 0)),
        )


def sweep_checkpoint_label(value: float) -> str:
    """Canonical checkpoint label for one swept parameter value.

    The value is coerced to ``float`` first, so the label is bijective
    with the sweep-result dictionary key: two values that coerce to
    different floats (``0.3`` vs. ``0.1 + 0.2``) never share checkpoint
    state, and two spellings of the same float (``1`` vs. ``1.0``, a
    ``np.float64`` vs. the plain float) never fragment it. Formatting
    the *raw* value instead collides for types whose ``str`` truncates
    (``str(np.float32(0.1)) == "0.1"`` but
    ``float(np.float32(0.1)) != 0.1``).
    """
    return f"sweep/{float(value)!r}"


@dataclass(frozen=True)
class _SweepTrial:
    """Picklable binding of a swept parameter value onto a trial.

    A closure would break ``workers > 1`` (closures don't pickle);
    this dataclass pickles whenever the underlying trial does.
    """

    trial: Callable[[np.random.Generator, float], Dict[str, float]]
    value: float

    def __call__(self, rng: np.random.Generator) -> Dict[str, float]:
        return self.trial(rng, self.value)


def _execute_replication_task(
    trial: Callable[[np.random.Generator], Dict[str, float]],
    root_seed: int,
    k: int,
    max_trial_retries: int,
    collect_timing: bool,
) -> Tuple[
    int,
    Optional[Dict[str, float]],
    List[Tuple[int, int, str]],
    Dict[str, int],
    Dict[str, float],
]:
    """Run replication *k*, retrying on fresh substreams.

    Module-level so it executes identically inline (serial path) and in
    a worker process (``workers > 1``): the substream is re-derived from
    ``(root_seed, k)``, never shipped across the process boundary, so a
    worker draws exactly the randomness the serial loop would have.

    Returns ``(k, metrics, failures, solver_statuses, timing)``;
    metrics is ``None`` when every attempt raised (failure tuples are
    recorded either way), and statuses/timing come from the successful
    attempt only.
    """
    factory = RngFactory(root_seed)
    failures: List[Tuple[int, int, str]] = []
    for attempt in range(max_trial_retries + 1):
        stream = f"trial/{k}" if attempt == 0 else f"trial/{k}/retry/{attempt}"
        rng = factory.fresh(stream)
        try:
            with collect_solver_statuses() as counts:
                if collect_timing:
                    with collect_stage_timings() as stage_totals:
                        with stage("trial"):
                            metrics = trial(rng)
                    timing = dict(stage_totals)
                else:
                    metrics = trial(rng)
                    timing = {}
            return k, metrics, failures, dict(counts), timing
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            failures.append((k, attempt, repr(exc)))
    return k, None, failures, {}, {}


def _metric_mismatch_message(
    replication: int, got: Sequence[str], expected: Sequence[str]
) -> str:
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    parts = [
        f"replication {replication} reported metric names "
        f"{sorted(got)} but earlier replications reported "
        f"{sorted(expected)}"
    ]
    if missing:
        parts.append(f"missing: {missing}")
    if extra:
        parts.append(f"unexpected: {extra}")
    return "; ".join(parts)


@dataclass
class ExperimentRunner:
    """Run a trial function across seeded replications, crash-proof.

    Parameters
    ----------
    root_seed:
        Root seed; replication ``k`` receives the independent stream
        ``trial/<k>`` (retry ``r`` of a failed replication receives
        ``trial/<k>/retry/<r>``).
    replications:
        Number of independent repetitions.
    confidence:
        Confidence level for the aggregated intervals.
    max_trial_retries:
        How many fresh-substream retries a raising replication gets
        before it is recorded as permanently failed.
    time_budget_seconds:
        Optional wall-clock budget; once exceeded, remaining
        replications are skipped and the result is flagged
        ``budget_exhausted``.
    checkpoint_path:
        Optional path of an append-only journal of persisted partial
        state: one JSON header line, then one line per finished
        replication; a torn final line is dropped. An existing
        compatible journal is resumed (bit-identical results); an
        unreadable or incompatible one raises ``ValueError`` and is
        left untouched.
    workers:
        Number of replication executors. ``1`` (the default) runs
        replications inline; ``> 1`` fans pending replications out over
        a ``ProcessPoolExecutor``. Either way one loop merges the
        outcomes and appends them to the journal. Because substreams
        are derived from the replication index, the aggregated result
        is bit-identical to a serial run; the trial callable must be
        picklable (module-level function or picklable callable object).
        Serial and parallel runs share journals interchangeably.
    max_pool_restarts:
        How many times a crashed (or hung) worker pool may be rebuilt
        before the affected replications are recorded as failed.
    worker_hang_seconds:
        Optional per-replication hang threshold for ``workers > 1``: a
        replication exceeding it has its worker terminated, the pool
        rebuilt, and the replication resubmitted (counted against
        ``max_pool_restarts``). ``None`` disables hang detection.
    collect_timing:
        When True, the result's :attr:`RunResult.timing` carries a
        per-stage wall-clock breakdown (trial / kernel stages /
        checkpoint / total) gathered via
        :func:`repro.numerics.collect_stage_timings`.
    """

    root_seed: int = 0
    replications: int = 10
    confidence: float = 0.95
    max_trial_retries: int = 1
    time_budget_seconds: Optional[float] = None
    checkpoint_path: Optional[Union[str, Path]] = None
    workers: int = 1
    collect_timing: bool = False
    max_pool_restarts: int = 2
    worker_hang_seconds: Optional[float] = None
    _pool_restarts: int = field(default=0, init=False, repr=False)
    _journal_end: Optional[int] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.replications < 2:
            raise ValueError("need at least two replications for intervals")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.max_trial_retries < 0:
            raise ValueError("max_trial_retries must be non-negative")
        if self.time_budget_seconds is not None and self.time_budget_seconds <= 0:
            raise ValueError("time_budget_seconds must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be non-negative")
        if self.worker_hang_seconds is not None and self.worker_hang_seconds <= 0:
            raise ValueError("worker_hang_seconds must be positive")

    # ------------------------------------------------------------------
    # checkpointing

    def _config_fingerprint(self) -> Dict[str, Any]:
        # workers/collect_timing are deliberately absent: they change
        # how a run executes, never what it computes, so serial and
        # parallel runs resume each other's checkpoints.
        return {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "package_version": PACKAGE_VERSION,
            "root_seed": self.root_seed,
            "replications": self.replications,
            "confidence": self.confidence,
        }

    def _load_checkpoint(
        self, label: str
    ) -> Tuple[
        Dict[int, Dict[str, float]],
        List[ReplicationFailure],
        Dict[int, Dict[str, int]],
    ]:
        """Journalled state of *label*: completed metrics, failures and
        solver statuses, keyed by replication.

        Also sets :attr:`_journal_end`, the byte offset the next append
        goes to (``None`` when there is no journal yet). A final line
        without its newline is a torn append and lies past that offset.
        """
        completed: Dict[int, Dict[str, float]] = {}
        failures: List[ReplicationFailure] = []
        statuses: Dict[int, Dict[str, int]] = {}
        self._journal_end = None
        if self.checkpoint_path is None:
            return completed, failures, statuses
        path = Path(self.checkpoint_path)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return completed, failures, statuses
        except OSError as exc:
            raise ValueError(f"unreadable checkpoint {path}: {exc!r}") from exc
        end = data.rfind(b"\n") + 1
        lines = data[:end].split(b"\n")[:-1]
        # The header is not torn-tolerant: the first save writes it
        # together with the first record, so a file without a complete
        # header line is not a journal.
        try:
            config = json.loads(lines[0])["config"]
        except (IndexError, ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"unreadable checkpoint {path}: no journal header ({exc!r})"
            ) from exc
        if config != self._config_fingerprint():
            raise ValueError(
                f"checkpoint {path} was written by an incompatible runner "
                f"configuration {config}; expected {self._config_fingerprint()}"
            )
        for number, line in enumerate(lines[1:], start=2):
            try:
                record = json.loads(line)
                if record["label"] != label:
                    continue
                failures.extend(
                    ReplicationFailure(int(r), int(a), str(e))
                    for r, a, e in record["failures"]
                )
                if record["metrics"] is not None:
                    k = int(record["k"])
                    completed[k] = {
                        str(m): float(v) for m, v in record["metrics"].items()
                    }
                    statuses[k] = {
                        str(s): int(c) for s, c in record["statuses"].items()
                    }
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ValueError(
                    f"unreadable checkpoint {path} line {number}: {exc!r}"
                ) from exc
        self._journal_end = end
        return completed, failures, statuses

    def _save_checkpoint(
        self,
        label: str,
        k: int,
        metrics: Optional[Dict[str, float]],
        statuses: Dict[str, int],
        failures: Sequence[Tuple[int, int, str]],
    ) -> None:
        """Append replication *k*'s outcome to the journal."""
        if self.checkpoint_path is None:
            return
        payload = json.dumps(
            {
                "label": label,
                "k": k,
                "metrics": metrics,
                "statuses": statuses,
                "failures": list(failures),
            }
        ) + "\n"
        if self._journal_end is None:
            header = json.dumps({"config": self._config_fingerprint()})
            payload = header + "\n" + payload
        path = Path(self.checkpoint_path)
        with open(path, "wb" if self._journal_end is None else "r+b") as fh:
            # Cut a torn final line away before appending after it.
            fh.seek(self._journal_end or 0)
            fh.truncate()
            fh.write(payload.encode("utf-8"))
            self._journal_end = fh.tell()

    # ------------------------------------------------------------------
    # result store

    def _store_key(self, trial: Callable, label: str) -> Optional[str]:
        """Content address of a finished run, or ``None`` (uncacheable).

        The key covers the config fingerprint (seed, replications,
        confidence, schema and package versions), the checkpoint label,
        and an identity-plus-code fingerprint of the trial callable —
        editing the trial's source invalidates its cached runs the same
        way editing a solver invalidates its solves.
        """
        fingerprint = callable_fingerprint(trial)
        if fingerprint is None:
            return None
        try:
            return canonical_key(
                RUNNER_FN_ID,
                {
                    "config": self._config_fingerprint(),
                    "label": label,
                    "trial": fingerprint,
                },
            )
        except UnsupportedParameterError:
            return None

    # ------------------------------------------------------------------
    # execution

    def _over_budget(self, start: float) -> bool:
        return (
            self.time_budget_seconds is not None
            and time.monotonic() - start > self.time_budget_seconds  # repro: noqa[DET001]
        )

    @staticmethod
    def _merge_metrics(
        k: int,
        metrics: Dict[str, float],
        completed: Dict[int, Dict[str, float]],
        expected_names: Optional[frozenset],
    ) -> frozenset:
        """Validate and record replication *k*'s metrics; returns the
        (possibly newly established) expected metric-name set."""
        if not metrics:
            raise ValueError(f"replication {k} returned no metrics")
        if expected_names is None:
            expected_names = frozenset(metrics)
        elif frozenset(metrics) != expected_names:
            raise ValueError(
                _metric_mismatch_message(k, list(metrics), list(expected_names))
            )
        completed[k] = {name: float(value) for name, value in metrics.items()}
        return expected_names

    def _outcomes(
        self,
        trial: Callable[[np.random.Generator], Dict[str, float]],
        start: float,
        pending: Sequence[int],
    ) -> Iterator[Tuple[int, Any]]:
        """Execute *pending* replications; yield ``(k, outcome)`` as
        each finishes.

        *outcome* is :func:`_execute_replication_task`'s return value,
        or an ``Exception`` when pool supervision gave up on the task.
        With ``workers == 1`` replications run inline, in index order;
        otherwise :class:`SupervisedPool` runs them in worker processes
        and yields in completion order — irrelevant to the summaries,
        which aggregation sorts by replication index. Supervision
        restarts crashed workers and resubmits their replications on
        the same substreams, and — with ``worker_hang_seconds`` set —
        terminates wedged ones. Either way the wall-clock budget is
        consulted before every dispatch; a replication it skips yields
        nothing.
        """
        if self.workers == 1:
            for k in pending:
                if self._over_budget(start):
                    return
                yield k, _execute_replication_task(
                    trial, self.root_seed, k, self.max_trial_retries,
                    self.collect_timing,
                )
            return
        try:
            pickle.dumps(trial)
        except Exception as exc:
            raise ValueError(
                f"workers={self.workers} requires a picklable trial "
                "(a module-level function or a picklable callable "
                f"object, not a lambda/closure): {exc!r}"
            ) from exc
        pool = SupervisedPool(
            min(self.workers, len(pending)) or 1,
            max_restarts=self.max_pool_restarts,
            hang_seconds=self.worker_hang_seconds,
        )
        tasks = [
            (k, (trial, self.root_seed, k, self.max_trial_retries, self.collect_timing))
            for k in pending
        ]
        try:
            yield from pool.map_tasks(
                _execute_replication_task,
                tasks,
                should_stop=lambda: self._over_budget(start),
            )
        finally:
            self._pool_restarts += pool.restarts
            pool.shutdown()

    def run(
        self,
        trial: Callable[[np.random.Generator], Dict[str, float]],
        *,
        label: str = "run",
    ) -> RunResult:
        """Execute *trial* once per replication and aggregate metrics.

        *trial* receives a fresh generator and returns a flat mapping of
        metric name to value; all replications must report the same
        metric names. *label* namespaces checkpoint state (used by
        :meth:`sweep` so swept points don't collide in one file).

        When a result store is active (:mod:`repro.store`), a finished
        run — every replication sampled, budget not exhausted — is
        cached whole, keyed by the config fingerprint, the label, and a
        fingerprint of the trial callable; a later identical run
        returns the stored aggregate without dispatching any
        replications. Trials the store cannot fingerprint bypass the
        cache and run normally. Checkpoints still govern resuming one
        *interrupted* run; the store shares *finished* runs.
        """
        store_key: Optional[str] = None
        if active_store() is not None:
            store_key = self._store_key(trial, label)
            cached = lookup(RUNNER_FN_ID, store_key)
            if cached is not None:
                return RunResult.from_dict(cached[0])

        # Wall-clock budgeting is the runner's job — the one sanctioned
        # use of real time in src/.
        start = time.monotonic()  # repro: noqa[DET001]
        self._pool_restarts = 0
        timing: Dict[str, float] = {}
        completed, failures, statuses_by_replication = self._load_checkpoint(
            label
        )
        resumed = len(completed)

        expected_names: Optional[frozenset] = (
            frozenset(next(iter(completed.values()))) if completed else None
        )
        pending = [k for k in range(self.replications) if k not in completed]
        finished = 0
        with closing(self._outcomes(trial, start, pending)) as outcomes:
            for k, outcome in outcomes:
                finished += 1
                if isinstance(outcome, Exception):
                    # Supervision gave up (restart budget spent) or the
                    # task machinery itself raised; record it like any
                    # other permanently failed replication.
                    metrics, statuses, rep_timing = None, {}, {}
                    fail_tuples = [(k, 0, repr(outcome))]
                else:
                    _, metrics, fail_tuples, statuses, rep_timing = outcome
                failures.extend(ReplicationFailure(*t) for t in fail_tuples)
                if metrics is not None:
                    statuses_by_replication[k] = statuses
                    for stage_name, seconds in rep_timing.items():
                        timing[stage_name] = timing.get(stage_name, 0.0) + seconds
                    expected_names = self._merge_metrics(
                        k, metrics, completed, expected_names
                    )
                t0 = time.perf_counter()  # repro: noqa[DET001] — observability only
                self._save_checkpoint(
                    label, k, completed.get(k), statuses, fail_tuples
                )
                if self.collect_timing:
                    timing["checkpoint"] = (
                        timing.get("checkpoint", 0.0)
                        + time.perf_counter()  # repro: noqa[DET001] — observability only
                        - t0
                    )
        # Only the budget skips a pending replication: every other one
        # yields an outcome.
        budget_exhausted = finished < len(pending)

        if len(completed) < 2:
            raise RuntimeError(
                f"only {len(completed)} of {self.replications} replications "
                "produced samples (need at least 2 for intervals); "
                + (
                    f"last failure: {failures[-1].error}"
                    if failures
                    else "wall-clock budget exhausted"
                )
            )

        per_metric: Dict[str, List[float]] = {}
        for k in sorted(completed):
            for name, value in completed[k].items():
                per_metric.setdefault(name, []).append(value)
        summaries = {
            name: TrialSummary(
                name=name,
                samples=tuple(values),
                interval=mean_confidence_interval(
                    values, confidence=self.confidence
                ),
            )
            for name, values in per_metric.items()
        }
        succeeded = set(completed)
        permanently_failed = tuple(
            sorted(
                {f.replication for f in failures} - succeeded
            )
        )
        solver_statuses: Dict[str, int] = {}
        for counts in statuses_by_replication.values():
            for key, count in counts.items():
                solver_statuses[key] = solver_statuses.get(key, 0) + count
        elapsed = time.monotonic() - start  # repro: noqa[DET001]
        if self.collect_timing:
            timing["total"] = elapsed
        result = RunResult(
            summaries,
            # set(): a resumed replication that fails again deterministically
            # re-records the checkpointed failure; keep one copy.
            failures=tuple(
                sorted(set(failures), key=lambda f: (f.replication, f.attempt))
            ),
            failed_replications=permanently_failed,
            elapsed_seconds=elapsed,
            budget_exhausted=budget_exhausted,
            resumed_replications=resumed,
            solver_statuses=solver_statuses,
            timing=timing,
            pool_restarts=self._pool_restarts,
        )
        if (
            store_key is not None
            and not budget_exhausted
            and not permanently_failed
        ):
            # Only complete runs are shareable: a truncated or partially
            # failed aggregate must not masquerade as the full result.
            publish(RUNNER_FN_ID, store_key, result.to_dict(), compute_seconds=elapsed)
        return result

    def sweep(
        self,
        trial: Callable[[np.random.Generator, float], Dict[str, float]],
        parameter_values: Sequence[float],
    ) -> Dict[float, RunResult]:
        """Run :meth:`run` for each value of a swept scalar parameter.

        Returns the full :class:`RunResult` (a ``TrialSummary`` mapping
        plus failure/budget/status metadata) per swept value, keyed by
        ``float(value)``. Checkpoint state is namespaced by
        :func:`sweep_checkpoint_label`, which is bijective with the
        float key, so near-equal or differently-typed swept values
        never collide or fragment.
        """
        out: Dict[float, RunResult] = {}
        for value in parameter_values:
            v = float(value)
            out[v] = self.run(
                _SweepTrial(trial, v), label=sweep_checkpoint_label(v)
            )
        return out
