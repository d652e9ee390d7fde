"""IterationGuard status taxonomy, best-iterate retention, and the
solver-status collector."""

import numpy as np
import pytest

from repro.numerics import (
    IterationGuard,
    SolverStatus,
    collect_solver_statuses,
    record_status,
)


def drive(guard, residuals, values=None):
    """Feed residuals until the guard terminates; return the status."""
    status = None
    for i, r in enumerate(residuals):
        value = None if values is None else values[i]
        status = guard.update(r, value=value)
        if status is not None:
            return status
    return status


class TestTerminalStatuses:
    def test_converged(self):
        guard = IterationGuard("t", max_iter=100, tol=1e-6)
        status = drive(guard, [1.0, 0.1, 1e-7], values=["a", "b", "c"])
        assert status is SolverStatus.CONVERGED
        assert status.ok
        assert guard.best_value == "c"
        assert guard.iterations == 3

    def test_max_iter(self):
        guard = IterationGuard("t", max_iter=5, tol=0.0)
        status = drive(guard, [1.0 / (k + 1) for k in range(10)])
        assert status is SolverStatus.MAX_ITER
        assert not status.ok
        assert guard.iterations == 5

    def test_stalled_on_flat_residual(self):
        guard = IterationGuard("t", max_iter=1000, tol=1e-9, stall_window=5)
        status = drive(guard, [1.0] * 100)
        assert status is SolverStatus.STALLED
        assert guard.iterations == 6  # best at 1, no new best for 5 more

    def test_oscillation_reads_as_stall(self):
        guard = IterationGuard("t", max_iter=1000, tol=1e-9, stall_window=6)
        status = drive(guard, [1.0, 2.0] * 50)
        assert status is SolverStatus.STALLED

    def test_diverged(self):
        guard = IterationGuard("t", max_iter=1000, tol=1e-9)
        status = drive(guard, [1.0, 0.5, 1e7])
        assert status is SolverStatus.DIVERGED

    def test_aborted_on_nan(self):
        guard = IterationGuard("t", max_iter=100)
        status = drive(guard, [1.0, float("nan")])
        assert status is SolverStatus.ABORTED

    def test_aborted_on_inf(self):
        guard = IterationGuard("t", max_iter=100)
        assert drive(guard, [np.inf]) is SolverStatus.ABORTED

    def test_detection_can_be_disabled(self):
        guard = IterationGuard("t", max_iter=50, stall_window=None)
        status = drive(guard, [1.0] * 50)
        assert status is SolverStatus.MAX_ITER


class TestBestIterate:
    def test_best_value_survives_later_worse_iterates(self):
        guard = IterationGuard("t", max_iter=10, tol=0.0, stall_window=None)
        drive(guard, [1.0, 0.01, 0.5, 0.9], values=["w", "best", "x", "y"])
        assert guard.best_value == "best"
        assert guard.best_residual == pytest.approx(0.01)
        assert guard.best_iteration == 2

    def test_converged_value_overrides_best(self):
        # On convergence the *final* iterate is the answer, even if an
        # earlier residual was (numerically) smaller.
        guard = IterationGuard("t", max_iter=10, tol=0.5)
        status = drive(guard, [1.0, 0.4], values=["a", "final"])
        assert status is SolverStatus.CONVERGED
        assert guard.best_value == "final"


class TestDiagnostics:
    def test_fields_and_describe(self):
        guard = IterationGuard("mysolver", max_iter=100, tol=1e-6)
        drive(guard, [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 1e-7])
        diag = guard.diagnostics(notes=("retry 1",))
        assert diag.solver == "mysolver"
        assert diag.status is SolverStatus.CONVERGED
        assert diag.iterations == 11
        # The tail keeps the last 8 residuals.
        assert diag.residual_tail == (7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 1e-7)
        assert diag.best_iteration == 11
        assert diag.notes == ("retry 1",)
        text = diag.describe()
        assert "mysolver" in text
        assert "converged" in text

    def test_unterminated_guard_reports_max_iter(self):
        guard = IterationGuard("t", max_iter=100)
        guard.update(1.0)
        assert guard.diagnostics().status is SolverStatus.MAX_ITER


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iter": 0},
            {"max_iter": 10, "tol": -1.0},
            {"max_iter": 10, "stall_window": 0},
        ],
    )
    def test_bad_constructor_args(self, kwargs):
        with pytest.raises(ValueError):
            IterationGuard("t", **kwargs)


class TestStatusCollector:
    def test_record_without_collector_is_noop(self):
        record_status("orphan", SolverStatus.STALLED)  # must not raise

    def test_counts_accumulate(self):
        with collect_solver_statuses() as counts:
            record_status("ba", SolverStatus.CONVERGED)
            record_status("ba", SolverStatus.CONVERGED)
            record_status("ba", SolverStatus.STALLED)
            record_status("fsm", "aborted")
        assert counts == {
            "ba:converged": 2,
            "ba:stalled": 1,
            "fsm:aborted": 1,
        }

    def test_nested_collectors_both_receive(self):
        with collect_solver_statuses() as outer:
            record_status("s", SolverStatus.CONVERGED)
            with collect_solver_statuses() as inner:
                record_status("s", SolverStatus.MAX_ITER)
        assert outer == {"s:converged": 1, "s:max_iter": 1}
        assert inner == {"s:max_iter": 1}

        # Both still empty, so the two dicts compare equal: exiting the
        # inner collector must remove it, not the outer one.
        with collect_solver_statuses() as outer:
            with collect_solver_statuses():
                pass
            record_status("s", SolverStatus.STALLED)
        assert outer == {"s:stalled": 1}

    def test_collector_closes_on_exception(self):
        with pytest.raises(RuntimeError):
            with collect_solver_statuses():
                raise RuntimeError("boom")
        record_status("after", SolverStatus.CONVERGED)  # collector gone


class TestSolverStatus:
    def test_only_converged_is_ok(self):
        assert SolverStatus.CONVERGED.ok
        for status in SolverStatus:
            if status is not SolverStatus.CONVERGED:
                assert not status.ok

    def test_string_valued(self):
        assert SolverStatus.MAX_ITER.value == "max_iter"
        assert SolverStatus("stalled") is SolverStatus.STALLED
