"""Guarded root bracketing: geometric expansion, Brent translation,
diagnostics on failure, and status recording."""

import numpy as np
import pytest

from repro.numerics import (
    BracketingError,
    collect_solver_statuses,
    expand_bracket,
    guarded_brentq,
)


class TestExpandBracket:
    def test_already_bracketing_interval_returned_unchanged(self):
        lo, hi = expand_bracket(lambda x: 1.0 - x, 0.0, 2.0, hi_cap=100.0)
        assert (lo, hi) == (0.0, 2.0)

    def test_geometric_growth_until_sign_change(self):
        f = lambda x: 10.0 - x  # noqa: E731 - root at 10
        lo, hi = expand_bracket(f, 0.0, 1.0, hi_cap=100.0)
        assert lo == 0.0
        assert hi == 16.0  # 1 -> 2 -> 4 -> 8 -> 16
        assert f(lo) > 0 >= f(hi)

    def test_cap_exceeded_raises_with_diagnostics(self):
        with pytest.raises(BracketingError) as excinfo:
            expand_bracket(
                lambda x: 1.0, 0.0, 1.0, hi_cap=64.0, solver="nosign"
            )
        diag = excinfo.value.diagnostics
        assert diag.solver == "nosign"
        assert diag.hi > 64.0
        assert diag.f_hi == 1.0
        assert diag.expansions >= 6
        assert "nosign" in str(excinfo.value)

    def test_non_finite_function_value_raises(self):
        def f(x):
            return 1.0 if x < 4 else float("nan")

        with pytest.raises(BracketingError):
            expand_bracket(f, 0.0, 1.0, hi_cap=1e6)

    def test_failure_records_aborted_status(self):
        with collect_solver_statuses() as counts:
            with pytest.raises(BracketingError):
                expand_bracket(lambda x: 1.0, 0.0, 1.0, hi_cap=8.0, solver="s")
        assert counts == {"s:aborted": 1}

    def test_bracketing_error_is_a_runtime_error(self):
        # Pre-existing `except RuntimeError` handlers must keep working.
        with pytest.raises(RuntimeError):
            expand_bracket(lambda x: 1.0, 0.0, 1.0, hi_cap=2.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="hi > lo"):
            expand_bracket(lambda x: -x, 1.0, 1.0, hi_cap=10.0)


class TestGuardedBrentq:
    def test_finds_root_and_records_converged(self):
        with collect_solver_statuses() as counts:
            root = guarded_brentq(
                lambda x: x**2 - 2.0, 0.0, 2.0, xtol=1e-12, solver="sqrt2"
            )
        assert root == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert counts == {"sqrt2:converged": 1}

    def test_no_sign_change_translated_to_bracketing_error(self):
        with collect_solver_statuses() as counts:
            with pytest.raises(BracketingError) as excinfo:
                guarded_brentq(
                    lambda x: x + 1.0, 0.0, 1.0, xtol=1e-9, solver="bad"
                )
        diag = excinfo.value.diagnostics
        assert (diag.lo, diag.hi) == (0.0, 1.0)
        assert diag.f_lo == 1.0
        assert diag.f_hi == 2.0
        assert counts == {"bad:aborted": 1}
        assert excinfo.value.__cause__ is not None

    def test_composes_with_expand_bracket(self):
        f = lambda x: np.exp(-x) - 0.25  # noqa: E731 - root at ln 4
        lo, hi = expand_bracket(f, 0.0, 0.5, hi_cap=100.0, solver="chain")
        root = guarded_brentq(f, lo, hi, xtol=1e-12, solver="chain")
        assert root == pytest.approx(np.log(4.0), abs=1e-10)


class TestDiagnosticsDescribe:
    def test_describe_mentions_interval_and_expansions(self):
        try:
            expand_bracket(lambda x: 2.0, 0.0, 1.0, hi_cap=4.0, solver="d")
        except BracketingError as exc:
            text = exc.diagnostics.describe()
            assert "d:" in text
            assert "expansions" in text
        else:  # pragma: no cover - the call above must raise
            pytest.fail("expected BracketingError")
