"""Figure renderings and ASCII plots."""

import pytest

from repro.experiments.figures import (
    FIGURES,
    ascii_plot,
    convergence_figure,
    rate_figure,
    render_figure,
)


class TestFigures:
    def test_all_five_present(self):
        assert sorted(FIGURES) == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("number", [1, 2, 3, 4, 5])
    def test_render_mentions_module(self, number):
        text = render_figure(number)
        assert f"Figure {number}" in text
        assert "repro." in text  # every figure names its implementation

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            render_figure(6)


class TestAsciiPlot:
    def test_basic_structure(self):
        out = ascii_plot(
            {"linear": [0, 1, 2, 3]}, [0, 1, 2, 3], x_label="t", y_label="v"
        )
        lines = out.splitlines()
        assert lines[0].startswith("v")
        assert "legend: * linear" in lines[-1]
        assert "t: 0 .. 3" in out

    def test_multiple_series_distinct_markers(self):
        out = ascii_plot({"a": [0.0, 1.0], "b": [1.0, 0.0]}, [0, 1])
        assert "* a" in out and "o b" in out

    def test_constant_series(self):
        out = ascii_plot({"c": [2.0, 2.0, 2.0]}, [0, 1, 2])
        assert "max=3" in out  # degenerate range widened

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({"a": [1.0]}, [0, 1])
        with pytest.raises(ValueError):
            ascii_plot({}, [0, 1])

    def test_extremes_plotted(self):
        out = ascii_plot({"s": [0.0, 10.0]}, [0, 1])
        grid_lines = [l for l in out.splitlines() if l.startswith("  |")]
        # Max value on the top row, min on the bottom row.
        assert "*" in grid_lines[0]
        assert "*" in grid_lines[-1]


class TestCurveFigures:
    def test_convergence_figure(self):
        text = convergence_figure()
        assert "eqs. 6-7" in text
        assert "p=0.1" in text

    def test_rate_figure(self):
        text = rate_figure()
        assert "exact LB" in text and "erasure UB" in text


class TestCliFigures:
    def test_single_figure(self, capsys):
        from repro.cli import main

        assert main(["figures", "3"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_all_figures_and_curves(self, capsys):
        from repro.cli import main

        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for k in range(1, 6):
            assert f"Figure {k}" in out
        assert "Convergence" in out
