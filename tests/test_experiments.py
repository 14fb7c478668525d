"""Tests for the rendering helpers and (small-scale) figure functions."""


from repro.experiments import table1, validate_dynamics_equations
from repro.experiments.render import (
    FigureResult,
    render_series,
    render_table,
    sparkline,
)


class TestRenderTable:
    def test_alignment(self):
        out = render_table(("a", "bbbb"), [("x", 1), ("yy", 22)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines)

    def test_contents_present(self):
        out = render_table(("col",), [("value",)])
        assert "col" in out and "value" in out


class TestSparkline:
    def test_constant_series(self):
        s = sparkline([5.0, 5.0, 5.0])
        assert len(s) == 3

    def test_empty(self):
        assert sparkline([]) == ""

    def test_nan_renders_as_space(self):
        s = sparkline([1.0, float("nan"), 2.0])
        assert s[1] == " "

    def test_long_series_bucketed_to_width(self):
        s = sparkline(list(range(1000)), width=50)
        assert len(s) == 50

    def test_monotone_series_monotone_glyphs(self):
        bars = " .:-=+*#%@"
        s = sparkline([0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
        levels = [bars.index(ch) for ch in s]
        assert levels == sorted(levels)

    def test_render_series_contains_extremes(self):
        out = render_series("x", [0, 1, 2], [1.0, 5.0, 3.0])
        assert "min=1" in out and "max=5" in out


class TestFigureResult:
    def test_render_includes_everything(self):
        fr = FigureResult("Fig. X", "Title")
        fr.add_block("BLOCK")
        fr.metrics["m"] = 1.2345
        fr.note("NOTE")
        out = fr.render()
        assert "Fig. X" in out and "Title" in out
        assert "BLOCK" in out
        assert "m = 1.234" in out
        assert "note: NOTE" in out


class TestFigureFunctions:
    def test_table1_metrics(self):
        result = table1()
        assert result.metrics["R_kbps"] == 768
        assert result.metrics["K"] == 4
        assert "T_s" in result.render()

    def test_dynamics_validation_accuracy(self):
        result = validate_dynamics_equations()
        # Eq. 3 micro-sim within 15% of the closed form
        assert result.metrics["eq3_max_rel_error"] < 0.15
        # Eq. 6 Monte Carlo within 2% absolute
        assert result.metrics["eq6_max_abs_error"] < 0.02

    def test_fig5_without_an_audience_has_no_peak(self):
        """A day nobody watches has no peak to time or to drop from: both
        read NaN, not a perfect 22:00 cliff at midnight."""
        import math

        from repro.experiments.figures import fig5_user_evolution

        result = fig5_user_evolution(day_seconds=60.0, peak_rate=0.01,
                                     n_servers=1)
        assert result.metrics["peak_concurrent"] == 0.0
        assert math.isnan(result.metrics["peak_time_frac_of_day"])
        assert math.isnan(result.metrics["drop_after_program_end"])
