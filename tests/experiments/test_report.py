"""Tests for report rendering and the experiment configuration tables."""


from repro.experiments import TABLE1_RATES, rates_for, run_table1
from repro.experiments.report import render_table


class TestRenderTable:
    def test_header_and_rule(self):
        text = render_table(["a", "bb"], [[1, 2.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a")
        assert set(lines[2]) <= {"-", " "}

    def test_column_alignment(self):
        text = render_table(["name", "v"], [["x", 1], ["longer", 2]])
        lines = text.splitlines()
        assert lines[-1].startswith("longer")
        # Both data rows place the value in the same column.
        assert lines[-2].index("1") == lines[-1].index("2")

    def test_none_renders_as_dash(self):
        text = render_table(["a"], [[None]])
        assert text.splitlines()[-1].strip() == "-"

    def test_float_formatting(self):
        text = render_table(["a", "b", "c"], [[123.456, 1.234, 0.01234]])
        assert "123.5" in text
        assert "1.23" in text
        assert "0.012" in text

    def test_nan_renders(self):
        text = render_table(["a"], [[float("nan")]])
        assert "nan" in text


class TestTable1:
    def test_matches_paper_exactly(self):
        assert TABLE1_RATES["sobel"]["medium"] == [35, 30, 25, 20, 15]
        assert TABLE1_RATES["mm"]["high"] == [84, 70, 49, 42, 21]
        assert TABLE1_RATES["alexnet"]["medium"] == [6, 3, 3, 3, 3]

    def test_native_uses_first_three_columns(self):
        assert rates_for("sobel", "high", "native") == [60, 50, 35]
        assert rates_for("sobel", "high", "blastfunction") == [
            60, 50, 35, 30, 15
        ]

    def test_render_includes_all_rows(self):
        text = run_table1()
        assert text.count("sobel") == 3
        assert text.count("alexnet") == 2


class TestRenderBars:
    def test_bars_scale_and_label(self):
        from repro.experiments.report import render_bars

        text = render_bars(
            [("1KB", [("native", 0.2), ("grpc", 1.9)]),
             ("1MB", [("native", 0.4), ("grpc", 2.5)])],
            width=20,
        )
        lines = [l for l in text.splitlines() if l.strip()]
        assert len(lines) == 4
        assert "native" in lines[0]
        assert lines[1].count("#") > lines[0].count("#")

    def test_bars_handle_missing_values(self):
        from repro.experiments.report import render_bars

        text = render_bars([("x", [("a", None), ("b", 1.0)])])
        assert "-" in text

    def test_bars_empty(self):
        from repro.experiments.report import render_bars

        assert render_bars([]) == "(no data)"

    def test_linear_scale(self):
        from repro.experiments.report import render_bars

        text = render_bars(
            [("g", [("half", 5.0), ("full", 10.0)])],
            width=10, log_scale=False,
        )
        lines = text.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10
