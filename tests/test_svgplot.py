import pytest

from catebench.errors import InvalidConfigError
from catebench.harness import AggregateRow
from catebench.svgplot import emit_plot_svg


def row(learner, value, mean, se=0.05):
    return AggregateRow(learner, value, 5, 0, mean, se, 0.1, 0.01, 1.0, 0.1)


class TestEmitPlotSvg:
    def test_single_point_single_marker(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot_svg([row("t", 1.0, 0.8)], "attr_pred", path)
        text = path.read_text()
        assert text.count("<circle") == 1
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")

    def test_log_axis_for_wide_grid(self, tmp_path):
        rows = [row("t", v, 0.5 + 0.1 * i) for i, v in enumerate([1e-3, 1e-2, 1e-1, 0.5, 1.0])]
        path = tmp_path / "p.svg"
        emit_plot_svg(rows, "attr_pred", path)
        assert "log scale" in path.read_text()

    def test_linear_axis_for_narrow_grid(self, tmp_path):
        rows = [row("t", v, 0.5) for v in (0.0, 0.5, 1.0)]
        path = tmp_path / "p.svg"
        emit_plot_svg(rows, "attr_pred", path)
        assert "log scale" not in path.read_text()

    def test_deterministic_bytes(self, tmp_path):
        rows = [row(l, v, 0.4 + 0.05 * i) for l in ("s", "t") for i, v in enumerate((0.1, 1.0))]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot_svg(rows, "pehe", a)
        emit_plot_svg(rows, "pehe", b)
        assert a.read_bytes() == b.read_bytes()

    def test_one_line_per_learner_with_band(self, tmp_path):
        rows = [row(l, v, 0.5) for l in ("s", "t", "x") for v in (0.0, 1.0)]
        path = tmp_path / "p.svg"
        emit_plot_svg(rows, "attr_pred", path)
        text = path.read_text()
        assert text.count("<polyline") == 3
        assert text.count("<polygon") == 3  # one error band each

    def test_rejects_empty_and_unknown_metric(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            emit_plot_svg([], "attr_pred", tmp_path / "p.svg")
        with pytest.raises(InvalidConfigError):
            emit_plot_svg([row("t", 1.0, 0.5)], "f1", tmp_path / "p.svg")
