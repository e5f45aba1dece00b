"""Tests for the SVG renderers.

The renderers are plain string builders, so assertions work on substring
counts and exact attribute values rather than parsed imagery.
"""

from __future__ import annotations

import numpy as np
import pytest

from stopout.evaluator import STATUS_DEGENERATE, STATUS_INSUFFICIENT, STATUS_OK, CellResult, GridResult
from stopout.viz import (
    auc_color,
    heatmap_svg,
    importance_svg,
    write_heatmap,
    write_importance_chart,
)


def _hex_channels(color: str) -> tuple[int, int, int]:
    return int(color[1:3], 16), int(color[3:5], 16), int(color[5:7], 16)


# ---------------------------------------------------------------------------
# color ramp


def test_ramp_endpoints():
    assert auc_color(0.5) == "#ffffcc"
    assert auc_color(1.0) == "#bd0026"
    assert auc_color(0.75) == "#de8079"


def test_ramp_clamps_outside_its_range():
    assert auc_color(0.2) == auc_color(0.5)
    assert auc_color(-3.0) == auc_color(0.5)
    assert auc_color(1.3) == auc_color(1.0)


def test_ramp_channels_fade_monotonically():
    # yellow -> red: every RGB channel is non-increasing along the ramp
    colors = [_hex_channels(auc_color(a)) for a in np.linspace(0.5, 1.0, 101)]
    for prev, cur in zip(colors, colors[1:]):
        assert all(c <= p for p, c in zip(prev, cur))


# ---------------------------------------------------------------------------
# heatmap


def hand_grid() -> GridResult:
    cells = [
        CellResult("all", 1, 1, 2, STATUS_OK, 40, 30, 10, cv_mean=0.7, test_auc=0.85),
        CellResult("all", 2, 1, 3, STATUS_OK, 40, 30, 10, cv_mean=0.55, test_auc=0.5),
        CellResult("all", 3, 1, 4, STATUS_OK, 40, 30, 10, cv_mean=0.9, test_auc=1.0),
        CellResult("all", 1, 2, 3, STATUS_INSUFFICIENT, 4),
        CellResult("all", 2, 2, 4, STATUS_DEGENERATE, 25),
        CellResult("all", 1, 3, 4, STATUS_OK, 40, 30, 10, cv_mean=None, test_auc=None),
    ]
    return GridResult(cohort="all", cells=cells)


def test_heatmap_draws_only_successful_cells():
    svg = heatmap_svg(hand_grid())
    # one background rect plus one square per cell that produced a value
    assert svg.count("<rect") == 1 + 3
    assert svg.count("0.85</text>") == 1
    assert f'fill="{auc_color(0.85)}"' in svg
    assert 'fill="#ffffcc" stroke' in svg
    assert 'fill="#bd0026" stroke' in svg


def test_heatmap_axis_labels_cover_the_triangle():
    svg = heatmap_svg(hand_grid())
    for pw in (2, 3, 4):
        assert f'text-anchor="middle">{pw}</text>' in svg
    for lag in (1, 2, 3):
        assert f"lag {lag}</text>" in svg
    assert "lag 4" not in svg


def test_heatmap_alternate_metric():
    svg = heatmap_svg(hand_grid(), value="cv_mean")
    assert svg.count("<rect") == 1 + 3
    assert "0.70</text>" in svg and "0.55</text>" in svg
    assert "cv_mean" in svg


def test_heatmap_escapes_markup_in_labels():
    grid = GridResult(cohort="a<b&c", cells=[])
    svg = heatmap_svg(grid)
    assert "a&lt;b&amp;c cohort" in svg
    assert "a<b" not in svg


def test_heatmap_legend_names_both_ends():
    svg = heatmap_svg(hand_grid())
    assert "#ffffcc = AUC 0.5" in svg
    assert "#bd0026 = AUC 1.0" in svg


def test_write_heatmap_round_trip(tmp_path):
    grid = hand_grid()
    path = tmp_path / "grid.svg"
    write_heatmap(grid, path)
    assert path.read_text(encoding="utf-8") == heatmap_svg(grid)


# ---------------------------------------------------------------------------
# importance bars


def test_bars_follow_the_given_order():
    # drawn as given, not re-sorted: ImportanceReport.ranked() sets the order, as in importance.tsv
    svg = importance_svg([("x2", 0.5), ("x210", 0.9), ("x10", 0.5)])
    order = [svg.index(f">{fid}</text>") for fid in ("x2", "x210", "x10")]
    assert order == sorted(order)
    assert 'width="324.0"' in svg  # 0.9 of the 360px scale
    assert svg.count('width="180.0"') == 2
    assert "0.900</text>" in svg


def test_bar_widths_clamp_to_the_scale():
    svg = importance_svg([("xa", 1.2), ("xb", -0.3)])
    assert 'width="360.0"' in svg
    assert 'width="0.0"' in svg


def test_title_is_escaped():
    svg = importance_svg([("x2", 0.1)], title="fits & <misfits>")
    assert "fits &amp; &lt;misfits&gt;" in svg


def test_empty_chart_is_still_valid_svg():
    svg = importance_svg([])
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    assert svg.count("<rect") == 1


def test_write_importance_chart_round_trip(tmp_path):
    ranked = [("x15", 0.75), ("x2", 0.25)]
    path = tmp_path / "bars.svg"
    write_importance_chart(ranked, path, title="planted course")
    assert path.read_text(encoding="utf-8") == importance_svg(ranked, title="planted course")
