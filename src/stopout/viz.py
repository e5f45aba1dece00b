"""Self-contained SVG renderings: AUC heatmaps and importance bar charts.

No plotting dependency; files are plain SVG text. Heatmap cells interpolate
from pale yellow (#ffffcc) at AUC 0.5 to deep red (#bd0026) at AUC 1.0 so
grids from different runs share one fixed color scale.
"""

from __future__ import annotations

from pathlib import Path

from .dataset_builder import ALL_COHORT
from .evaluator import CellResult, heatmap_rows

RAMP_LOW = (0xFF, 0xFF, 0xCC)
RAMP_HIGH = (0xBD, 0x00, 0x26)
AUC_LO, AUC_HI = 0.5, 1.0
CELL = 40
PAD_LEFT = 70
PAD_TOP = 58
PAD_BOTTOM = 26


def auc_color(auc: float) -> str:
    """Hex fill for an AUC value, clamped to the fixed [0.5, 1.0] ramp."""
    t = (min(max(auc, AUC_LO), AUC_HI) - AUC_LO) / (AUC_HI - AUC_LO)
    rgb = tuple(round(lo + t * (hi - lo)) for lo, hi in zip(RAMP_LOW, RAMP_HIGH))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def heatmap_svg(cells: list[CellResult], value: str = "test_auc") -> str:
    """Predicted week on the x axis, lag on the y axis, one square per cell
    of heatmap_rows that holds a value.

    Cells that failed (too few rows, one-class labels) are left blank, same
    as positions outside the lead/lag triangle. The title names the cells'
    cohort, or the whole course for a grid with no cells.
    """
    rows = heatmap_rows(cells, value)
    width = PAD_LEFT + len(rows) * CELL + 20  # one column per predicted week 2..span, as many as lags
    height = PAD_TOP + len(rows) * CELL + PAD_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{PAD_LEFT}" y="20" font-size="14">{_esc(cells[0].cohort if cells else ALL_COHORT)} cohort, {_esc(value)}</text>',
        f'<text x="{PAD_LEFT}" y="38" fill="#555">columns: predicted week, rows: lag, blank: no result</text>',
    ]
    for i in range(len(rows)):
        x = PAD_LEFT + i * CELL + CELL // 2
        parts.append(f'<text x="{x}" y="{PAD_TOP - 6}" text-anchor="middle">{i + 2}</text>')
    for lag in range(1, len(rows) + 1):
        y = PAD_TOP + (lag - 1) * CELL + CELL // 2 + 4
        parts.append(f'<text x="{PAD_LEFT - 8}" y="{y}" text-anchor="end">lag {lag}</text>')
    for lag, row in enumerate(rows, 1):
        for i, v in enumerate(row):
            if v is None:
                continue
            x = PAD_LEFT + i * CELL
            y = PAD_TOP + (lag - 1) * CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL - 2}" height="{CELL - 2}" '
                f'fill="{auc_color(v)}" stroke="#888"/>'
            )
            parts.append(
                f'<text x="{x + (CELL - 2) // 2}" y="{y + CELL // 2 + 4}" '
                f'text-anchor="middle" font-size="10">{v:.2f}</text>'
            )
    y_legend = PAD_TOP + len(rows) * CELL + 16
    parts.append(
        f'<text x="{PAD_LEFT}" y="{y_legend}" fill="#555">'
        f'color: {auc_color(AUC_LO)} = AUC {AUC_LO} .. {auc_color(AUC_HI)} = AUC {AUC_HI}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_heatmap(cells: list[CellResult], path: str | Path, value: str = "test_auc") -> None:
    Path(path).write_text(heatmap_svg(cells, value), encoding="utf-8")


def importance_svg(ranked: list[tuple[str, float]], title: str = "feature stability") -> str:
    """Horizontal bars, one per (feature, frequency) pair, top to bottom in
    the order given: ImportanceReport.ranked(), as importance.tsv lists them."""
    bar_h, gap, label_w, scale = 16, 6, 60, 360
    width = label_w + scale + 90
    height = 40 + len(ranked) * (bar_h + gap) + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="10" y="20" font-size="14">{_esc(title)}</text>',
    ]
    for i, (fid, freq) in enumerate(ranked):
        y = 36 + i * (bar_h + gap)
        w = max(0.0, min(1.0, freq)) * scale
        parts.append(f'<text x="{label_w - 6}" y="{y + 12}" text-anchor="end">{_esc(fid)}</text>')
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{w:.1f}" height="{bar_h}" fill="#2b6cb0"/>'
        )
        parts.append(f'<text x="{label_w + scale + 8}" y="{y + 12}">{freq:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_importance_chart(ranked: list[tuple[str, float]], path: str | Path, title: str = "feature stability") -> None:
    Path(path).write_text(importance_svg(ranked, title), encoding="utf-8")
