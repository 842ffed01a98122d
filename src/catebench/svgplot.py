"""Self-contained SVG trend charts for aggregated sweep results.

Hand-written markup rather than a plotting library so that identical
inputs produce identical bytes: no timestamps, no hashed ids, no embedded
fonts. One line per learner over the knob grid with a +/-1 standard-error
band; the x-axis switches to log scale when the grid spans at least two
decades.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidConfigError
from .metrics import METRIC_FIELDS

if TYPE_CHECKING:  # rows come from harness.aggregate; importing it here would load the pool
    from .harness import AggregateRow

_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#17becf",
)

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 150, 24, 52


def _f(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def emit_plot_svg(rows: list[AggregateRow], metric: str, path: str | Path) -> None:
    """Render one metric of an aggregated table to an SVG file."""
    if metric not in METRIC_FIELDS:
        raise InvalidConfigError(f"unknown metric {metric!r}")
    if not rows:
        raise InvalidConfigError("nothing to plot: empty aggregate table")
    mean_field, se_field, ylabel = METRIC_FIELDS[metric]

    learners = sorted({r.learner for r in rows})
    xs_all = np.array(sorted({r.knob_value for r in rows}))
    log_x = bool(xs_all.min() > 0 and xs_all.max() / xs_all.min() >= 100.0)

    def tx(v: np.ndarray) -> np.ndarray:
        return np.log10(v) if log_x else v

    x_lo, x_hi = float(tx(xs_all).min()), float(tx(xs_all).max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    ys = []
    for r in rows:
        m, s = getattr(r, mean_field), getattr(r, se_field)
        if np.isfinite(m):
            ys.extend([m - (s if np.isfinite(s) else 0.0), m + (s if np.isfinite(s) else 0.0)])
    if not ys:
        raise InvalidConfigError(f"no finite values for metric {metric!r}")
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        pad = max(0.1, abs(y_hi) * 0.1)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(v: float) -> float:
        return _ML + (tx(np.array([v]))[0] - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MT + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    # Axis ticks.
    if log_x:
        lo_dec = int(np.floor(np.log10(xs_all.min())))
        hi_dec = int(np.ceil(np.log10(xs_all.max())))
        x_ticks = [10.0**k for k in range(lo_dec, hi_dec + 1)]
    else:
        x_ticks = list(np.linspace(xs_all.min(), xs_all.max(), min(5, max(2, len(xs_all)))))
    for t in x_ticks:
        x = px(t)
        parts.append(
            f'<line x1="{_f(x)}" y1="{_MT + plot_h}" x2="{_f(x)}" '
            f'y2="{_MT + plot_h + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_f(x)}" y="{_MT + plot_h + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{_tick_label(t)}</text>'
        )
    for t in np.linspace(y_lo, y_hi, 5):
        y = py(float(t))
        parts.append(
            f'<line x1="{_ML - 5}" y1="{_f(y)}" x2="{_ML}" y2="{_f(y)}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{_f(y + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_tick_label(float(t))}</text>'
        )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.2f}" y="{_H - 14}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">knob value{" (log scale)" if log_x else ""}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + plot_h / 2:.2f}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {_MT + plot_h / 2:.2f})">{ylabel}</text>'
    )

    # Bands, lines, markers.
    for li, learner in enumerate(learners):
        color = _PALETTE[li % len(_PALETTE)]
        sub = sorted(
            (r for r in rows if r.learner == learner and np.isfinite(getattr(r, mean_field))),
            key=lambda r: r.knob_value,
        )
        if not sub:
            continue
        pts = [(px(r.knob_value), py(getattr(r, mean_field))) for r in sub]
        ses = [getattr(r, se_field) if np.isfinite(getattr(r, se_field)) else 0.0 for r in sub]
        if len(sub) > 1:
            upper = [
                f"{_f(px(r.knob_value))},{_f(py(getattr(r, mean_field) + s))}"
                for r, s in zip(sub, ses)
            ]
            lower = [
                f"{_f(px(r.knob_value))},{_f(py(getattr(r, mean_field) - s))}"
                for r, s in zip(reversed(sub), reversed(ses))
            ]
            parts.append(
                f'<polygon points="{" ".join(upper + lower)}" fill="{color}" '
                'fill-opacity="0.15" stroke="none"/>'
            )
            line = " ".join(f"{_f(x)},{_f(y)}" for x, y in pts)
            parts.append(
                f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for x, y in pts:
            parts.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="3" fill="{color}"/>')
        ly = _MT + 14 + 16 * li
        lx = _ML + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" font-size="11">'
            f"{learner}</text>"
        )

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
