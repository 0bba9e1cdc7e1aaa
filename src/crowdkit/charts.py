"""Deterministic chart files (SVG or self-contained HTML) from collector JSON.

Every chart is a pure function of its inputs: fixed palette, fixed layout,
no timestamps — identical inputs give byte-identical files. Inputs are read
and checked by the collect module: a plain, mean-merged or labelled collector
document whose every series a run could have written (``check_collector``),
else ``CollectError``. This module only flattens and draws: map-valued series
fan out into one plotted series per key; labelled documents plot one series
per label. Kinds: line, bar, area, scatter. An input with no entries still
renders axes (and no marks).
"""

from __future__ import annotations

import math
from pathlib import Path

from .collect import _load_json, check_collector
from .errors import CollectError
from .graph import write_atomic

CHART_KINDS = ("line", "bar", "area", "scatter")

WIDTH = 800
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 24
MARGIN_TOP = 46
MARGIN_BOTTOM = 54

PALETTE = (
    "#4c78a8",
    "#f58518",
    "#54a24b",
    "#e45756",
    "#72b7b2",
    "#eeca3b",
    "#b279a2",
    "#ff9da6",
    "#9d755d",
    "#bab0ac",
)

AXIS_COLOR = "#444444"
GRID_COLOR = "#dddddd"
TEXT_COLOR = "#222222"


def _fmt(value: float) -> str:
    """Stable short decimal formatting for coordinates and tick labels."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


# ---------------------------------------------------------------------------
# Series extraction.
# ---------------------------------------------------------------------------


def extract_series(document: dict) -> list[tuple[str, list[tuple[float, float]]]]:
    """Flatten a collector document, checked by ``check_collector``, into [(label, points)] pairs: one series per
    map key, named ``<label>.<key>`` in a labelled document."""
    labeled = isinstance(document, dict) and document.get("aggregation") == "labeled"
    out = []
    for label, entries in check_collector(document, "chart input", labeled):
        first = entries[0]["value"] if entries else None
        if not isinstance(first, dict):
            out.append((label, [(float(e["iteration"]), float(e["value"])) for e in entries]))
            continue
        for key in first:
            name = f"{label}.{key}" if labeled and key != label else key
            out.append((name, [(float(e["iteration"]), float(e["value"][key])) for e in entries]))
    return out


def load_chart_series(paths) -> list[tuple[str, list[tuple[float, float]]]]:
    out = []
    for path in map(Path, paths):
        if not path.is_file():
            raise CollectError(f"no such chart input: {path}")
        out.extend(extract_series(_load_json(path)))
    return out


# ---------------------------------------------------------------------------
# Scales and ticks.
# ---------------------------------------------------------------------------


def _nice_step(span: float, target: int = 5) -> float:
    if span <= 0:
        return 1.0
    raw = span / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(round(t, 10))
        t += step
    return ticks or [lo]


class _Scale:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.out_lo, self.out_hi = out_lo, out_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + frac * (self.out_hi - self.out_lo)


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def render_chart(series: list[tuple[str, list[tuple[float, float]]]], kind: str, title: str = "") -> str:
    """Render series to a complete SVG document string."""
    if kind not in CHART_KINDS:
        raise CollectError(f"unknown chart kind {kind!r} (valid: {', '.join(CHART_KINDS)})")
    plot_left = MARGIN_LEFT
    plot_right = WIDTH - MARGIN_RIGHT
    plot_top = MARGIN_TOP
    plot_bottom = HEIGHT - MARGIN_BOTTOM

    xs = [x for _, points in series for x, _ in points]
    ys = [y for _, points in series for _, y in points]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys + [0.0]), max(ys)) if ys else (0.0, 1.0)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = (y_hi - y_lo) * 0.05
    y_hi += pad
    if y_lo < 0:
        y_lo -= pad

    sx = _Scale(x_lo, x_hi, plot_left, plot_right)
    sy = _Scale(y_lo, y_hi, plot_bottom, plot_top)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica, Arial, sans-serif">\n',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-size="16" '
            f'fill="{TEXT_COLOR}">{_escape(title)}</text>\n'
        )

    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        out.append(
            f'<line x1="{plot_left}" y1="{_fmt(y)}" x2="{plot_right}" y2="{_fmt(y)}" '
            f'stroke="{GRID_COLOR}" stroke-width="1"/>\n'
        )
        out.append(
            f'<text x="{plot_left - 8}" y="{_fmt(y + 4)}" text-anchor="end" font-size="11" '
            f'fill="{TEXT_COLOR}">{_fmt(t)}</text>\n'
        )
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{plot_bottom}" x2="{_fmt(x)}" y2="{plot_bottom + 5}" '
            f'stroke="{AXIS_COLOR}" stroke-width="1"/>\n'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{plot_bottom + 20}" text-anchor="middle" font-size="11" '
            f'fill="{TEXT_COLOR}">{_fmt(t)}</text>\n'
        )
    out.append(
        f'<line x1="{plot_left}" y1="{plot_bottom}" x2="{plot_right}" y2="{plot_bottom}" '
        f'stroke="{AXIS_COLOR}" stroke-width="1.5"/>\n'
    )
    out.append(
        f'<line x1="{plot_left}" y1="{plot_top}" x2="{plot_left}" y2="{plot_bottom}" '
        f'stroke="{AXIS_COLOR}" stroke-width="1.5"/>\n'
    )
    out.append(
        f'<text x="{(plot_left + plot_right) // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="12" fill="{TEXT_COLOR}">iteration</text>\n'
    )

    baseline = sy(max(0.0, y_lo))
    n_series = max(len(series), 1)
    for idx, (label, points) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        if not points:
            continue
        if kind == "line":
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in points)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>\n'
            )
        elif kind == "area":
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in points)
            first_x = _fmt(sx(points[0][0]))
            last_x = _fmt(sx(points[-1][0]))
            out.append(
                f'<polygon points="{first_x},{_fmt(baseline)} {coords} {last_x},{_fmt(baseline)}" '
                f'fill="{color}" fill-opacity="0.35" stroke="{color}" stroke-width="1.5"/>\n'
            )
        elif kind == "scatter":
            for x, y in points:
                out.append(
                    f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="{color}"/>\n'
                )
        else:  # bar
            slot = (plot_right - plot_left) / max(len(points), 1)
            bar_w = max(slot / (n_series + 1), 0.5)
            for x, y in points:
                cx = sx(x) - (n_series * bar_w) / 2 + idx * bar_w
                top = sy(y)
                lo = min(top, baseline)
                height = abs(baseline - top)
                out.append(
                    f'<rect x="{_fmt(cx)}" y="{_fmt(lo)}" width="{_fmt(bar_w)}" '
                    f'height="{_fmt(height)}" fill="{color}"/>\n'
                )

    legend_x = plot_right - 150
    legend_y = plot_top + 4
    for idx, (label, _) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        y = legend_y + idx * 18
        out.append(f'<rect x="{legend_x}" y="{y}" width="12" height="12" fill="{color}"/>\n')
        out.append(
            f'<text x="{legend_x + 18}" y="{y + 10}" font-size="12" '
            f'fill="{TEXT_COLOR}">{_escape(label)}</text>\n'
        )
    out.append("</svg>\n")
    return "".join(out)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_html(svg: str, title: str) -> str:
    return (
        "<!doctype html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>{_escape(title)}</title>\n</head>\n<body>\n{svg}</body>\n</html>\n"
    )


def write_chart(input_paths, kind: str, out_path, title: str | None = None) -> Path:
    """Load collector JSON inputs, render one chart, write SVG or HTML by extension."""
    series = load_chart_series(input_paths)
    if title is None:
        title = Path(out_path).stem
    svg = render_chart(series, kind, title=title)
    out = Path(out_path)
    write_atomic(out, render_html(svg, title) if out.suffix.lower() in (".html", ".htm") else svg)
    return out
