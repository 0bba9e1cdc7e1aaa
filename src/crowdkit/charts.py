"""Deterministic chart files (SVG or self-contained HTML) from collector JSON.

Every chart is a pure function of its inputs: fixed palette, fixed layout,
no timestamps — identical inputs give byte-identical files. Inputs are read
and checked by the collect module: a plain, mean-merged or labelled collector
document whose every series a run could have written (``check_collector``),
else ``CollectError``. This module only flattens and draws: map-valued series
fan out into one plotted series per key; labelled documents plot one series
per label. Kinds: line, bar, area, scatter. An input with no entries still
renders axes (and no marks). The value axis always includes 0, so bars and
areas rise or hang from a baseline inside the plot. Every element below the
``<svg>`` root is written by the one element writer ``_tag``.
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
    map key, named ``<label>.<key>`` in a labelled document. An int past the float range is a ``CollectError``."""
    labeled = isinstance(document, dict) and document.get("aggregation") == "labeled"
    out = []
    for label, entries in check_collector(document, "chart input", labeled):
        first = entries[0]["value"] if entries else None
        try:
            if not isinstance(first, dict):
                out.append((label, [(float(e["iteration"]), float(e["value"])) for e in entries]))
                continue
            for key in first:
                name = f"{label}.{key}" if labeled and key != label else key
                out.append((name, [(float(e["iteration"]), float(e["value"][key])) for e in entries]))
        except OverflowError:  # an int of 309 digits or more
            raise CollectError(f"cannot chart series {label!r}: an int in it passes the float maximum") from None
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
        if t + step == t:  # the step is below the float spacing at t
            break
        t += step
    return ticks or [lo]


def _scale(lo: float, hi: float, out_lo: float, out_hi: float):
    if hi <= lo:
        hi = lo + max(1.0, math.ulp(lo))  # past 2**53, lo + 1.0 rounds back to lo
    return lambda v: out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def _tag(name: str, text: str | None = None, **attrs) -> str:
    """One SVG element on its own line: numbers go through ``_fmt``, strings as they are, ``_`` in a name as ``-``."""
    head = name + "".join(f' {k.replace("_", "-")}="{v if isinstance(v, str) else _fmt(v)}"' for k, v in attrs.items())
    return f"<{head}/>\n" if text is None else f"<{head}>{_escape(text)}</{name}>\n"


def render_chart(series: list[tuple[str, list[tuple[float, float]]]], kind: str, title: str = "") -> str:
    """Render series to a complete SVG document string; the value axis always includes 0."""
    if kind not in CHART_KINDS:
        raise CollectError(f"unknown chart kind {kind!r} (valid: {', '.join(CHART_KINDS)})")
    left = MARGIN_LEFT
    right = WIDTH - MARGIN_RIGHT
    top = MARGIN_TOP
    bottom = HEIGHT - MARGIN_BOTTOM

    xs = [x for _, points in series for x, _ in points]
    ys = [y for _, points in series for _, y in points]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = min(ys + [0.0]), max(ys + [0.0])
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = (y_hi - y_lo) * 0.05
    y_hi += pad
    if y_lo < 0:
        y_lo -= pad
    if not math.isfinite(max(x_hi - x_lo, y_hi - y_lo)):
        raise CollectError(f"cannot chart x {x_lo!r}..{x_hi!r}, y {min(ys)!r}..{max(ys)!r}: past the float maximum")

    sx = _scale(x_lo, x_hi, left, right)
    sy = _scale(y_lo, y_hi, bottom, top)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica, Arial, sans-serif">\n',
        _tag("rect", width=WIDTH, height=HEIGHT, fill="#ffffff"),
    ]
    if title:
        out.append(_tag("text", title, x=WIDTH // 2, y=24, text_anchor="middle", font_size=16, fill=TEXT_COLOR))

    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        out.append(_tag("line", x1=left, y1=y, x2=right, y2=y, stroke=GRID_COLOR, stroke_width=1))
        out.append(_tag("text", _fmt(t), x=left - 8, y=y + 4, text_anchor="end", font_size=11, fill=TEXT_COLOR))
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        out.append(_tag("line", x1=x, y1=bottom, x2=x, y2=bottom + 5, stroke=AXIS_COLOR, stroke_width=1))
        out.append(_tag("text", _fmt(t), x=x, y=bottom + 20, text_anchor="middle", font_size=11, fill=TEXT_COLOR))
    out.append(_tag("line", x1=left, y1=bottom, x2=right, y2=bottom, stroke=AXIS_COLOR, stroke_width=1.5))
    out.append(_tag("line", x1=left, y1=top, x2=left, y2=bottom, stroke=AXIS_COLOR, stroke_width=1.5))
    out.append(_tag("text", "iteration", x=(left + right) // 2, y=HEIGHT - 12, text_anchor="middle", font_size=12,
                    fill=TEXT_COLOR))

    baseline = sy(0.0)
    n_series = max(len(series), 1)
    for idx, (_, points) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        if not points:
            continue
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in points)
        if kind == "line":
            out.append(_tag("polyline", points=coords, fill="none", stroke=color, stroke_width=2))
        elif kind == "area":
            first, last = (f"{_fmt(sx(points[i][0]))},{_fmt(baseline)}" for i in (0, -1))
            out.append(_tag("polygon", points=f"{first} {coords} {last}", fill=color, fill_opacity=0.35,
                            stroke=color, stroke_width=1.5))
        elif kind == "scatter":
            out += [_tag("circle", cx=sx(x), cy=sy(y), r=3, fill=color) for x, y in points]
        else:  # bar
            bar_w = max((right - left) / len(points) / (n_series + 1), 0.5)
            for x, y in points:
                out.append(_tag("rect", x=sx(x) - (n_series * bar_w) / 2 + idx * bar_w, y=min(sy(y), baseline),
                                width=bar_w, height=abs(baseline - sy(y)), fill=color))

    for idx, (label, _) in enumerate(series):
        y = top + 4 + idx * 18
        out.append(_tag("rect", x=right - 150, y=y, width=12, height=12, fill=PALETTE[idx % len(PALETTE)]))
        out.append(_tag("text", label, x=right - 150 + 18, y=y + 10, font_size=12, fill=TEXT_COLOR))
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
    """Render one chart of every series in the collector JSON files ``input_paths`` (a missing one is a
    ``CollectError``) and write it to ``out_path``: HTML for a .html or .htm suffix, else SVG."""
    series = []
    for path in map(Path, input_paths):
        if not path.is_file():
            raise CollectError(f"no such chart input: {path}")
        series.extend(extract_series(_load_json(path)))
    if title is None:
        title = Path(out_path).stem
    svg = render_chart(series, kind, title=title)
    out = Path(out_path)
    write_atomic(out, render_html(svg, title) if out.suffix.lower() in (".html", ".htm") else svg)
    return out
