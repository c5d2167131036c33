"""Textual report rendering: SVG threshold curve and markdown summary.

The SVG is generated directly (no plotting dependency) with fixed float
formatting, so identical inputs give identical bytes and the output
diffs cleanly in golden tests.
"""

from __future__ import annotations

from .bin_stats import MAX_BINS, BinSpec, BinStats
from .threshold import ThresholdModel

_WIDTH = 720
_HEIGHT = 440
_MARGIN_L = 64
_MARGIN_R = 24
_MARGIN_T = 36
_MARGIN_B = 52

_CURVE_COLOR = "#1f4e9c"
_MEAN_COLOR = "#c0392b"
_BAND_COLOR = "#2ecc71"
_AXIS_COLOR = "#444444"
_GRID_COLOR = "#dddddd"

_CURVE_STEP = 0.5  # meters between curve samples


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _metres(value: float) -> str:
    """A distance label: a whole number without decimals, any other value
    to 12 significant digits (2.5 reads 2.5, and 0.1 + 0.2 reads 0.3)."""
    return f"{value:.0f}" if value.is_integer() else f"{value:.12g}"


def render_threshold_svg(
    model: ThresholdModel,
    bins: list[BinStats] | None = None,
    bin_spec: BinSpec | None = None,
) -> str:
    """Threshold-over-distance plot with optional bin means and a std band;
    ValueError when the axis needs more than MAX_BINS ticks or curve samples."""
    bins = bins or []
    spec = bin_spec if bin_spec is not None else BinSpec()
    x_max = max(spec.max_distance, model.delta)
    steps = max(x_max / spec.bin_width, model.delta / _CURVE_STEP)
    if steps > MAX_BINS + 0.5:
        raise ValueError(f"delta {model.delta:g} m needs {steps:.6g} plot ticks or curve samples, more than {MAX_BINS}")
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(d: float) -> float:
        return _MARGIN_L + plot_w * d / x_max

    def sy(v: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - v)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    parts.append(
        f'<text x="{_WIDTH / 2:.0f}" y="22" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14" fill="{_AXIS_COLOR}">Score threshold over distance</text>'
    )

    # grid and ticks
    tick = 0.0
    while tick <= x_max + 1e-9:
        x = sx(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{sy(0.0):.2f}" x2="{_fmt(x)}" y2="{sy(1.0):.2f}" '
            f'stroke="{_GRID_COLOR}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{sy(0.0) + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="{_AXIS_COLOR}">{_metres(tick)}</text>'
        )
        tick += spec.bin_width
    for i in range(11):
        v = i / 10.0
        y = sy(v)
        parts.append(
            f'<line x1="{sx(0.0):.2f}" y1="{_fmt(y)}" x2="{sx(x_max):.2f}" y2="{_fmt(y)}" '
            f'stroke="{_GRID_COLOR}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{sx(0.0) - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{_AXIS_COLOR}">{v:.1f}</text>'
        )

    # std band over consecutive occupied bins
    occupied = [b for b in bins if b.count > 0]
    for group in _consecutive_groups(occupied):
        if len(group) < 2:
            continue
        upper = [
            (spec.center(b.bin_index), min(b.mean + b.std, 1.0)) for b in group
        ]
        lower = [
            (spec.center(b.bin_index), max(b.mean - b.std, 0.0)) for b in reversed(group)
        ]
        points = " ".join(f"{sx(d):.2f},{sy(v):.2f}" for d, v in upper + lower)
        parts.append(
            f'<polygon points="{points}" fill="{_BAND_COLOR}" fill-opacity="0.25" stroke="none"/>'
        )

    # threshold curve: quadratic branch, then the flat tail beyond delta
    quad_end = min(model.delta, x_max)
    samples = _sample_range(0.0, quad_end, step=_CURVE_STEP)
    curve = " ".join(f"{sx(d):.2f},{sy(model.threshold_at(d)):.2f}" for d in samples)
    parts.append(
        f'<polyline points="{curve}" fill="none" stroke="{_CURVE_COLOR}" stroke-width="2"/>'
    )
    if x_max > model.delta:
        y_k = sy(model.k)
        parts.append(
            f'<line x1="{sx(model.delta):.2f}" y1="{_fmt(y_k)}" x2="{sx(x_max):.2f}" '
            f'y2="{_fmt(y_k)}" stroke="{_CURVE_COLOR}" stroke-width="2"/>'
        )
        parts.append(
            f'<line x1="{sx(model.delta):.2f}" y1="{sy(0.0):.2f}" x2="{sx(model.delta):.2f}" '
            f'y2="{sy(1.0):.2f}" stroke="{_AXIS_COLOR}" stroke-width="1" stroke-dasharray="4 3"/>'
        )

    # bin means on top of the band
    for b in occupied:
        parts.append(
            f'<circle cx="{sx(spec.center(b.bin_index)):.2f}" cy="{sy(min(max(b.mean, 0.0), 1.0)):.2f}" '
            f'r="3.5" fill="{_MEAN_COLOR}"/>'
        )

    # axes
    parts.append(
        f'<line x1="{sx(0.0):.2f}" y1="{sy(0.0):.2f}" x2="{sx(x_max):.2f}" y2="{sy(0.0):.2f}" '
        f'stroke="{_AXIS_COLOR}" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{sx(0.0):.2f}" y1="{sy(0.0):.2f}" x2="{sx(0.0):.2f}" y2="{sy(1.0):.2f}" '
        f'stroke="{_AXIS_COLOR}" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.0f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12" '
        f'fill="{_AXIS_COLOR}">distance (m)</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="{_AXIS_COLOR}" '
        f'transform="rotate(-90 16 {(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2:.0f})">score</text>'
    )

    # legend
    lx = _MARGIN_L + 12
    ly = _MARGIN_T + 12
    parts.append(
        f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{_CURVE_COLOR}" stroke-width="2"/>'
    )
    parts.append(
        f'<text x="{lx + 28}" y="{ly + 4}" font-family="sans-serif" font-size="11" '
        f'fill="{_AXIS_COLOR}">threshold</text>'
    )
    if occupied:
        parts.append(f'<circle cx="{lx + 11}" cy="{ly + 16}" r="3.5" fill="{_MEAN_COLOR}"/>')
        parts.append(
            f'<text x="{lx + 28}" y="{ly + 20}" font-family="sans-serif" font-size="11" '
            f'fill="{_AXIS_COLOR}">bin mean &#177; std</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _sample_range(lo: float, hi: float, step: float) -> list[float]:
    values = []
    d = lo
    while d < hi:
        values.append(d)
        d += step
    values.append(hi)
    return values


def _consecutive_groups(bins: list[BinStats]) -> list[list[BinStats]]:
    groups: list[list[BinStats]] = []
    for b in sorted(bins, key=lambda s: s.bin_index):
        if groups and b.bin_index == groups[-1][-1].bin_index + 1:
            groups[-1].append(b)
        else:
            groups.append([b])
    return groups


def render_summary_md(
    model: ThresholdModel,
    bins: list[BinStats] | None = None,
    bin_spec: BinSpec | None = None,
) -> str:
    """Markdown companion to the SVG: parameters, endpoints, bin table."""
    spec = bin_spec if bin_spec is not None else BinSpec()
    lines = ["# Threshold model summary", ""]
    lines.append("| parameter | value |")
    lines.append("| --- | --- |")
    for name in ("alpha", "beta", "gamma", "delta", "k"):
        lines.append(f"| {name} | {getattr(model, name):.6g} |")
    lines.append("")
    lines.append(
        f"Threshold runs from {model.threshold_at(0.0):.4f} at 0 m to "
        f"{model.threshold_at(model.delta):.4f} at {_metres(model.delta)} m, then holds at "
        f"{model.k:.4f}."
    )
    lines.append("")
    if bins:
        lines.append("| bin | range (m) | count | mean | std |")
        lines.append("| --- | --- | --- | --- | --- |")
        for b in bins:
            lo, hi = spec.edges(b.bin_index)
            mean = "-" if b.mean is None else f"{b.mean:.4f}"
            std = "-" if b.std is None else f"{b.std:.4f}"
            lines.append(f"| {b.bin_index} | {_metres(lo)}-{_metres(hi)} | {b.count} | {mean} | {std} |")
    else:
        lines.append("No bin statistics were provided; the plot shows the curve only.")
    lines.append("")
    return "\n".join(lines)
