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
    """A coordinate: a float to two decimals, an int as it is."""
    return f"{value:.2f}" if isinstance(value, float) else str(value)


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

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]

    def line(x1, y1, x2, y2, stroke: str, width: float, dasharray: str | None = None) -> None:
        dash = "" if dasharray is None else f' stroke-dasharray="{dasharray}"'
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{dash}/>'
        )

    def circle(cx, cy) -> None:
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.5" fill="{_MEAN_COLOR}"/>')

    def text(x, y, size: int, body: str, anchor: str | None = None, transform: str | None = None) -> None:
        align = "" if anchor is None else f' text-anchor="{anchor}"'
        turn = "" if transform is None else f' transform="{transform}"'
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}"{align} font-family="sans-serif" '
            f'font-size="{size}" fill="{_AXIS_COLOR}"{turn}>{body}</text>'
        )

    text(_WIDTH // 2, 22, 14, "Score threshold over distance", "middle")

    # grid and ticks
    tick = 0.0
    while tick <= x_max + 1e-9:
        line(sx(tick), sy(0.0), sx(tick), sy(1.0), _GRID_COLOR, 1)
        text(sx(tick), sy(0.0) + 18, 11, _metres(tick), "middle")
        tick += spec.bin_width
    for i in range(11):
        v = i / 10.0
        line(sx(0.0), sy(v), sx(x_max), sy(v), _GRID_COLOR, 1)
        text(sx(0.0) - 8, sy(v) + 4, 11, f"{v:.1f}", "end")

    # std band over consecutive occupied bins
    occupied = [b for b in bins if b.count > 0]
    for group in _consecutive_groups(occupied):
        if len(group) < 2:
            continue
        upper = [(spec.center(b.bin_index), min(b.mean + b.std, 1.0)) for b in group]
        lower = [(spec.center(b.bin_index), max(b.mean - b.std, 0.0)) for b in reversed(group)]
        points = " ".join(f"{sx(d):.2f},{sy(v):.2f}" for d, v in upper + lower)
        parts.append(f'<polygon points="{points}" fill="{_BAND_COLOR}" fill-opacity="0.25" stroke="none"/>')

    # threshold curve: quadratic branch, then the flat tail beyond delta
    samples = _sample_range(0.0, min(model.delta, x_max), step=_CURVE_STEP)
    curve = " ".join(f"{sx(d):.2f},{sy(model.threshold_at(d)):.2f}" for d in samples)
    parts.append(f'<polyline points="{curve}" fill="none" stroke="{_CURVE_COLOR}" stroke-width="2"/>')
    if x_max > model.delta:
        line(sx(model.delta), sy(model.k), sx(x_max), sy(model.k), _CURVE_COLOR, 2)
        line(sx(model.delta), sy(0.0), sx(model.delta), sy(1.0), _AXIS_COLOR, 1, "4 3")

    # bin means on top of the band
    for b in occupied:
        circle(sx(spec.center(b.bin_index)), sy(min(max(b.mean, 0.0), 1.0)))

    # axes
    line(sx(0.0), sy(0.0), sx(x_max), sy(0.0), _AXIS_COLOR, 1.5)
    line(sx(0.0), sy(0.0), sx(0.0), sy(1.0), _AXIS_COLOR, 1.5)
    text((_MARGIN_L + _WIDTH - _MARGIN_R) // 2, _HEIGHT - 10, 12, "distance (m)", "middle")
    mid_y = (_MARGIN_T + _HEIGHT - _MARGIN_B) // 2
    text(16, mid_y, 12, "score", "middle", f"rotate(-90 16 {mid_y})")

    # legend
    lx = _MARGIN_L + 12
    ly = _MARGIN_T + 12
    line(lx, ly, lx + 22, ly, _CURVE_COLOR, 2)
    text(lx + 28, ly + 4, 11, "threshold")
    if occupied:
        circle(lx + 11, ly + 16)
        text(lx + 28, ly + 20, 11, "bin mean &#177; std")
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
