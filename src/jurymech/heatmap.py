"""SVG heatmaps of sweep results.

Correctness maps linearly onto a red-white-green scale: 0 is pure red, 0.5
pure white, 1 pure green.  Channel values are rounded half-down, so 0.25
gives #FF7F7F rather than #FF8080.
"""

from __future__ import annotations

import math

from .sweep import Axis, SweepResult

_AXIS_LABELS = {
    Axis.REWARD_THRESHOLD: "reward per majority juror",
    Axis.REWARD_AWARD_LOSS: "total award",
    Axis.INITIAL_EFFORT: "initial effort",
}

_PLOT = 520  # plot area is square, in px
_LEFT, _TOP = 70, 20
_LEGEND_GAP, _LEGEND_W = 30, 18
_BOTTOM_PAD, _RIGHT_PAD = 55, 60


def _round_half_down(v: float) -> int:
    return math.ceil(v - 0.5)


def color_hex(value: float) -> str:
    """Red(0) to white(0.5) to green(1), 8-bit channels."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"correctness must lie in [0, 1], got {value}")
    if value <= 0.5:
        side = _round_half_down(510.0 * value)
        r, g, b = 255, side, side
    else:
        side = _round_half_down(510.0 * (1.0 - value))
        r, g, b = side, 255, side
    return f"#{r:02X}{g:02X}{b:02X}"


def _text(x: float, y: float, s: str, anchor: str = "middle", rotate: bool = False) -> str:
    transform = f' transform="rotate(-90 {x:.1f} {y:.1f})"' if rotate else ""
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-family="sans-serif" font-size="13" '
        f'text-anchor="{anchor}"{transform}>{s}</text>'
    )


def render_heatmap(result: SweepResult, path: str) -> None:
    """Write one rect per grid cell plus axes and a legend bar."""
    config = result.config
    rows, cols = result.grid.shape
    cell_w = _PLOT / cols
    cell_h = _PLOT / rows
    width = _LEFT + _PLOT + _LEGEND_GAP + _LEGEND_W + _RIGHT_PAD
    height = _TOP + _PLOT + _BOTTOM_PAD

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]

    # Cells: rho grows upward, the x parameter grows rightward.
    for i in range(rows):
        y = _TOP + _PLOT - (i + 1) * cell_h
        for j in range(cols):
            x = _LEFT + j * cell_w
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" '
                f'height="{cell_h:.2f}" fill="{color_hex(float(result.grid[i, j]))}"/>'
            )

    parts.append(
        f'<rect x="{_LEFT}" y="{_TOP}" width="{_PLOT}" height="{_PLOT}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )

    xs = config.x_values()
    for frac in (0.0, 0.5, 1.0):
        px = _LEFT + frac * _PLOT
        value = xs[0] + frac * (xs[-1] - xs[0])
        parts.append(_text(px, _TOP + _PLOT + 18, f"{value:g}"))
        py = _TOP + _PLOT - frac * _PLOT
        parts.append(_text(_LEFT - 8, py + 4, f"{frac:g}", anchor="end"))

    parts.append(_text(_LEFT + _PLOT / 2, height - 14, _AXIS_LABELS[config.axis]))
    parts.append(_text(18, _TOP + _PLOT / 2, "fraction well-informed", rotate=True))

    # Legend: vertical correctness scale, red at the bottom, green on top.
    lx = _LEFT + _PLOT + _LEGEND_GAP
    strips = 100
    strip_h = _PLOT / strips
    for k in range(strips):
        value = (k + 0.5) / strips
        y = _TOP + _PLOT - (k + 1) * strip_h
        parts.append(
            f'<rect x="{lx}" y="{y:.2f}" width="{_LEGEND_W}" '
            f'height="{strip_h:.2f}" fill="{color_hex(value)}"/>'
        )
    parts.append(
        f'<rect x="{lx}" y="{_TOP}" width="{_LEGEND_W}" height="{_PLOT}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for frac, label in ((0.0, "0"), (0.5, "0.5"), (1.0, "1")):
        py = _TOP + _PLOT - frac * _PLOT
        parts.append(_text(lx + _LEGEND_W + 6, py + 4, label, anchor="start"))
    parts.append(_text(lx + _LEGEND_W + 6, _TOP - 6, "correctness", anchor="start"))

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(parts) + "\n")
