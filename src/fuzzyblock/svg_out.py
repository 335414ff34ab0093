"""Deterministic SVG emitters for damage maps, membership rasters, and series.

Low safety factors map to hot colors (red), high to cold (blue); membership
rasters render as a grayscale heat grid.  Output is byte-identical for
identical input: coordinates are formatted with fixed precision and nothing
depends on iteration order or time.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .kernel.tunnel import TunnelSection

# outer radius of the damage-map band, in section circumradii
_BAND_SCALE = 1.2
# fill of each heat-grid gray level, 0 black to 255 white
_GRAYS = [f"rgb({k},{k},{k})" for k in range(256)]


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def heat_color(value: float, cap: float) -> str:
    """Piecewise-linear blue -> yellow -> red ramp, inverted so low is red."""
    t = min(1.0, max(0.0, value / cap)) if cap > 0 else 1.0
    # t = 0 (low SF) hot red, t = 1 cold blue
    if t <= 0.5:
        u = t / 0.5
        r, g, b = 255, int(round(255 * u)), 0
    else:
        u = (t - 0.5) / 0.5
        r, g, b = int(round(255 * (1 - u))), int(round(255 * (1 - u))), int(round(255 * u))
    return f"rgb({r},{g},{b})"


def _document(width: float, height: float, viewbox: str, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="{viewbox}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def damage_map_svg(
    tunnel: TunnelSection,
    series: Sequence[tuple[float, float]],
    cap: float = 5.0,
) -> str:
    """Section outline with a colored band around it, one cell per angle bin.

    Empty input is rejected; cells are drawn in series order so the output is
    reproducible byte for byte.
    """
    if not series:
        raise ValueError("damage map series is empty")
    verts = tunnel.vertices
    cu, cw = tunnel.centroid
    radius = max(math.hypot(u - cu, w - cw) for u, w in verts)
    body = []
    bins = len(series)
    for i, (angle, value) in enumerate(series):
        a0 = math.radians(angle - 180.0 / bins)
        a1 = math.radians(angle + 180.0 / bins)
        pts = []
        for r in (radius * 1.02, radius * _BAND_SCALE):
            pts.append((cu + r * math.cos(a0), cw + r * math.sin(a0)))
            pts.append((cu + r * math.cos(a1), cw + r * math.sin(a1)))
        quad = [pts[0], pts[1], pts[3], pts[2]]
        path = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in quad)
        body.append(f'<polygon points="{path}" fill="{heat_color(value, cap)}" />')
    outline = " ".join(f"{_fmt(u)},{_fmt(-w)}" for u, w in verts)
    body.append(
        f'<polygon points="{outline}" fill="none" stroke="black" stroke-width="0.05" />'
    )
    extent = radius * _BAND_SCALE * 1.1
    viewbox = (
        f"{_fmt(cu - extent)} {_fmt(-cw - extent)} {_fmt(2 * extent)} {_fmt(2 * extent)}"
    )
    return _document(400, 400, viewbox, body)


def heat_grid_svg(
    grid: np.ndarray, bbox: tuple[float, float, float, float]
) -> str:
    """Grayscale rectangle grid of membership values in [0, 1]."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("raster grid is empty")
    xmin, ymin, xmax, ymax = bbox
    ny, nx = grid.shape
    dx = (xmax - xmin) / nx
    dy = (ymax - ymin) / ny
    xs = [_fmt(xmin + i * dx) for i in range(nx)]
    size = f'width="{_fmt(dx)}" height="{_fmt(dy)}"'
    # values clamp to [0, 1], NaN to 0; round half to even, as round() does
    levels = np.rint(255.0 * (1.0 - np.fmin(np.fmax(grid, 0.0), 1.0))).astype(int)
    body = []
    for j, row in enumerate(levels.tolist()):
        # SVG y grows downward; flip so the grid renders with y upward
        y = _fmt(-(ymin + (j + 1) * dy))
        body.extend(f'<rect x="{x}" y="{y}" {size} fill="{_GRAYS[k]}" />' for x, k in zip(xs, row))
    viewbox = f"{_fmt(xmin)} {_fmt(-ymax)} {_fmt(xmax - xmin)} {_fmt(ymax - ymin)}"
    return _document(400, 400 * (ymax - ymin) / (xmax - xmin), viewbox, body)


def polyline_svg(xs: Sequence[float], ys: Sequence[float]) -> str:
    """Minimal line chart of a numeric series (used by the generic plot command)."""
    if len(xs) == 0 or len(xs) != len(ys):
        raise ValueError("need matching nonempty x and y series")
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    W, H, pad = 480.0, 320.0, 40.0

    def sx(x: float) -> float:
        return pad + (x - xmin) / (xmax - xmin) * (W - 2 * pad)

    def sy(y: float) -> float:
        return H - pad - (y - ymin) / (ymax - ymin) * (H - 2 * pad)

    pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
    body = [
        f'<rect x="{_fmt(pad)}" y="{_fmt(pad)}" width="{_fmt(W - 2 * pad)}" '
        f'height="{_fmt(H - 2 * pad)}" fill="none" stroke="black" stroke-width="1" />',
        f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="1.5" />',
        f'<text x="{_fmt(pad)}" y="{_fmt(H - pad + 16)}" font-size="10">{_fmt(xmin)}</text>',
        f'<text x="{_fmt(W - pad)}" y="{_fmt(H - pad + 16)}" font-size="10" '
        f'text-anchor="end">{_fmt(xmax)}</text>',
        f'<text x="{_fmt(pad - 4)}" y="{_fmt(H - pad)}" font-size="10" '
        f'text-anchor="end">{_fmt(ymin)}</text>',
        f'<text x="{_fmt(pad - 4)}" y="{_fmt(pad + 4)}" font-size="10" '
        f'text-anchor="end">{_fmt(ymax)}</text>',
    ]
    return _document(W, H, f"0 0 {_fmt(W)} {_fmt(H)}", body)
