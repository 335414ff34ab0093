"""Reference for the heat-grid SVG.

``heat_grid_svg`` below is ``svg_out.heat_grid_svg`` as it stood before the
gray levels were computed in one array expression: per cell, the value is
clamped by ``min``/``max``, rounded by ``round`` and formatted into its
``fill``.  The array emitter must write the same string.
"""
import numpy as np

from fuzzyblock.svg_out import _document, _fmt


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
    body = []
    for j, values in enumerate(grid.tolist()):
        # SVG y grows downward; flip so the grid renders with y upward
        y = _fmt(-(ymin + (j + 1) * dy))
        for x, value in zip(xs, values):
            level = int(round(255 * (1.0 - min(1.0, max(0.0, value)))))
            body.append(f'<rect x="{x}" y="{y}" {size} fill="rgb({level},{level},{level})" />')
    viewbox = f"{_fmt(xmin)} {_fmt(-ymax)} {_fmt(xmax - xmin)} {_fmt(ymax - ymin)}"
    return _document(400, 400 * (ymax - ymin) / (xmax - xmin), viewbox, body)

