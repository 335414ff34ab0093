"""Reference for the fuzzy segment and polygon memberships and rasters.

``edge_values`` below is ``plane_geometry._edge_values`` as it stood before
the support-box cull: every (point, edge) pair runs the full candidate solve
and membership evaluation.  The culled routine must reproduce its bits
exactly, on every point of every batch.

``row_edge_values`` and ``raster_membership`` are the culled routine and the
raster as they stood before the whole-grid evaluation: one call per grid
row, all of a row's live pairs solved at once with (pair, lambda, coord,
knot) axes, and each point's pair values folded by ``np.maximum.at`` into
zeros.  The whole-grid raster, in any pair chunks, must reproduce their
bits, signed zeros included.
"""
from typing import Sequence

import numpy as np

from fuzzyblock.plane_geometry import (
    _CRISP_SLACK,
    _WIDEN,
    FuzzyLineImplicit,
    FuzzyLineSlope,
    FuzzyPoint,
    FuzzyPolygon,
    FuzzySegment,
    FuzzyShape,
    _knots,
    _line_values,
    _membership,
    _slope_values,
)


def edge_values(
    ends: Sequence[tuple[FuzzyPoint, FuzzyPoint]], px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """Largest membership over the fuzzy segments joining each pair in ``ends``.

    The x and y trapezoids of the segment point at lambda have knots
    q + lambda * (p - q), so the point's membership at lambda is the smaller
    of two piecewise linear-fractional functions of lambda; their largest
    value is attained at one of the candidates evaluated here.
    """
    pk = np.array([[_knots(p.x), _knots(p.y)] for p, _ in ends])  # (E, 2, 4)
    qk = np.array([[_knots(q.x), _knots(q.y)] for _, q in ends])
    pt = np.stack([px, py], axis=-1)[:, None, :, None]  # (N, 1, 2, 1)
    biggest = max(np.abs(pk).max(), np.abs(qk).max())
    scale = 1.0 + np.maximum(np.maximum(np.abs(px), np.abs(py)), biggest)
    q0 = qk + (_CRISP_SLACK * scale)[:, None, None, None] * _WIDEN  # knots at lambda = 0
    dq = pk - qk  # knot change per unit of lambda
    n = len(px)
    # lambda at which each unwidened knot passes the point (at a step it then
    # lies inside the widened core); a quotient is only formed where it lies in
    # [-1, 1]: the rest clip to the 0 and 1 kept anyway, and a tiny divisor would overflow
    gap = pt - qk
    passes = np.divide(
        gap, dq, out=np.zeros(q0.shape), where=(dq != 0.0) & (np.abs(gap) <= np.abs(dq))
    )
    # rising and falling ramps as (n0 + n1 l) / (d0 + d1 l), axes (N, E, coord, ramp)
    n0 = np.stack([pt[..., 0] - q0[..., 0], q0[..., 3] - pt[..., 0]], axis=-1)
    n1 = np.stack([-dq[..., 0], dq[..., 3]], axis=-1)
    d0 = np.stack([q0[..., 1] - q0[..., 0], q0[..., 3] - q0[..., 2]], axis=-1)
    d1 = np.stack([dq[..., 1] - dq[..., 0], dq[..., 3] - dq[..., 2]], axis=-1)
    # an x ramp crosses a y ramp where nx * dy - ny * dx = a l^2 + b l + c = 0
    n0x, n0y = n0[..., 0, :, None], n0[..., 1, None, :]
    n1x, n1y = n1[..., 0, :, None], n1[..., 1, None, :]
    d0x, d0y = d0[..., 0, :, None], d0[..., 1, None, :]
    d1x, d1y = d1[..., 0, :, None], d1[..., 1, None, :]
    a = n1x * d1y - n1y * d1x
    b = n0x * d1y + n1x * d0y - n0y * d1x - n1y * d0x
    c = n0x * d0y - n0y * d0x
    disc = b * b - 4.0 * a * c
    real = disc >= 0.0
    h = -0.5 * (b + np.copysign(np.sqrt(np.where(real, disc, 0.0)), b))
    root1 = np.divide(
        h, a, out=np.zeros(h.shape), where=real & (a != 0.0) & (np.abs(h) <= np.abs(a))
    )
    root2 = np.divide(
        c, h, out=np.zeros(h.shape), where=real & (h != 0.0) & (np.abs(c) <= np.abs(h))
    )
    cand = np.concatenate(
        [
            np.broadcast_to([0.0, 1.0], (n, len(ends), 2)),
            passes.reshape(n, -1, 8),
            root1.reshape(n, -1, 4),
            root2.reshape(n, -1, 4),
        ],
        axis=-1,
    )
    cand = np.sort(np.clip(cand, 0.0, 1.0), axis=-1)
    lam = np.concatenate([cand, 0.5 * (cand[..., 1:] + cand[..., :-1])], axis=-1)
    knots = q0[:, :, None] + lam[..., None, None] * dq[:, None]  # (N, E, L, 2, 4)
    mu = _membership(knots, pt[:, :, None, :, 0])
    return mu.min(axis=-1).max(axis=(-1, -2))


def row_edge_values(
    ends: Sequence[tuple[FuzzyPoint, FuzzyPoint]], px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """Largest membership over the fuzzy segments joining each pair in ``ends``.

    The x and y trapezoids of the segment point at lambda have knots
    q + lambda * (p - q), so the point's membership at lambda is the smaller
    of two piecewise linear-fractional functions of lambda; their largest
    value is attained at one of the candidates evaluated here.  Only the
    (point, edge) pairs inside the edge's widened support box are solved.
    """
    pk = np.array([[_knots(p.x), _knots(p.y)] for p, _ in ends])  # (E, 2, 4)
    qk = np.array([[_knots(q.x), _knots(q.y)] for _, q in ends])
    pt = np.stack([px, py], axis=-1)  # (N, 2)
    biggest = max(np.abs(pk).max(), np.abs(qk).max())
    scale = 1.0 + np.maximum(np.maximum(np.abs(px), np.abs(py)), biggest)
    # a pair whose point lies outside the support box by twice the widening
    # reads exactly 0 (see the module docstring); only the K live pairs are solved
    margin = (2.0 * _CRISP_SLACK * scale)[:, None, None]
    outside = (pt[:, None] < np.minimum(pk, qk)[..., 0] - margin) | (
        pt[:, None] > np.maximum(pk, qk)[..., 3] + margin
    )
    point, edge = np.nonzero(~outside.any(axis=-1))
    pt, pk, qk = pt[point][..., None], pk[edge], qk[edge]  # (K, 2, 1), (K, 2, 4)
    q0 = qk + (_CRISP_SLACK * scale[point])[:, None, None] * _WIDEN  # knots at lambda = 0
    dq = pk - qk  # knot change per unit of lambda
    n = len(point)
    # lambda at which each unwidened knot passes the point (at a step it then
    # lies inside the widened core); a quotient is only formed where it lies in
    # [-1, 1]: the rest clip to the 0 and 1 kept anyway, and a tiny divisor would overflow
    gap = pt - qk
    passes = np.divide(
        gap, dq, out=np.zeros(q0.shape), where=(dq != 0.0) & (np.abs(gap) <= np.abs(dq))
    )
    # rising and falling ramps as (n0 + n1 l) / (d0 + d1 l), axes (K, coord, ramp)
    n0 = np.stack([pt[..., 0] - q0[..., 0], q0[..., 3] - pt[..., 0]], axis=-1)
    n1 = np.stack([-dq[..., 0], dq[..., 3]], axis=-1)
    d0 = np.stack([q0[..., 1] - q0[..., 0], q0[..., 3] - q0[..., 2]], axis=-1)
    d1 = np.stack([dq[..., 1] - dq[..., 0], dq[..., 3] - dq[..., 2]], axis=-1)
    # an x ramp crosses a y ramp where nx * dy - ny * dx = a l^2 + b l + c = 0
    n0x, n0y = n0[..., 0, :, None], n0[..., 1, None, :]
    n1x, n1y = n1[..., 0, :, None], n1[..., 1, None, :]
    d0x, d0y = d0[..., 0, :, None], d0[..., 1, None, :]
    d1x, d1y = d1[..., 0, :, None], d1[..., 1, None, :]
    a = n1x * d1y - n1y * d1x
    b = n0x * d1y + n1x * d0y - n0y * d1x - n1y * d0x
    c = n0x * d0y - n0y * d0x
    disc = b * b - 4.0 * a * c
    real = disc >= 0.0
    h = -0.5 * (b + np.copysign(np.sqrt(np.where(real, disc, 0.0)), b))
    root1 = np.divide(
        h, a, out=np.zeros(h.shape), where=real & (a != 0.0) & (np.abs(h) <= np.abs(a))
    )
    root2 = np.divide(
        c, h, out=np.zeros(h.shape), where=real & (h != 0.0) & (np.abs(c) <= np.abs(h))
    )
    cand = np.concatenate(
        [
            np.broadcast_to([0.0, 1.0], (n, 2)),
            passes.reshape(n, 8),
            root1.reshape(n, 4),
            root2.reshape(n, 4),
        ],
        axis=-1,
    )
    cand = np.sort(np.clip(cand, 0.0, 1.0), axis=-1)
    lam = np.concatenate([cand, 0.5 * (cand[..., 1:] + cand[..., :-1])], axis=-1)
    knots = q0[:, None] + lam[..., None, None] * dq[:, None]  # (K, L, 2, 4)
    mu = _membership(knots, pt[:, None, :, 0])
    value = np.zeros(len(px))
    np.maximum.at(value, point, mu.min(axis=-1).max(axis=-1))
    return value


def _row_values(shape: FuzzyShape, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    if isinstance(shape, FuzzyLineImplicit):
        return _line_values(shape, px, py)
    if isinstance(shape, FuzzyLineSlope):
        return _slope_values(shape, px, py)
    if isinstance(shape, FuzzySegment):
        return row_edge_values([(shape.p, shape.q)], px, py)
    if isinstance(shape, FuzzyPolygon):
        v = shape.vertices
        return row_edge_values(list(zip(v, v[1:] + v[:1])), px, py)
    raise TypeError(f"unsupported shape {type(shape).__name__}")


def raster_membership(
    shape: FuzzyShape,
    bbox: tuple[float, float, float, float],
    nx: int,
    ny: int,
) -> np.ndarray:
    """Membership sampled at cell centers of an nx-by-ny grid over bbox.

    Returns an (ny, nx) array, rows ordered by increasing y.  Each row is
    one array evaluation, and every cell equals ``membership_at`` at its
    center bit for bit.  For segments and polygons a row solves only the
    cells inside an edge's support box widened by 2e-9 * scale; the others
    read 0 on that edge, exactly as the full solve gives, since rounding
    moves a knot by far less than the 1e-9 * scale knot widening.
    """
    xmin, ymin, xmax, ymax = bbox
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"degenerate bbox {bbox}")
    if nx < 2 or ny < 2:
        raise ValueError("nx and ny must be at least 2")
    dx = (xmax - xmin) / nx
    dy = (ymax - ymin) / ny
    xs = xmin + (np.arange(nx) + 0.5) * dx
    grid = np.zeros((ny, nx), dtype=float)
    for j in range(ny):
        grid[j] = _row_values(shape, xs, np.full(nx, ymin + (j + 0.5) * dy))
    return grid
