"""Reference for the fuzzy segment and polygon memberships.

``edge_values`` below is ``plane_geometry._edge_values`` as it stood before
the support-box cull: every (point, edge) pair runs the full candidate solve
and membership evaluation.  The culled routine must reproduce its bits
exactly, on every point of every batch.
"""
from typing import Sequence

import numpy as np

from fuzzyblock.plane_geometry import _CRISP_SLACK, _WIDEN, FuzzyPoint, _knots, _membership


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
