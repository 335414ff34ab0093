"""Fuzzy plane geometry: points, lines, segments, polygons, and fuzzy distance.

Every shape is a family of crisp sets indexed by alpha, and the membership
of a plane point is the largest alpha whose crisp set contains it.  By the
extension principle (Dubois & Prade, 1980) each such membership is the
membership of a linear combination of trapezoids, which is a trapezoid with
knots combined by sign as in ``fuzzy_numbers.linear_combine``, so every
value here has a closed form:

- line a*x + b*y = c: the membership of px*a + py*b - c at 0;
- slope line y = m*x + b: the membership of px*m + b at py;
- segment PQ: the largest value over lambda in [0, 1] of the smaller of
  the memberships of lambda*Px + (1 - lambda)*Qx at px and of
  lambda*Py + (1 - lambda)*Qy at py.  Both are piecewise linear-fractional
  in lambda, so the largest value lies at lambda = 0 or 1, where a knot
  passes the point, or where two ramps cross (a quadratic in lambda).  The
  midpoints between these candidates are evaluated too, so a point inside
  the alpha = 1 hull reads exactly 1;
- polygon: the largest value over its closing edges.  A fuzzy polygon is
  the union of its edges, not a filled region.

Segment knots are widened by 1e-9 * scale, where scale is 1 plus the
largest absolute point coordinate or knot of the shape, so that a point
that rounding puts a hair off a crisp segment still reads 1.  Every
function works on arrays of points; ``raster_membership`` evaluates one
grid row per call.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .fuzzy_numbers import AlphaInterval, SampledFuzzyNumber, TrapezoidalNumber

# relative widening of segment knots: the slack of the crisp segment test
_CRISP_SLACK = 1e-9
_WIDEN = np.array([-1.0, -1.0, 1.0, 1.0])


@dataclass(frozen=True)
class FuzzyPoint:
    """Plane point with trapezoidal coordinates; alpha-cuts are rectangles."""

    x: TrapezoidalNumber
    y: TrapezoidalNumber

    @classmethod
    def crisp(cls, x: float, y: float) -> "FuzzyPoint":
        return cls(TrapezoidalNumber.crisp(x), TrapezoidalNumber.crisp(y))

    def alpha_box(self, alpha: float) -> tuple[AlphaInterval, AlphaInterval]:
        return (self.x.alpha_cut(alpha), self.y.alpha_cut(alpha))


@dataclass(frozen=True)
class FuzzyLineImplicit:
    """Fuzzy line a*x + b*y = c with trapezoidal coefficients."""

    a: TrapezoidalNumber
    b: TrapezoidalNumber
    c: TrapezoidalNumber

    def __post_init__(self) -> None:
        if self.a.core == (0.0, 0.0) and self.b.core == (0.0, 0.0):
            raise ValueError("cores of a and b cannot both be exactly {0}")

    @classmethod
    def crisp(cls, a: float, b: float, c: float) -> "FuzzyLineImplicit":
        return cls(
            TrapezoidalNumber.crisp(a),
            TrapezoidalNumber.crisp(b),
            TrapezoidalNumber.crisp(c),
        )


@dataclass(frozen=True)
class FuzzyLineSlope:
    """Fuzzy line y = m*x + b in slope-intercept form."""

    m: TrapezoidalNumber
    b: TrapezoidalNumber


@dataclass(frozen=True)
class FuzzySegment:
    """All segments joining a point of P(alpha) to a point of Q(alpha)."""

    p: FuzzyPoint
    q: FuzzyPoint

    def __post_init__(self) -> None:
        px, py = self.p.x.core, self.p.y.core
        qx, qy = self.q.x.core, self.q.y.core
        if max(px[0], qx[0]) <= min(px[1], qx[1]) and max(py[0], qy[0]) <= min(py[1], qy[1]):
            warnings.warn(
                "fuzzy segment endpoints have overlapping cores", stacklevel=2
            )


@dataclass(frozen=True)
class FuzzyPolygon:
    """Closed loop of fuzzy vertices; the shape is the union of its edges."""

    vertices: tuple[FuzzyPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if len(self.vertices) < 3:
            raise ValueError("a fuzzy polygon needs at least 3 vertices")

    def edges(self) -> list[FuzzySegment]:
        n = len(self.vertices)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return [
                FuzzySegment(self.vertices[i], self.vertices[(i + 1) % n])
                for i in range(n)
            ]


FuzzyShape = Union[FuzzyLineImplicit, FuzzyLineSlope, FuzzySegment, FuzzyPolygon]


def _knots(t: TrapezoidalNumber) -> np.ndarray:
    return np.array(t.to_list())


def _scaled(knots: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Knots of k*T for each coefficient in k: in order for k >= 0, reversed below."""
    k = k[..., None]
    return np.where(k >= 0.0, k * knots, k * knots[..., ::-1])


def _membership(knots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Array form of ``TrapezoidalNumber.membership``; knots (..., 4) against x."""
    a1, a2, a3, a4 = np.moveaxis(knots, -1, 0)
    shape = np.broadcast_shapes(a1.shape, np.shape(x))
    rise = np.divide(x - a1, a2 - a1, out=np.zeros(shape), where=a2 > a1)
    fall = np.divide(a4 - x, a4 - a3, out=np.zeros(shape), where=a4 > a3)
    mu = np.where(x < a2, rise, np.where(x > a3, fall, 1.0))
    return np.where((x < a1) | (x > a4), 0.0, mu)


def _line_values(line: FuzzyLineImplicit, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    z = _scaled(_knots(line.a), px) + _scaled(_knots(line.b), py) - _knots(line.c)[::-1]
    return _membership(z, 0.0)


def _slope_values(line: FuzzyLineSlope, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    return _membership(_scaled(_knots(line.m), px) + _knots(line.b), py)


def _edge_values(
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
    # lambda at which each knot passes the point; a quotient is only formed
    # where it lies in [-1, 1], since the rest clip to the 0 and 1 kept anyway
    # and a tiny divisor would overflow
    gap = pt - q0
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


def _values(shape: FuzzyShape, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    if isinstance(shape, FuzzyLineImplicit):
        return _line_values(shape, px, py)
    if isinstance(shape, FuzzyLineSlope):
        return _slope_values(shape, px, py)
    if isinstance(shape, FuzzySegment):
        return _edge_values([(shape.p, shape.q)], px, py)
    if isinstance(shape, FuzzyPolygon):
        v = shape.vertices
        return _edge_values(list(zip(v, v[1:] + v[:1])), px, py)
    raise TypeError(f"unsupported shape {type(shape).__name__}")


def _at(values: Callable, shape: FuzzyShape, px: float, py: float) -> float:
    return float(values(shape, np.array([px], dtype=float), np.array([py], dtype=float))[0])


def line_membership(line: FuzzyLineImplicit, px: float, py: float) -> float:
    """Membership of (px, py) in the implicit fuzzy line."""
    return _at(_line_values, line, px, py)


def slope_line_membership(line: FuzzyLineSlope, px: float, py: float) -> float:
    """Membership of (px, py) in the slope-form fuzzy line y = m*x + b."""
    return _at(_slope_values, line, px, py)


def segment_membership(seg: FuzzySegment, px: float, py: float) -> float:
    """Membership of (px, py) in the fuzzy segment."""
    return _at(_values, seg, px, py)


def polygon_membership(poly: FuzzyPolygon, px: float, py: float) -> float:
    """Maximum membership over the polygon's closing edges."""
    return _at(_values, poly, px, py)


def membership_at(shape: FuzzyShape, px: float, py: float) -> float:
    return _at(_values, shape, px, py)


def _rect_distance_bounds(
    bx: AlphaInterval, by: AlphaInterval, cx: AlphaInterval, cy: AlphaInterval
) -> tuple[float, float]:
    """Exact [min, max] Euclidean distance between two axis-aligned rectangles."""
    gap_x = max(0.0, cx.lo - bx.hi, bx.lo - cx.hi)
    gap_y = max(0.0, cy.lo - by.hi, by.lo - cy.hi)
    far_x = max(abs(bx.lo - cx.hi), abs(bx.hi - cx.lo))
    far_y = max(abs(by.lo - cy.hi), abs(by.hi - cy.lo))
    return math.hypot(gap_x, gap_y), math.hypot(far_x, far_y)


def fuzzy_distance(p: FuzzyPoint, q: FuzzyPoint, levels: int = 11) -> SampledFuzzyNumber:
    """Fuzzy Euclidean distance between two fuzzy points.

    At each alpha the cut is the exact [min, max] distance between the two
    alpha-cut rectangles (closest / farthest corner analysis); the cuts are
    nested by construction.
    """
    if levels < 2:
        raise ValueError("need at least 2 alpha levels")
    pairs = []
    for i in range(levels):
        alpha = i / (levels - 1)
        lo, hi = _rect_distance_bounds(*p.alpha_box(alpha), *q.alpha_box(alpha))
        pairs.append((alpha, lo, hi))
    return SampledFuzzyNumber.from_pairs(pairs)


def raster_membership(
    shape: FuzzyShape,
    bbox: tuple[float, float, float, float],
    nx: int,
    ny: int,
) -> np.ndarray:
    """Membership sampled at cell centers of an nx-by-ny grid over bbox.

    Returns an (ny, nx) array, rows ordered by increasing y.  Each row is
    one array evaluation, and every cell equals ``membership_at`` at its
    center bit for bit.
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
        grid[j] = _values(shape, xs, np.full(nx, ymin + (j + 0.5) * dy))
    return grid
