"""Fuzzy plane geometry: points, lines, segments, polygons, and fuzzy distance.

Every shape is a family of crisp sets indexed by alpha.  Membership of a
plane point is the supremum of the alphas whose crisp set contains it; the
crisp sets shrink as alpha grows, so that supremum is found by bisection.
A fuzzy polygon is the union of its closing edges, not a filled region.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .fuzzy_numbers import AlphaInterval, SampledFuzzyNumber, TrapezoidalNumber

DEFAULT_TOL = 1e-6
_BISECT_MAX_ITER = 30


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


def _scale_interval(iv: AlphaInterval, k: float) -> tuple[float, float]:
    if k >= 0:
        return (k * iv.lo, k * iv.hi)
    return (k * iv.hi, k * iv.lo)


def _sup_alpha(feasible: Callable[[float], bool], tol: float) -> float:
    """Largest alpha with feasible(alpha) true, given monotone feasibility.

    Returns 1.0 / 0.0 exactly in the all-feasible / none-feasible cases, so
    crisp shapes degenerate to their crisp indicator.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if feasible(1.0):
        return 1.0
    if not feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def line_membership(
    line: FuzzyLineImplicit, px: float, py: float, tol: float = DEFAULT_TOL
) -> float:
    """Membership of (px, py) in the implicit fuzzy line.

    Feasible at alpha when the interval a(alpha)*px + b(alpha)*py meets
    c(alpha) under interval arithmetic.
    """

    def feasible(alpha: float) -> bool:
        alo, ahi = _scale_interval(line.a.alpha_cut(alpha), px)
        blo, bhi = _scale_interval(line.b.alpha_cut(alpha), py)
        c = line.c.alpha_cut(alpha)
        return alo + blo <= c.hi and c.lo <= ahi + bhi

    return _sup_alpha(feasible, tol)


def slope_line_membership(
    line: FuzzyLineSlope, px: float, py: float, tol: float = DEFAULT_TOL
) -> float:
    """Membership of (px, py) in the slope-form fuzzy line y = m*x + b."""

    def feasible(alpha: float) -> bool:
        mlo, mhi = _scale_interval(line.m.alpha_cut(alpha), px)
        b = line.b.alpha_cut(alpha)
        return mlo + b.lo <= py <= mhi + b.hi

    return _sup_alpha(feasible, tol)


def _box_corners(x: AlphaInterval, y: AlphaInterval) -> list[tuple[float, float]]:
    return [(x.lo, y.lo), (x.hi, y.lo), (x.hi, y.hi), (x.lo, y.hi)]


def _convex_hull(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Andrew monotone chain; returns CCW hull, possibly degenerate."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _point_segment_dist(p, a, b) -> float:
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(p[0] - ax, p[1] - ay)
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / L2
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] - (ax + t * dx), p[1] - (ay + t * dy))


def _point_in_hull(p: tuple[float, float], hull: Sequence[tuple[float, float]]) -> bool:
    scale = 1.0 + max(
        abs(p[0]), abs(p[1]), max((max(abs(v[0]), abs(v[1])) for v in hull), default=0.0)
    )
    eps = 1e-9 * scale
    if len(hull) == 1:
        return math.hypot(p[0] - hull[0][0], p[1] - hull[0][1]) <= eps
    if len(hull) == 2:
        return _point_segment_dist(p, hull[0], hull[1]) <= eps
    for i in range(len(hull)):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % len(hull)]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) < -eps:
            return False
    return True


def segment_membership(
    seg: FuzzySegment, px: float, py: float, tol: float = DEFAULT_TOL
) -> float:
    """Membership of (px, py) in the fuzzy segment.

    The union of segments between two rectangles is the convex hull of the
    rectangles, so feasibility at each alpha is a point-in-convex-polygon
    test over at most 8 corners.
    """

    def feasible(alpha: float) -> bool:
        corners = _box_corners(*seg.p.alpha_box(alpha)) + _box_corners(
            *seg.q.alpha_box(alpha)
        )
        return _point_in_hull((px, py), _convex_hull(corners))

    return _sup_alpha(feasible, tol)


def polygon_membership(
    poly: FuzzyPolygon, px: float, py: float, tol: float = DEFAULT_TOL
) -> float:
    """Maximum membership over the polygon's closing edges."""
    return max(segment_membership(e, px, py, tol) for e in poly.edges())


def membership_at(shape: FuzzyShape, px: float, py: float, tol: float = DEFAULT_TOL) -> float:
    if isinstance(shape, FuzzyLineImplicit):
        return line_membership(shape, px, py, tol)
    if isinstance(shape, FuzzyLineSlope):
        return slope_line_membership(shape, px, py, tol)
    if isinstance(shape, FuzzySegment):
        return segment_membership(shape, px, py, tol)
    if isinstance(shape, FuzzyPolygon):
        return polygon_membership(shape, px, py, tol)
    raise TypeError(f"unsupported shape {type(shape).__name__}")


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
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Membership sampled at cell centers of an nx-by-ny grid over bbox.

    Returns an (ny, nx) array, rows ordered by increasing y.
    """
    xmin, ymin, xmax, ymax = bbox
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"degenerate bbox {bbox}")
    if nx < 2 or ny < 2:
        raise ValueError("nx and ny must be at least 2")
    dx = (xmax - xmin) / nx
    dy = (ymax - ymin) / ny
    xs = [xmin + (i + 0.5) * dx for i in range(nx)]
    ys = [ymin + (j + 0.5) * dy for j in range(ny)]
    grid = np.zeros((ny, nx), dtype=float)
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            grid[j, i] = membership_at(shape, x, y, tol)
    return grid
