"""Convex-hull oracle for fuzzy segment memberships, independent of the package.

At each alpha the segment's crisp set is the convex hull of the alpha-cut
rectangles of its endpoints; a point is in it when it lies inside that hull
or within 1e-9 * scale of its boundary.
"""
import math
from typing import Sequence

from fuzzyblock.fuzzy_numbers import AlphaInterval


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


def hull_feasible(seg, px: float, py: float, alpha: float) -> bool:
    """Is (px, py) in the segment's crisp set at alpha?"""
    corners = _box_corners(*seg.p.alpha_box(alpha)) + _box_corners(*seg.q.alpha_box(alpha))
    return _point_in_hull((px, py), _convex_hull(corners))
