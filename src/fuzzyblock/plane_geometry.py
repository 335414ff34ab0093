"""Fuzzy plane geometry: points, lines, segments and polygons.

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
that rounding puts a hair off a crisp segment still reads 1.  At each
lambda an edge's knots lie within that widening, plus rounding far below
it, of the support box at lambda, (1 - lambda) * supp Q + lambda * supp P.
A point that no lambda in [0, 1] puts within twice the widening of that
box, in both coordinates, therefore reads exactly 0 on the edge.  Over
lambda these boxes sweep the convex hull of the two end boxes, not their
bounding box, so a point off a slanted side of the hull is such a point
too.  Those (point, edge) pairs skip the candidate solve: the result is
the full computation's bit for bit.  Every function works on arrays of
points; ``raster_membership`` evaluates the whole grid in one call, whose
live (point, edge) pairs are solved ``_CHUNK_PAIRS`` at a time.  The chunks
only bound the temporaries: no step before the per-point maximum mixes two
pairs, so the chunking changes no bit.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .fuzzy_numbers import AlphaInterval, TrapezoidalNumber

# relative widening of segment knots: the slack of the crisp segment test
_CRISP_SLACK = 1e-9
_WIDEN = np.array([-1.0, -1.0, 1.0, 1.0])
# live (point, edge) pairs, those within the margin of the support hull,
# solved per numpy pass: it bounds the (2, 4, pairs, 35) knot array and its
# temporaries of a large raster, and changes no bit
_CHUNK_PAIRS = 128


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


def _in_hull(
    pt: np.ndarray, margin: np.ndarray, pk: np.ndarray, qk: np.ndarray
) -> np.ndarray:
    """Does some lambda in [0, 1] put each point within its margin of the
    support box at lambda, in both coordinates?  pt (K, 2), margin (K,),
    knots (K, 2, 4).

    Per coordinate and support bound, g >= 0 says the point is within the
    margin of the bound.  g is linear in lambda, from g0 at Q to g1 at P, so
    it holds on [0, 1] from ``enter`` to ``leave``: all of it, or up to or
    from where it crosses 0.  A point is inside when the four spans meet.
    A bound that holds nowhere enters at infinity, past where the other
    bound of its coordinate leaves: that one holds on all of [0, 1].
    """
    m = margin[:, None]
    g0 = np.concatenate([pt - qk[..., 0] + m, qk[..., 3] - pt + m], axis=1)  # (K, 4)
    g1 = np.concatenate([pt - pk[..., 0] + m, pk[..., 3] - pt + m], axis=1)
    in0, in1 = g0 >= 0.0, g1 >= 0.0
    cross = np.divide(g0, g0 - g1, out=np.zeros(g0.shape), where=in0 != in1)
    enter = np.where(in0, 0.0, np.where(in1, cross, np.inf))
    leave = np.where(in1, 1.0, cross)
    return enter.max(axis=1) <= leave.min(axis=1)


def _edge_values(
    ends: Sequence[tuple[FuzzyPoint, FuzzyPoint]], px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """Largest membership over the fuzzy segments joining each pair in ``ends``.

    Only the (point, edge) pairs inside the edge's widened support hull are
    solved, ``_CHUNK_PAIRS`` at a time, by ``_pair_values``.
    """
    pk = np.array([[_knots(p.x), _knots(p.y)] for p, _ in ends])  # (E, 2, 4)
    qk = np.array([[_knots(q.x), _knots(q.y)] for _, q in ends])
    pt = np.stack([px, py], axis=-1)  # (N, 2)
    biggest = max(np.abs(pk).max(), np.abs(qk).max())
    scale = 1.0 + np.maximum(np.maximum(np.abs(px), np.abs(py)), biggest)
    # a pair whose point lies outside the support hull by twice the widening
    # reads exactly 0 (see the module docstring); only the live pairs are
    # solved.  The hull lies in the box of both ends, whose cheap test on
    # every pair leaves few for the hull's
    margin = 2.0 * _CRISP_SLACK * scale
    outside = (pt[:, None] < np.minimum(pk, qk)[..., 0] - margin[:, None, None]) | (
        pt[:, None] > np.maximum(pk, qk)[..., 3] + margin[:, None, None]
    )
    point, edge = np.nonzero(~outside.any(axis=-1))
    live = _in_hull(pt[point], margin[point], pk[edge], qk[edge])
    point, edge = point[live], edge[live]
    # pair axis last: (coord, knot, pair) and (coord, pair)
    pk, qk, pt = pk.transpose(1, 2, 0), qk.transpose(1, 2, 0), pt.T
    best = np.empty(len(point))
    for lo in range(0, len(point), _CHUNK_PAIRS):
        k = slice(lo, lo + _CHUNK_PAIRS)
        p, e = point[k], edge[k]
        best[k] = _pair_values(pt[:, p], scale[p], pk[..., e], qk[..., e])
    value = np.zeros(len(px))
    np.maximum.at(value, point, best)
    return value


def _pair_values(
    pt: np.ndarray, scale: np.ndarray, pk: np.ndarray, qk: np.ndarray
) -> np.ndarray:
    """Segment membership of K (point, edge) pairs: pt (2, K), knots (2, 4, K).

    The x and y trapezoids of the segment point at lambda have knots
    q + lambda * (p - q), so the point's membership at lambda is the smaller
    of two piecewise linear-fractional functions of lambda; their largest
    value is attained at one of the candidates evaluated here.
    """
    q0 = qk + (_CRISP_SLACK * scale) * _WIDEN[:, None]  # knots at lambda = 0
    dq = pk - qk  # knot change per unit of lambda
    n = len(scale)
    # lambda at which each unwidened knot passes the point (at a step it then
    # lies inside the widened core); a quotient is only formed where it lies in
    # [-1, 1]: the rest clip to the 0 and 1 kept anyway, and a tiny divisor would overflow
    gap = pt[:, None] - qk
    passes = np.divide(
        gap, dq, out=np.zeros(q0.shape), where=(dq != 0.0) & (np.abs(gap) <= np.abs(dq))
    )
    # rising and falling ramps as (n0 + n1 l) / (d0 + d1 l), axes (ramp, coord, K)
    n0 = np.stack([pt - q0[:, 0], q0[:, 3] - pt])
    n1 = np.stack([-dq[:, 0], dq[:, 3]])
    d0 = np.stack([q0[:, 1] - q0[:, 0], q0[:, 3] - q0[:, 2]])
    d1 = np.stack([dq[:, 1] - dq[:, 0], dq[:, 3] - dq[:, 2]])
    # an x ramp crosses a y ramp where nx * dy - ny * dx = a l^2 + b l + c = 0
    n0x, n0y = n0[:, None, 0], n0[None, :, 1]
    n1x, n1y = n1[:, None, 0], n1[None, :, 1]
    d0x, d0y = d0[:, None, 0], d0[None, :, 1]
    d1x, d1y = d1[:, None, 0], d1[None, :, 1]
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
    # the candidates in a fixed order: the sort leaves 0.0 and -0.0, which
    # compare equal, in an order that depends on it
    cand = np.empty((n, 18))
    cand[:, 0], cand[:, 1] = 0.0, 1.0
    cand[:, 2:10] = passes.reshape(8, n).T
    cand[:, 10:14] = root1.reshape(4, n).T
    cand[:, 14:] = root2.reshape(4, n).T
    cand = np.sort(np.clip(cand, 0.0, 1.0), axis=-1)
    lam = np.concatenate([cand, 0.5 * (cand[:, 1:] + cand[:, :-1])], axis=-1)  # (K, L)
    knots = q0[..., None] + lam * dq[..., None]  # (2, 4, K, L)
    mu = _membership(np.moveaxis(knots, 1, -1), pt[..., None])
    return np.minimum(mu[0], mu[1]).max(axis=-1)


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


def membership_at(shape: FuzzyShape, px: float, py: float) -> float:
    """Membership of a finite (px, py) in any shape; a polygon's is the max over its edges."""
    if not (math.isfinite(px) and math.isfinite(py)):
        raise ValueError(f"point must be finite, got ({px}, {py})")
    return float(_values(shape, np.array([px], dtype=float), np.array([py], dtype=float))[0])


def check_grid(bbox: Sequence[float], nx: int, ny: int) -> None:
    """A raster grid needs a finite bbox of positive, finite width and height, and nx, ny >= 2."""
    xmin, ymin, xmax, ymax = bbox
    if not all(map(math.isfinite, (xmin, ymin, xmax, ymax, xmax - xmin, ymax - ymin))):
        raise ValueError(f"bbox must be finite, with a finite width and height: {list(bbox)}")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"bbox is degenerate: {list(bbox)}")
    for name, count in (("nx", nx), ("ny", ny)):
        if count < 2:
            raise ValueError(f"{name} must be at least 2")


def cell_centers(bbox: Sequence[float], nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """x (nx,) and y (ny,) of the cell centers of an nx-by-ny grid over bbox."""
    check_grid(bbox, nx, ny)
    xmin, ymin, xmax, ymax = bbox
    dx = (xmax - xmin) / nx
    dy = (ymax - ymin) / ny
    return xmin + (np.arange(nx) + 0.5) * dx, ymin + (np.arange(ny) + 0.5) * dy


def raster_membership(
    shape: FuzzyShape,
    bbox: tuple[float, float, float, float],
    nx: int,
    ny: int,
) -> np.ndarray:
    """Membership sampled at cell centers of an nx-by-ny grid over bbox.

    Returns an (ny, nx) array, rows ordered by increasing y.  The whole grid
    is one array evaluation, and every cell equals ``membership_at`` at its
    center bit for bit.  For segments and polygons only the (cell, edge)
    pairs that some lambda in [0, 1] puts within 2e-9 * scale of the edge's
    support box at lambda, in both coordinates, are solved: the cells in the
    widened convex hull of the two end boxes.  They are solved
    ``_CHUNK_PAIRS`` pairs per numpy pass; the others read 0 on that edge,
    exactly as the full solve gives, since rounding moves a knot by far less
    than the 1e-9 * scale knot widening.  A pair's value depends on that
    pair alone, so the chunk boundaries change no bit.
    """
    xs, ys = cell_centers(bbox, nx, ny)
    return _values(shape, np.tile(xs, ny), np.repeat(ys, nx)).reshape(ny, nx)
