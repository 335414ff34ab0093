"""Exact volume of a seeded key block, in rational arithmetic, independent of the package.

The block is the pyramid with its apex at the origin, its sides the joint
pyramid (JP) {v : n_i . v >= 0} and its base on the plane e . v = -h.  Every
float input is read exactly as a ``fractions.Fraction``, so the only
approximation is the one the floats already carry.  The JP's extreme rays
are the feasible +-n_i x n_j (exact feasibility, no tolerance); the base
vertices are d * h / (-e . d), their convex hull is taken exactly in a
coordinate projection of the base plane, and the volume is the sum of the
tetrahedra (apex, v_0, v_k, v_k+1) of a fan over the hull.  A JP with no
interior spans a hull of fewer than three vertices and gives exactly 0.
"""
from fractions import Fraction
from typing import Sequence


def _exact(v) -> list[Fraction]:
    return [Fraction(float(x)) for x in v]


def _dot(a, b) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> list[Fraction]:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _hull(points):
    """Convex hull of 2-D points in counter-clockwise order (Andrew's monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chains = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def pyramid_volume(jp_normals: Sequence, facet_normal, height: float) -> Fraction:
    """Exact volume of the pyramid {v : n_i . v >= 0, e . v >= -h}.

    Raises AssertionError if the JP holds a ray that never meets the base
    plane (the block is unbounded).
    """
    N = [_exact(n) for n in jp_normals]
    e = _exact(facet_normal)
    h = Fraction(float(height))
    rays = []
    for i in range(len(N)):
        for j in range(i + 1, len(N)):
            c = _cross(N[i], N[j])
            for d in (c, [-x for x in c]):
                if any(d) and all(_dot(n, d) >= 0 for n in N):
                    rays.append(d)
    # the base plane e . v = -h projects one to one onto the two coordinates
    # left when the one where |e| is largest is dropped
    drop = max(range(3), key=lambda k: abs(e[k]))
    keep = [k for k in range(3) if k != drop]
    base = {}
    for d in rays:
        assert _dot(e, d) < 0, "a JP ray never meets the base plane: the block is unbounded"
        v = [x * h / -_dot(e, d) for x in d]
        base[(v[keep[0]], v[keep[1]])] = v
    hull = [base[p] for p in _hull(base)]
    if len(hull) < 3:
        return Fraction(0)
    return sum((abs(_dot(hull[0], _cross(a, b))) for a, b in zip(hull[1:], hull[2:])),
               Fraction(0)) / 6
