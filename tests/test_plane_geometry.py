import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geometry_oracle
from geometry_oracle import edge_values, row_edge_values
from hull_oracle import hull_feasible

from fuzzyblock import plane_geometry
from fuzzyblock.fuzzy_numbers import TrapezoidalNumber
from fuzzyblock.plane_geometry import (
    _CRISP_SLACK,
    FuzzyLineImplicit,
    FuzzyLineSlope,
    FuzzyPoint,
    FuzzyPolygon,
    FuzzySegment,
    _edge_values,
    check_grid,
    membership_at,
    raster_membership,
)

T = TrapezoidalNumber


def _interval_mul(lo, hi, k):
    return (k * lo, k * hi) if k >= 0 else (k * hi, k * lo)


def line_feasible_oracle(line, px, py, alpha):
    a = line.a.alpha_cut(alpha)
    b = line.b.alpha_cut(alpha)
    c = line.c.alpha_cut(alpha)
    alo, ahi = _interval_mul(a.lo, a.hi, px)
    blo, bhi = _interval_mul(b.lo, b.hi, py)
    return alo + blo <= c.hi and c.lo <= ahi + bhi


def slope_feasible_oracle(line, px, py, alpha):
    m = line.m.alpha_cut(alpha)
    b = line.b.alpha_cut(alpha)
    mlo, mhi = _interval_mul(m.lo, m.hi, px)
    return mlo + b.lo <= py <= mhi + b.hi


def segment_feasible_oracle(seg, px, py, alpha, n=60):
    """Rasterized-hull oracle: sample segment endpoints on both rectangles."""
    bx, by = seg.p.alpha_box(alpha)
    cx, cy = seg.q.alpha_box(alpha)

    def corners(x, y):
        pts = []
        for u in np.linspace(x.lo, x.hi, 5):
            for v in np.linspace(y.lo, y.hi, 5):
                pts.append((u, v))
        return pts

    target = np.array([px, py])
    best = math.inf
    for p0 in corners(bx, by):
        for q0 in corners(cx, cy):
            a = np.array(p0)
            d = np.array(q0) - a
            L2 = float(d @ d)
            t = 0.0 if L2 == 0 else min(1.0, max(0.0, float((target - a) @ d) / L2))
            best = min(best, float(np.linalg.norm(target - (a + t * d))))
    return best <= 2e-2


def grid_sup_alpha(feasible, n=1000):
    sup = 0.0
    for i in range(n + 1):
        alpha = i / n
        if feasible(alpha):
            sup = alpha
    return sup


class TestLineMembership:
    def test_crisp_line_indicator(self):
        line = FuzzyLineImplicit.crisp(1, 1, 2)
        assert membership_at(line, 1, 1) == 1.0
        assert membership_at(line, 0, 0) == 0.0

    def test_core_point_full_membership(self):
        line = FuzzyLineImplicit(T(0.9, 1, 1, 1.1), T(0.9, 1, 1, 1.1), T(1.8, 2, 2, 2.2))
        assert membership_at(line, 1, 1) == 1.0

    def test_off_core_point_matches_exact_sup(self):
        line = FuzzyLineImplicit(T(0.9, 1, 1, 1.1), T(0.9, 1, 1, 1.1), T(1.8, 2, 2, 2.2))
        # cut intervals separate when 1.89 + 0.21a > 2.2 - 0.2a, at a = 0.31/0.41
        value = membership_at(line, 1.05, 1.05)
        assert value == pytest.approx(0.31 / 0.41, abs=1e-5)
        oracle = grid_sup_alpha(lambda a: line_feasible_oracle(line, 1.05, 1.05, a))
        assert value == pytest.approx(oracle, abs=2e-3)

    def test_degenerate_direction_rejected(self):
        with pytest.raises(ValueError):
            FuzzyLineImplicit(T.crisp(0), T.crisp(0), T.crisp(1))


class TestSlopeLineMembership:
    def test_crisp(self):
        line = FuzzyLineSlope(T.crisp(1), T.crisp(0))
        assert membership_at(line, 2, 2) == 1.0

    def test_core_slope(self):
        line = FuzzyLineSlope(T(0, 1, 1, 2), T.crisp(0))
        assert membership_at(line, 1, 1) == 1.0

    def test_half_membership(self):
        line = FuzzyLineSlope(T(0, 1, 1, 2), T.crisp(0))
        value = membership_at(line, 1, 1.5)
        assert value == pytest.approx(0.5, abs=1e-5)
        oracle = grid_sup_alpha(lambda a: slope_feasible_oracle(line, 1, 1.5, a))
        assert value == pytest.approx(oracle, abs=2e-3)


class TestSegmentMembership:
    def test_crisp_segment_indicator(self):
        seg = FuzzySegment(FuzzyPoint.crisp(0, 0), FuzzyPoint.crisp(1, 0))
        assert membership_at(seg, 0.5, 0) == 1.0
        assert membership_at(seg, 0.5, 0.1) == 0.0

    def test_fuzzy_band(self):
        seg = FuzzySegment(
            FuzzyPoint(T.crisp(0), T(-0.1, 0, 0, 0.1)),
            FuzzyPoint(T.crisp(1), T(-0.1, 0, 0, 0.1)),
        )
        value = membership_at(seg, 0.5, 0.05)
        assert value == pytest.approx(0.5, abs=1e-5)
        assert segment_feasible_oracle(seg, 0.5, 0.05, value - 1e-3)

    def test_support_boundary_point(self):
        seg = FuzzySegment(
            FuzzyPoint(T.crisp(0), T(-0.1, 0, 0, 0.1)),
            FuzzyPoint(T.crisp(1), T(-0.1, 0, 0, 0.1)),
        )
        assert membership_at(seg, 0.0, -0.1) <= 1e-6

    def test_overlapping_cores_warn(self):
        with pytest.warns(UserWarning):
            FuzzySegment(FuzzyPoint.crisp(0, 0), FuzzyPoint.crisp(0, 0))


class TestPolygonMembership:
    def _unit_square(self):
        return FuzzyPolygon(
            tuple(FuzzyPoint.crisp(*v) for v in [(0, 0), (1, 0), (1, 1), (0, 1)])
        )

    def test_edge_point(self):
        assert membership_at(self._unit_square(), 0, 0.5) == 1.0

    def test_interior_excluded(self):
        # the fuzzy polygon is its edge bundle, not a filled region
        assert membership_at(self._unit_square(), 0.5, 0.5) == 0.0

    def test_vertex_point(self):
        assert membership_at(self._unit_square(), 0, 0) == 1.0

    def test_max_law(self):
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(10):
            verts = []
            for _ in range(3):
                cx, cy = rng.uniform(-2, 2, size=2)
                verts.append(
                    FuzzyPoint(
                        T(cx - 0.3, cx - 0.1, cx + 0.1, cx + 0.3),
                        T(cy - 0.3, cy - 0.1, cy + 0.1, cy + 0.3),
                    )
                )
            poly = FuzzyPolygon(tuple(verts))
            px, py = rng.uniform(-2.5, 2.5, size=2)
            pm = membership_at(poly, px, py)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                edges = [FuzzySegment(p, q) for p, q in zip(verts, verts[1:] + verts[:1])]
            edge_vals = [membership_at(e, px, py) for e in edges]
            assert pm >= max(edge_vals) - 1e-12


def random_trap(rng, center_lo=-3.0, center_hi=3.0, spread=0.6):
    c = rng.uniform(center_lo, center_hi)
    d1, d2, d3 = sorted(rng.uniform(0, spread, size=3))
    return T(c - d3, c - d1, c + d1, c + d3)


class TestMonotoneFeasibilityAndOracleSuite:
    def _assert_monotone(self, feas):
        # once infeasible, stays infeasible as alpha grows
        seen_false = False
        for f in feas:
            if not f:
                seen_false = True
            if seen_false:
                assert not f

    def test_monotone_feasibility_random(self):
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(30):
            line = FuzzyLineImplicit(random_trap(rng), random_trap(rng), random_trap(rng))
            px, py = rng.uniform(-4, 4, size=2)
            self._assert_monotone(
                [line_feasible_oracle(line, px, py, a / 50) for a in range(51)]
            )
        for _ in range(30):
            slope = FuzzyLineSlope(random_trap(rng), random_trap(rng))
            px, py = rng.uniform(-4, 4, size=2)
            self._assert_monotone(
                [slope_feasible_oracle(slope, px, py, a / 50) for a in range(51)]
            )
        for _ in range(30):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                seg = FuzzySegment(
                    FuzzyPoint(random_trap(rng), random_trap(rng)),
                    FuzzyPoint(random_trap(rng), random_trap(rng)),
                )
            px, py = rng.uniform(-4, 4, size=2)
            self._assert_monotone([hull_feasible(seg, px, py, a / 50) for a in range(51)])

    def test_closed_form_vs_grid_oracle(self):
        rng = np.random.Generator(np.random.Philox(11))
        checked = 0
        for _ in range(40):
            line = FuzzyLineImplicit(random_trap(rng), random_trap(rng), random_trap(rng))
            px, py = rng.uniform(-4, 4, size=2)
            value = membership_at(line, px, py)
            oracle = grid_sup_alpha(lambda a: line_feasible_oracle(line, px, py, a))
            assert value == pytest.approx(oracle, abs=2e-3)
            checked += 1
        for _ in range(40):
            slope = FuzzyLineSlope(random_trap(rng), random_trap(rng))
            px, py = rng.uniform(-4, 4, size=2)
            value = membership_at(slope, px, py)
            oracle = grid_sup_alpha(lambda a: slope_feasible_oracle(slope, px, py, a))
            assert value == pytest.approx(oracle, abs=2e-3)
            checked += 1
        for _ in range(30):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                seg = FuzzySegment(
                    FuzzyPoint(random_trap(rng), random_trap(rng)),
                    FuzzyPoint(random_trap(rng), random_trap(rng)),
                )
            px, py = rng.uniform(-4, 4, size=2)
            value = membership_at(seg, px, py)
            oracle = grid_sup_alpha(lambda a: hull_feasible(seg, px, py, a))
            assert value == pytest.approx(oracle, abs=2e-3)
            checked += 1
        assert checked >= 100


def _mu(knots, x):
    """Trapezoid membership of x for knot arrays (a1, a2, a3, a4), any shape."""
    a1, a2, a3, a4 = knots
    # a subnormal ramp width overflows the quotient only where x is off the ramp
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rise = np.where(a2 > a1, (x - a1) / (a2 - a1), 0.0)
        fall = np.where(a4 > a3, (a4 - x) / (a4 - a3), 0.0)
    mu = np.where(x < a2, rise, np.where(x > a3, fall, 1.0))
    return np.where((x < a1) | (x > a4), 0.0, mu)


def lambda_scan(seg, px, py, n=20001):
    """max over a lambda grid of min(mu of lam*Px + (1-lam)*Qx at px, same for y)."""
    lam = np.linspace(0.0, 1.0, n)
    kx = [lam * p + (1 - lam) * q for p, q in zip(seg.p.x.to_list(), seg.q.x.to_list())]
    ky = [lam * p + (1 - lam) * q for p, q in zip(seg.p.y.to_list(), seg.q.y.to_list())]
    return float(np.minimum(_mu(kx, px), _mu(ky, py)).max())


@st.composite
def trapezoids(draw):
    # each ramp is zero-width often, so crisp numbers, crisp intervals and
    # one-sided steps are drawn as well as symmetric and skewed trapezoids
    c = draw(st.floats(-3.0, 3.0))
    core = draw(st.sampled_from([0.0]) | st.floats(0.001, 0.6))
    left, right = (draw(st.sampled_from([0.0]) | st.floats(0.0, 0.6)) for _ in range(2))
    return T(c - core - left, c - core, c + core, c + core + right)


@st.composite
def segments_and_points(draw):
    p = FuzzyPoint(draw(trapezoids()), draw(trapezoids()))
    q = FuzzyPoint(draw(trapezoids()), draw(trapezoids()))
    r = FuzzyPoint(draw(trapezoids()), draw(trapezoids()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        seg = FuzzySegment(p, q)
    lam = draw(st.floats(0.0, 1.0))
    cx = lam * p.x.a2 + (1 - lam) * q.x.a3
    cy = lam * p.y.a3 + (1 - lam) * q.y.a2
    dx, dy = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
    return seg, FuzzyPolygon([p, q, r]), cx + dx, cy + dy


# Q's x trapezoid is a crisp interval, so along the segment the x membership
# steps from 0 to 1 where Q's left end passes the point; the supremum is at
# that lambda, where the y membership is 1 - 0.25 / (1 - lambda)
STEP_P = FuzzyPoint(T.crisp(-1.1025432567072544), T.crisp(0.0))
STEP_Q = FuzzyPoint(T(2.25, 2.25, 3.25, 3.25), T(-0.5, 0.0, 0.0, 0.5))
STEP_POINT = (-0.014407442530440795, 0.125)


class TestExactSegment:
    @settings(max_examples=200, deadline=None)
    @given(segments_and_points())
    def test_never_exceeded_by_dense_lambda_scan(self, case):
        seg, poly, px, py = case
        value = membership_at(seg, px, py)
        scan = lambda_scan(seg, px, py)
        assert 0.0 <= value <= 1.0
        assert scan <= value
        # the polygon's first edge is the segment
        assert scan <= membership_at(poly, px, py) <= 1.0

    def test_step_at_zero_width_ramp(self):
        px, py = STEP_POINT
        lam = (2.25 - px) / (2.25 - STEP_P.x.a1)
        exact = 1.0 - 0.25 / (1.0 - lam)  # 0.2297507..., at lambda = 0.67543
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            seg = FuzzySegment(STEP_P, STEP_Q)
        poly = FuzzyPolygon([STEP_P, STEP_Q, FuzzyPoint.crisp(0.0, -5.0)])
        # within the 1e-9 knot widening, above the dense scan
        assert membership_at(seg, px, py) == pytest.approx(exact, abs=1e-7)
        assert membership_at(poly, px, py) == pytest.approx(exact, abs=1e-7)
        assert lambda_scan(seg, px, py) <= membership_at(seg, px, py)

    def test_subnormal_span_reads_without_overflow(self):
        tiny = 2.2250738585e-313
        seg = FuzzySegment(FuzzyPoint.crisp(0, 0), FuzzyPoint.crisp(0, tiny))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert membership_at(seg, 0.0, 0.5) == 0.0
            assert membership_at(seg, 0.0, 0.0) == 1.0

    def test_crisp_skew_segment(self):
        seg = FuzzySegment(FuzzyPoint.crisp(0, 0), FuzzyPoint.crisp(3, 1))
        assert membership_at(seg, 1, 1 / 3) == 1.0
        assert membership_at(seg, 0.3, 0.1) == 1.0
        assert membership_at(seg, 3, 1) == 1.0
        assert membership_at(seg, 1, 0.34) == 0.0
        assert membership_at(seg, 3.3, 1.1) == 0.0

    def test_core_hull_points_read_one(self):
        rng = np.random.Generator(np.random.Philox(29))
        for _ in range(200):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                p = FuzzyPoint(random_trap(rng), random_trap(rng))
                q = FuzzyPoint(random_trap(rng), random_trap(rng))
                seg = FuzzySegment(p, q)
            lam = rng.uniform()
            a = [rng.uniform(*p.x.core), rng.uniform(*p.y.core)]
            b = [rng.uniform(*q.x.core), rng.uniform(*q.y.core)]
            px = lam * a[0] + (1 - lam) * b[0]
            py = lam * a[1] + (1 - lam) * b[1]
            assert membership_at(seg, px, py) == 1.0


def _shifted(t, s):
    return T(t.a1 + s, t.a2 + s, t.a3 + s, t.a4 + s)


@st.composite
def edges_and_points(draw):
    """A segment or a closed polygon, and points where the support-hull cull decides.

    An edge runs free, parallel to an axis (its ends share one coordinate),
    diagonally (the next end is the last shifted by (s, +-s)) or has zero
    length (both ends the same).  Per edge: each bound of its support box
    exactly, then moved out by a fraction of the knot widening
    w = 1e-9 * scale, by w plus a fraction and by the cull margin 2w and
    beyond; the other coordinate in the core of the end that attains the
    bound, so a point in the widening band reads above 0.  Then the same
    offsets, in both coordinates, off each of the four corner paths of the
    support box at lambda, (1 - lambda) * supp Q + lambda * supp P: two of
    them run along the slanted sides of the hull of the end boxes, where the
    hull cull decides but the box of both ends does not.  Also every pairing
    of the ends' x and y knots, points on the core edges and a few free
    points, some far enough out to raise the scale.
    """
    n = draw(st.sampled_from([2, 3, 5]))
    verts = [FuzzyPoint(draw(trapezoids()), draw(trapezoids()))]
    for _ in range(n - 1):
        last = verts[-1]
        kind = draw(st.sampled_from(["free", "axis", "diagonal", "zero-length"]))
        if kind == "free":
            verts.append(FuzzyPoint(draw(trapezoids()), draw(trapezoids())))
        elif kind == "axis":
            moved = draw(trapezoids())
            along_x = draw(st.booleans())
            verts.append(FuzzyPoint(moved, last.y) if along_x else FuzzyPoint(last.x, moved))
        elif kind == "diagonal":
            s = draw(st.floats(0.1, 3.0))
            sx, sy = s * draw(st.sampled_from([1.0, -1.0])), s * draw(st.sampled_from([1.0, -1.0]))
            verts.append(FuzzyPoint(_shifted(last.x, sx), _shifted(last.y, sy)))
        else:
            verts.append(last)
    ends = list(zip(verts, verts[1:] + verts[:1])) if n > 2 else [tuple(verts)]
    knots = np.array([[v.x.to_list(), v.y.to_list()] for v in verts])
    w = _CRISP_SLACK * (1.0 + np.abs(knots).max())
    f = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    t = draw(st.floats(0.0, 1.0))
    lam = draw(st.floats(0.0, 1.0))
    offsets = (0.0, f, 1.0 + f, 2.0, 2.0 + f, 4.0)
    band = []
    for p, q in ends:
        for axis in (0, 1):
            for side, pick, sign in ((0, min, -1.0), (3, max, 1.0)):
                end = pick((p, q), key=lambda v: (v.x, v.y)[axis].to_list()[side])
                bound = (end.x, end.y)[axis].to_list()[side]
                other = (end.y, end.x)[axis]
                inside = other.a2 + t * (other.a3 - other.a2)
                for k in offsets:
                    xy = [bound + sign * k * w, inside]
                    band.append(xy if axis == 0 else xy[::-1])
        pk, qk = (np.array([v.x.to_list(), v.y.to_list()]) for v in (p, q))
        for kx, ky in ((0, 0), (0, 3), (3, 0), (3, 3)):
            out = np.array([1.0 if kx == 3 else -1.0, 1.0 if ky == 3 else -1.0])
            corner_q, corner_p = qk[[0, 1], [kx, ky]], pk[[0, 1], [kx, ky]]
            for at in (lam, 0.5):
                corner = corner_q + at * (corner_p - corner_q)
                band += [list(corner + k * w * out) for k in offsets]
    rest = []
    for p, q in ends:
        for v in (p, q):
            rest += [[kx, ky] for kx in v.x.to_list() for ky in v.y.to_list()]
        for cx in ((p.x.a2, q.x.a2), (p.x.a3, q.x.a3)):
            for cy in ((p.y.a2, q.y.a2), (p.y.a3, q.y.a3)):
                rest.append([lam * cx[0] + (1 - lam) * cx[1], lam * cy[0] + (1 - lam) * cy[1]])
    coord = st.floats(-3.0, 3.0) | st.floats(-60.0, 60.0)
    rest += draw(st.lists(st.tuples(coord, coord).map(list), max_size=4))
    return ends, np.array(band), np.array(band + rest)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestSupportHullCull:
    @settings(max_examples=200, deadline=None)
    @given(edges_and_points())
    def test_bit_equal_to_full_solve(self, case):
        ends, band, points = case
        px, py = points.T
        values = _edge_values(ends, px, py)
        assert np.array_equal(_bits(values), _bits(edge_values(ends, px, py)))
        # a point's value does not depend on the other points in its batch;
        # a stride of 5 over 6 offsets per bound or corner path reaches every offset
        some = range(0, len(band), 5)
        alone = [_edge_values(ends, band[k : k + 1, 0], band[k : k + 1, 1])[0] for k in some]
        assert np.array_equal(_bits(alone), _bits(values[list(some)]))
        flipped = _edge_values(ends, px[::-1], py[::-1])
        assert np.array_equal(_bits(flipped[::-1]), _bits(values))

    def test_widening_band_is_live(self):
        # a point below the support box by half the knot widening reads above
        # 0 (on the widened ramp), so the cull margin must reach past it
        p = FuzzyPoint(T(0.0, 0.5, 1.0, 1.5), T(-0.5, 0.0, 0.0, 0.5))
        q = FuzzyPoint(T(2.0, 2.5, 3.0, 3.5), T(-0.5, 0.0, 0.0, 0.5))
        w = _CRISP_SLACK * (1.0 + 3.5)
        px, py = np.array([-0.5 * w, -1.5 * w, -2.5 * w]), np.zeros(3)
        values = _edge_values([(p, q)], px, py)
        assert values[0] > 0.0 and values[1] == 0.0 and values[2] == 0.0
        assert np.array_equal(_bits(values), _bits(edge_values([(p, q)], px, py)))


    def test_slanted_side_margin(self, monkeypatch):
        # Q's support box moves by (2, 2) to P's, so the hull's upper-left
        # side runs from (0, 0.3) to (2, 2.3); off its middle by k * w in
        # both coordinates a point is inside the box of both ends, on the
        # widened ramps at k = 0.5, within the cull margin at k = 1.5 and
        # culled at k = 2.5
        q = FuzzyPoint(T(0.0, 0.1, 0.2, 0.3), T(0.0, 0.1, 0.2, 0.3))
        p = FuzzyPoint(T(2.0, 2.1, 2.2, 2.3), T(2.0, 2.1, 2.2, 2.3))
        w = _CRISP_SLACK * (1.0 + 2.3)
        k = np.array([0.5, 1.5, 2.5])
        px, py = 1.0 - k * w, 1.3 + k * w
        solved = []
        solve = plane_geometry._pair_values

        def counted(pt, *rest):
            solved.append(pt.shape[1])
            return solve(pt, *rest)

        monkeypatch.setattr(plane_geometry, "_pair_values", counted)
        values = _edge_values([(p, q)], px, py)
        assert values[0] > 0.0 and values[1] == 0.0 and values[2] == 0.0
        assert sum(solved) == 2
        assert np.array_equal(_bits(values), _bits(edge_values([(p, q)], px, py)))
        # left of both end boxes, or below both, no lambda reaches the point
        ends = np.array([[p.x.to_list(), p.y.to_list()]]), np.array([[q.x.to_list(), q.y.to_list()]])
        outside = np.array([[-1.0, 1.0], [1.0, -1.0]])
        assert not plane_geometry._in_hull(outside[:1], np.array([w]), *ends).any()
        assert not plane_geometry._in_hull(outside[1:], np.array([w]), *ends).any()

    def test_hull_solves_fewer_pairs_than_box(self, monkeypatch):
        # with the hull test off, only the box of both end supports culls
        solved = []
        solve = plane_geometry._pair_values

        def counted(pt, *rest):
            solved.append(pt.shape[1])
            return solve(pt, *rest)

        monkeypatch.setattr(plane_geometry, "_pair_values", counted)
        bbox = (-2.2, -2.2, 2.2, 2.2)
        hull = raster_membership(_fuzzy_pentagon(), bbox, 60, 60)
        hull_pairs = sum(solved)
        solved.clear()
        monkeypatch.setattr(plane_geometry, "_in_hull", lambda pt, *rest: np.ones(len(pt), bool))
        box = raster_membership(_fuzzy_pentagon(), bbox, 60, 60)
        assert hull_pairs < sum(solved)
        _assert_same_bits(hull, box)


def _assert_same_bits(values, reference):
    assert np.array_equal(np.signbit(values), np.signbit(reference))
    assert values.tobytes() == reference.tobytes()


class TestPairChunks:
    """Pair chunks and the pair-last layout reproduce the per-row solve's bits."""

    @pytest.mark.parametrize("chunk", [3, 10**6])
    @settings(max_examples=30, deadline=None)
    @given(case=edges_and_points())
    def test_bit_equal_to_row_solve(self, case, chunk):
        ends, _, points = case
        # each point again with either coordinate a signed zero
        points = np.vstack([points, points * [0.0, 1.0], points * [-0.0, 1.0],
                            points * [1.0, -0.0]])
        px, py = points.T
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(plane_geometry, "_CHUNK_PAIRS", chunk)
            values = _edge_values(ends, px, py)
        _assert_same_bits(values, row_edge_values(ends, px, py))

    def test_negative_zero_survives(self):
        # x's left knot is exactly +0.0 at every lambda (both ends start at
        # the widening w, scale 4), so at x = -0.0 the x ramp reads -0.0 and
        # so does every lambda's min: the point's value is -0.0, and +0.0 at x = +0.0
        w = _CRISP_SLACK * 4.0
        q = FuzzyPoint(T(w, 1.0, 2.0, 3.0), T(-1.0, 0.0, 0.0, 1.0))
        p = FuzzyPoint(T(w, 2.0, 2.5, 3.0), T(-1.0, 0.0, 0.0, 1.0))
        px, py = np.array([-0.0, 0.0]), np.array([0.5, 0.5])
        for chunk in (1, 10**6):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(plane_geometry, "_CHUNK_PAIRS", chunk)
                values = _edge_values([(p, q)], px, py)
            assert list(np.signbit(values)) == [True, False]
            _assert_same_bits(values, row_edge_values([(p, q)], px, py))

    def test_signed_zero_fold_over_many_edges(self):
        # ten vertices share x's left knot w, so every edge reads -0.0 or
        # +0.0 at x = -0.0: the per-point fold meets both signs, many times
        w = _CRISP_SLACK * 4.0
        ys = [-2.5, -1.0, 0.5, 1.0, 2.5, 2.0, 0.0, -0.5, -2.0, 1.5]
        verts = [FuzzyPoint(T(w, 1.0 + 0.1 * k, 2.0, 3.0), T(y - 0.5, y, y, y + 0.5))
                 for k, y in enumerate(ys)]
        ends = list(zip(verts, verts[1:] + verts[:1]))
        py = np.linspace(-2.9, 2.9, 25)
        px = np.full(len(py), -0.0)
        for chunk in (1, 3, 10**6):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(plane_geometry, "_CHUNK_PAIRS", chunk)
                values = _edge_values(ends, px, py)
            _assert_same_bits(values, row_edge_values(ends, px, py))
        assert np.signbit(values).any() and not np.signbit(values).all()


@st.composite
def coordinates(draw):
    """A crisp, a zero-ramp (crisp interval) or a wide trapezoidal coordinate."""
    c = draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["crisp", "zero-ramp", "wide", "any"]))
    if kind == "crisp":
        return T.crisp(c)
    if kind == "any":
        return draw(trapezoids())
    core = draw(st.floats(0.001, 0.6))
    if kind == "zero-ramp":
        return T(c - core, c - core, c + core, c + core)
    left, right = draw(st.floats(0.3, 2.0)), draw(st.floats(0.3, 2.0))
    return T(c - core - left, c - core, c + core, c + core + right)


@st.composite
def rasters(draw):
    """A segment or polygon and an nx-by-ny grid whose bbox straddles or touches 0."""
    n = draw(st.sampled_from([2, 3, 5, 9]))
    verts = [FuzzyPoint(draw(coordinates()), draw(coordinates())) for _ in range(n)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shape = FuzzySegment(*verts) if n == 2 else FuzzyPolygon(verts)
    bounds = []
    for _ in range(2):
        lo = draw(st.sampled_from([0.0, -0.0]) | st.floats(-4.0, -0.1))
        hi = draw(st.sampled_from([0.0, -0.0]) | st.floats(0.1, 4.0))
        if hi == lo:  # both are zeros
            hi = 2.5
        bounds.append((lo, hi))
    (xmin, xmax), (ymin, ymax) = bounds
    nx, ny = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    return shape, (xmin, ymin, xmax, ymax), nx, ny


class TestWholeGridRaster:
    """One whole-grid evaluation reproduces the per-row raster bit for bit."""

    @pytest.mark.parametrize("chunk", [1, 3, None, 10**6])
    @settings(max_examples=40, deadline=None)
    @given(case=rasters())
    def test_bit_equal_to_row_raster(self, case, chunk):
        shape, bbox, nx, ny = case
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(plane_geometry, "_CHUNK_PAIRS", chunk)
            grid = raster_membership(shape, bbox, nx, ny)
        _assert_same_bits(grid, geometry_oracle.raster_membership(shape, bbox, nx, ny))

    def test_live_pairs_span_many_chunks(self, monkeypatch):
        calls = []
        solve = plane_geometry._pair_values

        def counted(pt, *rest):
            calls.append(pt.shape[1])
            return solve(pt, *rest)

        monkeypatch.setattr(plane_geometry, "_pair_values", counted)
        # a chunk small enough that the grid's few hundred live pairs fill
        # several of them whatever the cull leaves
        monkeypatch.setattr(plane_geometry, "_CHUNK_PAIRS", 64)
        bbox = (-2.2, -0.0, 2.2, 2.2)
        grid = raster_membership(_fuzzy_pentagon(), bbox, 60, 30)
        assert len(calls) >= 4 and max(calls) == plane_geometry._CHUNK_PAIRS
        _assert_same_bits(grid, geometry_oracle.raster_membership(_fuzzy_pentagon(), bbox, 60, 30))


def _fuzzy_pentagon():
    verts = []
    for k in range(5):
        ang = 2.0 * math.pi * k / 5
        cx, cy = 1.3 * math.cos(ang), 1.3 * math.sin(ang)
        verts.append(FuzzyPoint(T(cx - 0.2, cx - 0.03, cx + 0.03, cx + 0.2), T(cy - 0.1, cy, cy, cy + 0.15)))
    return FuzzyPolygon(tuple(verts))


class TestNonFinitePoint:
    SHAPES = {
        "line": FuzzyLineImplicit(T(0.9, 1, 1, 1.1), T(0.9, 1, 1, 1.1), T(1.8, 2, 2, 2.2)),
        "slope": FuzzyLineSlope(T(0, 1, 1, 2), T.crisp(0)),
        "segment": FuzzySegment(FuzzyPoint.crisp(0, 0), FuzzyPoint(T(0.9, 1, 1, 1.1), T.crisp(0))),
        "polygon": _fuzzy_pentagon(),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("point", [
        (math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (0.5, -math.inf),
    ])
    def test_rejected(self, shape, point):
        with pytest.raises(ValueError, match="point must be finite"):
            membership_at(self.SHAPES[shape], *point)


class TestRaster:
    def test_crisp_line_cells(self):
        line = FuzzyLineImplicit.crisp(0, 1, 0.5)  # y = 0.5
        grid = raster_membership(line, (0, 0, 1, 1), 3, 3)
        assert grid.shape == (3, 3)
        assert np.all(grid[1, :] == 1.0)  # row of cell centers at y = 0.5
        assert np.all(grid[0, :] == 0.0)
        assert np.all(grid[2, :] == 0.0)

    def test_codomain(self):
        line = FuzzyLineImplicit(T(0.5, 1, 1, 1.5), T(0.5, 1, 1, 1.5), T(0.5, 1, 1, 1.5))
        grid = raster_membership(line, (-1, -1, 2, 2), 6, 5)
        assert np.all(grid >= 0.0) and np.all(grid <= 1.0)

    def test_pointwise_determinism_on_refinement(self):
        # a 3x refinement re-samples every coarse cell center exactly, so the
        # values there must be bit-identical
        line = FuzzyLineImplicit(T(0.5, 1, 1, 1.5), T(0.5, 1, 1, 1.5), T(0.5, 1, 1, 1.5))
        bbox = (-1.0, -1.0, 2.0, 2.0)
        coarse = raster_membership(line, bbox, 4, 4)
        fine = raster_membership(line, bbox, 12, 12)
        for j in range(4):
            for i in range(4):
                assert coarse[j, i] == fine[3 * j + 1, 3 * i + 1]

    def test_polygon_pointwise_determinism_on_refinement(self):
        # cell widths 0.75 and 0.25 are exact, so the centers coincide
        poly = _fuzzy_pentagon()
        bbox = (-1.5, -1.5, 1.5, 1.5)
        coarse = raster_membership(poly, bbox, 4, 4)
        fine = raster_membership(poly, bbox, 12, 12)
        assert 0.0 < coarse.max() and fine.max() == 1.0
        for j in range(4):
            for i in range(4):
                assert coarse[j, i] == fine[3 * j + 1, 3 * i + 1]

    def test_cells_equal_membership_at_centers(self):
        bbox = (-2.2, -2.2, 2.2, 2.2)
        shapes = [
            _fuzzy_pentagon(),
            FuzzyLineImplicit(T(0.5, 1, 1, 1.5), T(0.5, 1, 1, 1.5), T(0.5, 1, 1, 1.5)),
            FuzzyLineSlope(T(0, 1, 1, 2), T(-0.2, 0, 0.1, 0.3)),
            FuzzySegment(FuzzyPoint.crisp(-1, -1), FuzzyPoint(T(0.5, 1, 1, 1.5), T.crisp(1))),
        ]
        nx, ny = 17, 13
        dx, dy = 4.4 / nx, 4.4 / ny
        for shape in shapes:
            grid = raster_membership(shape, bbox, nx, ny)
            for j in range(ny):
                for i in range(nx):
                    x, y = -2.2 + (i + 0.5) * dx, -2.2 + (j + 0.5) * dy
                    assert grid[j, i] == membership_at(shape, x, y)

    def test_repeat_identical(self):
        line = FuzzyLineImplicit(T(0.5, 1, 1, 1.5), T(0.5, 1, 1, 1.5), T(0.5, 1, 1, 1.5))
        g1 = raster_membership(line, (0, 0, 2, 2), 5, 5)
        g2 = raster_membership(line, (0, 0, 2, 2), 5, 5)
        assert np.array_equal(g1, g2)

    def test_degenerate_bbox_rejected(self):
        line = FuzzyLineImplicit.crisp(1, 1, 1)
        with pytest.raises(ValueError):
            raster_membership(line, (0, 0, 0, 1), 3, 3)

    @pytest.mark.parametrize("bbox", [
        (0, 0, math.inf, 2),
        (-math.inf, 0, 2, 2),
        (0, math.nan, 2, 2),
        (0, 0, 2, math.nan),
        (-1e308, 0, 1e308, 2),  # finite ends, infinite width
        (0, -1e308, 2, 1e308),
    ])
    def test_non_finite_bbox_rejected(self, bbox):
        line = FuzzyLineImplicit.crisp(1, 1, 1)
        with pytest.raises(ValueError, match="bbox must be finite"):
            check_grid(bbox, 4, 4)
        with pytest.raises(ValueError, match="bbox must be finite"):
            raster_membership(line, bbox, 4, 4)

    def test_small_grid_rejected(self):
        line = FuzzyLineImplicit.crisp(1, 1, 1)
        with pytest.raises(ValueError):
            raster_membership(line, (0, 0, 1, 1), 1, 3)

    def test_dispatch(self):
        seg = FuzzySegment(FuzzyPoint.crisp(0, 0), FuzzyPoint.crisp(1, 1))
        assert membership_at(seg, 0.5, 0.5) == 1.0
        with pytest.raises(TypeError):
            membership_at("not a shape", 0, 0)
