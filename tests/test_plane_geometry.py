import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hull_oracle import hull_feasible

from fuzzyblock.fuzzy_numbers import TrapezoidalNumber
from fuzzyblock.plane_geometry import (
    FuzzyLineImplicit,
    FuzzyLineSlope,
    FuzzyPoint,
    FuzzyPolygon,
    FuzzySegment,
    fuzzy_distance,
    line_membership,
    membership_at,
    polygon_membership,
    raster_membership,
    segment_membership,
    slope_line_membership,
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
        assert line_membership(line, 1, 1) == 1.0
        assert line_membership(line, 0, 0) == 0.0

    def test_core_point_full_membership(self):
        line = FuzzyLineImplicit(T(0.9, 1, 1, 1.1), T(0.9, 1, 1, 1.1), T(1.8, 2, 2, 2.2))
        assert line_membership(line, 1, 1) == 1.0

    def test_off_core_point_matches_exact_sup(self):
        line = FuzzyLineImplicit(T(0.9, 1, 1, 1.1), T(0.9, 1, 1, 1.1), T(1.8, 2, 2, 2.2))
        # cut intervals separate when 1.89 + 0.21a > 2.2 - 0.2a, at a = 0.31/0.41
        value = line_membership(line, 1.05, 1.05)
        assert value == pytest.approx(0.31 / 0.41, abs=1e-5)
        oracle = grid_sup_alpha(lambda a: line_feasible_oracle(line, 1.05, 1.05, a))
        assert value == pytest.approx(oracle, abs=2e-3)

    def test_degenerate_direction_rejected(self):
        with pytest.raises(ValueError):
            FuzzyLineImplicit(T.crisp(0), T.crisp(0), T.crisp(1))


class TestSlopeLineMembership:
    def test_crisp(self):
        line = FuzzyLineSlope(T.crisp(1), T.crisp(0))
        assert slope_line_membership(line, 2, 2) == 1.0

    def test_core_slope(self):
        line = FuzzyLineSlope(T(0, 1, 1, 2), T.crisp(0))
        assert slope_line_membership(line, 1, 1) == 1.0

    def test_half_membership(self):
        line = FuzzyLineSlope(T(0, 1, 1, 2), T.crisp(0))
        value = slope_line_membership(line, 1, 1.5)
        assert value == pytest.approx(0.5, abs=1e-5)
        oracle = grid_sup_alpha(lambda a: slope_feasible_oracle(line, 1, 1.5, a))
        assert value == pytest.approx(oracle, abs=2e-3)


class TestSegmentMembership:
    def test_crisp_segment_indicator(self):
        seg = FuzzySegment(FuzzyPoint.crisp(0, 0), FuzzyPoint.crisp(1, 0))
        assert segment_membership(seg, 0.5, 0) == 1.0
        assert segment_membership(seg, 0.5, 0.1) == 0.0

    def test_fuzzy_band(self):
        seg = FuzzySegment(
            FuzzyPoint(T.crisp(0), T(-0.1, 0, 0, 0.1)),
            FuzzyPoint(T.crisp(1), T(-0.1, 0, 0, 0.1)),
        )
        value = segment_membership(seg, 0.5, 0.05)
        assert value == pytest.approx(0.5, abs=1e-5)
        assert segment_feasible_oracle(seg, 0.5, 0.05, value - 1e-3)

    def test_support_boundary_point(self):
        seg = FuzzySegment(
            FuzzyPoint(T.crisp(0), T(-0.1, 0, 0, 0.1)),
            FuzzyPoint(T.crisp(1), T(-0.1, 0, 0, 0.1)),
        )
        assert segment_membership(seg, 0.0, -0.1) <= 1e-6

    def test_overlapping_cores_warn(self):
        with pytest.warns(UserWarning):
            FuzzySegment(FuzzyPoint.crisp(0, 0), FuzzyPoint.crisp(0, 0))


class TestPolygonMembership:
    def _unit_square(self):
        return FuzzyPolygon(
            tuple(FuzzyPoint.crisp(*v) for v in [(0, 0), (1, 0), (1, 1), (0, 1)])
        )

    def test_edge_point(self):
        assert polygon_membership(self._unit_square(), 0, 0.5) == 1.0

    def test_interior_excluded(self):
        # the fuzzy polygon is its edge bundle, not a filled region
        assert polygon_membership(self._unit_square(), 0.5, 0.5) == 0.0

    def test_vertex_point(self):
        assert polygon_membership(self._unit_square(), 0, 0) == 1.0

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
            pm = polygon_membership(poly, px, py)
            edge_vals = [segment_membership(e, px, py) for e in poly.edges()]
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
            value = line_membership(line, px, py)
            oracle = grid_sup_alpha(lambda a: line_feasible_oracle(line, px, py, a))
            assert value == pytest.approx(oracle, abs=2e-3)
            checked += 1
        for _ in range(40):
            slope = FuzzyLineSlope(random_trap(rng), random_trap(rng))
            px, py = rng.uniform(-4, 4, size=2)
            value = slope_line_membership(slope, px, py)
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
            value = segment_membership(seg, px, py)
            oracle = grid_sup_alpha(lambda a: hull_feasible(seg, px, py, a))
            assert value == pytest.approx(oracle, abs=2e-3)
            checked += 1
        assert checked >= 100


def _mu(knots, x):
    """Trapezoid membership of x for knot arrays (a1, a2, a3, a4), any shape."""
    a1, a2, a3, a4 = knots
    with np.errstate(divide="ignore", invalid="ignore"):
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
    c = draw(st.floats(-3.0, 3.0))
    widths = [draw(st.sampled_from([0.0]) | st.floats(0.001, 0.6)) for _ in range(2)]
    core, ramp = sorted(widths)
    return T(c - ramp, c - core, c + core, c + ramp)


@st.composite
def segments_and_points(draw):
    p = FuzzyPoint(draw(trapezoids()), draw(trapezoids()))
    q = FuzzyPoint(draw(trapezoids()), draw(trapezoids()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        seg = FuzzySegment(p, q)
    lam = draw(st.floats(0.0, 1.0))
    cx = lam * p.x.a2 + (1 - lam) * q.x.a3
    cy = lam * p.y.a3 + (1 - lam) * q.y.a2
    dx, dy = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
    return seg, cx + dx, cy + dy


class TestExactSegment:
    @settings(max_examples=200, deadline=None)
    @given(segments_and_points())
    def test_never_exceeded_by_dense_lambda_scan(self, case):
        seg, px, py = case
        value = segment_membership(seg, px, py)
        assert 0.0 <= value <= 1.0
        assert lambda_scan(seg, px, py) <= value

    def test_subnormal_span_reads_without_overflow(self):
        tiny = 2.2250738585e-313
        seg = FuzzySegment(FuzzyPoint.crisp(0, 0), FuzzyPoint.crisp(0, tiny))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert segment_membership(seg, 0.0, 0.5) == 0.0
            assert segment_membership(seg, 0.0, 0.0) == 1.0

    def test_crisp_skew_segment(self):
        seg = FuzzySegment(FuzzyPoint.crisp(0, 0), FuzzyPoint.crisp(3, 1))
        assert segment_membership(seg, 1, 1 / 3) == 1.0
        assert segment_membership(seg, 0.3, 0.1) == 1.0
        assert segment_membership(seg, 3, 1) == 1.0
        assert segment_membership(seg, 1, 0.34) == 0.0
        assert segment_membership(seg, 3.3, 1.1) == 0.0

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
            assert segment_membership(seg, px, py) == 1.0


class TestFuzzyDistance:
    def test_crisp_pythagoras(self):
        d = fuzzy_distance(FuzzyPoint.crisp(0, 0), FuzzyPoint.crisp(3, 4))
        for level in d.levels:
            assert level.lo == pytest.approx(5.0)
            assert level.hi == pytest.approx(5.0)

    def test_interval_example(self):
        p = FuzzyPoint(T(-1, 0, 0, 1), T.crisp(0))
        q = FuzzyPoint.crisp(3, 4)
        d = fuzzy_distance(p, q)
        assert d.support.lo == pytest.approx(math.sqrt(20))
        assert d.support.hi == pytest.approx(math.sqrt(32))
        assert d.core.lo == pytest.approx(5.0)
        assert d.core.hi == pytest.approx(5.0)

    def test_corner_enumeration_oracle(self):
        rng = np.random.Generator(np.random.Philox(13))
        p = FuzzyPoint(T(-1, 0, 0, 1), T.crisp(0))
        q = FuzzyPoint.crisp(3, 4)
        d = fuzzy_distance(p, q)
        bx, by = p.alpha_box(0.0)
        cx, cy = q.alpha_box(0.0)
        pts1 = np.column_stack(
            [rng.uniform(bx.lo, bx.hi, 10000), rng.uniform(by.lo, max(by.hi, by.lo + 1e-12), 10000)]
        )
        pts2 = np.column_stack(
            [np.full(10000, cx.lo), np.full(10000, cy.lo)]
        )
        dists = np.linalg.norm(pts1 - pts2, axis=1)
        assert d.support.lo <= dists.min() + 1e-9
        assert d.support.hi >= dists.max() - 1e-9
        assert d.support.lo == pytest.approx(dists.min(), abs=1e-2)
        assert d.support.hi == pytest.approx(dists.max(), abs=1e-2)

    def test_overlapping_supports_zero_min(self):
        p = FuzzyPoint(T(-1, 0, 0, 1), T(-1, 0, 0, 1))
        q = FuzzyPoint(T(0.5, 1, 1, 1.5), T(0.5, 1, 1, 1.5))
        d = fuzzy_distance(p, q)
        assert d.support.lo == 0.0

    def test_symmetry_and_nesting(self):
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(20):
            p = FuzzyPoint(random_trap(rng), random_trap(rng))
            q = FuzzyPoint(random_trap(rng), random_trap(rng))
            d1 = fuzzy_distance(p, q)
            d2 = fuzzy_distance(q, p)
            for l1, l2 in zip(d1.levels, d2.levels):
                assert l1.lo == pytest.approx(l2.lo, abs=1e-12)
                assert l1.hi == pytest.approx(l2.hi, abs=1e-12)
            for prev, cur in zip(d1.levels, d1.levels[1:]):
                assert prev.lo <= cur.lo + 1e-12
                assert cur.hi <= prev.hi + 1e-12

    def test_levels_validation(self):
        with pytest.raises(ValueError):
            fuzzy_distance(FuzzyPoint.crisp(0, 0), FuzzyPoint.crisp(1, 1), levels=1)


def _fuzzy_pentagon():
    verts = []
    for k in range(5):
        ang = 2.0 * math.pi * k / 5
        cx, cy = 1.3 * math.cos(ang), 1.3 * math.sin(ang)
        verts.append(FuzzyPoint(T(cx - 0.2, cx - 0.03, cx + 0.03, cx + 0.2), T(cy - 0.1, cy, cy, cy + 0.15)))
    return FuzzyPolygon(tuple(verts))


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

    def test_small_grid_rejected(self):
        line = FuzzyLineImplicit.crisp(1, 1, 1)
        with pytest.raises(ValueError):
            raster_membership(line, (0, 0, 1, 1), 1, 3)

    def test_dispatch(self):
        seg = FuzzySegment(FuzzyPoint.crisp(0, 0), FuzzyPoint.crisp(1, 1))
        assert membership_at(seg, 0.5, 0.5) == 1.0
        with pytest.raises(TypeError):
            membership_at("not a shape", 0, 0)
