import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyblock.fuzzy_numbers import (
    TrapezoidalNumber,
    exceedance_poss,
    fit_trapezoid,
    linear_combine,
)
from possibility_oracle import poss_measure_crisp, poss_measure_fuzzy

T = TrapezoidalNumber


def trapezoids(lo=-50.0, hi=50.0):
    reals = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.tuples(reals, reals, reals, reals).map(lambda v: T(*sorted(v)))


class TestTrapezoidBasics:
    def test_knot_order_enforced(self):
        with pytest.raises(ValueError):
            T(1, 0, 2, 3)

    def test_crisp_degenerate(self):
        t = T.crisp(2.0)
        assert t.is_crisp
        assert t.membership(2.0) == 1.0
        assert t.membership(2.0001) == 0.0

    def test_membership_examples(self):
        t = T(0, 1, 2, 3)
        assert t.membership(1.5) == 1.0
        assert t.membership(4.0) == 0.0
        # linear ramp inversion, cross-checked by the alpha-grid scan below
        assert t.membership(0.5) == pytest.approx(0.5)

    @pytest.mark.parametrize("knots", [(0, 1, 1, 1), (0, 1, 2, 3), (2, 2, 2, 2)])
    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
    def test_membership_rejects_non_finite(self, knots, x):
        with pytest.raises(ValueError, match="x must be finite"):
            T(*knots).membership(x)

    def test_membership_matches_alpha_grid_scan(self):
        t = T(-1.0, 0.5, 2.0, 7.0)
        for x in [-1.5, -1.0, -0.2, 0.5, 1.7, 2.0, 4.1, 7.0, 8.0]:
            # oracle: largest alpha on a fine grid whose cut contains x
            grid = [k / 2000.0 for k in range(2001)]
            sup = 0.0
            for a in grid:
                cut = t.alpha_cut(a)
                if cut.lo <= x <= cut.hi:
                    sup = a
            assert t.membership(x) == pytest.approx(sup, abs=1e-3)

    def test_alpha_cut_examples(self):
        t = T(0, 1, 2, 3)
        assert (t.alpha_cut(0).lo, t.alpha_cut(0).hi) == (0.0, 3.0)
        assert (t.alpha_cut(1).lo, t.alpha_cut(1).hi) == (1.0, 2.0)
        assert (t.alpha_cut(0.5).lo, t.alpha_cut(0.5).hi) == (0.5, 2.5)

    def test_alpha_cut_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            T(0, 1, 2, 3).alpha_cut(1.5)
        with pytest.raises(ValueError):
            T(0, 1, 2, 3).alpha_cut(-0.01)

    @given(trapezoids(), st.floats(0, 1), st.floats(0, 1))
    def test_nestedness(self, t, a1, a2):
        lo_a, hi_a = min(a1, a2), max(a1, a2)
        outer, inner = t.alpha_cut(lo_a), t.alpha_cut(hi_a)
        assert outer.lo <= inner.lo + 1e-12
        assert inner.hi <= outer.hi + 1e-12

    @given(trapezoids(), st.floats(-60, 60), st.floats(0.001, 1.0))
    def test_membership_cut_round_trip(self, t, x, alpha):
        cut = t.alpha_cut(alpha)
        m = t.membership(x)
        if m >= alpha + 1e-9:
            assert cut.lo - 1e-9 <= x <= cut.hi + 1e-9
        if cut.lo + 1e-9 < x < cut.hi - 1e-9:
            assert m >= alpha - 1e-9


class TestLinearCombine:
    def test_scaling(self):
        assert linear_combine([2], [T(0, 1, 2, 3)]).to_list() == [0, 2, 4, 6]

    def test_crisp_shift(self):
        assert linear_combine([1, 1], [T(0, 1, 2, 3), T.crisp(1)]).to_list() == [1, 2, 3, 4]

    def test_reflection(self):
        assert linear_combine([-1], [T(0, 1, 2, 3)]).to_list() == [-3, -2, -1, 0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            linear_combine([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linear_combine([1.0], [T.crisp(0), T.crisp(1)])

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=4),
        st.data(),
    )
    def test_agrees_with_interval_arithmetic(self, coeffs, data):
        terms = [data.draw(trapezoids(-10, 10)) for _ in coeffs]
        combined = linear_combine(coeffs, terms)
        for k in range(11):
            alpha = k / 10.0
            lo = hi = 0.0
            for c, t in zip(coeffs, terms):
                cut = t.alpha_cut(alpha)
                a, b = (c * cut.lo, c * cut.hi) if c >= 0 else (c * cut.hi, c * cut.lo)
                lo += a
                hi += b
            cut = combined.alpha_cut(alpha)
            assert cut.lo == pytest.approx(lo, abs=1e-12 * (1 + abs(lo)))
            assert cut.hi == pytest.approx(hi, abs=1e-12 * (1 + abs(hi)))


def _grid_sup(f, lo, hi, step=1e-4):
    n = int((hi - lo) / step) + 1
    return max(f(lo + i * step) for i in range(n))


class TestPossibilityMeasures:
    def test_crisp_set_contains_core(self):
        assert poss_measure_crisp(T(0, 1, 1, 2), 0.9, 1.1) == 1.0

    def test_crisp_set_disjoint(self):
        assert poss_measure_crisp(T(0, 1, 1, 2), 3, 4) == 0.0

    def test_crisp_set_on_ramp_matches_grid_scan(self):
        dist = T(0, 1, 1, 2)
        value = poss_measure_crisp(dist, 1.5, 3.0)
        oracle = _grid_sup(dist.membership, 1.5, 3.0)
        assert value == pytest.approx(0.5)
        assert value == pytest.approx(oracle, abs=1e-4)

    def test_crisp_set_inverted_rejected(self):
        with pytest.raises(ValueError):
            poss_measure_crisp(T(0, 1, 1, 2), 2.0, 1.0)

    def test_fuzzy_self_is_one(self):
        t = T(0, 1, 1, 2)
        assert poss_measure_fuzzy(t, t) == 1.0

    def test_fuzzy_disjoint_supports(self):
        assert poss_measure_fuzzy(T(0, 1, 1, 2), T(3, 4, 4, 5)) == 0.0

    def test_fuzzy_ramp_crossing_matches_grid_scan(self):
        dist, a = T(0, 1, 1, 2), T(1, 2, 2, 3)
        value = poss_measure_fuzzy(dist, a)
        oracle = _grid_sup(lambda u: min(dist.membership(u), a.membership(u)), 0.0, 3.0)
        assert value == pytest.approx(0.5)
        assert value == pytest.approx(oracle, abs=1e-4)

    @given(trapezoids(-10, 10), trapezoids(-10, 10))
    # a steep ramp crossing a shallow one: the crossing point rounds
    # differently along each ramp
    @example(T(0.0, 0.0, 0.0, 1e-06), T(-1.0, 0.5, 1.0, 1.0))
    def test_fuzzy_symmetry(self, a, b):
        assert poss_measure_fuzzy(a, b) == pytest.approx(poss_measure_fuzzy(b, a), abs=1e-12)

    @given(trapezoids(-10, 10), trapezoids(-10, 10))
    @settings(max_examples=60)
    def test_fuzzy_matches_grid_scan(self, a, b):
        # condition the ramps: near-vertical ramps snap to exactly vertical so
        # the oracle's grid slack stays bounded (vertical jumps sit on knots)
        def snap(t):
            a1, a2, a3, a4 = t.a1, t.a2, t.a3, t.a4
            if a2 - a1 < 0.01:
                a1 = a2
            if a4 - a3 < 0.01:
                a4 = a3
            return T(a1, a2, a3, a4)

        a, b = snap(a), snap(b)
        value = poss_measure_fuzzy(a, b)

        def scan(lo, hi, n):
            pts = [lo + i * (hi - lo) / n for i in range(n + 1)]
            pts += [a.a1, a.a2, a.a3, a.a4, b.a1, b.a2, b.a3, b.a4]
            best_x, best = pts[0], -1.0
            for u in pts:
                m = min(a.membership(u), b.membership(u))
                if m > best:
                    best_x, best = u, m
            return best_x, best

        lo = min(a.a1, b.a1) - 0.5
        hi = max(a.a4, b.a4) + 0.5
        coarse = (hi - lo) / 20000
        x0, _ = scan(lo, hi, 20000)
        _, oracle = scan(x0 - coarse, x0 + coarse, 1000)
        assert value >= oracle - 1e-9
        assert value <= oracle + 1e-3


class TestExceedance:
    def test_paper_case_one(self):
        assert exceedance_poss(T(5, 6, 7, 8), T(1, 2, 3, 4)) == 1.0

    def test_paper_case_zero(self):
        assert exceedance_poss(T(1, 2, 3, 4), T(5, 6, 7, 8)) == 0.0

    def test_paper_delta_one_third(self):
        # direct evaluation of the variant="paper" ratio (b4-r3)/((b4-r3)+(r4-r3))
        assert exceedance_poss(T(0, 1, 2, 4), T(1, 2, 3, 5), "paper") == pytest.approx(1 / 3)

    def test_standard_delta_is_ramp_intersection_height(self):
        b, r = T(0, 1, 2, 4), T(1, 2, 3, 5)
        value = exceedance_poss(b, r, "standard")
        assert value == pytest.approx((4 - 3) / ((4 - 3) + (5 - 2)))
        # the height where b's falling ramp meets the line rising over r's
        # right spread: (b4-x)/(b4-b3) = (x-r3)/(r4-r3)
        x = (4 * (5 - 3) + 3 * (4 - 2)) / ((5 - 3) + (4 - 2))
        assert value == pytest.approx((4 - x) / (4 - 2))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            exceedance_poss(T.crisp(0), T.crisp(0), "bogus")

    @given(trapezoids(-10, 10), trapezoids(-10, 10))
    # subnormal spreads: the ramps meet at height 0.5
    @example(T(0.0, 0.0, 0.0, 2.225073858507203e-309), T(0.0, 0.0, 0.0, 2.225073858507203e-309))
    # the ramps meet at height 0.5 between two adjacent floats
    @example(T(0.0, 0.0, 9.999999999999998, 10.0), T(0.0, 0.0, 9.999999999999998, 10.0))
    def test_standard_is_possibility_of_at_least_r(self, b, r):
        # "at least r" rises over r's right spread and stays at 1 past b
        top = max(b.a4, r.a4) + 1.0
        at_least_r = T(r.a3, r.a4, top, top)
        assert exceedance_poss(b, r, "standard") == pytest.approx(
            poss_measure_fuzzy(b, at_least_r), abs=1e-9)

    @given(trapezoids(-10, 10))
    def test_self_exceedance(self, b):
        for variant in ("paper", "standard"):
            value = exceedance_poss(b, b, variant)
            if b.a3 >= b.a4:
                assert value == 1.0
            else:
                assert 0.0 < value <= 1.0

    @given(trapezoids(-10, 10), trapezoids(-10, 10), st.floats(0, 5))
    def test_upward_shift_never_decreases(self, b, r, shift):
        shifted = T(b.a1 + shift, b.a2 + shift, b.a3 + shift, b.a4 + shift)
        for variant in ("paper", "standard"):
            assert exceedance_poss(shifted, r, variant) >= exceedance_poss(b, r, variant) - 1e-12

    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_crisp_degeneration(self, x, y):
        b, r = T.crisp(x), T.crisp(y)
        for variant in ("paper", "standard"):
            if x > y:
                assert exceedance_poss(b, r, variant) == 1.0
            elif x < y:
                assert exceedance_poss(b, r, variant) == 0.0

    @given(trapezoids(-10, 10), trapezoids(-10, 10))
    def test_bounded(self, b, r):
        for variant in ("paper", "standard"):
            assert 0.0 <= exceedance_poss(b, r, variant) <= 1.0


class TestFitTrapezoid:
    def test_fit_trapezoid_from_levels(self):
        assert fit_trapezoid((0.0, 3.0), (1.0, 2.0)).to_list() == [0, 1, 2, 3]

    def test_fit_trapezoid_crisp(self):
        assert fit_trapezoid((2.0, 2.0), (2.0, 2.0)).to_list() == [2, 2, 2, 2]

    def test_fit_trapezoid_distance_example(self):
        t = fit_trapezoid((4.472, 5.657), (5.0, 5.0))
        assert t.to_list() == [4.472, 5.0, 5.0, 5.657]

    def test_non_nested_rejected(self):
        with pytest.raises(ValueError):
            fit_trapezoid((0.0, 1.0), (-1.0, 0.5))

    def test_exact_nesting_kept(self):
        # core ends on the support ends are kept, signed zeros included
        t = fit_trapezoid((-0.0, 3.0), (-0.0, 3.0 - 2.0 ** -51))
        assert [x.hex() for x in t.to_list()] == [
            x.hex() for x in (-0.0, -0.0, 3.0 - 2.0 ** -51, 3.0)
        ]

    def test_core_equal_to_support(self):
        assert fit_trapezoid((0.5, 2.5), (0.5, 2.5)).to_list() == [0.5, 0.5, 2.5, 2.5]

    @pytest.mark.parametrize("core, knots", [
        ((-5e-13, 0.5), [0.0, 0.0, 0.5, 1.0]),
        ((0.5, 1.0 + 5e-13), [0.0, 0.5, 1.0, 1.0]),
        ((-1e-12, 1.0 + 1e-12), [0.0, 0.0, 1.0, 1.0]),
        # a point core just past an end is clamped onto it, not inverted
        ((1.0 + 5e-13, 1.0 + 5e-13), [0.0, 1.0, 1.0, 1.0]),
        ((-5e-13, -5e-13), [0.0, 0.0, 0.0, 1.0]),
    ])
    def test_sub_tolerance_overhang_clamped(self, core, knots):
        assert fit_trapezoid((0.0, 1.0), core).to_list() == knots

    def test_inverted_core_becomes_midpoint(self):
        a2, a3 = 0.5 + 2e-13, 0.5 - 2e-13
        t = fit_trapezoid((0.0, 1.0), (a2, a3))
        assert t.a2 == t.a3 == 0.5 * (a2 + a3)
        assert t.support == (0.0, 1.0)

    @pytest.mark.parametrize("core", [
        (-1e-9, 0.5),
        (0.5, 1.0 + 1e-9),
        (1.0 + 1e-9, 1.0 + 1e-9),
        (0.5 + 1e-9, 0.5),
        (float("nan"), 0.5),
    ])
    def test_overhang_beyond_tolerance_rejected(self, core):
        with pytest.raises(ValueError, match=r"core \[.*\] does not nest in support \[0\.0, 1\.0\]"):
            fit_trapezoid((0.0, 1.0), core)
