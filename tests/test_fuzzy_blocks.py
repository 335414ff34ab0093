import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyblock import fuzzy_blocks
from fuzzyblock.fuzzy_numbers import TrapezoidalNumber
from fuzzyblock.fuzzy_blocks import (
    FINITENESS_LABELS,
    FuzzyHalfSpaceConstraint,
    FuzzyOrientation,
    FuzzySystem,
    block_pyramid,
    constraint_poss,
    finiteness_label,
    fuzzy_normal,
    joint_constraint,
    pbp,
    pbps,
    pbr,
    systems_for_code,
)
from fuzzyblock.kernel import (
    CLASS_REMOVABLE,
    JointPlane,
    Orientation,
    classify_block,
    cone_nonempty,
    joint_pyramid,
)
from fuzzyblock.kernel.tunnel import all_codes

import pbp_oracle
from possibility_oracle import attains, min_poss_over_dirs
from test_tunnel import OCTAGON, SQUARE

T = TrapezoidalNumber

TETRA = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float) / math.sqrt(3)


def crisp_system(normals, kind="joint-pyramid"):
    return FuzzySystem(
        tuple(FuzzyHalfSpaceConstraint.crisp(row, 0.0) for row in normals), kind
    )


def fuzzed_tetra(spread):
    return FuzzySystem(
        tuple(
            FuzzyHalfSpaceConstraint(
                tuple(T(v - spread, v, v, v + spread) for v in row), T.crisp(0.0)
            )
            for row in TETRA
        ),
        "joint-pyramid",
    )


def knot_trapezoid(data, lo, hi, extremes, width):
    """A trapezoid within [lo, hi] centered on one of ``extremes`` or anywhere."""
    center = data.draw(st.sampled_from(extremes) | st.floats(lo, hi))
    w = sorted(data.draw(st.lists(st.floats(0.0, width), min_size=2, max_size=2)))
    knots = [center - w[1], center - w[0], center + w[0], center + w[1]]
    return T(*np.clip(knots, lo, hi))


def inline_clamp_normal(fo):
    """``fuzzy_normal`` as written before ``fit_trapezoid`` served it."""
    def contains(lo, hi, target):
        return math.ceil((lo - target) / 360.0) <= math.floor((hi - target) / 360.0)

    def sin_range(lo, hi):
        vals = (math.sin(math.radians(lo)), math.sin(math.radians(hi)))
        smin, smax = min(vals), max(vals)
        if contains(lo, hi, 90.0):
            smax = 1.0
        if contains(lo, hi, 270.0):
            smin = -1.0
        return smin, smax

    def cos_range(lo, hi):
        vals = (math.cos(math.radians(lo)), math.cos(math.radians(hi)))
        cmin, cmax = min(vals), max(vals)
        if contains(lo, hi, 0.0):
            cmax = 1.0
        if contains(lo, hi, 180.0):
            cmin = -1.0
        return cmin, cmax

    def product(a, b):
        prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
        return min(prods), max(prods)

    def box(alpha):
        dcut, tcut = fo.dip.alpha_cut(alpha), fo.dip_direction.alpha_cut(alpha)
        sin_dip = (math.sin(math.radians(dcut.lo)), math.sin(math.radians(dcut.hi)))
        cos_dip = (math.cos(math.radians(dcut.hi)), math.cos(math.radians(dcut.lo)))
        return (
            product(sin_dip, sin_range(tcut.lo, tcut.hi)),
            product(sin_dip, cos_range(tcut.lo, tcut.hi)),
            cos_dip,
        )

    comps = []
    for (a1, a4), (a2, a3) in zip(box(0.0), box(1.0)):
        a2, a3 = max(a2, a1), min(a3, a4)
        if a2 > a3:
            a2 = a3 = 0.5 * (a2 + a3)
        comps.append(T(a1, a2, a3, a4))
    return tuple(comps)


def assert_inline_clamp_bits(fo):
    assert [k.hex() for c in fuzzy_normal(fo) for k in c.to_list()] == [
        k.hex() for c in inline_clamp_normal(fo) for k in c.to_list()
    ]


class TestFuzzyNormal:
    def test_crisp_orientation_degenerates(self):
        fo = FuzzyOrientation(T.crisp(30), T.crisp(40))
        nx, ny, nz = fuzzy_normal(fo)
        from fuzzyblock.kernel.orientation import normal_from_orientation

        n = normal_from_orientation(Orientation(30, 40))
        for comp, val in zip((nx, ny, nz), n):
            assert comp.a1 == pytest.approx(val, abs=1e-12)
            assert comp.a4 == pytest.approx(val, abs=1e-12)

    def test_z_component_bounds(self):
        fo = FuzzyOrientation(T(25, 30, 30, 35), T.crisp(0))
        _, _, nz = fuzzy_normal(fo)
        assert nz.a1 == pytest.approx(math.cos(math.radians(35)))
        assert nz.a4 == pytest.approx(math.cos(math.radians(25)))

    def test_y_component_bounds(self):
        fo = FuzzyOrientation(T(25, 30, 30, 35), T.crisp(0))
        _, ny, _ = fuzzy_normal(fo)
        assert ny.a1 == pytest.approx(math.sin(math.radians(25)))
        assert ny.a4 == pytest.approx(math.sin(math.radians(35)))

    def test_quadrant_crossing_dd(self):
        # dip direction straddling north: sin changes sign, cos peaks at 1
        fo = FuzzyOrientation(T.crisp(45), T(-10, 0, 0, 10))
        nx, ny, _ = fuzzy_normal(fo)
        s = math.sin(math.radians(45))
        assert nx.a1 == pytest.approx(-s * math.sin(math.radians(10)))
        assert nx.a4 == pytest.approx(s * math.sin(math.radians(10)))
        assert ny.a4 == pytest.approx(s)

    def test_bounds_contain_samples(self):
        # support and core hold every normal of the alpha = 0 and 1 cut boxes
        fo = FuzzyOrientation(T(20, 30, 40, 50), T(100, 110, 120, 130))
        comps = fuzzy_normal(fo)
        rng = np.random.Generator(np.random.Philox(3))
        from fuzzyblock.kernel.orientation import normal_from_orientation

        for _ in range(500):
            alpha_level = float(rng.integers(0, 2))
            dcut = fo.dip.alpha_cut(alpha_level)
            tcut = fo.dip_direction.alpha_cut(alpha_level)
            dip = rng.uniform(dcut.lo, dcut.hi)
            dd = rng.uniform(tcut.lo, tcut.hi)
            n = normal_from_orientation(Orientation(dip, dd % 360.0))
            for comp, val in zip(comps, n):
                lo, hi = comp.support if alpha_level == 0.0 else comp.core
                assert lo - 1e-9 <= val <= hi + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_knots_are_tight(self, data):
        # each knot is the min or max of its component over the alpha = 0
        # (support) or alpha = 1 (core) box, so a dense grid reaches it: at
        # 0.05 degree spacing a grid point lies within 4e-7 of any extremum
        dip = knot_trapezoid(data, 0.0, 90.0, [0.0, 90.0], 20.0)
        dd = knot_trapezoid(data, -90.0, 450.0, [0.0, 90.0, 180.0, 270.0, 360.0], 44.0)
        fo = FuzzyOrientation(dip, dd)
        comps = fuzzy_normal(fo)
        for alpha in (0.0, 1.0):
            d, t = (
                np.radians(np.linspace(cut.lo, cut.hi, int((cut.hi - cut.lo) / 0.05) + 2))
                for cut in (dip.alpha_cut(alpha), dd.alpha_cut(alpha))
            )
            grid = (
                np.multiply.outer(np.sin(d), np.sin(t)),
                np.multiply.outer(np.sin(d), np.cos(t)),
                np.cos(d),
            )
            for comp, values in zip(comps, grid):
                lo, hi = comp.support if alpha == 0.0 else comp.core
                assert lo == pytest.approx(values.min(), abs=1e-6)
                assert hi == pytest.approx(values.max(), abs=1e-6)

    @pytest.mark.parametrize("dip, dd", [
        ((55, 60, 60, 65), (-5, 0, 0, 5)),  # the README's F1
        ((0, 0, 0, 5), (40, 45, 45, 50)),
        ((80, 85, 88, 90), (110, 115, 120, 125)),
        ((65, 70, 70, 75), (175, 180, 180, 185)),
        ((0, 0, 90, 90), (255, 270, 270, 285)),
        ((30, 35, 35, 40), (330, 355, 365, 370)),
    ])
    def test_project_attitudes_keep_inline_clamp_bits(self, dip, dd):
        assert_inline_clamp_bits(FuzzyOrientation(T(*dip), T(*dd)))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_knot_bits_match_inline_clamp(self, data):
        # dip supports touch 0 and 90; dip directions cross 0 to 360 and go
        # negative
        assert_inline_clamp_bits(FuzzyOrientation(
            knot_trapezoid(data, 0.0, 90.0, [0.0, 90.0], 20.0),
            knot_trapezoid(data, -90.0, 450.0, [0.0, 90.0, 180.0, 270.0, 360.0], 44.0),
        ))

    def test_wide_dip_direction_rejected(self):
        with pytest.raises(ValueError):
            FuzzyOrientation(T.crisp(30), T(0, 40, 50, 95))

    def test_dip_support_bounds(self):
        with pytest.raises(ValueError):
            FuzzyOrientation(T(-5, 0, 10, 20), T.crisp(0))


class TestConstraintPoss:
    def test_crisp_satisfied(self):
        c = FuzzyHalfSpaceConstraint.crisp((1, 0), 1.0)
        assert constraint_poss(c, (2, 0)) == 1.0

    def test_crisp_violated(self):
        c = FuzzyHalfSpaceConstraint.crisp((1, 0), 1.0)
        assert constraint_poss(c, (0, 0)) == 0.0

    def test_paper_delta_value(self):
        c = FuzzyHalfSpaceConstraint((T(0.9, 1, 1, 1.1), T.crisp(0)), T(1, 2, 3, 5))
        # scaled value (2.7, 3, 3, 3.3) against the threshold trapezoid
        assert constraint_poss(c, (3, 0), "paper") == pytest.approx(0.3 / 2.3)

    def test_dimension_mismatch(self):
        c = FuzzyHalfSpaceConstraint.crisp((1, 0, 0), 0.0)
        with pytest.raises(ValueError):
            constraint_poss(c, (1, 0))

    @pytest.mark.parametrize("coeffs, d", [
        ((T.crisp(1.0), 0.5), T.crisp(0.0)),
        ((T.crisp(1.0), T.crisp(0.0)), 0.0),
    ])
    def test_trapezoids_only(self, coeffs, d):
        # a non-trapezoidal number is rejected, not silently linearized
        with pytest.raises(TypeError):
            FuzzyHalfSpaceConstraint(coeffs, d)


class TestPbp:
    def test_single_crisp_constraint(self):
        sys = crisp_system(np.array([[0, 0, 1.0]]))
        assert pbp(sys) == 1.0

    def test_crisp_tetrahedron_empty(self):
        assert pbp(crisp_system(TETRA)) == 0.0
        # confirmed by a dense sweep: the min possibility is 0 everywhere
        rng = np.random.Generator(np.random.Philox(3))
        dirs = rng.normal(size=(1_000_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert float((dirs @ TETRA.T).min(axis=1).max()) < 0

    def test_fuzzed_tetrahedron_interior_value(self):
        # spread must exceed the crisp max-min margin (1/3 here) before any
        # direction has positive optimistic support, hence 0.25 per component
        sys = fuzzed_tetra(0.25)
        value = pbp(sys, "standard")
        assert 0.0 < value < 1.0
        # a dense 10^6-direction sample approaches the exact supremum from below
        rng = np.random.Generator(np.random.Philox(3))
        sampled = 0.0
        for _ in range(10):
            dirs = rng.normal(size=(100_000, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            sampled = max(sampled, float(min_poss_over_dirs(dirs, sys, "standard").max()))
        assert sampled <= value
        assert value - sampled <= 0.01

    def test_paper_variant_indicator_on_homogeneous(self):
        # with a crisp zero threshold the variant="paper" ratio always
        # evaluates to 1, so it degenerates to a 0/1 indicator there
        assert pbp(fuzzed_tetra(0.05), "paper") == 0.0
        assert pbp(fuzzed_tetra(0.25), "paper") == 1.0

    def test_inhomogeneous_rejected(self):
        sys = FuzzySystem((FuzzyHalfSpaceConstraint.crisp((1, 0), 1.0),), "joint-pyramid")
        with pytest.raises(ValueError):
            pbp(sys)

    def test_spread_monotonicity(self):
        rng = np.random.Generator(np.random.Philox(41))
        for _ in range(8):
            n = rng.integers(2, 5)
            normals = rng.normal(size=(n, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            base = rng.uniform(0.05, 0.2)
            narrow = FuzzySystem(
                tuple(
                    FuzzyHalfSpaceConstraint(
                        tuple(T(v - base, v, v, v + base) for v in row), T.crisp(0.0)
                    )
                    for row in normals
                ),
                "joint-pyramid",
            )
            wide = FuzzySystem(
                tuple(
                    FuzzyHalfSpaceConstraint(
                        tuple(c.widened(0.15) for c in con.coeffs), con.d
                    )
                    for con in narrow.constraints
                ),
                "joint-pyramid",
            )
            for variant in ("paper", "standard"):
                assert pbp(wide, variant) >= pbp(narrow, variant) - 1e-6

    def test_bounds(self):
        sys = fuzzed_tetra(0.3)
        for variant in ("paper", "standard"):
            assert 0.0 <= pbp(sys, variant) <= 1.0

    def test_deterministic(self):
        sys = fuzzed_tetra(0.25)
        assert pbp(sys, "standard") == pbp(sys, "standard")

    def test_two_dimensional_sweep(self):
        # fuzzy half-planes with a nonempty core wedge reach possibility 1
        wedge = FuzzySystem(
            (
                FuzzyHalfSpaceConstraint((T(0.9, 1, 1, 1.1), T(-0.1, 0, 0, 0.1)), T.crisp(0.0)),
                FuzzyHalfSpaceConstraint((T(-0.1, 0, 0, 0.1), T(0.9, 1, 1, 1.1)), T.crisp(0.0)),
            ),
            "joint-pyramid",
        )
        assert pbp(wedge) == 1.0
        # positively spanning fuzzy triple: strictly between empty and full
        ang = np.radians([90, 210, 330])
        triple = FuzzySystem(
            tuple(
                FuzzyHalfSpaceConstraint(
                    (T(c - 0.6, c, c, c + 0.6), T(s - 0.6, s, s, s + 0.6)), T.crisp(0.0)
                )
                for c, s in zip(np.cos(ang), np.sin(ang))
            ),
            "joint-pyramid",
        )
        value = pbp(triple, "standard")
        assert 0.0 < value < 1.0

    def test_vectorized_sweep_matches_scalar_reference(self):
        # the vectorized evaluator the PBP tests sample with must agree with
        # constraint_poss, the scalar reference it shortcuts
        rng = np.random.Generator(np.random.Philox(47))
        for _ in range(10):
            n = int(rng.integers(1, 5))
            constraints = []
            for _ in range(n):
                base = rng.normal(size=3)
                spread = rng.uniform(0.0, 0.4, size=3)
                constraints.append(
                    FuzzyHalfSpaceConstraint(
                        tuple(T(b - s, b, b, b + s) for b, s in zip(base, spread)),
                        T.crisp(0.0),
                    )
                )
            sys = FuzzySystem(tuple(constraints), "joint-pyramid")
            dirs = rng.normal(size=(50, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            for variant in ("paper", "standard"):
                fast = min_poss_over_dirs(dirs, sys, variant)
                for k in range(dirs.shape[0]):
                    slow = min(
                        constraint_poss(c, dirs[k], variant) for c in sys.constraints
                    )
                    assert fast[k] == pytest.approx(slow, abs=1e-12)


SPREADS = st.sampled_from([0.0]) | st.floats(0.01, 0.5)
CORE_HALF_WIDTHS = st.sampled_from([0.0]) | st.floats(0.01, 0.2)


@st.composite
def fuzzy_systems(draw, dim=None, crisp=False, rows=None):
    """Homogeneous fuzzy systems, degenerate ones included.

    Cores are unit vectors of small integer vectors, so degeneracies are
    exact: axis-aligned rows (dip 0 and dip 90 joints have them), parallel
    and opposed copies of an earlier core.  Each coefficient is a trapezoid
    around its core value with a core half-width and a ramp width, each 0 or
    at least 0.01; the value may exceed the attained possibility by up to
    1e-12 / spread, the margin slack of the cone test.  ``rows`` fixes the
    number of constraints.
    """
    dim = draw(st.sampled_from([2, 3])) if dim is None else dim
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    cores = []
    for _ in range(draw(st.integers(1, 4)) if rows is None else rows):
        kind = draw(st.sampled_from(["general", "axis", "parallel", "opposed"]))
        if kind == "axis":
            core = np.eye(dim)[draw(st.integers(0, dim - 1))] * draw(st.sampled_from([1.0, -1.0]))
        elif kind in ("parallel", "opposed") and cores:
            sign = 1.0 if kind == "parallel" else -1.0
            core = sign * cores[draw(st.integers(0, len(cores) - 1))]
        else:
            core = np.array(draw(vec), dtype=float)
            core /= np.linalg.norm(core)
        cores.append(core)
    constraints = []
    for core in cores:
        coeffs = []
        for c in core:
            h, w = (0.0, 0.0) if crisp else (draw(CORE_HALF_WIDTHS), draw(SPREADS))
            coeffs.append(T(c - h - w, c - h, c + h, c + h + w))
        constraints.append(FuzzyHalfSpaceConstraint(tuple(coeffs), T.crisp(0.0)))
    return FuzzySystem(tuple(constraints), "joint-pyramid")


def min_poss(system, v, variant):
    return min(constraint_poss(c, v, variant) for c in system.constraints)


def widened(system, amount):
    return FuzzySystem(
        tuple(
            FuzzyHalfSpaceConstraint(tuple(c.widened(amount) for c in con.coeffs), con.d)
            for con in system.constraints
        ),
        system.kind,
    )


VARIANTS = st.sampled_from(["paper", "standard"])


class TestExactPbp:
    """Properties of the exact supremum, checked with the public constraint_poss."""

    @settings(max_examples=60, deadline=None)
    @given(fuzzy_systems(), VARIANTS, st.integers(0, 2**32 - 1))
    def test_at_least_sampled_directions(self, system, variant, seed):
        value = pbp(system, variant)
        dirs = np.random.default_rng(seed).normal(size=(10_000, system.dimension))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # rank the directions with the vectorized evaluator, then score the
        # best ones with constraint_poss itself
        fast = min_poss_over_dirs(dirs, system, variant)
        best = np.argsort(fast)[-32:]
        assert all(value >= min_poss(system, dirs[k], variant) for k in best)

    @settings(max_examples=150, deadline=None)
    @given(fuzzy_systems(), VARIANTS)
    # empty cones are rare among the drawn systems, so the first two examples
    # have none (a claim of 1 there must fail); the third has a value in (0, 1)
    @example(crisp_system(TETRA), "paper")
    @example(fuzzed_tetra(0.05), "paper")
    @example(fuzzed_tetra(0.25), "standard")
    def test_value_is_attained(self, system, variant):
        value = pbp(system, variant)
        assert 0.0 <= value <= 1.0
        assert attains(system, value, variant)

    @settings(max_examples=100, deadline=None)
    @given(fuzzy_systems(), VARIANTS, st.floats(0.0, 0.3))
    def test_monotone_in_spread(self, system, variant, amount):
        assert pbp(widened(system, amount), variant) >= pbp(system, variant)

    @settings(max_examples=100, deadline=None)
    @given(fuzzy_systems(), VARIANTS, st.data())
    def test_block_pyramid_below_joint_pyramid(self, jp, variant, data):
        e = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=jp.dimension,
                                        max_size=jp.dimension)))
        if np.linalg.norm(e) < 0.1:
            e = np.eye(jp.dimension)[-1]
        assert pbp(block_pyramid(jp, e), variant) <= pbp(jp, variant)

    @settings(max_examples=150, deadline=None)
    @given(fuzzy_systems(crisp=True), VARIANTS)
    def test_zero_spread_matches_cone_nonempty(self, system, variant):
        normals = np.array([[t.a2 for t in c.coeffs] for c in system.constraints])
        expected = 1.0 if cone_nonempty(normals).nonempty[0] else 0.0
        assert pbp(system, variant) == expected

    @pytest.mark.parametrize("dim", [2, 3])
    def test_boundary_only_cone_is_impossible(self, dim):
        # optimistic sums l4 >= 0 meet only on the ray +x, where l4 = 0 but
        # l3 = -1 < 0: possibility 0 there, so the paper variant may not
        # report the touching cone, and the standard one stays within the
        # 1e-12 margin slack of 0; with every coefficient crisp at its knot
        # a4 the ray counts (l3 = l4 = 0) and the same orthant test finds it
        fuzzy_x = T(-1, -1, -1, 0)
        rows = [(T.crisp(1.0),) + (T.crisp(0.0),) * (dim - 1)]
        for k in range(1, dim):
            for sign in (1.0, -1.0):
                coeffs = [fuzzy_x] + [T.crisp(0.0)] * (dim - 1)
                coeffs[k] = T.crisp(sign)
                rows.append(tuple(coeffs))
        fuzzy = FuzzySystem(tuple(FuzzyHalfSpaceConstraint(r, T.crisp(0.0)) for r in rows))
        assert pbp(fuzzy, "paper") == 0.0
        assert pbp(fuzzy, "standard") <= 1e-12
        crisp = FuzzySystem(
            tuple(
                FuzzyHalfSpaceConstraint(tuple(T.crisp(c.a4) for c in r), T.crisp(0.0))
                for r in rows
            )
        )
        assert pbp(crisp, "paper") == 1.0

    def test_witness_inside_crisp_rows(self):
        # the supremum 0.625 / 1.625 sits on the ray (-1, -3) / sqrt(10),
        # the boundary of the last crisp row, which the attaining direction
        # must not leave
        r = 1.0 / math.sqrt(10.0)
        system = FuzzySystem(
            (
                FuzzyHalfSpaceConstraint.crisp((0.0, -1.0), 0.0),
                FuzzyHalfSpaceConstraint.crisp((0.0, -1.0), 0.0),
                FuzzyHalfSpaceConstraint((T(0.5, 1, 1, 1.5), T(-0.375, 0, 0, 0.375)), T.crisp(0.0)),
                FuzzyHalfSpaceConstraint.crisp((-3.0 * r, r), 0.0),
            )
        )
        value = pbp(system, "standard")
        assert value == pytest.approx(0.625 / 1.625, abs=1e-11)
        assert attains(system, value, "standard")

    @pytest.mark.parametrize("dim", [2, 3])
    def test_known_interior_value(self, dim):
        # crisp rows leave only the ray +x; there the fuzzy row scales to
        # l3 = a3 = -0.5 and l4 = a4 = 0.25, so the standard supremum is
        # 0.25 / 0.75 (to the cone test's slack) and the paper one is 1
        e = np.eye(dim)
        crisp = [e[0]] + [sign * e[k] for k in range(1, dim) for sign in (1.0, -1.0)]
        rows = tuple(FuzzyHalfSpaceConstraint.crisp(r, 0.0) for r in crisp)
        fuzzy = FuzzyHalfSpaceConstraint(
            (T(-1.0, -0.8, -0.5, 0.25),) + (T.crisp(0.0),) * (dim - 1), T.crisp(0.0)
        )
        system = FuzzySystem(rows + (fuzzy,))
        value = pbp(system, "standard")
        assert value == pytest.approx(1.0 / 3.0, abs=1e-11)
        assert attains(system, value, "standard")
        assert pbp(system, "paper") == 1.0
        assert attains(system, 1.0, "paper")

    @pytest.mark.parametrize("dip", [T.crisp(0.0), T(0, 0, 2, 5), T(85, 88, 90, 90), T.crisp(90.0)])
    @pytest.mark.parametrize("variant", ["paper", "standard"])
    def test_dip_extremes_and_opposed_copies(self, dip, variant):
        # a joint with its own opposite side and a parallel copy
        fo = FuzzyOrientation(dip, T(110, 115, 120, 125))
        up, low = joint_constraint(fo, "U"), joint_constraint(fo, "L")
        steep = joint_constraint(FuzzyOrientation(T(55, 60, 60, 65), T(-5, 0, 0, 5)), "L")
        for rows in [(up, low), (up, up, steep), (up, low, steep)]:
            system = FuzzySystem(rows)
            value = pbp(system, variant)
            assert 0.0 <= value <= 1.0
            assert attains(system, value, variant)
            for e in np.eye(3):
                assert pbp(block_pyramid(system, e), variant) <= value


@st.composite
def system_batches(draw):
    """Lists of 1 to 8 drawn systems that share their row count and dimension."""
    dim, rows = draw(st.sampled_from([2, 3])), draw(st.integers(1, 4))
    return draw(st.lists(fuzzy_systems(dim=dim, rows=rows), min_size=1, max_size=8))


def bits(values):
    return [float(v).hex() for v in values]


class TestBatchedPbp:
    """``pbps`` against the one-system search it replaced (``pbp_oracle``)."""

    @settings(max_examples=150, deadline=None)
    @given(system_batches(), VARIANTS)
    @example([crisp_system(TETRA), fuzzed_tetra(0.05), fuzzed_tetra(0.25)], "standard")
    def test_matches_per_system_search(self, systems, variant):
        knots = np.array([pbp_oracle._knot_matrices(s) for s in systems])
        assert bits(pbps(knots, variant)) == bits(pbp_oracle.pbp(s, variant) for s in systems)
        assert bits(pbp(s, variant) for s in systems) == bits(pbps(knots, variant))

    @settings(max_examples=100, deadline=None)
    @given(system_batches(), VARIANTS, st.integers(1, 400), st.data())
    def test_independent_of_position_and_chunks(self, systems, variant, entries, data):
        # each system alone, against the batch in any order with chunks of a
        # few (row, ray, constraint) margins, often one cone test per chunk
        alone = [pbps(pbp_oracle._knot_matrices(s)[None], variant)[0] for s in systems]
        order = data.draw(st.permutations(range(len(systems))))
        knots = np.array([pbp_oracle._knot_matrices(systems[k]) for k in order])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fuzzy_blocks, "_CHUNK_ENTRIES", entries)
            batched = pbps(knots, variant)
        assert bits(batched) == bits(alone[k] for k in order)

    def test_empty_batch(self):
        for variant in ("paper", "standard"):
            assert pbps(np.zeros((0, 4, 2, 3)), variant).shape == (0,)

    def test_malformed_input_rejected(self):
        with pytest.raises(ValueError, match="unknown delta variant"):
            pbps(np.zeros((1, 4, 1, 3)), "median")
        with pytest.raises(ValueError, match=r"shape \(S, 4, m, d\)"):
            pbps(np.zeros((4, 1, 3)))

    @pytest.mark.parametrize("variant", ["paper", "standard"])
    def test_non_finite_knots_rejected(self, variant):
        # all-NaN knots once gave PBP 1.0
        knots = np.zeros((3, 4, 2, 3)) + [0.0, 0.0, 1.0]
        knots[1] = np.nan
        knots[2, 3, 1, 0] = np.inf
        with pytest.raises(ValueError, match=r"system\(s\) \[1, 2\] have non-finite knots"):
            pbps(knots, variant)

    def test_code_and_block_knots_match_systems_for_code(self):
        joints = [
            FuzzyOrientation(T(0, 0, 0, 5), T(40, 45, 45, 50)),
            FuzzyOrientation(T(80, 85, 88, 90), T(110, 115, 120, 125)),
        ]
        codes = ["LL", "LU", "UL", "UU"]
        normals = [(1.0, 0.0, 0.0), (0.3, -2.0, 0.5)]
        jp = fuzzy_blocks.code_knots(joints, codes)
        bp = fuzzy_blocks.block_knots(jp, normals).reshape(len(normals), len(codes), 4, 3, 3)
        for c, code in enumerate(codes):
            for f, e in enumerate(normals):
                jp_sys, bp_sys = systems_for_code(joints, code, e)
                assert bits(jp[c].ravel()) == bits(pbp_oracle._knot_matrices(jp_sys).ravel())
                assert bits(bp[f, c].ravel()) == bits(pbp_oracle._knot_matrices(bp_sys).ravel())
        with pytest.raises(ValueError, match="one side"):
            fuzzy_blocks.code_knots(joints, ["UX"])


def _valued_systems():
    """4-row 3-D systems whose standard PBP is exactly 0, exactly 1 or in between."""
    octant = np.vstack([np.eye(3), np.ones((1, 3)) / math.sqrt(3.0)])
    return {
        "zero": [crisp_system(TETRA), fuzzed_tetra(0.05)],
        "one": [crisp_system(octant), widened(crisp_system(octant), 0.1)],
        "between": [fuzzed_tetra(0.25), fuzzed_tetra(0.6)],
    }


class TestStandardSearchOrder:
    """The standard search tests t = 1 first, and t = 0 only where t = 1 fails."""

    def _cone_tests(self, monkeypatch, system):
        counts = []
        edges = fuzzy_blocks._orthant_edges

        def counted(rows, signs):
            counts.append(len(rows))
            return edges(rows, signs)

        monkeypatch.setattr(fuzzy_blocks, "_orthant_edges", counted)
        value = pbp(system, "standard")
        monkeypatch.undo()
        return value, sum(counts)

    def test_value_one_tests_only_t_one(self, monkeypatch):
        # one cone test per octant at t = 1 decides it; t = 0 is never tested
        for system in _valued_systems()["one"]:
            assert self._cone_tests(monkeypatch, system) == (1.0, 8)

    def test_value_zero_tests_t_one_then_t_zero(self, monkeypatch):
        for system in _valued_systems()["zero"]:
            assert self._cone_tests(monkeypatch, system) == (0.0, 16)

    def test_value_between_multisects(self, monkeypatch):
        for system in _valued_systems()["between"]:
            value, tests = self._cone_tests(monkeypatch, system)
            assert 0.0 < value < 1.0 and tests > 16

    @pytest.mark.parametrize("variant", ["paper", "standard"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bit_equal_to_oracle_alone_and_in_batches(self, variant, data):
        pool = [s for group in _valued_systems().values() for s in group]
        batch = data.draw(st.permutations(pool))
        batch += data.draw(st.lists(st.sampled_from(pool) | fuzzy_systems(dim=3, rows=4),
                                    max_size=6))
        batch = data.draw(st.permutations(batch))
        knots = np.array([pbp_oracle._knot_matrices(s) for s in batch])
        expected = bits(pbp_oracle.pbp(s, variant) for s in batch)
        assert bits(pbps(knots, variant)) == expected
        assert bits(pbps(k[None], variant)[0] for k in knots) == expected


class TestBlockCodeRule:
    @pytest.mark.parametrize("code", ["UL", "ULLU", "UXL", "ulu", ""])
    def test_crisp_and_fuzzy_readers_reject_a_bad_code_alike(self, code):
        crisp = [JointPlane(f"J{i + 1}", Orientation(60, dd), 20.0)
                 for i, dd in enumerate((0, 120, 240))]
        fuzzy = [FuzzyOrientation(T.crisp(60), T.crisp(dd)) for dd in (0, 120, 240)]
        readers = [
            lambda: joint_pyramid(code, crisp),
            lambda: classify_block(code, crisp, (0, 0, 1)),
            lambda: systems_for_code(fuzzy, code, (0, 0, 1)),
            lambda: fuzzy_blocks.code_knots(fuzzy, [code]),
        ]
        messages = set()
        for read in readers:
            with pytest.raises(ValueError, match="one side") as info:
                read()
            messages.add(str(info.value))
        assert len(messages) == 1


class TestPbr:
    def test_crisp_removable_roof(self):
        joints = [FuzzyOrientation(T.crisp(60), T.crisp(dd)) for dd in (0, 120, 240)]
        jp_sys, bp_sys = systems_for_code(joints, "LLL", (0, 0, 1))
        assert pbr(jp_sys, bp_sys) == 1.0

    def test_crisp_infinite(self):
        joints = [FuzzyOrientation(T.crisp(60), T.crisp(dd)) for dd in (0, 120, 240)]
        jp_sys, bp_sys = systems_for_code(joints, "UUU", (0, 0, 1))
        assert pbr(jp_sys, bp_sys) == 0.0

    def test_crisp_tapered(self):
        # JP itself positively spans: no movement direction at all
        jp_sys = crisp_system(TETRA)
        bp_sys = crisp_system(np.vstack([TETRA, [[0, 0, 1.0]]]), "block-pyramid")
        assert pbr(jp_sys, bp_sys) == 0.0

    def test_kinds_checked(self):
        sys_jp = crisp_system(TETRA)
        with pytest.raises(ValueError):
            pbr(sys_jp, sys_jp)

    def test_crisp_limit_matches_classification(self):
        rng = np.random.Generator(np.random.Philox(43))
        agree = 0
        for _ in range(200):
            n = int(rng.integers(1, 4))
            dips = rng.uniform(5, 85, size=n)
            dds = rng.uniform(0, 360, size=n)
            code = "".join(rng.choice(["U", "L"], size=n))
            e = rng.normal(size=3)
            e /= np.linalg.norm(e)
            joints = [JointPlane(f"J{k}", Orientation(dips[k], dds[k]), 20.0) for k in range(n)]
            cls, _, _ = classify_block(code, joints, e)
            fuzzy_joints = [
                FuzzyOrientation(T.crisp(dips[k]), T.crisp(dds[k] if dds[k] < 270 else dds[k] - 360))
                for k in range(n)
            ]
            jp_sys, bp_sys = systems_for_code(fuzzy_joints, code, e)
            for variant in ("paper", "standard"):
                value = pbr(jp_sys, bp_sys, variant)
                assert value in (0.0, 1.0)
                assert (value == 1.0) == (cls == CLASS_REMOVABLE)
            agree += 1
        assert agree == 200

    def test_bounds_by_construction(self):
        joints = [
            FuzzyOrientation(T(55, 60, 60, 65), T(-5, 0, 0, 5)),
            FuzzyOrientation(T(55, 60, 60, 65), T(115, 120, 120, 125)),
            FuzzyOrientation(T(55, 60, 60, 65), T(235, 240, 240, 245)),
        ]
        jp_sys, bp_sys = systems_for_code(joints, "LLL", (0, 0, 1))
        for variant in ("paper", "standard"):
            value = pbr(jp_sys, bp_sys, variant)
            assert 0.0 <= value <= 1.0
            assert value <= 1.0 - pbp(bp_sys, variant) + 1e-12
            assert value <= pbp(jp_sys, variant) + 1e-12


class TestFinitenessLabel:
    def test_crisp_endpoints(self):
        assert finiteness_label(0.0) == "finite"
        assert finiteness_label(1.0) == "infinite"

    def test_middle_band(self):
        assert finiteness_label(0.5) == "not so very finite"

    def test_monotone_ordering(self):
        order = {label: i for i, label in enumerate(FINITENESS_LABELS)}
        prev = -1
        for k in range(101):
            rank = order[finiteness_label(k / 100)]
            assert rank >= prev
            prev = rank

    def test_custom_thresholds(self):
        assert finiteness_label(0.2, (0.9, 0.5, 0.1)) == "quasi finite"

    def test_range_checked(self):
        with pytest.raises(ValueError):
            finiteness_label(1.2)
        with pytest.raises(ValueError):
            finiteness_label(0.5, (0.5, 0.7, 0.3))

    def test_joint_constraint_sides(self):
        fo = FuzzyOrientation(T(25, 30, 30, 35), T.crisp(0))
        up = joint_constraint(fo, "U")
        lo = joint_constraint(fo, "L")
        for cu, cl in zip(up.coeffs, lo.coeffs):
            assert cu.a1 == pytest.approx(-cl.a4)
            assert cu.a4 == pytest.approx(-cl.a1)
        with pytest.raises(ValueError):
            joint_constraint(fo, "X")


def fuzzy_joint_ring(count, seed):
    """``count`` fuzzy joints spread around the compass, as a project's ``fuzzy_joints``.

    Dips lie in 40-70 degrees and dip directions within 20 degrees of count
    even steps.  Each attitude is a trapezoid of core half-width 0-1.5 and
    spread 3-6 degrees, the last joint's 12-18 degrees.  At 8 joints most
    joint pyramids have a PJB-sup of 0.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    joints = []
    for i in range(count):
        spread = rng.uniform(12.0, 18.0) if i == count - 1 else rng.uniform(3.0, 6.0)
        core = rng.uniform(0.0, 1.5)
        dip, dd = rng.uniform(40.0, 70.0), i * 360.0 / count + rng.uniform(-20.0, 20.0)
        joints.append({
            "id": f"F{i + 1}",
            "dip_deg": [dip - spread, dip - core, dip + core, dip + spread],
            "dip_direction_deg": [dd - spread, dd - core, dd + core, dd + spread],
            "friction_deg": [15.0, 20.0, 20.0, 25.0],
        })
    return joints


DEG_CORE_HALF_WIDTHS = st.sampled_from([0.0]) | st.floats(0.5, 3.0)
DEG_SPREADS = st.sampled_from([0.0]) | st.floats(0.5, 5.0)


@st.composite
def fuzzy_joint_sets(draw):
    """3-5 fuzzy joints: general, dip 0, dip 90, and copies turned by 1e-12 to 1e-3 degrees.

    Dip knots are clipped to [0, 90], so a dip-0 or dip-90 joint has its
    core or support on the bound.
    """
    cores, joints = [], []
    for _ in range(draw(st.integers(3, 5))):
        kind = draw(st.sampled_from(["general", "flat", "vertical", "copy"]))
        if kind == "copy" and cores:
            dip, dd = draw(st.sampled_from(cores))
            turn = 10.0 ** draw(st.floats(-12.0, -3.0))
            dip, dd = dip + (turn if dip < 45.0 else -turn), dd + turn
        else:
            dip = {"flat": 0.0, "vertical": 90.0}.get(kind, draw(st.floats(5.0, 85.0)))
            dd = draw(st.floats(0.0, 359.0))
        cores.append((dip, dd))
        h, w = draw(DEG_CORE_HALF_WIDTHS), draw(DEG_SPREADS)
        knots = [dip - h - w, dip - h, dip + h, dip + h + w]
        joints.append(FuzzyOrientation(T(*np.clip(knots, 0.0, 90.0)),
                                       T(dd - h - w, dd - h, dd + h, dd + h + w)))
    return joints


def assert_dead_codes_have_zero_block_values(joints, tunnel, variant):
    """Where a code's PJB-sup is 0, a full ``pbps`` over every code gives its BP 0 on every facet.

    That is the rule by which ``fuzzy pbr`` skips the block pyramids of
    dead codes.
    """
    jp = fuzzy_blocks.code_knots(joints, all_codes(len(joints)))
    dead = pbps(jp, variant) == 0.0
    facet_normals = [f.inward_normal for f in tunnel.facets()]
    bp = pbps(fuzzy_blocks.block_knots(jp, facet_normals), variant)
    assert (bp.reshape(len(facet_normals), len(jp))[:, dead] == 0.0).all()


class TestDeadCodesHaveZeroBlockValues:
    # the 8-joint ring, where most codes are dead, is checked through fuzzy
    # pbr in test_cli: its products equal a search over every code; about
    # one drawn set in six has a dead code
    @settings(max_examples=150, deadline=None)
    @given(fuzzy_joint_sets(), st.sampled_from([OCTAGON, SQUARE]), VARIANTS)
    def test_joint_sets(self, joints, tunnel, variant):
        assert_dead_codes_have_zero_block_values(joints, tunnel, variant)
