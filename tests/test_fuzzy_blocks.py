import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    pbr,
    pjb,
    systems_for_code,
)
from fuzzyblock.fuzzy_blocks import (
    _knot_matrices,
    _min_poss_over_dirs,
    _sup_min_poss,
)
from fuzzyblock.kernel import (
    CLASS_REMOVABLE,
    JointPlane,
    Orientation,
    classify_block,
    cone_nonempty,
)

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


class TestFuzzyNormal:
    def test_crisp_orientation_degenerates(self):
        fo = FuzzyOrientation(T.crisp(30), T.crisp(40))
        nx, ny, nz = fuzzy_normal(fo)
        from fuzzyblock.kernel.orientation import normal_from_orientation

        n = normal_from_orientation(Orientation(30, 40))
        for comp, val in zip((nx, ny, nz), n):
            assert comp.support.lo == pytest.approx(val, abs=1e-12)
            assert comp.support.hi == pytest.approx(val, abs=1e-12)

    def test_z_component_bounds(self):
        fo = FuzzyOrientation(T(25, 30, 30, 35), T.crisp(0))
        _, _, nz = fuzzy_normal(fo)
        assert nz.support.lo == pytest.approx(math.cos(math.radians(35)))
        assert nz.support.hi == pytest.approx(math.cos(math.radians(25)))

    def test_y_component_bounds(self):
        fo = FuzzyOrientation(T(25, 30, 30, 35), T.crisp(0))
        _, ny, _ = fuzzy_normal(fo)
        assert ny.support.lo == pytest.approx(math.sin(math.radians(25)))
        assert ny.support.hi == pytest.approx(math.sin(math.radians(35)))

    def test_quadrant_crossing_dd(self):
        # dip direction straddling north: sin changes sign, cos peaks at 1
        fo = FuzzyOrientation(T.crisp(45), T(-10, 0, 0, 10))
        nx, ny, _ = fuzzy_normal(fo)
        s = math.sin(math.radians(45))
        assert nx.support.lo == pytest.approx(-s * math.sin(math.radians(10)))
        assert nx.support.hi == pytest.approx(s * math.sin(math.radians(10)))
        assert ny.support.hi == pytest.approx(s)

    def test_bounds_contain_samples(self):
        fo = FuzzyOrientation(T(20, 30, 40, 50), T(100, 110, 120, 130))
        comps = fuzzy_normal(fo)
        rng = np.random.Generator(np.random.Philox(3))
        from fuzzyblock.kernel.orientation import normal_from_orientation

        for _ in range(500):
            alpha_level = rng.integers(0, 11) / 10.0
            dcut = fo.dip.alpha_cut(alpha_level)
            tcut = fo.dip_direction.alpha_cut(alpha_level)
            dip = rng.uniform(dcut.lo, dcut.hi)
            dd = rng.uniform(tcut.lo, tcut.hi)
            n = normal_from_orientation(Orientation(dip, dd % 360.0))
            for comp, val in zip(comps, n):
                lv = comp.level(alpha_level)
                assert lv.lo - 1e-9 <= val <= lv.hi + 1e-9

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


class TestPjb:
    def test_zero_absorbs(self):
        good = FuzzyHalfSpaceConstraint.crisp((1, 0), 0.0)
        bad = FuzzyHalfSpaceConstraint.crisp((-1, 0), 1.0)
        sys = FuzzySystem((good, bad), "joint-pyramid")
        assert pjb(sys, (1, 0)) == 0.0

    def test_all_satisfied_crisp(self):
        sys = FuzzySystem(
            (
                FuzzyHalfSpaceConstraint.crisp((1, 0), 0.0),
                FuzzyHalfSpaceConstraint.crisp((0, 1), 0.0),
            ),
            "joint-pyramid",
        )
        assert pjb(sys, (1, 1)) == 1.0

    def test_min_composition(self):
        c1 = FuzzyHalfSpaceConstraint((T(0.9, 1, 1, 1.1), T.crisp(0)), T(1, 2, 3, 5))
        c2 = FuzzyHalfSpaceConstraint((T(0.5, 1, 1, 1.5), T.crisp(0)), T(1, 2, 3, 4))
        sys = FuzzySystem((c1, c2), "joint-pyramid")
        at = (3, 0)
        expected = min(constraint_poss(c1, at), constraint_poss(c2, at))
        assert pjb(sys, at) == pytest.approx(expected)

    def test_kind_checked(self):
        sys = FuzzySystem((FuzzyHalfSpaceConstraint.crisp((1, 0), 0.0),), "block-pyramid")
        with pytest.raises(ValueError):
            pjb(sys, (1, 0))


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
        knots = _knot_matrices(sys)
        sampled = 0.0
        for _ in range(10):
            dirs = rng.normal(size=(100_000, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            sampled = max(sampled, float(_min_poss_over_dirs(dirs, knots, "standard").max()))
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
            knots = _knot_matrices(sys)
            dirs = rng.normal(size=(50, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            for variant in ("paper", "standard"):
                fast = _min_poss_over_dirs(dirs, knots, variant)
                for k in range(dirs.shape[0]):
                    slow = min(
                        constraint_poss(c, dirs[k], variant) for c in sys.constraints
                    )
                    assert fast[k] == pytest.approx(slow, abs=1e-12)


SPREADS = st.sampled_from([0.0]) | st.floats(0.01, 0.5)
CORE_HALF_WIDTHS = st.sampled_from([0.0]) | st.floats(0.01, 0.2)


@st.composite
def fuzzy_systems(draw, dim=None, crisp=False):
    """Homogeneous fuzzy systems, degenerate ones included.

    Cores are unit vectors of small integer vectors, so degeneracies are
    exact: axis-aligned rows (dip 0 and dip 90 joints have them), parallel
    and opposed copies of an earlier core.  Each coefficient is a trapezoid
    around its core value with a core half-width and a ramp width, each 0 or
    at least 0.01; the value may exceed the attained possibility by up to
    1e-12 / spread, the margin slack of the cone test.
    """
    dim = draw(st.sampled_from([2, 3])) if dim is None else dim
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    cores = []
    for _ in range(draw(st.integers(1, 4))):
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
    rows = []
    for core in cores:
        coeffs = []
        for c in core:
            h, w = (0.0, 0.0) if crisp else (draw(CORE_HALF_WIDTHS), draw(SPREADS))
            coeffs.append(T(c - h - w, c - h, c + h, c + h + w))
        rows.append(FuzzyHalfSpaceConstraint(tuple(coeffs), T.crisp(0.0)))
    return FuzzySystem(tuple(rows), "joint-pyramid")


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
        fast = _min_poss_over_dirs(dirs, _knot_matrices(system), variant)
        best = np.argsort(fast)[-32:]
        assert all(value >= min_poss(system, dirs[k], variant) for k in best)

    @settings(max_examples=150, deadline=None)
    @given(fuzzy_systems(), VARIANTS)
    def test_value_is_attained(self, system, variant):
        value, witness = _sup_min_poss(system, variant)
        assert 0.0 <= value <= 1.0
        if value == 0.0:
            assert witness is None  # every direction attains 0
            return
        assert np.linalg.norm(witness) == pytest.approx(1.0)
        a1, a2, _, a4 = _knot_matrices(system)
        if np.array_equal(a1, a4):  # crisp: every support is one point
            # a witness on a boundary-only cone: rounding may put it a hair
            # outside, so check feasibility within a 1e-9 margin
            assert np.all(a2 @ witness >= -1e-9)
        else:
            assert min_poss(system, witness, variant) >= value - 1e-9

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
        expected = 1.0 if cone_nonempty(normals).nonempty else 0.0
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
        value, witness = _sup_min_poss(system, "standard")
        assert value == pytest.approx(1.0 / 3.0, abs=1e-11)
        assert np.array_equal(witness, e[0])
        assert pbp(system, "paper") == 1.0

    @pytest.mark.parametrize("dip", [T.crisp(0.0), T(0, 0, 2, 5), T(85, 88, 90, 90), T.crisp(90.0)])
    @pytest.mark.parametrize("variant", ["paper", "standard"])
    def test_dip_extremes_and_opposed_copies(self, dip, variant):
        # a joint with its own opposite side and a parallel copy
        fo = FuzzyOrientation(dip, T(110, 115, 120, 125))
        up, low = joint_constraint(fo, "U"), joint_constraint(fo, "L")
        steep = joint_constraint(FuzzyOrientation(T(55, 60, 60, 65), T(-5, 0, 0, 5)), "L")
        for rows in [(up, low), (up, up, steep), (up, low, steep)]:
            system = FuzzySystem(rows)
            value, witness = _sup_min_poss(system, variant)
            assert 0.0 <= value <= 1.0
            if value > 0.0:
                assert min_poss(system, witness, variant) >= value - 1e-9
            for e in np.eye(3):
                assert pbp(block_pyramid(system, e), variant) <= value


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
