import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinematics_oracle
from fuzzyblock.kernel import (
    CLASS_INFINITE,
    CLASS_REMOVABLE,
    CLASS_TAPERED,
    HalfSpaceSystem,
    JointPlane,
    ModeInconsistencyError,
    Orientation,
    classify_block,
    joint_pyramid,
    normal_from_orientation,
    safety_factor,
    sliding_mode,
)
from fuzzyblock.kernel.mechanics import block_mechanics

GRAVITY = (0.0, 0.0, -1.0)


def unit_rows(arr):
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def roof_tetra_joints():
    return [JointPlane(f"J{i + 1}", Orientation(60, dd), 20.0) for i, dd in enumerate((0, 120, 240))]


class TestOrientation:
    def test_horizontal_plane(self):
        assert np.allclose(normal_from_orientation(Orientation(0, 0)), [0, 0, 1])

    def test_vertical_east_facing(self):
        assert np.allclose(
            normal_from_orientation(Orientation(90, 90)), [1, 0, 0], atol=1e-12
        )

    def test_dip_45_north(self):
        n = normal_from_orientation(Orientation(45, 0))
        assert n == pytest.approx([0.0, 0.70711, 0.70711], abs=1e-5)

    def test_unit_length_random(self):
        rng = np.random.Generator(np.random.Philox(2))
        for _ in range(100):
            o = Orientation(rng.uniform(0, 90), rng.uniform(0, 360))
            assert np.linalg.norm(normal_from_orientation(o)) == pytest.approx(1.0)

    def test_ranges_enforced(self):
        with pytest.raises(ValueError):
            Orientation(95, 0)
        with pytest.raises(ValueError):
            Orientation(30, 360)
        with pytest.raises(ValueError):
            JointPlane("J", Orientation(30, 0), 90.0)


class TestClassifyBlock:
    def test_roof_tetra_all_lower_removable(self):
        cls, jp_res, bp_res = classify_block("LLL", roof_tetra_joints(), np.array([0, 0, 1.0]))
        assert cls == CLASS_REMOVABLE
        assert jp_res.nonempty and not bp_res.nonempty

    def test_roof_tetra_all_upper_infinite(self):
        cls, _, _ = classify_block("UUU", roof_tetra_joints(), np.array([0, 0, 1.0]))
        assert cls == CLASS_INFINITE

    def test_zero_joints_infinite(self):
        cls, _, _ = classify_block("", [], np.array([0, 0, 1.0]))
        assert cls == CLASS_INFINITE

    def test_classification_by_direction_sampling(self):
        # oracle: a block is removable iff some JP direction exists but none
        # survives adding the facet constraint
        rng = np.random.Generator(np.random.Philox(9))
        dirs = unit_rows(rng.normal(size=(100000, 3)))
        joints = roof_tetra_joints()
        e = np.array([0, 0, 1.0])
        for code in ("LLL", "UUU", "LUL", "ULL"):
            jp = joint_pyramid(code, joints)
            jp_margin = (dirs @ jp.normals.T).min(axis=1).max()
            bp_normals = np.vstack([jp.normals, e])
            bp_margin = (dirs @ bp_normals.T).min(axis=1).max()
            cls, _, _ = classify_block(code, joints, e)
            if jp_margin > 1e-3 and bp_margin > 1e-3:
                assert cls == CLASS_INFINITE
            elif jp_margin > 1e-3 and bp_margin < -1e-2:
                assert cls == CLASS_REMOVABLE
            elif jp_margin < -1e-2:
                assert cls == CLASS_TAPERED

    def test_exhaustive_partition(self):
        rng = np.random.Generator(np.random.Philox(15))
        classes = {CLASS_INFINITE, CLASS_TAPERED, CLASS_REMOVABLE}
        for _ in range(60):
            joints = [
                JointPlane(
                    f"J{k}", Orientation(rng.uniform(5, 85), rng.uniform(0, 360)), 20.0
                )
                for k in range(3)
            ]
            e = unit_rows(rng.normal(size=(1, 3)))[0]
            code = "".join(rng.choice(["U", "L"], size=3))
            cls, _, _ = classify_block(code, joints, e)
            assert cls in classes

    def test_code_length_mismatch(self):
        with pytest.raises(ValueError):
            classify_block("UU", roof_tetra_joints(), np.array([0, 0, 1.0]))

    def test_bad_code_digit(self):
        with pytest.raises(ValueError):
            classify_block("UXU", roof_tetra_joints(), np.array([0, 0, 1.0]))


class TestSlidingMode:
    def test_roof_tetra_falls(self):
        jp = joint_pyramid("LLL", roof_tetra_joints())
        mode = sliding_mode(jp, GRAVITY)
        assert mode.kind == "falling"
        assert np.allclose(mode.direction, [0, 0, -1])

    def test_single_plane_slide_is_downdip(self):
        joints = [JointPlane("J1", Orientation(30, 0), 20.0)]
        jp = joint_pyramid("U", joints)
        mode = sliding_mode(jp, GRAVITY)
        assert mode.kind == "plane"
        assert mode.indices == (0,)
        # steepest descent of a plane dipping 30 degrees due north
        assert np.allclose(mode.direction, [0.0, math.sqrt(3) / 2, -0.5], atol=1e-12)

    def test_uplift_is_safe(self):
        jp = joint_pyramid("LLL", roof_tetra_joints())  # downward cone
        mode = sliding_mode(jp, (0, 0, 1.0))
        assert mode.kind == "safe"

    def test_zero_resultant_rejected(self):
        jp = joint_pyramid("U", [JointPlane("J", Orientation(30, 0), 20.0)])
        with pytest.raises(ValueError):
            sliding_mode(jp, (0, 0, 0))

    def test_empty_jp_rejected(self):
        with pytest.raises(ValueError):
            sliding_mode(HalfSpaceSystem(np.zeros((0, 3))), GRAVITY)

    def test_mode_direction_optimal_vs_sampling(self):
        rng = np.random.Generator(np.random.Philox(21))
        dirs = unit_rows(rng.normal(size=(100000, 3)))
        for _ in range(40):
            joints = [
                JointPlane(
                    f"J{k}", Orientation(rng.uniform(5, 85), rng.uniform(0, 360)), 20.0
                )
                for k in range(rng.integers(1, 4))
            ]
            code = "".join(rng.choice(["U", "L"], size=len(joints)))
            jp = joint_pyramid(code, joints)
            r = unit_rows(rng.normal(size=(1, 3)))[0]
            mode = sliding_mode(jp, r)
            feasible = np.all(dirs @ jp.normals.T >= -1e-9, axis=1)
            if not feasible.any():
                continue
            best_sampled = float((dirs[feasible] @ r).max())
            achieved = mode.potential if mode.direction is not None else 0.0
            assert achieved >= best_sampled - 1e-3


class TestSafetyFactor:
    def test_falling_is_zero(self):
        jp = joint_pyramid("LLL", roof_tetra_joints())
        mode = sliding_mode(jp, GRAVITY)
        assert safety_factor(jp, mode, GRAVITY, [20, 20, 20]) == 0.0

    def test_plane_slide_matches_decomposition(self):
        joints = [JointPlane("J1", Orientation(30, 0), 20.0)]
        jp = joint_pyramid("U", joints)
        mode = sliding_mode(jp, GRAVITY)
        sf = safety_factor(jp, mode, GRAVITY, [20.0])
        # oracle: N = cos(dip), T = sin(dip) for unit gravity on one plane
        n_force = math.cos(math.radians(30))
        t_force = math.sin(math.radians(30))
        assert sf == pytest.approx(n_force * math.tan(math.radians(20)) / t_force, abs=1e-12)
        assert sf == pytest.approx(math.tan(math.radians(20)) / math.tan(math.radians(30)), abs=1e-9)

    def test_wedge_matches_decomposition_oracle(self):
        m1 = np.array([0.5, -0.1, 0.860])
        m2 = np.array([-0.5, -0.1, 0.860])
        m1 /= np.linalg.norm(m1)
        m2 /= np.linalg.norm(m2)
        jp = HalfSpaceSystem(np.vstack([m1, m2]))
        mode = sliding_mode(jp, GRAVITY)
        assert mode.kind == "wedge"
        sf = safety_factor(jp, mode, GRAVITY, [20.0, 20.0])
        # oracle: solve r = T s - N1 m1 - N2 m2 as a full linear system
        s = mode.direction
        sol = np.linalg.solve(np.column_stack([s, -m1, -m2]), np.array(GRAVITY))
        t_force, n1, n2 = sol
        assert t_force == pytest.approx(0.1155, abs=1e-4)
        assert n1 == pytest.approx(0.5736, abs=1e-3)
        assert n2 == pytest.approx(0.5736, abs=1e-3)
        oracle = (n1 * math.tan(math.radians(20)) + n2 * math.tan(math.radians(20))) / t_force
        assert sf == pytest.approx(oracle, abs=1e-3)
        assert sf == pytest.approx(3.62, abs=0.01)

    def test_safe_reports_infinite(self):
        jp = joint_pyramid("LLL", roof_tetra_joints())
        mode = sliding_mode(jp, (0, 0, 1.0))
        assert safety_factor(jp, mode, (0, 0, 1.0), [20, 20, 20]) == math.inf

    def test_scaling_invariance(self):
        rng = np.random.Generator(np.random.Philox(23))
        for _ in range(30):
            joints = [
                JointPlane(
                    f"J{k}", Orientation(rng.uniform(5, 85), rng.uniform(0, 360)), rng.uniform(5, 45)
                )
                for k in range(rng.integers(1, 4))
            ]
            code = "".join(rng.choice(["U", "L"], size=len(joints)))
            jp = joint_pyramid(code, joints)
            r = rng.normal(size=3)
            if np.linalg.norm(r) < 1e-6:
                continue
            phis = [j.friction_deg for j in joints]
            mode1 = sliding_mode(jp, r)
            mode2 = sliding_mode(jp, 7.3 * r)
            assert mode1.kind == mode2.kind
            sf1 = safety_factor(jp, mode1, r, phis)
            sf2 = safety_factor(jp, mode2, 7.3 * r, phis)
            if math.isinf(sf1):
                assert math.isinf(sf2)
            else:
                assert sf1 == pytest.approx(sf2, rel=1e-9)

    def test_inconsistent_plane_mode_raises(self):
        joints = [JointPlane("J1", Orientation(30, 0), 20.0)]
        jp = joint_pyramid("U", joints)
        mode = sliding_mode(jp, GRAVITY)
        # force the wrong resultant: the reaction would have to be negative
        with pytest.raises(ModeInconsistencyError):
            safety_factor(jp, mode, (0, 0, 1.0), [20.0])


@st.composite
def jp_batches(draw):
    """A batch of JPs with 1 to 8 planes each, frictions and a resultant.

    Planes are drawn with dip 0 and 90 often, and as parallel or opposed
    copies of earlier planes of the same JP, where wedge edges vanish.
    """
    m = draw(st.integers(1, 8))
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        rows = []
        for _ in range(m):
            sign = draw(st.sampled_from([1.0, -1.0]))
            if rows and draw(st.booleans()):
                rows.append(sign * rows[draw(st.integers(0, len(rows) - 1))])
                continue
            dip = draw(st.one_of(st.sampled_from([0.0, 90.0]), st.floats(0.0, 90.0)))
            dd = draw(st.one_of(st.sampled_from([0.0, 90.0, 180.0]),
                                st.floats(0.0, 360.0, exclude_max=True)))
            rows.append(sign * normal_from_orientation(Orientation(dip, dd)))
        batch.append(rows)
    frictions = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 89.9)),
                              min_size=m, max_size=m))
    r = draw(st.one_of(
        st.sampled_from([GRAVITY, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]),
        st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
        st.integers(0, 2**32 - 1).map(lambda seed: tuple(np.random.default_rng(seed).normal(size=3))),
    ))
    return np.array(batch), frictions, r


def bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


class TestBlockMechanics:
    @settings(max_examples=200, deadline=None)
    @given(jp_batches())
    def test_rows_match_per_code_reference(self, case):
        # bit for bit against the per-code scan, alone and in any batch
        normals, frictions, r = case
        tan_phi = [math.tan(math.radians(phi)) for phi in frictions]
        got = block_mechanics(normals, r, tan_phi)
        for k, rows in enumerate(normals):
            jp = HalfSpaceSystem(rows)
            ref = kinematics_oracle.sliding_mode(jp, r)
            try:
                ref_sf, ref_error = kinematics_oracle.safety_factor(jp, ref, r, frictions), None
            except ModeInconsistencyError as exc:
                ref_sf, ref_error = math.nan, str(exc)
            alone = block_mechanics(normals[k:k + 1], r, tan_phi)
            one_row = sliding_mode(jp, r)
            for mode in (got.mode(k), alone.mode(0), one_row):
                assert (mode.kind, mode.indices) == (ref.kind, ref.indices)
                assert bits(mode.direction) == bits(ref.direction)
                assert bits(mode.potential) == bits(ref.potential)
            assert got.error[k] == alone.error[0] == ref_error
            assert bits(got.sf[k]) == bits(alone.sf[0]) == bits(ref_sf)
            if ref_error is None:
                assert bits(safety_factor(jp, one_row, r, frictions)) == bits(ref_sf)
            else:
                with pytest.raises(ModeInconsistencyError, match=re.escape(ref_error)):
                    safety_factor(jp, one_row, r, frictions)

    def test_kinds_and_errors(self):
        # roof tetrahedron falls, a dipping plane (three copies) slides, an uplifted cone is safe
        roof = joint_pyramid("LLL", roof_tetra_joints()).normals
        plane = np.repeat([normal_from_orientation(Orientation(30, 0))], 3, axis=0)
        got = block_mechanics(np.array([roof, plane, -roof]), GRAVITY, math.tan(math.radians(20)))
        assert list(got.kind) == ["falling", "plane", "safe"]
        assert [got.mode(k).label() for k in range(3)] == ["falling", "plane(1)", "safe"]
        assert got.sf[0] == 0.0 and got.sf[2] == math.inf
        assert got.sf[1] == pytest.approx(math.tan(math.radians(20)) / math.tan(math.radians(30)))
        assert got.error == [None, None, None]

    @pytest.mark.parametrize("tan_phi", [math.nan, math.inf, -1.0])
    def test_bad_friction_rejected(self, tan_phi):
        # a NaN friction once gave SF NaN and a negative one a negative SF on a plane mode
        plane = np.repeat([normal_from_orientation(Orientation(30, 0))], 3, axis=0)
        frictions = np.full((2, 3), 0.3)
        frictions[1, 2] = tan_phi
        with pytest.raises(ValueError, match=r"tan_phi of row\(s\) \[1\] must be finite"):
            block_mechanics(np.array([plane, plane]), GRAVITY, frictions)
        jp = HalfSpaceSystem(plane[:1])
        mode = sliding_mode(jp, GRAVITY)
        assert mode.kind == "plane"
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            safety_factor(jp, mode, GRAVITY, [-45.0])

    def test_batch_arguments_checked(self):
        with pytest.raises(ValueError, match="resultant force must be nonzero"):
            block_mechanics(np.zeros((1, 1, 3)) + [0, 0, 1.0], (0, 0, 0), 0.3)
        with pytest.raises(ValueError, match="resultant force must be finite"):
            block_mechanics(np.zeros((1, 1, 3)) + [0, 0, 1.0], (math.nan, 0, -1.0), 0.3)
        jp = HalfSpaceSystem([[0, 0, 1.0]])
        with pytest.raises(ValueError, match="resultant force must be finite"):
            sliding_mode(jp, (0, math.inf, -1.0))
        with pytest.raises(ValueError, match="resultant force must be finite"):
            safety_factor(jp, sliding_mode(jp, GRAVITY), (math.nan, 0, -1.0), [20.0])
        with pytest.raises(ValueError, match="at least one JP constraint"):
            block_mechanics(np.zeros((2, 0, 3)), GRAVITY, 0.3)
