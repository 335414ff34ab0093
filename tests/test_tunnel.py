import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from fuzzyblock.kernel import (
    CLASS_INFINITE,
    CLASS_REMOVABLE,
    JointPlane,
    Orientation,
    TunnelSection,
    UnboundedBlockError,
    all_codes,
    block_volumes,
    classify_block,
    enumerate_tunnel_blocks,
    joint_pyramid,
)
from fuzzyblock.fuzzy_blocks import FuzzyOrientation, block_knots, code_knots, pbps
from fuzzyblock.fuzzy_numbers import TrapezoidalNumber
from fuzzyblock.kernel.mechanics import code_signs, joint_normals
from fuzzyblock.kernel.orientation import wrap_azimuth
from fuzzyblock.kernel.tunnel import GRAVITY_DIR
from fuzzyblock.kernel.volume import pyramid_volumes
from kinematics_oracle import safety_factor, sliding_mode

SQUARE = TunnelSection(((-2, -2), (2, -2), (2, 2), (-2, 2)))
PENTAGRAM = tuple((2 * math.cos(math.radians(144 * k)), 2 * math.sin(math.radians(144 * k)))
                  for k in range(5))


def roof_tetra_joints():
    return [JointPlane(f"J{i + 1}", Orientation(60, dd), 20.0) for i, dd in enumerate((0, 120, 240))]


def roof_removable(sweep):
    """(facet, code) positions of the sweep's removable blocks on the roof facet."""
    return [(f, c) for f, c in zip(*np.nonzero(sweep.removable))
            if sweep.facets[f].angle_deg == pytest.approx(90.0)]


class TestTunnelSection:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            TunnelSection(((0, 0), (1, 0)))

    def test_convexity_enforced(self):
        with pytest.raises(ValueError):
            TunnelSection(((0, 0), (2, 0), (1, 1), (2, 2), (0, 2)))

    @pytest.mark.parametrize("vertices", [PENTAGRAM, SQUARE.vertices * 2],
                             ids=["pentagram", "square_twice"])
    def test_polygon_wound_twice_rejected(self, vertices):
        # every turn has one sign, but the turns add up to two full turns:
        # the pentagram's 5 facets cross, the doubled square's 8 come in pairs
        for order in (vertices, vertices[::-1]):
            with pytest.raises(ValueError, match="section polygon must be convex"):
                TunnelSection(order)

    def test_clockwise_input_reordered(self):
        cw = TunnelSection(tuple(reversed(SQUARE.vertices)))
        assert {f.angle_deg for f in cw.facets()} == {f.angle_deg for f in SQUARE.facets()}

    def test_facet_normals_point_into_rock(self):
        for facet in SQUARE.facets():
            # the normal at the roof points up, at the floor down
            if facet.angle_deg == pytest.approx(90.0):
                assert np.allclose(facet.inward_normal, [0, 0, 1])
            if facet.angle_deg == pytest.approx(270.0):
                assert np.allclose(facet.inward_normal, [0, 0, -1])

    def test_axis_trend(self):
        t = TunnelSection(SQUARE.vertices, axis_trend_deg=90.0)
        assert np.allclose(t.axis, [1, 0, 0], atol=1e-12)
        assert np.allclose(t.u_hat, [0, -1, 0], atol=1e-12)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="zero-length edge"):
            TunnelSection(((0, 0), (4, 0), (4, 0), (1, 3)))
        # a closing copy of the first vertex is a zero-length edge too
        with pytest.raises(ValueError, match="vertices 3 and 0 coincide"):
            TunnelSection(((0, 0), (4, 0), (1, 3), (0, 0)))

    @pytest.mark.parametrize(
        "vertices, trend, message",
        [
            (((0, 0), (4, 0), (float("nan"), 3)), 0.0, "section vertices must be finite"),
            (((0, 0), (4, 0), (1, float("inf"))), 0.0, "section vertices must be finite"),
            (((0, 0), (4, 0), (1, 3)), float("inf"), "axis trend must be finite"),
            (((0, 0), (4, 0), (1, 3)), float("nan"), "axis trend must be finite"),
        ],
        ids=["nan_vertex", "inf_vertex", "inf_trend", "nan_trend"],
    )
    def test_non_finite_input_rejected(self, vertices, trend, message):
        # a NaN vertex gave NaN facet angles, and an infinite trend failed
        # only later, in .axis
        with pytest.raises(ValueError, match=message):
            TunnelSection(vertices, trend)

    def test_facet_angles_wrap_into_range(self):
        # the right edge's midpoint lies a rounding error below the
        # centroid, and % 360 rounds its tiny negative angle up to 360
        section = TunnelSection(((-1, -1), (1, -0.9), (1, 0.9), (-1, 1)))
        assert [f.angle_deg for f in section.facets()] == [270.0, 0.0, 90.0, 180.0]

    def test_facet_at_angle(self):
        index, points = SQUARE.facets_at_angles([90.0, 268.0])
        facets = SQUARE.facets()
        assert facets[index[0]].angle_deg == pytest.approx(90.0)
        assert points[0][2] == pytest.approx(2.0)
        assert facets[index[1]].angle_deg == pytest.approx(270.0)

    def test_facets_computed_once_and_frozen(self):
        section = TunnelSection(SQUARE.vertices)
        facets = section.facets()
        assert isinstance(facets, tuple) and section.facets() is facets
        with pytest.raises(ValueError):
            facets[0].inward_normal[0] = 1.0
        with pytest.raises(ValueError):
            facets[0].midpoint += 1.0

    def test_batched_lookup_matches_one_angle_form(self):
        octagon = TunnelSection(
            ((2, -1.2), (2, 1.2), (1.2, 2), (-1.2, 2), (-2, 1.2), (-2, -1.2), (-1.2, -2), (1.2, -2)),
            axis_trend_deg=23.0,
        )
        rng = np.random.Generator(np.random.Philox(2))
        thetas = list(rng.uniform(0, 360, 300)) + [0.0, 45.0, 90.0, 180.0, 270.0]
        index, points = octagon.facets_at_angles(thetas)
        assert (index >= 0).all()
        for k, theta in enumerate(thetas):
            one_index, one_point = octagon.facets_at_angles([theta])
            assert one_index[0] == index[k]
            assert one_point[0].tobytes() == points[k].tobytes()

    def test_codes_lexicographic(self):
        assert all_codes(2) == ["LL", "LU", "UL", "UU"]


class TestEnumerateTunnelBlocks:
    def test_record_count(self):
        sweep = enumerate_tunnel_blocks(roof_tetra_joints(), SQUARE)
        assert len(sweep) == 4 * 8

    def test_single_joint_counts(self):
        joints = [JointPlane("J1", Orientation(45, 90), 20.0)]
        sweep = enumerate_tunnel_blocks(joints, SQUARE)
        assert len(sweep) == 4 * 2

    def test_zero_joints_one_infinite_record_per_facet(self):
        sweep = enumerate_tunnel_blocks([], SQUARE)
        assert len(sweep) == 4
        assert sweep.classification.tolist() == [[CLASS_INFINITE]] * 4
        assert sweep.codes == [""]

    def test_too_many_joints_rejected(self):
        joints = [JointPlane(f"J{k}", Orientation(30, k * 10.0), 20.0) for k in range(9)]
        with pytest.raises(ValueError):
            enumerate_tunnel_blocks(joints, SQUARE)

    def test_roof_block_falls_with_zero_sf(self):
        sweep = enumerate_tunnel_blocks(roof_tetra_joints(), SQUARE)
        roof = roof_removable(sweep)
        assert len(roof) == 1
        f, c = roof[0]
        assert sweep.codes[c] == "LLL"
        assert sweep.mode_label[c] == "falling"
        assert sweep.safety_factor[c] == 0.0
        assert sweep.sized[f, c] and sweep.volume[f, c] > 0.0
        assert sweep.error[c] is None

    def test_every_record_classified(self):
        sweep = enumerate_tunnel_blocks(roof_tetra_joints(), SQUARE)
        assert set(sweep.classification.ravel()) <= {CLASS_INFINITE, CLASS_REMOVABLE, "tapered"}
        # a pair reports its code's safety factor where it is sized
        reported = np.where(sweep.sized, sweep.safety_factor, np.nan)
        assert (~np.isnan(reported) == (sweep.classification == CLASS_REMOVABLE)).all()

    def test_deterministic_ordering(self):
        sweep = enumerate_tunnel_blocks(roof_tetra_joints(), SQUARE)
        keys = [(facet.index, code) for facet in sweep.facets for code in sweep.codes]
        assert keys == sorted(keys)

    def test_repeatable(self):
        a = enumerate_tunnel_blocks(roof_tetra_joints(), SQUARE)
        b = enumerate_tunnel_blocks(roof_tetra_joints(), SQUARE)
        assert a.classification.tolist() == b.classification.tolist()
        assert np.array_equal(a.safety_factor, b.safety_factor, equal_nan=True)
        assert np.array_equal(a.volume, b.volume, equal_nan=True)

    def test_rotated_axis_same_roof_physics(self):
        # a tunnel running east instead of north still drops its roof block:
        # the joint set must rotate with the axis for the same relative setup
        rotated = TunnelSection(SQUARE.vertices, axis_trend_deg=90.0)
        joints = [
            JointPlane(f"J{i + 1}", Orientation(60, (dd + 90.0) % 360.0), 20.0)
            for i, dd in enumerate((0, 120, 240))
        ]
        sweep = enumerate_tunnel_blocks(joints, rotated)
        roof = roof_removable(sweep)
        assert len(roof) == 1
        f, c = roof[0]
        assert sweep.mode_label[c] == "falling"
        assert sweep.volume[f, c] == pytest.approx(0.5773502691896258, abs=1e-9)


OCTAGON = TunnelSection(
    ((2, -1.2), (2, 1.2), (1.2, 2), (-1.2, 2), (-2, 1.2), (-2, -1.2), (-1.2, -2), (1.2, -2))
)


def per_record_sweep(joints, tunnel, resultant=GRAVITY_DIR):
    """The sweep one record at a time: the reference for the batched sweep.

    Modes and safety factors come from the per-code reference, not from
    the kernel's batched routine.  Each volume is ``pyramid_volumes`` on that
    one block, which pins the batched sweep's volumes bit for bit; their
    accuracy is checked against the exact oracle in ``pyramid_oracle``.
    """
    frictions = [j.friction_deg for j in joints]
    out = []
    for facet in tunnel.facets():
        for code in all_codes(len(joints)):
            cls, jp_res, bp_res = classify_block(code, joints, facet.inward_normal)
            row = [facet.index, code, cls, jp_res.boundary_only or bp_res.boundary_only,
                   "", None, None, None]
            out.append(row)
            if cls != CLASS_REMOVABLE:
                continue
            jp = joint_pyramid(code, joints)
            try:
                mode = sliding_mode(jp, resultant)
                row[4] = mode.label()
                row[5] = safety_factor(jp, mode, resultant, frictions)
            except Exception as exc:
                row[7] = f"{type(exc).__name__}: {exc}"
                continue
            row[6] = float(pyramid_volumes(joint_normals(joints), code_signs([code], len(joints)),
                                           [facet.inward_normal], [facet.seed_depth], [0])[0])
    return out


def degenerate_joint_set(n):
    """Joint sets with dip 0, dip 90 and parallel copies among them."""
    rng = np.random.Generator(np.random.Philox(n))
    g = [Orientation(rng.uniform(20, 80), rng.uniform(0, 360)) for _ in range(5)]
    flat, vertical = Orientation(0.0, 35.0), Orientation(90.0, 250.0)
    orients = {
        1: [flat],
        2: [g[0], g[0]],
        3: [flat, vertical, g[0]],
        8: g + [flat, vertical, g[0]],
    }[n]
    return [JointPlane(f"J{i + 1}", o, float(rng.uniform(15, 35)))
            for i, o in enumerate(orients)]


class TestBatchedSweepMatchesPerRecordPath:
    @pytest.mark.parametrize("n_joints", [1, 2, 3, 8])
    def test_records_equal(self, n_joints):
        joints = degenerate_joint_set(n_joints)
        sweep = enumerate_tunnel_blocks(joints, OCTAGON)
        shape = sweep.removable.shape
        index, code, cls, boundary, mode, sf, volume, error = (
            np.array(column, dtype=object).reshape(shape)
            for column in zip(*per_record_sweep(joints, OCTAGON)))
        assert index.tolist() == [[facet.index] * shape[1] for facet in sweep.facets]
        assert code.tolist() == [sweep.codes] * shape[0]
        assert cls.tolist() == sweep.classification.tolist()
        assert boundary.tolist() == sweep.boundary.tolist()
        # mode and error apply where the pair is removable, SF and volume
        # where it is sized; elsewhere the reference leaves them unset
        removable, sized = sweep.removable, sweep.sized
        assert mode.tolist() == np.where(removable, np.array(sweep.mode_label, object), "").tolist()
        assert error.tolist() == np.where(removable, np.array(sweep.error, object), None).tolist()
        assert sf.tolist() == np.where(sized, sweep.safety_factor.astype(object), None).tolist()
        assert volume.tolist() == np.where(sized, sweep.volume.astype(object), None).tolist()

    def test_degenerate_kinds_are_exercised(self):
        sweep = enumerate_tunnel_blocks(degenerate_joint_set(8), OCTAGON)
        assert sweep.boundary.any()
        moving = np.flatnonzero(sweep.removable.any(axis=0))
        assert any((sweep.error[c] or "").startswith("ModeInconsistencyError") for c in moving)
        assert set(sweep.classification.ravel()) == {CLASS_INFINITE, CLASS_REMOVABLE, "tapered"}


class TestSweepPeakMemory:
    def test_eight_joint_sweep_peak(self):
        # Under tracemalloc the 8-joint sweep on the octagon peaked at 1.26 MB
        # when each facet's block pyramids were a cone test of their own; with
        # one stacked test that counts violations set by set it peaks near
        # 0.82 MB.  A (facets, codes, candidates) float count over all facets
        # at once would alone take 8 x 256 x 132 x 8 bytes = 2.2 MB.
        joints = degenerate_joint_set(8)
        enumerate_tunnel_blocks(joints, OCTAGON)
        tracemalloc.start()
        try:
            enumerate_tunnel_blocks(joints, OCTAGON)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3e6


def sweep_planes(joints, tunnel, facet_index, code):
    """Normals (m, 3) and offsets (m,) of the sweep's block for one (facet, code)."""
    facet = tunnel.facets()[facet_index]
    seed_point = facet.midpoint + 0.25 * facet.edge_length * facet.inward_normal
    planes = np.vstack([code_signs([code], len(joints))[0][:, None] * joint_normals(joints),
                        facet.inward_normal])
    offsets = [float(n @ seed_point) for n in planes[:-1]]
    return planes, np.array(offsets + [float(facet.inward_normal @ facet.midpoint)])


def halfspace_volume(normals, offsets):
    """Independent oracle: Qhull's half-space intersection about a Chebyshev centre."""
    # maximize r subject to n . x - r >= d for the unit normals n
    res = linprog(np.r_[0.0, 0.0, 0.0, -1.0], A_ub=np.c_[-normals, np.ones(len(normals))],
                  b_ub=-offsets, bounds=[(None, None)] * 3 + [(0.0, None)], method="highs")
    assert res.status == 0, res.message
    assert res.x[3] > 1e-6  # the block has an interior
    hs = HalfspaceIntersection(np.c_[-normals, offsets], res.x[:3])
    return ConvexHull(hs.intersections).volume


class TestBoxFreeSweepVolumes:
    def test_positive_volumes_match_halfspace_intersection(self):
        joints = degenerate_joint_set(8)
        sweep = enumerate_tunnel_blocks(joints, OCTAGON)
        checked = 0
        for f, c in zip(*np.nonzero(sweep.sized & (sweep.volume != 0.0))):
            planes = sweep_planes(joints, OCTAGON, sweep.facets[f].index, sweep.codes[c])
            assert sweep.volume[f, c] == pytest.approx(halfspace_volume(*planes), rel=1e-9)
            checked += 1
        assert checked >= 50

    def test_guard_agrees_with_classes(self):
        joints = degenerate_joint_set(8)
        blocks = {CLASS_INFINITE: [], CLASS_REMOVABLE: []}
        sweep = enumerate_tunnel_blocks(joints, OCTAGON)
        for (f, c), cls in np.ndenumerate(sweep.classification):
            if cls in blocks:
                blocks[cls].append(sweep_planes(joints, OCTAGON, sweep.facets[f].index,
                                                sweep.codes[c]))
        infinite = [np.array(a) for a in zip(*blocks[CLASS_INFINITE])]
        removable = [np.array(a) for a in zip(*blocks[CLASS_REMOVABLE])]
        assert len(infinite[0]) and len(removable[0])
        with pytest.raises(UnboundedBlockError) as info:
            block_volumes(*infinite)
        assert info.value.blocks == tuple(range(len(infinite[0])))
        assert np.all(block_volumes(*removable) >= 0.0)


# attitudes on a half-degree grid: two joints are either parallel or well apart,
# since a block between planes a microdegree apart is ill-conditioned in any frame
HALF_DEGREES = st.integers(0, 719).map(lambda k: k / 2)


@st.composite
def joint_sets(draw):
    """Joint sets of 1-4 general joints plus any of dip 0, dip 90 and a parallel copy."""
    general = [Orientation(draw(st.integers(10, 160)) / 2, draw(HALF_DEGREES))
               for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        general.append(Orientation(0.0, draw(HALF_DEGREES)))
    if draw(st.booleans()):
        general.append(Orientation(90.0, draw(HALF_DEGREES)))
    if draw(st.booleans()):
        general.append(general[0])
    return [JointPlane(f"J{i + 1}", o, draw(st.floats(10.0, 40.0)))
            for i, o in enumerate(general)]


def rotated(joints, theta):
    return [JointPlane(j.id, Orientation(j.orientation.dip_deg,
                                         wrap_azimuth(j.orientation.dip_direction_deg + theta)),
                       j.friction_deg) for j in joints]


def zero_spread_values(joints, tunnel):
    fuzzy = [FuzzyOrientation(TrapezoidalNumber.crisp(j.orientation.dip_deg),
                              TrapezoidalNumber.crisp(j.orientation.dip_direction_deg))
             for j in joints]
    jp = code_knots(fuzzy, all_codes(len(joints)))
    bp = block_knots(jp, [f.inward_normal for f in tunnel.facets()])
    return [pbps(k, variant).tolist() for k in (jp, bp) for variant in ("paper", "standard")]


class TestRotationInvariance:
    @settings(max_examples=40, deadline=None)
    @given(joint_sets(), st.floats(0.0, 359.0))
    def test_rotated_world_gives_the_same_roof_physics(self, joints, theta):
        # turning the tunnel axis and every dip direction by theta turns the
        # whole problem about the vertical: gravity and the section stay put
        tunnel = TunnelSection(OCTAGON.vertices, axis_trend_deg=theta)
        turned = rotated(joints, theta)
        a = enumerate_tunnel_blocks(joints, OCTAGON)
        b = enumerate_tunnel_blocks(turned, tunnel)
        assert ([f.index for f in a.facets], a.codes) == ([f.index for f in b.facets], b.codes)
        assert a.classification.tolist() == b.classification.tolist()
        assert a.boundary.tolist() == b.boundary.tolist()
        # with the classes equal, the per-code columns decide the pairs' modes and errors
        assert a.mode_label == b.mode_label
        assert [e is None for e in a.error] == [e is None for e in b.error]
        assert a.sized.tolist() == b.sized.tolist()
        reported = a.sized.any(axis=0)  # the codes whose SF some pair reports
        assert b.safety_factor[reported] == pytest.approx(a.safety_factor[reported], rel=1e-9)
        assert b.volume[b.sized] == pytest.approx(a.volume[a.sized], rel=1e-9)
        assert zero_spread_values(joints, OCTAGON) == zero_spread_values(turned, tunnel)


class TestRecordRules:
    @settings(max_examples=40, deadline=None)
    @given(joint_sets())
    def test_columns_keep_the_record_rules(self, joints):
        sweep = enumerate_tunnel_blocks(joints, OCTAGON)
        moving = sweep.removable.any(axis=0)  # the codes removable on some facet
        has_error = np.array([e is not None for e in sweep.error])
        assert not (sweep.sized & ~sweep.removable).any()
        assert (np.isnan(sweep.volume) == ~sweep.sized).all()
        assert [label != "" for label in sweep.mode_label] == moving.tolist()
        assert not (has_error & ~moving).any()
        assert (np.isnan(sweep.safety_factor) == (has_error | ~moving)).all()
