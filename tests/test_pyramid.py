import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import cone_oracle
from test_tunnel import OCTAGON, SQUARE, degenerate_joint_set, joint_sets

from fuzzyblock.kernel import mechanics
from fuzzyblock.kernel.mechanics import CLASS_TAPERED, classify_codes, code_signs, joint_normals
from fuzzyblock.kernel.orientation import JointPlane, Orientation, wrap_azimuth
from fuzzyblock.kernel.pyramid import (
    HalfSpaceSystem,
    SignedCones,
    cone_nonempty,
    cones_nonempty,
    edge_rays,
    signed_cones,
)
from fuzzyblock.kernel.tunnel import all_codes, enumerate_tunnel_blocks


def sampling_oracle(normals, directions):
    """Best min-margin over a fixed direction set; the Monte-Carlo style check."""
    margins = directions @ normals.T
    return float(margins.min(axis=1).max())


def scipy_cone_nonempty(normals):
    """Independent LP route: maximize eps with n.v >= eps inside the unit box."""
    n, dim = normals.shape
    # variables v (free via bounds), eps
    A_ub = np.hstack([-normals, np.ones((n, 1))])
    b_ub = np.zeros(n)
    bounds = [(-1, 1)] * dim + [(0, 2)]
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success
    if res.x[-1] > 1e-9:
        return True
    for axis in range(dim):
        for sign in (1.0, -1.0):
            c2 = np.zeros(dim)
            c2[axis] = -sign
            res2 = linprog(
                c2, A_ub=-normals, b_ub=np.zeros(n), bounds=[(-1, 1)] * dim,
                method="highs",
            )
            assert res2.success
            if -res2.fun > 1e-9:
                return True
    return False


def unit_rows(arr):
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


class TestHalfSpaceSystem:
    def test_unit_length_enforced(self):
        with pytest.raises(ValueError):
            HalfSpaceSystem(np.array([[1.0, 1.0, 0.0]]))

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            HalfSpaceSystem(np.array([[1.0, 0.0]]))


class TestPyramidNonempty:
    def test_single_halfspace(self):
        res = cone_nonempty(np.array([[0.0, 0.0, 1.0]]))
        assert res.nonempty
        assert res.witness @ np.array([0, 0, 1.0]) > 0
        assert np.allclose(res.witness, [0, 0, 1.0], atol=1e-9)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_normal_rejected(self, value):
        # a NaN normal once passed every candidate ray, so the cone read nonempty
        normals = np.array([[value, 0.0, 1.0]])
        with pytest.raises(ValueError, match="cone normals must be finite"):
            cone_nonempty(normals)
        with pytest.raises(ValueError, match="cone normals must be finite"):
            signed_cones(normals, np.ones((1, 1)))
        with pytest.raises(ValueError, match="cone normals must be finite"):
            cones_nonempty(normals[None])

    def test_box_of_six_is_empty(self):
        normals = np.array(
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
            dtype=float,
        )
        res = cone_nonempty(normals)
        assert not res.nonempty

    def test_tetrahedron_empty_matches_sampling(self):
        normals = unit_rows(
            np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
        )
        res = cone_nonempty(normals)
        assert not res.nonempty
        rng = np.random.Generator(np.random.Philox(3))
        dirs = unit_rows(rng.normal(size=(100000, 3)))
        assert sampling_oracle(normals, dirs) < -1e-3

    def test_no_constraints_nonempty(self):
        res = cone_nonempty(np.zeros((0, 3)))
        assert res.nonempty

    def test_boundary_only_plane(self):
        # opposite normals leave only the equatorial plane: boundary rays count
        normals = np.array([[0, 0, 1], [0, 0, -1]], dtype=float)
        res = cone_nonempty(normals)
        assert res.nonempty
        assert res.boundary_only
        assert abs(res.witness[2]) < 1e-9

    def test_witness_satisfies_constraints(self):
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(50):
            n = rng.integers(1, 7)
            normals = unit_rows(rng.normal(size=(n, 3)))
            res = cone_nonempty(normals)
            if res.nonempty:
                assert np.all(normals @ res.witness >= -1e-6)
                assert np.linalg.norm(res.witness) == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_scipy_linprog(self):
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(200):
            n = rng.integers(1, 8)
            normals = unit_rows(rng.normal(size=(n, 3)))
            assert cone_nonempty(normals).nonempty == scipy_cone_nonempty(
                normals
            )

    def test_agrees_with_sampling_oracle_where_margin_clear(self):
        # A sampled margin > 1e-3 certifies nonemptiness outright.  The
        # converse needs slack: 1e5 directions cover the sphere only to about
        # 6e-3 rad, so emptiness is only certified below -1e-2 (cones with
        # interior margin under the covering radius slip between samples).
        rng = np.random.Generator(np.random.Philox(11))
        dirs = unit_rows(rng.normal(size=(100000, 3)))
        disagreements = 0
        decided = 0
        for _ in range(1000):
            n = rng.integers(1, 7)
            normals = unit_rows(rng.normal(size=(n, 3)))
            margin = sampling_oracle(normals, dirs)
            if -1e-2 < margin <= 1e-3:
                continue
            decided += 1
            lp = cone_nonempty(normals).nonempty
            if lp != (margin > 0):
                disagreements += 1
        assert decided > 800
        assert disagreements == 0


class TestConeNonempty2D:
    def test_halfplane(self):
        res = cone_nonempty(np.array([[1.0, 0.0]]))
        assert res.nonempty

    def test_positively_spanning_triangle_empty(self):
        ang = np.radians([90, 210, 330])
        normals = np.column_stack([np.cos(ang), np.sin(ang)])
        assert not cone_nonempty(normals).nonempty

    def test_wedge(self):
        normals = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = cone_nonempty(normals)
        assert res.nonempty
        assert np.all(normals @ res.witness >= -1e-9)


def scipy_interior_margin(normals):
    """Max eps with n.v >= eps, v in the unit box: > 0 exactly when the cone has an interior."""
    n, dim = normals.shape
    A_ub = np.hstack([-normals, np.ones((n, 1))])
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(n), bounds=[(-1, 1)] * dim + [(0, 2)],
                  method="highs")
    assert res.success
    return res.x[-1]


@st.composite
def normal_systems(draw, dim=None):
    """Unit normals from small integer vectors, so every degeneracy is exact.

    The kinds cover opposed pairs, parallel copies, dip 0 and dip 90
    (axis-aligned), rank-1 and coplanar (rank-2) normals, in 2-D and 3-D.
    Coplanar normals come in the z = 0 plane and in tilted planes, integer
    combinations of two integer vectors whose plane normal lies off the
    axes, where the candidate rays are crosses of a normal with an axis.
    """
    dim = dim or draw(st.sampled_from([2, 3]))
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    rows = draw(st.lists(vec, min_size=1, max_size=7))
    kind = draw(st.sampled_from(
        ["general", "opposed", "parallel", "axis", "rank1", "coplanar", "tilted"]))
    if kind == "opposed":
        rows.append([-x for x in rows[0]])
    elif kind == "parallel":
        rows.append([2 * x for x in rows[0]])
    elif kind == "axis":
        axes = st.sampled_from(range(dim))
        signs = st.sampled_from([-1, 1])
        for _ in range(draw(st.integers(1, 3))):
            e = [0] * dim
            e[draw(axes)] = draw(signs)
            rows.append(e)
    elif kind == "rank1":
        rows = [[draw(st.sampled_from([-1, 1])) * x for x in rows[0]] for _ in rows]
    elif kind == "coplanar" and dim == 3:
        rows = [r[:2] + [0] for r in rows if any(r[:2])] or [[1, 0, 0]]
    elif kind == "tilted" and dim == 3:
        vec3 = st.lists(st.integers(-3, 3), min_size=3, max_size=3)
        a, b = draw(st.tuples(vec3, vec3).filter(
            lambda ab: np.count_nonzero(np.cross(*ab)) >= 2))
        coef = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
        combos = draw(st.lists(coef, min_size=len(rows), max_size=len(rows)))
        rows = [[i * x + j * y for x, y in zip(a, b)] for i, j in combos]
        rows = [r for r in rows if any(r)] or [a]
    return unit_rows(np.array(rows, dtype=float))


class TestCandidateRays:
    @settings(max_examples=300, deadline=None)
    @given(normal_systems())
    def test_nonempty_agrees_with_scipy_oracle(self, normals):
        assert cone_nonempty(normals).nonempty == scipy_cone_nonempty(normals)

    @settings(max_examples=300, deadline=None)
    @given(normal_systems())
    def test_boundary_only_agrees_with_lp_margin(self, normals):
        res = cone_nonempty(normals)
        expected = res.nonempty and scipy_interior_margin(normals) <= 1e-9
        assert res.boundary_only == expected

    @settings(max_examples=300, deadline=None)
    @given(normal_systems())
    def test_witness_is_feasible_unit_vector(self, normals):
        res = cone_nonempty(normals)
        if not res.nonempty:
            assert res.witness is None
            return
        assert np.linalg.norm(res.witness) == pytest.approx(1.0, abs=1e-12)
        assert np.all(normals @ res.witness >= -1e-9)
        if not res.boundary_only:
            assert np.all(normals @ res.witness > 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(normal_systems(), st.data())
    def test_sign_rows_match_single_systems(self, normals, data):
        signs = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(normals),
                     max_size=len(normals)),
            min_size=1, max_size=6)))
        batch = signed_cones(normals, signs)
        for c, row in enumerate(signs):
            single = cone_nonempty(row[:, None] * normals)
            assert (batch.nonempty[c], batch.boundary_only[c]) == (
                single.nonempty, single.boundary_only)

    def test_three_dimensions_or_two_only(self):
        with pytest.raises(ValueError):
            cone_nonempty(np.array([[1.0]]))
        with pytest.raises(ValueError):
            edge_rays(np.eye(4))


class TestEdgeRays:
    def test_crosses_per_row_set(self):
        rows = np.array([np.eye(3), [[1, 0, 0], [2, 0, 0], [0, 0, 1]]], dtype=float)
        rays = edge_rays(rows)
        assert rays.shape == (2, 3, 3)  # pairs (0, 1), (0, 2), (1, 2)
        assert np.array_equal(rays[0], [[0, 0, 1], [0, -1, 0], [1, 0, 0]])
        assert np.isnan(rays[1, 0]).all()  # parallel rows have no edge
        assert np.allclose(rays[1, 1:], [[0, -1, 0], [0, -1, 0]])

    def test_perpendiculars_in_2d(self):
        rays = edge_rays(np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert np.allclose(rays[0], [-0.8, 0.6])
        assert np.isnan(rays[1]).all()


def assert_sets_match_cone_oracle(stacked, sets, signs):
    """Set f of the stacked result has the bits the one-set oracle gives ``sets[f]`` alone."""
    assert stacked.nonempty.shape == (len(sets), len(signs))
    for f, normals in enumerate(sets):
        alone = cone_oracle.signed_cones(normals, signs)
        for name in ("nonempty", "boundary_only", "witness"):
            got, want = getattr(stacked, name)[f], getattr(alone, name)
            assert np.array_equal(got, want, equal_nan=True), name
            assert got.tobytes() == want.tobytes(), name


@st.composite
def normal_stacks(draw):
    """A stack of 1-4 normal sets and a sign matrix they share.

    Each set is one drawn system plus one row of its own, as a block
    pyramid of the sweep is the joint normals plus its facet's normal.  The
    own rows are small integer vectors too, so axis-parallel rows and rows
    parallel or opposed to the shared ones occur.
    """
    normals = draw(normal_systems())
    dim = normals.shape[1]
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    own = unit_rows(np.array(draw(st.lists(vec, min_size=1, max_size=4)), dtype=float))
    stack = np.concatenate(
        [np.broadcast_to(normals, (len(own),) + normals.shape), own[:, None]], axis=1)
    m = stack.shape[1]
    signs = np.array(draw(st.lists(
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m),
        min_size=1, max_size=8)))
    return stack, signs


class TestStackedSignedCones:
    """The stacked cone test gives each set the bits of the one-set test it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(normal_stacks())
    def test_each_set_matches_the_one_set_oracle(self, case):
        stack, signs = case
        assert_sets_match_cone_oracle(signed_cones(stack, signs), stack, signs)

    @settings(max_examples=200, deadline=None)
    @given(normal_systems(), st.data())
    def test_one_set_call_matches_the_oracle(self, normals, data):
        signs = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(normals),
                     max_size=len(normals)),
            min_size=1, max_size=8)))
        alone = signed_cones(normals, signs)
        assert alone.nonempty.shape == (len(signs),)
        assert_sets_match_cone_oracle(signed_cones(normals[None], signs), [normals], signs)
        assert_sets_match_cone_oracle(
            signed_cones(np.stack([normals, normals]), signs), [normals, normals], signs)
        for name in ("nonempty", "boundary_only", "witness"):
            assert getattr(alone, name).tobytes() == getattr(
                cone_oracle.signed_cones(normals, signs), name).tobytes()

    def test_sets_without_rows_are_the_whole_space(self):
        signs = np.ones((3, 0))
        got = signed_cones(np.zeros((2, 0, 3)), signs)
        assert_sets_match_cone_oracle(got, np.zeros((2, 0, 3)), signs)


def assert_sweep_cones_match_oracle(joints, tunnel):
    """The sweep's JP and block pyramid tests against the one-set oracle, facet by facet.

    The sweep tests the block pyramids of the live codes only, those with a
    nonempty JP.  Every code's flags, and the NaN witness of every dead
    code, must be what the oracle gives on all codes.  A witness is a row of
    a matrix product whose bits depend on how many rows it has, so a live
    code's witness must have the bits the oracle gives on the live sign rows,
    the rows the sweep decided.
    """
    signs = code_signs(all_codes(len(joints)), len(joints))
    normals = joint_normals(joints)
    jp = signed_cones(normals, signs)
    assert_sets_match_cone_oracle(
        signed_cones(normals[None], signs), [normals], signs)
    facet_normals = [f.inward_normal for f in tunnel.facets()]
    _, bp = classify_codes(signs, normals, jp, facet_normals)
    bp_signs = np.hstack([signs, np.ones((len(signs), 1))])
    sets = [np.vstack([normals, e / np.linalg.norm(e)]) for e in facet_normals]
    live = jp.nonempty
    every = [cone_oracle.signed_cones(s, bp_signs) for s in sets]
    for name in ("nonempty", "boundary_only"):
        assert getattr(bp, name).tobytes() == np.array(
            [getattr(alone, name) for alone in every]).tobytes(), name
    assert bp.witness[:, ~live].tobytes() == np.array(
        [alone.witness[~live] for alone in every]).tobytes()
    tested = SignedCones(bp.nonempty[:, live], bp.boundary_only[:, live], bp.witness[:, live])
    assert_sets_match_cone_oracle(tested, sets, bp_signs[live])


class TestSweepConesMatchOneSetOracle:
    # axis-parallel facet normals, dip 0 and dip 90 joints and parallel
    # copies (J1 and J8 of the 8-joint set) leave candidate rays undefined
    @pytest.mark.parametrize("tunnel", [OCTAGON, SQUARE], ids=["octagon", "square"])
    @pytest.mark.parametrize("n_joints", [1, 2, 3, 8])
    def test_degenerate_joint_sets(self, n_joints, tunnel):
        assert_sweep_cones_match_oracle(degenerate_joint_set(n_joints), tunnel)

    @settings(max_examples=60, deadline=None)
    @given(joint_sets(), st.sampled_from([OCTAGON, SQUARE]))
    def test_joint_sets(self, joints, tunnel):
        assert_sweep_cones_match_oracle(joints, tunnel)


@st.composite
def near_parallel_joint_sets(draw):
    """1-3 general joints, dip 0 and dip 90, and 1-3 copies turned by 1e-12 to 1e-3 degrees.

    Each copy turns an earlier joint's dip and dip direction by tiny angles,
    the dip toward the inside of [0, 90], so the copy and its original cut
    the sphere into slivers of near-empty joint pyramids.
    """
    orients = [Orientation(draw(st.floats(5.0, 85.0)), draw(st.floats(0.0, 359.0)))
               for _ in range(draw(st.integers(1, 3)))]
    orients += [Orientation(0.0, draw(st.floats(0.0, 359.0))),
                Orientation(90.0, draw(st.floats(0.0, 359.0)))]
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.sampled_from(orients))
        turn = [10.0 ** draw(st.floats(-12.0, -3.0)) for _ in range(2)]
        dip = base.dip_deg + (turn[0] if base.dip_deg < 45.0 else -turn[0])
        dip_direction = wrap_azimuth(base.dip_direction_deg + draw(st.sampled_from([-1, 1]))
                                     * turn[1])
        orients.append(Orientation(dip, dip_direction))
    return [JointPlane(f"J{i + 1}", o, 20.0) for i, o in enumerate(orients)]


def assert_dead_codes_have_empty_block_pyramids(joints, tunnel):
    """Where a code's JP is empty, the one-set oracle finds its BP empty on every facet.

    That is the rule by which the sweep skips the block pyramids of dead
    codes.  Returns the number of dead codes.
    """
    signs = code_signs(all_codes(len(joints)), len(joints))
    normals = joint_normals(joints)
    dead = ~signed_cones(normals, signs).nonempty
    bp_signs = np.hstack([signs[dead], np.ones((int(dead.sum()), 1))])
    for facet in tunnel.facets():
        e = facet.inward_normal
        bp = cone_oracle.signed_cones(np.vstack([normals, e / np.linalg.norm(e)]), bp_signs)
        assert not bp.nonempty.any(), facet.index
    return int(dead.sum())


class TestDeadCodesHaveEmptyBlockPyramids:
    @pytest.mark.parametrize("tunnel", [OCTAGON, SQUARE], ids=["octagon", "square"])
    @pytest.mark.parametrize("n_joints", [1, 2, 3, 8])
    def test_degenerate_joint_sets(self, n_joints, tunnel):
        dead = assert_dead_codes_have_empty_block_pyramids(degenerate_joint_set(n_joints), tunnel)
        if n_joints == 8:  # 68 of the 256 JPs are nonempty, flat ones included
            assert dead >= 128

    @settings(max_examples=60, deadline=None)
    @given(joint_sets(), st.sampled_from([OCTAGON, SQUARE]))
    def test_joint_sets(self, joints, tunnel):
        assert_dead_codes_have_empty_block_pyramids(joints, tunnel)

    @settings(max_examples=60, deadline=None)
    @given(near_parallel_joint_sets(), st.sampled_from([OCTAGON, SQUARE]))
    def test_near_parallel_joint_sets(self, joints, tunnel):
        assert_dead_codes_have_empty_block_pyramids(joints, tunnel)


class TestOnlyLiveCodesAreTested:
    @staticmethod
    def spy(monkeypatch):
        """Record the sign matrix of each ``signed_cones`` call that ``classify_codes`` makes."""
        calls = []

        def recording(normals, signs):
            calls.append(np.asarray(signs))
            return signed_cones(normals, signs)

        monkeypatch.setattr(mechanics, "signed_cones", recording)
        return calls

    def test_block_pyramids_of_live_codes_only(self, monkeypatch):
        joints = degenerate_joint_set(8)
        signs = code_signs(all_codes(8), 8)
        jp = signed_cones(joint_normals(joints), signs)
        calls = self.spy(monkeypatch)
        sweep = enumerate_tunnel_blocks(joints, OCTAGON)
        (bp_signs,) = calls
        assert bp_signs.shape == (jp.nonempty.sum(), 9)
        assert bp_signs.tobytes() == np.hstack([signs, np.ones((256, 1))])[jp.nonempty].tobytes()
        assert (sweep.classification[:, ~jp.nonempty] == CLASS_TAPERED).all()
        assert not sweep.boundary[:, ~jp.nonempty].any()

    def test_no_live_code(self, monkeypatch):
        # the dead codes of the 8-joint set alone: no block pyramid is left to test
        joints = degenerate_joint_set(8)
        normals = joint_normals(joints)
        signs = code_signs(all_codes(8), 8)
        signs = signs[~signed_cones(normals, signs).nonempty]
        jp = signed_cones(normals, signs)
        facet_normals = [f.inward_normal for f in OCTAGON.facets()]
        calls = self.spy(monkeypatch)
        classes, bp = classify_codes(signs, normals, jp, facet_normals)
        (bp_signs,) = calls
        assert bp_signs.shape == (0, 9)
        assert classes.shape == bp.nonempty.shape == bp.boundary_only.shape == (8, len(signs))
        assert (classes == CLASS_TAPERED).all()
        assert not bp.nonempty.any() and not bp.boundary_only.any()
        assert bp.witness.shape == (8, len(signs), 3) and np.isnan(bp.witness).all()

    @pytest.mark.parametrize("sets", [0, 1, 3])
    def test_sign_matrix_without_rows(self, sets):
        normals = unit_rows(np.array([[1.0, 2.0, 2.0], [0.0, 0.0, 1.0], [3.0, -1.0, 0.0]]))
        stack = np.broadcast_to(normals, (sets, 3, 3))
        got = signed_cones(stack, np.zeros((0, 3)))
        assert got.nonempty.shape == got.boundary_only.shape == (sets, 0)
        assert got.witness.shape == (sets, 0, 3)
        alone = signed_cones(normals, np.zeros((0, 3)))
        assert alone.nonempty.shape == alone.boundary_only.shape == (0,)
        assert alone.witness.shape == (0, 3)
