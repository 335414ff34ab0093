import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from fuzzyblock.kernel.pyramid import (
    HalfSpaceSystem,
    cone_nonempty,
    edge_rays,
    pyramid_nonempty,
    signed_cones,
)


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
        res = pyramid_nonempty(HalfSpaceSystem(np.array([[0.0, 0.0, 1.0]])))
        assert res.nonempty
        assert res.witness @ np.array([0, 0, 1.0]) > 0
        assert np.allclose(res.witness, [0, 0, 1.0], atol=1e-9)

    def test_box_of_six_is_empty(self):
        normals = np.array(
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
            dtype=float,
        )
        res = pyramid_nonempty(HalfSpaceSystem(normals))
        assert not res.nonempty

    def test_tetrahedron_empty_matches_sampling(self):
        normals = unit_rows(
            np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
        )
        res = pyramid_nonempty(HalfSpaceSystem(normals))
        assert not res.nonempty
        rng = np.random.Generator(np.random.Philox(3))
        dirs = unit_rows(rng.normal(size=(100000, 3)))
        assert sampling_oracle(normals, dirs) < -1e-3

    def test_no_constraints_nonempty(self):
        res = pyramid_nonempty(HalfSpaceSystem(np.zeros((0, 3))))
        assert res.nonempty

    def test_boundary_only_plane(self):
        # opposite normals leave only the equatorial plane: boundary rays count
        normals = np.array([[0, 0, 1], [0, 0, -1]], dtype=float)
        res = pyramid_nonempty(HalfSpaceSystem(normals))
        assert res.nonempty
        assert res.boundary_only
        assert abs(res.witness[2]) < 1e-9

    def test_witness_satisfies_constraints(self):
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(50):
            n = rng.integers(1, 7)
            normals = unit_rows(rng.normal(size=(n, 3)))
            res = pyramid_nonempty(HalfSpaceSystem(normals))
            if res.nonempty:
                assert np.all(normals @ res.witness >= -1e-6)
                assert np.linalg.norm(res.witness) == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_scipy_linprog(self):
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(200):
            n = rng.integers(1, 8)
            normals = unit_rows(rng.normal(size=(n, 3)))
            assert pyramid_nonempty(HalfSpaceSystem(normals)).nonempty == scipy_cone_nonempty(
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
            lp = pyramid_nonempty(HalfSpaceSystem(normals)).nonempty
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
