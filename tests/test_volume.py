import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from conftest import principal_frame_monte_carlo
from volume_oracle import monte_carlo_volume

from fuzzyblock.kernel.volume import (
    UnboundedBlockError,
    bbox_halfspaces,
    block_vertices,
    block_volume,
    block_volumes,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def cube_halfspaces():
    return [
        (np.array([1.0, 0, 0]), 0.0),
        (np.array([-1.0, 0, 0]), -1.0),
        (np.array([0, 1.0, 0]), 0.0),
        (np.array([0, -1.0, 0]), -1.0),
        (np.array([0, 0, 1.0]), 0.0),
        (np.array([0, 0, -1.0]), -1.0),
    ]


def loop_vertices(planes, tol):
    """Vertex enumeration one plane triple at a time: the reference for the batched one."""
    normals = np.array([p[0] for p in planes])
    offsets = np.array([p[1] for p in planes])
    scale = 1.0 + float(np.max(np.abs(offsets)))
    verts = []
    for i, j, k in itertools.combinations(range(len(planes)), 3):
        A = normals[[i, j, k]]
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, offsets[[i, j, k]])
        if np.all(normals @ x >= offsets - tol * scale):
            verts.append(x)
    keep = []
    for v in verts:
        if all(np.linalg.norm(v - u) > 1e-7 * scale for u in keep):
            keep.append(v)
    return np.array(keep)


class TestBlockVolume:
    def test_unit_cube(self):
        assert block_volume(cube_halfspaces()) == pytest.approx(1.0, abs=1e-12)

    def test_simplex(self):
        hs = [
            (np.array([1.0, 0, 0]), 0.0),
            (np.array([0, 1.0, 0]), 0.0),
            (np.array([0, 0, 1.0]), 0.0),
            (unit([-1, -1, -1]), -1 / math.sqrt(3)),
        ]
        assert block_volume(hs) == pytest.approx(1 / 6, abs=1e-12)

    def test_empty_region_zero(self):
        # x >= 1 and x <= -1 inside the cube's planes: bounded, and empty
        hs = cube_halfspaces() + [(np.array([1.0, 0, 0]), 1.0), (np.array([-1.0, 0, 0]), 1.0)]
        assert block_volume(hs) == 0.0

    def test_unbounded_reported(self):
        hs = [(np.array([0, 0, 1.0]), 0.0)]
        with pytest.raises(UnboundedBlockError):
            block_volume(hs)
        with pytest.raises(UnboundedBlockError):
            block_vertices(hs)

    def test_error_names_every_unbounded_block(self):
        cube = cube_halfspaces()
        open_top = cube[:5] + [cube[4]]  # z <= 1 replaced by a repeat of z >= 0
        normals = np.array([[n for n, _ in hs] for hs in (cube, open_top, cube, open_top)])
        offsets = np.array([[d for _, d in hs] for hs in (cube, open_top, cube, open_top)])
        with pytest.raises(UnboundedBlockError) as info:
            block_volumes(normals, offsets)
        assert info.value.blocks == (1, 3)
        assert "[1, 3]" in str(info.value)
        assert np.array_equal(block_volumes(normals[::2], offsets[::2]), [1.0, 1.0])

    def test_vertices_match_per_triple_loop(self):
        # a repeated plane and a parallel copy give singular triples, and the
        # repeated plane gives duplicate vertices
        rng = np.random.Generator(np.random.Philox(5))
        normals = rng.normal(size=(3, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        centre = np.full(3, 0.5)
        hs = cube_halfspaces() + [(n, float(n @ centre) - 0.3) for n in normals]
        hs += [hs[0], (np.array([1.0, 0, 0]), -0.5)]
        expected = loop_vertices(hs, 1e-9)
        assert len(expected) >= 8
        assert np.array_equal(block_vertices(hs), expected)

    def test_degenerate_bbox_rejected(self):
        with pytest.raises(ValueError):
            bbox_halfspaces((0, 0, 0), (0, 1, 1))

    def test_random_five_plane_blocks_match_monte_carlo(self):
        rng = np.random.Generator(np.random.Philox(31))
        checked = 0
        while checked < 5:
            normals = rng.normal(size=(5, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            # anchor all planes near the origin so the block often closes
            offsets = rng.uniform(-0.8, 0.1, size=5)
            hs = [(normals[i], float(offsets[i])) for i in range(5)]
            try:
                vol = block_volume(hs)
            except UnboundedBlockError:
                continue
            if vol < 0.05:
                continue
            mc = principal_frame_monte_carlo(hs, block_vertices(hs), 1_000_000, seed=checked)
            assert vol == pytest.approx(mc, rel=0.01)
            checked += 1

    def test_tetrahedral_cone_from_seed(self):
        # downward 30-degree cone from an apex 1 m above a horizontal face
        normals = []
        for dd in (0, 120, 240):
            dip = math.radians(60)
            a = math.radians(dd)
            n = np.array([math.sin(dip) * math.sin(a), math.sin(dip) * math.cos(a), math.cos(dip)])
            normals.append(-n)
        apex = np.array([0.0, 0.0, 1.0])
        hs = [(n, float(n @ apex)) for n in normals]
        hs.append((np.array([0, 0, 1.0]), 0.0))
        vol = block_volume(hs)
        # exact value: cone of height 1 over the equilateral base triangle
        # with inradius 0.5 / sin(60)
        r = 0.5 / math.sin(math.radians(60))
        assert vol == pytest.approx(3 * math.sqrt(3) * r * r / 3, abs=1e-12)
        # Monte Carlo with a tight box so the fill fraction keeps the
        # 1e6-point estimator inside the 1% band
        mc = monte_carlo_volume(hs, ((-1.1, -1.1, -0.05), (1.1, 1.1, 1.05)), 1_000_000, seed=9)
        assert vol == pytest.approx(mc, rel=0.01)


# Small-integer normals and dyadic offsets make duplicated, opposed and
# coincident planes common, while keeping distinct vertices and planes far
# apart compared with the kernel's 1e-7 and 1e-6 tolerances.
PROPERTY_BOX = ((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
_normal = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)
_plane = st.tuples(_normal, st.integers(-12, 4).map(lambda k: k / 8.0))


@st.composite
def block_batches(draw, max_planes=6):
    m = draw(st.integers(1, max_planes))
    twist = draw(st.sampled_from(["none", "duplicate", "opposed"]))
    blocks = draw(st.lists(st.lists(_plane, min_size=m, max_size=m), min_size=1, max_size=6))
    normals, offsets = [], []
    for planes in blocks:
        if twist != "none":
            n, d = planes[0]
            planes = planes + [(n, d) if twist == "duplicate" else (tuple(-c for c in n), -d)]
        ns = np.array([p[0] for p in planes], dtype=float)
        ns /= np.linalg.norm(ns, axis=1, keepdims=True)
        normals.append(ns)
        offsets.append([p[1] for p in planes])
    return np.array(normals), np.array(offsets)


def boxed(normals, offsets, box=PROPERTY_BOX):
    """Every block's planes followed by the six planes of box, which bound it."""
    planes = bbox_halfspaces(*box)
    B = len(offsets)
    box_n = np.broadcast_to(np.array([n for n, _ in planes]), (B, 6, 3))
    box_d = np.broadcast_to(np.array([d for _, d in planes]), (B, 6))
    return np.concatenate([normals, box_n], axis=1), np.concatenate([offsets, box_d], axis=1)


def _hull_volume(halfspaces):
    """Independent oracle: per-triple vertices of the block, then Qhull."""
    verts = loop_vertices(halfspaces, 1e-9)
    if len(verts) < 4:
        return 0.0
    try:
        return ConvexHull(verts).volume
    except QhullError:  # all vertices coplanar: a flat block
        return 0.0


def recession_cone_nonempty(normals):
    """{v != 0 : N v >= 0} is nonempty, by Stiemke's alternative and linprog.

    With rank(N) = 3 a nonzero v with N v >= 0 exists exactly when no y > 0
    has N^T y = 0; a rank-deficient N has a nonzero null vector in the cone.
    """
    if np.linalg.matrix_rank(normals, tol=1e-9) < 3:
        return True
    m = len(normals)
    res = linprog(np.zeros(m), A_eq=normals.T, b_eq=np.zeros(3),
                  bounds=[(1.0, None)] * m, method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 2


class TestBlockVolumesProperties:
    @settings(max_examples=120, deadline=None)
    @given(block_batches())
    def test_one_block_bits_equal_batched(self, batch):
        normals, offsets = boxed(*batch)
        got = block_volumes(normals, offsets)
        for b in range(len(offsets)):
            alone = block_volume(list(zip(normals[b], offsets[b])))
            assert got[b].tobytes() == np.float64(alone).tobytes()

    @settings(max_examples=120, deadline=None)
    @given(block_batches())
    def test_matches_convex_hull(self, batch):
        normals, offsets = boxed(*batch)
        got = block_volumes(normals, offsets)
        for b in range(len(offsets)):
            hull = _hull_volume(list(zip(normals[b], offsets[b])))
            assert got[b] == pytest.approx(hull, rel=1e-9, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(block_batches(max_planes=8))
    def test_raises_exactly_for_nonempty_recession_cones(self, batch):
        normals, offsets = batch
        unbounded = tuple(b for b in range(len(offsets)) if recession_cone_nonempty(normals[b]))
        if unbounded:
            with pytest.raises(UnboundedBlockError) as info:
                block_volumes(normals, offsets)
            assert info.value.blocks == unbounded
        else:
            got = block_volumes(normals, offsets)
            for b in range(len(offsets)):
                hull = _hull_volume(list(zip(normals[b], offsets[b])))
                assert got[b] == pytest.approx(hull, rel=1e-9, abs=1e-12)

    def test_degenerate_kinds(self):
        z = np.array([0.0, 0.0, 1.0])
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        tilted = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        normals = np.array([
            [x, -x, y, -y, z, -z, x],  # unit cube with a duplicated plane
            [x, -x, y, -y, tilted, -tilted, z],  # coincident opposed tilted planes
            [x, -x, y, -y, z, -z, z],  # empty: z >= 0.5 and z <= 0.25
        ])
        offsets = np.array([
            [0.0, -1.0, 0.0, -1.0, 0.0, -1.0, 0.0],
            [0.0, -1.0, 0.0, -1.0, 0.3, -0.3, 0.0],
            [0.0, -1.0, 0.0, -1.0, 0.5, -0.25, 0.0],
        ])
        got = block_volumes(normals, offsets)
        assert got[0] == pytest.approx(1.0, abs=1e-12)
        assert got[1] == 0.0 and got[2] == 0.0
        assert str(got[1]) == "0.0"  # not -0.0

    def test_chunked_batch_equals_single_blocks(self):
        # more blocks than one chunk holds, so the batch is split
        rng = np.random.Generator(np.random.Philox(3))
        normals = rng.normal(size=(400, 5, 3))
        normals /= np.linalg.norm(normals, axis=2, keepdims=True)
        offsets = rng.uniform(-0.8, 0.1, size=(400, 5))
        normals, offsets = boxed(normals, offsets)
        got = block_volumes(normals, offsets)
        for b in range(0, 400, 37):
            assert got[b] == block_volume(list(zip(normals[b], offsets[b])))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            block_volumes(np.zeros((2, 3, 3)), np.zeros((2, 4)))
