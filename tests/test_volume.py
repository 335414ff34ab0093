import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

import pyramid_oracle
import vertex_oracle
from conftest import OCTAGON_SECTION, principal_frame_monte_carlo
from test_tunnel import OCTAGON, degenerate_joint_set, joint_sets
from volume_oracle import monte_carlo_volume

from fuzzyblock.kernel import Orientation, TunnelSection, enumerate_tunnel_blocks, volume
from fuzzyblock.kernel.mechanics import ModeInconsistencyError, code_signs, joint_normals
from fuzzyblock.kernel.orientation import normal_from_orientation
from fuzzyblock.kernel.pyramid import cones_nonempty
from fuzzyblock.surrogate import dataset
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

    @pytest.mark.parametrize("where", ["normal", "offset"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, where, value):
        # a non-finite value once made the unit cube a block of volume 0.0
        normals = np.array([[n for n, _ in cube_halfspaces()]] * 3)
        offsets = np.array([[d for _, d in cube_halfspaces()]] * 3)
        if where == "normal":
            normals[1, 2, 0] = normals[2, 4, 1] = value
        else:
            offsets[1, 2] = offsets[2, 5] = value
        with pytest.raises(ValueError, match=r"block\(s\) \[1, 2\] have a non-finite"):
            block_volumes(normals, offsets)
        with pytest.raises(ValueError, match="non-finite normal or offset"):
            block_volume(list(zip(normals[1], offsets[1])))
        with pytest.raises(ValueError, match="non-finite normal or offset"):
            block_vertices(list(zip(normals[2], offsets[2])))

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


def assert_matches_vertex_oracle(normals, offsets, vertex_blocks=16):
    """block_volumes, and block_vertices of the first blocks, equal the
    all-pairs merge bit for bit."""
    got = block_volumes(normals, offsets)
    assert got.tobytes() == vertex_oracle.block_volumes(normals, offsets).tobytes()
    for b in range(min(len(offsets), vertex_blocks)):
        verts = block_vertices(list(zip(normals[b], offsets[b])))
        assert verts.tobytes() == vertex_oracle.block_vertices(normals[b], offsets[b]).tobytes()


HALF_DEGREES = st.integers(0, 719).map(lambda k: k / 2)


@st.composite
def seeded_pyramids(draw):
    """Every bounded block of 3-8 joints through one seed point, capped by one plane.

    The joints are 1-5 general attitudes plus any of dip 0, dip 90 and a
    parallel copy of the first (opposed, under the codes that flip it).
    """
    attitudes = [(draw(st.integers(10, 160)) / 2, draw(HALF_DEGREES))
                 for _ in range(draw(st.integers(1, 5)))]
    for extra in [(0.0, 35.0), (90.0, 250.0), attitudes[0]]:
        if draw(st.booleans()):
            attitudes.append(extra)
    if len(attitudes) < 3:
        attitudes += [(0.0, 35.0), (90.0, 250.0)][: 3 - len(attitudes)]
    n = np.array([normal_from_orientation(Orientation(dip, dd)) for dip, dd in attitudes])
    seed = np.array([draw(st.integers(-8, 8)) / 8 for _ in range(3)])
    cap = unit(draw(_normal))
    height = draw(st.sampled_from([0.25, 1.0, 2.0]))
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=len(n))))
    rows = signs[:, :, None] * n
    normals = np.concatenate([rows, np.broadcast_to(cap, (len(signs), 1, 3))], axis=1)
    offsets = np.concatenate([rows @ seed, np.full((len(signs), 1), cap @ seed - height)], axis=1)
    bounded = ~cones_nonempty(normals)
    return normals[bounded], offsets[bounded]


def corner_cut(corner, spacing):
    """The plane cutting the unit cube's corner at distance spacing[k] along edge k.

    Its three vertices, one per edge, lie sqrt(spacing[i]**2 + spacing[j]**2) apart.
    """
    q = np.array(corner, dtype=float)
    sigma = 1.0 - 2.0 * q  # the inward direction of each edge from the corner
    n = sigma / np.asarray(spacing)
    length = np.linalg.norm(n)
    return n / length, float((1.0 + n @ q) / length)


# vertex spacings in units of 1e-7 * 2, the merge tolerance at scale 2 (the
# cube's): a cut at a far corner raises the scale to at most 1 + sqrt(3)
_SPACING = st.sampled_from([0.1, 0.5, 0.75, 1.0, 1.5])


class TestFirstComeMerge:
    @settings(max_examples=40, deadline=None)
    @given(seeded_pyramids())
    def test_seeded_pyramids_match_oracle(self, batch):
        normals, offsets = batch
        assume(len(offsets))  # a pyramid with a line in it has no bounded code
        assert_matches_vertex_oracle(normals, offsets)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(20, 160).map(lambda k: k / 2), HALF_DEGREES,
                              st.integers(30, 50).map(lambda k: k / 2), HALF_DEGREES),
                    min_size=1, max_size=12))
    def test_surrogate_wedges_match_oracle(self, draws):
        tunnel = TunnelSection(tuple(map(tuple, OCTAGON_SECTION)))
        try:
            _, _, normals, offsets = dataset._wedges(tunnel, draws, dataset.DEFAULT_SF_CAP)
        except ModeInconsistencyError:
            reject()
        assert_matches_vertex_oracle(normals, offsets)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.tuples(_SPACING, _SPACING, _SPACING)),
                    min_size=1, max_size=3))
    def test_vertex_chains_match_oracle(self, cuts):
        planes = cube_halfspaces()
        for c, spacing in cuts:
            corner = ((c >> 2) & 1, (c >> 1) & 1, c & 1)
            planes.append(corner_cut(corner, np.array(spacing) * 1e-7 * 2.0))
        normals = np.array([[n for n, _ in planes]])
        offsets = np.array([[d for _, d in planes]])
        assert_matches_vertex_oracle(normals, offsets)

    def test_vertex_close_only_to_a_dropped_one_is_kept(self):
        # the cut's vertices come in triple order a = (0, 0, 0.75), b = (0, 0.1, 0)
        # and c = (0.75, 0, 0), in units of 1e-7 * scale: a-b and b-c are 0.76
        # apart and a-c 1.06, so b goes with a and c stays
        delta = 1e-7 * 2.0  # scale = 1 + max |offset| = 2
        planes = cube_halfspaces() + [corner_cut((0, 0, 0), np.array([0.75, 0.1, 0.75]) * delta)]
        verts = block_vertices(planes)
        near = verts[np.linalg.norm(verts, axis=1) < 1e-6] / delta
        assert near == pytest.approx(np.array([[0.0, 0.0, 0.75], [0.75, 0.0, 0.0]]), abs=1e-6)
        normals = np.array([[n for n, _ in planes]])
        offsets = np.array([[d for _, d in planes]])
        assert verts.tobytes() == vertex_oracle.block_vertices(normals[0], offsets[0]).tobytes()

    def test_fourteen_planes_through_one_apex(self):
        # a pyramid over a regular 14-gon: 364 of its 455 plane triples solve
        # to the apex, the width the all-pairs merge had to sub-chunk
        sides, radius, height = 14, 1.3, 1.7
        centre = np.array([0.25, -0.4, 0.0])
        apex = centre + [0.0, 0.0, height]
        angles = 2 * np.pi * np.arange(sides + 1) / sides
        base = centre + radius * np.stack([np.cos(angles), np.sin(angles), 0 * angles], axis=1)
        planes = []
        for p, q in zip(base[:-1], base[1:]):
            n = unit(np.cross(apex - p, q - p))  # inward: the centre lies on its positive side
            planes.append((n, float(n @ apex)))
        planes.append((np.array([0.0, 0.0, 1.0]), 0.0))
        normals = np.array([[n for n, _ in planes]])
        offsets = np.array([[d for _, d in planes]])
        exact = sides / 2 * radius**2 * math.sin(2 * math.pi / sides) * height / 3
        vol = block_volume(planes)
        assert vol == pytest.approx(exact, rel=1e-12)
        assert len(block_vertices(planes)) == sides + 1
        assert_matches_vertex_oracle(normals, offsets)


def nine_plane_blocks(seed, count):
    """count 9-plane blocks: a nonempty pyramid of 8 joints, closed by one plane.

    The joints are 5 general attitudes plus dip 0, dip 90 and a parallel copy
    of the first, so every block has singular plane triples.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    normals, offsets = [], []
    while sum(map(len, offsets)) < count:
        attitudes = [(rng.uniform(5, 80), rng.uniform(0, 360)) for _ in range(5)]
        attitudes += [(0.0, 35.0), (90.0, 250.0), attitudes[0]]
        n = np.array([normal_from_orientation(Orientation(dip, dd)) for dip, dd in attitudes])
        seed_point = rng.uniform(-1, 1, size=3)
        cap = unit(rng.normal(size=3))
        signs = np.array(list(itertools.product([1.0, -1.0], repeat=len(n))))
        rows = signs[:, :, None] * n
        N = np.concatenate([rows, np.broadcast_to(cap, (len(signs), 1, 3))], axis=1)
        D = np.concatenate([rows @ seed_point, np.full((len(signs), 1), cap @ seed_point - 1.0)],
                           axis=1)
        kept = cones_nonempty(rows) & ~cones_nonempty(N)  # a pyramid that the cap closes
        normals.append(N[kept])
        offsets.append(D[kept])
    return np.concatenate(normals)[:count], np.concatenate(offsets)[:count]


def boxed_wedges(seed, count):
    """count surrogate wedges: a joint and a facet plane, closed by the section box."""
    rng = np.random.Generator(np.random.Philox(seed))
    draws = [(rng.uniform(10, 80), rng.uniform(0, 360), rng.uniform(15, 25), rng.uniform(0, 360))
             for _ in range(count)]
    _, _, normals, offsets = dataset._wedges(
        TunnelSection(tuple(map(tuple, OCTAGON_SECTION))), draws, dataset.DEFAULT_SF_CAP)
    return normals, offsets


class TestChunking:
    """Chunk boundaries never change a bit, and a full chunk stays inside its memory figure."""

    @pytest.mark.parametrize("blocks", [nine_plane_blocks, boxed_wedges],
                             ids=["nine_plane_pyramids", "boxed_wedges"])
    @pytest.mark.parametrize("per_chunk", [1, 3, None], ids=["one", "three", "single_chunk"])
    def test_any_chunk_size_matches_oracle(self, monkeypatch, blocks, per_chunk):
        normals, offsets = blocks(11, 40)
        B, m = offsets.shape
        singular = np.abs(np.linalg.det(normals[:, volume._triples(m)])) < 1e-12
        assert singular.any(axis=1).all()  # every block takes the identity stand-in
        per_block = len(volume._triples(m)) * m
        monkeypatch.setattr(volume, "_CHUNK_ENTRIES", per_block * (per_chunk or B))
        assert len(volume._slices(B, per_block)) == -(-B // (per_chunk or B))
        got = block_volumes(normals, offsets)
        assert got.tobytes() == vertex_oracle.block_volumes(normals, offsets).tobytes()
        for b in range(B):
            alone = block_volume(list(zip(normals[b], offsets[b])))
            assert got[b].tobytes() == np.float64(alone).tobytes()
        assert np.count_nonzero(got) > B // 2

    def test_full_chunk_peak_memory(self):
        # the module docstring's figure for a full chunk of 9-plane seeded blocks
        per_block = len(volume._triples(9)) * 9
        full = volume._CHUNK_ENTRIES // per_block
        assert full == 86
        normals, offsets = nine_plane_blocks(3, full)
        block_volumes(normals[:1], offsets[:1])  # the cached triple table is not a temporary
        tracemalloc.start()
        try:
            block_volumes(normals, offsets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1e6


# The closed form's relative error against the exact rational volume, argued
# from measurement.  On degenerate_joint_set(3) and (8) it is at most 4.5e-15.
# Over 84,372 positive blocks of 5,000 hypothesis joint sets on the octagon
# the median is 2.8e-16 and the worst 2.9e-11 (36 blocks above 1e-11, none
# above 3e-11).  The tail is thin bases far from the apex foot: there the
# rounding of the cross product of two nearly parallel normals tilts an edge
# ray (with correctly rounded cross products the worst such block falls from
# 7.7e-12 to 1.4e-13).  1e-10 leaves a factor of 3.5 over that tail and is
# ten times tighter than the Qhull comparison's 1e-9.  Never loosen it.
PYRAMID_REL_TOL = 1e-10


def key_blocks(joints):
    """The blocks the sweep sizes on the octagon, as ``pyramid_volumes`` arguments."""
    sweep = enumerate_tunnel_blocks(joints, OCTAGON)
    sized_f, sized_c = np.nonzero(sweep.sized)
    facets = OCTAGON.facets()
    return (joint_normals(joints), code_signs([sweep.codes[k] for k in sized_c], len(joints)),
            np.array([f.inward_normal for f in facets]), np.array([f.seed_depth for f in facets]),
            np.array([sweep.facets[k].index for k in sized_f]))


def assert_matches_pyramid_oracle(joints):
    """Every sized block of the sweep against the exact oracle; returns (positive, flat) counts."""
    normals, signs, E, H, which = key_blocks(joints)
    got = volume.pyramid_volumes(normals, signs, E, H, which)
    sweep = enumerate_tunnel_blocks(joints, OCTAGON)
    assert sweep.volume[sweep.sized].tolist() == got.tolist()
    flat = 0
    for boundary, row, f, v in zip(sweep.boundary[sweep.sized], signs, which, got):
        exact = pyramid_oracle.pyramid_volume(row[:, None] * normals, E[f], H[f])
        if boundary:
            # a JP the classification finds without interior is flat: exactly
            # 0, and in rationals exactly 0 unless rounding of the float
            # normals tilts it into a sliver (at most 1.8e-30 h^3 measured)
            assert v == 0.0 and exact <= 1e-24 * H[f] ** 3
            flat += 1
        else:
            assert v > 0.0 and abs(v - exact) <= PYRAMID_REL_TOL * exact
    return len(got) - flat, flat


class TestPyramidVolumes:
    def test_orthant_corner(self):
        # the positive orthant cut by x + y + z = sqrt(3) h: a corner tetrahedron
        h = 0.7
        got = volume.pyramid_volumes(np.eye(3), np.ones((1, 3)), [-np.ones(3) / math.sqrt(3)],
                                     [h], [0])
        assert got[0] == pytest.approx((math.sqrt(3) * h) ** 3 / 6, rel=1e-15)

    @pytest.mark.parametrize("n_joints", [3, 8])
    def test_degenerate_sets_match_exact_oracle(self, n_joints):
        positive, flat = assert_matches_pyramid_oracle(degenerate_joint_set(n_joints))
        assert (positive, flat) == {3: (6, 0), 8: (110, 57)}[n_joints]

    @settings(max_examples=40, deadline=None)
    @given(joint_sets())
    def test_joint_sets_match_exact_oracle(self, joints):
        assert_matches_pyramid_oracle(joints)

    def test_flat_joint_pyramid_is_exactly_zero(self):
        # J1 opposed to its parallel copy J8: the JP is a flat wedge in J1's plane
        joints = degenerate_joint_set(8)
        normals, signs, E, H, which = key_blocks(joints)
        opposed = signs[:, 0] != signs[:, 7]
        assert opposed.sum() == 57
        got = volume.pyramid_volumes(normals, signs, E, H, which)
        assert np.all(got[opposed] == 0.0) and np.all(got[~opposed] > 0.0)
        for row, f in zip(signs[opposed], which[opposed]):
            assert pyramid_oracle.pyramid_volume(row[:, None] * normals, E[f], H[f]) == 0

    def test_unbounded_blocks_named(self):
        normals, signs, E, H, which = key_blocks(degenerate_joint_set(3))
        # each code's opposite opens its JP away from the facet
        with pytest.raises(UnboundedBlockError) as info:
            volume.pyramid_volumes(normals, np.r_[signs[:1], -signs[1:3]], E, H, which[:3])
        assert info.value.blocks == (1, 2)
        # parallel joints only: every JP holds a plane
        with pytest.raises(UnboundedBlockError) as info:
            volume.pyramid_volumes(normals[:1], np.ones((2, 1)), E, H, which[:2])
        assert info.value.blocks == (0, 1)

    @pytest.mark.parametrize("change", ["sign", "height", "normal", "facet", "shape"])
    def test_inputs_checked(self, change):
        normals, signs, E, H, which = key_blocks(degenerate_joint_set(3))
        if change == "sign":
            signs[0, 0] = 0.0
        elif change == "height":
            H[0] = 0.0
        elif change == "normal":
            normals[0, 0] = np.nan
        elif change == "facet":
            which[0] = len(E)
        else:
            signs = signs[:, :2]
        with pytest.raises(ValueError):
            volume.pyramid_volumes(normals, signs, E, H, which)


class TestPyramidChunking:
    """Chunk boundaries and batch order never change a bit, and a full chunk
    stays inside its memory figure."""

    @pytest.mark.parametrize("per_chunk", [1, 3, None], ids=["one", "three", "single_chunk"])
    def test_any_chunk_size_matches_one_block_calls(self, monkeypatch, per_chunk):
        normals, signs, E, H, which = key_blocks(degenerate_joint_set(8))
        B, rays = len(which), 54  # 27 non-parallel joint pairs (J1 and J8 are parallel), both signs
        monkeypatch.setattr(volume, "_PYRAMID_ENTRIES", rays * (per_chunk or B))
        assert len(volume._slices(B, rays, volume._PYRAMID_ENTRIES)) == -(-B // (per_chunk or B))
        got = volume.pyramid_volumes(normals, signs, E, H, which)
        for b in range(B):
            alone = volume.pyramid_volumes(normals, signs[b:b + 1], E, H, which[b:b + 1])
            assert got[b].tobytes() == alone[0].tobytes()
        order = np.random.Generator(np.random.Philox(5)).permutation(B)
        shuffled = volume.pyramid_volumes(normals, signs[order], E, H, which[order])
        assert shuffled.tobytes() == got[order].tobytes()
        assert np.count_nonzero(got) == 110

    def test_full_chunk_peak_memory(self):
        # the module docstring's figure for a full chunk of 8-joint seeded key blocks
        normals, signs, E, H, which = key_blocks(degenerate_joint_set(8))
        full = volume._PYRAMID_ENTRIES // 54  # (block, edge ray) entries per block
        assert full == 303
        signs, which = np.resize(signs, (full, 8)), np.resize(which, full)
        tracemalloc.start()
        try:
            volume.pyramid_volumes(normals, signs, E, H, which)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1e6
