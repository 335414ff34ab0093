import itertools
import math

import numpy as np
import pytest

from fuzzyblock.kernel.volume import (
    UnboundedBlockError,
    bbox_halfspaces,
    block_vertices,
    block_volume,
    monte_carlo_volume,
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


BIG_BOX = ((-3.0, -3.0, -3.0), (4.0, 4.0, 4.0))


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
        assert block_volume(cube_halfspaces(), BIG_BOX) == pytest.approx(1.0, abs=1e-12)

    def test_simplex(self):
        hs = [
            (np.array([1.0, 0, 0]), 0.0),
            (np.array([0, 1.0, 0]), 0.0),
            (np.array([0, 0, 1.0]), 0.0),
            (unit([-1, -1, -1]), -1 / math.sqrt(3)),
        ]
        assert block_volume(hs, BIG_BOX) == pytest.approx(1 / 6, abs=1e-12)

    def test_empty_region_zero(self):
        hs = [(np.array([1.0, 0, 0]), 1.0), (np.array([-1.0, 0, 0]), 1.0)]
        assert block_volume(hs, BIG_BOX) == 0.0

    def test_unbounded_reported(self):
        hs = [(np.array([0, 0, 1.0]), 0.0)]
        with pytest.raises(UnboundedBlockError):
            block_volume(hs, BIG_BOX)

    def test_unbounded_allowed_when_clipping(self):
        hs = [(np.array([0, 0, 1.0]), 0.0)]
        vol = block_volume(hs, ((-1, -1, -1), (1, 1, 1)), allow_bbox_clip=True)
        assert vol == pytest.approx(4.0, abs=1e-9)

    def test_vertices_match_per_triple_loop(self):
        # a repeated plane and a parallel copy give singular triples, and the
        # repeated plane gives duplicate vertices
        rng = np.random.Generator(np.random.Philox(5))
        normals = rng.normal(size=(3, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        centre = np.full(3, 0.5)
        hs = cube_halfspaces() + [(n, float(n @ centre) - 0.3) for n in normals]
        hs += [hs[0], (np.array([1.0, 0, 0]), -0.5)]
        expected = loop_vertices(hs + bbox_halfspaces(*BIG_BOX), 1e-9)
        assert len(expected) >= 8
        assert np.array_equal(block_vertices(hs, BIG_BOX), expected)

    def test_degenerate_bbox_rejected(self):
        with pytest.raises(ValueError):
            bbox_halfspaces((0, 0, 0), (0, 1, 1))

    def test_random_five_plane_blocks_match_monte_carlo(self):
        rng = np.random.Generator(np.random.Philox(31))
        box = ((-2, -2, -2), (2, 2, 2))
        checked = 0
        while checked < 5:
            normals = rng.normal(size=(5, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            # anchor all planes near the origin so the block often closes
            offsets = rng.uniform(-0.8, 0.1, size=5)
            hs = [(normals[i], float(offsets[i])) for i in range(5)]
            try:
                vol = block_volume(hs, box)
            except UnboundedBlockError:
                continue
            if vol < 0.05:
                continue
            # tight sampling box keeps the estimator's standard error small
            verts = block_vertices(hs, box)
            mc_box = (verts.min(axis=0) - 0.05, verts.max(axis=0) + 0.05)
            mc = monte_carlo_volume(hs, mc_box, 1_000_000, seed=checked)
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
        vol = block_volume(hs, BIG_BOX)
        # exact value: cone of height 1 over the equilateral base triangle
        # with inradius 0.5 / sin(60)
        r = 0.5 / math.sin(math.radians(60))
        assert vol == pytest.approx(3 * math.sqrt(3) * r * r / 3, abs=1e-12)
        # Monte Carlo with a tight box so the fill fraction keeps the
        # 1e6-point estimator inside the 1% band
        mc = monte_carlo_volume(hs, ((-1.1, -1.1, -0.05), (1.1, 1.1, 1.05)), 1_000_000, seed=9)
        assert vol == pytest.approx(mc, rel=0.01)
