"""Convex block volumes from half-space descriptions.

A block is the intersection of half-spaces n . x >= d (inward normals).
Vertices come from enumerating plane triples and filtering against all
constraints; volume follows from the divergence theorem over the faces,
which is exact for convex blocks.  A bounding box closes the region; contact
with it means the true block escapes and is an error unless clipping is
explicitly allowed.
"""
from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

FEAS_TOL = 1e-9


class UnboundedBlockError(RuntimeError):
    """The block reaches the bounding box, so its true extent is not captured."""


def bbox_halfspaces(
    lo: Sequence[float], hi: Sequence[float]
) -> list[tuple[np.ndarray, float]]:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi <= lo):
        raise ValueError(f"degenerate bounding box {lo} .. {hi}")
    planes = []
    for k in range(3):
        n = np.zeros(3)
        n[k] = 1.0
        planes.append((n.copy(), float(lo[k])))
        n2 = np.zeros(3)
        n2[k] = -1.0
        planes.append((n2, float(-hi[k])))
    return planes


def _enumerate_vertices(
    planes: Sequence[tuple[np.ndarray, float]], tol: float
) -> np.ndarray:
    normals = np.array([p[0] for p in planes])
    offsets = np.array([p[1] for p in planes])
    scale = 1.0 + float(np.max(np.abs(offsets))) if len(offsets) else 1.0
    triples = np.array(list(itertools.combinations(range(len(planes)), 3)))
    A = normals[triples]
    regular = np.abs(np.linalg.det(A)) >= 1e-12
    x = np.linalg.solve(A[regular], offsets[triples[regular]][..., None])[..., 0]
    verts = x[np.all(x @ normals.T >= offsets - tol * scale, axis=1)]
    # cluster duplicates produced by >3 planes meeting at a point
    keep: list[np.ndarray] = []
    for v in verts:
        if all(np.linalg.norm(v - u) > 1e-7 * scale for u in keep):
            keep.append(v)
    return np.array(keep).reshape(-1, 3)


def _face_area(verts: np.ndarray, n: np.ndarray, d: float, scale: float) -> float:
    """Area of the polygonal face lying on plane n . x = d, 0 if degenerate."""
    on_face = verts[np.abs(verts @ n - d) <= 1e-6 * scale]
    if len(on_face) < 3:
        return 0.0
    # orthonormal in-plane basis, deterministic given n
    a = np.array([1.0, 0.0, 0.0])
    if abs(n[0]) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    u = np.cross(n, a)
    u /= np.linalg.norm(u)
    w = np.cross(n, u)
    centroid = on_face.mean(axis=0)
    rel = on_face - centroid
    ang = np.arctan2(rel @ w, rel @ u)
    order = np.argsort(ang)
    pts2 = np.column_stack([rel @ u, rel @ w])[order]
    x, y = pts2[:, 0], pts2[:, 1]
    area = 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
    return area


def block_vertices(
    halfspaces: Sequence[tuple[np.ndarray, float]],
    bbox: tuple[Sequence[float], Sequence[float]],
    tol: float = FEAS_TOL,
) -> np.ndarray:
    """Vertices of the block closed by the bounding box, shape (k, 3)."""
    planes = [(np.asarray(n, dtype=float), float(d)) for n, d in halfspaces]
    return _enumerate_vertices(planes + bbox_halfspaces(*bbox), tol)


def block_volume(
    halfspaces: Sequence[tuple[np.ndarray, float]],
    bbox: tuple[Sequence[float], Sequence[float]],
    allow_bbox_clip: bool = False,
    tol: float = FEAS_TOL,
) -> float:
    """Volume in cubic meters of the block cut out by the half-spaces.

    halfspaces are (inward unit normal, offset) pairs meaning n . x >= d.
    Returns 0.0 for an empty or lower-dimensional region.
    """
    box_planes = bbox_halfspaces(*bbox)
    planes = [(np.asarray(n, dtype=float), float(d)) for n, d in halfspaces]
    all_planes = planes + box_planes
    verts = _enumerate_vertices(all_planes, tol)
    if len(verts) < 4:
        return 0.0
    scale = 1.0 + float(np.max(np.abs(verts)))
    if not allow_bbox_clip:
        for n, d in box_planes:
            if np.any(np.abs(verts @ n - d) <= 1e-6 * scale):
                raise UnboundedBlockError(
                    "block touches the bounding box; enlarge the box or allow clipping"
                )
    # divergence theorem: V = (1/3) * sum over faces of (x . n_out) * area,
    # and on a face with inward (n, d) the outward flux density x . (-n) = -d
    unique_planes: list[tuple[np.ndarray, float]] = []
    for n, d in all_planes:
        if any(
            np.linalg.norm(n - n2) <= 1e-9 and abs(d - d2) <= 1e-9 * scale
            for n2, d2 in unique_planes
        ):
            continue
        unique_planes.append((n, d))
    volume = 0.0
    for n, d in unique_planes:
        area = _face_area(verts, n, d, scale)
        volume += (-d) * area
    return max(0.0, volume / 3.0)


def monte_carlo_volume(
    halfspaces: Sequence[tuple[np.ndarray, float]],
    bbox: tuple[Sequence[float], Sequence[float]],
    n_points: int,
    seed: int,
) -> float:
    """Rejection-sampling volume estimate; the independent check for block_volume."""
    lo = np.asarray(bbox[0], dtype=float)
    hi = np.asarray(bbox[1], dtype=float)
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.uniform(lo, hi, size=(n_points, 3))
    inside = np.ones(n_points, dtype=bool)
    for n, d in halfspaces:
        inside &= pts @ np.asarray(n, dtype=float) >= d
    return float(np.prod(hi - lo)) * float(np.count_nonzero(inside)) / n_points
