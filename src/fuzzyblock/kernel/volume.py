"""Convex block volumes, computed in batches: seeded key blocks in closed
form, general blocks from half-space descriptions.

A seeded key block is a pyramid: its apex is the seed point, its sides the
planes of its joint pyramid (JP) through the apex, and its base lies on the
facet plane.  ``pyramid_volumes`` sizes such blocks as h * A / 3 from the
base polygon that the JP's edge rays span; the tunnel sweep sizes every
block this way.  Its work is elementwise or a sum in ray order, so a block
gets the same bits alone or in any batch, and it runs in chunks of
``_PYRAMID_ENTRIES`` (block, edge ray) entries: under tracemalloc a full
chunk of 8-joint key blocks with one parallel pair (54 edge rays, 303 blocks
to a chunk) peaks near 1.05 MB.

A block in general is the intersection of half-spaces n . x >= d (inward
normals).  It is bounded exactly when its recession cone {v : n . v >= 0 for
every plane} is the zero vector alone; for a removable key block that cone
is the block pyramid, which is empty, so no bounding box is needed.
``block_volumes``
first decides every block's recession cone with ``cones_nonempty`` (the
candidates and tolerance of the crisp classification) and raises
``UnboundedBlockError`` naming every unbounded block.  Then, for all blocks
at once, it

1. marks the regular plane triples (|det| >= 1e-12), puts the identity in
   place of every other triple's matrix, solves all triples in one
   ``np.linalg.solve`` call (one 3x3 system at a time inside LAPACK, so a
   regular triple's solution does not depend on its neighbours), and keeps
   the regular solutions that satisfy every plane, testing one plane at a
   time;
2. packs each block's feasible vertices, in triple order, to the front of a
   padded array and merges them by a first-come scan: each round keeps
   every block's first pending vertex and drops the block's pending
   vertices within 1e-7 * scale of it, so a vertex is dropped exactly when
   it lies that close to an earlier kept one; the rounds number the kept
   vertices, not the packed width;
3. orders each distinct plane's face polygon around its centroid, takes its
   area by the shoelace formula, and sums the divergence theorem
   V = (1/3) sum_faces (x . n_out) * area, which is exact for convex blocks.

A block with fewer than four vertices, or with all of them on one of its
planes (two coincident opposed planes, say), is flat and has volume 0.0.

A block's result does not depend on the other blocks in its batch, bit for
bit: the packed width varies with the batch, but every sum over the vertex
axis runs in vertex order, so padding adds exact zeros, and per-block
contractions are elementwise products in a fixed order rather than BLAS
calls.  ``block_volume`` and ``block_vertices`` are the one-block form of
the same routine.  Blocks are processed in chunks of at most
``_CHUNK_ENTRIES`` (block, plane triple, plane) feasibility tests, which
bounds every temporary whatever the batch size.  Under tracemalloc a full
chunk of the surrogate's 8-plane boxed wedges, its one production caller
(146 to a chunk), peaks near 2.0 MB, in the face step; a full chunk of
9-plane blocks (an 8-joint pyramid closed by one plane, 86 to a chunk)
peaks just under 1.1 MB, most of it the boundedness cone test's
(86, 132, 9) margins.
"""
from __future__ import annotations

import functools
import itertools
from typing import Callable, Sequence

import numpy as np

from .pyramid import _TOL, cones_nonempty, edge_rays, feasible_rays

FEAS_TOL = 1e-9
_VERTEX_TOL = 1e-7  # vertices closer than this (times scale) are one vertex
_FACE_TOL = 1e-6  # a vertex this close (times scale) to a plane lies on its face
_PLANE_TOL = 1e-9  # planes closer than this are one face
_CHUNK_ENTRIES = 1 << 16
_PYRAMID_ENTRIES = 1 << 14  # (block, edge ray) entries in one pyramid_volumes chunk


class UnboundedBlockError(RuntimeError):
    """Some blocks have a nonzero recession direction; ``blocks`` lists their indices."""

    def __init__(self, blocks: Sequence[int]) -> None:
        self.blocks = tuple(int(b) for b in blocks)
        super().__init__(
            f"block(s) {list(self.blocks)} are unbounded: their recession cone "
            "holds a nonzero direction"
        )


def bbox_halfspaces(lo: Sequence[float], hi: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The box lo <= x <= hi as normals (6, 3) and offsets (6,): per axis k the
    low face (+e_k, lo_k), then the high one (-e_k, -hi_k), +0.0 off the axis."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi <= lo):
        raise ValueError(f"degenerate bounding box {lo} .. {hi}")
    normals, offsets = np.zeros((6, 3)), np.zeros(6)
    for k in range(3):
        normals[2 * k, k], offsets[2 * k] = 1.0, lo[k]
        normals[2 * k + 1, k], offsets[2 * k + 1] = -1.0, -hi[k]
    return normals, offsets


def _seq_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, as a running sum in index order: trailing zeros
    leave the bits alone."""
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    return np.add.accumulate(a, axis=-1)[..., -1]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over a last axis of length 3, in a fixed order."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over a last axis of length 3."""
    return np.stack([
        a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
        a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
        a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
    ], axis=-1)


def _first_kept(valid: np.ndarray, close: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Keep entry j of each row unless it is close to an earlier kept entry.

    valid is (B, W); close(first) is the (B, W) mask of the entries close to
    entry first[b] of row b.  Each round keeps every row's first pending
    entry and drops the pending entries close to it, so a kept entry is
    never close to an earlier kept one and a dropped entry always is; the
    scan ends when nothing is pending.
    """
    pending = valid.copy()
    keep = np.zeros_like(valid)
    rows = np.arange(len(valid))
    while pending.any():
        first = np.argmax(pending, axis=1)
        keep[rows, first] |= pending[rows, first]
        pending &= ~close(first)
        pending[rows, first] = False  # a NaN entry is close to nothing, itself included
    return keep


def _near(X: np.ndarray, first: np.ndarray, tol: np.ndarray | float) -> np.ndarray:
    """|X[b, j] - X[b, first[b]]| <= tol over a last axis of length 3, shape (B, W)."""
    diff = X - X[np.arange(len(X)), first][:, None, :]
    return np.sqrt(_dot(diff, diff)) <= tol


def _pack(values: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move each row's kept entries, in order, to the front; (packed, count)."""
    count = keep.sum(axis=1)
    width = int(count.max()) if len(count) else 0
    order = np.argsort(~keep, axis=1, kind="stable")[:, :width]
    return np.take_along_axis(values, order[..., None], axis=1), count


def _slices(B: int, per_block: int, entries: int | None = None) -> list[slice]:
    """Ranges of B blocks holding at most ``entries`` (default ``_CHUNK_ENTRIES``)
    entries, and at least one block."""
    step = max(1, (entries or _CHUNK_ENTRIES) // max(1, per_block))
    return [slice(first, first + step) for first in range(0, B, step)]


@functools.lru_cache(maxsize=None)
def _triples(m: int) -> np.ndarray:
    """All index triples i < j < k below m, in lexicographic order, read-only."""
    triples = np.array(list(itertools.combinations(range(m), 3))).reshape(-1, 3)
    triples.flags.writeable = False
    return triples


def _vertices(N: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct vertices of each block, packed (B, W, 3) in triple order, and counts."""
    triples = _triples(D.shape[1])
    scale = 1.0 + np.max(np.abs(D), axis=1)
    A = N[:, triples]
    regular = np.abs(np.linalg.det(A)) >= 1e-12
    A[~regular] = np.eye(3)  # solvable stand-ins; their solutions are never feasible
    x = np.linalg.solve(A, D[:, triples][..., None])[..., 0]
    floor = D - FEAS_TOL * scale[:, None]
    feasible = regular
    for p in range(D.shape[1]):
        feasible &= _dot(x, N[:, None, p]) >= floor[:, None, p]
    verts, count = _pack(x, feasible)
    # >3 planes through one point give that vertex several times: keep the
    # first, and drop any vertex close to an earlier kept one
    tol = (_VERTEX_TOL * scale)[:, None]
    valid = np.arange(verts.shape[1]) < count[:, None]
    keep = _first_kept(valid, lambda first: _near(verts, first, tol))
    return _pack(verts, keep)


def _pseudo_angle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Increasing function of atan2(y, x) on (-pi, pi], from + - * / only."""
    den = np.abs(x) + np.abs(y)
    p = y / np.where(den > 0.0, den, 1.0)
    return np.where(x >= 0.0, p, np.where(y >= 0.0, 2.0 - p, -2.0 - p))


def _plane_basis(N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal in-plane basis (u, w) of each unit normal, deterministic given n."""
    a = np.zeros_like(N)
    big = np.abs(N[..., 0]) > 0.9
    a[..., 0] = ~big
    a[..., 1] = big
    u = _cross(N, a)
    length = np.sqrt(_dot(u, u))
    u /= np.where(length > 0.0, length, 1.0)[..., None]
    return u, _cross(N, u)


def _volumes(N: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Volumes of one chunk of bounded blocks."""
    verts, count = _vertices(N, D)
    W = verts.shape[1]
    valid = np.arange(W) < count[:, None]
    scale = 1.0 + np.max(np.where(valid[..., None], np.abs(verts), 0.0), axis=(1, 2), initial=0.0)
    tol = (_FACE_TOL * scale)[:, None, None]
    resid = _dot(verts[:, None, :, :], N[:, :, None, :]) - D[:, :, None]
    on = valid[:, None, :] & (np.abs(resid) <= tol)  # (B, planes, W)
    on_count = on.sum(axis=2)
    # a block with every vertex on one of its planes is flat: volume 0
    closed = (count >= 4) & ~np.any(on_count == count[:, None], axis=1)
    # a plane repeated within the block bounds the same face: count it once
    rows = np.arange(len(D))

    def same(first):
        return _near(N, first, _PLANE_TOL) & (
            np.abs(D - D[rows, first][:, None]) <= (_PLANE_TOL * scale)[:, None]
        )

    face = _first_kept(np.ones(D.shape, dtype=bool), same) & closed[:, None] & (on_count >= 3)

    u, w = _plane_basis(N)
    masked = np.where(on[:, :, None, :], np.moveaxis(verts, 1, 2)[:, None], 0.0)
    centroid = _seq_sum(masked)
    centroid /= np.maximum(on_count, 1)[..., None]
    rel = verts[:, None, :, :] - centroid[:, :, None, :]
    XY = np.stack([_dot(rel, u[:, :, None, :]), _dot(rel, w[:, :, None, :])])
    key = np.where(on, _pseudo_angle(*XY), np.inf)
    XY = np.take_along_axis(XY, np.argsort(key, axis=2, kind="stable")[None], axis=3)
    k = np.arange(W)
    in_face = k < on_count[..., None]
    nxt = np.where(k + 1 < on_count[..., None], k + 1, 0)
    X, Y = XY
    Xn, Yn = np.take_along_axis(XY, nxt[None], axis=3)
    shoelace = _seq_sum(np.where(in_face, X * Yn, 0.0)) - _seq_sum(np.where(in_face, Y * Xn, 0.0))
    area = np.where(face, 0.5 * np.abs(shoelace), 0.0)
    # on a face with inward (n, d) the outward flux density x . (-n) is -d
    volume = _seq_sum(np.where(face, -D * area, 0.0)) / 3.0
    return np.where(closed & (volume > 0.0), volume, 0.0)


def _as_batch(normals, offsets) -> tuple[np.ndarray, np.ndarray]:
    N = np.asarray(normals, dtype=float)
    D = np.asarray(offsets, dtype=float)
    if N.ndim != 3 or N.shape[2] != 3 or D.shape != N.shape[:2]:
        raise ValueError(f"need normals (B, m, 3) and offsets (B, m), got {N.shape}, {D.shape}")
    bad = np.flatnonzero(~(np.isfinite(N).all(axis=(1, 2)) & np.isfinite(D).all(axis=1)))
    if len(bad):
        raise ValueError(f"block(s) {bad.tolist()} have a non-finite normal or offset")
    return N, D


def _require_bounded(N: np.ndarray, chunks: list[slice]) -> None:
    """Raise UnboundedBlockError naming every block whose recession cone is nontrivial."""
    unbounded = np.zeros(len(N), dtype=bool)
    for sl in chunks:
        unbounded[sl] = cones_nonempty(N[sl])
    if unbounded.any():
        raise UnboundedBlockError(np.flatnonzero(unbounded))


def block_volumes(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Volumes in cubic meters of B blocks with m half-spaces each, shape (B,).

    normals has shape (B, m, 3) and offsets (B, m): block b is the set where
    normals[b, i] . x >= offsets[b, i] for every i.  A block that is empty
    or lower-dimensional has volume 0.0.  If any block's recession cone
    {v : normals[b] v >= 0} holds a nonzero vector, UnboundedBlockError
    names every such block.  Each block's volume is bit-identical to
    ``block_volume`` of that block alone.
    """
    N, D = _as_batch(normals, offsets)
    B, m = D.shape
    chunks = _slices(B, len(_triples(m)) * m)  # (block, triple, plane) feasibility tests
    _require_bounded(N, chunks)
    out = np.zeros(len(D))
    for sl in chunks:
        out[sl] = _volumes(N[sl], D[sl])
    return out


def block_vertices(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vertices (k, 3) of one block, normals (m, 3) and offsets (m,); an
    unbounded block raises UnboundedBlockError."""
    N, D = _as_batch([normals], [offsets])
    _require_bounded(N, [slice(0, 1)])
    verts, count = _vertices(N, D)
    return verts[0, : count[0]]


def block_volume(normals: np.ndarray, offsets: np.ndarray) -> float:
    """Volume in cubic meters of one block, normals (m, 3) and offsets (m,).

    This is ``block_volumes`` for a batch of one: n . x >= d on every row,
    0.0 for an empty or lower-dimensional region, and UnboundedBlockError
    for an unbounded one.
    """
    return float(block_volumes([normals], [offsets])[0])


def _pyramid_areas(feasible: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Shoelace areas of the polygons spanned by each row's feasible (x, y) points.

    The points are sorted by angle about their centroid; a point repeated
    bit for bit adds exactly 0 to the sum, so none needs merging.
    """
    count = feasible.sum(axis=1)
    x = x - (_seq_sum(x) / np.maximum(count, 1))[:, None]
    y = y - (_seq_sum(y) / np.maximum(count, 1))[:, None]
    order = np.argsort(np.where(feasible, _pseudo_angle(x, y), np.inf), axis=1, kind="stable")
    x, y = np.take_along_axis(x, order, axis=1), np.take_along_axis(y, order, axis=1)
    k = np.arange(x.shape[1])
    nxt = np.where(k + 1 < count[:, None], k + 1, 0)
    cross = x * np.take_along_axis(y, nxt, axis=1) - y * np.take_along_axis(x, nxt, axis=1)
    return 0.5 * np.abs(_seq_sum(np.where(k < count[:, None], cross, 0.0)))


def pyramid_volumes(
    normals: np.ndarray,
    signs: np.ndarray,
    facet_normals: np.ndarray,
    heights: np.ndarray,
    which: np.ndarray,
) -> np.ndarray:
    """Volumes in cubic meters of B seeded key blocks, in closed form, shape (B,).

    Block b is a pyramid.  Its sides are the planes of its joint pyramid (JP)
    {v : signs[b, i] * normals[i] . v >= 0} through the apex, and its base
    lies on the plane of facet f = which[b], heights[f] from the apex, with
    inward unit normal e = facet_normals[f].  normals is (m, 3), signs (B, m)
    of +-1, facet_normals (F, 3), heights (F,) and which (B,).  The base
    vertices are apex + d * h / (-e . d) over the JP's feasible edge rays d,
    the candidates ``edge_rays`` builds for the classification with both
    signs, kept by the classification's rule ``feasible_rays``, and the
    volume is h * A / 3 for the base area A.  A JP with no interior (a
    joint opposed to its parallel copy, say) or no ray gives exactly 0.0.
    A block whose JP holds a ray with e . d >= -tol is not closed by its
    facet; UnboundedBlockError names every such block.

    A code's signs map the candidate rays onto themselves, so the ray-joint
    margins and the rays' base-plane coordinates are built once per call.
    Blocks are processed in chunks of ``_PYRAMID_ENTRIES`` (block, ray)
    entries; every step is elementwise or a sum in ray order, so a block
    gets the same bits alone, in any batch and at any chunk size.
    """
    N = np.asarray(normals, dtype=float).reshape(-1, 3)
    S = np.asarray(signs, dtype=float)
    E = np.asarray(facet_normals, dtype=float).reshape(-1, 3)
    H = np.asarray(heights, dtype=float)
    which = np.asarray(which, dtype=np.intp)
    B = len(which)
    if which.ndim != 1 or S.shape != (B, len(N)) or H.shape != (len(E),):
        raise ValueError(f"need normals (m, 3), signs (B, m), facet normals (F, 3), heights (F,) "
                         f"and which (B,), got {N.shape}, {S.shape}, {E.shape}, {H.shape}, "
                         f"{which.shape}")
    if not (np.isfinite(N).all() and np.isfinite(E).all() and np.all(H > 0.0)
            and np.all(np.abs(S) == 1.0) and np.all((which >= 0) & (which < len(E)))):
        raise ValueError("need finite normals, positive heights, signs of +-1 and facet "
                         "indices below the facet count")
    rays = edge_rays(N)
    rays = rays[~np.isnan(rays[:, 0])]
    rays = np.concatenate([rays, -rays])
    if B and not len(rays):  # parallel or no joints: the JP holds a plane
        raise UnboundedBlockError(range(B))
    margins = rays @ N.T
    u, w = _plane_basis(E)
    down = -_dot(rays, E[:, None])  # (F, rays): -e . d
    reach = down > _TOL  # the ray meets the base plane
    down = np.where(reach, down, 1.0)
    X, Y = _dot(rays, u[:, None]) / down, _dot(rays, w[:, None]) / down
    out = np.zeros(B)
    unbounded = np.zeros(B, dtype=bool)
    for sl in _slices(B, len(rays), _PYRAMID_ENTRIES):
        f, h = which[sl], H[which[sl]]
        feasible = feasible_rays(margins, S[sl])
        unbounded[sl] = np.any(feasible & ~reach[f], axis=1)
        # the JP has an interior exactly when the sum of its rays is strictly inside it
        total = np.stack([_seq_sum(np.where(feasible, rays[:, c], 0.0)) for c in range(3)], -1)
        solid = (S[sl] * _dot(total[:, None], N)).min(axis=1) > _TOL * np.sqrt(_dot(total, total))
        area = _pyramid_areas(feasible, np.where(feasible, h[:, None] * X[f], 0.0),
                              np.where(feasible, h[:, None] * Y[f], 0.0))
        out[sl] = np.where(solid, h * area / 3.0, 0.0)
    if unbounded.any():
        raise UnboundedBlockError(np.flatnonzero(unbounded))
    return out
