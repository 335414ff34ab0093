"""Reference for the first-come vertex and plane merges of ``kernel.volume``.

The functions below are the volume routine as it stood before the scan:
both merges decide "keep entry j unless it is close to an earlier kept
entry" from an all-pairs (block, entry, entry) closeness tensor, iterated to
a fixpoint, and the vertex distances are chunked by the packed width so a
block whose planes all meet at one apex stays small.  Every other step is
the kernel's own.  ``block_volumes`` and ``block_vertices`` must reproduce
these bit for bit.
"""
import numpy as np

from fuzzyblock.kernel.volume import (
    _FACE_TOL,
    _PLANE_TOL,
    _VERTEX_TOL,
    FEAS_TOL,
    _cross,
    _dot,
    _pack,
    _pseudo_angle,
    _seq_sum,
    _triples,
)

_CHUNK_ENTRIES = 1 << 14


def _slices(B, per_block):
    """Ranges of B blocks holding at most ``_CHUNK_ENTRIES`` entries (and at least one block)."""
    step = max(1, _CHUNK_ENTRIES // max(1, per_block))
    return [slice(first, first + step) for first in range(0, B, step)]


def first_kept(valid, close):
    """Keep entry j of each row unless it is close to an earlier kept entry.

    valid is (B, W) and close (B, W, W).  The rule fixes entry j from the
    entries before it, so iterating it from ``valid`` reaches its one
    solution; a pass that changes nothing confirms it.
    """
    earlier = close & np.tri(close.shape[1], k=-1, dtype=bool)
    keep = valid
    while True:
        update = valid & ~np.any(earlier & keep[:, None, :], axis=2)
        if np.array_equal(update, keep):
            return keep
        keep = update


def vertices(N, D):
    """Distinct vertices of each block, packed (B, W, 3) in triple order, and counts."""
    triples = _triples(D.shape[1])
    scale = 1.0 + np.max(np.abs(D), axis=1)
    A = N[:, triples]
    regular = np.abs(np.linalg.det(A)) >= 1e-12
    x = np.zeros(A.shape[:2] + (3,))
    x[regular] = np.linalg.solve(A[regular], D[:, triples][regular][..., None])[..., 0]
    lhs = _dot(x[:, :, None, :], N[:, None, :, :])
    floor = D - FEAS_TOL * scale[:, None]
    feasible = regular & np.all(lhs >= floor[:, None, :], axis=2)
    verts, count = _pack(x, feasible)
    W = verts.shape[1]
    keep = np.arange(W) < count[:, None]
    for sl in _slices(len(verts), W * W):
        v = verts[sl]
        dist2 = sum((v[:, :, None, k] - v[:, None, :, k]) ** 2 for k in range(3))
        keep[sl] = first_kept(keep[sl], np.sqrt(dist2) <= _VERTEX_TOL * scale[sl, None, None])
    return _pack(verts, keep)


def _volumes(N, D):
    verts, count = vertices(N, D)
    W = verts.shape[1]
    valid = np.arange(W) < count[:, None]
    scale = 1.0 + np.max(np.where(valid[..., None], np.abs(verts), 0.0), axis=(1, 2), initial=0.0)
    tol = (_FACE_TOL * scale)[:, None, None]
    resid = _dot(verts[:, None, :, :], N[:, :, None, :]) - D[:, :, None]
    on = valid[:, None, :] & (np.abs(resid) <= tol)
    on_count = on.sum(axis=2)
    closed = (count >= 4) & ~np.any(on_count == count[:, None], axis=1)
    dn = N[:, :, None, :] - N[:, None, :, :]
    same = (np.sqrt(_dot(dn, dn)) <= _PLANE_TOL) & (
        np.abs(D[:, :, None] - D[:, None, :]) <= _PLANE_TOL * scale[:, None, None]
    )
    face = first_kept(np.ones(D.shape, dtype=bool), same) & closed[:, None] & (on_count >= 3)

    a = np.zeros_like(N)
    big = np.abs(N[..., 0]) > 0.9
    a[..., 0] = ~big
    a[..., 1] = big
    u = _cross(N, a)
    length = np.sqrt(_dot(u, u))
    u /= np.where(length > 0.0, length, 1.0)[..., None]
    w = _cross(N, u)
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
    volume = _seq_sum(np.where(face, -D * area, 0.0)) / 3.0
    return np.where(closed & (volume > 0.0), volume, 0.0)


def block_volumes(normals, offsets):
    """Volumes of B bounded blocks, (B,); the caller checks boundedness."""
    N = np.asarray(normals, dtype=float)
    D = np.asarray(offsets, dtype=float)
    out = np.zeros(len(D))
    for sl in _slices(len(D), len(_triples(D.shape[1])) * D.shape[1]):
        out[sl] = _volumes(N[sl], D[sl])
    return out


def block_vertices(normals, offsets):
    """Vertices (k, 3) of one bounded block given as normals (m, 3) and offsets (m,)."""
    N = np.asarray(normals, dtype=float)[None]
    verts, count = vertices(N, np.asarray(offsets, dtype=float)[None])
    return verts[0, : count[0]]
