"""Cone emptiness tests for joint / excavation / block pyramids.

A pyramid {v : n_i . v >= 0 for all i} always contains the zero vector; it
counts as nonempty only when it contains some nonzero vector (boundary rays
included).  The decision is the candidate-ray test, the vector form of
Goodman & Shi, *Block Theory and Its Application to Rock Engineering* (1985):
a cone is nonempty exactly when one candidate ray is feasible.  The
candidates come from ``edge_rays``, the one rule for them in the package.
A nonempty cone meets some closed orthant in a pointed cone, and each edge
of that cone lies where two of its bounding rows (normals or coordinate
axes) are active: along r_i x r_j in 3-D, along perp(r_i) in 2-D.  So the
edge rays of the normals plus the axes, taken with both signs, meet every
nonempty cone, whatever the rank of the normals.  The feasible candidates
generate the cone, so it has an interior exactly when their sum is strictly
feasible; otherwise it is boundary-only and a feasible candidate is the
witness.  Flipping the sign of a normal maps the candidates onto
themselves, so one candidate matrix decides every sign pattern of a normal
set (every block code) at once, and ``signed_cones`` decides them for a
stack of normal sets (the block pyramids of every facet) in one call.
``cones_nonempty`` applies the same candidates to a batch of row sets, one
cone each: the recession cones that decide whether blocks are bounded.

A ray d lies in a signed cone when no row has signs[i] * n_i . d below
-``_TOL``.  ``feasible_rays`` is that rule for every sign row at once; the
classification and the closed-form volumes call it, and the mode scan
tests its already-signed rows against the same ``_TOL``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TOL = 1e-9
_CROSS_TOL = 1e-12


@dataclass(frozen=True)
class SignedCones:
    """Cone tests of one normal set, or of a stack of sets, under each row of a sign matrix.

    Entry c, or (f, c) for set f of a stack, describes
    {v != 0 : signs[c, i] * n_i . v >= 0}; ``witness`` holds a unit vector
    of that cone, or NaN when the cone is empty.
    """

    nonempty: np.ndarray
    boundary_only: np.ndarray
    witness: np.ndarray


def edge_rays(rows: np.ndarray) -> np.ndarray:
    """Candidate edge rays of the cones bounded by the row sets ``rows``.

    rows has shape (..., m, d) with d = 3 or 2.  Returns the unit rays
    r_i x r_j for i < j in 3-D, or perp(r_i) in 2-D, shape (..., K, d); a
    ray whose norm is at most 1e-12 (parallel or zero rows) is NaN.
    """
    rows = np.asarray(rows, dtype=float)
    dim = rows.shape[-1]
    if dim == 3:
        i, j = np.triu_indices(rows.shape[-2], 1)
        rays = np.cross(rows[..., i, :], rows[..., j, :])
    elif dim == 2:
        rays = rows[..., ::-1] * np.array([-1.0, 1.0])
    else:
        raise ValueError(f"cone tests need 2-D or 3-D rows, got dimension {dim}")
    norms = np.linalg.norm(rays, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(norms > _CROSS_TOL, rays / norms, np.nan)


def _candidates(normals: np.ndarray) -> np.ndarray:
    """Edge rays of the normals plus the coordinate axes, with both signs.

    normals has shape (..., m, d); returns (..., K, d), NaN where a ray is
    undefined.  This is the candidate set that meets every nonempty cone.
    A non-finite normal is a ValueError: no ray could be tested against it.
    """
    if not np.isfinite(normals).all():
        raise ValueError("cone normals must be finite")
    d = normals.shape[-1]
    axes = np.broadcast_to(np.eye(d), normals.shape[:-2] + (d, d))
    k = edge_rays(np.concatenate([normals, axes], axis=-2))
    return np.concatenate([k, -k], axis=-2)


def feasible_rays(margins: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Whether each ray lies in each signed cone, shape (..., C, K).

    margins (..., K, m) holds K defined rays' margins against m rows and
    signs (C, m) the +-1 sign rows.  A ray violates a +1 row when its
    margin is below -tol and a -1 row when above +tol, so one product of
    0/1 matrices counts the violations of every sign row.
    """
    breaks = np.concatenate([margins < -_TOL, margins > _TOL], axis=-1)
    sides = np.hstack([signs > 0, signs < 0])
    return sides @ np.swapaxes(breaks, -1, -2).astype(float) == 0


def cones_nonempty(normals: np.ndarray) -> np.ndarray:
    """Decide {v != 0 : n_i . v >= 0 for all i} for each row set, shape (B,).

    normals has shape (B, m, d): one cone test per row set, with the
    candidates and tolerance of ``signed_cones``, so both agree on a cone.
    """
    normals = np.asarray(normals, dtype=float)
    margins = _candidates(normals) @ np.swapaxes(normals, -1, -2)
    # a NaN candidate compares False and is never feasible
    return np.all(margins >= -_TOL, axis=-1).any(axis=-1)


def signed_cones(normals: np.ndarray, signs: np.ndarray) -> SignedCones:
    """Decide {v != 0 : signs[c, i] * n_i . v >= 0} for every normal set and sign row c.

    normals is one set (m, d), with results of shape (C,), or a stack of
    sets (F, m, d) that share the sign matrix (C, m) of +-1, with results
    of shape (F, C).  The candidate rays and their margins come for every
    set in one pass; ``feasible_rays`` then tests each set's defined
    candidates in one product, so no temporary grows past (rows x
    candidates) of one set, and each set gets the bits it gets alone.
    """
    normals = np.asarray(normals, dtype=float)
    signs = np.asarray(signs, dtype=float)
    stack = normals if normals.ndim == 3 else normals[None]
    sets, m, d = stack.shape
    if m == 0:  # the whole space
        witness = np.zeros((sets, len(signs), d))
        witness[..., -1] = 1.0
        nonempty, interior = np.ones((sets, len(signs)), bool), np.ones((sets, len(signs)), bool)
    else:
        k = _candidates(stack)
        rows = np.swapaxes(stack, -1, -2)
        margins = k @ rows
        nonempty = np.empty((sets, len(signs)), bool)
        total = np.empty((sets, len(signs), d))
        first = np.empty((sets, len(signs)), int)
        for f in range(sets):
            defined = np.flatnonzero(~np.isnan(k[f, :, 0]))
            feasible = feasible_rays(margins[f, defined], signs)
            nonempty[f] = feasible.any(axis=1)
            total[f] = feasible.astype(float) @ k[f, defined]
            first[f] = defined[feasible.argmax(axis=1)]
        norms = np.linalg.norm(total, axis=-1)
        interior = norms > _CROSS_TOL
        total[interior] /= norms[interior, None]
        interior &= (signs * (total @ rows)).min(axis=-1) > _TOL
        witness = np.where(interior[..., None], total, np.take_along_axis(k, first[..., None], 1))
        witness[~nonempty] = np.nan
    if normals.ndim != 3:
        nonempty, interior, witness = nonempty[0], interior[0], witness[0]
    return SignedCones(nonempty, nonempty & ~interior, witness)


def cone_nonempty(normals: np.ndarray) -> SignedCones:
    """Decide whether {v != 0 : n_i . v >= 0 for all i} is nonempty.

    Takes 2-D or 3-D normals (m, d): one sign row of ``signed_cones``, so
    each field of the result has one entry.
    """
    return signed_cones(normals, np.ones((1, len(normals))))
