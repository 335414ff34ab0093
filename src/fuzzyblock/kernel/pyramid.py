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
set (every block code) at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

_TOL = 1e-9
_CROSS_TOL = 1e-12


@dataclass(frozen=True)
class HalfSpaceSystem:
    """Homogeneous half-space constraints n_i . v >= 0 with unit normals."""

    normals: np.ndarray

    def __post_init__(self) -> None:
        arr = np.atleast_2d(np.asarray(self.normals, dtype=float))
        if arr.size == 0:
            arr = np.zeros((0, 3))
        if arr.shape[1] != 3:
            raise ValueError(f"normals must be 3-vectors, got shape {arr.shape}")
        lengths = np.linalg.norm(arr, axis=1)
        if arr.shape[0] and not np.all(np.abs(lengths - 1.0) <= 1e-9):
            raise ValueError("all normals must be unit length within 1e-9")
        arr.setflags(write=False)
        object.__setattr__(self, "normals", arr)

    @property
    def size(self) -> int:
        return self.normals.shape[0]


@dataclass(frozen=True)
class PyramidResult:
    nonempty: bool
    witness: Optional[np.ndarray]
    boundary_only: bool


@dataclass(frozen=True)
class SignedCones:
    """Cone tests of one normal set under each row of a sign matrix.

    Row c describes {v != 0 : signs[c, i] * n_i . v >= 0}; ``witness[c]`` is
    a unit vector of that cone, or NaN when the cone is empty.
    """

    nonempty: np.ndarray
    boundary_only: np.ndarray
    witness: np.ndarray

    def result(self, c: int) -> PyramidResult:
        if not self.nonempty[c]:
            return PyramidResult(False, None, False)
        return PyramidResult(True, self.witness[c].copy(), bool(self.boundary_only[c]))


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


def signed_cones(normals: np.ndarray, signs: np.ndarray) -> SignedCones:
    """Decide {v != 0 : signs[c, i] * n_i . v >= 0} for every sign row c at once.

    Signs are +-1.  A candidate ray fails row c when it violates a constraint
    of either sign, so counting violations is one matrix product of 0/1
    matrices and no temporary grows past (rows x candidates).
    """
    normals = np.asarray(normals, dtype=float)
    signs = np.asarray(signs, dtype=float)
    if len(normals) == 0:  # the whole space
        witness = np.zeros((len(signs), normals.shape[1]))
        witness[:, -1] = 1.0
        return SignedCones(np.ones(len(signs), bool), np.zeros(len(signs), bool), witness)
    k = edge_rays(np.vstack([normals, np.eye(normals.shape[1])]))
    k = k[~np.isnan(k[:, 0])]
    k = np.vstack([k, -k])
    margins = k @ normals.T
    # ray k violates +n_i when its margin is below -tol, -n_i when above +tol
    breaks = np.hstack([margins < -_TOL, margins > _TOL]).T.astype(float)
    feasible = np.hstack([signs > 0, signs < 0]) @ breaks == 0
    nonempty = feasible.any(axis=1)
    total = feasible.astype(float) @ k
    norms = np.linalg.norm(total, axis=1)
    interior = norms > _CROSS_TOL
    total[interior] /= norms[interior, None]
    interior &= (signs * (total @ normals.T)).min(axis=1) > _TOL
    witness = np.where(interior[:, None], total, k[feasible.argmax(axis=1)])
    witness[~nonempty] = np.nan
    return SignedCones(nonempty, nonempty & ~interior, witness)


def cone_nonempty(normals: np.ndarray) -> PyramidResult:
    """Decide whether {v != 0 : n_i . v >= 0 for all i} is nonempty.

    Takes 2-D or 3-D normals: one sign row of ``signed_cones``.
    """
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    if normals.size == 0:
        normals = np.zeros((0, normals.shape[1] or 3))
    return signed_cones(normals, np.ones((1, len(normals)))).result(0)


def pyramid_nonempty(sys: HalfSpaceSystem) -> PyramidResult:
    """Emptiness test for a half-space pyramid, with a witness when nonempty."""
    return cone_nonempty(sys.normals)
