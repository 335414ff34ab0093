"""Cone emptiness tests for joint / excavation / block pyramids.

A pyramid {v : n_i . v >= 0 for all i} always contains the zero vector; it
counts as nonempty only when it contains some nonzero vector (boundary rays
included).  The decision is the candidate-ray test, the vector form of
Goodman & Shi, *Block Theory and Its Application to Rock Engineering* (1985):
a cone is nonempty exactly when one candidate ray is feasible.  If the
normals span 3-D space the cone is pointed and its edges lie along
+-n_i x n_j; if they span a plane with normal d, its edges across the line
along d lie along +-d x n_i; if they span a line, an orthonormal pair across
that line reaches it.  The rays +-n_i are candidates too, and in 2-D the
candidates are +-n_i and +-perp(n_i).  The cone has an interior exactly when
the sum of its feasible candidates is strictly feasible; otherwise it is
boundary-only and a feasible candidate is the witness.  Flipping the sign of
a normal maps the candidates onto themselves, so one candidate matrix
decides every sign pattern of a normal set (every block code) at once.
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

    def extended(self, extra: np.ndarray) -> "HalfSpaceSystem":
        extra = np.atleast_2d(np.asarray(extra, dtype=float))
        if self.size == 0:
            return HalfSpaceSystem(extra)
        return HalfSpaceSystem(np.vstack([self.normals, extra]))


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


def _unit_rows(v: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(v, axis=1)
    keep = norms > _CROSS_TOL
    return v[keep] / norms[keep, None]


def _candidate_rays(normals: np.ndarray) -> np.ndarray:
    """Unit rays, closed under negation, that meet every nonempty signed cone."""
    dim = normals.shape[1]
    if dim == 2:
        rays = [normals, normals[:, ::-1] * np.array([-1.0, 1.0])]
    elif dim == 3:
        i, j = np.triu_indices(len(normals), 1)
        rays = [normals, _unit_rows(np.cross(normals[i], normals[j]))]
        _, s, vt = np.linalg.svd(normals)
        rank = int(np.count_nonzero(s > _TOL))
        if rank == 2:
            rays.append(_unit_rows(np.cross(vt[2], normals)))
        elif rank == 1:
            rays.append(vt[1:])
    else:
        raise ValueError(f"cone tests need 2-D or 3-D normals, got dimension {dim}")
    k = np.vstack(rays)
    return np.vstack([k, -k])


def signed_cones(normals: np.ndarray, signs: np.ndarray) -> SignedCones:
    """Decide {v != 0 : signs[c, i] * n_i . v >= 0} for every sign row c at once.

    Signs are +-1.  A candidate ray fails row c when it violates a constraint
    of either sign, so counting violations is two matrix products and no
    temporary grows past (rows x candidates).
    """
    normals = np.asarray(normals, dtype=float)
    signs = np.asarray(signs, dtype=float)
    if len(normals) == 0:  # the whole space
        witness = np.zeros((len(signs), normals.shape[1]))
        witness[:, -1] = 1.0
        return SignedCones(np.ones(len(signs), bool), np.zeros(len(signs), bool), witness)
    k = _candidate_rays(normals)
    margins = k @ normals.T
    breaks_up = (margins < -_TOL).T.astype(float)  # ray k violates +n_i
    breaks_down = (margins > _TOL).T.astype(float)  # ray k violates -n_i
    feasible = ((signs > 0) @ breaks_up + (signs < 0) @ breaks_down) == 0
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

    Takes 2-D or 3-D normals; used for 3-D pyramids and for 2-D fuzzy
    half-plane systems in their crisp limit.
    """
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    if normals.size == 0:
        normals = np.zeros((0, normals.shape[1] or 3))
    return signed_cones(normals, np.ones((1, len(normals)))).result(0)


def pyramid_nonempty(sys: HalfSpaceSystem) -> PyramidResult:
    """Emptiness test for a half-space pyramid, with a witness when nonempty."""
    return cone_nonempty(sys.normals)
