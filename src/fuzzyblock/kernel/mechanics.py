"""Block classification, sliding-mode analysis, and limit-equilibrium safety factors.

The joint pyramid (JP) of a block collects one half-space per joint: the
upward joint normal for a block on the upper side (code U), its negation for
the lower side (code L).  Adding the free-face constraint (inward-to-rock
normal) gives the block pyramid (BP).  A block is removable exactly when the
JP is nonempty and the BP is trivial.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .orientation import JointPlane
from .pyramid import HalfSpaceSystem, PyramidResult, SignedCones, signed_cones

_FEAS_TOL = 1e-9
_KINDS = ("falling", "plane", "wedge", "safe")  # of a sliding mode

CLASS_INFINITE = "infinite"
CLASS_TAPERED = "tapered"
CLASS_REMOVABLE = "removable"


class ModeInconsistencyError(ValueError):
    """A reaction force came out negative for the proposed sliding mode."""


def code_signs(codes: Sequence[str], n: int) -> np.ndarray:
    """Sign rows (C, n) of block codes over n joints, +1 for U and -1 for L; the one code check."""
    joined = "".join(codes)
    if any(len(code) != n for code in codes) or set(joined) - {"U", "L"}:
        raise ValueError(f"each code needs one side, U or L, for each of its {n} joints")
    return np.array([1.0 if ch == "U" else -1.0 for ch in joined]).reshape(len(codes), n)


def joint_normals(joints: Sequence[JointPlane]) -> np.ndarray:
    """Upward unit normals of the joints, shape (n, 3)."""
    return np.array([j.normal for j in joints]).reshape(len(joints), 3)


def joint_pyramid(code: str, joints: Sequence[JointPlane]) -> HalfSpaceSystem:
    return HalfSpaceSystem(code_signs([code], len(joints))[0][:, None] * joint_normals(joints))


def classify_codes(
    signs: np.ndarray, normals: np.ndarray, jp: SignedCones, facet_normals: np.ndarray
) -> tuple[np.ndarray, SignedCones]:
    """Shi classification of every code against every free face, shape (F, C).

    Codes are sign rows (C, n) of the joint normals and jp holds their JP
    tests, which do not depend on the face.  A block pyramid is its JP plus
    the face row, so a code whose JP is empty has an empty BP on every face
    and is tapered: only the live codes, those with a nonempty JP, are
    tested, for all F faces in one stacked ``signed_cones`` call.  A dead
    code's BP entries are empty, not boundary-only, with a NaN witness.
    Returns (classes, bp).
    """
    e = np.asarray(facet_normals, dtype=float)
    e = e / np.array([np.linalg.norm(row) for row in e])[:, None]
    live = np.flatnonzero(jp.nonempty)
    tested = signed_cones(
        np.concatenate([np.broadcast_to(normals, (len(e),) + normals.shape), e[:, None]], axis=1),
        np.hstack([signs[live], np.ones((len(live), 1))]),
    )
    shape = (len(e), len(signs))
    bp = SignedCones(np.zeros(shape, bool), np.zeros(shape, bool),
                     np.full(shape + (normals.shape[1],), np.nan))
    bp.nonempty[:, live] = tested.nonempty
    bp.boundary_only[:, live] = tested.boundary_only
    bp.witness[:, live] = tested.witness
    classes = np.select(
        [bp.nonempty, jp.nonempty], [CLASS_INFINITE, CLASS_REMOVABLE], CLASS_TAPERED
    )
    return classes, bp


def classify_block(
    code: str, joints: Sequence[JointPlane], facet_normal: np.ndarray
) -> tuple[str, PyramidResult, PyramidResult]:
    """Shi classification of a block code against one free face.

    Returns (classification, jp_result, bp_result); classification is one of
    "infinite", "tapered", "removable".  It is the one-code, one-face form
    of ``classify_codes``.
    """
    signs = code_signs([code], len(joints))
    normals = joint_normals(joints)
    jp = signed_cones(normals, signs)
    classes, bp = classify_codes(signs, normals, jp, [facet_normal])
    return str(classes[0, 0]), jp.result(0), bp.result(0, 0)


@dataclass(frozen=True)
class SlidingMode:
    """Kinematic mode of a removable block under a resultant force.

    kind is "falling", "plane", "wedge" or "safe"; indices name the joints
    whose planes carry the motion (0-based positions in the JP).
    """

    kind: str
    indices: tuple[int, ...]
    direction: Optional[np.ndarray]
    potential: float

    def label(self) -> str:
        return _label(self.kind, self.indices)


def _label(kind: str, indices: Sequence[int]) -> str:
    """A mode's product label: its kind, with the 1-based planes of a plane or wedge."""
    if kind == "plane":
        return f"plane({indices[0] + 1})"
    if kind == "wedge":
        return f"wedge({indices[0] + 1},{indices[1] + 1})"
    return kind


@dataclass(frozen=True)
class BlockMechanics:
    """Modes and safety factors of a batch of JPs, one entry per row.

    indices name the planes carrying the motion, -1 past them; direction is
    NaN on safe rows.  A row whose reactions fail has a NaN sf and the text
    of its ``ModeInconsistencyError`` in error; both are None after a scan.
    """

    kind: np.ndarray  # (B,) str, one of _KINDS
    indices: np.ndarray  # (B, 2) int
    direction: np.ndarray  # (B, 3)
    potential: np.ndarray  # (B,)
    sf: Optional[np.ndarray] = None  # (B,)
    error: Optional[list[Optional[str]]] = None

    def labels(self) -> list[str]:
        """Each row's ``SlidingMode.label``, without building the modes."""
        return [_label(kind, indices)
                for kind, indices in zip(self.kind.tolist(), self.indices.tolist())]

    def mode(self, k: int) -> SlidingMode:
        kind = str(self.kind[k])
        return SlidingMode(kind, tuple(int(i) for i in self.indices[k] if i >= 0),
                           None if kind == "safe" else self.direction[k].copy(),
                           float(self.potential[k]))


def _resultant(r: Sequence[float]) -> np.ndarray:
    """r as a float array; a non-finite or zero resultant is a ValueError."""
    r = np.asarray(r, dtype=float)
    if not np.isfinite(r).all():
        raise ValueError(f"resultant force must be finite, got {r.tolist()}")
    if np.linalg.norm(r) == 0.0:
        raise ValueError("resultant force must be nonzero")
    return r


def _scan(normals: np.ndarray, r: np.ndarray) -> BlockMechanics:
    """The direction in each row's JP that gains the most potential along r.

    The maximizer of s . r over the unit JP cone is one of these, in order:
    r itself (falling), r projected onto one plane, the edge of two planes
    turned toward r (wedge).  A later feasible one wins only by more than
    1e-12; the block is safe if none gains.  Each product is formed as a
    one-row call forms it, so a row's bits do not depend on its batch.
    """
    B, m = normals.shape[:2]
    if m == 0:
        raise ValueError("sliding mode needs at least one JP constraint")
    rhat = r / np.linalg.norm(r)
    first, second = np.triu_indices(m, 1)
    kinds = np.repeat([0, 1, 2], [1, m, len(first)])  # positions in _KINDS
    planes = np.c_[np.r_[-1, np.arange(m), first], np.r_[-1, [-1] * m, second]]
    cands = np.concatenate([
        np.broadcast_to(rhat, (B, 1, 3)),
        rhat - np.vecdot(normals, rhat)[..., None] * normals,
        np.cross(normals[:, first], normals[:, second]),
    ], axis=1)
    length = np.sqrt(np.vecdot(cands, cands))
    length[:, 0] = 1.0  # r is used as it is
    feasible = length > 1e-12
    cands /= np.where(feasible, length, 1.0)[..., None]
    wedges = cands[:, m + 1:]
    wedges *= np.where(np.vecdot(wedges, rhat) < 0, -1.0, 1.0)[..., None]
    # m @ s per candidate as stacked matrix-vector products, which keep the bits of
    # a one-row call's m @ s (np.vecdot can differ from it in the last bit)
    feasible &= np.all(np.matmul(normals[:, None], cands[..., None]) >= -_FEAS_TOL, axis=(2, 3))
    gains = np.vecdot(cands, rhat)
    best, best_gain = np.full(B, -1), np.full(B, -math.inf)
    for p in range(len(kinds)):
        wins = feasible[:, p] & (gains[:, p] > best_gain + 1e-12)
        best[wins], best_gain[wins] = p, gains[wins, p]
    safe = (best < 0) | (best_gain <= 1e-12)
    pick = np.maximum(best, 0)
    return BlockMechanics(
        np.array(_KINDS)[np.where(safe, 3, kinds[pick])],
        np.where(safe[:, None], -1, planes[pick]),
        np.where(safe[:, None], math.nan, cands[np.arange(B), pick]),
        np.where(best < 0, 0.0, best_gain),
    )


def _factors(
    normals: np.ndarray, modes: BlockMechanics, r: np.ndarray, tan_phi: np.ndarray
) -> tuple[np.ndarray, list[Optional[str]]]:
    """Frictional SF (0 falling, +inf safe) and error text of each row's given mode.

    Wedge rows solve for their two normal reactions by least squares.  A
    friction tan_phi that is not finite and nonnegative is a ValueError.
    """
    bad = np.flatnonzero(~(np.isfinite(tan_phi) & (tan_phi >= 0.0)).all(axis=1))
    if len(bad):
        raise ValueError(f"tan_phi of row(s) {bad.tolist()} must be finite and nonnegative")
    norm_r = np.linalg.norm(r)
    sf = np.select([modes.kind == "falling", modes.kind == "safe"], [0.0, math.inf], math.nan)
    error: list[Optional[str]] = [None] * len(sf)
    rows = np.flatnonzero(modes.kind == "plane")
    i = modes.indices[rows, 0]
    n_force = -np.vecdot(r, normals[rows, i])
    tangential = r + n_force[:, None] * normals[rows, i]  # bits of r - (r . m) m
    t_force = np.sqrt(np.vecdot(tangential, tangential))
    # max(0, N) as Python's max takes it: a reaction of -0.0 gives +0.0
    resist = np.where(n_force > 0.0, n_force, 0.0) * tan_phi[rows, i]
    sf[rows] = np.divide(resist, t_force, out=np.full(len(rows), math.inf),
                         where=t_force > 1e-15 * norm_r)
    for k in np.flatnonzero(n_force < -1e-9 * norm_r):
        sf[rows[k]] = math.nan
        error[rows[k]] = f"negative normal reaction {float(n_force[k])} on plane {i[k] + 1}"

    for k in np.flatnonzero(modes.kind == "wedge"):
        (i, j), s = modes.indices[k], modes.direction[k]
        t_force = float(r @ s)
        if t_force <= 1e-15 * norm_r:
            sf[k] = math.inf
            continue
        rhs = r - t_force * s
        A = np.column_stack([-normals[k, i], -normals[k, j]])
        sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
        n1, n2 = float(sol[0]), float(sol[1])
        if np.linalg.norm(A @ sol - rhs) > 1e-8 * max(1.0, norm_r):
            error[k] = "wedge decomposition failed to close"
        elif n1 < -1e-9 * norm_r or n2 < -1e-9 * norm_r:
            error[k] = f"negative normal reactions N1={n1}, N2={n2} for wedge mode"
        else:
            sf[k] = (max(0.0, n1) * tan_phi[k, i] + max(0.0, n2) * tan_phi[k, j]) / t_force
    return sf, error


def block_mechanics(
    normals: np.ndarray, r: Sequence[float], tan_phi: np.ndarray
) -> BlockMechanics:
    """Sliding mode and frictional safety factor of every JP of a batch.

    normals has shape (B, m, 3), one JP per row; tan_phi, the friction of
    each plane, broadcasts to (B, m).  The SF is invariant under scaling r.
    A row whose reactions fail gets an error text instead of raising.
    """
    normals, r = np.asarray(normals, dtype=float), _resultant(r)
    modes = _scan(normals, r)
    sf, error = _factors(normals, modes, r, np.broadcast_to(tan_phi, normals.shape[:2]))
    return replace(modes, sf=sf, error=error)


def sliding_mode(jp: HalfSpaceSystem, r: Sequence[float]) -> SlidingMode:
    """The one-row form of the mode scan of ``block_mechanics``."""
    return _scan(jp.normals[None], _resultant(r)).mode(0)


def safety_factor(
    jp: HalfSpaceSystem, mode: SlidingMode, r: Sequence[float], friction_deg: Sequence[float]
) -> float:
    """The one-row form of the SF step of ``block_mechanics``, for any mode of the JP.

    Raises ``ModeInconsistencyError`` where that step records an error.
    """
    if mode.kind not in _KINDS:
        raise ValueError(f"unknown mode kind {mode.kind!r}")
    one = BlockMechanics(np.array([mode.kind]), np.array([[*mode.indices, -1, -1][:2]]),
                         np.full((1, 3), math.nan if mode.direction is None else mode.direction),
                         np.array([mode.potential]))
    tan_phi = np.array([[math.tan(math.radians(phi)) for phi in friction_deg]])
    (sf,), (error,) = _factors(jp.normals[None], one, _resultant(r), tan_phi)
    if error is not None:
        raise ModeInconsistencyError(error)
    return float(sf)
