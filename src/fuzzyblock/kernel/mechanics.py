"""Block classification, sliding-mode analysis, and limit-equilibrium safety factors.

The joint pyramid (JP) of a block collects one half-space per joint: the
upward joint normal for a block on the upper side (code U), its negation for
the lower side (code L).  Adding the free-face constraint (inward-to-rock
normal) gives the block pyramid (BP).  A block is removable exactly when the
JP is nonempty and the BP is trivial.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .orientation import JointPlane
from .pyramid import HalfSpaceSystem, PyramidResult, SignedCones, signed_cones

_FEAS_TOL = 1e-9

CLASS_INFINITE = "infinite"
CLASS_TAPERED = "tapered"
CLASS_REMOVABLE = "removable"


class ModeInconsistencyError(ValueError):
    """A reaction force came out negative for the proposed sliding mode."""


def code_signs(code: str) -> list[float]:
    signs = []
    for ch in code:
        if ch == "U":
            signs.append(1.0)
        elif ch == "L":
            signs.append(-1.0)
        else:
            raise ValueError(f"block code digits must be 'U' or 'L', got {ch!r}")
    return signs


def joint_normals(joints: Sequence[JointPlane]) -> np.ndarray:
    """Upward unit normals of the joints, shape (n, 3)."""
    return np.array([j.normal for j in joints]).reshape(len(joints), 3)


def joint_pyramid(code: str, joints: Sequence[JointPlane]) -> HalfSpaceSystem:
    if len(code) != len(joints):
        raise ValueError(f"code length {len(code)} != joint count {len(joints)}")
    return HalfSpaceSystem(np.array(code_signs(code))[:, None] * joint_normals(joints))


def classify_codes(
    signs: np.ndarray, normals: np.ndarray, jp: SignedCones, facet_normal: np.ndarray
) -> tuple[np.ndarray, SignedCones]:
    """Shi classification of every code against one free face.

    Codes are sign rows of the joint normals and jp holds their JP tests,
    which do not depend on the face.  Returns (classes, bp).
    """
    e = np.asarray(facet_normal, dtype=float)
    e = e / np.linalg.norm(e)
    bp = signed_cones(
        np.vstack([normals, e]), np.hstack([signs, np.ones((len(signs), 1))])
    )
    classes = np.select(
        [bp.nonempty, jp.nonempty], [CLASS_INFINITE, CLASS_REMOVABLE], CLASS_TAPERED
    )
    return classes, bp


def classify_block(
    code: str, joints: Sequence[JointPlane], facet_normal: np.ndarray
) -> tuple[str, PyramidResult, PyramidResult]:
    """Shi classification of a block code against one free face.

    Returns (classification, jp_result, bp_result); classification is one of
    "infinite", "tapered", "removable".
    """
    if len(code) != len(joints):
        raise ValueError(f"code length {len(code)} != joint count {len(joints)}")
    signs = np.array([code_signs(code)]).reshape(1, len(joints))
    normals = joint_normals(joints)
    jp = signed_cones(normals, signs)
    classes, bp = classify_codes(signs, normals, jp, facet_normal)
    return str(classes[0]), jp.result(0), bp.result(0)


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
        if self.kind == "plane":
            return f"plane({self.indices[0] + 1})"
        if self.kind == "wedge":
            return f"wedge({self.indices[0] + 1},{self.indices[1] + 1})"
        return self.kind


def _feasible(m: np.ndarray, s: np.ndarray) -> bool:
    return bool(np.all(m @ s >= -_FEAS_TOL)) if m.size else True


def sliding_mode(jp: HalfSpaceSystem, r: Sequence[float]) -> SlidingMode:
    """Direction in the JP that gains the most potential along the resultant.

    The maximizer of s . r over the unit JP cone lies at one of finitely many
    candidates: the resultant itself (falling), its projection onto a single
    constraint plane (plane sliding), or a two-plane edge (wedge sliding).
    If no candidate gains potential the block is safe.
    """
    r = np.asarray(r, dtype=float)
    norm_r = np.linalg.norm(r)
    if norm_r == 0.0:
        raise ValueError("resultant force must be nonzero")
    if jp.size == 0:
        raise ValueError("sliding mode needs at least one JP constraint")
    rhat = r / norm_r
    m = jp.normals

    candidates: list[tuple[str, tuple[int, ...], np.ndarray]] = []
    candidates.append(("falling", (), rhat))
    for i in range(jp.size):
        u = rhat - (rhat @ m[i]) * m[i]
        nu = np.linalg.norm(u)
        if nu > 1e-12:
            candidates.append(("plane", (i,), u / nu))
    for i in range(jp.size):
        for j in range(i + 1, jp.size):
            t = np.cross(m[i], m[j])
            nt = np.linalg.norm(t)
            if nt <= 1e-12:
                continue
            t = t / nt
            if t @ rhat < 0:
                t = -t
            candidates.append(("wedge", (i, j), t))

    best: Optional[tuple[str, tuple[int, ...], np.ndarray, float]] = None
    for kind, idx, s in candidates:
        if not _feasible(m, s):
            continue
        gain = float(s @ rhat)
        if best is None or gain > best[3] + 1e-12:
            best = (kind, idx, s, gain)

    if best is None or best[3] <= 1e-12:
        return SlidingMode("safe", (), None, 0.0 if best is None else best[3])
    kind, idx, s, gain = best
    return SlidingMode(kind, idx, s, gain)


def safety_factor(
    jp: HalfSpaceSystem,
    mode: SlidingMode,
    r: Sequence[float],
    friction_deg: Sequence[float],
) -> float:
    """Frictional safety factor for the given sliding mode.

    Falling blocks have no frictional resistance (factor 0); safe blocks get
    the +inf sentinel.  Invariant under positive scaling of the resultant.
    """
    r = np.asarray(r, dtype=float)
    if mode.kind == "falling":
        return 0.0
    if mode.kind == "safe":
        return math.inf
    m = jp.normals
    if mode.kind == "plane":
        (i,) = mode.indices
        n_force = -float(r @ m[i])
        if n_force < -1e-9 * np.linalg.norm(r):
            raise ModeInconsistencyError(
                f"negative normal reaction {n_force} on plane {i + 1}"
            )
        tangential = r - (r @ m[i]) * m[i]
        t_force = float(np.linalg.norm(tangential))
        if t_force <= 1e-15 * np.linalg.norm(r):
            return math.inf
        return max(0.0, n_force) * math.tan(math.radians(friction_deg[i])) / t_force
    if mode.kind == "wedge":
        i, j = mode.indices
        s = mode.direction
        t_force = float(r @ s)
        if t_force <= 1e-15 * np.linalg.norm(r):
            return math.inf
        rhs = r - t_force * s
        A = np.column_stack([-m[i], -m[j]])
        sol, residual, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
        if np.linalg.norm(A @ sol - rhs) > 1e-8 * max(1.0, np.linalg.norm(r)):
            raise ModeInconsistencyError("wedge decomposition failed to close")
        n1, n2 = float(sol[0]), float(sol[1])
        if n1 < -1e-9 * np.linalg.norm(r) or n2 < -1e-9 * np.linalg.norm(r):
            raise ModeInconsistencyError(
                f"negative normal reactions N1={n1}, N2={n2} for wedge mode"
            )
        resist = max(0.0, n1) * math.tan(math.radians(friction_deg[i])) + max(
            0.0, n2
        ) * math.tan(math.radians(friction_deg[j]))
        return resist / t_force
    raise ValueError(f"unknown mode kind {mode.kind!r}")
