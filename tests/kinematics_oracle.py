"""Per-code reference for the kernel's sliding modes and safety factors.

``sliding_mode`` and ``safety_factor`` below are the kernel's one-JP-at-a-time
routines as they stood before ``kernel.mechanics.block_mechanics`` replaced
them: a Python scan over the candidates with one product per candidate.
The batched routine, the sweep and the surrogate dataset must reproduce
their bits exactly.

``wedge`` analyzes one dataset draw the way the kernel's sweep analyzes a
block: one ``HalfSpaceSystem`` per side of the joint, ``sliding_mode`` for
its mode, ``safety_factor`` for its SF.
"""
import math
from typing import Optional, Sequence

import numpy as np

from fuzzyblock.kernel.mechanics import ModeInconsistencyError, SlidingMode
from fuzzyblock.kernel.orientation import Orientation, normal_from_orientation, wrap_azimuth
from fuzzyblock.kernel.pyramid import HalfSpaceSystem
from fuzzyblock.kernel.tunnel import GRAVITY_DIR, TunnelSection
from fuzzyblock.kernel.volume import bbox_halfspaces

EXIT_TOL = 1e-9
_FEAS_TOL = 1e-9


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




def wedge(
    tunnel: TunnelSection,
    draw: tuple[float, float, float, float],
    sf_cap: float,
) -> tuple[float, Optional[str], np.ndarray, np.ndarray]:
    """(sf, best side or None, normals (8, 3), offsets (8,)) of one draw.

    A side counts only when its sliding direction exits the rock through
    the facet; the lower SF wins and L wins ties.  The wedge lies on the
    winning side, or on L when neither side moves; its joint and facet
    planes come first, then the six planes of the section box.
    """
    dip, dd, phi, theta = draw
    (index,), (boundary_point,) = tunnel.facets_at_angles([theta % 360.0])
    if index < 0:
        raise ValueError(f"no facet found at angle {theta}")
    facet = tunnel.facets()[index]
    seed_point = boundary_point + 0.25 * facet.edge_length * facet.inward_normal
    n = normal_from_orientation(Orientation(dip, wrap_azimuth(dd)))
    e = facet.inward_normal
    r = np.asarray(GRAVITY_DIR)

    best_sf = math.inf
    best_side: Optional[str] = None
    for side, sign in (("L", -1.0), ("U", 1.0)):
        jp = HalfSpaceSystem((sign * n).reshape(1, 3))
        mode = sliding_mode(jp, r)
        if mode.kind == "safe" or mode.direction is None:
            continue
        if float(mode.direction @ e) >= -EXIT_TOL:
            continue
        sf = safety_factor(jp, mode, r, [phi])
        if sf < best_sf:
            best_sf = sf
            best_side = side

    m = (1.0 if best_side == "U" else -1.0) * n
    box = bbox_halfspaces(*tunnel.section_bbox())
    normals = np.vstack([m, e] + [bn for bn, _ in box])
    offsets = np.array([float(m @ seed_point), float(e @ boundary_point)] + [d for _, d in box])
    return min(best_sf, sf_cap), best_side, normals, offsets
