"""Per-draw reference for the surrogate dataset's kinematics and wedge planes.

``wedge`` analyzes one draw the way the kernel's sweep analyzes a block:
one ``HalfSpaceSystem`` per side of the joint, ``sliding_mode`` for its
mode, ``safety_factor`` for its SF.  ``surrogate.dataset`` computes all
draws in one numpy pass and must reproduce these bits exactly.
"""
import math
from typing import Optional

import numpy as np

from fuzzyblock.kernel.mechanics import safety_factor, sliding_mode
from fuzzyblock.kernel.orientation import Orientation, normal_from_orientation
from fuzzyblock.kernel.pyramid import HalfSpaceSystem
from fuzzyblock.kernel.tunnel import GRAVITY_DIR, TunnelSection
from fuzzyblock.kernel.volume import bbox_halfspaces

EXIT_TOL = 1e-9


def wedge(
    tunnel: TunnelSection,
    draw: tuple[float, float, float, float],
    sf_cap: float,
    seed_offset: Optional[float],
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
    offset = seed_offset if seed_offset is not None else 0.25 * facet.edge_length
    seed_point = boundary_point + offset * facet.inward_normal
    n = normal_from_orientation(Orientation(dip, dd % 360.0))
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
