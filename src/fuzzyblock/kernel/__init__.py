"""Crisp key-block kernel: orientations, pyramids, modes, volumes, tunnel sweep."""
from .mechanics import (
    CLASS_INFINITE,
    CLASS_REMOVABLE,
    CLASS_TAPERED,
    ModeInconsistencyError,
    classify_block,
    joint_pyramid,
    safety_factor,
    sliding_mode,
)
from .orientation import JointPlane, Orientation, normal_from_orientation
from .pyramid import cone_nonempty
from .tunnel import (
    Facet,
    TunnelSection,
    TunnelSweep,
    all_codes,
    enumerate_tunnel_blocks,
)
from .volume import (
    UnboundedBlockError,
    bbox_halfspaces,
    block_vertices,
    block_volume,
    block_volumes,
)

__all__ = [
    "CLASS_INFINITE",
    "CLASS_REMOVABLE",
    "CLASS_TAPERED",
    "Facet",
    "JointPlane",
    "ModeInconsistencyError",
    "Orientation",
    "TunnelSection",
    "TunnelSweep",
    "UnboundedBlockError",
    "all_codes",
    "bbox_halfspaces",
    "block_vertices",
    "block_volume",
    "block_volumes",
    "classify_block",
    "cone_nonempty",
    "enumerate_tunnel_blocks",
    "joint_pyramid",
    "normal_from_orientation",
    "safety_factor",
    "sliding_mode",
]
