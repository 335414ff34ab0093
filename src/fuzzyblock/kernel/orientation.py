"""Joint orientations and their plane normals.

Axis convention used throughout the package: x = east, y = north, z = up.
Joint normals are the upward ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Orientation:
    """Plane attitude as dip (inclination) and dip direction (azimuth)."""

    dip_deg: float
    dip_direction_deg: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.dip_deg <= 90.0:
            raise ValueError(f"dip must lie in [0, 90], got {self.dip_deg}")
        if not 0.0 <= self.dip_direction_deg < 360.0:
            raise ValueError(
                f"dip direction must lie in [0, 360), got {self.dip_direction_deg}"
            )


def wrap_azimuth(deg: float) -> float:
    """deg in [0, 360); a tiny negative angle, which % 360 rounds to 360, gives 0."""
    wrapped = deg % 360.0
    return 0.0 if wrapped == 360.0 else wrapped


def normal_from_orientation(o: Orientation) -> np.ndarray:
    """Upward unit normal of the plane with the given attitude."""
    dip = math.radians(o.dip_deg)
    dd = math.radians(o.dip_direction_deg)
    return np.array(
        [math.sin(dip) * math.sin(dd), math.sin(dip) * math.cos(dd), math.cos(dip)]
    )


@dataclass(frozen=True)
class JointPlane:
    """A joint set: attitude and friction angle."""

    id: str
    orientation: Orientation
    friction_deg: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.friction_deg < 90.0:
            raise ValueError(f"friction angle must lie in [0, 90), got {self.friction_deg}")

    @property
    def normal(self) -> np.ndarray:
        return normal_from_orientation(self.orientation)
