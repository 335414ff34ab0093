"""Crisp and fuzzy key-block stability analysis for underground excavations.

Subpackages and modules:

- ``fuzzy_numbers``: trapezoidal fuzzy numbers, alpha-cuts, strict
  exceedance ranking.
- ``plane_geometry``: fuzzy points, lines, segments, polygons.
- ``kernel``: crisp key-block theory (pyramids, modes, safety factors,
  volumes, tunnel sweep).
- ``fuzzy_blocks``: fuzzy half-space systems and PJB / PBP / PBR.
- ``surrogate``: dataset generation and the TSK surrogate with damage maps.
- ``csv_io``: product CSV text and checked CSV reading (standard library and
  numpy only).
- ``svg_out``: SVG emitters.
- ``project``, ``cli``: project files and command dispatch; each command
  loads only the layers its project and its work need.
"""
from .fuzzy_numbers import (
    AlphaInterval,
    TrapezoidalNumber,
    exceedance_poss,
    fit_trapezoid,
    linear_combine,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaInterval",
    "TrapezoidalNumber",
    "exceedance_poss",
    "fit_trapezoid",
    "linear_combine",
    "__version__",
]
