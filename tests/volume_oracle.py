"""Monte-Carlo volume oracle for convex blocks, independent of the package.

A block is the intersection of half-spaces n . x >= d.  Rejection sampling
in a box that holds the block estimates its volume with a standard error
that shrinks as 1/sqrt(n_points); the tests compare ``block_volume`` with it.
"""
from typing import Sequence

import numpy as np


def monte_carlo_volume(
    halfspaces: Sequence[tuple[np.ndarray, float]],
    bbox: tuple[Sequence[float], Sequence[float]],
    n_points: int,
    seed: int,
) -> float:
    """Rejection-sampling volume estimate of the block inside bbox."""
    lo = np.asarray(bbox[0], dtype=float)
    hi = np.asarray(bbox[1], dtype=float)
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.uniform(lo, hi, size=(n_points, 3))
    inside = np.ones(n_points, dtype=bool)
    for n, d in halfspaces:
        inside &= pts @ np.asarray(n, dtype=float) >= d
    return float(np.prod(hi - lo)) * float(np.count_nonzero(inside)) / n_points
