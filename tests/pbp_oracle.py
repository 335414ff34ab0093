"""Reference for the batched PBP search.

The functions below are ``fuzzy_blocks``' one-system search as it stood
before the lockstep batch: ``pbp`` runs its own multisection, one
``_orthant_edges`` batch per round, for one system at a time.  ``pbps`` must
reproduce its value bit for bit for every system of every batch.
"""
import itertools

import numpy as np

from fuzzyblock.fuzzy_blocks import FuzzySystem
from fuzzyblock.fuzzy_numbers import DeltaVariant
from fuzzyblock.kernel.pyramid import edge_rays

_TOL = 1e-12
_GRID = 16


def _knot_matrices(system: FuzzySystem) -> np.ndarray:
    """The coefficient knots as four (rows, dim) matrices, a1 to a4."""
    return np.moveaxis(
        np.array([[t.to_list() for t in c.coeffs] for c in system.constraints]), -1, 0
    )


def _orthant_edges(
    rows: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge rays of the cones {v : s_k v_k >= 0, rows . v >= 0}.

    rows has shape (..., m, d) and signs (..., d), one orthant per leading
    index.  The candidates are the ``edge_rays`` of the unit rows plus the
    signed orthant axes, each turned toward the orthant, where only one sign
    can lie.  Returns the unit rays (..., K, d), their feasibility (..., K)
    and the margins (..., K, m) of the unit rows.
    """
    dim = rows.shape[-1]
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    # a zero row holds everywhere: it becomes 0 and never bounds a cone
    unit_rows = np.divide(rows, norms, out=np.zeros_like(rows), where=norms > _TOL)
    axes = np.broadcast_to(
        signs[..., None, :] * np.eye(dim), rows.shape[:-2] + (dim, dim)
    )
    rays = edge_rays(np.concatenate([unit_rows, axes], axis=-2))
    s = signs[..., None, :]
    rays = np.where((rays * s).sum(axis=-1, keepdims=True) < 0.0, -rays, rays)
    margins = rays @ np.swapaxes(unit_rows, -1, -2)
    feasible = np.all(rays * s >= -_TOL, axis=-1) & np.all(margins >= -_TOL, axis=-1)
    return rays, feasible, margins


def _paper_sup(L3: np.ndarray, L4: np.ndarray, signs: np.ndarray) -> float:
    """0/1 supremum of the paper variant: is some direction possible at all?

    With a crisp zero threshold a constraint has possibility 1 exactly where
    l4 > 0 or l3 = l4 = 0, else 0.  Per orthant, the cone l4 >= 0 is cut
    down to the face where every row that is zero on the whole face also
    has l3 = 0 there (its spread l4 - l3 >= 0 vanishes); repeating until no
    ray is dropped leaves a nonempty face exactly when some direction has
    possibility 1.  A cone that only touches l4 = 0 therefore counts as 0.
    """
    rays, keep, margins = _orthant_edges(L4, signs)
    spread = rays @ np.swapaxes(L4 - L3, -1, -2)
    while True:
        positive = (keep[..., None] & (margins > _TOL)).any(axis=-2)
        drop = keep & ((spread > _TOL) & ~positive[..., None, :]).any(axis=-1)
        if not drop.any():
            break
        keep &= ~drop
    return float(keep.any())


def _standard_sup(L3: np.ndarray, L4: np.ndarray, signs: np.ndarray) -> float:
    """Largest t whose superlevel cone (1 - t) l4 + t l3 >= 0 is nonempty.

    For t in (0, 1] that cone is exactly {min possibility >= t} within an
    orthant, and it shrinks as t grows, so a multisection on t brackets the
    supremum: each round tests every live orthant at _GRID values of t in
    one batch and keeps the orthants feasible at the new lower end, until
    the bracket closes to float precision.  The first round tests only t = 0
    (orthants with no direction of positive support drop out) and t = 1.
    """
    lo, hi = 0.0, 1.0
    ts = np.array([0.0, 1.0])
    live = np.arange(len(signs))
    while len(ts):
        t = ts[None, :, None, None]
        rows = (1.0 - t) * L4[live, None] + t * L3[live, None]
        _, feasible, _ = _orthant_edges(rows, signs[live, None, :])
        ok = feasible.any(axis=-1)  # (orthants, ts)
        found = np.flatnonzero(ok.any(axis=0))
        if len(found):
            k = int(found[-1])
            lo = float(ts[k])
            live = live[ok[:, k]]
            if k + 1 < len(ts):
                hi = float(ts[k + 1])
        else:
            hi = float(ts[0])
        ts = lo + (hi - lo) * np.arange(1, _GRID + 1) / (_GRID + 1)
        ts = np.unique(ts[(ts > lo) & (ts < hi)])
    return lo


def pbp(system: FuzzySystem, variant: DeltaVariant = "paper") -> float:
    """Possibility that the pyramid of the system is nonempty.

    The exact supremum over unit directions of the min constraint
    possibility, found orthant by orthant (see the module docstring).
    """
    if variant not in ("paper", "standard"):
        raise ValueError(f"unknown delta variant {variant!r}")
    if not system.is_homogeneous:
        raise ValueError("direction sweeps require homogeneous systems (d = 0)")
    A1, A2, A3, A4 = _knot_matrices(system)
    # sign vectors of the 2**d closed orthants (quadrants in 2-D)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=system.dimension)))
    pos = signs[:, None, :] > 0.0
    # per orthant, the third knot of the scaled sum picks a3 for positive and
    # a2 for negative weights, the fourth knot a4 / a1
    L3 = np.where(pos, A3, A2)
    L4 = np.where(pos, A4, A1)
    sup = _paper_sup if variant == "paper" else _standard_sup
    return sup(L3, L4, signs)
