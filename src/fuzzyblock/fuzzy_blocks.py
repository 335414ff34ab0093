"""Fuzzy half-space systems and the possibility of block removability.

Joint attitudes with fuzzy dip and dip direction induce fuzzy half-space
constraints.  Each constraint compared against its threshold by strict
exceedance gives a possibility degree; min-composition over a system gives
the possibility of the joint block (PJB), a supremum over unit directions
gives the possibility that a pyramid is nonempty (PBP), and
min(1 - PBP(block pyramid), PJB-sup) is the possibility of removability
(PBR).

PBP is exact, not sampled.  Within one closed orthant of direction space
(a quadrant in 2-D) the scaled-knot sums l3 and l4 of every constraint are
linear in the direction, so the set where the min possibility is at least t
is a homogeneous cone: rows (1 - t) l4 + t l3 >= 0 plus the orthant rows.
That cone is pointed, so it is nonempty exactly when one of its edge rays
is feasible; the candidates come from ``kernel.pyramid.edge_rays``, the
rule the crisp kernel uses too (the orthant argument is stated there).
The ``paper`` variant is a 0/1 indicator decided by one strict test per
orthant; the ``standard`` variant brackets the largest feasible t by
batched multisection.  Crisp systems take the same path: with zero spreads
l3 = l4, the test decides plain cone nonemptiness, and PBP reduces exactly
to the classical removability theorem.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Union

import numpy as np

from .fuzzy_numbers import (
    DeltaVariant,
    SampledFuzzyNumber,
    TrapezoidalNumber,
    exceedance_poss,
    fit_trapezoid,
    linear_combine,
)
from .kernel.pyramid import edge_rays

SystemKind = Literal["joint-pyramid", "block-pyramid"]

FINITENESS_LABELS = ("finite", "quasi finite", "not so very finite", "infinite")
DEFAULT_LABEL_THRESHOLDS = (0.95, 0.7, 0.3)

# margin slack for unit rows against unit rays, and the norm below which a
# row counts as zero (``edge_rays`` drops cross products at the same 1e-12):
# rounding of a cross product is ~1e-16, and a looser slack would let t
# overshoot by slack / spread
_TOL = 1e-12
# t values tested per multisection round of the standard variant
_GRID = 16


@dataclass(frozen=True)
class FuzzyOrientation:
    """Joint attitude with trapezoidal dip and dip direction, in degrees.

    The dip support must stay in [0, 90]; the dip-direction support must be
    narrower than 90 degrees so each trig factor is monotone per quadrant.
    """

    dip: TrapezoidalNumber
    dip_direction: TrapezoidalNumber

    def __post_init__(self) -> None:
        if self.dip.a1 < 0.0 or self.dip.a4 > 90.0:
            raise ValueError("dip support must stay within [0, 90] degrees")
        if self.dip_direction.a4 - self.dip_direction.a1 >= 90.0:
            raise ValueError("dip direction support must be narrower than 90 degrees")


def _contains_angle(lo: float, hi: float, target: float) -> bool:
    return math.ceil((lo - target) / 360.0) <= math.floor((hi - target) / 360.0)


def _interval_sin_deg(lo: float, hi: float) -> tuple[float, float]:
    vals = (math.sin(math.radians(lo)), math.sin(math.radians(hi)))
    smin, smax = min(vals), max(vals)
    if _contains_angle(lo, hi, 90.0):
        smax = 1.0
    if _contains_angle(lo, hi, 270.0):
        smin = -1.0
    return smin, smax


def _interval_cos_deg(lo: float, hi: float) -> tuple[float, float]:
    vals = (math.cos(math.radians(lo)), math.cos(math.radians(hi)))
    cmin, cmax = min(vals), max(vals)
    if _contains_angle(lo, hi, 0.0):
        cmax = 1.0
    if _contains_angle(lo, hi, 180.0):
        cmin = -1.0
    return cmin, cmax


def _product_interval(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(prods), max(prods)


def fuzzy_normal(
    fo: FuzzyOrientation, levels: int = 11
) -> tuple[SampledFuzzyNumber, SampledFuzzyNumber, SampledFuzzyNumber]:
    """Componentwise fuzzy upward normal of a fuzzy joint attitude.

    Per alpha level the bounds of each normal component over the (dip, dd)
    cut box are exact: sin/cos are evaluated on their monotone pieces and the
    factors vary independently.
    """
    if levels < 2:
        raise ValueError("need at least 2 alpha levels")
    px, py, pz = [], [], []
    for i in range(levels):
        alpha = i / (levels - 1)
        dcut = fo.dip.alpha_cut(alpha)
        tcut = fo.dip_direction.alpha_cut(alpha)
        sin_dip = (math.sin(math.radians(dcut.lo)), math.sin(math.radians(dcut.hi)))
        cos_dip = (math.cos(math.radians(dcut.hi)), math.cos(math.radians(dcut.lo)))
        sin_dd = _interval_sin_deg(tcut.lo, tcut.hi)
        cos_dd = _interval_cos_deg(tcut.lo, tcut.hi)
        px.append((alpha, *_product_interval(sin_dip, sin_dd)))
        py.append((alpha, *_product_interval(sin_dip, cos_dd)))
        pz.append((alpha, *cos_dip))
    return (
        SampledFuzzyNumber.from_pairs(px),
        SampledFuzzyNumber.from_pairs(py),
        SampledFuzzyNumber.from_pairs(pz),
    )


CoefficientLike = Union[TrapezoidalNumber, SampledFuzzyNumber]


def _as_trapezoid(value: CoefficientLike) -> TrapezoidalNumber:
    if isinstance(value, SampledFuzzyNumber):
        return fit_trapezoid(value)
    return value


@dataclass(frozen=True)
class FuzzyHalfSpaceConstraint:
    """One fuzzy half-plane or half-space: coeffs . v >= d in possibility terms."""

    coeffs: tuple[TrapezoidalNumber, ...]
    d: TrapezoidalNumber

    def __post_init__(self) -> None:
        coeffs = tuple(_as_trapezoid(c) for c in self.coeffs)
        if len(coeffs) not in (2, 3):
            raise ValueError("constraints live in 2 or 3 dimensions")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "d", _as_trapezoid(self.d))

    @classmethod
    def from_components(
        cls, components: Sequence[CoefficientLike], d: CoefficientLike
    ) -> "FuzzyHalfSpaceConstraint":
        return cls(tuple(_as_trapezoid(c) for c in components), _as_trapezoid(d))

    @classmethod
    def crisp(cls, vector: Sequence[float], d: float) -> "FuzzyHalfSpaceConstraint":
        return cls(
            tuple(TrapezoidalNumber.crisp(float(v)) for v in vector),
            TrapezoidalNumber.crisp(float(d)),
        )

    @property
    def dimension(self) -> int:
        return len(self.coeffs)

    @property
    def is_homogeneous(self) -> bool:
        return self.d.is_crisp and self.d.a1 == 0.0


@dataclass(frozen=True)
class FuzzySystem:
    """A bundle of fuzzy half-space constraints forming a pyramid."""

    constraints: tuple[FuzzyHalfSpaceConstraint, ...]
    kind: SystemKind = "joint-pyramid"

    def __post_init__(self) -> None:
        constraints = tuple(self.constraints)
        if not constraints:
            raise ValueError("a fuzzy system needs at least one constraint")
        dims = {c.dimension for c in constraints}
        if len(dims) != 1:
            raise ValueError("all constraints must share one dimension")
        if self.kind not in ("joint-pyramid", "block-pyramid"):
            raise ValueError(f"unknown system kind {self.kind!r}")
        if self.kind == "block-pyramid" and not all(
            c.is_homogeneous for c in constraints
        ):
            raise ValueError("block-pyramid systems must be homogeneous (d = 0)")
        object.__setattr__(self, "constraints", constraints)

    @property
    def dimension(self) -> int:
        return self.constraints[0].dimension

    @property
    def is_homogeneous(self) -> bool:
        return all(c.is_homogeneous for c in self.constraints)


def constraint_poss(
    c: FuzzyHalfSpaceConstraint,
    v: Sequence[float],
    variant: DeltaVariant = "paper",
) -> float:
    """Possibility that the constraint holds at the point or direction v."""
    v = [float(x) for x in v]
    if len(v) != c.dimension:
        raise ValueError(f"point has dimension {len(v)}, constraint {c.dimension}")
    value = linear_combine(v, list(c.coeffs))
    return exceedance_poss(value, c.d, variant)


def pjb(
    system: FuzzySystem, at: Sequence[float], variant: DeltaVariant = "paper"
) -> float:
    """Possibility of the joint block at one evaluation point: min over constraints."""
    if system.kind != "joint-pyramid":
        raise ValueError("pjb expects a joint-pyramid system")
    return min(constraint_poss(c, at, variant) for c in system.constraints)


def _knot_matrices(system: FuzzySystem) -> tuple[np.ndarray, ...]:
    dim = system.dimension
    n = len(system.constraints)
    mats = [np.zeros((n, dim)) for _ in range(4)]
    for i, c in enumerate(system.constraints):
        for k, t in enumerate(c.coeffs):
            mats[0][i, k] = t.a1
            mats[1][i, k] = t.a2
            mats[2][i, k] = t.a3
            mats[3][i, k] = t.a4
    return tuple(mats)


def _min_poss_over_dirs(
    dirs: np.ndarray, knots: tuple[np.ndarray, ...], variant: DeltaVariant
) -> np.ndarray:
    """min-over-constraints possibility at each direction, homogeneous d = 0."""
    A1, A2, A3, A4 = knots
    pos = dirs >= 0.0
    # scaled-knot sums: third knot picks a3 for positive and a2 for negative
    # weights, fourth knot picks a4 / a1
    l3 = np.where(pos[:, None, :], dirs[:, None, :] * A3, dirs[:, None, :] * A2).sum(axis=2)
    l4 = np.where(pos[:, None, :], dirs[:, None, :] * A4, dirs[:, None, :] * A1).sum(axis=2)
    if variant == "paper":
        poss = np.where(l3 >= 0.0, 1.0, np.where(l4 <= 0.0, 0.0, 1.0))
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.where(l4 > l3, l4 / (l4 - l3), 1.0)
        poss = np.where(l3 >= 0.0, 1.0, np.where(l4 <= 0.0, 0.0, np.clip(delta, 0.0, 1.0)))
    return poss.min(axis=1)


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


def _face_points(rays: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Kept rays plus, per orthant, their unit sum (relative interior of their cone)."""
    total = np.where(keep[..., None], rays, 0.0).sum(axis=-2)[keep.any(axis=-1)]
    return np.vstack([total / np.linalg.norm(total, axis=-1, keepdims=True), rays[keep]])


def _paper_sup(
    L3: np.ndarray, L4: np.ndarray, signs: np.ndarray
) -> tuple[float, np.ndarray]:
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
    return float(keep.any()), _face_points(rays, keep)


def _standard_sup(
    L3: np.ndarray, L4: np.ndarray, signs: np.ndarray
) -> tuple[float, np.ndarray]:
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
    points = np.zeros((0, signs.shape[1]))
    while len(ts):
        t = ts[None, :, None, None]
        rows = (1.0 - t) * L4[live, None] + t * L3[live, None]
        rays, feasible, _ = _orthant_edges(rows, signs[live, None, :])
        ok = feasible.any(axis=-1)  # (orthants, ts)
        found = np.flatnonzero(ok.any(axis=0))
        if len(found):
            k = int(found[-1])
            lo, points = float(ts[k]), _face_points(rays[:, k], feasible[:, k])
            live = live[ok[:, k]]
            if k + 1 < len(ts):
                hi = float(ts[k + 1])
        else:
            hi = float(ts[0])
        ts = lo + (hi - lo) * np.arange(1, _GRID + 1) / (_GRID + 1)
        ts = np.unique(ts[(ts > lo) & (ts < hi)])
    return lo, points


def _orthant_sup(
    knots: tuple[np.ndarray, ...], variant: DeltaVariant
) -> tuple[float, Optional[np.ndarray]]:
    """Exact supremum of the min possibility from the knot matrices.

    The witness is the best, by the min possibility itself, of the points
    of the final cones: their edges and one relative-interior point each.
    """
    A1, A2, A3, A4 = knots
    # sign vectors of the 2**d closed orthants (quadrants in 2-D)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=A1.shape[1])))
    pos = signs[:, None, :] > 0.0
    # per orthant, the third knot of the scaled sum picks a3 for positive and
    # a2 for negative weights, the fourth knot a4 / a1
    L3 = np.where(pos, A3, A2)
    L4 = np.where(pos, A4, A1)
    sup = _paper_sup if variant == "paper" else _standard_sup
    value, points = sup(L3, L4, signs)
    if value == 0.0:
        return 0.0, None
    return value, points[int(np.argmax(_min_poss_over_dirs(points, knots, variant)))]


def _sup_min_poss(
    system: FuzzySystem, variant: DeltaVariant
) -> tuple[float, Optional[np.ndarray]]:
    """Supremum over unit directions of the min constraint possibility.

    Returns the value and a unit direction attaining it (None for 0, which
    every direction attains).
    """
    if variant not in ("paper", "standard"):
        raise ValueError(f"unknown delta variant {variant!r}")
    if not system.is_homogeneous:
        raise ValueError("direction sweeps require homogeneous systems (d = 0)")
    return _orthant_sup(_knot_matrices(system), variant)


def pbp(system: FuzzySystem, variant: DeltaVariant = "paper") -> float:
    """Possibility that the pyramid of the system is nonempty."""
    return _sup_min_poss(system, variant)[0]


def pbr(
    jp_system: FuzzySystem,
    bp_system: FuzzySystem,
    variant: DeltaVariant = "paper",
) -> float:
    """Possibility of block removability: min(1 - PBP, direction-sup of PJB)."""
    if jp_system.kind != "joint-pyramid":
        raise ValueError("first argument must be a joint-pyramid system")
    if bp_system.kind != "block-pyramid":
        raise ValueError("second argument must be a block-pyramid system")
    return min(1.0 - pbp(bp_system, variant), pbp(jp_system, variant))


def finiteness_label(
    pbp_value: float,
    thresholds: tuple[float, float, float] = DEFAULT_LABEL_THRESHOLDS,
) -> str:
    """Linguistic finiteness from the block-pyramid possibility.

    The bands interpolate between the crisp endpoints: pbp = 0 is finite and
    pbp = 1 is infinite.
    """
    if not 0.0 <= pbp_value <= 1.0:
        raise ValueError(f"pbp value must lie in [0, 1], got {pbp_value}")
    t_finite, t_quasi, t_not_so = thresholds
    if not (1.0 >= t_finite > t_quasi > t_not_so >= 0.0):
        raise ValueError(f"thresholds must decrease within [0, 1], got {thresholds}")
    finiteness = 1.0 - pbp_value
    if finiteness >= t_finite:
        return FINITENESS_LABELS[0]
    if finiteness >= t_quasi:
        return FINITENESS_LABELS[1]
    if finiteness >= t_not_so:
        return FINITENESS_LABELS[2]
    return FINITENESS_LABELS[3]


def joint_constraint(
    fo: FuzzyOrientation, side: str, levels: int = 11
) -> FuzzyHalfSpaceConstraint:
    """Homogeneous 3-D constraint for one fuzzy joint and a block side (U or L)."""
    comps = fuzzy_normal(fo, levels)
    coeffs = tuple(fit_trapezoid(c) for c in comps)
    if side == "L":
        coeffs = tuple(c.negated() for c in coeffs)
    elif side != "U":
        raise ValueError(f"side must be 'U' or 'L', got {side!r}")
    return FuzzyHalfSpaceConstraint(coeffs, TrapezoidalNumber.crisp(0.0))


def block_pyramid(jp_system: FuzzySystem, facet_normal: Sequence[float]) -> FuzzySystem:
    """BP fuzzy system: the joint pyramid plus the crisp free-face half-space."""
    e = np.asarray(facet_normal, dtype=float)
    e = e / np.linalg.norm(e)
    facet = FuzzyHalfSpaceConstraint.crisp(e, 0.0)
    return FuzzySystem(jp_system.constraints + (facet,), "block-pyramid")


def systems_for_code(
    fuzzy_joints: Sequence[FuzzyOrientation],
    code: str,
    facet_normal: Sequence[float],
    levels: int = 11,
) -> tuple[FuzzySystem, FuzzySystem]:
    """JP and BP fuzzy systems for a block code against one crisp free face."""
    if len(code) != len(fuzzy_joints):
        raise ValueError("code length must match the number of fuzzy joints")
    jp_constraints = [
        joint_constraint(fo, side, levels) for fo, side in zip(fuzzy_joints, code)
    ]
    jp_sys = FuzzySystem(tuple(jp_constraints), "joint-pyramid")
    return jp_sys, block_pyramid(jp_sys, facet_normal)
