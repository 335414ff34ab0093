"""Fuzzy half-space systems and the possibility of block removability.

Joint attitudes with fuzzy dip and dip direction induce fuzzy half-space
constraints.  Each constraint compared against its threshold by strict
exceedance gives a possibility degree; min-composition over a system gives
the possibility of the joint block (PJB), a supremum over unit directions
gives the possibility that a pyramid is nonempty (PBP), and
min(1 - PBP(block pyramid), PJB-sup) is the possibility of removability
(PBR).  In the crisp limit these reduce exactly to the classical
removability theorem, which is computed by the exact candidate-ray cone
test rather than by sampling so the limit is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence, Union

import numpy as np

from .fuzzy_numbers import (
    DeltaVariant,
    SampledFuzzyNumber,
    TrapezoidalNumber,
    exceedance_poss,
    fit_trapezoid,
    linear_combine,
)
from .kernel.pyramid import cone_nonempty

SystemKind = Literal["joint-pyramid", "block-pyramid"]

FINITENESS_LABELS = ("finite", "quasi finite", "not so very finite", "infinite")
DEFAULT_LABEL_THRESHOLDS = (0.95, 0.7, 0.3)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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

    @property
    def is_crisp(self) -> bool:
        return all(c.is_crisp for c in self.coeffs) and self.d.is_crisp


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

    @property
    def is_crisp(self) -> bool:
        return all(c.is_crisp for c in self.constraints)


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


def _support_margin(dirs: np.ndarray, knots: tuple[np.ndarray, ...]) -> np.ndarray:
    """Continuous tie-break objective: worst optimistic margin over constraints."""
    A1, _, _, A4 = knots
    pos = dirs >= 0.0
    l4 = np.where(pos[:, None, :], dirs[:, None, :] * A4, dirs[:, None, :] * A1).sum(axis=2)
    return l4.min(axis=1)


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / n
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _circle_grid(n: int) -> np.ndarray:
    ang = 2.0 * math.pi * np.arange(n, dtype=float) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _candidate_dirs(system: FuzzySystem) -> np.ndarray:
    """Combinatorial seed directions from core representatives of the system."""
    cores = []
    for c in system.constraints:
        v = np.array([(t.a2 + t.a3) / 2.0 for t in c.coeffs])
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            cores.append(v / norm)
    out = []
    for v in cores:
        out.extend([v, -v])
    if system.dimension == 3:
        for i in range(len(cores)):
            for j in range(i + 1, len(cores)):
                t = np.cross(cores[i], cores[j])
                norm = np.linalg.norm(t)
                if norm > 1e-12:
                    out.extend([t / norm, -t / norm])
    else:
        for v in cores:
            out.extend([np.array([-v[1], v[0]]), np.array([v[1], -v[0]])])
    if cores:
        res = cone_nonempty(np.array(cores))
        if res.nonempty:
            out.append(res.witness)
    if not out:
        return np.zeros((0, system.dimension))
    return np.array(out)


def _orthobasis(v: np.ndarray) -> list[np.ndarray]:
    if len(v) == 2:
        return [np.array([-v[1], v[0]])]
    a = np.array([1.0, 0.0, 0.0]) if abs(v[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = np.cross(v, a)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(v, t1)
    return [t1, t2]


def _golden_max(f, lo: float, hi: float, iters: int = 24):
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    return x, f(x)


def _refine_direction(
    eval_pair, v0: np.ndarray, radius: float, rounds: int = 10
) -> tuple[np.ndarray, tuple[float, float]]:
    """Golden-section sweeps in the tangent plane around the current best.

    eval_pair maps a unit direction to (possibility, margin); comparisons are
    lexicographic so flat possibility plateaus still climb toward interior
    witnesses.
    """
    v = v0 / np.linalg.norm(v0)
    best = eval_pair(v)
    for _ in range(rounds):
        for t in _orthobasis(v):
            def line(x: float):
                cand = v + x * t
                return cand / np.linalg.norm(cand)

            x, _ = _golden_max(lambda x: eval_pair(line(x)), -radius, radius)
            cand = line(x)
            val = eval_pair(cand)
            if val > best:
                best, v = val, cand
        radius *= 0.5
    return v, best


def _sup_min_poss(
    system: FuzzySystem, resolution: int, variant: DeltaVariant
) -> float:
    """Supremum over unit directions of the min constraint possibility.

    Deterministic: a Fibonacci lattice (uniform circle grid in 2-D) plus
    combinatorial candidates seed a golden-section refinement.  The result is
    a lower bound on the true supremum that converges with resolution.
    """
    if resolution < 1000:
        raise ValueError("resolution must be at least 1000")
    if not system.is_homogeneous:
        raise ValueError("direction sweeps require homogeneous systems (d = 0)")
    if system.is_crisp:
        # exact crisp limit: possibility is the indicator of cone nonemptiness
        normals = []
        for c in system.constraints:
            v = np.array([t.a2 for t in c.coeffs])
            norm = np.linalg.norm(v)
            if norm > 1e-12:
                normals.append(v / norm)
        if not normals:
            return 1.0
        return 1.0 if cone_nonempty(np.array(normals)).nonempty else 0.0
    knots = _knot_matrices(system)
    lattice = (
        _fibonacci_sphere(resolution)
        if system.dimension == 3
        else _circle_grid(resolution)
    )
    cands = _candidate_dirs(system)
    dirs = np.vstack([lattice, cands]) if len(cands) else lattice
    poss = _min_poss_over_dirs(dirs, knots, variant)
    margins = _support_margin(dirs, knots)
    order = np.lexsort((margins, poss))
    best_idx = int(order[-1])

    def eval_pair(v: np.ndarray) -> tuple[float, float]:
        arr = v.reshape(1, -1)
        return (
            float(_min_poss_over_dirs(arr, knots, variant)[0]),
            float(_support_margin(arr, knots)[0]),
        )

    spacing = (
        2.0 * math.sqrt(math.pi / resolution)
        if system.dimension == 3
        else 2.0 * math.pi / resolution
    )
    _, best = _refine_direction(eval_pair, dirs[best_idx], spacing)
    return min(1.0, max(float(best[0]), float(poss[best_idx])))


def pbp(
    system: FuzzySystem, resolution: int = 10000, variant: DeltaVariant = "paper"
) -> float:
    """Possibility that the pyramid of the system is nonempty."""
    return _sup_min_poss(system, resolution, variant)


def pbr(
    jp_system: FuzzySystem,
    bp_system: FuzzySystem,
    resolution: int = 10000,
    variant: DeltaVariant = "paper",
) -> float:
    """Possibility of block removability: min(1 - PBP, direction-sup of PJB)."""
    if jp_system.kind != "joint-pyramid":
        raise ValueError("first argument must be a joint-pyramid system")
    if bp_system.kind != "block-pyramid":
        raise ValueError("second argument must be a block-pyramid system")
    pbp_bp = pbp(bp_system, resolution, variant)
    pjb_sup = _sup_min_poss(jp_system, resolution, variant)
    return min(1.0 - pbp_bp, pjb_sup)


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
    e = np.asarray(facet_normal, dtype=float)
    e = e / np.linalg.norm(e)
    facet = FuzzyHalfSpaceConstraint.crisp(e, 0.0)
    jp_sys = FuzzySystem(tuple(jp_constraints), "joint-pyramid")
    bp_sys = FuzzySystem(tuple(jp_constraints) + (facet,), "block-pyramid")
    return jp_sys, bp_sys
