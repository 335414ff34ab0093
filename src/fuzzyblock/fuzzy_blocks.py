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
multisection.  Crisp systems take the same path: with zero spreads l3 = l4,
the test decides plain cone nonemptiness, and PBP reduces exactly to the
classical removability theorem.  The search yields the value only, not a
direction attaining it.

``pbps`` searches many systems of one shape in lockstep: every (system,
orthant) pair at once, each system with its own multisection bracket, the
cone tests of a round in fixed-size chunks so memory stays bounded.  A
value does not depend on the batch or the chunks around it; ``pbp`` is the
one-system form, and ``fuzzy pbr`` makes one call for all joint pyramids
and one for the block pyramids of the codes whose PJB-sup is positive.  A
block pyramid is its joint pyramid plus one row, so its PBP never exceeds
the PJB-sup, and the other codes' block pyramids are 0 without a search.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .fuzzy_numbers import (
    DEFAULT_LABEL_THRESHOLDS, DELTA_VARIANTS, DeltaVariant, TrapezoidalNumber,
    check_label_thresholds, exceedance_poss, fit_trapezoid, linear_combine,
)
from .kernel.mechanics import code_signs
from .kernel.pyramid import edge_rays

SystemKind = Literal["joint-pyramid", "block-pyramid"]

FINITENESS_LABELS = ("finite", "quasi finite", "not so very finite", "infinite")

# margin slack for unit rows against unit rays, and the norm below which a
# row counts as zero (``edge_rays`` drops cross products at the same 1e-12):
# rounding of a cross product is ~1e-16, and a looser slack would let t
# overshoot by slack / spread
_TOL = 1e-12
# t values tested per multisection round of the standard variant
_GRID = 16
# (row, ray, constraint) margin entries per chunk of cone tests: the
# temporaries of a chunk stay under about 1 MB whatever the batch size;
# larger chunks raised the peak RSS of a 3-joint ``fuzzy pbr`` at no gain
# in its speed
_CHUNK_ENTRIES = 1 << 14


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


def _trig_range_deg(
    fn: Callable[[float], float], peak: float, lo: float, hi: float
) -> tuple[float, float]:
    """Exact [min, max] of sin or cos over [lo, hi] degrees, ``peak`` where it is 1."""
    vals = (fn(math.radians(lo)), fn(math.radians(hi)))
    vmax = 1.0 if _contains_angle(lo, hi, peak) else max(vals)
    vmin = -1.0 if _contains_angle(lo, hi, peak + 180.0) else min(vals)
    return vmin, vmax


def _product_interval(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(prods), max(prods)


def _normal_box(fo: FuzzyOrientation, alpha: float) -> tuple[tuple[float, float], ...]:
    """Exact [lo, hi] of each upward-normal component over the alpha-cut box.

    sin and cos are evaluated on their monotone pieces and the dip and
    dip-direction factors vary independently over the (dip, dd) cut box.
    """
    dcut = fo.dip.alpha_cut(alpha)
    tcut = fo.dip_direction.alpha_cut(alpha)
    sin_dip = (math.sin(math.radians(dcut.lo)), math.sin(math.radians(dcut.hi)))
    cos_dip = (math.cos(math.radians(dcut.hi)), math.cos(math.radians(dcut.lo)))
    sin_dd = _trig_range_deg(math.sin, 90.0, tcut.lo, tcut.hi)
    cos_dd = _trig_range_deg(math.cos, 0.0, tcut.lo, tcut.hi)
    return (
        _product_interval(sin_dip, sin_dd),
        _product_interval(sin_dip, cos_dd),
        cos_dip,
    )


def fuzzy_normal(
    fo: FuzzyOrientation,
) -> tuple[TrapezoidalNumber, TrapezoidalNumber, TrapezoidalNumber]:
    """Componentwise fuzzy upward normal of a fuzzy joint attitude.

    Each component is ``fit_trapezoid`` of its exact ranges over the
    alpha = 0 and alpha = 1 cut boxes; the cuts in between are linear, so
    this is the linearized normal that the PBP search reads.
    """
    return tuple(map(fit_trapezoid, _normal_box(fo, 0.0), _normal_box(fo, 1.0)))


@dataclass(frozen=True)
class FuzzyHalfSpaceConstraint:
    """One fuzzy half-plane or half-space: coeffs . v >= d in possibility terms."""

    coeffs: tuple[TrapezoidalNumber, ...]
    d: TrapezoidalNumber

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        if not all(isinstance(v, TrapezoidalNumber) for v in coeffs + (self.d,)):
            raise TypeError("coefficients and threshold must be TrapezoidalNumber")
        if len(coeffs) not in (2, 3):
            raise ValueError("constraints live in 2 or 3 dimensions")
        object.__setattr__(self, "coeffs", coeffs)

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


def _chunks(count: int, m: int, dim: int) -> list[slice]:
    """Ranges of ``count`` cone tests of m rows with at most ``_CHUNK_ENTRIES`` margins each."""
    k = m + dim  # the rows and the orthant axes
    rays = k * (k - 1) // 2 if dim == 3 else k
    step = max(1, _CHUNK_ENTRIES // (rays * m))
    return [slice(i, i + step) for i in range(0, count, step)]


def _orthant_sums(
    knots: np.ndarray, signs: np.ndarray, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knots l3, l4 of the scaled sums and the orthant signs of each pair.

    knots has shape (S, 4, m, d) and signs (O, d); pair p is system p // O
    in orthant p % O.  A positive weight picks a3 and a4, a negative one a2
    and a1.
    """
    sys_i, orth_i = np.divmod(pairs, len(signs))
    knots, signs = knots[sys_i], signs[orth_i]
    pos = signs[:, None, :] > 0.0
    return (
        np.where(pos, knots[:, 2], knots[:, 1]),
        np.where(pos, knots[:, 3], knots[:, 0]),
        signs,
    )


def _paper_ok(L3: np.ndarray, L4: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Per orthant row, is some direction of it possible at all (paper variant)?

    With a crisp zero threshold a constraint has possibility 1 exactly where
    l4 > 0 or l3 = l4 = 0, else 0.  Per orthant, the cone l4 >= 0 is cut
    down to the face where every row that is zero on the whole face also
    has l3 = 0 there (its spread l4 - l3 >= 0 vanishes); repeating until no
    ray is dropped anywhere leaves a nonempty face exactly when some
    direction has possibility 1.  A cone that only touches l4 = 0 therefore
    counts as 0.  Orthants are independent, so a batch of rows (R, m, d)
    gives each row the bits it gets alone.
    """
    rays, keep, margins = _orthant_edges(L4, signs)
    spread = rays @ np.swapaxes(L4 - L3, -1, -2)
    while True:
        positive = (keep[..., None] & (margins > _TOL)).any(axis=-2)
        drop = keep & ((spread > _TOL) & ~positive[..., None, :]).any(axis=-1)
        if not drop.any():
            break
        keep &= ~drop
    return keep.any(axis=-1)


def _paper_sups(knots: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """0/1 supremum of the paper variant for each system of (S, 4, m, d) knots."""
    pairs = np.arange(len(knots) * len(signs))
    ok = np.zeros(len(pairs), dtype=bool)
    for sl in _chunks(len(pairs), *knots.shape[-2:]):
        ok[sl] = _paper_ok(*_orthant_sums(knots, signs, pairs[sl]))
    return ok.reshape(len(knots), len(signs)).any(axis=1).astype(float)


def _standard_sups(knots: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Largest t whose superlevel cone (1 - t) l4 + t l3 >= 0 is nonempty, per system.

    For t in (0, 1] that cone is exactly {min possibility >= t} within an
    orthant, and it shrinks as t grows, so a multisection on t brackets the
    supremum.  All systems run in lockstep, each with its own bracket
    [lo, hi], live orthants and grid of _GRID values of t, of which those
    inside (lo, hi) that repeat no earlier value are valid.  A round tests
    every live orthant at every valid t in fixed-size chunks and makes one
    update: with k the last feasible valid t, if any, lo = t_k and the live
    orthants narrow to those feasible there; hi falls to the first valid t
    after k.  A system with no valid t left has closed its bracket to float
    precision.  The first round tests only t = 1 on every orthant: where
    it holds, lo = hi = 1 and the system is done.  The second tests t = 0
    on the systems still open, and orthants with no direction of positive
    support drop out; where t = 0 fails too, hi = 0.  Together they make
    the update that one round of t = 0 and t = 1 would make, without the
    t = 0 tests of the systems of value 1.
    """
    n_sys, n_orth = len(knots), len(signs)
    lo, hi = np.zeros(n_sys), np.ones(n_sys)
    live = np.ones((n_sys, n_orth), dtype=bool)
    ts = np.ones((n_sys, 1))
    valid = np.ones(ts.shape, dtype=bool)
    sys_i = np.arange(n_sys)
    first = True
    while valid.any():
        n_t = ts.shape[1]
        todo = np.flatnonzero(live[:, :, None] & valid[:, None, :])
        ok = np.zeros(n_sys * n_orth * n_t, dtype=bool)
        for sl in _chunks(len(todo), *knots.shape[-2:]):
            pair, j = np.divmod(todo[sl], n_t)
            L3, L4, orthants = _orthant_sums(knots, signs, pair)
            t = ts[pair // n_orth, j][:, None, None]
            _, feasible, _ = _orthant_edges((1.0 - t) * L4 + t * L3, orthants)
            ok[todo[sl]] = feasible.any(axis=-1)
        ok = ok.reshape(n_sys, n_orth, n_t)
        hit = ok.any(axis=1)  # (systems, ts), false wherever t is not valid
        k = np.where(hit.any(axis=1), n_t - 1 - np.argmax(hit[:, ::-1], axis=1), -1)
        lo = np.where(k >= 0, ts[sys_i, k], lo)
        live &= ok[sys_i, :, k] | (k < 0)[:, None]
        after = valid & (np.arange(n_t) > k[:, None])
        hi = np.minimum(hi, np.where(after, ts, np.inf).min(axis=1))
        if first:
            first = False
            ts, valid = np.zeros((n_sys, 1)), (lo < hi)[:, None]
            continue
        ts = lo[:, None] + (hi - lo)[:, None] * np.arange(1, _GRID + 1) / (_GRID + 1)
        # the grid is sorted, so a repeat can only follow its equal
        valid = (ts > lo[:, None]) & (ts < hi[:, None])
        valid[:, 1:] &= ts[:, 1:] != ts[:, :-1]
    return lo


def pbps(knots: np.ndarray, variant: DeltaVariant = "paper") -> np.ndarray:
    """PBP of many homogeneous systems in one lockstep search, shape (S,).

    knots has shape (S, 4, m, d): the a1..a4 coefficient knot matrices of S
    systems of m rows each in d = 2 or 3 dimensions.  Every (system,
    orthant) pair is searched at once and the cone tests run in chunks of
    at most ``_CHUNK_ENTRIES`` margins, so memory stays bounded however
    many systems there are.  A system's value does not depend on the batch
    around it or on the chunk boundaries: it has the bits of ``pbp``.
    """
    if variant not in DELTA_VARIANTS:
        raise ValueError(f"unknown delta variant {variant!r}")
    knots = np.asarray(knots, dtype=float)
    if knots.ndim != 4 or knots.shape[1] != 4:
        raise ValueError(f"knots must have shape (S, 4, m, d), got {knots.shape}")
    bad = np.flatnonzero(~np.isfinite(knots).all(axis=(1, 2, 3)))
    if len(bad):
        raise ValueError(f"system(s) {bad.tolist()} have non-finite knots")
    # sign vectors of the 2**d closed orthants (quadrants in 2-D)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=knots.shape[-1])))
    sups = _paper_sups if variant == "paper" else _standard_sups
    return sups(knots, signs)


def pbp(system: FuzzySystem, variant: DeltaVariant = "paper") -> float:
    """Possibility that the pyramid of the system is nonempty.

    The exact supremum over unit directions of the min constraint
    possibility, found orthant by orthant (see the module docstring); the
    one-system form of ``pbps``.
    """
    if not system.is_homogeneous:
        raise ValueError("direction sweeps require homogeneous systems (d = 0)")
    return float(pbps(_knot_matrices(system)[None], variant)[0])


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
    check_label_thresholds(thresholds)
    t_finite, t_quasi, t_not_so = thresholds
    finiteness = 1.0 - pbp_value
    if finiteness >= t_finite:
        return FINITENESS_LABELS[0]
    if finiteness >= t_quasi:
        return FINITENESS_LABELS[1]
    if finiteness >= t_not_so:
        return FINITENESS_LABELS[2]
    return FINITENESS_LABELS[3]


def joint_constraint(fo: FuzzyOrientation, side: str) -> FuzzyHalfSpaceConstraint:
    """Homogeneous 3-D constraint for one fuzzy joint and a block side (U or L)."""
    coeffs = fuzzy_normal(fo)
    if side == "L":
        coeffs = tuple(c.negated() for c in coeffs)
    elif side != "U":
        raise ValueError(f"side must be 'U' or 'L', got {side!r}")
    return FuzzyHalfSpaceConstraint(coeffs, TrapezoidalNumber.crisp(0.0))


def _unit(facet_normal: Sequence[float]) -> np.ndarray:
    e = np.asarray(facet_normal, dtype=float)
    return e / np.linalg.norm(e)


def block_pyramid(jp_system: FuzzySystem, facet_normal: Sequence[float]) -> FuzzySystem:
    """BP fuzzy system: the joint pyramid plus the crisp free-face half-space."""
    facet = FuzzyHalfSpaceConstraint.crisp(_unit(facet_normal), 0.0)
    return FuzzySystem(jp_system.constraints + (facet,), "block-pyramid")


def systems_for_code(
    fuzzy_joints: Sequence[FuzzyOrientation],
    code: str,
    facet_normal: Sequence[float],
) -> tuple[FuzzySystem, FuzzySystem]:
    """JP and BP fuzzy systems for a block code against one crisp free face."""
    code_signs([code], len(fuzzy_joints))  # the one check of a code
    jp_constraints = [joint_constraint(fo, side) for fo, side in zip(fuzzy_joints, code)]
    jp_sys = FuzzySystem(tuple(jp_constraints), "joint-pyramid")
    return jp_sys, block_pyramid(jp_sys, facet_normal)


def code_knots(fuzzy_joints: Sequence[FuzzyOrientation], codes: Sequence[str]) -> np.ndarray:
    """Knots (C, 4, n, 3) of the joint pyramids of the codes, for ``pbps``.

    Row j of a code's pyramid is joint j's ``joint_constraint`` on the
    code's side, as in ``systems_for_code``.
    """
    lower = (code_signs(codes, len(fuzzy_joints)) < 0).astype(int)
    sides = np.array(
        [[[t.to_list() for t in joint_constraint(fo, side).coeffs] for side in "UL"]
         for fo in fuzzy_joints]
    )  # (joint, side, component, knot)
    return np.moveaxis(sides[np.arange(len(fuzzy_joints)), lower], -1, 1)


def block_knots(jp_knots: np.ndarray, facet_normals: Sequence[Sequence[float]]) -> np.ndarray:
    """Knots (F * C, 4, n + 1, d) of every joint pyramid against every free face.

    Each of the C joint pyramids of ``jp_knots`` gains the crisp half-space
    of each facet's unit normal as its last row, as in ``block_pyramid``;
    the systems run facet by facet, codes inner.
    """
    n_codes, _, n, dim = jp_knots.shape
    faces = np.array([_unit(e) for e in facet_normals]).reshape(-1, dim)
    out = np.empty((len(faces), n_codes, 4, n + 1, dim))
    out[:, :, :, :n] = jp_knots
    out[:, :, :, n] = faces[:, None, None, :]
    return out.reshape(-1, 4, n + 1, dim)
