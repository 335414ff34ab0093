"""Trapezoidal fuzzy numbers, alpha-cut interval arithmetic, and strict-exceedance ranking.

A trapezoidal number (a1, a2, a3, a4) has membership 0 outside [a1, a4],
membership 1 on the core [a2, a3], and linear ramps in between.  The
degenerate case a1 = a2 = a3 = a4 represents a crisp real.  All values here
are immutable and every operation is pure, so concurrent use needs no locks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence, get_args

DeltaVariant = Literal["paper", "standard"]
DELTA_VARIANTS: tuple[str, ...] = get_args(DeltaVariant)
# the finiteness bands of ``fuzzy_blocks.finiteness_label`` and their rule, kept
# here, where a project parse can read them without loading the fuzzy block layer
DEFAULT_LABEL_THRESHOLDS = (0.95, 0.7, 0.3)


def check_label_thresholds(thresholds: Sequence[float]) -> None:
    """The finiteness bands (t0, t1, t2) must satisfy 1 >= t0 > t1 > t2 >= 0."""
    t0, t1, t2 = thresholds
    if not 1.0 >= t0 > t1 > t2 >= 0.0:
        raise ValueError("label_thresholds must strictly decrease within [0, 1]")


@dataclass(frozen=True)
class AlphaInterval:
    """Closed interval [lo, hi] of values with membership at least ``alpha``."""

    alpha: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if math.isnan(self.alpha) or not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.lo <= self.hi:
            raise ValueError(f"inverted interval: lo={self.lo} > hi={self.hi}")


@dataclass(frozen=True)
class TrapezoidalNumber:
    """Fuzzy quantity with support [a1, a4] and core [a2, a3]."""

    a1: float
    a2: float
    a3: float
    a4: float

    def __post_init__(self) -> None:
        vals = [float(v) for v in (self.a1, self.a2, self.a3, self.a4)]
        for name, v in zip(("a1", "a2", "a3", "a4"), vals):
            if math.isnan(v) or math.isinf(v):
                raise ValueError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if not (self.a1 <= self.a2 <= self.a3 <= self.a4):
            raise ValueError(f"knots must satisfy a1 <= a2 <= a3 <= a4, got {vals}")

    @classmethod
    def crisp(cls, value: float) -> "TrapezoidalNumber":
        return cls(value, value, value, value)

    def to_list(self) -> list[float]:
        """Serialized form used in all file formats: [a1, a2, a3, a4]."""
        return [self.a1, self.a2, self.a3, self.a4]

    @property
    def is_crisp(self) -> bool:
        return self.a1 == self.a4

    @property
    def support(self) -> tuple[float, float]:
        return (self.a1, self.a4)

    @property
    def core(self) -> tuple[float, float]:
        return (self.a2, self.a3)

    def membership(self, x: float) -> float:
        """Piecewise-linear membership degree of ``x``, which must be finite."""
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x}")
        if x < self.a1 or x > self.a4:
            return 0.0
        if self.a2 <= x <= self.a3:
            return 1.0
        if x < self.a2:
            return (x - self.a1) / (self.a2 - self.a1)
        return (self.a4 - x) / (self.a4 - self.a3)

    def alpha_cut(self, alpha: float) -> AlphaInterval:
        """Interval of values with membership >= alpha (support for alpha = 0)."""
        if math.isnan(alpha) or not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        # clamp away sub-ulp rounding so cuts always satisfy a1 <= lo <= a2
        # and a3 <= hi <= a4 even for degenerate cores
        lo = min(max(self.a1 + alpha * (self.a2 - self.a1), self.a1), self.a2)
        hi = max(min(self.a4 - alpha * (self.a4 - self.a3), self.a4), self.a3)
        return AlphaInterval(alpha, lo, hi)

    def negated(self) -> "TrapezoidalNumber":
        return TrapezoidalNumber(-self.a4, -self.a3, -self.a2, -self.a1)

    def scaled(self, k: float) -> "TrapezoidalNumber":
        if k >= 0:
            return TrapezoidalNumber(k * self.a1, k * self.a2, k * self.a3, k * self.a4)
        return TrapezoidalNumber(k * self.a4, k * self.a3, k * self.a2, k * self.a1)

    def widened(self, amount: float) -> "TrapezoidalNumber":
        """Support widened symmetrically by ``amount`` on each side, core kept."""
        if amount < 0:
            raise ValueError("widening amount must be nonnegative")
        return TrapezoidalNumber(self.a1 - amount, self.a2, self.a3, self.a4 + amount)


def linear_combine(
    coeffs: Sequence[float], terms: Sequence[TrapezoidalNumber]
) -> TrapezoidalNumber:
    """Exact trapezoid of sum_k coeffs[k] * terms[k].

    Positive coefficients scale knots in order, negative coefficients reverse
    them, and the results add componentwise.  The outcome agrees with alpha-cut
    interval arithmetic at every level.
    """
    if len(coeffs) == 0:
        raise ValueError("linear_combine requires at least one term")
    if len(coeffs) != len(terms):
        raise ValueError(f"{len(coeffs)} coefficients vs {len(terms)} terms")
    acc = [0.0, 0.0, 0.0, 0.0]
    for k, t in zip(coeffs, terms):
        part = t.scaled(float(k))
        acc[0] += part.a1
        acc[1] += part.a2
        acc[2] += part.a3
        acc[3] += part.a4
    return TrapezoidalNumber(*acc)


def exceedance_poss(
    b: TrapezoidalNumber, r: TrapezoidalNumber, variant: DeltaVariant = "paper"
) -> float:
    """Strict exceedance possibility that fuzzy ``b`` exceeds fuzzy ``r``.

    Three cases: 1 when b3 >= r4, 0 when b4 <= r3, otherwise a ratio delta.
    ``variant="paper"`` uses delta = (b4-r3) / ((b4-r3) + (r4-r3)) clamped to
    [0, 1]; ``variant="standard"`` uses the ramp-intersection height
    (b4-r3) / ((b4-r3) + (r4-b3)).
    """
    if variant not in DELTA_VARIANTS:
        raise ValueError(f"unknown delta variant {variant!r}; expected one of {DELTA_VARIANTS}")
    if b.a3 >= r.a4:
        return 1.0
    if b.a4 <= r.a3:
        return 0.0
    num = b.a4 - r.a3
    if variant == "paper":
        den = num + (r.a4 - r.a3)
    else:
        den = num + (r.a4 - b.a3)
    return min(1.0, max(0.0, num / den))


# slack for a core end outside the support: monotone formulas can wobble by an ulp
_NEST_TOL = 1e-12


def fit_trapezoid(support: tuple[float, float], core: tuple[float, float]) -> TrapezoidalNumber:
    """Trapezoid of the (lo, hi) cuts at alpha = 0 (support) and alpha = 1 (core).

    A core end at most 1e-12 outside the support is clamped onto it, and a
    core that rounding inverted by at most as much becomes its midpoint; one
    further out is a ValueError.  The cuts in between are taken as linear.
    """
    (a1, a4), (a2, a3) = support, core
    lo, hi = a1 - _NEST_TOL, a4 + _NEST_TOL
    if not (lo <= a2 <= hi and lo <= a3 <= hi and a2 <= a3 + _NEST_TOL):
        raise ValueError(f"core [{a2}, {a3}] does not nest in support [{a1}, {a4}]")
    a2, a3 = min(max(a2, a1), a4), min(max(a3, a1), a4)
    if a2 > a3:
        a2 = a3 = 0.5 * (a2 + a3)
    return TrapezoidalNumber(a1, a2, a3, a4)
