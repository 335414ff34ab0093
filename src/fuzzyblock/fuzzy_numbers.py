"""Trapezoidal fuzzy numbers, alpha-cut interval arithmetic, and possibility measures.

A trapezoidal number (a1, a2, a3, a4) has membership 0 outside [a1, a4],
membership 1 on the core [a2, a3], and linear ramps in between.  The
degenerate case a1 = a2 = a3 = a4 represents a crisp real.  All values here
are immutable and every operation is pure, so concurrent use needs no locks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

DeltaVariant = Literal["paper", "standard"]

_VARIANTS = ("paper", "standard")


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

    @classmethod
    def from_sequence(cls, seq: Sequence[float]) -> "TrapezoidalNumber":
        if len(seq) != 4:
            raise ValueError(f"expected 4 knots, got {len(seq)}")
        return cls(*seq)

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
        """Piecewise-linear membership degree of ``x``."""
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


def poss_measure_crisp(dist: TrapezoidalNumber, set_lo: float, set_hi: float) -> float:
    """Possibility that a value restricted by ``dist`` falls in [set_lo, set_hi].

    Equals the supremum of the membership of ``dist`` over the interval; the
    membership is unimodal, so the supremum sits at the interval end closest
    to the core.
    """
    if set_lo > set_hi:
        raise ValueError(f"inverted interval [{set_lo}, {set_hi}]")
    if set_hi < dist.a2:
        return dist.membership(set_hi)
    if set_lo > dist.a3:
        return dist.membership(set_lo)
    return 1.0


def _ramps(t: TrapezoidalNumber) -> list[tuple[float, float, float, float]]:
    """Non-degenerate linear pieces as (x0, y0, x1, y1)."""
    out = []
    if t.a2 > t.a1:
        out.append((t.a1, 0.0, t.a2, 1.0))
    if t.a4 > t.a3:
        out.append((t.a3, 1.0, t.a4, 0.0))
    return out


def poss_measure_fuzzy(dist: TrapezoidalNumber, a: TrapezoidalNumber) -> float:
    """Sup-min possibility of fuzzy event ``a`` under distribution ``dist``.

    Computed exactly: the pointwise minimum of two piecewise-linear
    memberships attains its supremum at a knot of either number or at a
    crossing of two ramp segments, so it suffices to evaluate finitely many
    candidates.
    """
    if max(dist.a2, a.a2) <= min(dist.a3, a.a3):
        return 1.0
    candidates = [dist.a1, dist.a2, dist.a3, dist.a4, a.a1, a.a2, a.a3, a.a4]
    for x0, y0, x1, y1 in _ramps(dist):
        s1 = (y1 - y0) / (x1 - x0)
        for u0, v0, u1, v1 in _ramps(a):
            s2 = (v1 - v0) / (u1 - u0)
            if s1 == s2:
                continue
            x = (v0 - y0 + s1 * x0 - s2 * u0) / (s1 - s2)
            if max(x0, u0) <= x <= min(x1, u1):
                candidates.append(x)
    best = 0.0
    for x in candidates:
        m = min(dist.membership(x), a.membership(x))
        if m > best:
            best = m
    return best


def exceedance_poss(
    b: TrapezoidalNumber, r: TrapezoidalNumber, variant: DeltaVariant = "paper"
) -> float:
    """Strict exceedance possibility that fuzzy ``b`` exceeds fuzzy ``r``.

    Three cases: 1 when b3 >= r4, 0 when b4 <= r3, otherwise a ratio delta.
    ``variant="paper"`` uses delta = (b4-r3) / ((b4-r3) + (r4-r3)) clamped to
    [0, 1]; ``variant="standard"`` uses the ramp-intersection height
    (b4-r3) / ((b4-r3) + (r4-b3)).
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown delta variant {variant!r}; expected one of {_VARIANTS}")
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


@dataclass(frozen=True)
class SampledFuzzyNumber:
    """Fuzzy number represented by nested alpha-cut intervals.

    Carrier for results whose exact shape is not trapezoidal, such as a fuzzy
    distance.  Levels must include alpha = 0 and alpha = 1 and be nested.
    """

    levels: tuple[AlphaInterval, ...]

    # slack for nestedness checks; float evaluation of monotone formulas can
    # wobble by an ulp
    _NEST_TOL = 1e-12

    def __post_init__(self) -> None:
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) < 2:
            raise ValueError("need at least the alpha=0 and alpha=1 levels")
        alphas = [lv.alpha for lv in levels]
        if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
            raise ValueError("alpha values must be strictly increasing")
        if alphas[0] != 0.0 or alphas[-1] != 1.0:
            raise ValueError("levels must span alpha = 0 through alpha = 1")
        for prev, cur in zip(levels, levels[1:]):
            if cur.lo < prev.lo - self._NEST_TOL or cur.hi > prev.hi + self._NEST_TOL:
                raise ValueError(
                    f"non-nested levels: alpha={cur.alpha} cut "
                    f"[{cur.lo}, {cur.hi}] escapes [{prev.lo}, {prev.hi}]"
                )

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, float, float]]) -> "SampledFuzzyNumber":
        """Build from (alpha, lo, hi) triples, clamping sub-ulp nesting noise."""
        ordered = sorted(pairs, key=lambda p: p[0])
        levels: list[AlphaInterval] = []
        for alpha, lo, hi in ordered:
            if levels:
                lo = max(lo, levels[-1].lo)
                hi = min(hi, levels[-1].hi)
            if lo > hi:
                mid = 0.5 * (lo + hi)
                lo = hi = mid
            levels.append(AlphaInterval(alpha, lo, hi))
        return cls(tuple(levels))

    @property
    def support(self) -> AlphaInterval:
        return self.levels[0]

    @property
    def core(self) -> AlphaInterval:
        return self.levels[-1]

    def level(self, alpha: float) -> AlphaInterval:
        """The stored level at exactly ``alpha``."""
        for lv in self.levels:
            if lv.alpha == alpha:
                return lv
        raise KeyError(f"no stored level at alpha={alpha}")


def fit_trapezoid(s: SampledFuzzyNumber) -> TrapezoidalNumber:
    """Trapezoidal linearization: support from the alpha=0 cut, core from alpha=1.

    Intermediate levels are discarded, so this is exact only for genuinely
    trapezoidal inputs.
    """
    return TrapezoidalNumber(s.support.lo, s.core.lo, s.core.hi, s.support.hi)
