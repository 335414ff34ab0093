"""Possibility oracles for PBP tests, independent of the package's search.

``min_poss_over_dirs`` evaluates the min-over-constraints possibility at
many directions at once; the tests check it against the public
``constraint_poss``.  ``attains`` decides with scipy ``linprog`` whether some
direction reaches a claimed PBP value.  ``poss_measure_crisp`` and
``poss_measure_fuzzy`` are the sup-min possibility of a crisp interval and of
a fuzzy event under a trapezoidal distribution; the second, with the event
"at least r", checks the ``standard`` exceedance.
"""
import itertools
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from fuzzyblock.fuzzy_blocks import constraint_poss
from fuzzyblock.fuzzy_numbers import TrapezoidalNumber

# a claimed value counts as attained by a direction whose possibility is at
# least value - SLACK; a step row (zero spread) counts by its margin
SLACK = 1e-9


def knots(system):
    """The coefficient knots as four (rows, dim) matrices, a1 to a4."""
    return np.array(
        [[[t.a1, t.a2, t.a3, t.a4] for t in c.coeffs] for c in system.constraints]
    ).transpose(2, 0, 1)


def min_poss_over_dirs(dirs, system, variant):
    """min-over-constraints possibility at each direction, homogeneous d = 0."""
    A1, A2, A3, A4 = knots(system)
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


def _unit(rows):
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 1e-12)


def _deepest_point(rows, step, signs):
    """Point of {rows . v >= 0} in one orthant, normalized by sum s_k v_k = 1,
    whose smallest margin over the non-step rows is largest; the step rows
    are hard constraints.  Returns (point, margin), or None if infeasible."""
    dim = len(signs)
    soft, hard = rows[~step], rows[step]
    res = linprog(
        np.r_[np.zeros(dim), -1.0],
        A_ub=np.vstack([np.c_[-soft, np.ones(len(soft))], np.c_[-hard, np.zeros(len(hard))]]),
        b_ub=np.zeros(len(rows)),
        A_eq=np.r_[signs, 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0.0, None) if s > 0 else (None, 0.0) for s in signs]
        + [(None, None) if len(soft) else (0.0, 0.0)],
        method="highs",
    )
    return (res.x[:dim], res.x[dim]) if res.status == 0 else None


def attains(system, value, variant):
    """Whether some unit direction has min possibility value - SLACK or more.

    Within one closed orthant the scaled-knot sums are linear, l3 = L3 v and
    l4 = L4 v, so the superlevel set just below the value is a cone: rows
    (1 - t) L4 + t L3 >= 0 at t = value - SLACK for the standard variant,
    and L4 >= 0 for the paper variant, whose possibility is 1 wherever
    l4 > 0.  The candidate is the orthant point that ``linprog`` finds
    deepest inside that cone.  It is scored with ``constraint_poss``, except
    that a step row (zero spread in the orthant, so its possibility jumps
    from 0 to 1 at margin 0) is judged by its unit margin within SLACK:
    on a flat cone (a crisp row and its exact negation) rounding puts every
    point about 1e-17 outside one of the two.
    """
    if value <= SLACK:
        return True  # every direction has possibility at least 0
    t = 0.0 if variant == "paper" else value - SLACK
    A1, A2, A3, A4 = knots(system)
    best = None  # (point, margin, rows, step) of the deepest orthant point
    for signs in itertools.product((1.0, -1.0), repeat=system.dimension):
        signs = np.array(signs)
        L3, L4 = np.where(signs > 0.0, A3, A2), np.where(signs > 0.0, A4, A1)
        rows = _unit((1.0 - t) * L4 + t * L3)
        step = np.all(L4 == L3, axis=1)
        found = _deepest_point(rows, step, signs)
        if found is not None and (best is None or found[1] > best[1]):
            best = found + (rows, step)
    if best is None:
        return False
    v, _, rows, step = best
    v = v / np.linalg.norm(v)
    return all(
        rows[i] @ v >= -SLACK if step[i] else constraint_poss(c, v, variant) >= value - SLACK
        for i, c in enumerate(system.constraints)
    )


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


def _ramps(t: TrapezoidalNumber) -> list[tuple[Fraction, Fraction]]:
    """Non-degenerate linear pieces as exact (x at height 0, x at height 1)."""
    out = []
    if t.a2 > t.a1:
        out.append((Fraction(t.a1), Fraction(t.a2)))
    if t.a4 > t.a3:
        out.append((Fraction(t.a4), Fraction(t.a3)))
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
    best = 0.0
    for x in (dist.a1, dist.a2, dist.a3, dist.a4, a.a1, a.a2, a.a3, a.a4):
        best = max(best, min(dist.membership(x), a.membership(x)))
    # ramps meet at the height h where x0 + h (x1 - x0) = u0 + h (u1 - u0),
    # and both memberships there are h. It is solved in exact rationals: a
    # rounded h can fall inside [0, 1] when the true one does not, and a
    # rounded crossing point can miss a crossing that lies between two floats
    for x0, x1 in _ramps(dist):
        for u0, u1 in _ramps(a):
            den = (x1 - x0) - (u1 - u0)
            if den == 0:
                continue
            h = (u0 - x0) / den
            if 0 <= h <= 1:
                best = max(best, float(h))
    return best
