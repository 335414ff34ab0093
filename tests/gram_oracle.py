"""Exact normal equations of the TSK consequents, to check the float ones against.

``exact_normal_equations`` takes the float memberships and strengths that
``premise_state`` computes, the inputs and the targets, and returns the Gram
matrix phi.T @ phi and the right-hand side phi.T @ y of the consequent design
matrix in exact rational arithmetic: integer numerators over one common
denominator, with the sums of the absolute values of the terms that a
rounding-error bound scales with.  Every float is a rational, so input i's
normalized membership u / sum(u) is one too; on the rows where the float
total strength is at most ``_W_TINY`` or NaN the model uses uniform
strengths, and so does the oracle, with 1 / k_i.

A Gram entry ((r, j), (s, k)) sums over samples the products of the column
factors ubar_i[r_i] * ubar_i[s_i] and a_j * a_k, with a = (x, 1).  Exact
products commute, so every entry with the same unordered pairs {r_i, s_i}
and {j, k} has the same value: the oracle computes each such class once, and
``entry_classes`` names the class of every (P, P) entry from the MF indices
of its column and row.  ``assert_within`` decides a rounding-error bound
exactly, entry by entry.
"""
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from fuzzyblock.surrogate.model import _W_TINY, PremiseState


class Exact(NamedTuple):
    """num[c] / den is the exact value of class c; absnum[c] / den its sum of |terms|."""

    num: np.ndarray  # object array of Python ints
    absnum: np.ndarray
    den: int


def _ints(values) -> tuple[list[int], int]:
    """Integer numerators of exact rationals over their least common denominator."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _pairs(v: list[int]) -> np.ndarray:
    """v[r] * v[s] for r <= s, in the pair order s(s + 1)/2 + r."""
    return np.array([v[s] * v[r] for s in range(len(v)) for r in range(s + 1)], dtype=object)


def _outer(vectors) -> np.ndarray:
    """Flat outer product of object vectors, the first varying slowest."""
    out = np.array([1], dtype=object)
    for v in vectors:
        out = np.multiply.outer(out, v).ravel()
    return out


def _sum_rows(rows) -> Exact:
    """sum_n of the flat outer product of row n's factor vectors, divided by den_n.

    Every factor but the last is nonnegative, and each row's scale to the
    common denominator multiplies its last factor, split into its positive
    and negative parts; so a class costs one large product per row, and
    the other is a product with 0.
    """
    den = math.lcm(*(d for _, d in rows))
    pos = neg = 0
    for factors, d in rows:
        head = _outer(factors[:-1])
        last = factors[-1] * (den // d)
        pos = pos + np.multiply.outer(head, np.maximum(last, 0)).ravel()
        neg = neg + np.multiply.outer(head, np.maximum(-last, 0)).ravel()
    return Exact(pos - neg, pos + neg, den)


def exact_normal_equations(
    state: PremiseState, X: np.ndarray, y: np.ndarray
) -> tuple[Exact, Exact]:
    """Exact Gram classes (in the order of ``entry_classes``) and right-hand side (P,)."""
    U, w, _ = state
    uniform = ~(w.sum(axis=1) > _W_TINY)
    gram_rows, rhs_rows = [], []
    for n in range(X.shape[0]):
        # each input's memberships over a common power of two: ubar = m / sum(m)
        ms = [np.array([1] * u.shape[1] if uniform[n] else _ints(u[n])[0], dtype=object)
              for u in U]
        sums = [sum(m) for m in ms]
        a, den_a = _ints(list(X[n]) + [1.0])
        gram_rows.append(([_pairs(m) for m in ms] + [_pairs(a)],
                          math.prod(s * s for s in sums) * den_a * den_a))
        ay, den_ay = _ints([Fraction(v) * Fraction(float(y[n])) for v in list(X[n]) + [1.0]])
        rhs_rows.append((ms + [np.array(ay, dtype=object)], math.prod(sums) * den_ay))
    return _sum_rows(gram_rows), _sum_rows(rhs_rows)


def entry_classes(sizes) -> np.ndarray:
    """(P, P) class of each Gram entry; sizes are k_1 .. k_d, then d + 1 regressors."""
    cols = np.array(list(itertools.product(*[range(m) for m in sizes])))  # (r, j) order
    classes = np.zeros((len(cols), len(cols)), dtype=np.intp)
    for f, m in enumerate(sizes):
        hi = np.maximum.outer(cols[:, f], cols[:, f])
        lo = np.minimum.outer(cols[:, f], cols[:, f])
        classes = classes * (m * (m + 1) // 2) + hi * (hi + 1) // 2 + lo
    return classes


def gamma(n: int) -> Fraction:
    """gamma_n = n u / (1 - n u), u = 2^-53: the relative error of n roundings."""
    return Fraction(n, 2**53 - n)


def assert_within(got: np.ndarray, exact: Exact, n: int, underflow: Fraction,
                  classes=None) -> None:
    """|got - value| <= gamma_n * sum|terms| + underflow for every entry, decided exactly.

    Each end of a class's interval is rounded inward to a float, so a float
    inside the rounded interval is inside the exact one: the ends without
    the underflow term are exact quotients, which int / int rounds
    correctly, and nextafter moves them inward; the underflow term, rounded
    down, widens them by a float operation that nextafter again undoes.
    """
    g = gamma(n)
    centre = exact.num * g.denominator
    radius = exact.absnum * g.numerator
    total = exact.den * g.denominator
    slack = float(underflow)
    if Fraction(slack) > underflow:
        slack = np.nextafter(slack, 0.0)
    lo = np.nextafter(np.array([v / total for v in centre - radius]), np.inf)
    hi = np.nextafter(np.array([v / total for v in centre + radius]), -np.inf)
    lo = np.nextafter(lo - slack, np.inf)
    hi = np.nextafter(hi + slack, -np.inf)
    if classes is not None:
        lo, hi = lo[classes], hi[classes]
    bad = ~((lo <= got) & (got <= hi))
    assert not bad.any(), (
        f"{int(bad.sum())} entries outside gamma_{n} bound, first at "
        f"{np.argwhere(bad)[0].tolist()}: {got[bad][0]!r} not in [{lo[bad][0]!r}, {hi[bad][0]!r}]")
