"""Loop references for hybrid training, independent of its batched form.

``premise_state`` and ``premise_gradients`` below are the forms that the
package's functions of the same names replaced: strengths normalized through
boolean-index copies, and gradients that gather each input's memberships
onto the rule columns, rebuild dy/dw per input and sum each MF's rules
through a boolean column mask.  ``train`` is the epoch loop as written
before strengths were shared: least squares on a broadcast-built design
matrix, the gradients and the RMSE each evaluate the strengths themselves.
With a ridge, least squares solves the package's ``normal_equations``
on this module's strengths; ``tests/gram_oracle.py`` checks those
against exact arithmetic.  The package must reproduce their bits.
"""
import copy
import math
from typing import Optional

import numpy as np

from fuzzyblock.surrogate.model import (
    _W_TINY,
    PremiseState,
    TskModel,
    bell_membership,
    normal_equations,
)


def premise_state(model: TskModel, X: np.ndarray) -> PremiseState:
    """Memberships and firing strengths of the model's current premises on X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = [bell_membership(X[:, i], model.mf_params[i]) for i in range(model.input_count)]
    idx = model.rule_mf_indices()
    w = np.ones((X.shape[0], model.rule_count))
    for i in range(model.input_count):
        w *= U[i][:, idx[:, i]]
    total = w.sum(axis=1)
    wbar = np.empty_like(w)
    ok = total > _W_TINY
    wbar[ok] = w[ok] / total[ok, None]
    wbar[~ok] = 1.0 / model.rule_count
    return PremiseState(U, w, wbar)



def premise_gradients(
    model: TskModel, X: np.ndarray, y: np.ndarray, *, state: Optional[PremiseState] = None
) -> list[np.ndarray]:
    """Analytic gradient of the mean squared error wrt (center, width, shape).

    Returns one (k_i, 3) array per input, aligned with ``mf_params``.  state,
    if given, holds the current premises' memberships and strengths on X.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    N = X.shape[0]
    U, w, wbar = state or premise_state(model, X)
    total = w.sum(axis=1)
    ok = total > _W_TINY
    idx = model.rule_mf_indices()
    Xa = np.column_stack([X, np.ones(N)])
    f = Xa @ model.consequents.T
    pred = (wbar * f).sum(axis=1)
    err = pred - y

    grads = []
    for i in range(model.input_count):
        params = model.mf_params[i]
        c, a, b = params[:, 0], params[:, 1], params[:, 2]
        Ui = U[i]
        gathered = Ui[:, idx[:, i]]
        with np.errstate(divide="ignore", invalid="ignore"):
            partial = w / gathered
        partial[gathered <= _W_TINY] = 0.0
        # dE/dmu for each rule column, then grouped per MF of this input; an
        # overflowing dy/dw leaves the gradient non-finite, as in the package
        dydw = np.zeros_like(w)
        k_i = params.shape[0]
        B = np.zeros((N, k_i))
        with np.errstate(over="ignore", invalid="ignore"):
            dydw[ok] = (f[ok] - pred[ok, None]) / total[ok, None]
            contrib = err[:, None] * dydw * partial  # (N, R)
            for m in range(k_i):
                cols = idx[:, i] == m
                if np.any(cols):
                    B[:, m] = contrib[:, cols].sum(axis=1)
        z = (X[:, i, None] - c[None, :]) / a[None, :]
        absz = np.abs(z)
        mu2 = Ui**2
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            u_pow_b = absz ** (2.0 * b[None, :])
            zu = np.sign(z) * np.where(absz > 0.0, absz ** (2.0 * b[None, :] - 1.0), 0.0)
            dmu_dc = (2.0 * b[None, :] / a[None, :]) * zu * mu2
            dmu_da = (2.0 * b[None, :] / a[None, :]) * u_pow_b * mu2
            log_u = np.where(absz > 0.0, 2.0 * np.log(absz), 0.0)
            dmu_db = -mu2 * u_pow_b * log_u
        # a membership that underflowed to 0 (|z|^(2b) overflowed) has slope 0
        flat = np.isinf(u_pow_b)
        dmu_dc, dmu_da, dmu_db = (np.where(flat, 0.0, d) for d in (dmu_dc, dmu_da, dmu_db))
        g = np.zeros((k_i, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            g[:, 0] = (2.0 / N) * (B * dmu_dc).sum(axis=0)
            g[:, 1] = (2.0 / N) * (B * dmu_da).sum(axis=0)
            g[:, 2] = (2.0 / N) * (B * dmu_db).sum(axis=0)
        grads.append(g)
    return grads


def _augmented(X: np.ndarray) -> np.ndarray:
    return np.column_stack([X, np.ones(X.shape[0])])


def lse_consequents(
    model: TskModel, X: np.ndarray, y: np.ndarray, ridge: Optional[float] = None
) -> np.ndarray:
    """Least-squares consequents, from the normal equations when ridge > 0."""
    state = premise_state(model, X)
    if ridge is not None and ridge > 0.0:
        gram, rhs = normal_equations(model, X, y, state=state)
        gram[np.diag_indices_from(gram)] += ridge
        theta = np.linalg.solve(gram, rhs)
    else:
        phi = (state.wbar[:, :, None] * _augmented(X)[:, None, :]).reshape(X.shape[0], -1)
        theta = np.linalg.lstsq(phi, y, rcond=None)[0]
    return theta.reshape(model.rule_count, model.input_count + 1)


def rmse(model: TskModel, X: np.ndarray, y: np.ndarray) -> float:
    pred = (premise_state(model, X).wbar * (_augmented(X) @ model.consequents.T)).sum(axis=1)
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def train(
    model: TskModel,
    X: np.ndarray,
    y: np.ndarray,
    epochs: int,
    learn_rate: float = 0.01,
    ridge: Optional[float] = None,
) -> tuple[TskModel, list[float]]:
    """Hybrid training with three evaluations of the strengths per epoch.

    A non-finite premise gradient ends the history with a NaN, where the
    package raises TrainingError.
    """
    model = copy.deepcopy(model)
    lr, prev, history = learn_rate, math.inf, []
    for _ in range(epochs):
        model.consequents = lse_consequents(model, X, y, ridge)
        grads = premise_gradients(model, X, y)
        if not all(np.isfinite(g).all() for g in grads):
            history.append(math.nan)
            break
        for p, g in zip(model.mf_params, grads):
            p[:, 0] -= lr * g[:, 0]
            p[:, 1] = np.maximum(p[:, 1] - lr * g[:, 1], 1e-6)
            p[:, 2] = np.clip(p[:, 2] - lr * g[:, 2], 0.1, 50.0)
        value = rmse(model, X, y)
        history.append(value)
        if value > prev:
            lr *= 0.5
        prev = value
    return model, history
