"""TSK fuzzy model with hybrid training: exact least squares plus gradient descent.

The premise layer holds generalized bell membership functions per input; the
rule grid is their cartesian product and each rule carries a linear
consequent.  Each training epoch first solves the consequents globally by
least squares on the firing-weighted design matrix, then takes one analytic
batch gradient step on the premise parameters.  Everything is deterministic,
so retraining from the same inputs reproduces the model file byte for byte.
"""
from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..kernel.orientation import wrap_azimuth
from .dataset import FEATURE_NAMES, NormalizationRecord, check_finite_numbers

_W_TINY = 1e-300
_MAX_RULES = 1024
# samples per matrix product in normal_equations; at the benchmark shape its
# two factors stay under 1 MB
_GRAM_ROWS = 256

MODEL_SCHEMA_VERSION = 1

_LABEL_SETS = {
    1: ("medium",),
    2: ("low", "high"),
    3: ("low", "medium", "high"),
    4: ("very low", "low", "high", "very high"),
    5: ("very low", "low", "medium", "high", "very high"),
}


class TrainingError(RuntimeError):
    """Raised when the loss or the premise gradient stops being finite during training."""


@dataclass
class TskModel:
    """Premise bell MFs (center, width, shape) per input plus linear consequents.

    consequents[r] = (c_1 .. c_d, intercept) for rule r; rules enumerate the
    MF grid with the first input varying slowest.
    """

    mf_params: list[np.ndarray]  # per input: (k_i, 3) columns (center, width, shape)
    consequents: np.ndarray  # (R, d + 1)
    input_names: tuple[str, ...] = FEATURE_NAMES
    normalization: Optional[NormalizationRecord] = None
    input_medians: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        self.mf_params = [np.array(p, dtype=float) for p in self.mf_params]
        for p in self.mf_params:
            if p.ndim != 2 or p.shape[1] != 3:
                raise ValueError("each input needs an (k, 3) MF parameter array")
            if not np.isfinite(p).all():
                raise ValueError("MF parameters must be finite")
            if np.any(p[:, 1] <= 0.0):
                raise ValueError("MF widths must be positive")
        self.consequents = np.array(self.consequents, dtype=float)
        counts = [p.shape[0] for p in self.mf_params]
        n_rules = int(np.prod(counts))
        if self.consequents.shape != (n_rules, len(self.mf_params) + 1):
            raise ValueError(
                f"consequents must have shape ({n_rules}, {len(self.mf_params) + 1})"
            )
        if not np.isfinite(self.consequents).all():
            raise ValueError("consequents must be finite")
        if len(self.input_names) != len(self.mf_params):
            raise ValueError(f"need one input name per input ({len(self.mf_params)})")
        if self.input_medians is not None:
            if len(self.input_medians) != len(self.mf_params):
                raise ValueError(f"need one input median per input ({len(self.mf_params)})")
            check_finite_numbers(self.input_medians, "input medians")

    @property
    def input_count(self) -> int:
        return len(self.mf_params)

    @property
    def mf_counts(self) -> tuple[int, ...]:
        return tuple(p.shape[0] for p in self.mf_params)

    @property
    def rule_count(self) -> int:
        return int(np.prod(self.mf_counts))

    def rule_mf_indices(self) -> np.ndarray:
        """(R, d) grid of MF indices; first input varies slowest."""
        return np.array(list(itertools.product(*[range(k) for k in self.mf_counts])))


def bell_membership(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Generalized bell 1 / (1 + |(x - c) / a|^(2b)) for a column of inputs.

    x has shape (N,), params (k, 3); returns (N, k).
    """
    c, a, b = params[:, 0], params[:, 1], params[:, 2]
    z = (x[:, None] - c[None, :]) / a[None, :]
    with np.errstate(over="ignore"):
        # overflow in the power means membership 0, the correct limit
        return 1.0 / (1.0 + np.abs(z) ** (2.0 * b[None, :]))


def init_model(
    d: int,
    mfs_per_input: int | Sequence[int],
    X: np.ndarray,
    input_names: Optional[Sequence[str]] = None,
) -> TskModel:
    """Grid-partition initialization over the observed range of each input.

    Bell centers are equispaced, widths are half the center spacing, and the
    shape parameter starts at 2.  Consequents start at zero.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != d:
        raise ValueError(f"data has {X.shape[1]} columns, expected {d}")
    counts = [mfs_per_input] * d if isinstance(mfs_per_input, int) else list(mfs_per_input)
    if len(counts) != d:
        raise ValueError("one MF count per input required")
    check_training_shape(counts)
    mf_params = []
    for i, k in enumerate(counts):
        lo, hi = float(X[:, i].min()), float(X[:, i].max())
        if hi == lo:
            hi = lo + 1.0
        centers = np.linspace(lo, hi, k)
        width = (centers[1] - centers[0]) / 2.0
        params = np.column_stack(
            [centers, np.full(k, width), np.full(k, 2.0)]
        )
        mf_params.append(params)
    names = tuple(input_names) if input_names is not None else tuple(
        f"x{i + 1}" for i in range(d)
    )
    return TskModel(mf_params, np.zeros((math.prod(counts), d + 1)), input_names=names)


class PremiseState(NamedTuple):
    """Memberships U (one (N, k_i) array per input) and raw and normalized strengths."""

    U: list[np.ndarray]
    w: np.ndarray
    wbar: np.ndarray


def _augmented(X: np.ndarray) -> np.ndarray:
    """X with a column of ones appended, the regressors of the linear consequents."""
    return np.column_stack([X, np.ones(X.shape[0])])


def premise_state(model: TskModel, X: np.ndarray) -> PremiseState:
    """Memberships and firing strengths of the model's current premises on X.

    The strengths start from input 0's memberships and take in one input at
    a time as the fastest-varying rule axis, on N-contiguous rows, so each
    is the product of its memberships in input order (first input slowest).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = [bell_membership(X[:, i], model.mf_params[i]) for i in range(model.input_count)]
    w = U[0].T
    for u in U[1:]:
        w = (w[:, None, :] * np.ascontiguousarray(u.T)).reshape(-1, X.shape[0])
    w = np.ascontiguousarray(w.T)
    total = w.sum(axis=1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        wbar = w / total[:, None]
    wbar[~(total > _W_TINY)] = 1.0 / model.rule_count  # every strength underflowed, or NaN
    return PremiseState(U, w, wbar)


def forward_batch(model: TskModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and normalized firing strengths for a batch."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.input_count:
        raise ValueError(f"expected {model.input_count} inputs, got shape {X.shape}")
    wbar = premise_state(model, X).wbar
    return _predict(model, X, wbar), wbar


def _predict(model: TskModel, X: np.ndarray, wbar: np.ndarray) -> np.ndarray:
    f = _augmented(X) @ model.consequents.T
    return (wbar * f).sum(axis=1)


def rmse(
    model: TskModel, X: np.ndarray, y: np.ndarray, *, state: Optional[PremiseState] = None
) -> float:
    """Root mean squared error on (X, y); ``state`` as in ``lse_consequents``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    pred = _predict(model, X, (state or premise_state(model, X)).wbar)
    return float(np.sqrt(np.mean((pred - np.asarray(y, dtype=float)) ** 2)))


def check_step_sizes(learn_rate: Optional[float] = None, ridge: Optional[float] = None) -> None:
    """The step sizes ``train`` takes: a positive finite learn rate, and a ridge
    that is None or 0 (minimum-norm least squares) or positive and finite."""
    if learn_rate is not None and not 0.0 < learn_rate < math.inf:
        raise ValueError("learn_rate must be positive")
    if ridge is not None and not 0.0 <= ridge < math.inf:
        raise ValueError("ridge must be >= 0 or null")


def check_training_shape(mfs_per_input: Optional[Sequence[int]] = None,
                         epochs: Optional[int] = None) -> None:
    """The training shape ``init_model`` and ``train`` take: at least 2 MFs per
    input, at most ``_MAX_RULES`` rules in their grid, and at least 1 epoch."""
    if mfs_per_input is not None and any(k < 2 for k in mfs_per_input):
        raise ValueError("mfs_per_input entries must be >= 2")
    if mfs_per_input is not None and math.prod(mfs_per_input) > _MAX_RULES:
        raise ValueError(f"mfs_per_input gives {math.prod(mfs_per_input)} rules, over {_MAX_RULES}")
    if epochs is not None and epochs < 1:
        raise ValueError("epochs must be >= 1")


class GramLayout(NamedTuple):
    """Where each consequent Gram entry lies among the Gram's distinct values.

    A design-matrix column (r, j) is a product of d + 1 factors: input i's
    normalized membership of MF r_i, for each i, then regressor j of
    a = (x, 1).  ``left`` and ``right`` split the factors into the two
    groups whose per-sample pair products ``normal_equations`` multiplies
    in one matrix product; ``index`` (P, P) holds each Gram entry's
    position in that product's flat result.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    index: np.ndarray


def _pair_codes(m: int) -> np.ndarray:
    """(m, m) code s(s + 1)/2 + r of each unordered pair {r <= s} of m columns."""
    i = np.arange(m)
    hi = np.maximum.outer(i, i)
    return hi * (hi + 1) // 2 + np.minimum.outer(i, i)


def _pair_products(v: np.ndarray) -> np.ndarray:
    """v[:, r] * v[:, s] of every unordered column pair, in the order of ``_pair_codes``."""
    hi, lo = np.tril_indices(v.shape[1])
    return v[:, hi] * v[:, lo]


def _row_kron(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise Kronecker product of (N, m_f) arrays, the first varying slowest."""
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, :, None] * m[:, None, :]).reshape(out.shape[0], -1)
    return out


def gram_layout(model: TskModel) -> GramLayout:
    """The Gram layout of the model's rule grid; it depends only on the grid's shape.

    The factors go, largest pair count first, to the group whose pair
    counts have the smaller product, so both sides of the matrix product
    stay near the square root of the number of distinct values.  The index
    is a sum of one small symmetric table per factor, so it is exactly
    symmetric.
    """
    sizes = model.mf_counts + (model.input_count + 1,)
    pairs = [m * (m + 1) // 2 for m in sizes]
    groups: tuple[list[int], list[int]] = ([], [])
    for f in sorted(range(len(sizes)), key=lambda f: -pairs[f]):
        min(groups, key=lambda g: math.prod(pairs[h] for h in g)).append(f)
    left, right = (tuple(sorted(g)) for g in groups)
    stride = {}  # of each factor's pair code in the flat (left, right) product
    step = 1
    for f in reversed(left + right):
        stride[f] = step
        step *= pairs[f]
    index = np.zeros((1, 1), dtype=np.int32)
    for f, m in enumerate(sizes):  # in column order (r, j), first input slowest
        table = (_pair_codes(m) * stride[f]).astype(np.int32)
        index = (index[:, None, :, None] + table[None, :, None, :]).reshape(len(index) * m, -1)
    return GramLayout(left, right, index)


def normal_equations(
    model: TskModel,
    X: np.ndarray,
    y: np.ndarray,
    *,
    state: Optional[PremiseState] = None,
    layout: Optional[GramLayout] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix phi.T @ phi and right-hand side phi.T @ y of the consequents.

    phi (N, P) is the design matrix, wbar[n, r] * a[n, j] in column
    r * (d + 1) + j; it is never formed.  On the full rule grid wbar[n, r]
    is the product over inputs of ubar_i[n, r_i], input i's memberships
    divided by their sum, or 1 / k_i on the rows where ``premise_state``
    falls back to uniform strengths.  So Gram entry ((r, j), (s, k)) sums
    over samples the product of ubar_i[r_i] * ubar_i[s_i] over inputs and
    a_j * a_k, and depends only on the unordered pairs {r_i, s_i} and
    {j, k}: prod k_i(k_i + 1)/2 * (d + 1)(d + 2)/2 distinct values in all.
    One matrix product of the two layout groups' row-wise Kronecker
    products of those pair products gives them, a few hundred samples at a
    time, and the layout's index gathers them into the exactly symmetric
    (P, P) Gram matrix.  Normalizing per input never squares a raw
    strength, which underflows on rows of small total strength.  The
    right-hand side is wbar.T @ (a * y).  state as in ``lse_consequents``;
    layout is ``gram_layout(model)`` if None.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    U, w, _ = state or premise_state(model, X)
    layout = layout or gram_layout(model)
    uniform = ~(w.sum(axis=1) > _W_TINY)  # premise_state's fallback rows
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = [u / u.sum(axis=1, keepdims=True) for u in U]
    for v in factors:
        v[uniform] = 1.0 / v.shape[1]
    a = _augmented(X)
    pairs = [_pair_products(v) for v in factors + [a]]
    values = np.zeros([math.prod(pairs[f].shape[1] for f in g) for g in (layout.left, layout.right)])
    rhs = np.zeros((model.rule_count, a.shape[1]))
    for lo in range(0, X.shape[0], _GRAM_ROWS):
        rows = slice(lo, lo + _GRAM_ROWS)
        values += _row_kron([pairs[f][rows] for f in layout.left]).T @ _row_kron(
            [pairs[f][rows] for f in layout.right])
        rhs += _row_kron([v[rows] for v in factors]).T @ (a[rows] * y[rows, None])
    return values.ravel()[layout.index], rhs.ravel()


def lse_consequents(
    model: TskModel,
    X: np.ndarray,
    y: np.ndarray,
    ridge: Optional[float] = None,
    *,
    state: Optional[PremiseState] = None,
    layout: Optional[GramLayout] = None,
) -> np.ndarray:
    """Globally optimal consequents for the current premises.

    With ridge None or 0: minimum-norm least squares via orthogonal
    factorization of the (N, P) design matrix; a ``LinAlgError`` from it
    propagates (it is a ValueError), since refitting with another ridge
    would change the model unseen.  A positive ridge switches to Tikhonov
    regression, which is what keeps the rule grid from interpolating small
    datasets.  state, if given, holds the current premises' strengths on
    X and saves recomputing them; layout, if given, is ``gram_layout(model)``,
    which ``train`` builds once for all its epochs.

    The Tikhonov path takes the Gram matrix and right-hand side from
    ``normal_equations``, which never forms the design matrix, and adds
    the ridge onto the Gram diagonal in place, so no second (P, P) array
    is allocated.  The Gram matrix is exactly symmetric, so its transpose
    is the same matrix: the solve takes that F-ordered view, whose copy
    into LAPACK's column-major layout reads contiguous columns, and gets
    the same bits.
    """
    check_step_sizes(ridge=ridge)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    shape = (model.rule_count, model.input_count + 1)
    if not ridge:
        wbar = (state or premise_state(model, X)).wbar
        phi = (wbar[:, :, None] * _augmented(X)[:, None, :]).reshape(X.shape[0], -1)
        return np.linalg.lstsq(phi, y, rcond=None)[0].reshape(shape)
    gram, rhs = normal_equations(model, X, y, state=state, layout=layout)
    gram[np.diag_indices_from(gram)] += ridge
    return np.linalg.solve(gram.T, rhs).reshape(shape)


def premise_gradients(
    model: TskModel, X: np.ndarray, y: np.ndarray, *, state: Optional[PremiseState] = None
) -> list[np.ndarray]:
    """Analytic gradient of the mean squared error wrt (center, width, shape).

    Returns one (k_i, 3) array per input, aligned with ``mf_params``.  state,
    if given, holds the current premises' memberships and strengths on X.
    The strengths and the error times dy/dw of every rule are copied once
    into rules-outer (k_1, ..., k_d, N) grids, so each pass runs along
    N-contiguous rows.  Each input divides its membership out of the
    strengths straight into a buffer whose leading axis is its MF, and each
    MF's rules are summed one after another in rule order.  The per-MF sums
    of all inputs go back to one (N, sum k_i) C-order array, so the sums
    over samples also add one row after another.  Those two summation
    orders fix the bits of the trained model; ``tests/gradient_oracle.py``
    holds the loop they must match.  A dy/dw that overflows leaves the
    gradient non-finite, without a warning; ``train`` stops on it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    N = X.shape[0]
    U, w, wbar = state or premise_state(model, X)
    total = w.sum(axis=1)
    ok = total > _W_TINY
    f = _augmented(X) @ model.consequents.T
    pred = (wbar * f).sum(axis=1)
    err = pred - y
    counts = model.mf_counts
    w_grid = np.ascontiguousarray(w.T).reshape(counts + (N,))
    # err * dy/dw of every rule, zero on rows whose strengths all underflow
    err_dydw = np.ascontiguousarray(f.T)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        err_dydw -= pred
        err_dydw /= total
        err_dydw[:, ~ok] = 0.0
        err_dydw *= err
        buf = np.empty(w.size)  # dE/dmu of each rule for one input, up to 2 / N
        sums = []  # dE/dmu per MF, up to 2 / N, one (k_i, N) array per input
        for i, k_i in enumerate(counts):
            mu = np.ascontiguousarray(U[i].T).reshape((1,) * i + (k_i,) + (1,) * (len(counts) - i - 1) + (N,))
            by_mf = buf.reshape((k_i,) + counts[:i] + counts[i + 1:] + (N,))
            contrib = np.moveaxis(by_mf, 0, i)  # by_mf seen on the rule grid
            np.divide(w_grid, mu, out=contrib)
            tiny = mu <= _W_TINY
            if tiny.any():
                np.copyto(contrib, 0.0, where=tiny)
            contrib *= err_dydw.reshape(w_grid.shape)
            sums.append(by_mf.reshape(k_i, -1, N).sum(axis=1))
    B = np.ascontiguousarray(np.concatenate(sums).T)  # C order: sums over samples row by row

    # the MF slopes of all inputs side by side, one column per MF
    params = np.concatenate(model.mf_params)
    c, a, b = params[:, 0], params[:, 1], params[:, 2]
    x = X[:, np.repeat(np.arange(len(counts)), counts)]
    mu2 = np.concatenate(U, axis=1) ** 2
    z = (x - c) / a
    absz = np.abs(z)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u_pow_b = absz ** (2.0 * b)
        zu = np.sign(z) * np.where(absz > 0.0, absz ** (2.0 * b - 1.0), 0.0)
        log_u = np.where(absz > 0.0, 2.0 * np.log(absz), 0.0)
        dmu = np.stack([(2.0 * b / a) * zu * mu2, (2.0 * b / a) * u_pow_b * mu2,
                        -mu2 * u_pow_b * log_u])
    dmu[:, np.isinf(u_pow_b)] = 0.0  # membership underflowed to 0: slope 0, not inf * 0
    with np.errstate(over="ignore", invalid="ignore"):
        g = ((2.0 / N) * (B * dmu).sum(axis=1)).T
    return np.split(g, np.cumsum(counts)[:-1])


def train(
    model: TskModel,
    X: np.ndarray,
    y: np.ndarray,
    epochs: int,
    learn_rate: float = 0.01,
    ridge: Optional[float] = None,
) -> tuple[TskModel, list[float]]:
    """Hybrid training; returns a new model and the per-epoch RMSE history.

    Pass 1 of each epoch solves the consequents exactly; pass 2 is one batch
    gradient step on the premises.  The learning rate halves whenever the
    epoch RMSE increases.  Memberships and firing strengths are evaluated
    once per premise setting and shared by both passes and the RMSE.  With
    a positive ridge no (N, P) design matrix is formed: the Gram layout is
    built once, serves every epoch's ``lse_consequents`` and is freed on
    return, and the gradient pass works on (N, R) grids.  A non-finite
    premise gradient or epoch RMSE raises TrainingError, so no model with
    non-finite MF parameters comes back.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("training data must be nonempty")
    check_training_shape(epochs=epochs)
    check_step_sizes(learn_rate, ridge)
    model = copy.deepcopy(model)
    lr = learn_rate
    history: list[float] = []
    prev = math.inf
    layout = gram_layout(model) if ridge else None
    state = premise_state(model, X)
    for epoch in range(epochs):
        model.consequents = lse_consequents(model, X, y, ridge, state=state, layout=layout)
        grads = premise_gradients(model, X, y, state=state)
        if not all(np.isfinite(g).all() for g in grads):
            raise TrainingError(
                f"non-finite premise gradient at epoch {epoch + 1} (learn rate {lr})"
            )
        for i, g in enumerate(grads):
            p = model.mf_params[i]
            p[:, 0] -= lr * g[:, 0]
            p[:, 1] = np.maximum(p[:, 1] - lr * g[:, 1], 1e-6)
            p[:, 2] = np.clip(p[:, 2] - lr * g[:, 2], 0.1, 50.0)
        del state, grads  # one set of strengths alive at a time keeps peak memory flat
        state = premise_state(model, X)
        value = rmse(model, X, y, state=state)
        if not math.isfinite(value):
            raise TrainingError(
                f"non-finite RMSE at epoch {epoch + 1} (learn rate {lr})"
            )
        history.append(value)
        if value > prev:
            lr *= 0.5
        prev = value
    return model, history


def mf_labels(count: int) -> tuple[str, ...]:
    if count in _LABEL_SETS:
        return _LABEL_SETS[count]
    return tuple(f"level{i + 1}" for i in range(count))


def extract_rules(model: TskModel) -> list[str]:
    """Human-readable if-then rules, one line per rule, deterministic order."""
    idx = model.rule_mf_indices()
    labels = [mf_labels(k) for k in model.mf_counts]
    lines = []
    for r in range(model.rule_count):
        conditions = " AND ".join(
            f"{model.input_names[i]} is {labels[i][idx[r, i]]}"
            for i in range(model.input_count)
        )
        c = model.consequents[r]
        terms = [format(c[-1], ".10g")]
        terms += [
            f"{format(c[i], '.10g')}*{model.input_names[i]}"
            for i in range(model.input_count)
        ]
        lines.append(f"IF {conditions} THEN sf = {' + '.join(terms)}")
    return lines


def model_to_dict(model: TskModel) -> dict:
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "input_names": list(model.input_names),
        "mfs": [[[float(v) for v in row] for row in p] for p in model.mf_params],
        "consequents": [[float(v) for v in row] for row in model.consequents],
        "normalization": None,
        "input_medians": None,
    }
    if model.normalization is not None:
        rec = model.normalization
        doc["normalization"] = {
            "feature_names": list(rec.feature_names),
            "mins": [float(v) for v in rec.mins],
            "maxs": [float(v) for v in rec.maxs],
            "range": [rec.lo, rec.hi],
        }
    if model.input_medians is not None:
        doc["input_medians"] = [float(v) for v in model.input_medians]
    return doc


def _require_keys(doc: object, keys: Sequence[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{where} lacks key {missing[0]!r}")


def model_from_dict(doc: dict) -> TskModel:
    _require_keys(doc, ("schema_version", "input_names", "mfs", "consequents"), "model")
    version = doc["schema_version"]
    if type(version) is not int or version != MODEL_SCHEMA_VERSION:  # True == 1 and 1.0 == 1
        raise ValueError(f"unsupported model schema_version {version!r}")
    norm = None
    if doc.get("normalization") is not None:
        nd = doc["normalization"]
        _require_keys(nd, ("feature_names", "mins", "maxs", "range"), "model normalization")
        norm = NormalizationRecord(
            tuple(nd["feature_names"]),
            tuple(nd["mins"]),
            tuple(nd["maxs"]),
            nd["range"][0],
            nd["range"][1],
        )
    medians = doc.get("input_medians")
    return TskModel(
        [np.array(p, dtype=float) for p in doc["mfs"]],
        np.array(doc["consequents"], dtype=float),
        input_names=tuple(doc["input_names"]),
        normalization=norm,
        input_medians=tuple(medians) if medians is not None else None,
    )


def model_json_text(model: TskModel) -> str:
    """The model file: sorted-key JSON with one-space indent and a final newline."""
    return json.dumps(model_to_dict(model), sort_keys=True, indent=1) + "\n"


def load_model(path: str) -> TskModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return model_from_dict(doc)
    except (IndexError, TypeError, ValueError) as exc:  # values of the wrong type or shape
        raise ValueError(f"{path}: {exc}") from None


def bin_angles(lo: float, hi: float, bins: int) -> np.ndarray:
    """Centers of ``bins`` equal angular bins spanning [lo, hi], unwrapped."""
    return lo + (np.arange(bins) + 0.5) * (hi - lo) / bins


# the position-angle input a damage map sweeps; model files come from
# outside the program, so its presence is checked
_ANGLE_INPUT = "angle_deg"


def map_angles(model: TskModel, angular_bins: int) -> tuple[int, np.ndarray]:
    """Position of the angle input and the unwrapped bin centers of a damage map."""
    if angular_bins < 8:
        raise ValueError("need at least 8 angular bins")
    if model.normalization is None or model.input_medians is None:
        raise ValueError("model must carry normalization and input medians")
    if _ANGLE_INPUT not in model.input_names:
        raise ValueError(f"model has no input named {_ANGLE_INPUT!r}")
    k = model.input_names.index(_ANGLE_INPUT)
    return k, bin_angles(model.normalization.mins[k], model.normalization.maxs[k], angular_bins)


def damage_map(
    model: TskModel,
    angular_bins: int,
    per_bin_inputs: Optional[dict[str, Sequence[float]]] = None,
) -> list[tuple[float, float]]:
    """Predicted safety factor around the section, one value per angular bin.

    The position angle varies over the bins, spanning the angle domain seen
    in training (the dataset may parameterize the circle with a branch cut
    anywhere, e.g. 150..510).  Every other input is held at its training
    median unless per_bin_inputs supplies one value per bin (e.g. kernel
    block volumes along the boundary).  Predictions are de-normalized back
    to safety-factor units and angles are reported wrapped to [0, 360).
    """
    angle_idx, angles = map_angles(model, angular_bins)
    names = list(model.input_names)
    rows = np.tile(np.array(model.input_medians, dtype=float), (angular_bins, 1))
    rows[:, angle_idx] = angles
    for key, values in (per_bin_inputs or {}).items():
        if key not in names:
            raise ValueError(f"unknown input {key!r}")
        values = np.asarray(values, dtype=float)
        if values.shape != (angular_bins,):
            raise ValueError(f"per-bin values for {key!r} must have length {angular_bins}")
        rows[:, names.index(key)] = values
    Xn = model.normalization.apply_features(rows)
    pred, _ = forward_batch(model, Xn)
    sf = model.normalization.invert_target(pred)
    return [(wrap_azimuth(float(a)), float(v)) for a, v in zip(angles, sf)]
