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
from typing import Optional, Sequence

import numpy as np

from .dataset import FEATURE_NAMES, NormalizationRecord

_W_TINY = 1e-300
_RIDGE = 1e-8

MODEL_SCHEMA_VERSION = 1

_LABEL_SETS = {
    1: ("medium",),
    2: ("low", "high"),
    3: ("low", "medium", "high"),
    4: ("very low", "low", "high", "very high"),
    5: ("very low", "low", "medium", "high", "very high"),
}


class TrainingError(RuntimeError):
    """Raised when the loss stops being finite during training."""


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
            if np.any(p[:, 1] <= 0.0):
                raise ValueError("MF widths must be positive")
        self.consequents = np.array(self.consequents, dtype=float)
        counts = [p.shape[0] for p in self.mf_params]
        n_rules = int(np.prod(counts))
        if self.consequents.shape != (n_rules, len(self.mf_params) + 1):
            raise ValueError(
                f"consequents must have shape ({n_rules}, {len(self.mf_params) + 1})"
            )

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
    max_rules: int = 1024,
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
    if any(k < 2 for k in counts):
        raise ValueError("need at least 2 membership functions per input")
    n_rules = int(np.prod(counts))
    if n_rules > max_rules:
        raise ValueError(
            f"rule grid has {n_rules} rules (> {max_rules}); reduce MFs per input "
            "or split the inputs across models"
        )
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
    return TskModel(mf_params, np.zeros((n_rules, d + 1)), input_names=names)


def _memberships(model: TskModel, X: np.ndarray) -> list[np.ndarray]:
    return [bell_membership(X[:, i], model.mf_params[i]) for i in range(model.input_count)]


def firing_strengths(model: TskModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw and normalized rule firing strengths, shapes (N, R).

    Normalized strengths sum to 1; if every rule underflows to zero the
    fallback is uniform weighting.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _strengths(model, _memberships(model, X))


def _strengths(model: TskModel, U: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``firing_strengths`` from the per-input memberships U."""
    idx = model.rule_mf_indices()
    w = np.ones((U[0].shape[0], model.rule_count))
    for i in range(model.input_count):
        w = w * U[i][:, idx[:, i]]
    total = w.sum(axis=1)
    wbar = np.empty_like(w)
    ok = total > _W_TINY
    wbar[ok] = w[ok] / total[ok, None]
    wbar[~ok] = 1.0 / model.rule_count
    return w, wbar


def forward_batch(model: TskModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and normalized firing strengths for a batch."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _, wbar = firing_strengths(model, X)
    Xa = np.column_stack([X, np.ones(X.shape[0])])
    f = Xa @ model.consequents.T
    return (wbar * f).sum(axis=1), wbar


def forward(model: TskModel, x: Sequence[float]) -> tuple[float, np.ndarray]:
    """Prediction and normalized firing strengths at a single point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.input_count,):
        raise ValueError(f"expected {model.input_count} inputs, got shape {x.shape}")
    y, wbar = forward_batch(model, x.reshape(1, -1))
    return float(y[0]), wbar[0]


def rmse(model: TskModel, X: np.ndarray, y: np.ndarray) -> float:
    pred, _ = forward_batch(model, X)
    return float(np.sqrt(np.mean((pred - np.asarray(y, dtype=float)) ** 2)))


def lse_consequents(
    model: TskModel, X: np.ndarray, y: np.ndarray, ridge: Optional[float] = None
) -> np.ndarray:
    """Globally optimal consequents for the current premises.

    With ridge=None: minimum-norm least squares via orthogonal factorization,
    falling back to a tiny ridge when the factorization itself fails.  A
    positive ridge switches to Tikhonov regression, which is what keeps the
    rule grid from interpolating small datasets.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    _, wbar = firing_strengths(model, X)
    Xa = np.column_stack([X, np.ones(X.shape[0])])
    phi = (wbar[:, :, None] * Xa[:, None, :]).reshape(X.shape[0], -1)
    if ridge is not None and ridge > 0.0:
        gram = phi.T @ phi + ridge * np.eye(phi.shape[1])
        theta = np.linalg.solve(gram, phi.T @ y)
    else:
        try:
            theta, *_ = np.linalg.lstsq(phi, y, rcond=None)
        except np.linalg.LinAlgError:
            gram = phi.T @ phi + _RIDGE * np.eye(phi.shape[1])
            theta = np.linalg.solve(gram, phi.T @ y)
    return theta.reshape(model.rule_count, model.input_count + 1)


def premise_gradients(
    model: TskModel, X: np.ndarray, y: np.ndarray
) -> list[np.ndarray]:
    """Analytic gradient of the mean squared error wrt (center, width, shape).

    Returns one (k_i, 3) array per input, aligned with ``mf_params``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    N = X.shape[0]
    U = _memberships(model, X)
    w, wbar = _strengths(model, U)
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
        # dE/dmu for each rule column, then grouped per MF of this input
        dydw = np.zeros_like(w)
        dydw[ok] = (f[ok] - pred[ok, None]) / total[ok, None]
        contrib = err[:, None] * dydw * partial  # (N, R)
        k_i = params.shape[0]
        B = np.zeros((N, k_i))
        for m in range(k_i):
            cols = idx[:, i] == m
            if np.any(cols):
                B[:, m] = contrib[:, cols].sum(axis=1)
        z = (X[:, i, None] - c[None, :]) / a[None, :]
        absz = np.abs(z)
        u_pow_b = absz ** (2.0 * b[None, :])
        mu2 = Ui**2
        zu = np.sign(z) * np.where(absz > 0.0, absz ** (2.0 * b[None, :] - 1.0), 0.0)
        dmu_dc = (2.0 * b[None, :] / a[None, :]) * zu * mu2
        dmu_da = (2.0 * b[None, :] / a[None, :]) * u_pow_b * mu2
        with np.errstate(divide="ignore", invalid="ignore"):
            log_u = np.where(absz > 0.0, 2.0 * np.log(absz), 0.0)
        dmu_db = -mu2 * u_pow_b * log_u
        g = np.zeros((k_i, 3))
        g[:, 0] = (2.0 / N) * (B * dmu_dc).sum(axis=0)
        g[:, 1] = (2.0 / N) * (B * dmu_da).sum(axis=0)
        g[:, 2] = (2.0 / N) * (B * dmu_db).sum(axis=0)
        grads.append(g)
    return grads


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
    epoch RMSE increases.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("training data must be nonempty")
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    model = copy.deepcopy(model)
    lr = learn_rate
    history: list[float] = []
    prev = math.inf
    for epoch in range(epochs):
        model.consequents = lse_consequents(model, X, y, ridge)
        grads = premise_gradients(model, X, y)
        for i, g in enumerate(grads):
            p = model.mf_params[i]
            p[:, 0] -= lr * g[:, 0]
            p[:, 1] = np.maximum(p[:, 1] - lr * g[:, 1], 1e-6)
            p[:, 2] = np.clip(p[:, 2] - lr * g[:, 2], 0.1, 50.0)
        value = rmse(model, X, y)
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


def model_from_dict(doc: dict) -> TskModel:
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported model schema_version {doc.get('schema_version')!r}"
        )
    norm = None
    if doc.get("normalization") is not None:
        nd = doc["normalization"]
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


def save_model(model: TskModel, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_json_text(model))


def load_model(path: str) -> TskModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def bin_angles(lo: float, hi: float, bins: int) -> np.ndarray:
    """Centers of ``bins`` equal angular bins spanning [lo, hi], unwrapped."""
    return lo + (np.arange(bins) + 0.5) * (hi - lo) / bins


def damage_map(
    model: TskModel,
    angular_bins: int,
    fixed_inputs: Optional[dict[str, float]] = None,
    per_bin_inputs: Optional[dict[str, Sequence[float]]] = None,
    angle_name: str = "angle_deg",
) -> list[tuple[float, float]]:
    """Predicted safety factor around the section, one value per angular bin.

    The position angle varies over the bins, spanning the angle domain seen
    in training (the dataset may parameterize the circle with a branch cut
    anywhere, e.g. 150..510).  Every other input is held at its training
    median unless overridden: fixed_inputs pins a scalar, per_bin_inputs
    supplies one value per bin (e.g. kernel block volumes along the
    boundary).  Predictions are de-normalized back to safety-factor units
    and angles are reported wrapped to [0, 360).
    """
    if angular_bins < 8:
        raise ValueError("need at least 8 angular bins")
    if model.normalization is None or model.input_medians is None:
        raise ValueError("model must carry normalization and input medians")
    names = list(model.input_names)
    if angle_name not in names:
        raise ValueError(f"model has no input named {angle_name!r}")
    angle_idx = names.index(angle_name)
    base = np.array(model.input_medians, dtype=float)
    for key, value in (fixed_inputs or {}).items():
        if key not in names:
            raise ValueError(f"unknown input {key!r}")
        base[names.index(key)] = float(value)
    rows = np.tile(base, (angular_bins, 1))
    angles = bin_angles(
        model.normalization.mins[angle_idx], model.normalization.maxs[angle_idx], angular_bins
    )
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
    return [(float(a % 360.0), float(v)) for a, v in zip(angles, sf)]
