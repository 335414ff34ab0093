"""Monte-Carlo dataset generation from the block kernel, plus normalization.

Each sample draws one joint attitude, a friction angle, and a position angle
around the tunnel, then runs the kernel's sliding analysis for the block cut
by that joint at that position.  Per-sample randomness is counter-based
(keyed by seed and sample index), so a sample depends only on the seed and
its index.
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..kernel.mechanics import safety_factor, sliding_mode
from ..kernel.orientation import Orientation, normal_from_orientation
from ..kernel.pyramid import HalfSpaceSystem
from ..kernel.tunnel import GRAVITY_DIR, TunnelSection
from ..kernel.volume import block_volume

log = logging.getLogger(__name__)

FEATURE_NAMES = ("dip_deg", "dipdir_deg", "phi_deg", "angle_deg", "volume_m3")
TARGET_NAME = "sf"
CSV_HEADER = FEATURE_NAMES + (TARGET_NAME,)

_MAX_REDRAWS = 16
_EXIT_TOL = 1e-9


@dataclass(frozen=True)
class DatasetSpec:
    """Fixed tunnel geometry plus ranges for the changeable joint parameters."""

    tunnel: TunnelSection
    unit_weight: float = 27.0
    dip_range: tuple[float, float] = (10.0, 80.0)
    dip_direction_range: tuple[float, float] = (0.0, 360.0)
    friction_range: tuple[float, float] = (15.0, 25.0)
    angle_range: tuple[float, float] = (0.0, 360.0)
    sample_count: int = 283
    seed: int = 0
    sf_cap: float = 5.0
    seed_offset: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("dip_range", "dip_direction_range", "friction_range", "angle_range"):
            lo, hi = getattr(self, name)
            if not hi > lo:
                raise ValueError(f"{name} must be a nonempty range, got ({lo}, {hi})")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.sf_cap <= 0:
            raise ValueError("sf_cap must be positive")


@dataclass(frozen=True)
class Sample:
    dip_deg: float
    dipdir_deg: float
    phi_deg: float
    angle_deg: float
    volume_m3: float
    sf: float

    @property
    def inputs(self) -> np.ndarray:
        return np.array(
            [self.dip_deg, self.dipdir_deg, self.phi_deg, self.angle_deg, self.volume_m3]
        )


def single_joint_case(
    tunnel: TunnelSection,
    dip: float,
    dd: float,
    phi: float,
    theta: float,
    sf_cap: float = 5.0,
    seed_offset: Optional[float] = None,
) -> Sample:
    """Kinematic analysis of the single-joint block at one boundary position.

    Both sides of the joint are checked; a side counts only when its sliding
    direction actually exits the rock through the facet.  The critical
    (lowest) safety factor wins; if neither side can move, the stable
    sentinel (the cap) is used.
    """
    facet, boundary_point = tunnel.facet_at_angle(theta % 360.0)
    offset = seed_offset if seed_offset is not None else 0.25 * facet.edge_length
    seed_point = boundary_point + offset * facet.inward_normal
    n = normal_from_orientation(Orientation(dip, dd % 360.0))
    e = facet.inward_normal
    r = np.asarray(GRAVITY_DIR)
    bbox = tunnel.section_bbox()

    best_sf = math.inf
    best_side: Optional[str] = None
    for side, sign in (("L", -1.0), ("U", 1.0)):
        jp = HalfSpaceSystem((sign * n).reshape(1, 3))
        mode = sliding_mode(jp, r)
        if mode.kind == "safe" or mode.direction is None:
            continue
        if float(mode.direction @ e) >= -_EXIT_TOL:
            continue  # motion stays inside the rock: not a failure through this facet
        sf = safety_factor(jp, mode, r, [phi])
        if sf < best_sf:
            best_sf = sf
            best_side = side

    volume_side = best_side if best_side is not None else "L"
    sign = 1.0 if volume_side == "U" else -1.0
    m = sign * n
    halfspaces = [
        (m, float(m @ seed_point)),
        (e, float(e @ boundary_point)),
    ]
    volume = block_volume(halfspaces, bbox, allow_bbox_clip=True)
    return Sample(dip, dd, phi, theta, volume, min(best_sf, sf_cap))


def _single_joint_case(
    spec: DatasetSpec, dip: float, dd: float, phi: float, theta: float
) -> Sample:
    return single_joint_case(
        spec.tunnel, dip, dd, phi, theta, spec.sf_cap, spec.seed_offset
    )


def _draw_sample(spec: DatasetSpec, index: int) -> Sample:
    key = np.array([spec.seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    last_error: Optional[Exception] = None
    for attempt in range(_MAX_REDRAWS):
        # angles are kept unwrapped so the position feature stays continuous
        # even when the configured range crosses 360
        dip = rng.uniform(*spec.dip_range)
        dd = rng.uniform(*spec.dip_direction_range)
        phi = rng.uniform(*spec.friction_range)
        theta = rng.uniform(*spec.angle_range)
        try:
            return _single_joint_case(spec, dip, dd, phi, theta)
        except Exception as exc:
            last_error = exc
            log.warning("sample %d attempt %d failed: %s; redrawing", index, attempt, exc)
    raise RuntimeError(
        f"sample {index} failed after {_MAX_REDRAWS} redraws: {last_error}"
    )


def generate_dataset(spec: DatasetSpec) -> list[Sample]:
    """Generate the dataset; identical output for identical (spec, seed)."""
    return [_draw_sample(spec, i) for i in range(spec.sample_count)]


@dataclass(frozen=True)
class NormalizationRecord:
    """Per-variable affine maps onto a common range, invertible."""

    feature_names: tuple[str, ...]
    mins: tuple[float, ...]  # per feature, then target last
    maxs: tuple[float, ...]
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if len(self.mins) != len(self.maxs) or len(self.mins) != len(self.feature_names) + 1:
            raise ValueError("record needs one (min, max) per feature plus the target")
        if not self.hi > self.lo:
            raise ValueError("normalization range must be nonempty")

    def _map(self, value, lo_v, hi_v):
        return self.lo + (value - lo_v) * (self.hi - self.lo) / (hi_v - lo_v)

    def _unmap(self, value, lo_v, hi_v):
        return lo_v + (value - self.lo) * (hi_v - lo_v) / (self.hi - self.lo)

    def apply_features(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty_like(X)
        for k in range(X.shape[1]):
            out[:, k] = self._map(X[:, k], self.mins[k], self.maxs[k])
        return out

    def apply_target(self, y: np.ndarray) -> np.ndarray:
        return self._map(np.asarray(y, dtype=float), self.mins[-1], self.maxs[-1])

    def invert_target(self, y: np.ndarray) -> np.ndarray:
        return self._unmap(np.asarray(y, dtype=float), self.mins[-1], self.maxs[-1])


def normalize(
    samples: Sequence[Sample], value_range: tuple[float, float] = (-1.0, 1.0)
) -> tuple[np.ndarray, np.ndarray, NormalizationRecord]:
    """Map every variable affinely onto value_range; returns (X, y, record)."""
    lo, hi = value_range
    if not hi > lo:
        raise ValueError("normalization range must be nonempty")
    X = np.array([s.inputs for s in samples], dtype=float)
    y = np.array([s.sf for s in samples], dtype=float)
    mins, maxs = [], []
    for k, name in enumerate(FEATURE_NAMES):
        col_min, col_max = float(X[:, k].min()), float(X[:, k].max())
        if col_max == col_min:
            raise ValueError(f"column {name} is constant; cannot normalize")
        mins.append(col_min)
        maxs.append(col_max)
    t_min, t_max = float(y.min()), float(y.max())
    if t_max == t_min:
        raise ValueError("target column is constant; cannot normalize")
    mins.append(t_min)
    maxs.append(t_max)
    record = NormalizationRecord(FEATURE_NAMES, tuple(mins), tuple(maxs), lo, hi)
    return record.apply_features(X), record.apply_target(y), record


def write_dataset_csv(path: str, samples: Sequence[Sample]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for s in samples:
            writer.writerow(
                [
                    repr(s.dip_deg),
                    repr(s.dipdir_deg),
                    repr(s.phi_deg),
                    repr(s.angle_deg),
                    repr(s.volume_m3),
                    repr(s.sf),
                ]
            )


def read_dataset_csv(path: str) -> list[Sample]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_HEADER:
            raise ValueError(
                f"dataset header must be {','.join(CSV_HEADER)}, got {header}"
            )
        out = []
        for row in reader:
            if not row:
                continue
            vals = [float(v) for v in row]
            out.append(Sample(*vals))
    return out
