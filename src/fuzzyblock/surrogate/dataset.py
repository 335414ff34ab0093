"""Monte-Carlo dataset generation from the block kernel, plus normalization.

Each sample draws one joint attitude, a friction angle, and a position angle
around the tunnel, then runs the kernel's sliding analysis for the block cut
by that joint at that position, for all samples in one numpy pass.
Per-sample randomness is counter-based (keyed by seed and sample index), so a
sample depends only on the seed and its index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..csv_io import csv_text, finite_rows, read_csv_rows
from ..kernel.mechanics import ModeInconsistencyError, block_mechanics
from ..kernel.orientation import Orientation, normal_from_orientation, wrap_azimuth
from ..kernel.tunnel import GRAVITY_DIR, TunnelSection, seeded_halfspaces
from ..kernel.volume import bbox_halfspaces, block_volumes

FEATURE_NAMES = ("dip_deg", "dipdir_deg", "phi_deg", "angle_deg", "volume_m3")
TARGET_NAME = "sf"
CSV_HEADER = FEATURE_NAMES + (TARGET_NAME,)

DEFAULT_SF_CAP = 5.0
_EXIT_TOL = 1e-9


@dataclass(frozen=True)
class DatasetSpec:
    """Fixed tunnel geometry plus ranges for the changeable joint parameters."""

    tunnel: TunnelSection
    dip_range: tuple[float, float] = (10.0, 80.0)
    dip_direction_range: tuple[float, float] = (0.0, 360.0)
    friction_range: tuple[float, float] = (15.0, 25.0)
    angle_range: tuple[float, float] = (0.0, 360.0)
    sample_count: int = 283
    seed: int = 0
    sf_cap: float = DEFAULT_SF_CAP

    def __post_init__(self) -> None:
        """Reject any range that could draw a sample the kernel cannot analyze."""
        for name in ("dip_range", "dip_direction_range", "friction_range", "angle_range"):
            lo, hi = getattr(self, name)
            if not math.isfinite(hi - lo):
                raise ValueError(f"{name} must have finite ends and width, got ({lo}, {hi})")
            if not hi > lo:
                raise ValueError(f"{name} must be a nonempty range, got ({lo}, {hi})")
        if self.dip_range[0] < 0.0 or self.dip_range[1] > 90.0:
            raise ValueError(f"dip_range must stay within [0, 90], got {self.dip_range}")
        if self.friction_range[0] < 0.0 or self.friction_range[1] >= 90.0:
            raise ValueError(
                f"friction_range must stay within [0, 90), got {self.friction_range}"
            )
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


Draw = tuple[float, float, float, float]  # dip, dip direction, friction, position angle


def _wedges(
    tunnel: TunnelSection,
    draws: Sequence[Draw],
    sf_cap: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Critical safety factor, volume side, and wedge half-spaces of every draw.

    Returns sf (N,), upper (N,) (True where the wedge lies on the joint's
    upper side), normals (N, 8, 3) and offsets (N, 8): the joint and facet
    planes of ``seeded_halfspaces`` at the hit point first, then the six
    planes of the section box, which close the dihedral wedge those two
    leave unbounded.  Each side of the joint is a one-plane JP, and one
    ``block_mechanics`` call, the sweep's routine, gives the modes and SFs of
    both sides of all draws.
    """
    facets = tunnel.facets()
    hit, points = tunnel.facets_at_angles([theta % 360.0 for *_, theta in draws])
    missing = np.flatnonzero(hit < 0)
    if missing.size:
        raise ValueError(f"no facet found at angle {draws[missing[0]][3]}")
    e = np.array([f.inward_normal for f in facets])[hit]
    n = np.array([normal_from_orientation(Orientation(dip, wrap_azimuth(dd)))
                  for dip, dd, *_ in draws])
    tan_phi = np.array([[math.tan(math.radians(phi))] for _, _, phi, _ in draws])

    # the L side of every draw, then the U side
    mech = block_mechanics(np.concatenate([-n, n])[:, None], GRAVITY_DIR, np.tile(tan_phi, (2, 1)))
    # a side counts, and its failed reactions raise, only where its sliding
    # direction exits the rock through the facet
    exits = (mech.kind != "safe") & (np.vecdot(mech.direction, np.tile(e, (2, 1))) < -_EXIT_TOL)
    for k in np.flatnonzero(exits):
        if mech.error[k] is not None:
            raise ModeInconsistencyError(mech.error[k])
    sf_l, sf_u = np.where(exits, mech.sf, math.inf).reshape(2, len(draws))
    upper = sf_u < sf_l  # L wins ties
    best_sf = np.where(upper, sf_u, sf_l)

    m = np.where(upper, 1.0, -1.0)[:, None] * n
    wedge_n, wedge_d = seeded_halfspaces(m[:, None], facets, hit, points)
    box_n, box_d = bbox_halfspaces(*tunnel.section_bbox())
    normals = np.concatenate(
        [wedge_n, np.broadcast_to(box_n, (len(draws),) + box_n.shape)], axis=1
    )
    offsets = np.concatenate(
        [wedge_d, np.broadcast_to(box_d, (len(draws),) + box_d.shape)], axis=1
    )
    return np.where(sf_cap < best_sf, sf_cap, best_sf), upper, normals, offsets


def joint_cases(
    tunnel: TunnelSection,
    draws: Sequence[Draw],
    sf_cap: float = DEFAULT_SF_CAP,
) -> list[Sample]:
    """Kinematic analysis of the single-joint block of each draw.

    Both sides of the joint are checked; a side counts only when its sliding
    direction actually exits the rock through the facet.  The critical
    (lowest) safety factor wins; if neither side can move, the stable
    sentinel (the cap) is used.  The volume is that of the wedge cut by the
    joint through the seed point of ``seeded_halfspaces`` and the facet,
    closed by the section box.  Modes and SFs come from one call of the
    sweep's batched ``block_mechanics`` (a one-plane JP per side), and
    volumes from one ``block_volumes`` call; both give a row the bits it
    gets alone, so a sample does not depend on its batch.  Any failure
    propagates.
    """
    if not draws:
        return []
    sf, _, normals, offsets = _wedges(tunnel, draws, sf_cap)
    volumes = block_volumes(normals, offsets)
    return [Sample(*draw, float(v), float(f)) for draw, v, f in zip(draws, volumes, sf)]


def single_joint_case(
    tunnel: TunnelSection,
    dip: float,
    dd: float,
    phi: float,
    theta: float,
    sf_cap: float = DEFAULT_SF_CAP,
) -> Sample:
    """``joint_cases`` for one draw: the sample at one boundary position."""
    return joint_cases(tunnel, [(dip, dd, phi, theta)], sf_cap)[0]


def _draw(spec: DatasetSpec, rng: np.random.Generator) -> Draw:
    # angles are kept unwrapped so the position feature stays continuous
    # even when the configured range crosses 360
    dip = rng.uniform(*spec.dip_range)
    dd = rng.uniform(*spec.dip_direction_range)
    phi = rng.uniform(*spec.friction_range)
    theta = rng.uniform(*spec.angle_range)
    return dip, dd, phi, theta


def _rekeyed(rng: np.random.Generator, seed: int, index: int) -> np.random.Generator:
    """``rng`` with its Philox bit generator at the start of the stream keyed by
    (seed, index): counter 0 and an empty buffer, as ``Philox(key=...)`` starts."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & 0xFFFFFFFFFFFFFFFF, index)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def stream(seed: int, index: int) -> np.random.Generator:
    """The random stream keyed by (seed, index): a dataset sample's, or the train/test split's."""
    return _rekeyed(np.random.Generator(np.random.Philox(0)), seed, index)


def generate_dataset(spec: DatasetSpec) -> list[Sample]:
    """Generate the dataset; identical output for identical (spec, seed).

    Sample i is the first draw of its own Philox stream keyed by (seed, i),
    so it does not depend on the sample count; one generator, re-keyed per
    sample, draws them all.  ``DatasetSpec`` admits only ranges whose every
    draw the kernel can analyze, and all draws go through one
    ``joint_cases`` call, so each sample is bit-identical to
    ``single_joint_case`` on its draw; a failure propagates.
    """
    rng = stream(spec.seed, 0)
    draws = [_draw(spec, _rekeyed(rng, spec.seed, i)) for i in range(spec.sample_count)]
    return joint_cases(spec.tunnel, draws, spec.sf_cap)


def check_finite_numbers(values: Sequence, what: str) -> None:
    """ValueError unless every value is a finite int or float (a bool is not).

    Model files come from outside the program, so their numbers are checked
    when a model or record is built, not when a command first uses them.
    """
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"{what} must be finite numbers, got {v!r}")


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
        check_finite_numbers((*self.mins, *self.maxs), "normalization mins and maxs")
        for name, lo, hi in zip((*self.feature_names, TARGET_NAME), self.mins, self.maxs):
            if not hi > lo:
                raise ValueError(f"{name} is constant or reversed: its normalization "
                                 f"max {hi!r} must exceed its min {lo!r}")
        check_finite_numbers((self.lo, self.hi), "normalization range ends")
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
    """Map every variable affinely onto value_range; returns (X, y, record).

    A constant variable cannot be mapped: the record names it in a ValueError.
    """
    if len(samples) == 0:
        raise ValueError("cannot normalize an empty sample list")
    X = np.array([s.inputs for s in samples], dtype=float)
    y = np.array([s.sf for s in samples], dtype=float)
    mins = tuple(float(column.min()) for column in (*X.T, y))
    maxs = tuple(float(column.max()) for column in (*X.T, y))
    record = NormalizationRecord(FEATURE_NAMES, mins, maxs, *value_range)
    return record.apply_features(X), record.apply_target(y), record


def dataset_csv_text(samples: Sequence[Sample]) -> str:
    """The dataset CSV: header plus one row of repr() values per sample."""
    rows = [
        [repr(v) for v in (s.dip_deg, s.dipdir_deg, s.phi_deg, s.angle_deg, s.volume_m3, s.sf)]
        for s in samples
    ]
    return csv_text(CSV_HEADER, rows)


def read_dataset_csv(path: str) -> list[Sample]:
    _, rows, lines = read_csv_rows(path, CSV_HEADER)
    return [Sample(*values) for values in finite_rows(rows, CSV_HEADER, path, lines)]
