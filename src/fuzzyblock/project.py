"""Project files: strict JSON schema for tunnel, joints, dataset, and model setup.

Parsing is strict because the inputs are safety-relevant: unknown keys are
errors (a typo must not silently fall back to a default), and every value is
range-checked with a diagnostic naming the offending key path.  Every
accepted key is read by some command, except fuzzy ``friction_deg``, which
is required and checked but not read yet.  Keys that earlier builds accepted
and ignored (``resolution``, ``bbox_margin_m``, ``unit_weight_kn_m3``, joint
``location``) are rejected as unknown, and so are ``axis_plunge_deg``, which
admitted only 0 (every tunnel axis is horizontal), and two with another
source: the seed-point override (``kernel.tunnel.seeded_halfspaces`` seeds
every block) and ``delta_variant`` (the ``--delta-variant`` flag of ``fuzzy
pbr``).

Each section parser imports the types of its own section, so a parse loads
a domain module only when the project holds its section: ``fuzzy_joints``
loads ``fuzzy_blocks``, ``geometry`` loads ``plane_geometry``, and
``dataset`` or ``anfis`` loads ``surrogate``.  A crisp project loads the
kernel and ``fuzzy_numbers`` alone.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from .fuzzy_numbers import DEFAULT_LABEL_THRESHOLDS, TrapezoidalNumber
from .kernel.orientation import JointPlane, Orientation
from .kernel.tunnel import TunnelSection

if TYPE_CHECKING:
    from .fuzzy_blocks import FuzzyOrientation
    from .plane_geometry import FuzzyPoint, FuzzyShape
    from .surrogate.dataset import DatasetSpec

SCHEMA_VERSION = 1


class ProjectError(Exception):
    """Base for all project-file problems."""


class ProjectIOError(ProjectError):
    pass


class ProjectSyntaxError(ProjectError):
    pass


class ProjectSchemaError(ProjectError):
    pass


class ProjectSemanticError(ProjectError):
    pass


def _check_keys(obj: dict, path: str, allowed: set[str], required: set[str]) -> None:
    for key in obj:
        if key not in allowed:
            raise ProjectSchemaError(f"unknown key {key!r} at {path}")
    for key in required:
        if key not in obj:
            raise ProjectSchemaError(f"missing required key {key!r} at {path}")


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProjectSchemaError(f"{path} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ProjectSemanticError(f"{path} must be finite, got {value!r}")
    return number


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProjectSchemaError(f"{path} must be an integer, got {value!r}")
    return value


def _pair(value: Any, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ProjectSchemaError(f"{path} must be a [lo, hi] pair")
    return (_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))


def _trapezoid(value: Any, path: str) -> TrapezoidalNumber:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return TrapezoidalNumber.crisp(_number(value, path))
    if not isinstance(value, list) or len(value) != 4:
        raise ProjectSchemaError(
            f"{path} must be a number or a 4-element [a1,a2,a3,a4] array"
        )
    knots = [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    try:
        return TrapezoidalNumber(*knots)
    except ValueError as exc:
        raise ProjectSemanticError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class AnfisConfig:
    mfs_per_input: tuple[int, ...] = (2, 2, 2, 8, 2)
    epochs: int = 30
    learn_rate: float = 0.01
    ridge: Optional[float] = 0.01
    train_fraction: float = 0.8
    split_seed: int = 999
    normalization_range: tuple[float, float] = (-1.0, 1.0)


@dataclass(frozen=True)
class GeometryJob:
    shape: FuzzyShape
    bbox: tuple[float, float, float, float]
    nx: int = 40
    ny: int = 40


@dataclass(frozen=True)
class ProjectConfig:
    tunnel: TunnelSection
    joints: tuple[JointPlane, ...] = ()
    fuzzy_joints: tuple[FuzzyOrientation, ...] = ()
    dataset: Optional[DatasetSpec] = None
    anfis: AnfisConfig = AnfisConfig()
    geometry: Optional[GeometryJob] = None
    label_thresholds: tuple[float, float, float] = DEFAULT_LABEL_THRESHOLDS


_TOP_KEYS = {
    "schema_version",
    "tunnel",
    "joints",
    "fuzzy_joints",
    "dataset",
    "anfis",
    "geometry",
    "label_thresholds",
}


def _parse_tunnel(obj: Any, path: str) -> TunnelSection:
    if not isinstance(obj, dict):
        raise ProjectSchemaError(f"{path} must be an object")
    _check_keys(obj, path, {"section", "axis_trend_deg"}, {"section"})
    section = obj["section"]
    if not isinstance(section, list) or len(section) < 3:
        raise ProjectSchemaError(f"{path}.section must list at least 3 [u, w] vertices")
    verts = []
    for i, v in enumerate(section):
        if not isinstance(v, list) or len(v) != 2:
            raise ProjectSchemaError(f"{path}.section[{i}] must be a [u, w] pair")
        verts.append((_number(v[0], f"{path}.section[{i}][0]"),
                      _number(v[1], f"{path}.section[{i}][1]")))
    trend = _number(obj.get("axis_trend_deg", 0.0), f"{path}.axis_trend_deg")
    if not 0.0 <= trend < 360.0:
        raise ProjectSemanticError(f"{path}.axis_trend_deg must lie in [0, 360)")
    try:
        return TunnelSection(tuple(verts), trend)
    except ValueError as exc:
        raise ProjectSemanticError(f"{path}.section: {exc}") from None


# the keys of a crisp and of a fuzzy joint; only the id is optional
_JOINT_KEYS = {"id", "dip_deg", "dip_direction_deg", "friction_deg"}


def _parse_joint(obj: Any, path: str, index: int) -> JointPlane:
    if not isinstance(obj, dict):
        raise ProjectSchemaError(f"{path} must be an object")
    _check_keys(obj, path, _JOINT_KEYS, _JOINT_KEYS - {"id"})
    dip = _number(obj["dip_deg"], f"{path}.dip_deg")
    dd = _number(obj["dip_direction_deg"], f"{path}.dip_direction_deg")
    phi = _number(obj["friction_deg"], f"{path}.friction_deg")
    try:
        return JointPlane(str(obj.get("id", f"J{index + 1}")), Orientation(dip, dd), phi)
    except ValueError as exc:
        raise ProjectSemanticError(f"{path}: {exc}") from None


def _parse_fuzzy_joint(obj: Any, path: str) -> FuzzyOrientation:
    from .fuzzy_blocks import FuzzyOrientation

    if not isinstance(obj, dict):
        raise ProjectSchemaError(f"{path} must be an object")
    _check_keys(obj, path, _JOINT_KEYS, _JOINT_KEYS - {"id"})
    dip = _trapezoid(obj["dip_deg"], f"{path}.dip_deg")
    dd = _trapezoid(obj["dip_direction_deg"], f"{path}.dip_direction_deg")
    phi = _trapezoid(obj["friction_deg"], f"{path}.friction_deg")
    try:
        fo = FuzzyOrientation(dip, dd)
    except ValueError as exc:
        raise ProjectSemanticError(f"{path}: {exc}") from None
    if phi.a1 < 0.0 or phi.a4 >= 90.0:
        raise ProjectSemanticError(f"{path}.friction_deg support must stay within [0, 90)")
    return fo


def _parse_dataset(obj: Any, path: str, tunnel: TunnelSection) -> DatasetSpec:
    from .surrogate.dataset import DatasetSpec

    if not isinstance(obj, dict):
        raise ProjectSchemaError(f"{path} must be an object")
    _check_keys(
        obj,
        path,
        {
            "sample_count",
            "seed",
            "dip_range",
            "dip_direction_range",
            "friction_range",
            "angle_range",
            "sf_cap",
        },
        set(),
    )
    kwargs: dict[str, Any] = {}
    if "sample_count" in obj:
        kwargs["sample_count"] = _integer(obj["sample_count"], f"{path}.sample_count")
    if "seed" in obj:
        kwargs["seed"] = _integer(obj["seed"], f"{path}.seed")
    for name in ("dip_range", "dip_direction_range", "friction_range", "angle_range"):
        if name in obj:
            kwargs[name] = _pair(obj[name], f"{path}.{name}")
    if "sf_cap" in obj:
        kwargs["sf_cap"] = _number(obj["sf_cap"], f"{path}.sf_cap")
    try:
        return DatasetSpec(tunnel=tunnel, **kwargs)
    except ValueError as exc:
        raise ProjectSemanticError(f"{path}: {exc}") from None


def _parse_anfis(obj: Any, path: str) -> AnfisConfig:
    from .surrogate.dataset import FEATURE_NAMES
    from .surrogate.model import check_step_sizes

    if not isinstance(obj, dict):
        raise ProjectSchemaError(f"{path} must be an object")
    _check_keys(
        obj,
        path,
        {
            "mfs_per_input",
            "epochs",
            "learn_rate",
            "ridge",
            "train_fraction",
            "split_seed",
            "normalization_range",
        },
        set(),
    )
    kwargs: dict[str, Any] = {}
    if "mfs_per_input" in obj:
        raw = obj["mfs_per_input"]
        if isinstance(raw, int) and not isinstance(raw, bool):
            kwargs["mfs_per_input"] = (raw,) * len(FEATURE_NAMES)
        elif isinstance(raw, list) and len(raw) == len(FEATURE_NAMES):
            kwargs["mfs_per_input"] = tuple(
                _integer(v, f"{path}.mfs_per_input[{i}]") for i, v in enumerate(raw)
            )
        else:
            raise ProjectSchemaError(
                f"{path}.mfs_per_input must be an integer or a {len(FEATURE_NAMES)}-element list"
            )
        if any(k < 2 for k in kwargs["mfs_per_input"]):
            raise ProjectSemanticError(f"{path}.mfs_per_input entries must be >= 2")
    if "epochs" in obj:
        kwargs["epochs"] = _integer(obj["epochs"], f"{path}.epochs")
        if kwargs["epochs"] < 1:
            raise ProjectSemanticError(f"{path}.epochs must be >= 1")
    if "learn_rate" in obj:
        kwargs["learn_rate"] = _number(obj["learn_rate"], f"{path}.learn_rate")
    if "ridge" in obj:
        kwargs["ridge"] = (
            None if obj["ridge"] is None else _number(obj["ridge"], f"{path}.ridge")
        )
    try:
        check_step_sizes(kwargs.get("learn_rate"), kwargs.get("ridge"))
    except ValueError as exc:
        raise ProjectSemanticError(f"{path}.{exc}") from None
    if "train_fraction" in obj:
        kwargs["train_fraction"] = _number(obj["train_fraction"], f"{path}.train_fraction")
        if not 0.0 < kwargs["train_fraction"] <= 1.0:
            raise ProjectSemanticError(f"{path}.train_fraction must lie in (0, 1]")
    if "split_seed" in obj:
        kwargs["split_seed"] = _integer(obj["split_seed"], f"{path}.split_seed")
    if "normalization_range" in obj:
        lo, hi = _pair(obj["normalization_range"], f"{path}.normalization_range")
        if hi <= lo:
            raise ProjectSemanticError(f"{path}.normalization_range must have hi > lo")
        kwargs["normalization_range"] = (lo, hi)
    return AnfisConfig(**kwargs)


def _parse_fuzzy_point(obj: Any, path: str) -> FuzzyPoint:
    from .plane_geometry import FuzzyPoint

    if not isinstance(obj, dict):
        raise ProjectSchemaError(f"{path} must be an object")
    _check_keys(obj, path, {"x", "y"}, {"x", "y"})
    return FuzzyPoint(_trapezoid(obj["x"], f"{path}.x"), _trapezoid(obj["y"], f"{path}.y"))


def _parse_geometry(obj: Any, path: str) -> GeometryJob:
    from .plane_geometry import FuzzyLineImplicit, FuzzyPolygon, FuzzySegment

    if not isinstance(obj, dict):
        raise ProjectSchemaError(f"{path} must be an object")
    _check_keys(obj, path, {"shape", "bbox", "nx", "ny"}, {"shape", "bbox"})
    shape_obj = obj["shape"]
    if not isinstance(shape_obj, dict) or "type" not in shape_obj:
        raise ProjectSchemaError(f"{path}.shape must be an object with a 'type' key")
    kind = shape_obj["type"]
    spath = f"{path}.shape"
    if kind == "line":
        _check_keys(shape_obj, spath, {"type", "a", "b", "c"}, {"a", "b", "c"})
        try:
            shape: FuzzyShape = FuzzyLineImplicit(
                _trapezoid(shape_obj["a"], f"{spath}.a"),
                _trapezoid(shape_obj["b"], f"{spath}.b"),
                _trapezoid(shape_obj["c"], f"{spath}.c"),
            )
        except ValueError as exc:
            raise ProjectSemanticError(f"{spath}: {exc}") from None
    elif kind == "segment":
        _check_keys(shape_obj, spath, {"type", "p", "q"}, {"p", "q"})
        shape = FuzzySegment(
            _parse_fuzzy_point(shape_obj["p"], f"{spath}.p"),
            _parse_fuzzy_point(shape_obj["q"], f"{spath}.q"),
        )
    elif kind == "polygon":
        _check_keys(shape_obj, spath, {"type", "vertices"}, {"vertices"})
        raw = shape_obj["vertices"]
        if not isinstance(raw, list) or len(raw) < 3:
            raise ProjectSchemaError(f"{spath}.vertices must list at least 3 points")
        shape = FuzzyPolygon(
            tuple(
                _parse_fuzzy_point(v, f"{spath}.vertices[{i}]") for i, v in enumerate(raw)
            )
        )
    else:
        raise ProjectSchemaError(
            f"{spath}.type must be one of 'line', 'segment', 'polygon', got {kind!r}"
        )
    bbox = obj["bbox"]
    if not isinstance(bbox, list) or len(bbox) != 4:
        raise ProjectSchemaError(f"{path}.bbox must be [xmin, ymin, xmax, ymax]")
    bbox = tuple(_number(v, f"{path}.bbox[{i}]") for i, v in enumerate(bbox))
    if not (bbox[2] > bbox[0] and bbox[3] > bbox[1]):
        raise ProjectSemanticError(f"{path}.bbox is degenerate: {list(bbox)}")
    nx = _integer(obj.get("nx", 40), f"{path}.nx")
    ny = _integer(obj.get("ny", 40), f"{path}.ny")
    if nx < 2 or ny < 2:
        raise ProjectSemanticError(f"{path}: nx and ny must be at least 2")
    return GeometryJob(shape, bbox, nx, ny)


def parse_project_dict(doc: Any) -> ProjectConfig:
    if not isinstance(doc, dict):
        raise ProjectSchemaError("project root must be a JSON object")
    _check_keys(doc, "$", _TOP_KEYS, {"schema_version", "tunnel"})
    version = _integer(doc["schema_version"], "$.schema_version")
    if version != SCHEMA_VERSION:
        raise ProjectSchemaError(
            f"unsupported schema_version {version!r}; this build reads version {SCHEMA_VERSION}"
        )
    tunnel = _parse_tunnel(doc["tunnel"], "$.tunnel")

    joints = []
    raw_joints = doc.get("joints", [])
    if not isinstance(raw_joints, list):
        raise ProjectSchemaError("$.joints must be an array")
    for i, obj in enumerate(raw_joints):
        joints.append(_parse_joint(obj, f"$.joints[{i}]", i))
    if len({j.id for j in joints}) != len(joints):
        raise ProjectSemanticError("$.joints ids must be unique")

    raw_fuzzy = doc.get("fuzzy_joints", [])
    if not isinstance(raw_fuzzy, list):
        raise ProjectSchemaError("$.fuzzy_joints must be an array")
    fuzzy_joints = [
        _parse_fuzzy_joint(obj, f"$.fuzzy_joints[{i}]") for i, obj in enumerate(raw_fuzzy)
    ]

    dataset = None
    if "dataset" in doc:
        dataset = _parse_dataset(doc["dataset"], "$.dataset", tunnel)
    anfis = _parse_anfis(doc["anfis"], "$.anfis") if "anfis" in doc else AnfisConfig()
    geometry = _parse_geometry(doc["geometry"], "$.geometry") if "geometry" in doc else None

    thresholds = doc.get("label_thresholds", list(DEFAULT_LABEL_THRESHOLDS))
    if not isinstance(thresholds, list) or len(thresholds) != 3:
        raise ProjectSchemaError("$.label_thresholds must be a 3-element array")
    thresholds = tuple(_number(v, f"$.label_thresholds[{i}]") for i, v in enumerate(thresholds))
    if not (1.0 >= thresholds[0] > thresholds[1] > thresholds[2] >= 0.0):
        raise ProjectSemanticError("$.label_thresholds must strictly decrease within [0, 1]")

    return ProjectConfig(
        tunnel=tunnel,
        joints=tuple(joints),
        fuzzy_joints=tuple(fuzzy_joints),
        dataset=dataset,
        anfis=anfis,
        geometry=geometry,
        label_thresholds=thresholds,
    )


def parse_project(path: str) -> ProjectConfig:
    """Load and validate a project file, materializing all defaults."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProjectIOError(f"cannot read project file {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProjectSyntaxError(f"invalid JSON in {path}: {exc}") from None
    return parse_project_dict(doc)
