"""Project files: strict JSON schema for tunnel, joints, dataset, and model setup.

Parsing is strict because the inputs are safety-relevant: unknown keys are
errors (a typo must not silently fall back to a default), and every value is
range-checked with a diagnostic naming the offending key path.  Keys that
schema version 1 accepts and checks but no computation reads
(``resolution``, ``unit_weight_kn_m3``, joint ``location``) are logged as
ignored; fuzzy ``friction_deg`` is required and checked but not read yet.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Any, Optional

from .fuzzy_numbers import TrapezoidalNumber
from .fuzzy_blocks import DEFAULT_LABEL_THRESHOLDS, FuzzyOrientation
from .kernel.orientation import JointPlane, Orientation
from .kernel.tunnel import TunnelSection
from .plane_geometry import (
    FuzzyLineImplicit,
    FuzzyPoint,
    FuzzyPolygon,
    FuzzySegment,
    FuzzyShape,
)
from .surrogate.dataset import DatasetSpec

SCHEMA_VERSION = 1

log = logging.getLogger(__name__)


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
    return float(value)


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
        return TrapezoidalNumber.crisp(float(value))
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
    delta_variant: str = "paper"
    label_thresholds: tuple[float, float, float] = DEFAULT_LABEL_THRESHOLDS
    seed_offset_m: Optional[float] = None
    bbox_margin_m: Optional[float] = None


_TOP_KEYS = {
    "schema_version",
    "tunnel",
    "unit_weight_kn_m3",
    "joints",
    "fuzzy_joints",
    "dataset",
    "anfis",
    "geometry",
    "delta_variant",
    "label_thresholds",
    "resolution",
    "seed_offset_m",
    "bbox_margin_m",
}


def _parse_tunnel(obj: Any, path: str) -> TunnelSection:
    if not isinstance(obj, dict):
        raise ProjectSchemaError(f"{path} must be an object")
    _check_keys(obj, path, {"section", "axis_trend_deg", "axis_plunge_deg"}, {"section"})
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
    plunge = _number(obj.get("axis_plunge_deg", 0.0), f"{path}.axis_plunge_deg")
    if plunge != 0.0:
        raise ProjectSemanticError(
            f"{path}.axis_plunge_deg must be 0 (only horizontal tunnel axes are modeled)"
        )
    if not 0.0 <= trend < 360.0:
        raise ProjectSemanticError(f"{path}.axis_trend_deg must lie in [0, 360)")
    try:
        return TunnelSection(tuple(verts), trend)
    except ValueError as exc:
        raise ProjectSemanticError(f"{path}.section: {exc}") from None


def _parse_joint(obj: Any, path: str, index: int) -> JointPlane:
    if not isinstance(obj, dict):
        raise ProjectSchemaError(f"{path} must be an object")
    _check_keys(
        obj,
        path,
        {"id", "dip_deg", "dip_direction_deg", "friction_deg", "location"},
        {"dip_deg", "dip_direction_deg", "friction_deg"},
    )
    dip = _number(obj["dip_deg"], f"{path}.dip_deg")
    dd = _number(obj["dip_direction_deg"], f"{path}.dip_direction_deg")
    phi = _number(obj["friction_deg"], f"{path}.friction_deg")
    if not 0.0 <= dip <= 90.0:
        raise ProjectSemanticError(f"{path}.dip_deg must lie in [0, 90], got {dip}")
    if not 0.0 <= dd < 360.0:
        raise ProjectSemanticError(f"{path}.dip_direction_deg must lie in [0, 360), got {dd}")
    if not 0.0 <= phi < 90.0:
        raise ProjectSemanticError(f"{path}.friction_deg must lie in [0, 90), got {phi}")
    location = obj.get("location")
    if location is not None:
        if not isinstance(location, list) or len(location) != 3:
            raise ProjectSchemaError(f"{path}.location must be a 3-element [x, y, z] array")
        for i, v in enumerate(location):
            _number(v, f"{path}.location[{i}]")
        log.warning("%s.location is ignored: the sweep anchors joints at facet seed points",
                    path)
    return JointPlane(
        id=str(obj.get("id", f"J{index + 1}")),
        orientation=Orientation(dip, dd),
        friction_deg=phi,
    )


def _parse_fuzzy_joint(obj: Any, path: str) -> FuzzyOrientation:
    if not isinstance(obj, dict):
        raise ProjectSchemaError(f"{path} must be an object")
    _check_keys(
        obj,
        path,
        {"id", "dip_deg", "dip_direction_deg", "friction_deg"},
        {"dip_deg", "dip_direction_deg", "friction_deg"},
    )
    dip = _trapezoid(obj["dip_deg"], f"{path}.dip_deg")
    dd = _trapezoid(obj["dip_direction_deg"], f"{path}.dip_direction_deg")
    phi = _trapezoid(obj["friction_deg"], f"{path}.friction_deg")
    if dip.a1 < 0.0 or dip.a4 > 90.0:
        raise ProjectSemanticError(f"{path}.dip_deg support must stay within [0, 90]")
    if dd.a4 - dd.a1 >= 90.0:
        raise ProjectSemanticError(
            f"{path}.dip_direction_deg support must be narrower than 90 degrees"
        )
    if phi.a1 < 0.0 or phi.a4 >= 90.0:
        raise ProjectSemanticError(f"{path}.friction_deg support must stay within [0, 90)")
    return FuzzyOrientation(dip, dd)


def _parse_dataset(obj: Any, path: str, tunnel: TunnelSection,
                   seed_offset: Optional[float]) -> DatasetSpec:
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
    if "dip_range" in kwargs:
        lo, hi = kwargs["dip_range"]
        if lo < 0.0 or hi > 90.0:
            raise ProjectSemanticError(f"{path}.dip_range must stay within [0, 90]")
    if "friction_range" in kwargs:
        lo, hi = kwargs["friction_range"]
        if lo < 0.0 or hi >= 90.0:
            raise ProjectSemanticError(f"{path}.friction_range must stay within [0, 90)")
    try:
        return DatasetSpec(tunnel=tunnel, seed_offset=seed_offset, **kwargs)
    except ValueError as exc:
        raise ProjectSemanticError(f"{path}: {exc}") from None


def _parse_anfis(obj: Any, path: str) -> AnfisConfig:
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
            kwargs["mfs_per_input"] = (raw,) * 5
        elif isinstance(raw, list) and len(raw) == 5:
            kwargs["mfs_per_input"] = tuple(
                _integer(v, f"{path}.mfs_per_input[{i}]") for i, v in enumerate(raw)
            )
        else:
            raise ProjectSchemaError(
                f"{path}.mfs_per_input must be an integer or a 5-element list"
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
    if not isinstance(obj, dict):
        raise ProjectSchemaError(f"{path} must be an object")
    _check_keys(obj, path, {"x", "y"}, {"x", "y"})
    return FuzzyPoint(_trapezoid(obj["x"], f"{path}.x"), _trapezoid(obj["y"], f"{path}.y"))


def _parse_geometry(obj: Any, path: str) -> GeometryJob:
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
    version = doc["schema_version"]
    if version != SCHEMA_VERSION:
        raise ProjectSchemaError(
            f"unsupported schema_version {version!r}; this build reads version {SCHEMA_VERSION}"
        )
    tunnel = _parse_tunnel(doc["tunnel"], "$.tunnel")
    if "unit_weight_kn_m3" in doc:
        if _number(doc["unit_weight_kn_m3"], "$.unit_weight_kn_m3") <= 0.0:
            raise ProjectSemanticError("$.unit_weight_kn_m3 must be positive")
        log.warning("$.unit_weight_kn_m3 is ignored: safety factors are friction-only")

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

    seed_offset = doc.get("seed_offset_m")
    if seed_offset is not None:
        seed_offset = _number(seed_offset, "$.seed_offset_m")
        if seed_offset <= 0.0:
            raise ProjectSemanticError("$.seed_offset_m must be positive")
    bbox_margin = doc.get("bbox_margin_m")
    if bbox_margin is not None:
        bbox_margin = _number(bbox_margin, "$.bbox_margin_m")
        if bbox_margin <= 0.0:
            raise ProjectSemanticError("$.bbox_margin_m must be positive")

    dataset = None
    if "dataset" in doc:
        dataset = _parse_dataset(doc["dataset"], "$.dataset", tunnel, seed_offset)
    anfis = _parse_anfis(doc.get("anfis", {}), "$.anfis")
    geometry = _parse_geometry(doc["geometry"], "$.geometry") if "geometry" in doc else None

    variant = doc.get("delta_variant", "paper")
    if variant not in ("paper", "standard"):
        raise ProjectSemanticError(
            f"$.delta_variant must be 'paper' or 'standard', got {variant!r}"
        )
    thresholds = doc.get("label_thresholds", list(DEFAULT_LABEL_THRESHOLDS))
    if not isinstance(thresholds, list) or len(thresholds) != 3:
        raise ProjectSchemaError("$.label_thresholds must be a 3-element array")
    thresholds = tuple(_number(v, f"$.label_thresholds[{i}]") for i, v in enumerate(thresholds))
    if not (1.0 >= thresholds[0] > thresholds[1] > thresholds[2] >= 0.0):
        raise ProjectSemanticError("$.label_thresholds must strictly decrease within [0, 1]")
    if "resolution" in doc:
        log.warning("$.resolution is ignored: PBP is computed exactly")

    return ProjectConfig(
        tunnel=tunnel,
        joints=tuple(joints),
        fuzzy_joints=tuple(fuzzy_joints),
        dataset=dataset,
        anfis=anfis,
        geometry=geometry,
        delta_variant=variant,
        label_thresholds=thresholds,
        seed_offset_m=seed_offset,
        bbox_margin_m=bbox_margin,
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
