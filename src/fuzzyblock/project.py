"""Project files: strict JSON schema for tunnel, joints, dataset, and model setup.

Parsing is strict because the inputs are safety-relevant: unknown keys are
errors (a typo must not silently fall back to a default), and every value is
range-checked with a diagnostic naming the offending key path.  Every
accepted key is read by some command, except two fuzzy-joint keys:
``friction_deg``, which is required and checked but not read yet, and
``id``, which is checked as a string but neither read nor checked for
uniqueness.  Retired keys are unknown ones:
``resolution``, ``bbox_margin_m``, ``unit_weight_kn_m3``, joint ``location``,
``axis_plunge_deg`` (every tunnel axis is horizontal), ``seed_offset_m``
and ``delta_variant`` (the ``--delta-variant`` flag sets it).

Each kind of object has one table that names each of its keys once with the
reader of its value, and ``_fields`` reads an object through its table.  It
names the first fault it meets: the first unknown key in the file's order,
then the first missing required key in the table's order, then the first bad
value, read in the table's order (the root's: schema_version, tunnel, joints,
fuzzy_joints, dataset, anfis, geometry, label_thresholds).  A rule on several
keys is checked once their object is read.  Each rule has one owner, whose
``ValueError`` the parser restates at the key path: the class it builds, or
``surrogate.model.check_step_sizes`` and ``check_training_shape``,
``plane_geometry.check_grid`` and ``fuzzy_numbers.check_label_thresholds``.

Each section reader imports the types of its own section, so a parse loads
a domain module only when the project holds its section: ``fuzzy_joints``
loads ``fuzzy_blocks``, ``geometry`` loads ``plane_geometry``, and
``dataset`` or ``anfis`` loads ``surrogate``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Optional

from .fuzzy_numbers import DEFAULT_LABEL_THRESHOLDS, TrapezoidalNumber, check_label_thresholds
from .kernel.orientation import JointPlane, Orientation
from .kernel.tunnel import TunnelSection

if TYPE_CHECKING:
    from .fuzzy_blocks import FuzzyOrientation
    from .plane_geometry import FuzzyPoint, FuzzyShape
    from .surrogate.dataset import DatasetSpec

SCHEMA_VERSION = 1

Reader = Callable[[Any, str], Any]


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


def _fields(obj: Any, path: str, readers: dict[str, Reader], required: tuple[str, ...] = (),
            fields: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    """The keys of object ``obj`` at ``path``: names the first unknown key, then the
    first missing one of ``required``, then reads in the table's order into
    ``fields``, where a reader finds the values read before its own."""
    if not isinstance(obj, dict):
        raise ProjectSchemaError(f"{path} must be an object")
    for key in obj:
        if key not in readers:
            raise ProjectSchemaError(f"unknown key {key!r} at {path}")
    for key in required:
        if key not in obj:
            raise ProjectSchemaError(f"missing required key {key!r} at {path}")
    fields = {} if fields is None else fields
    for key, read in readers.items():
        if key in obj:
            fields[key] = read(obj[key], f"{path}.{key}")
    return fields


def _owned(path: str, make: Callable[..., Any], *args: Any, sep: str = ": ", **kwargs: Any):
    """``make(*args, **kwargs)``, its ValueError restated at ``path``; ``sep`` "."
    joins the path to a message that starts with the key it names."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ProjectSemanticError(f"{path}{sep}{exc}") from None


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


def _where(read: Reader, test: Callable[[Any], bool], rule: str) -> Reader:
    """``read``, then the ``rule`` that ``test`` checks on what it read."""
    def checked(value: Any, path: str) -> Any:
        value = read(value, path)
        if not test(value):
            raise ProjectSemanticError(f"{path} {rule}")
        return value
    return checked


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProjectSchemaError(f"{path} must be an integer, got {value!r}")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ProjectSchemaError(f"{path} must be a string, got {value!r}")
    return value


def _numbers(value: Any, path: str, count: int, form: str) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != count:
        raise ProjectSchemaError(f"{path} must be {form}")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


_pair = partial(_numbers, count=2, form="a [lo, hi] pair")


def _array_of(read: Callable[[Any, str, int], Any]) -> Reader:
    """A reader of an array whose item i at ``path[i]`` ``read`` reads."""
    def read_all(value: Any, path: str) -> tuple:
        if not isinstance(value, list):
            raise ProjectSchemaError(f"{path} must be an array")
        return tuple(read(item, f"{path}[{i}]", i) for i, item in enumerate(value))
    return read_all


def _trapezoid(value: Any, path: str) -> TrapezoidalNumber:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return TrapezoidalNumber.crisp(_number(value, path))
    knots = _numbers(value, path, 4, "a number or a 4-element [a1,a2,a3,a4] array")
    return _owned(path, TrapezoidalNumber, *knots)


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


def _section(value: Any, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, list) or len(value) < 3:
        raise ProjectSchemaError(f"{path} must list at least 3 [u, w] vertices")
    return tuple(_numbers(v, f"{path}[{i}]", 2, "a [u, w] pair") for i, v in enumerate(value))


_TUNNEL = {  # in TunnelSection's argument order
    "section": _section,
    "axis_trend_deg": _where(_number, lambda t: 0.0 <= t < 360.0, "must lie in [0, 360)"),
}


def _tunnel(obj: Any, path: str) -> TunnelSection:
    fields = _fields(obj, path, _TUNNEL, ("section",))
    return _owned(f"{path}.section", TunnelSection, *fields.values())


# the keys of a crisp and of a fuzzy joint; all but the id are required
_JOINT_KEYS = ("dip_deg", "dip_direction_deg", "friction_deg")
_JOINT = {"id": _string, **dict.fromkeys(_JOINT_KEYS, _number)}
_FUZZY_JOINT = {**_JOINT, **dict.fromkeys(_JOINT_KEYS, _trapezoid)}


def _joint(obj: Any, path: str, index: int) -> JointPlane:
    fields = _fields(obj, path, _JOINT, _JOINT_KEYS)
    dip, dip_direction, friction = (fields[key] for key in _JOINT_KEYS)
    orientation = _owned(path, Orientation, dip, dip_direction)
    return _owned(path, JointPlane, fields.get("id", f"J{index + 1}"), orientation, friction)


def _fuzzy_joint(obj: Any, path: str, index: int) -> FuzzyOrientation:
    from .fuzzy_blocks import FuzzyOrientation

    fields = _fields(obj, path, _FUZZY_JOINT, _JOINT_KEYS)
    dip, dip_direction, friction = (fields[key] for key in _JOINT_KEYS)
    orientation = _owned(path, FuzzyOrientation, dip, dip_direction)
    if friction.a1 < 0.0 or friction.a4 >= 90.0:
        raise ProjectSemanticError(f"{path}.friction_deg support must stay within [0, 90)")
    return orientation


_DATASET = {
    "sample_count": _integer,
    "seed": _integer,
    **dict.fromkeys(("dip_range", "dip_direction_range", "friction_range", "angle_range"), _pair),
    "sf_cap": _number,
}


def _mf_counts(value: Any, path: str) -> tuple[int, ...]:
    from .surrogate.dataset import FEATURE_NAMES

    if isinstance(value, int) and not isinstance(value, bool):
        return (value,) * len(FEATURE_NAMES)
    if isinstance(value, list) and len(value) == len(FEATURE_NAMES):
        return tuple(_integer(v, f"{path}[{i}]") for i, v in enumerate(value))
    raise ProjectSchemaError(f"{path} must be an integer or a {len(FEATURE_NAMES)}-element list")


_ANFIS = {
    "mfs_per_input": _mf_counts,
    "epochs": _integer,
    "learn_rate": _number,
    "ridge": lambda value, path: None if value is None else _number(value, path),
    "train_fraction": _where(_number, lambda f: 0.0 < f <= 1.0, "must lie in (0, 1]"),
    "split_seed": _integer,
    "normalization_range": _where(_pair, lambda r: r[1] > r[0], "must have hi > lo"),
}


def _anfis(obj: Any, path: str) -> AnfisConfig:
    from .surrogate.model import check_step_sizes, check_training_shape

    anfis = AnfisConfig(**_fields(obj, path, _ANFIS))
    _owned(path, check_step_sizes, anfis.learn_rate, anfis.ridge, sep=".")
    _owned(path, check_training_shape, anfis.mfs_per_input, anfis.epochs, sep=".")
    return anfis


_POINT = dict.fromkeys(("x", "y"), _trapezoid)


def _point(obj: Any, path: str) -> FuzzyPoint:
    from .plane_geometry import FuzzyPoint

    return FuzzyPoint(**_fields(obj, path, _POINT, tuple(_POINT)))


def _polygon(value: Any, path: str) -> tuple[FuzzyPoint, ...]:
    if not isinstance(value, list) or len(value) < 3:
        raise ProjectSchemaError(f"{path} must list at least 3 points")
    return tuple(_point(v, f"{path}[{i}]") for i, v in enumerate(value))


# each shape type: its plane_geometry class, and the keys beside "type", all required
_SHAPES = {
    "line": ("FuzzyLineImplicit", dict.fromkeys(("a", "b", "c"), _trapezoid)),
    "segment": ("FuzzySegment", dict.fromkeys(("p", "q"), _point)),
    "polygon": ("FuzzyPolygon", {"vertices": _polygon}),
}


def _shape(obj: Any, path: str) -> FuzzyShape:
    from . import plane_geometry

    if not isinstance(obj, dict) or "type" not in obj:
        raise ProjectSchemaError(f"{path} must be an object with a 'type' key")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _SHAPES:
        raise ProjectSchemaError(
            f"{path}.type must be one of {', '.join(map(repr, _SHAPES))}, got {kind!r}"
        )
    name, readers = _SHAPES[kind]
    rest = {key: value for key, value in obj.items() if key != "type"}
    fields = _fields(rest, path, readers, tuple(readers))
    return _owned(path, getattr(plane_geometry, name), **fields)


_GEOMETRY = {
    "shape": _shape,
    "bbox": partial(_numbers, count=4, form="[xmin, ymin, xmax, ymax]"),
    "nx": _integer,
    "ny": _integer,
}


def _geometry(obj: Any, path: str) -> GeometryJob:
    from .plane_geometry import check_grid

    job = GeometryJob(**_fields(obj, path, _GEOMETRY, ("shape", "bbox")))
    _owned(path, check_grid, job.bbox, job.nx, job.ny, sep=".")
    return job


def _version(value: Any, path: str) -> int:
    if _integer(value, path) != SCHEMA_VERSION:
        raise ProjectSchemaError(
            f"unsupported schema_version {value!r}; this build reads version {SCHEMA_VERSION}")
    return value


# the root; parse_project_dict binds the dataset reader to the tunnel read before it
_PROJECT: dict[str, Optional[Reader]] = {
    "schema_version": _version,
    "tunnel": _tunnel,
    "joints": _where(_array_of(_joint), lambda joints: len({j.id for j in joints}) == len(joints),
                     "ids must be unique"),
    "fuzzy_joints": _array_of(_fuzzy_joint),
    "dataset": None,
    "anfis": _anfis,
    "geometry": _geometry,
    "label_thresholds": partial(_numbers, count=3, form="a 3-element array"),
}


def parse_project_dict(doc: Any) -> ProjectConfig:
    if not isinstance(doc, dict):
        raise ProjectSchemaError("project root must be a JSON object")
    fields: dict[str, Any] = {}

    def dataset(obj: Any, path: str) -> DatasetSpec:
        from .surrogate.dataset import DatasetSpec
        return _owned(path, DatasetSpec, tunnel=fields["tunnel"], **_fields(obj, path, _DATASET))

    _fields(doc, "$", {**_PROJECT, "dataset": dataset}, ("schema_version", "tunnel"), fields)
    del fields["schema_version"]
    config = ProjectConfig(**fields)
    _owned("$", check_label_thresholds, config.label_thresholds, sep=".")
    return config


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
