"""Command-line interface: analyze blocks, rank removability, train surrogates.

Exit codes: 0 success, 1 usage error, 2 data or numeric error.  Every product
file is written atomically (temp file plus rename), so an interrupted run
never leaves a truncated CSV or SVG behind.  Diagnostics go through
``logging``; ``main`` shows INFO and above on stderr as bare messages unless
logging is already configured.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import logging
import math
import os
import sys
import tempfile
from typing import Optional, Sequence

import numpy as np

from .fuzzy_blocks import (
    FuzzySystem,
    block_pyramid,
    finiteness_label,
    joint_constraint,
    pbp,
)
from .kernel.tunnel import all_codes, enumerate_tunnel_blocks
from .plane_geometry import raster_membership
from .project import ProjectConfig, ProjectError, parse_project
from .surrogate.dataset import (
    FEATURE_NAMES,
    DatasetSpec,
    dataset_csv_text,
    generate_dataset,
    normalize,
    read_dataset_csv,
    single_joint_case,
)
from .surrogate.model import (
    bin_angles,
    damage_map,
    extract_rules,
    forward_batch,
    init_model,
    load_model,
    model_json_text,
    rmse as model_rmse,
    train,
)
from .svg_out import damage_map_svg, heat_grid_svg, polyline_svg

USAGE_ERROR = 1
DATA_ERROR = 2

log = logging.getLogger(__name__)


class CliDataError(RuntimeError):
    pass


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fuzzyblock-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _fmtnum(v: Optional[float]) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return repr(float(v))


def _sweep(cfg: ProjectConfig):
    if not cfg.joints:
        raise CliDataError("project has no crisp joints; add a 'joints' section")
    bbox = (
        cfg.tunnel.section_bbox(margin=cfg.bbox_margin_m)
        if cfg.bbox_margin_m is not None
        else None
    )
    return enumerate_tunnel_blocks(
        cfg.joints, cfg.tunnel, seed_offset=cfg.seed_offset_m, bbox=bbox
    )


def _cmd_kbt_analyze(args: argparse.Namespace) -> int:
    cfg = parse_project(args.project)
    records = _sweep(cfg)
    rows = [
        (
            r.facet_index,
            r.code,
            r.classification or "",
            r.mode_label,
            _fmtnum(r.safety_factor),
            _fmtnum(r.volume_m3),
            _fmtnum(r.facet_angle_deg),
        )
        for r in records
    ]
    text = _csv_text(("facet", "code", "class", "mode", "sf", "volume", "angle"), rows)
    atomic_write_text(args.out, text)
    return 0


def _cmd_kbt_volume(args: argparse.Namespace) -> int:
    cfg = parse_project(args.project)
    records = _sweep(cfg)
    rows = [
        (r.facet_index, r.code, _fmtnum(r.volume_m3))
        for r in records
        if r.volume_m3 is not None
    ]
    text = _csv_text(("facet", "code", "volume"), rows)
    atomic_write_text(args.out, text)
    return 0


def _cmd_fuzzy_pbr(args: argparse.Namespace) -> int:
    cfg = parse_project(args.project)
    if not cfg.fuzzy_joints:
        raise CliDataError("project has no fuzzy joints; add a 'fuzzy_joints' section")
    variant = args.delta_variant or cfg.delta_variant
    # the joint pyramid of a code, and so its PJB-sup, is the same on every facet
    sides = [{side: joint_constraint(fo, side) for side in "UL"} for fo in cfg.fuzzy_joints]
    joint_pyramids = {}
    for code in all_codes(len(sides)):
        jp_sys = FuzzySystem(tuple(s[ch] for s, ch in zip(sides, code)), "joint-pyramid")
        joint_pyramids[code] = (jp_sys, pbp(jp_sys, variant))
    rows = []
    for facet in cfg.tunnel.facets():
        for code, (jp_sys, pjb_sup) in joint_pyramids.items():
            pbp_value = pbp(block_pyramid(jp_sys, facet.inward_normal), variant)
            pbr_value = min(1.0 - pbp_value, pjb_sup)
            label = finiteness_label(pbp_value, cfg.label_thresholds)
            rows.append(
                (
                    facet.index,
                    code,
                    repr(pbp_value),
                    repr(pjb_sup),
                    repr(pbr_value),
                    label,
                )
            )
    header = ("facet", "code", "pbp", "pjb_sup", "pbr", "label")
    if args.out:
        atomic_write_text(args.out, _csv_text(header, rows))
    else:
        widths = (5, 8, 22, 22, 22, 20)
        print(" ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print(" ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return 0


def _cmd_geom_eval(args: argparse.Namespace) -> int:
    cfg = parse_project(args.project)
    if cfg.geometry is None:
        raise CliDataError("project has no 'geometry' section to evaluate")
    job = cfg.geometry
    grid = raster_membership(job.shape, job.bbox, job.nx, job.ny)
    xmin, ymin, xmax, ymax = job.bbox
    dx = (xmax - xmin) / job.nx
    dy = (ymax - ymin) / job.ny
    rows = []
    for j in range(job.ny):
        for i in range(job.nx):
            rows.append(
                (
                    repr(xmin + (i + 0.5) * dx),
                    repr(ymin + (j + 0.5) * dy),
                    repr(float(grid[j, i])),
                )
            )
    atomic_write_text(args.out, _csv_text(("x", "y", "membership"), rows))
    if args.svg:
        atomic_write_text(args.svg, heat_grid_svg(grid, job.bbox))
    return 0


def _require_dataset(cfg: ProjectConfig) -> DatasetSpec:
    if cfg.dataset is None:
        raise CliDataError("project has no 'dataset' section")
    return cfg.dataset


def _cmd_surrogate_gen(args: argparse.Namespace) -> int:
    cfg = parse_project(args.project)
    spec = _require_dataset(cfg)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    atomic_write_text(args.out, dataset_csv_text(generate_dataset(spec)))
    return 0


def _cmd_surrogate_train(args: argparse.Namespace) -> int:
    cfg = parse_project(args.project)
    samples = read_dataset_csv(args.data)
    if not samples:
        raise CliDataError(f"dataset {args.data} has no rows")
    anfis = cfg.anfis
    value_range = anfis.normalization_range
    if args.range:
        try:
            lo, hi = (float(v) for v in args.range.split(","))
        except ValueError:
            raise CliDataError(f"--range must be 'lo,hi', got {args.range!r}")
        value_range = (lo, hi)
    X, y, record = normalize(samples, value_range)
    split_seed = args.seed if args.seed is not None else anfis.split_seed
    n_train = int(anfis.train_fraction * len(samples))
    if n_train < 1:
        raise CliDataError("train fraction leaves no training rows")
    key = np.array([split_seed & 0xFFFFFFFFFFFFFFFF, 999], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    perm = rng.permutation(len(samples))
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    epochs = args.epochs if args.epochs is not None else anfis.epochs
    model = init_model(
        len(FEATURE_NAMES), list(anfis.mfs_per_input), X[train_idx],
        input_names=FEATURE_NAMES,
    )
    model, history = train(
        model, X[train_idx], y[train_idx], epochs, anfis.learn_rate, anfis.ridge
    )
    model.normalization = record
    inputs = np.array([s.inputs for s in samples])
    model.input_medians = tuple(float(np.median(inputs[:, k])) for k in range(inputs.shape[1]))
    atomic_write_text(args.out, model_json_text(model))
    log.info("train rmse %.6f over %d epochs", history[-1], epochs)
    if len(test_idx):
        held = model_rmse(model, X[test_idx], y[test_idx])
        log.info("held-out rmse %.6f on %d samples", held, len(test_idx))
    if args.rules:
        atomic_write_text(args.rules, "\n".join(extract_rules(model)) + "\n")
    return 0


def _cmd_surrogate_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    if model.normalization is None:
        raise CliDataError("model carries no normalization record")
    with open(args.data, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CliDataError(f"{args.data} is empty")
        header = [h.strip() for h in header]
        missing = [name for name in FEATURE_NAMES if name not in header]
        if missing:
            raise CliDataError(f"{args.data} lacks feature columns: {', '.join(missing)}")
        idx = [header.index(name) for name in FEATURE_NAMES]
        rows = []
        feats = []
        for row in reader:
            if not row:
                continue
            rows.append(row)
            feats.append([float(row[i]) for i in idx])
    if not feats:
        raise CliDataError(f"{args.data} has no data rows")
    X = model.normalization.apply_features(np.array(feats))
    pred, _ = forward_batch(model, X)
    sf = model.normalization.invert_target(pred)
    out_rows = [tuple(row) + (repr(float(v)),) for row, v in zip(rows, sf)]
    atomic_write_text(args.out, _csv_text(tuple(header) + ("sf_pred",), out_rows))
    return 0


def _cmd_surrogate_map(args: argparse.Namespace) -> int:
    cfg = parse_project(args.project)
    model = load_model(args.model)
    if model.normalization is None or model.input_medians is None:
        raise CliDataError("model carries no normalization record or medians")
    bins = args.bins
    med = dict(zip(model.input_names, model.input_medians))
    record = model.normalization
    angle_idx = list(model.input_names).index("angle_deg")
    angles = bin_angles(record.mins[angle_idx], record.maxs[angle_idx], bins)
    spec = cfg.dataset
    seed_offset = spec.seed_offset if spec is not None else cfg.seed_offset_m
    volumes = [
        single_joint_case(
            cfg.tunnel, med["dip_deg"], med["dipdir_deg"], med["phi_deg"], float(a),
            seed_offset=seed_offset,
        ).volume_m3
        for a in angles
    ]
    series = damage_map(model, bins, per_bin_inputs={"volume_m3": volumes})
    rows = [(repr(a), repr(v)) for a, v in series]
    atomic_write_text(args.out, _csv_text(("angle_deg", "sf_pred"), rows))
    if args.svg:
        cap = spec.sf_cap if spec is not None else 5.0
        atomic_write_text(args.svg, damage_map_svg(cfg.tunnel, series, cap))
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    with open(args.data, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CliDataError(f"{args.data} is empty")
        header = [h.strip() for h in header]
        rows = [row for row in reader if row]
    if not rows:
        raise CliDataError(f"{args.data} has no data rows")
    if header[:3] == ["x", "y", "membership"]:
        xs = sorted({float(r[0]) for r in rows})
        ys = sorted({float(r[1]) for r in rows})
        grid = np.zeros((len(ys), len(xs)))
        xi = {v: i for i, v in enumerate(xs)}
        yi = {v: j for j, v in enumerate(ys)}
        for r in rows:
            grid[yi[float(r[1])], xi[float(r[0])]] = float(r[2])
        dx = xs[1] - xs[0] if len(xs) > 1 else 1.0
        dy = ys[1] - ys[0] if len(ys) > 1 else 1.0
        bbox = (xs[0] - dx / 2, ys[0] - dy / 2, xs[-1] + dx / 2, ys[-1] + dy / 2)
        svg = heat_grid_svg(grid, bbox)
    else:
        numeric = [[float(v) for v in row[:2]] for row in rows]
        xs = [r[0] for r in numeric]
        ys = [r[1] for r in numeric]
        svg = polyline_svg(xs, ys)
    atomic_write_text(args.out, svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyblock",
        description="Crisp and fuzzy key-block stability analysis around tunnels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kbt = sub.add_parser("kbt", help="crisp key-block theory commands")
    kbt_sub = kbt.add_subparsers(dest="subcommand", required=True)
    analyze = kbt_sub.add_parser("analyze", help="classify every (facet, code) block")
    analyze.add_argument("-p", "--project", required=True)
    analyze.add_argument("-o", "--out", required=True)
    analyze.set_defaults(func=_cmd_kbt_analyze)
    volume = kbt_sub.add_parser("volume", help="volumes of blocks that have one")
    volume.add_argument("-p", "--project", required=True)
    volume.add_argument("-o", "--out", required=True)
    volume.set_defaults(func=_cmd_kbt_volume)

    fuzzy = sub.add_parser("fuzzy", help="direct fuzzy block theory commands")
    fuzzy_sub = fuzzy.add_subparsers(dest="subcommand", required=True)
    pbr_cmd = fuzzy_sub.add_parser("pbr", help="PBP / PJB / PBR table per facet and code")
    pbr_cmd.add_argument("-p", "--project", required=True)
    pbr_cmd.add_argument("-o", "--out")
    pbr_cmd.add_argument("--delta-variant", choices=("paper", "standard"))
    pbr_cmd.set_defaults(func=_cmd_fuzzy_pbr)

    geom = sub.add_parser("geom", help="fuzzy plane geometry commands")
    geom_sub = geom.add_subparsers(dest="subcommand", required=True)
    geval = geom_sub.add_parser("eval", help="rasterize a fuzzy shape's membership")
    geval.add_argument("-p", "--project", required=True)
    geval.add_argument("-o", "--out", required=True)
    geval.add_argument("--svg")
    geval.set_defaults(func=_cmd_geom_eval)

    surrogate = sub.add_parser("surrogate", help="TSK surrogate commands")
    s_sub = surrogate.add_subparsers(dest="subcommand", required=True)
    gen = s_sub.add_parser("gen", help="generate the kernel-labeled dataset")
    gen.add_argument("-p", "--project", required=True)
    gen.add_argument("-o", "--out", required=True)
    gen.add_argument("--seed", type=int)
    gen.set_defaults(func=_cmd_surrogate_gen)
    tr = s_sub.add_parser("train", help="train the TSK model on a dataset CSV")
    tr.add_argument("-p", "--project", required=True)
    tr.add_argument("-d", "--data", required=True)
    tr.add_argument("-o", "--out", required=True)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--seed", type=int, help="train/test split seed")
    tr.add_argument("--range", help="normalization range as 'lo,hi'")
    tr.add_argument("--rules", help="also write extracted if-then rules here")
    tr.set_defaults(func=_cmd_surrogate_train)
    pred = s_sub.add_parser("predict", help="predict safety factors for feature rows")
    pred.add_argument("-m", "--model", required=True)
    pred.add_argument("-d", "--data", required=True)
    pred.add_argument("-o", "--out", required=True)
    pred.set_defaults(func=_cmd_surrogate_predict)
    smap = s_sub.add_parser("map", help="predicted damage map around the section")
    smap.add_argument("-p", "--project", required=True)
    smap.add_argument("-m", "--model", required=True)
    smap.add_argument("-o", "--out", required=True)
    smap.add_argument("--svg")
    smap.add_argument("--bins", type=int, default=72)
    smap.set_defaults(func=_cmd_surrogate_map)

    plot = sub.add_parser("plot", help="render any product CSV as an SVG")
    plot.add_argument("-d", "--data", required=True)
    plot.add_argument("-o", "--out", required=True)
    plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help
        return 0 if exc.code in (0, None) else USAGE_ERROR
    try:
        return args.func(args)
    except (ProjectError, CliDataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
