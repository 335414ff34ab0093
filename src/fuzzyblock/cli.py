"""Command-line interface: analyze blocks, rank removability, train surrogates.

Exit codes: 0 success, 1 usage error, 2 data or numeric error.  Every product
file is written atomically (temp file plus rename), so an interrupted run
never leaves a truncated CSV or SVG behind.  Diagnostics go through
``logging``; ``main`` shows INFO and above on stderr as bare messages unless
logging is already configured.

The commands are one table, ``_COMMANDS``: each group with its help text and
its leaves, each leaf with its help text, handler and argument specs, and
``plot`` as a top-level leaf.  ``build_parser`` builds from it, on each call,
only what the argv can reach: for an argv that starts with a leaf's names,
every group (the top-level usage lists them), the leaves of that group (its
usage lists them) and that leaf's arguments; for any other argv, such as
``--help`` or a bad command, the whole tree.  Nothing is kept across calls.

The module loads only what every command uses: the project parser, the
crisp tunnel sweep and the CSV helpers.  Each other command imports its own
layer when it runs (``fuzzy_blocks``, ``plane_geometry``, ``surrogate``,
``svg_out``), so a ``kbt`` command never loads the fuzzy, geometry,
surrogate or SVG code.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
import tempfile
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .csv_io import csv_text, finite_rows, read_csv_rows
from .fuzzy_numbers import DELTA_VARIANTS
from .kernel.tunnel import TunnelSweep, all_codes, enumerate_tunnel_blocks
from .project import ProjectConfig, ProjectError, parse_project

if TYPE_CHECKING:
    from .surrogate.dataset import DatasetSpec
    from .surrogate.model import TskModel

USAGE_ERROR = 1
DATA_ERROR = 2

log = logging.getLogger(__name__)


class CliDataError(RuntimeError):
    pass


def atomic_write_text(path: str, text: str) -> None:
    """Write ``path`` through a temp file and a rename, with a plain ``open``'s mode.

    ``mkstemp`` creates the temp file 0600; the product gets 0666 less the
    umask, as a file made by ``open`` does.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fuzzyblock-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sweep(cfg: ProjectConfig) -> TunnelSweep:
    if not cfg.joints:
        raise CliDataError("project has no crisp joints; add a 'joints' section")
    return enumerate_tunnel_blocks(cfg.joints, cfg.tunnel)


def _sized_volumes(sweep: TunnelSweep) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Facet and code positions of the sized blocks, facet-major, and their volume texts."""
    f, c = np.nonzero(sweep.sized)
    return f, c, [repr(v) for v in sweep.volume[f, c].tolist()]


def _cmd_kbt_analyze(args: argparse.Namespace) -> int:
    sweep = _sweep(parse_project(args.project))
    header = ("facet", "code", "class", "mode", "sf", "volume", "angle", "boundary", "error")
    # the rows as one object table, filled a column at a time from texts
    # formatted once per facet, per code or per sized block
    table = np.full(sweep.removable.shape + (len(header),), "", dtype=object)
    table[..., 0] = np.array([str(facet.index) for facet in sweep.facets], dtype=object)[:, None]
    table[..., 1] = np.array(sweep.codes, dtype=object)
    table[..., 2] = sweep.classification
    sf = ["" if np.isnan(v) else repr(v) for v in sweep.safety_factor.tolist()]
    error = [e or "" for e in sweep.error]
    for column, per_code in ((3, sweep.mode_label), (4, sf), (8, error)):
        table[..., column] = np.where(sweep.removable, np.array(per_code, dtype=object), "")
    f, c, volumes = _sized_volumes(sweep)
    table[f, c, 5] = volumes
    angles = [repr(float(facet.angle_deg)) for facet in sweep.facets]
    table[..., 6] = np.array(angles, dtype=object)[:, None]
    table[..., 7] = np.where(sweep.boundary, "1", "0")
    text = csv_text(header, table.reshape(-1, len(header)).tolist())
    atomic_write_text(args.out, text)
    return 0


def _cmd_kbt_volume(args: argparse.Namespace) -> int:
    sweep = _sweep(parse_project(args.project))
    f, c, volumes = _sized_volumes(sweep)
    indices = [str(facet.index) for facet in sweep.facets]
    rows = zip([indices[i] for i in f.tolist()],
               [sweep.codes[j] for j in c.tolist()], volumes)
    text = csv_text(("facet", "code", "volume"), list(rows))
    atomic_write_text(args.out, text)
    return 0


def _cmd_fuzzy_pbr(args: argparse.Namespace) -> int:
    from .fuzzy_blocks import block_knots, code_knots, finiteness_label, pbps

    cfg = parse_project(args.project)
    if not cfg.fuzzy_joints:
        raise CliDataError("project has no fuzzy joints; add a 'fuzzy_joints' section")
    codes = all_codes(len(cfg.fuzzy_joints))
    # the joint pyramid of a code, and so its PJB-sup, is the same on every facet
    jp_knots = code_knots(cfg.fuzzy_joints, codes)
    pjb_sups = pbps(jp_knots, args.delta_variant)
    facets = cfg.tunnel.facets()
    # a block pyramid is its joint pyramid plus the facet row, so its PBP is
    # at most the PJB-sup: only the codes with a positive sup are searched
    live = np.flatnonzero(pjb_sups > 0.0)
    bp_values = np.zeros((len(facets), len(codes)))
    if len(live):
        bp_values[:, live] = pbps(
            block_knots(jp_knots[live], [f.inward_normal for f in facets]), args.delta_variant
        ).reshape(len(facets), len(live))
    pjb_sups = pjb_sups.tolist()
    rows = []
    for facet, pbp_values in zip(facets, bp_values.tolist()):
        index = str(facet.index)
        for code, pjb_sup, pbp_value in zip(codes, pjb_sups, pbp_values):
            pbr_value = min(1.0 - pbp_value, pjb_sup)
            label = finiteness_label(pbp_value, cfg.label_thresholds)
            rows.append(
                (
                    index,
                    code,
                    repr(pbp_value),
                    repr(pjb_sup),
                    repr(pbr_value),
                    label,
                )
            )
    header = ("facet", "code", "pbp", "pjb_sup", "pbr", "label")
    if args.out:
        atomic_write_text(args.out, csv_text(header, rows))
    else:
        widths = (5, 8, 22, 22, 22, 20)
        print(" ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print(" ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return 0


def _cmd_geom_eval(args: argparse.Namespace) -> int:
    from .plane_geometry import cell_centers, raster_membership
    from .svg_out import heat_grid_svg

    cfg = parse_project(args.project)
    if cfg.geometry is None:
        raise CliDataError("project has no 'geometry' section to evaluate")
    job = cfg.geometry
    grid = raster_membership(job.shape, job.bbox, job.nx, job.ny)
    xs, ys = cell_centers(job.bbox, job.nx, job.ny)
    xs, ys = [repr(x) for x in xs.tolist()], [repr(y) for y in ys.tolist()]
    rows = []
    for y, values in zip(ys, grid.tolist()):
        rows.extend((x, y, repr(v)) for x, v in zip(xs, values))
    atomic_write_text(args.out, csv_text(("x", "y", "membership"), rows))
    if args.svg:
        atomic_write_text(args.svg, heat_grid_svg(grid, job.bbox))
    return 0


def _require_dataset(cfg: ProjectConfig) -> DatasetSpec:
    if cfg.dataset is None:
        raise CliDataError("project has no 'dataset' section")
    return cfg.dataset


def _cmd_surrogate_gen(args: argparse.Namespace) -> int:
    from .surrogate.dataset import dataset_csv_text, generate_dataset

    cfg = parse_project(args.project)
    atomic_write_text(args.out, dataset_csv_text(generate_dataset(_require_dataset(cfg))))
    return 0


def _cmd_surrogate_train(args: argparse.Namespace) -> int:
    from .surrogate.dataset import FEATURE_NAMES, normalize, read_dataset_csv, stream
    from .surrogate.model import extract_rules, init_model, model_json_text, rmse, train

    cfg = parse_project(args.project)
    samples = read_dataset_csv(args.data)
    if not samples:
        raise CliDataError(f"dataset {args.data} has no rows")
    anfis = cfg.anfis
    X, y, record = normalize(samples, anfis.normalization_range)
    n_train = int(anfis.train_fraction * len(samples))
    if n_train < 1:
        raise CliDataError("train fraction leaves no training rows")
    perm = stream(anfis.split_seed, 999).permutation(len(samples))
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    model = init_model(
        len(FEATURE_NAMES), list(anfis.mfs_per_input), X[train_idx],
        input_names=FEATURE_NAMES,
    )
    model, history = train(
        model, X[train_idx], y[train_idx], anfis.epochs, anfis.learn_rate, anfis.ridge
    )
    model.normalization = record
    inputs = np.array([s.inputs for s in samples])
    model.input_medians = tuple(float(np.median(inputs[:, k])) for k in range(inputs.shape[1]))
    atomic_write_text(args.out, model_json_text(model))
    log.info("train rmse %.6f over %d epochs", history[-1], anfis.epochs)
    if len(test_idx):
        held = rmse(model, X[test_idx], y[test_idx])
        log.info("held-out rmse %.6f on %d samples", held, len(test_idx))
    if args.rules:
        atomic_write_text(args.rules, "\n".join(extract_rules(model)) + "\n")
    return 0


def _read_csv(path: str) -> tuple[list[str], list[list[str]], list[int]]:
    """Stripped header, rows and line numbers of a CSV with at least one data row."""
    header, rows, lines = read_csv_rows(path)
    if not rows:
        raise CliDataError(f"{path} has no data rows")
    return [h.strip() for h in header], rows, lines


def _load_feature_model(path: str) -> TskModel:
    """A model over the dataset features, in their order, with its normalization record."""
    from .surrogate.dataset import FEATURE_NAMES
    from .surrogate.model import load_model

    model = load_model(path)
    if model.normalization is None:
        raise CliDataError(f"{path}: model carries no normalization record")
    if tuple(model.input_names) != FEATURE_NAMES:
        raise CliDataError(f"{path}: inputs must be {', '.join(FEATURE_NAMES)}")
    if model.normalization.feature_names != model.input_names:
        raise CliDataError(f"{path}: normalization feature_names "
                           f"{list(model.normalization.feature_names)} differ from "
                           f"input_names {list(model.input_names)}")
    return model


def _cmd_surrogate_predict(args: argparse.Namespace) -> int:
    from .surrogate.dataset import FEATURE_NAMES
    from .surrogate.model import forward_batch

    model = _load_feature_model(args.model)
    header, rows, lines = _read_csv(args.data)
    missing = [name for name in FEATURE_NAMES if name not in header]
    if missing:
        raise CliDataError(f"{args.data} lacks feature columns: {', '.join(missing)}")
    idx = [header.index(name) for name in FEATURE_NAMES]
    feats = finite_rows([[row[i] for i in idx] for row in rows], FEATURE_NAMES, args.data, lines)
    X = model.normalization.apply_features(np.array(feats))
    pred, _ = forward_batch(model, X)
    sf = model.normalization.invert_target(pred)
    out_rows = [tuple(row) + (repr(float(v)),) for row, v in zip(rows, sf)]
    atomic_write_text(args.out, csv_text(tuple(header) + ("sf_pred",), out_rows))
    return 0


def _cmd_surrogate_map(args: argparse.Namespace) -> int:
    from .surrogate.dataset import DEFAULT_SF_CAP, joint_cases
    from .surrogate.model import damage_map, map_angles
    from .svg_out import damage_map_svg

    cfg = parse_project(args.project)
    model = _load_feature_model(args.model)
    if model.input_medians is None:
        raise CliDataError(f"{args.model}: model carries no input medians")
    med = dict(zip(model.input_names, model.input_medians))
    angle_idx, angles = map_angles(model, args.bins)
    draws = [(med["dip_deg"], med["dipdir_deg"], med["phi_deg"], float(a)) for a in angles]
    cases = joint_cases(cfg.tunnel, draws)
    series = damage_map(model, args.bins,
                        per_bin_inputs={"volume_m3": [c.volume_m3 for c in cases]})
    rows = [(repr(a), repr(v)) for a, v in series]
    atomic_write_text(args.out, csv_text((model.input_names[angle_idx], "sf_pred"), rows))
    if args.svg:
        cap = cfg.dataset.sf_cap if cfg.dataset is not None else DEFAULT_SF_CAP
        atomic_write_text(args.svg, damage_map_svg(cfg.tunnel, series, cap))
    return 0


def _grid_axis(
    first: dict[tuple[float, float], int], k: int, path: str
) -> tuple[list[float], float]:
    """Sorted values of grid axis k (0 for x, 1 for y) and their even spacing."""
    name = "xy"[k]
    axis = sorted({xy[k] for xy in first})
    step = axis[1] - axis[0] if len(axis) > 1 else 1.0
    for i, v in enumerate(axis):
        # a cell more than 1e-6 of a step off the grid is misplaced, while
        # the reprs of an evenly spaced raster are off by a few ulps at most
        if abs(v - (axis[0] + i * step)) > 1e-6 * step:
            line = next(ln for xy, ln in first.items() if xy[k] == v)
            raise CliDataError(
                f"{path} line {line}: {name} = {v!r} is off the even grid of "
                f"spacing {step!r} from {axis[0]!r}"
            )
    return axis, step


def _heat_grid(
    cells: Sequence[Sequence[float]], path: str, lines: Sequence[int]
) -> tuple[np.ndarray, tuple[float, float, float, float]]:
    """The membership grid and bounding box of x, y, membership rows.

    The rows must fill an evenly spaced grid, each cell exactly once: a
    duplicate cell, an x or y off the spacing of its first two values, or a
    missing cell is a data error naming the line.
    """
    first: dict[tuple[float, float], int] = {}  # cell -> its line, in line order
    for (x, y, _), line in zip(cells, lines):
        if (x, y) in first:
            raise CliDataError(
                f"{path} line {line}: duplicate cell x = {x!r}, y = {y!r} "
                f"(first on line {first[x, y]})"
            )
        first[x, y] = line
    xs, dx = _grid_axis(first, 0, path)
    ys, dy = _grid_axis(first, 1, path)
    if len(first) < len(xs) * len(ys):
        for (_, y), line in first.items():
            missing = [x for x in xs if (x, y) not in first]
            if missing:
                raise CliDataError(
                    f"{path} line {line}: the grid row y = {y!r} has no cell at x = {missing[0]!r}"
                )
    grid = np.zeros((len(ys), len(xs)))
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: j for j, v in enumerate(ys)}
    for x, y, value in cells:
        grid[yi[y], xi[x]] = value
    bbox = (xs[0] - dx / 2, ys[0] - dy / 2, xs[-1] + dx / 2, ys[-1] + dy / 2)
    return grid, bbox


def _cmd_plot(args: argparse.Namespace) -> int:
    from .svg_out import heat_grid_svg, polyline_svg

    header, rows, lines = _read_csv(args.data)
    if len(header) < 2:
        raise CliDataError(f"{args.data} needs at least two columns to plot")
    if header[:3] == ["x", "y", "membership"]:
        cells = finite_rows([r[:3] for r in rows], header[:3], args.data, lines)
        svg = heat_grid_svg(*_heat_grid(cells, args.data, lines))
    else:
        points = finite_rows([r[:2] for r in rows], header[:2], args.data, lines)
        svg = polyline_svg([x for x, _ in points], [y for _, y in points])
    atomic_write_text(args.out, svg)
    return 0


_PROJECT = ("-p", "--project", {"required": True})
_OUT = ("-o", "--out", {"required": True})
_DATA = ("-d", "--data", {"required": True})
_MODEL = ("-m", "--model", {"required": True})
_SVG = ("--svg", {})

# group -> (help, {leaf -> (help, handler, argument specs)}); a top-level leaf
# is (help, handler, argument specs) itself.  An argument spec is the option
# strings, then the keywords of ``add_argument``; help lists in table order.
_COMMANDS = {
    "kbt": ("crisp key-block theory commands", {
        "analyze": ("classify every (facet, code) block", _cmd_kbt_analyze, (_PROJECT, _OUT)),
        "volume": ("volumes of blocks that have one", _cmd_kbt_volume, (_PROJECT, _OUT)),
    }),
    "fuzzy": ("direct fuzzy block theory commands", {
        "pbr": ("PBP / PJB / PBR table per facet and code", _cmd_fuzzy_pbr, (
            _PROJECT,
            ("-o", "--out", {}),
            ("--delta-variant", {"choices": DELTA_VARIANTS, "default": "paper"}),
        )),
    }),
    "geom": ("fuzzy plane geometry commands", {
        "eval": ("rasterize a fuzzy shape's membership", _cmd_geom_eval, (_PROJECT, _OUT, _SVG)),
    }),
    "surrogate": ("TSK surrogate commands", {
        "gen": ("generate the kernel-labeled dataset", _cmd_surrogate_gen, (_PROJECT, _OUT)),
        "train": ("train the TSK model on a dataset CSV", _cmd_surrogate_train, (
            _PROJECT, _DATA, _OUT,
            ("--rules", {"help": "also write extracted if-then rules here"}),
        )),
        "predict": ("predict safety factors for feature rows", _cmd_surrogate_predict,
                    (_MODEL, _DATA, _OUT)),
        "map": ("predicted damage map around the section", _cmd_surrogate_map, (
            _PROJECT, _MODEL, _OUT, _SVG, ("--bins", {"type": int, "default": 72}),
        )),
    }),
    "plot": ("render any product CSV as an SVG", _cmd_plot, (_DATA, _OUT)),
}


def _invoked(argv: Sequence[str]) -> tuple[str, ...]:
    """The names of the leaf that ``argv`` starts with, else ().

    Only a leaf's own names in front fix the parsers that argparse goes
    through; an option, ``--`` or an unknown name there may reach any.
    """
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return ()
    if not isinstance(entry[1], dict):
        return (argv[0],)
    return tuple(argv[:2]) if len(argv) > 1 and argv[1] in entry[1] else ()


def _add_leaf(parser: argparse.ArgumentParser, leaf: tuple) -> None:
    _, handler, specs = leaf
    for *flags, keywords in specs:
        parser.add_argument(*flags, **keywords)
    parser.set_defaults(func=handler)


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """A new parser of ``argv`` (``sys.argv[1:]`` when None) from ``_COMMANDS``,
    holding only the parsers and arguments that ``argv`` can reach."""
    invoked = _invoked(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="fuzzyblock",
        description="Crisp and fuzzy key-block stability analysis around tunnels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in _COMMANDS.items():
        group = sub.add_parser(name, help=entry[0])
        if invoked and invoked[0] != name:
            continue
        if not isinstance(entry[1], dict):
            _add_leaf(group, entry)
            continue
        leaves = group.add_subparsers(dest="subcommand", required=True)
        for leaf_name, leaf in entry[1].items():
            leaf_parser = leaves.add_parser(leaf_name, help=leaf[0])
            if invoked in ((), (name, leaf_name)):
                _add_leaf(leaf_parser, leaf)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
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
