"""Reference for the command table of ``cli``.

``build_parser`` below is the hand-written parser tree as it stood before
the command table: it builds every group, every leaf and every argument on
each call.  ``cli.build_parser(argv)`` must give the same exit code, output
and namespace on every argv, whichever part of the tree it builds.
"""
import argparse

from fuzzyblock.cli import (
    _cmd_fuzzy_pbr,
    _cmd_geom_eval,
    _cmd_kbt_analyze,
    _cmd_kbt_volume,
    _cmd_plot,
    _cmd_surrogate_gen,
    _cmd_surrogate_map,
    _cmd_surrogate_predict,
    _cmd_surrogate_train,
)
from fuzzyblock.fuzzy_numbers import DELTA_VARIANTS


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
    pbr_cmd.add_argument("--delta-variant", choices=DELTA_VARIANTS, default="paper")
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
    gen.set_defaults(func=_cmd_surrogate_gen)
    tr = s_sub.add_parser("train", help="train the TSK model on a dataset CSV")
    tr.add_argument("-p", "--project", required=True)
    tr.add_argument("-d", "--data", required=True)
    tr.add_argument("-o", "--out", required=True)
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
