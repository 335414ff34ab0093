"""The command table's parser against the hand-written tree it replaced.

``cli.build_parser(argv)`` builds only the part of the tree that ``argv``
can reach, so every case runs the same argv through it and through
``cli_oracle.build_parser()`` and compares the exit code, stdout, stderr
and parsed namespace.
"""
import argparse
import contextlib
import io
import sys

import pytest

from fuzzyblock import cli
import cli_oracle

LEAVES = [
    ["kbt", "analyze"], ["kbt", "volume"], ["fuzzy", "pbr"], ["geom", "eval"],
    ["surrogate", "gen"], ["surrogate", "train"], ["surrogate", "predict"],
    ["surrogate", "map"], ["plot"],
]

CORPUS = [
    [],
    ["--help"],
    ["-h"],
    *([group, "--help"] for group in ("kbt", "fuzzy", "geom", "surrogate")),
    *(leaf + ["--help"] for leaf in LEAVES),
    ["-h", "kbt"],
    ["kbt", "-h", "analyze"],
    ["kbt"],
    ["kbt", "analyze"],
    ["kbt", "volume", "-p"],
    ["surrogate", "map", "-p", "p.json", "-o", "map.csv"],
    ["fuzzy", "pbr", "-p", "p.json", "--delta-variant", "nope"],
    ["surrogate", "map", "-p", "p.json", "-m", "m.json", "-o", "map.csv", "--bins", "x"],
    ["bogus"],
    ["kbt", "bogus"],
    ["fuzzy", "analyze"],
    ["-x", "kbt", "analyze"],
    ["kbt", "analyze", "-p", "p.json", "-o", "a.csv", "extra"],
    ["kbt", "analyze", "-p", "p.json", "-o", "a.csv", "kbt", "volume"],
    ["kbt", "--bogus", "analyze"],
    ["kbt", "--", "analyze"],
    ["--", "kbt", "analyze", "-h"],
    ["plot"],
    ["plot", "kbt", "analyze"],
    ["plot", "-d", "map.csv", "-o", "map.svg"],
    ["kbt", "analyze", "-p", "p.json", "-o", "a.csv"],
    ["kbt", "volume", "--project=p.json", "-ov.csv"],
    ["fuzzy", "pbr", "-p", "p.json"],
    ["fuzzy", "pbr", "-p", "p.json", "--delta", "standard", "-o", "pbr.csv"],
    ["geom", "eval", "-p", "p.json", "-o", "g.csv", "--svg", "g.svg"],
    ["surrogate", "gen", "-p", "p.json", "-o", "d.csv"],
    ["surrogate", "train", "-p", "p.json", "-d", "d.csv", "-o", "m.json", "--rules", "r.txt"],
    ["surrogate", "predict", "-m", "m.json", "-d", "d.csv", "-o", "pred.csv"],
    ["surrogate", "map", "-p", "p.json", "-m", "m.json", "-o", "map.csv", "--bins", "24"],
]


def outcome(parser, argv):
    """(exit code or None, stdout, stderr, namespace or None) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


@pytest.mark.parametrize("columns", ["80", "40"])
@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_matches_oracle(monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    assert outcome(cli.build_parser(argv), argv) == outcome(cli_oracle.build_parser(), argv)


def test_parser_reads_sys_argv_when_given_none(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["surrogate", "train", "--help"], ["kbt", "analyze"], ["--help"]):
        monkeypatch.setattr(sys, "argv", ["fuzzyblock", *argv])
        assert outcome(cli.build_parser(), None) == outcome(cli_oracle.build_parser(), argv)


def test_each_main_call_builds_its_own_parser(monkeypatch, capsys):
    built, build = [], cli.build_parser

    def build_parser(argv=None):
        built.append(build(argv))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", build_parser)
    assert cli.main(["kbt", "analyze"]) == 1
    assert "fuzzyblock kbt analyze: error" in capsys.readouterr().err
    assert cli.main(["plot"]) == 1
    assert "fuzzyblock plot: error" in capsys.readouterr().err
    assert len(built) == 2 and built[0] is not built[1]


def test_a_leaf_builds_less_than_half_the_tree(monkeypatch):
    # each parser adds its -h through add_argument, so this counts parsers
    # and arguments alike
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)

    def count(build):
        calls.clear()
        build()
        return len(calls)

    full = count(cli_oracle.build_parser)
    assert count(lambda: cli.build_parser(["--help"])) == full
    for leaf in LEAVES:
        assert count(lambda: cli.build_parser(leaf + ["-h"])) < full / 2, leaf
        monkeypatch.setattr(sys, "argv", ["fuzzyblock", *leaf, "-h"])
        assert count(cli.build_parser) < full / 2, leaf
