"""Each command loads only the modules that its project and its work need.

Every case runs ``cli.main`` in a fresh interpreter and lists the
``fuzzyblock`` modules loaded afterwards; pytest itself has already
imported all of them, so an in-process check would see nothing.
"""
import json
import os
import pathlib
import subprocess
import sys

import pytest

import fuzzyblock

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SRC = str(pathlib.Path(fuzzyblock.__file__).resolve().parent.parent)

# the layers a command loads only when its project section or its work needs them
DEFERRED = {
    "fuzzyblock.fuzzy_blocks",
    "fuzzyblock.plane_geometry",
    "fuzzyblock.surrogate",
    "fuzzyblock.surrogate.dataset",
    "fuzzyblock.surrogate.model",
    "fuzzyblock.svg_out",
}
SURROGATE = {m for m in DEFERRED if m.startswith("fuzzyblock.surrogate")}

CHILD = """\
import contextlib, io, json, sys
from fuzzyblock.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main(json.loads(sys.argv[1]))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "fuzzyblock")
print(json.dumps({"rc": rc, "stdout": out.getvalue(), "loaded": loaded}))
"""


def run_fresh(argv):
    """(exit code, captured stdout, loaded fuzzyblock modules) of main(argv)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    got = json.loads(proc.stdout)
    return got["rc"], got["stdout"], set(got["loaded"])


def readme_project(tmp_path, drop):
    """The README's example project without the ``drop`` sections, as a file."""
    text = README.read_text(encoding="utf-8")
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    doc = json.loads(block)
    for key in drop:
        del doc[key]
    path = tmp_path / "proj.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["analyze", "volume"])
def test_crisp_kbt_loads_no_fuzzy_geometry_surrogate_or_svg_layer(tmp_path, command):
    proj = readme_project(tmp_path, ["fuzzy_joints", "geometry", "dataset", "anfis"])
    out = str(tmp_path / "out.csv")
    rc, _, loaded = run_fresh(["kbt", command, "-p", proj, "-o", out])
    assert rc == 0 and os.path.getsize(out) > 0
    assert "fuzzyblock.kernel.tunnel" in loaded
    assert loaded & DEFERRED == set()


def test_fuzzy_pbr_loads_no_surrogate_or_svg_layer(tmp_path):
    proj = readme_project(tmp_path, ["dataset", "anfis"])
    out = str(tmp_path / "pbr.csv")
    rc, _, loaded = run_fresh(["fuzzy", "pbr", "-p", proj, "-o", out])
    assert rc == 0 and os.path.getsize(out) > 0
    assert "fuzzyblock.fuzzy_blocks" in loaded
    assert loaded & (SURROGATE | {"fuzzyblock.svg_out"}) == set()


def test_surrogate_gen_loads_no_fuzzy_block_or_geometry_layer(tmp_path):
    proj = readme_project(tmp_path, ["fuzzy_joints", "geometry"])
    out = str(tmp_path / "data.csv")
    rc, _, loaded = run_fresh(["surrogate", "gen", "-p", proj, "-o", out])
    assert rc == 0 and os.path.getsize(out) > 0
    assert "fuzzyblock.surrogate.dataset" in loaded
    assert loaded & {"fuzzyblock.fuzzy_blocks", "fuzzyblock.plane_geometry"} == set()


@pytest.mark.parametrize("argv, names", [
    ([], ["kbt", "fuzzy", "geom", "surrogate", "plot"]),
    (["kbt"], ["analyze", "volume"]),
    (["fuzzy"], ["pbr"]),
    (["fuzzy", "pbr"], ["--delta-variant", "{paper,standard}"]),
    (["geom"], ["eval"]),
    (["surrogate"], ["gen", "train", "predict", "map"]),
    (["plot"], ["--data", "--out"]),
])
def test_help_loads_no_deferred_layer(argv, names):
    rc, text, loaded = run_fresh(argv + ["--help"])
    assert rc == 0
    assert all(name in text for name in names)
    assert loaded & DEFERRED == set()
