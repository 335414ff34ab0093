"""The README's examples stay runnable: its project parses, its quickstart runs."""
import contextlib
import io
import json
import pathlib
import re

import pytest

from fuzzyblock.project import parse_project_dict

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def test_example_project_parses():
    (block,) = fenced_blocks("json")
    cfg = parse_project_dict(json.loads(block))
    assert len(cfg.joints) == 3
    assert len(cfg.fuzzy_joints) == 3
    assert cfg.dataset is not None and cfg.geometry is not None


def test_quickstart_runs():
    (block,) = fenced_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quickstart", "exec"), {})
    lines = out.getvalue().splitlines()
    assert float(lines[0]) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert len(lines) > 1  # the square section has removable blocks
