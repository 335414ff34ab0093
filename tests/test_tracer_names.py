"""Every name the benchmark tracer reads is a function or method of the package.

The tracer reports a name it cannot find as missing, and a per-layer metric
that reads it as None; this catches a deleted or renamed name without a
benchmark run.  ``benchmarks/tracer.py`` is loaded from its file, with no
bytecode written next to it.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(module)
    return module


def test_required_names_exist(tracer):
    targets = tracer._targets("fuzzyblock")
    assert [name for name in tracer.REQUIRED if name not in targets] == []


def test_observed_names_exist(tracer):
    targets = tracer._targets("fuzzyblock")
    assert [name for name in tracer.OBSERVE if name not in targets] == []
