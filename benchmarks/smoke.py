"""Smoke test of the benchmark itself; finishes in well under a minute.

    python3 benchmarks/smoke.py

It checks that the seeded inputs still hash to the values recorded in
``inputs_sha256.json``, runs every workload at ``--scale smoke`` untraced and
traced, and checks each result line against ``BENCHMARK.json``.  Finally it
runs the benchmark from a copy that holds only ``BENCHMARK.json`` and the
benchmark's own files, where it must fail without printing a result.
Exits nonzero on the first problem.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def check_inputs() -> None:
    sys.path.insert(0, HERE)
    import inputs

    with open(os.path.join(HERE, "inputs_sha256.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    seed = recorded["seed"]
    for workload, files in recorded["files"].items():
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
            paths = inputs.build(workload, seed, "full", tmp)
            got = {name: inputs.sha256(path) for name, path in paths.items()}
        if got != files:
            raise SystemExit(f"{workload}: inputs for seed {seed} changed: {got} != {files}")
    print(f"inputs: seed {seed} reproduces the recorded sha256 of every workload")


def check_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--scale", "smoke"], ROOT)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                raise SystemExit(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                raise SystemExit(f"{workload} trace {trace}: {result}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                raise SystemExit(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))}")
            for name, entry in result["metrics"].items():
                if not isinstance(entry["value"], (int, float)):
                    raise SystemExit(f"{workload}: {name} = {entry['value']!r}")
            print(f"{workload} trace {trace}: ok, {result['failed']} of "
                  f"{result['attempted']} checked items failed")


def check_bare_copy() -> None:
    """Without the program's sources the benchmark must fail and print no result."""
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        os.makedirs(os.path.join(tmp, "benchmarks"))
        for name in os.listdir(HERE):
            if name.endswith((".py", ".json", ".md")):
                shutil.copy(os.path.join(HERE, name), os.path.join(tmp, "benchmarks"))
        proc = run(["--workload", "crisp-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            raise SystemExit(f"bare copy: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("bare copy: fails without a result, as it must")


def main() -> int:
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    check_inputs()
    check_runs()
    check_bare_copy()
    return 0


if __name__ == "__main__":
    sys.exit(main())
