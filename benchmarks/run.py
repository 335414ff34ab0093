"""Benchmark for the fuzzyblock CLI: seeded workloads, checked products, layer spans.

Usage (from the repository root):

    python3 benchmarks/run.py --workload crisp-sweep --seed 1 --seconds 36 --trace 0

Each workload generates its project files from ``--seed``, then drives
``fuzzyblock.cli.main(argv)`` in this process, one command after another
(a closed loop), repeating the workload's command sequence ("a pass") until
``--seconds`` have been measured.  Every product of every pass must be
byte-identical to the first pass's; the products are then checked against
independent oracles outside the timed region (``checks.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes traced by ``tracer.Tracer`` and reports the
per-layer metrics; the traced products must equal the untraced ones.

A human-readable report goes to stdout and to ``benchmarks/out/``; the last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``benchmarks/README.md`` for the metric
definitions and the reasons for each workload.
"""
from __future__ import annotations

import argparse
import collections
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# Pin the BLAS pool before numpy loads, here and in every child process, so
# both commits of a comparison run with the same thread count.  The program's
# own FUZZYBLOCK_THREADS is left alone.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import hostclock  # noqa: E402  (loads numpy: after the pinning above)
import inputs as gen  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 11
# Times the import and the parse, then the calibration kernel in the same
# process, so both see the same CPU.
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import fuzzyblock.cli\n"
    "from fuzzyblock.project import parse_project\n"
    "parse_project(sys.argv[2])\n"
    "seconds = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[3])\n"
    "import hostclock\n"
    "kernel = sorted(hostclock.kernel() for _ in range(7))[3]\n"
    "print(repr(seconds), repr(kernel))\n"
)


def commands(workload: str, inputs: dict[str, str], work: str) -> list[tuple[str, list[list[str]]]]:
    """(metric name, [argv, ...]) in pass order; products land in ``work``."""
    p = inputs["project.json"]
    o = lambda name: os.path.join(work, name)  # noqa: E731
    if workload == "crisp-sweep":
        return [
            ("kbt_analyze_s", [["kbt", "analyze", "-p", p, "-o", o("analyze.csv")]]),
            ("kbt_volume_s", [["kbt", "volume", "-p", p, "-o", o("volume.csv")]]),
        ]
    if workload == "fuzzy":
        return [
            ("fuzzy_pbr_paper_s", [["fuzzy", "pbr", "-p", p, "-o", o("pbr_paper.csv"),
                                    "--delta-variant", "paper"]]),
            ("fuzzy_pbr_standard_s", [["fuzzy", "pbr", "-p", p, "-o", o("pbr_standard.csv"),
                                       "--delta-variant", "standard"]]),
            ("fuzzy_pbr_crisp_s", [["fuzzy", "pbr", "-p", inputs["crisp_limit.json"],
                                    "-o", o("pbr_crisp.csv")]]),
            ("geom_eval_s", [["geom", "eval", "-p", p, "-o", o("raster.csv"),
                              "--svg", o("raster.svg")]]),
        ]
    if workload == "surrogate":
        return [
            ("surrogate_gen_s", [["surrogate", "gen", "-p", p, "-o", o("data.csv")]]),
            ("surrogate_train_s", [["surrogate", "train", "-p", p, "-d", o("data.csv"),
                                    "-o", o("model.json")]]),
            ("surrogate_infer_s", [
                ["surrogate", "predict", "-m", o("model.json"), "-d", o("data.csv"),
                 "-o", o("pred.csv")],
                ["surrogate", "map", "-p", p, "-m", o("model.json"), "-o", o("map.csv"),
                 "--svg", o("map.svg")],
            ]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("crisp-sweep", "fuzzy", "surrogate")
PRODUCTS = {
    "crisp-sweep": ("analyze.csv", "volume.csv"),
    "fuzzy": ("pbr_paper.csv", "pbr_standard.csv", "pbr_crisp.csv", "raster.csv", "raster.svg"),
    "surrogate": ("data.csv", "model.json", "pred.csv", "map.csv", "map.svg"),
}
MAP_BINS = 72  # the default --bins of surrogate map
# step (per-command metric) names of each workload, and of all of them
ALL_STEPS = {w: [metric for metric, _ in commands(w, collections.defaultdict(str), "")]
             for w in WORKLOADS}
ALL_STEPS_FLAT = {m for steps in ALL_STEPS.values() for m in steps}


class Runner:
    """Runs passes of one workload in this process and records their results."""

    def __init__(self, workload: str, inputs: dict[str, str], work: str,
                 clock: hostclock.HostClock) -> None:
        import fuzzyblock.cli

        self.cli = fuzzyblock.cli
        self.clock = clock
        self.work = work
        self.steps = commands(workload, inputs, work)
        self.products = [os.path.join(work, name) for name in PRODUCTS[workload]]
        self.failed_steps: set[str] = set()
        self.reference: dict[str, str] = {}
        self.mismatches: list[str] = []
        self.crashes: list[str] = []
        os.makedirs(work, exist_ok=True)

    def _main(self, argv: list[str]) -> int:
        """cli.main; an exception that escapes it counts as exit code 1."""
        try:
            return self.cli.main(argv)
        except Exception:  # the CLI's own crash: record it and go on
            self.crashes.append(f"{' '.join(argv[:2])}: {traceback.format_exc()}")
            return 1

    def run_pass(self, tracer=None) -> tuple[dict[str, float], dict[str, float]]:
        """One pass; returns (wall, calibrated) seconds per step.

        Products are compared with those of the first pass.
        """
        for path in self.products:
            if os.path.exists(path):
                os.unlink(path)
        wall, scaled = {}, {}
        for metric, argvs in self.steps:
            wall[metric] = scaled[metric] = 0.0
            for argv in argvs:
                if tracer is None:
                    rc, elapsed, calibrated = self.clock.timed(lambda: self._main(argv))
                else:  # no host sampling inside spans
                    tracer.begin_command(" ".join(argv[:2]))
                    t0 = time.perf_counter()
                    rc = self._main(argv)
                    elapsed = calibrated = time.perf_counter() - t0
                wall[metric] += elapsed
                scaled[metric] += calibrated
                if rc != 0:
                    self.failed_steps.add(metric)
        self._compare(tracer is not None)
        return wall, scaled

    def _compare(self, traced: bool) -> None:
        for path in self.products:
            digest = gen.sha256(path) if os.path.exists(path) else "missing"
            ref = self.reference.setdefault(path, digest)
            if digest != ref:
                kind = "traced" if traced else "untraced"
                self.mismatches.append(f"{os.path.basename(path)} differs in a {kind} pass")


def setup_times(project: str, probes: int) -> tuple[list[float], list[float], list[float]]:
    """Import of fuzzyblock.cli plus parse_project, each in a fresh process.

    Returns (wall, calibrated, kernel) seconds per probe.
    """
    wall, scaled, kernels = [], [], []
    for k in range(probes + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC, project, HERE],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds, kernel = (float(v) for v in proc.stdout.split())
        if k:  # the first probe also writes the bytecode caches
            wall.append(seconds)
            scaled.append(hostclock.rescale(seconds, kernel))
            kernels.append(kernel)
    return wall, scaled, kernels


def measure(runner: Runner, seconds: float, traced_too: bool):
    """Passes until the time is spent; another starts only if it should end in time.

    With ``traced_too`` each round is an untraced pass followed by a traced
    one.  Returns the (wall, calibrated) step times of the untraced passes,
    the same of the traced passes, and the tracer or None.
    """
    tracer = None
    if traced_too:
        from tracer import Tracer

        tracer = Tracer()
    plain: list[tuple[dict, dict]] = []
    traced: list[tuple[dict, dict]] = []
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass())
        if tracer is not None:
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break
    return plain, traced, tracer


def _median(values):
    return statistics.median(values) if values else 0.0


def _pctl(values, q):
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def layer_metrics(tracer, traced, plain, step_seconds) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans; counts and self times per traced pass."""
    n = max(1, len(traced))
    g = tracer.grouped()

    def calls(name):
        return len(g.get(name, ())) / n

    def total(name):
        return sum(d for d, _, _ in g.get(name, ()))

    def self_s(name):
        return sum(s for _, s, _ in g.get(name, ())) / n

    def per_call(name, scale):
        c = len(g.get(name, ()))
        return total(name) / c * scale if c else 0.0

    def durs(name):
        return [d for d, _, _ in g.get(name, ())]

    def obs(name, tag):
        return tracer.observed.get((name, tag), 0)

    cone = "kernel.pyramid.cone_nonempty"
    records = obs("kernel.tunnel.enumerate_tunnel_blocks", "records")
    cells = obs("plane_geometry.raster_membership", "cells")
    epochs = obs("surrogate.model.train", "epochs")
    lse_calls = len(g.get("surrogate.model.lse_consequents", ()))
    samples = obs("surrogate.dataset.generate_dataset", "samples")
    gen_cmds = {i for i, c in enumerate(tracer.commands) if c == "surrogate gen"}
    attempts = sum(1 for _, _, c in g.get("surrogate.dataset.single_joint_case", ())
                   if c in gen_cmds)
    m: dict[str, tuple[float, str]] = {
        f"{cone}.calls": (calls(cone), "count"),
        f"{cone}.us_per_call": (per_call(cone, 1e6), "us"),
        f"{cone}.calls_per_record": (len(g.get(cone, ())) / records if records else 0.0, "ratio"),
        f"{cone}.boundary_only_frac": (
            obs(cone, "boundary_only") / len(g[cone]) if g.get(cone) else 0.0, "ratio"),
        "kernel.mechanics.classify_block.calls": (calls("kernel.mechanics.classify_block"), "count"),
        "kernel.mechanics.classify_block.self_s": (self_s("kernel.mechanics.classify_block"), "s"),
    }
    bv = "kernel.volume.block_volume"
    m.update({
        f"{bv}.calls": (calls(bv), "count"),
        f"{bv}.us_p50": (_median(durs(bv)) * 1e6, "us"),
        f"{bv}.us_p95": (_pctl(durs(bv), 0.95) * 1e6, "us"),
        f"{bv}.self_s": (self_s(bv), "s"),
    })
    for fn in ("sliding_mode", "safety_factor"):
        name = f"kernel.mechanics.{fn}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.us_per_call"] = (per_call(name, 1e6), "us")
    m["kernel.mechanics.safety_factor.errors"] = (
        tracer.errors.get("kernel.mechanics.safety_factor", 0) / n, "count")
    etb = "kernel.tunnel.enumerate_tunnel_blocks"
    m[f"{etb}.us_per_record"] = (total(etb) / records * 1e6 if records else 0.0, "us")
    pbp = "fuzzy_blocks.pbp"
    m.update({
        f"{pbp}.calls": (calls(pbp), "count"),
        f"{pbp}.ms_p50": (_median(durs(pbp)) * 1e3, "ms"),
        f"{pbp}.ms_p95": (_pctl(durs(pbp), 0.95) * 1e3, "ms"),
        f"{pbp}.self_s": (self_s(pbp), "s"),
        "fuzzy_blocks.systems_for_code.self_s": (self_s("fuzzy_blocks.systems_for_code"), "s"),
        "fuzzy_numbers.fit_trapezoid.calls": (calls("fuzzy_numbers.fit_trapezoid"), "count"),
        "plane_geometry.raster_membership.us_per_cell": (
            total("plane_geometry.raster_membership") / cells * 1e6 if cells else 0.0, "us"),
        "plane_geometry.membership_at.calls": (calls("plane_geometry.membership_at"), "count"),
        "fuzzy_numbers.alpha_cut.calls": (
            tracer.counts.get("fuzzy_numbers.TrapezoidalNumber.alpha_cut", 0) / n, "count"),
    })
    sjc = "surrogate.dataset.single_joint_case"
    m.update({
        f"{sjc}.calls": (calls(sjc), "count"),
        f"{sjc}.us_per_call": (per_call(sjc, 1e6), "us"),
        f"{sjc}.errors": (tracer.errors.get(sjc, 0) / n, "count"),
        "surrogate.dataset.attempts_per_sample": (attempts / samples if samples else 0.0, "ratio"),
        "surrogate.model.train.ms_per_epoch": (
            total("surrogate.model.train") / epochs * 1e3 if epochs else 0.0, "ms"),
    })
    for fn in ("lse_consequents", "premise_gradients"):
        name = f"surrogate.model.{fn}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.ms_per_call"] = (per_call(name, 1e3), "ms")
    m["surrogate.model.lse_consequents.gflop"] = (
        obs("surrogate.model.lse_consequents", "gflop") / lse_calls if lse_calls else 0.0,
        "GFLOP-computed")
    m["project.parse_project.ms"] = (per_call("project.parse_project", 1e3), "ms")
    m["cli.atomic_write_text.bytes"] = (obs("cli.atomic_write_text", "bytes") / n, "bytes")
    m["cli.atomic_write_text.self_s"] = (self_s("cli.atomic_write_text"), "s")
    for layer, seconds in tracer.layer_self_time().items():
        m[f"{layer}.self_s"] = (seconds / n, "s")
    m["trace.overhead_s"] = (
        _median([sum(w.values()) for w, _ in traced]) - _median([sum(w.values()) for w, _ in plain]),
        "s")
    for metric, value in step_seconds.items():
        m[metric] = (value, "s")
    return m


# per-layer metrics whose names do not start with the function they read
METRIC_SOURCE = {
    "fuzzy_numbers.alpha_cut.calls": "fuzzy_numbers.TrapezoidalNumber.alpha_cut",
    "surrogate.dataset.attempts_per_sample": "surrogate.dataset.single_joint_case",
}


def source_function(metric: str) -> str:
    return METRIC_SOURCE.get(metric, metric.rsplit(".", 1)[0])


def run_checks(workload: str, inputs: dict[str, str], work: str, failed_steps: set[str]):
    """Check the products; returns (per-check Results, extra metrics)."""
    import checks
    from fuzzyblock.project import parse_project

    cfg = parse_project(inputs["project.json"])
    w = lambda name: os.path.join(work, name)  # noqa: E731
    results: dict[str, checks.Result] = {}
    extra: dict[str, float] = {}

    def guarded(step: str, count: int, fn):
        if step in failed_steps:
            r = checks.Result()
            r.fail_all(count, f"{step}: command exited nonzero")
            return r
        return fn()

    if workload == "crisp-sweep":
        n = len(cfg.tunnel.facets()) * 2 ** len(cfg.joints)
        if failed_steps:  # the two products are checked against each other
            for key in ("kbt analyze", "kbt volume"):
                results[key] = checks.Result()
                results[key].fail_all(n, f"{key}: a kbt command exited nonzero")
        else:
            classes = checks.oracle_classes(cfg)
            results["kbt analyze"], results["kbt volume"] = checks.check_kbt(
                w("analyze.csv"), w("volume.csv"), classes)
    elif workload == "fuzzy":
        n = len(cfg.tunnel.facets()) * 2 ** len(cfg.fuzzy_joints)
        for variant in ("paper", "standard"):
            results[f"fuzzy pbr {variant}"] = guarded(
                f"fuzzy_pbr_{variant}_s", n,
                lambda v=variant: checks.check_pbr(w(f"pbr_{v}.csv"), cfg, v))
        ref = w("crisp_limit_kbt.csv")
        import fuzzyblock.cli

        if fuzzyblock.cli.main(["kbt", "analyze", "-p", inputs["crisp_limit.json"], "-o", ref]) != 0:
            raise RuntimeError("kbt analyze of the crisp-limit project failed")
        results["fuzzy pbr crisp limit"] = guarded(
            "fuzzy_pbr_crisp_s", n, lambda: checks.check_crisp_limit(w("pbr_crisp.csv"), ref))
        with open(inputs["project.json"], encoding="utf-8") as fh:
            geometry = json.load(fh)["geometry"]
        cells = geometry["nx"] * geometry["ny"]
        results["geom eval"] = guarded(
            "geom_eval_s", cells, lambda: checks.check_raster(w("raster.csv"), geometry))
        results["geom eval svg"] = guarded("geom_eval_s", 1, lambda: checks.check_svg(w("raster.svg")))
    elif workload == "surrogate":
        spec = cfg.dataset
        rows = spec.sample_count
        results["surrogate gen"] = guarded(
            "surrogate_gen_s", rows, lambda: checks.check_dataset(w("data.csv"), spec.sf_cap, rows))
        results["surrogate predict"] = guarded(
            "surrogate_infer_s", rows, lambda: checks.check_finite(w("pred.csv"), "sf_pred", rows))
        results["surrogate map"] = guarded(
            "surrogate_infer_s", MAP_BINS,
            lambda: checks.check_finite(w("map.csv"), "sf_pred", MAP_BINS))
        results["surrogate map svg"] = guarded(
            "surrogate_infer_s", 1, lambda: checks.check_svg(w("map.svg")))
        if not failed_steps:
            extra["heldout_rmse"] = checks.heldout_rmse(w("data.csv"), w("pred.csv"), cfg.anfis)
    return results, extra


def metadata() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    commit = "unknown"  # the benchmark may run from an export that is not a repository
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30, check=False)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except OSError:
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "fuzzyblock_threads_env": os.environ.get("FUZZYBLOCK_THREADS"),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: small inputs that finish in seconds")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fuzzyblock", "cli.py")):
        print(f"error: no fuzzyblock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    run_dir = os.path.join(OUT, f"{args.workload}-{args.scale}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    in_dir = os.path.join(run_dir, "inputs")
    os.makedirs(in_dir)
    inputs = gen.build(args.workload, args.seed, args.scale, in_dir)

    setup_wall, setup, setup_kernels = setup_times(inputs["project.json"], SETUP_PROBES)
    clock = hostclock.HostClock()

    # warm-up: one untimed pass on the small inputs fills lazy imports and caches
    warm_dir = os.path.join(run_dir, "warmup")
    os.makedirs(warm_dir)
    warm_inputs = gen.build(args.workload, args.seed, "smoke", warm_dir)
    Runner(args.workload, warm_inputs, warm_dir, clock).run_pass()

    runner = Runner(args.workload, inputs, os.path.join(run_dir, "products"), clock)
    plain, traced, tracer = measure(runner, args.seconds, traced_too=bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = not runner.mismatches
    notes = runner.mismatches + runner.crashes
    try:
        results, extra = run_checks(args.workload, inputs, runner.work, runner.failed_steps)
    except Exception:  # a product the checks cannot read: report, don't crash
        results, extra = {}, {}
        correct = False
        notes.append(traceback.format_exc())
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    if attempted == 0:
        attempted, failed, correct = 1, 1, False
    for r in results.values():
        notes.extend(r.notes)

    totals = [sum(cal.values()) for _, cal in plain]
    totals_wall = [sum(wall.values()) for wall, _ in plain]
    step_medians = {metric: _median([cal[metric] for _, cal in plain])
                    for metric in ALL_STEPS[args.workload]}
    report_metrics: dict[str, tuple[float, str]] = {
        "setup_s": (_median(setup), "s"),
        "total_s": (_median(totals), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    for metric, value in step_medians.items():
        report_metrics[metric] = (value, "s")
    report_metrics["setup_wall_s"] = (_median(setup_wall), "s")
    report_metrics["total_wall_s"] = (_median(totals_wall), "s")
    report_metrics["calibration_kernel_ms"] = (_median(clock.kernel_s) * 1e3, "ms")
    if "heldout_rmse" in extra:
        report_metrics["heldout_rmse"] = (extra["heldout_rmse"], "sf")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace:
        layer = layer_metrics(tracer, traced, plain, step_medians)
        layer["heldout_rmse"] = (extra.get("heldout_rmse", 0.0), "sf")
        layer["failed_frac"] = (failed / attempted, "ratio")
        tracer.dump(os.path.join(run_dir, "spans.json"))
        wanted = spec["per_layer"]
        source = layer
    else:
        wanted = spec["end_to_end"]
        source = report_metrics
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in ALL_STEPS_FLAT and name not in source:
            value = 0.0  # a command this workload does not run
        else:
            value = source[name][0]
        missing = args.trace and source_function(name) in tracer.missing
        metrics[name] = {"value": None if missing else value, "unit": entry["unit"]}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(plain),
        "traced_passes": len(traced),
        "inputs_sha256": {name: gen.sha256(path) for name, path in inputs.items()},
        "metadata": metadata(),
        "pass_totals_s": totals,
        "pass_totals_wall_s": totals_wall,
        "pass_steps": [{"wall": w, "calibrated": c} for w, c in plain],
        "setup_probes_s": setup,
        "setup_probes_wall_s": setup_wall,
        "calibration_kernel_s": clock.kernel_s,
        "setup_kernel_s": setup_kernels,
        "checks": {k: {"attempted": r.attempted, "failed": r.failed} for k, r in results.items()},
        "report_metrics": {k: {"value": v, "unit": u} for k, (v, u) in report_metrics.items()},
        "missing": tracer.missing if args.trace else [],
        "notes": notes[:50],
    }
    with open(os.path.join(run_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"# workload {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}: "
          f"{len(plain)} untraced passes, {len(traced)} traced")
    for key, value in report["metadata"].items():
        print(f"# meta {key}: {value}")
    for name, digest in report["inputs_sha256"].items():
        print(f"# input {name} sha256 {digest}")
    for name, (value, unit) in report_metrics.items():
        print(f"# {name} = {value!r} {unit}")
    if args.trace:
        for name, (value, unit) in layer.items():
            print(f"# layer {name} = {value!r} {unit}")
        for name in tracer.missing:
            print(f"# missing {name}")
    for key, r in results.items():
        print(f"# check {key}: {r.failed} of {r.attempted} failed")
    for note in notes[:20]:
        for line in note.splitlines():
            print(f"# note {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
