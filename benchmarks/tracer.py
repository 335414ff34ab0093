"""Layer spans recorded from outside the program by wrapping its functions.

A layer is one module of the package.  ``Tracer.install`` wraps every public
function of each layer module, and every public plain method of the classes
those modules define, then replaces *every* attribute in every loaded
``fuzzyblock`` module and class that is the original object.  Aliases such
as ``cli.pbp`` or ``cli.model_rmse`` are therefore wrapped too, so a call
keeps its span when a refactor moves the call site.  ``uninstall`` puts the
originals back.

Each span records (id, name, start, end, parent id, command id, self time).
Self time is the span's duration minus the time covered by its child spans,
kept on a stack.  Spans stay in memory and are written out by ``dump``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable

LAYERS = (
    "kernel.pyramid",
    "kernel.mechanics",
    "kernel.volume",
    "kernel.tunnel",
    "fuzzy_numbers",
    "plane_geometry",
    "fuzzy_blocks",
    "surrogate.dataset",
    "surrogate.model",
    "project",
    "cli",
    "svg_out",
)

# Called millions of times per pass (alpha-cut bisection); a timed span
# around each would cost more than the work itself, so these are counted.
COUNT_ONLY = frozenset({
    "fuzzy_numbers.TrapezoidalNumber.alpha_cut",
    "fuzzy_numbers.TrapezoidalNumber.membership",
    "plane_geometry.FuzzyPoint.alpha_box",
})

# Names the per-layer metrics read.  One that no longer exists is reported
# as missing rather than as zero calls.
REQUIRED = (
    "kernel.pyramid.cone_nonempty",
    "kernel.mechanics.classify_block",
    "kernel.mechanics.sliding_mode",
    "kernel.mechanics.safety_factor",
    "kernel.volume.block_volume",
    "kernel.tunnel.enumerate_tunnel_blocks",
    "fuzzy_blocks.pbp",
    "fuzzy_blocks.systems_for_code",
    "fuzzy_numbers.fit_trapezoid",
    "fuzzy_numbers.TrapezoidalNumber.alpha_cut",
    "plane_geometry.raster_membership",
    "plane_geometry.membership_at",
    "surrogate.dataset.single_joint_case",
    "surrogate.dataset.generate_dataset",
    "surrogate.model.train",
    "surrogate.model.lse_consequents",
    "surrogate.model.premise_gradients",
    "project.parse_project",
    "cli.atomic_write_text",
    "cli.main",
)


def _lse_gflop(args, kwargs, result) -> float:
    """N*P^2 + P^3/3 with P = rules * (inputs + 1): computed, not counted."""
    model, X = args[0], args[1]
    n, d = X.shape
    p = model.rule_count * (d + 1)
    return (n * p * p + p ** 3 / 3.0) / 1e9


# name -> (tag, f(args, kwargs, result) -> number) summed per name and tag
OBSERVE: dict[str, tuple[tuple[str, Callable], ...]] = {
    "kernel.pyramid.cone_nonempty": (
        ("boundary_only", lambda a, k, r: 1 if r.boundary_only else 0),),
    "kernel.tunnel.enumerate_tunnel_blocks": (("records", lambda a, k, r: len(r)),),
    "plane_geometry.raster_membership": (("cells", lambda a, k, r: r.size),),
    "surrogate.dataset.generate_dataset": (("samples", lambda a, k, r: len(r)),),
    "surrogate.model.train": (("epochs", lambda a, k, r: len(r[1])),),
    "surrogate.model.lse_consequents": (("gflop", _lse_gflop),),
    "cli.atomic_write_text": (("bytes", lambda a, k, r: len(a[1].encode("utf-8"))),),
}


def _targets(package: str) -> dict[str, object]:
    """Qualified name (layer-relative) -> original function object."""
    found: dict[str, object] = {}
    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"{package}.{layer}")
        except ModuleNotFoundError:  # a removed layer: its names report as missing
            continue
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[f"{layer}.{name}"] = obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mname, meth in vars(obj).items():
                    if not mname.startswith("_") and inspect.isfunction(meth):
                        found[f"{layer}.{name}.{mname}"] = meth
    return found


class Tracer:
    """Spans and counts of the layer functions while installed."""

    def __init__(self, package: str = "fuzzyblock") -> None:
        self.package = package
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float, int, int, float]] = []
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.observed: dict[tuple[str, str], float] = {}
        self.command = -1
        self.commands: list[str] = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    def begin_command(self, label: str) -> None:
        self.commands.append(label)
        self.command = len(self.commands) - 1

    def _span_wrapper(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        observers = OBSERVE.get(name, ())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((span_id, idx, t0, t1, parent, self.command, dur - frame[1]))
            for tag, fn_obs in observers:
                key = (name, tag)
                self.observed[key] = self.observed.get(key, 0) + fn_obs(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every loaded alias of the layer functions (wrappers made once)."""
        if not self._wrappers:
            targets = _targets(self.package)
            self.missing = [n for n in REQUIRED if n not in targets]
            for name, fn in targets.items():
                wrap = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
                self._wrappers[id(fn)] = (fn, wrap(name, fn))
        prefix = self.package + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package or modname.startswith(prefix)):
                continue
            owners = [mod] + [c for c in vars(mod).values()
                              if inspect.isclass(c) and c.__module__ == modname]
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    pair = self._wrappers.get(id(val))
                    if pair is not None and pair[0] is val:
                        self._patches.append((owner, attr, val))
                        setattr(owner, attr, pair[1])

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    def dump(self, path: str) -> None:
        """Write every span as one JSON document: names, commands, rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["id", "name", "start", "end", "parent", "command", "self_s"],
                "names": self.names,
                "commands": self.commands,
                "spans": self.spans,
                "counts": self.counts,
                "errors": self.errors,
                "missing": self.missing,
            }, fh)

    # -- aggregation ---------------------------------------------------
    def grouped(self) -> dict[str, list[tuple[float, float, int]]]:
        """Span name -> [(duration, self time, command id), ...]."""
        out: dict[str, list[tuple[float, float, int]]] = {n: [] for n in self.names}
        for _id, idx, t0, t1, _parent, cmd, self_s in self.spans:
            out[self.names[idx]].append((t1 - t0, self_s, cmd))
        return out

    def layer_self_time(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        longest_first = sorted(LAYERS, key=len, reverse=True)
        layer_of = [next(l for l in longest_first if n.startswith(l + "."))
                    for n in self.names]
        for s in self.spans:
            out[layer_of[s[1]]] += s[6]
        return out
