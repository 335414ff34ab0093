"""Seeded project files for the benchmark workloads.

Every input the program sees is generated here from the workload seed with
``random.Random``, whose stream is fixed across Python versions, so the same
seed always gives the same bytes.  ``scale="smoke"`` builds the small inputs
of the warm-up pass and of ``smoke.py``.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random

# README octagon: 8 facets, so one sweep makes 8 * 2**joints records
OCTAGON = [[2, -1.2], [2, 1.2], [1.2, 2], [-1.2, 2], [-2, 1.2], [-2, -1.2], [-1.2, -2], [1.2, -2]]
SQUARE = [[2, -2], [2, 2], [-2, 2], [-2, -2]]

README_DATASET = {
    "dip_range": [10, 35],
    "dip_direction_range": [100, 160],
    "friction_range": [15, 25],
    "angle_range": [31, 391],
}
README_ANFIS = {"mfs_per_input": [2, 2, 2, 8, 2], "epochs": 30, "learn_rate": 0.01, "ridge": 0.01}


def _r(x: float) -> float:
    return round(x, 3)


def _project(section, **sections) -> dict:
    doc = {"schema_version": 1, "tunnel": {"section": section, "axis_trend_deg": 0.0}}
    doc.update(sections)
    return doc


def crisp_joints(rng: random.Random, general: int) -> list[dict]:
    """`general` random joints plus the three degenerate kinds, in that order.

    The degenerate joints are kept on purpose: dip 0 and dip 90 give
    boundary-only cones against the crown/invert and wall facets, and the
    parallel copy of J1 makes the two planes opposed in half of the codes.
    """
    joints = []
    for i in range(general):
        joints.append({
            "id": f"J{i + 1}",
            "dip_deg": _r(rng.uniform(20.0, 80.0)),
            "dip_direction_deg": _r(rng.uniform(0.0, 360.0)),
            "friction_deg": _r(rng.uniform(15.0, 35.0)),
        })
    n = len(joints)
    joints.append({"id": f"J{n + 1}", "dip_deg": 0.0,
                   "dip_direction_deg": _r(rng.uniform(0.0, 360.0)),
                   "friction_deg": _r(rng.uniform(15.0, 35.0))})
    joints.append({"id": f"J{n + 2}", "dip_deg": 90.0,
                   "dip_direction_deg": _r(rng.uniform(0.0, 360.0)),
                   "friction_deg": _r(rng.uniform(15.0, 35.0))})
    copy = dict(joints[0], id=f"J{n + 3}", friction_deg=_r(rng.uniform(15.0, 35.0)))
    joints.append(copy)
    return joints


def _trapezoid(core: float, core_half: float, support_half: float) -> list[float]:
    return [_r(core - support_half), _r(core - core_half), _r(core + core_half), _r(core + support_half)]


def fuzzy_joints(rng: random.Random, count: int) -> tuple[list[dict], list[dict]]:
    """Fuzzy joints spread around the compass and their crisp core values.

    The last joint has a wide spread (support half-widths of 12-18 degrees),
    where the lattice search for PBP falls short of the true supremum.
    """
    fuzzy, crisp = [], []
    for i in range(count):
        wide = i == count - 1
        dip = rng.uniform(40.0, 70.0)
        dd = (i * 360.0 / count + rng.uniform(-20.0, 20.0)) % 360.0
        phi = rng.uniform(18.0, 30.0)
        spread = rng.uniform(12.0, 18.0) if wide else rng.uniform(3.0, 6.0)
        core = rng.uniform(0.0, 1.5)
        fuzzy.append({
            "id": f"F{i + 1}",
            "dip_deg": _trapezoid(dip, core, spread),
            "dip_direction_deg": _trapezoid(dd, core, spread),
            "friction_deg": _trapezoid(phi, 1.0, 4.0),
        })
        crisp.append({"id": f"J{i + 1}", "dip_deg": _r(dip),
                      "dip_direction_deg": _r(dd), "friction_deg": _r(phi)})
    return fuzzy, crisp


def fuzzy_polygon(rng: random.Random, vertices: int, n: int) -> dict:
    """Star-shaped fuzzy polygon around (0, 0) with trapezoidal coordinates."""
    verts = []
    for k in range(vertices):
        ang = 2.0 * math.pi * (k + rng.uniform(-0.2, 0.2)) / vertices
        rad = rng.uniform(1.0, 1.6)
        pt = {}
        for axis, trig in (("x", math.cos), ("y", math.sin)):
            core = rad * trig(ang)
            half = rng.uniform(0.01, 0.05)
            pt[axis] = _trapezoid(core, half, half + rng.uniform(0.05, 0.25))
        verts.append(pt)
    return {"shape": {"type": "polygon", "vertices": verts},
            "bbox": [-2.2, -2.2, 2.2, 2.2], "nx": n, "ny": n}


def build(workload: str, seed: int, scale: str, workdir: str) -> dict[str, str]:
    """Write the workload's input files into workdir; returns name -> path."""
    rng = random.Random(f"{workload}:{seed}")
    smoke = scale == "smoke"
    files: dict[str, dict] = {}
    if workload == "crisp-sweep":
        files["project.json"] = _project(OCTAGON, joints=crisp_joints(rng, 1 if smoke else 5))
    elif workload == "fuzzy":
        fz, crisp = fuzzy_joints(rng, 1 if smoke else 3)
        section = SQUARE if smoke else OCTAGON
        files["project.json"] = _project(
            section, fuzzy_joints=fz, geometry=fuzzy_polygon(rng, 5, 12 if smoke else 60)
        )
        zero = [dict(j, id=f"F{i + 1}") for i, j in enumerate(crisp)]
        files["crisp_limit.json"] = _project(section, joints=crisp, fuzzy_joints=zero)
    elif workload == "surrogate":
        dataset = dict(README_DATASET, sample_count=200 if smoke else 2000,
                       seed=rng.randrange(1, 2**31))
        anfis = dict(README_ANFIS, epochs=5, mfs_per_input=2) if smoke else dict(README_ANFIS)
        files["project.json"] = _project(OCTAGON, dataset=dataset, anfis=anfis)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    paths = {}
    for name, doc in files.items():
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths[name] = path
    return paths


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
