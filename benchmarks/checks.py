"""Output checks, run outside the timed region.

Each check returns a ``Result``: items attempted and failed, plus notes on
the first failures.  An item is a sweep record, a PBR row, a raster cell, a
dataset, prediction or map row, or an SVG document.  The oracles are
independent of the code under test where the algorithm is in question
(scipy ``linprog`` for cone emptiness, a plain alpha-grid scan for
membership) and use the package's public definitions where those fix the
meaning of a value (``constraint_poss``, ``finiteness_label``).
"""
from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET

import numpy as np

CLASS_OF_PBR = {(1.0, 1.0): "infinite", (0.0, 1.0): "removable", (0.0, 0.0): "tapered"}


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float:
    return float(text) if text != "" else math.nan


class Result:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def item(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)

    def fail_all(self, count: int, note: str) -> None:
        self.attempted += count
        self.failed += count
        self.notes.append(note)


# -- crisp sweep -------------------------------------------------------

def cone_nonempty_oracle(normals: np.ndarray) -> bool:
    """{v != 0 : A v >= 0} is nonempty, decided by Stiemke's alternative.

    With rank(A) = 3, a nonzero v with A v >= 0 exists exactly when there is
    no y > 0 with A^T y = 0.  A rank-deficient A has a nonzero null vector,
    which lies in the cone.
    """
    from scipy.optimize import linprog

    if np.linalg.matrix_rank(normals, tol=1e-9) < normals.shape[1]:
        return True
    m = normals.shape[0]
    res = linprog(np.zeros(m), A_eq=normals.T, b_eq=np.zeros(normals.shape[1]),
                  bounds=[(1.0, None)] * m, method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"linprog failed: {res.message}")
    return res.status == 2


def oracle_classes(cfg) -> dict[tuple[int, str], str]:
    """Shi's class for every (facet, code) of the sweep, from linprog."""
    from fuzzyblock.kernel.tunnel import all_codes

    normals = np.array([j.normal for j in cfg.joints])
    jp_nonempty = {}
    for code in all_codes(len(cfg.joints)):
        signs = np.array([1.0 if ch == "U" else -1.0 for ch in code])
        jp = signs[:, None] * normals
        jp_nonempty[code] = (jp, cone_nonempty_oracle(jp))
    out = {}
    for facet in cfg.tunnel.facets():
        e = facet.inward_normal / np.linalg.norm(facet.inward_normal)
        for code, (jp, jp_ne) in jp_nonempty.items():
            if cone_nonempty_oracle(np.vstack([jp, e])):
                cls = "infinite"
            elif jp_ne:
                cls = "removable"
            else:
                cls = "tapered"
            out[(facet.index, code)] = cls
    return out


def check_kbt(analyze_csv: str, volume_csv: str, classes: dict) -> tuple[Result, Result]:
    """Class against the oracle; removable records need SF and volume."""
    analyze, volume = Result(), Result()
    rows = read_csv(analyze_csv)
    by_key = {(int(r["facet"]), r["code"]): r for r in rows}
    vols = {(int(r["facet"]), r["code"]): _num(r["volume"]) for r in read_csv(volume_csv)}
    for key, want in classes.items():
        r = by_key.get(key)
        if r is None:
            analyze.item(False, f"record {key} missing from kbt analyze")
            volume.item(False)
            continue
        ok = r["class"] == want
        note = f"record {key}: class {r['class']!r}, oracle {want!r}"
        if ok and want == "removable":
            sf, vol = _num(r["sf"]), _num(r["volume"])
            mode = r["mode"]
            if mode == "falling":
                ok = sf == 0.0
            elif mode == "safe":
                ok = sf == math.inf
            else:
                ok = sf >= 0.0  # NaN (no SF written) fails
            ok = ok and math.isfinite(vol) and vol > 0.0
            note = f"record {key}: mode {mode!r} sf {r['sf']!r} volume {r['volume']!r}"
        analyze.item(ok, note)
        if want == "removable":
            v = vols.get(key, math.nan)
            volume.item(math.isfinite(v) and v > 0.0 and v == _num(r["volume"]),
                        f"volume of {key}: {v!r}")
        else:
            volume.item(key not in vols, f"volume row for non-removable {key}")
    if len(rows) != len(classes):
        analyze.notes.append(f"kbt analyze wrote {len(rows)} records, expected {len(classes)}")
    return analyze, volume


# -- fuzzy -------------------------------------------------------------

def _direction_sample(dim: int, n: int = 256) -> np.ndarray:
    rng = np.random.default_rng(20080516)
    d = rng.standard_normal((n, dim))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return np.vstack([d, np.eye(dim), -np.eye(dim)])


def _best_min_poss(system, variant: str, dirs: np.ndarray) -> float:
    from fuzzyblock.fuzzy_blocks import constraint_poss

    return max(min(constraint_poss(c, v, variant) for c in system.constraints) for v in dirs)


def check_pbr(pbr_csv: str, cfg, variant: str, sample_every: int = 8) -> Result:
    """Range, PBR formula and label on every row; sampled PBP lower bounds."""
    from fuzzyblock.fuzzy_blocks import finiteness_label, systems_for_code

    res = Result()
    rows = read_csv(pbr_csv)
    facets = {f.index: f for f in cfg.tunnel.facets()}
    dirs = _direction_sample(3)
    expected = len(facets) * 2 ** len(cfg.fuzzy_joints)
    if len(rows) != expected:
        res.fail_all(max(expected - len(rows), 0), f"{len(rows)} PBR rows, expected {expected}")
    for k, r in enumerate(rows):
        pbp_v, pjb_v, pbr_v = float(r["pbp"]), float(r["pjb_sup"]), float(r["pbr"])
        ok = 0.0 <= pbp_v <= pjb_v <= 1.0
        ok = ok and pbr_v == min(1.0 - pbp_v, pjb_v)
        ok = ok and r["label"] == finiteness_label(pbp_v, cfg.label_thresholds)
        note = f"row {k} ({r['facet']},{r['code']}): pbp {pbp_v} pjb_sup {pjb_v} pbr {pbr_v} {r['label']!r}"
        if ok and k % sample_every == 0:
            facet = facets[int(r["facet"])]
            jp, bp = systems_for_code(cfg.fuzzy_joints, r["code"], facet.inward_normal)
            lb_bp = _best_min_poss(bp, variant, dirs)
            lb_jp = _best_min_poss(jp, variant, dirs)
            ok = pbp_v >= lb_bp and pjb_v >= lb_jp
            note += f"; sampled lower bounds {lb_bp} / {lb_jp}"
        res.item(ok, note)
    return res


def check_crisp_limit(pbr_csv: str, analyze_csv: str) -> Result:
    """Zero-spread PBR must give exactly the crisp classes of kbt analyze."""
    res = Result()
    crisp = {(r["facet"], r["code"]): r["class"] for r in read_csv(analyze_csv)}
    rows = read_csv(pbr_csv)
    if len(rows) != len(crisp):
        res.fail_all(abs(len(crisp) - len(rows)), f"{len(rows)} crisp-limit rows, {len(crisp)} records")
    for r in rows:
        got = CLASS_OF_PBR.get((float(r["pbp"]), float(r["pjb_sup"])), "not crisp")
        want = crisp.get((r["facet"], r["code"]))
        res.item(got == want, f"crisp limit ({r['facet']},{r['code']}): {got} vs kbt {want}")
    return res


def _in_hull(p: np.ndarray, pts: np.ndarray, eps: float) -> np.ndarray:
    """Per alpha: is p within eps of the convex hull of pts[a] (shape (A, K, 2))?

    Every hull edge lies on a line through two of the points; p is outside
    exactly when some such line has all points on one side and p beyond it.
    The hull must be two-dimensional, which holds for boxes of nonzero width.
    """
    d = pts[:, None, :, :] - pts[:, :, None, :]                      # (A, K, K, 2)
    nrm = np.stack([-d[..., 1], d[..., 0]], axis=-1)                 # line normals
    tol = eps * np.linalg.norm(nrm, axis=-1)
    base = np.einsum("akjd,akd->akj", nrm, pts)
    side = np.einsum("akjd,amd->akjm", nrm, pts) - base[..., None]
    side_p = np.einsum("akjd,d->akj", nrm, p) - base
    separating = (tol > 0) & np.all(side >= -tol[..., None], axis=-1) & (side_p < -tol)
    return ~separating.any(axis=(1, 2))


def scan_membership(vertices: list[list[list[float]]], x: float, y: float, alphas: np.ndarray) -> float:
    """Largest grid alpha at which (x, y) lies in some edge's alpha-cut hull."""
    p = np.array([x, y])
    best = 0.0
    n = len(vertices)

    def cut(knots):
        a1, a2, a3, a4 = knots
        return a1 + alphas * (a2 - a1), a4 - alphas * (a4 - a3)

    boxes = []
    for vx, vy in vertices:
        (xlo, xhi), (ylo, yhi) = cut(vx), cut(vy)
        boxes.append(np.stack([np.stack([xlo, ylo], -1), np.stack([xhi, ylo], -1),
                               np.stack([xhi, yhi], -1), np.stack([xlo, yhi], -1)], axis=1))
    scale = 1.0 + max(abs(x), abs(y), max(float(np.abs(b).max()) for b in boxes))
    for i in range(n):
        pts = np.concatenate([boxes[i], boxes[(i + 1) % n]], axis=1)
        inside = _in_hull(p, pts, 1e-9 * scale)
        if inside.any():
            best = max(best, float(alphas[np.nonzero(inside)[0].max()]))
    return best


def check_raster(raster_csv: str, geometry: dict, samples: int = 48, steps: int = 200) -> Result:
    """Every cell in [0, 1]; sampled cells match an alpha-grid scan within a step."""
    res = Result()
    rows = read_csv(raster_csv)
    n_cells = geometry["nx"] * geometry["ny"]
    if len(rows) != n_cells:
        res.fail_all(max(n_cells - len(rows), 0), f"{len(rows)} raster cells, expected {n_cells}")
    verts = [[v["x"], v["y"]] for v in geometry["shape"]["vertices"]]
    alphas = np.linspace(0.0, 1.0, steps + 1)
    step = 1.0 / steps
    stride = max(1, len(rows) // samples)
    for k, r in enumerate(rows):
        m = float(r["membership"])
        ok = 0.0 <= m <= 1.0
        note = f"cell {k}: membership {m}"
        if ok and k % stride == stride // 2:
            s = scan_membership(verts, float(r["x"]), float(r["y"]), alphas)
            ok = s - 1e-6 <= m <= s + step + 1e-6 if s < 1.0 else m == 1.0
            note += f", scan {s}"
        res.item(ok, note)
    return res


def check_svg(path: str) -> Result:
    res = Result()
    try:
        ok = ET.parse(path).getroot().tag.endswith("svg")
    except (ET.ParseError, OSError) as exc:
        ok = False
        res.notes.append(f"{path}: {exc}")
    res.item(ok, f"{path} is not an SVG document")
    return res


# -- surrogate ---------------------------------------------------------

def check_dataset(data_csv: str, sf_cap: float, expected: int) -> Result:
    res = Result()
    rows = read_csv(data_csv)
    if len(rows) != expected:
        res.fail_all(max(expected - len(rows), 0), f"{len(rows)} dataset rows, expected {expected}")
    for k, r in enumerate(rows):
        sf, vol = float(r["sf"]), float(r["volume_m3"])
        res.item(0.0 <= sf <= sf_cap and math.isfinite(vol) and vol > 0.0,
                 f"dataset row {k}: sf {sf} volume {vol}")
    return res


def check_finite(path: str, column: str, expected: int) -> Result:
    res = Result()
    rows = read_csv(path)
    if len(rows) != expected:
        res.fail_all(max(expected - len(rows), 0), f"{path}: {len(rows)} rows, expected {expected}")
    for k, r in enumerate(rows):
        res.item(math.isfinite(float(r[column])), f"{path} row {k}: {column} {r[column]!r}")
    return res


def heldout_rmse(data_csv: str, pred_csv: str, anfis) -> float:
    """RMSE in SF units on the rows ``surrogate train`` held out.

    The split repeats the CLI's: a Philox permutation keyed by the split seed,
    the first ``train_fraction`` of it used for training.
    """
    sf = np.array([float(r["sf"]) for r in read_csv(data_csv)])
    pred = np.array([float(r["sf_pred"]) for r in read_csv(pred_csv)])
    key = np.array([anfis.split_seed & 0xFFFFFFFFFFFFFFFF, 999], dtype=np.uint64)
    perm = np.random.Generator(np.random.Philox(key=key)).permutation(len(sf))
    test = perm[int(anfis.train_fraction * len(sf)):]
    return float(np.sqrt(np.mean((pred[test] - sf[test]) ** 2)))
