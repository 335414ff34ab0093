"""Acceptance suite: one test per criterion, at the stated tolerance and budget.

Each test records a PASS/FAIL line that the conftest prints in the terminal
summary, so a full run ends with one line per criterion.
"""
import copy
import math
import time
import warnings

import numpy as np

from conftest import record_acceptance
from hull_oracle import hull_feasible

from fuzzyblock.fuzzy_numbers import TrapezoidalNumber
from fuzzyblock.fuzzy_blocks import (
    FINITENESS_LABELS,
    FuzzyOrientation,
    finiteness_label,
    pbp,
    pbr,
    systems_for_code,
)
from fuzzyblock.kernel import (
    CLASS_REMOVABLE,
    HalfSpaceSystem,
    JointPlane,
    Orientation,
    TunnelSection,
    classify_block,
    joint_pyramid,
    monte_carlo_volume,
    pyramid_nonempty,
    safety_factor,
    sliding_mode,
)
from fuzzyblock.kernel.volume import UnboundedBlockError, block_vertices, block_volume
from fuzzyblock.fuzzy_numbers import exceedance_poss
from fuzzyblock.plane_geometry import (
    FuzzyLineImplicit,
    FuzzyLineSlope,
    FuzzyPoint,
    FuzzySegment,
    line_membership,
    segment_membership,
    slope_line_membership,
)
from fuzzyblock.surrogate.dataset import (
    FEATURE_NAMES,
    DatasetSpec,
    generate_dataset,
    normalize,
    single_joint_case,
)
from fuzzyblock.surrogate.model import (
    damage_map,
    forward_batch,
    init_model,
    premise_gradients,
    rmse as model_rmse,
    save_model,
    train,
)

T = TrapezoidalNumber

TUNNEL = TunnelSection(
    ((2, -1.2), (2, 1.2), (1.2, 2), (-1.2, 2), (-2, 1.2), (-2, -1.2), (-1.2, -2), (1.2, -2))
)


def unit_rows(arr):
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def _finish(name, budget_s, started, checks):
    elapsed = time.perf_counter() - started
    passed = all(ok for ok, _ in checks) and elapsed < budget_s
    details = "; ".join(msg for ok, msg in checks if not ok)
    record_acceptance(name, passed, details or f"{elapsed:.1f}s")
    for ok, msg in checks:
        assert ok, msg
    assert elapsed < budget_s, f"{name} exceeded budget: {elapsed:.1f}s >= {budget_s}s"


def test_criterion_1_delta_formula_anchors():
    started = time.perf_counter()
    checks = []
    checks.append(
        (exceedance_poss(T(5, 6, 7, 8), T(1, 2, 3, 4)) == 1.0, "case b3 >= r4 must give 1")
    )
    checks.append(
        (exceedance_poss(T(1, 2, 3, 4), T(5, 6, 7, 8)) == 0.0, "case b4 <= r3 must give 0")
    )
    value = exceedance_poss(T(0, 1, 2, 4), T(1, 2, 3, 5), "paper")
    checks.append((abs(value - 1 / 3) < 1e-15, f"paper delta expected 1/3, got {value}"))
    _finish("criterion 1: delta-formula anchors", 1.0, started, checks)


def test_criterion_2_geometry_oracle_suite():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(101))

    def random_trap(center_lo=-3.0, center_hi=3.0, spread=0.6):
        c = rng.uniform(center_lo, center_hi)
        d1, d2, d3 = sorted(rng.uniform(0, spread, size=3))
        return T(c - d3, c - d1, c + d1, c + d3)

    def interval_mul(lo, hi, k):
        return (k * lo, k * hi) if k >= 0 else (k * hi, k * lo)

    def grid_sup(feasible):
        sup = 0.0
        for i in range(1001):
            alpha = i / 1000.0
            if feasible(alpha):
                sup = alpha
        return sup

    worst = 0.0
    count = 0
    for _ in range(40):
        line = FuzzyLineImplicit(random_trap(), random_trap(), random_trap())
        px, py = rng.uniform(-4, 4, size=2)

        def feas(alpha):
            a, b, c = (line.a.alpha_cut(alpha), line.b.alpha_cut(alpha), line.c.alpha_cut(alpha))
            alo, ahi = interval_mul(a.lo, a.hi, px)
            blo, bhi = interval_mul(b.lo, b.hi, py)
            return alo + blo <= c.hi and c.lo <= ahi + bhi

        worst = max(worst, abs(line_membership(line, px, py) - grid_sup(feas)))
        count += 1
    for _ in range(30):
        line = FuzzyLineSlope(random_trap(), random_trap())
        px, py = rng.uniform(-4, 4, size=2)

        def feas(alpha):
            m, b = line.m.alpha_cut(alpha), line.b.alpha_cut(alpha)
            mlo, mhi = interval_mul(m.lo, m.hi, px)
            return mlo + b.lo <= py <= mhi + b.hi

        worst = max(worst, abs(slope_line_membership(line, px, py) - grid_sup(feas)))
        count += 1
    for _ in range(30):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            seg = FuzzySegment(
                FuzzyPoint(random_trap(), random_trap()),
                FuzzyPoint(random_trap(), random_trap()),
            )
        px, py = rng.uniform(-4, 4, size=2)

        def feas(alpha):
            return hull_feasible(seg, px, py, alpha)

        worst = max(worst, abs(segment_membership(seg, px, py) - grid_sup(feas)))
        count += 1

    crisp_line = FuzzyLineImplicit.crisp(1, 1, 2)
    crisp_seg = FuzzySegment(FuzzyPoint.crisp(0, 0), FuzzyPoint.crisp(1, 0))
    checks = [
        (count >= 100, f"only {count} randomized shapes checked"),
        (worst <= 2e-3, f"worst closed-form-vs-grid deviation {worst:.2e} exceeds 2e-3"),
        (line_membership(crisp_line, 1, 1) == 1.0, "crisp line on-point must be exactly 1"),
        (line_membership(crisp_line, 0, 0) == 0.0, "crisp line off-point must be exactly 0"),
        (segment_membership(crisp_seg, 0.5, 0) == 1.0, "crisp segment on-point must be 1"),
        (segment_membership(crisp_seg, 0.5, 0.1) == 0.0, "crisp segment off-point must be 0"),
    ]
    _finish("criterion 2: fuzzy-geometry oracle suite", 30.0, started, checks)


def test_criterion_3_pyramid_oracle_suite():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(103))
    dirs = unit_rows(rng.normal(size=(100000, 3)))
    disagreements = 0
    compared = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        normals = unit_rows(rng.normal(size=(n, 3)))
        sampled = float((dirs @ normals.T).min(axis=1).max())
        # a positive sampled margin over 1e-3 certifies nonemptiness; the
        # empty side needs the lattice covering radius (~6e-3) of slack
        if -1e-2 < sampled <= 1e-3:
            continue
        compared += 1
        if pyramid_nonempty(HalfSpaceSystem(normals)).nonempty != (sampled > 0):
            disagreements += 1
    checks = [
        (compared >= 800, f"only {compared} systems had a decisive sampled margin"),
        (disagreements == 0, f"{disagreements} LP-vs-sampling disagreements"),
    ]
    _finish("criterion 3: pyramid oracle suite", 60.0, started, checks)


def test_criterion_4_shi_crisp_limit():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(107))
    mismatches = 0
    non_binary = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        dips = rng.uniform(5, 85, size=n)
        dds = rng.uniform(0, 360, size=n)
        code = "".join(rng.choice(["U", "L"], size=n))
        e = unit_rows(rng.normal(size=(1, 3)))[0]
        joints = [JointPlane(f"J{k}", Orientation(dips[k], dds[k]), 20.0) for k in range(n)]
        cls, _, _ = classify_block(code, joints, e)
        fuzzy = [
            FuzzyOrientation(T.crisp(dips[k]), T.crisp(dds[k] if dds[k] < 270 else dds[k] - 360))
            for k in range(n)
        ]
        jp_sys, bp_sys = systems_for_code(fuzzy, code, e)
        for variant in ("paper", "standard"):
            value = pbr(jp_sys, bp_sys, variant)
            if value not in (0.0, 1.0):
                non_binary += 1
            elif (value == 1.0) != (cls == CLASS_REMOVABLE):
                mismatches += 1
    checks = [
        (non_binary == 0, f"{non_binary} crisp pbr values were not 0/1"),
        (mismatches == 0, f"{mismatches} crisp pbr values disagreed with classification"),
    ]
    _finish("criterion 4: Shi crisp-limit", 60.0, started, checks)


def test_criterion_5_mechanics_anchors():
    started = time.perf_counter()
    checks = []

    roof_joints = [JointPlane(f"J{i}", Orientation(60, dd), 20.0) for i, dd in enumerate((0, 120, 240))]
    jp = joint_pyramid("LLL", roof_joints)
    mode = sliding_mode(jp, (0, 0, -1))
    sf_fall = safety_factor(jp, mode, (0, 0, -1), [20, 20, 20])
    checks.append((sf_fall == 0.0, f"falling S.F must be 0, got {sf_fall}"))

    plane_jp = joint_pyramid("U", [JointPlane("J1", Orientation(30, 0), 20.0)])
    pmode = sliding_mode(plane_jp, (0, 0, -1))
    sf_plane = safety_factor(plane_jp, pmode, (0, 0, -1), [20.0])
    expected = math.tan(math.radians(20)) / math.tan(math.radians(30))
    checks.append(
        (abs(sf_plane - expected) < 1e-9, f"plane slide S.F {sf_plane} vs tan20/tan30 {expected}")
    )

    m1 = np.array([0.5, -0.1, 0.860])
    m2 = np.array([-0.5, -0.1, 0.860])
    m1 /= np.linalg.norm(m1)
    m2 /= np.linalg.norm(m2)
    wedge_jp = HalfSpaceSystem(np.vstack([m1, m2]))
    wmode = sliding_mode(wedge_jp, (0, 0, -1))
    sf_wedge = safety_factor(wedge_jp, wmode, (0, 0, -1), [20.0, 20.0])
    sol = np.linalg.solve(np.column_stack([wmode.direction, -m1, -m2]), np.array([0, 0, -1.0]))
    oracle = (sol[1] + sol[2]) * math.tan(math.radians(20)) / sol[0]
    checks.append(
        (abs(sf_wedge - oracle) < 1e-3, f"wedge S.F {sf_wedge} vs decomposition oracle {oracle}")
    )
    checks.append((abs(sf_wedge - 3.62) < 0.01, f"wedge S.F {sf_wedge} far from 3.62"))

    rng = np.random.Generator(np.random.Philox(109))
    box = ((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
    vol_checked = 0
    worst_rel = 0.0
    while vol_checked < 4:
        normals = unit_rows(rng.normal(size=(5, 3)))
        offsets = rng.uniform(-0.8, 0.1, size=5)
        hs = [(normals[i], float(offsets[i])) for i in range(5)]
        try:
            vol = block_volume(hs, box)
        except UnboundedBlockError:
            continue
        if vol < 0.5:
            continue
        # sample inside a tight box around the block so the estimator's
        # standard error stays well below the 1% acceptance band
        verts = block_vertices(hs, box)
        pad = 0.05
        mc_box = (verts.min(axis=0) - pad, verts.max(axis=0) + pad)
        mc = monte_carlo_volume(hs, mc_box, 1_000_000, seed=vol_checked)
        worst_rel = max(worst_rel, abs(vol - mc) / mc)
        vol_checked += 1
    checks.append(
        (worst_rel <= 0.01, f"worst volume deviation {worst_rel:.3%} exceeds 1% of Monte-Carlo")
    )
    _finish("criterion 5: mechanics anchors", 120.0, started, checks)


def test_criterion_6_anfis_suite(tmp_path):
    started = time.perf_counter()
    checks = []

    X1 = np.linspace(-1, 1, 21).reshape(-1, 1)
    y1 = 2 * X1[:, 0] + 1
    _, hist = train(init_model(1, 2, X1), X1, y1, epochs=1)
    checks.append((hist[0] < 1e-6, f"exactly-representable RMSE {hist[0]:.2e} >= 1e-6"))

    rng = np.random.Generator(np.random.Philox(113))
    Xg = rng.uniform(-1, 1, size=(40, 2))
    yg = np.sin(2 * Xg[:, 0]) * np.cos(Xg[:, 1]) + 0.3 * Xg[:, 1]
    mg = init_model(2, 3, Xg)
    mg.consequents = rng.normal(size=mg.consequents.shape) * 0.3
    grads = premise_gradients(mg, Xg, yg)

    def mse(model):
        pred, _ = forward_batch(model, Xg)
        return float(np.mean((pred - yg) ** 2))

    h = 1e-6
    worst_rel = 0.0
    for i in range(2):
        for mf in range(3):
            for p in range(3):
                up = copy.deepcopy(mg)
                dn = copy.deepcopy(mg)
                up.mf_params[i][mf, p] += h
                dn.mf_params[i][mf, p] -= h
                fd = (mse(up) - mse(dn)) / (2 * h)
                an = grads[i][mf, p]
                worst_rel = max(worst_rel, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    checks.append(
        (worst_rel < 1e-4, f"worst premise-gradient relative error {worst_rel:.2e} >= 1e-4")
    )

    g = np.linspace(-1, 1, 11)
    gx, gy = np.meshgrid(g, g)
    Xs = np.column_stack([gx.ravel(), gy.ravel()])
    with np.errstate(invalid="ignore"):
        ys = np.where(
            np.abs(Xs[:, 0]) < 1e-12, 1.0, np.sin(np.pi * 1.5 * Xs[:, 0]) / (np.pi * 1.5 * Xs[:, 0])
        ) * np.where(
            np.abs(Xs[:, 1]) < 1e-12, 1.0, np.sin(np.pi * 1.5 * Xs[:, 1]) / (np.pi * 1.5 * Xs[:, 1])
        )
    _, hist_s = train(init_model(2, 3, Xs), Xs, ys, epochs=100)
    checks.append((hist_s[-1] < 0.05, f"smooth-target RMSE {hist_s[-1]:.4f} >= 0.05"))

    Xr = rng.uniform(-1, 1, size=(40, 3))
    yr = Xr[:, 0] - Xr[:, 1] * Xr[:, 2]
    p1 = tmp_path / "retrain1.json"
    p2 = tmp_path / "retrain2.json"
    m_a, _ = train(init_model(3, 2, Xr), Xr, yr, epochs=10)
    save_model(m_a, str(p1))
    m_b, _ = train(init_model(3, 2, Xr), Xr, yr, epochs=10)
    save_model(m_b, str(p2))
    checks.append((p1.read_bytes() == p2.read_bytes(), "retrain model files differ"))

    _finish("criterion 6: ANFIS suite", 120.0, started, checks)


def test_criterion_7_damage_map_reproduction():
    started = time.perf_counter()
    helds = []
    crown_hits = 0
    for seed in (1, 2, 3, 4, 5):
        spec = DatasetSpec(
            tunnel=TUNNEL,
            seed=seed,
            sample_count=283,
            dip_range=(10, 35),
            dip_direction_range=(100, 160),
            friction_range=(15, 25),  # friction clustered around 20 degrees
            angle_range=(31, 391),
        )
        samples = generate_dataset(spec)
        assert len(samples) == 283
        X, y, record = normalize(samples)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 999], dtype=np.uint64)))
        perm = rng.permutation(len(samples))
        n_train = int(0.8 * len(samples))
        tr, te = perm[:n_train], perm[n_train:]
        model = init_model(5, [2, 2, 2, 8, 2], X[tr], input_names=FEATURE_NAMES)
        model, _ = train(model, X[tr], y[tr], epochs=30, learn_rate=0.01, ridge=0.01)
        model.normalization = record
        inputs = np.array([s.inputs for s in samples])
        model.input_medians = tuple(float(np.median(inputs[:, k])) for k in range(5))
        helds.append(model_rmse(model, X[te], y[te]))

        med = model.input_medians
        bins = 72
        lo, hi = record.mins[3], record.maxs[3]
        angles = lo + (np.arange(bins) + 0.5) * (hi - lo) / bins
        volumes = [
            single_joint_case(TUNNEL, med[0], med[1], med[2], float(a)).volume_m3
            for a in angles
        ]
        series = damage_map(model, bins, per_bin_inputs={"volume_m3": volumes})
        values = [v for _, v in series]
        argmin_angle = series[int(np.argmin(values))][0]
        dist = min(abs(argmin_angle - 90.0), 360.0 - abs(argmin_angle - 90.0))
        if dist <= 60.0:
            crown_hits += 1
    held_avg = float(np.mean(helds))
    checks = [
        (crown_hits == 5, f"crown minimum within +-60 deg only {crown_hits}/5 seeds"),
        (held_avg <= 0.15, f"seed-averaged held-out RMSE {held_avg:.3f} > 0.15"),
    ]
    _finish("criterion 7: damage-map reproduction", 300.0, started, checks)


def test_criterion_8_linguistic_labels():
    started = time.perf_counter()
    order = {label: i for i, label in enumerate(FINITENESS_LABELS)}
    monotone = True
    prev = -1
    for k in range(101):
        rank = order[finiteness_label(k / 100.0)]
        if rank < prev:
            monotone = False
        prev = max(prev, rank)
    checks = [
        (finiteness_label(0.0) == "finite", "pbp=0 must map to 'finite'"),
        (finiteness_label(1.0) == "infinite", "pbp=1 must map to 'infinite'"),
        (monotone, "labels must be ordered monotonically in pbp"),
    ]
    _finish("criterion 8: linguistic labels", 1.0, started, checks)
