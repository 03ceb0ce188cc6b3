"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 9 is known-red in this artifact; see the analysis in the repo notes.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from dircp.comms import (
    FeatureMessage,
    MalformedMessage,
    QueryConfidenceMap,
    ScorerParams,
    clip_queries,
    deserialize,
    per_collaborator_budget,
    serialize,
)
from dircp.direction import DirectionScores, compute_mask
from dircp.evaluate import run_method, spearman, sweep
from dircp.features import BevFeatureMap, SparseFeatureMap
from dircp.fusion import AttentionParams, dsa_weights, ego_only, fuse
from dircp.geometry import iou
from dircp.grid import GridSpec
from dircp.learn import (
    detection_loss,
    dw_loss,
    dw_loss_gradient,
    make_train_scene,
    soft_forward,
    train_scorer,
)
from dircp.pipeline import RunSettings, prepare_scene
from dircp.report import sweep_csv, sweep_json
from dircp.scenario import ScenarioConfig, generate

from _oracles import mc_iou, random_box


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} {detail}".rstrip())
    return ok


# Shared desk-scale evaluation configuration (criteria 7, 8, 10).
EVAL_SCENARIO = ScenarioConfig(seed=0, area_side=64.0, n_collaborators=4,
                               n_vehicles=12,
                               density_profile=(0.4, 0.4, 0.1, 0.1),
                               sensor_range=28.0, occlusion_enabled=True,
                               dropout_prob=0.1)
EVAL_SETTINGS = RunSettings(sigma2=5.0, conf_threshold=0.55,
                            q0_mode="confidence_gap")


def test_criterion_1_budget_safety():
    """Eq. 3 never violated over >= 10,000 random (C, q_max, N) instances."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    violations = 0
    for _ in range(10_000):
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        k = int(rng.integers(1, 5))
        q_max = float(rng.uniform(0.0, 1.0))
        c = QueryConfidenceMap(rng.uniform(0.0, 1.0, (h, w, k)))
        bits = clip_queries(c, q_max).bits
        per = per_collaborator_budget(q_max, h, w)
        if bits.sum() > q_max * h * w * k or any(
                bits[:, :, ch].sum() > per for ch in range(k)):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 10.0
    assert report(1, "budget safety", ok,
                  f"(0 violations required, got {violations}; {elapsed:.1f}s)")


def test_criterion_2_mask_oracle_equivalence():
    """compute_mask matches a direct dual-threshold evaluation, zero tolerance."""
    rng = np.random.default_rng(202)
    mismatches = 0
    for trial in range(10_000):
        n = int(rng.integers(1, 8))
        scores = [float(s) for s in rng.uniform(0, 15, n)]
        if trial % 10 == 0:
            scores = [0.0] * n  # exercise the zero-denominator convention
        interest = [float(v) for v in rng.uniform(0, 1, n)]
        s1 = float(rng.uniform(0, 1))
        s2 = float(rng.uniform(0, 10))
        got = compute_mask(DirectionScores(tuple(scores), tuple(interest)),
                           s1, s2).mask
        weighted = [s * i for s, i in zip(scores, interest)]
        total = sum(weighted)
        expected = tuple(
            max(1 if (total > 0.0 and v / total - s1 > 0.0) else 0,
                1 if v - s2 > 0.0 else 0)
            for v in weighted)
        if got != expected:
            mismatches += 1
    assert report(2, "Eq.1 oracle equivalence", mismatches == 0,
                  f"({mismatches} mismatches over 10000 tuples)")


def test_criterion_3_dw_loss_identities():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 7))
        losses = rng.uniform(0.0, 9.0, n)
        mean = float(np.mean(losses))
        all_on = tuple(1 for _ in range(n))
        for sigma in (0.0, 0.7, 3.0):
            if abs(dw_loss(losses, all_on, sigma) - mean) > 1e-12 * max(mean, 1e-300):
                ok = False
        mask = tuple(int(b) for b in rng.integers(0, 2, n))
        if abs(dw_loss(losses, mask, 1e6) - mean) > 1e-4 * max(mean, 1e-300):
            ok = False
        single = tuple(1 if i == 0 else 0 for i in range(n))
        if dw_loss(losses, single, 0.0) != losses[0]:
            ok = False
    assert report(3, "Eq.8 identities", ok)


def test_criterion_4_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(404)
    worst = 0.0
    # Part 1: DWLoss gradients on >= 100 random small instances.
    for _ in range(100):
        h = w = int(rng.integers(2, 5))
        n_dir = int(rng.integers(1, 4))
        sector = rng.integers(0, n_dir, (h, w))
        truth = np.zeros((h, w, 7))
        for _ in range(int(rng.integers(1, 4))):
            r, c = rng.integers(0, h), rng.integers(0, w)
            truth[r, c, 0] = 1.0
            truth[r, c, 1:7] = rng.uniform(0.05, 0.5, 6)
        pred = np.zeros((h, w, 7))
        pred[:, :, 0] = rng.uniform(0.1, 0.9, (h, w))
        pred[:, :, 1:7] = rng.uniform(-2, 2, (h, w, 6))
        mask = tuple(int(b) for b in rng.integers(0, 2, n_dir))
        sigma = float(rng.uniform(0.2, 2.0))
        grad = dw_loss_gradient(pred, truth, sector, mask, sigma)

        def loss_of(p):
            parts = detection_loss(p, truth, sector, n_dir)
            return dw_loss(parts["total"], mask, sigma)

        idx = [(r, c, ch) for r in range(h) for c in range(w) for ch in range(7)]
        for i in rng.choice(len(idx), size=12, replace=False):
            r, c, ch = idx[i]
            up, down = pred.copy(), pred.copy()
            up[r, c, ch] += 1e-4
            down[r, c, ch] -= 1e-4
            fd = (loss_of(up) - loss_of(down)) / 2e-4
            denom = max(abs(fd), abs(grad[r, c, ch]), 1e-8)
            worst = max(worst, abs(fd - grad[r, c, ch]) / denom)
    part1 = worst < 1e-4

    # Part 2: end-to-end soft-path gradient on an 8x8 grid.
    settings = RunSettings(d_channels=8, sigma2=2.0, q_max=0.3, tau=0.05,
                           loss_sigma=1.0)
    cfg = ScenarioConfig(seed=5, area_side=8.0, n_collaborators=2, n_vehicles=1,
                         sensor_range=8.0, occlusion_enabled=False,
                         dropout_prob=0.0)
    ts = make_train_scene(prepare_scene(generate(cfg), settings))
    params = ScorerParams.random(4, seed=6, scale=0.4)
    _, grads, _ = soft_forward(params, ts, 0.3, settings)
    flat = grads.to_vector()
    base = params.to_vector()
    worst_e2e = 0.0
    for i in range(len(base)):
        up, down = base.copy(), base.copy()
        up[i] += 1e-4
        down[i] -= 1e-4
        lu, _, _ = soft_forward(ScorerParams.from_vector(up, 4), ts, 0.3, settings)
        ld, _, _ = soft_forward(ScorerParams.from_vector(down, 4), ts, 0.3, settings)
        fd = (lu - ld) / 2e-4
        denom = max(abs(fd), abs(flat[i]), 1e-7)
        worst_e2e = max(worst_e2e, abs(fd - flat[i]) / denom)
    part2 = worst_e2e < 1e-3
    elapsed = time.time() - t0
    ok = part1 and part2 and elapsed < 60.0
    assert report(4, "gradient correctness", ok,
                  f"(dw worst rel {worst:.2e}, e2e worst rel {worst_e2e:.2e}, "
                  f"{elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_5_rotated_iou_oracle():
    t0 = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    n_pairs = 1000
    for i in range(n_pairs):
        a = random_box(rng, span=3.0)
        b = random_box(rng, span=3.0)
        err = abs(iou(a, b) - mc_iou(a, b, n=1_000_000, seed=i))
        worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst < 2e-3 and elapsed < 120.0
    assert report(5, "rotated IoU Monte-Carlo oracle", ok,
                  f"(worst abs err {worst:.2e} over {n_pairs} pairs, {elapsed:.1f}s)")


def test_criterion_6_attention_contract():
    rng = np.random.default_rng(606)
    ok_sum, ok_zero, ok_perm = True, True, True
    for trial in range(10):
        h = w = 6
        d = 8
        grid = GridSpec(h, w, 1.0)
        ego = BevFeatureMap(grid, rng.normal(size=(h, w, d)))
        k = 3
        denses = [rng.normal(size=(h, w, d)) for _ in range(k)]
        received = []
        for dense in denses:
            cells = [(r, c) for r in range(h) for c in range(w)
                     if rng.uniform() < 0.35]
            rows, cols = np.array(cells, dtype=np.intp).reshape(-1, 2).T
            received.append(SparseFeatureMap(rows, cols, dense[rows, cols], (h, w, d)))
        qcm_vals = rng.uniform(0, 1, (h, w, k))
        qcm_vals[:, :, 0] = 0.0  # collaborator 1 fully suppressed
        params = (AttentionParams.identity(d) if trial % 2 == 0
                  else AttentionParams.random(d, seed=trial))
        weights = dsa_weights(ego, received, QueryConfidenceMap(qcm_vals), params)
        sums = np.where(weights.present, weights.pre_qcm, 0.0).sum(axis=2)
        if not np.all(np.abs(sums - 1.0) < 1e-6):
            ok_sum = False
        if not np.all(weights.values[:, :, 1] == 0.0):
            ok_zero = False
        m = params.value_matrix()
        contrib = (denses[0] @ m.T) * weights.values[:, :, 1:2]
        if not np.all(contrib == 0.0):
            ok_zero = False
        fused = fuse(ego, weights, ego_only(ego, params))
        perm = [2, 0, 1]
        weights_p = dsa_weights(ego, [received[i] for i in perm],
                                QueryConfidenceMap(qcm_vals[:, :, perm]), params)
        fused_p = fuse(ego, weights_p, ego_only(ego, params))
        if not np.array_equal(fused.values, fused_p.values):
            ok_perm = False
    ok = ok_sum and ok_zero and ok_perm
    assert report(6, "attention contract", ok,
                  f"(softmax sums {ok_sum}, zero-confidence {ok_zero}, "
                  f"permutation {ok_perm})")


def test_criterion_7_directional_gain_trend():
    t0 = time.time()
    n_seeds = 50
    budget = 0.2
    settings = replace(EVAL_SETTINGS, loss_sigma=1.0)
    masked = {"directed": [], "uniform": []}
    overall = {"directed": [], "uniform": []}
    for i in range(n_seeds):
        world = generate(replace(EVAL_SCENARIO, seed=i))
        scene = prepare_scene(world, settings)
        for method in masked:
            r = run_method(world, method, budget, settings, scene=scene)
            masked[method].append(r.masked_sector_ap(0.5))
            overall[method].append(r.ap_at_iou[0.5])
    md = float(np.mean(masked["directed"]))
    mu = float(np.mean(masked["uniform"]))
    od = float(np.mean(overall["directed"]))
    ou = float(np.mean(overall["uniform"]))
    elapsed = time.time() - t0
    gain = (md - mu) / mu
    ok = gain >= 0.05 and od >= ou * 0.98 and elapsed < 300.0
    assert report(7, "directional gain trend", ok,
                  f"(masked {md:.3f} vs {mu:.3f} = {gain * 100:+.1f}% rel; "
                  f"overall {od:.3f} vs {ou:.3f} = {(od - ou) / ou * 100:+.1f}% rel; "
                  f"{elapsed:.0f}s)")


def test_criterion_8_budget_sweep_shape():
    budgets = [0.01, 0.05, 0.1, 0.2, 0.25]
    n_seeds = 20
    settings = EVAL_SETTINGS
    mean_ap = {m: [] for m in ("directed", "uniform")}
    masked_001 = {}
    for budget in budgets:
        per = {m: [] for m in mean_ap}
        msk = {m: [] for m in mean_ap}
        for i in range(n_seeds):
            world = generate(replace(EVAL_SCENARIO, seed=i))
            scene = prepare_scene(world, settings)
            for m in per:
                r = run_method(world, m, budget, settings, scene=scene)
                per[m].append(r.ap_at_iou[0.5])
                msk[m].append(r.masked_sector_ap(0.5))
        for m in mean_ap:
            mean_ap[m].append(float(np.mean(per[m])))
        if budget == 0.01:
            masked_001 = {m: float(np.mean(msk[m])) for m in msk}
    rho_d = spearman(budgets, mean_ap["directed"])
    rho_u = spearman(budgets, mean_ap["uniform"])
    diff = abs(masked_001["directed"] - masked_001["uniform"])
    ok = rho_d >= 0.9 and rho_u >= 0.9 and diff < 0.03
    assert report(8, "budget sweep shape", ok,
                  f"(spearman directed {rho_d:.2f}, uniform {rho_u:.2f}; "
                  f"masked diff at 0.01 budget {diff:.4f})")


@pytest.mark.slow
def test_criterion_9_sigma_ablation_shape():
    """Sigma ablation with per-sigma trained scorers on shared seeds.

    Part (a) expects the sigma=0 run's non-masked-sector AP strictly below the
    single-vehicle baseline. In this artifact only the query scorer is
    trainable: a sigma=0-trained scorer reallocates communication rather than
    corrupting a shared detector, and honest transmitted features never make a
    sector worse than receiving nothing, so every sigma run stays at or above
    the baseline. Part (a) is therefore expected red; the assertion states the
    criterion faithfully rather than weakening it. Part (b) passes: sigma=1.0
    lands within the stated band of the grid's best masked-sector AP.
    """
    scenario = ScenarioConfig(seed=0, area_side=48.0, n_collaborators=5,
                              n_vehicles=10,
                              density_profile=(0.4, 0.4, 0.1, 0.1),
                              sensor_range=20.0, occlusion_enabled=True,
                              dropout_prob=0.1)
    settings = RunSettings(sigma2=4.0, conf_threshold=0.55, q0_mode="ones")
    budget = 0.2
    scenes = []
    for i in range(4):
        world = generate(replace(scenario, seed=100_000 + i))
        scenes.append(make_train_scene(prepare_scene(world, settings)))
    worlds = []
    for i in range(14):
        world = generate(replace(scenario, seed=500 + i))
        worlds.append((world, prepare_scene(world, settings)))

    def off_sector_ap(result):
        off = [i for i, b in enumerate(result.mask) if not b]
        return float(np.mean([result.ap_at_pd_iou[0.5][i] for i in off]))

    single_off, single_masked = [], []
    for world, scene in worlds:
        r = run_method(world, "single", budget, settings, scene=scene)
        single_off.append(off_sector_ap(r))
        single_masked.append(r.masked_sector_ap(0.5))
    baseline_off = float(np.mean(single_off))

    masked_by_sigma = {}
    off_by_sigma = {}
    for sigma in (0.0, 0.5, 1.0, 1.5, 2.0):
        sig_settings = replace(settings, loss_sigma=sigma)
        init = ScorerParams.random(8, seed=0, scale=1.0)
        trained = train_scorer(init, scenes, budget, sig_settings,
                               learning_rate=2.0, steps=400).params
        masked, offs = [], []
        for world, scene in worlds:
            r = run_method(world, "directed", budget, sig_settings,
                           scorer_params=trained, scene=scene)
            masked.append(r.masked_sector_ap(0.5))
            offs.append(off_sector_ap(r))
        masked_by_sigma[sigma] = float(np.mean(masked))
        off_by_sigma[sigma] = float(np.mean(offs))

    best_masked = max(masked_by_sigma.values())
    part_a = off_by_sigma[0.0] < baseline_off
    part_b = best_masked - masked_by_sigma[1.0] <= 0.02
    off_line = ", ".join(f"{s:g}:{v:.3f}" for s, v in sorted(off_by_sigma.items()))
    detail = (f"(a: sigma0 off {off_by_sigma[0.0]:.3f} vs single "
              f"{baseline_off:.3f} -> {'below' if part_a else 'NOT below'}; "
              f"off by sigma {{{off_line}}}; "
              f"b: masked sigma1 {masked_by_sigma[1.0]:.3f} vs max "
              f"{best_masked:.3f})")
    ok = part_a and part_b
    report(9, "sigma ablation shape", ok, detail)
    assert part_b, "sigma=1.0 must be within 0.02 of the best masked-sector AP"
    assert part_a, (
        "criterion 9a: sigma=0 off-sector AP must fall strictly below the "
        "single-vehicle baseline; with only the query scorer trainable, "
        "communication of honest features never pushes a sector below the "
        "no-communication baseline, so every sigma run stays at or above it "
        "(see README acceptance notes)")


def test_criterion_10_degenerate_budget_identity():
    ok = True
    for seed in (3, 11, 29):
        world = generate(replace(EVAL_SCENARIO, seed=seed))
        scene = prepare_scene(world, EVAL_SETTINGS)
        results = [run_method(world, m, 0.0, EVAL_SETTINGS, scene=scene)
                   for m in ("directed", "uniform", "single")]
        blobs = [json.dumps(r.core_dict(), sort_keys=True).encode()
                 for r in results]
        if not (blobs[0] == blobs[1] == blobs[2]):
            ok = False
        if any(r.bytes_transmitted != 0 for r in results):
            ok = False
    assert report(10, "degenerate budget identity", ok)


def test_criterion_11_wire_format_round_trip():
    rng = np.random.default_rng(1111)
    round_trip_failures = 0
    for _ in range(10_000):
        d = int(rng.integers(1, 9))
        n_entries = int(rng.integers(0, 20))
        entries = tuple(
            (int(rng.integers(0, 64)), int(rng.integers(0, 64)),
             rng.normal(size=d).astype(np.float32))
            for _ in range(n_entries))
        msg = FeatureMessage(sender=int(rng.integers(1, 6)), receiver=0,
                             rows=np.array([e[0] for e in entries], dtype=np.intp),
                             cols=np.array([e[1] for e in entries], dtype=np.intp),
                             values=np.array([e[2] for e in entries],
                                             dtype=np.float32).reshape(-1, d))
        if deserialize(serialize(msg)) != msg:
            round_trip_failures += 1

    base = serialize(FeatureMessage(
        sender=1, receiver=0, rows=np.arange(5), cols=np.arange(5),
        values=np.ones((5, 4), dtype=np.float32)))
    rejected = 0
    crashed = 0
    for i in range(1000):
        kind = i % 5
        data = bytearray(base)
        if kind == 0:
            data[i % 4] ^= 0xFF                      # corrupt magic
        elif kind == 1:
            data[4] ^= 0xFF                          # corrupt version
        elif kind == 2:
            data = data[:int(rng.integers(0, len(data)))]  # truncate
        elif kind == 3:
            data += bytes([int(rng.integers(0, 256))])     # trailing garbage
        else:
            data[11] = 0xFF                          # inflate entry_count
        try:
            deserialize(bytes(data))
        except MalformedMessage:
            rejected += 1
        except Exception:
            crashed += 1
    ok = round_trip_failures == 0 and rejected == 1000 and crashed == 0
    assert report(11, "wire format round trip", ok,
                  f"({round_trip_failures} bad round trips, {rejected}/1000 "
                  f"rejected, {crashed} crashes)")


def test_criterion_12_sweep_determinism():
    scenario = replace(EVAL_SCENARIO, area_side=32.0, n_vehicles=5,
                       sensor_range=14.0)
    grid = None
    runs = []
    for _ in range(2):
        result = sweep(scenario, EVAL_SETTINGS, budgets=[0.05, 0.2], sigmas=[1.0],
                       seeds=[1, 2, 3], methods=("directed", "uniform", "single"),
                       grid=grid)
        runs.append((sweep_csv(result, EVAL_SETTINGS.iou_thresholds).encode(),
                     sweep_json(result).encode()))
    ok = runs[0] == runs[1]
    assert report(12, "sweep determinism", ok)
