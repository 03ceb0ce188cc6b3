import math
import os
from dataclasses import replace

import numpy as np
import pytest

from dircp.evaluate import (
    SeedResult,
    average_precision,
    evaluate_boxes,
    pd_average_precision,
    run_method,
    spearman,
    sweep,
    train_sigma_scorers,
    usable_cpus,
    worker_count,
)
from dircp.comms import ScorerParams
from dircp.geometry import RotatedBox, SectorPartition, _far_apart, sector_of
from dircp.pipeline import RunSettings, prepare_scene, run_pipeline
from dircp.report import budget_curve_svg, per_seed_csv, sweep_csv, sweep_json
from dircp.scenario import ScenarioConfig, generate

from _oracles import evaluate_boxes_per_call, random_box, seed_cell_results_per_budget


def box_at(x, y, conf=1.0, length=4.0, width=2.0):
    return RotatedBox(conf, x, y, length, width, 1.0, 0.0)


class TestAveragePrecision:
    def test_perfect_detector(self):
        truths = [box_at(0, 0), box_at(20, 0)]
        preds = [box_at(0, 0), box_at(20, 0)]
        assert average_precision(preds, truths, 0.5) == 1.0

    def test_no_overlap_zero(self):
        truths = [box_at(0, 0)]
        preds = [box_at(50, 50, conf=0.9)]
        assert average_precision(preds, truths, 0.5) == 0.0

    def test_empty_conventions(self):
        assert average_precision([], [], 0.5) == 1.0
        assert average_precision([box_at(0, 0, 0.5)], [], 0.5) == 0.0
        assert average_precision([], [box_at(0, 0)], 0.5) == 0.0

    def test_hand_pr_curve(self):
        # 2 truths; preds: TP at 0.9, FP at 0.8, TP at 0.7 -> AP = 5/6.
        truths = [box_at(0, 0), box_at(30, 0)]
        preds = [box_at(0, 0, 0.9), box_at(60, 60, 0.8), box_at(30, 0, 0.7)]
        ap = average_precision(preds, truths, 0.5)
        assert ap == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0), rel=1e-12)

    def test_confidence_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        truths = [random_box(rng, span=15.0) for _ in range(6)]
        preds = []
        for i, t in enumerate(truths[:4]):
            preds.append(RotatedBox(0.9 - 0.1 * i, t.cx + 0.3, t.cy, t.length,
                                    t.width, t.cos_a, t.sin_a))
        preds.append(box_at(40, 40, conf=0.55))
        base = average_precision(preds, truths, 0.5)
        rescaled = [RotatedBox(p.confidence / 2.0, p.cx, p.cy, p.length, p.width,
                               p.cos_a, p.sin_a) for p in preds]
        assert average_precision(rescaled, truths, 0.5) == base

    def test_duplicate_matched_tp_never_increases(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            truths = [random_box(rng, span=12.0) for _ in range(4)]
            preds = [RotatedBox(0.8, t.cx, t.cy, t.length, t.width, t.cos_a, t.sin_a)
                     for t in truths[:3]]
            base = average_precision(preds, truths, 0.5)
            dup = preds + [preds[0]]
            assert average_precision(dup, truths, 0.5) <= base + 1e-12


class TestPdAveragePrecision:
    def test_concentrated_scene(self):
        part = SectorPartition.uniform(4)
        truths = [box_at(10, 5), box_at(8, 3)]   # both sector 0
        preds = [box_at(10, 5, 0.9), box_at(8, 3, 0.8)]
        per = pd_average_precision(preds, truths, part, 0.5)
        assert per[0] == average_precision(preds, truths, 0.5) == 1.0
        assert per[1] == per[2] == per[3] == 1.0  # empty-empty convention

    def test_single_sector_equals_global(self):
        part = SectorPartition.uniform(1)
        rng = np.random.default_rng(2)
        truths = [random_box(rng, span=10.0) for _ in range(5)]
        preds = [RotatedBox(0.7, t.cx + 0.2, t.cy, t.length, t.width,
                            t.cos_a, t.sin_a) for t in truths[:3]]
        per = pd_average_precision(preds, truths, part, 0.5)
        assert per == [average_precision(preds, truths, 0.5)]

    def test_matches_filter_recompute_oracle(self):
        part = SectorPartition.uniform(4, frame_origin=(1.0, -1.0))
        rng = np.random.default_rng(7)
        truths = [random_box(rng, span=18.0) for _ in range(10)]
        preds = [random_box(rng, span=18.0, confidence=float(rng.uniform(0.2, 1)))
                 for _ in range(12)]
        per = pd_average_precision(preds, truths, part, 0.5)
        for sector in range(4):
            p = [b for b in preds if sector_of(b, part) == sector]
            t = [b for b in truths if sector_of(b, part) == sector]
            assert per[sector] == average_precision(p, t, 0.5)


class TestEvaluateBoxes:
    THRESHOLDS = (0.3, 0.5, 0.7)

    def test_matches_per_call_iou_oracle_on_random_boxes(self):
        rng = np.random.default_rng(8)
        part = SectorPartition.uniform(4, frame_origin=(0.5, -0.5))
        for trial in range(25):
            truths = [random_box(rng, span=12.0) for _ in range(int(rng.integers(0, 9)))]
            preds = [RotatedBox(float(rng.choice([0.5, 0.7, 0.9])), t.cx + rng.normal(0, 0.4),
                                t.cy + rng.normal(0, 0.4), t.length, t.width,
                                t.cos_a, t.sin_a) for t in truths if rng.uniform() < 0.8]
            preds += [random_box(rng, span=12.0, confidence=float(rng.uniform(0.2, 1)))
                      for _ in range(int(rng.integers(0, 4)))]
            assert evaluate_boxes(preds, truths, part, self.THRESHOLDS) == \
                evaluate_boxes_per_call(preds, truths, part, self.THRESHOLDS)

    @pytest.mark.parametrize("budget", [0.02, 0.2, 0.5])
    def test_matches_per_call_iou_oracle_on_pipeline_boxes(self, budget):
        settings = RunSettings()
        for seed in (1, 2):
            world = generate(ScenarioConfig(seed=seed))
            scene = prepare_scene(world, settings)
            preds = run_pipeline(scene, "directed", budget, settings).boxes
            truths = list(world.vehicles)
            assert preds and truths
            assert evaluate_boxes(preds, truths, scene.partition, self.THRESHOLDS) == \
                evaluate_boxes_per_call(preds, truths, scene.partition, self.THRESHOLDS)

    @staticmethod
    def iou_calls(monkeypatch, preds, truths, part, thresholds):
        """evaluate_boxes' result and the (pred, truth) index pairs it called iou on."""
        import dircp.evaluate

        calls = []
        index = [{id(b): i for i, b in enumerate(boxes)} for boxes in (preds, truths)]

        def counted(a, b):
            calls.append((index[0][id(a)], index[1][id(b)]))
            return real(a, b)

        real = dircp.evaluate.iou
        with monkeypatch.context() as m:
            m.setattr(dircp.evaluate, "iou", counted)
            return evaluate_boxes(preds, truths, part, thresholds), calls

    def test_bulk_reject_at_the_reject_distance(self, monkeypatch):
        # Pair i sits within 1e-5 m of _far_apart's distance, ra + rb + 1e-6,
        # along a random direction; every other pair is wherever it lands.
        rng = np.random.default_rng(9)
        part = SectorPartition.uniform(4, frame_origin=(0.25, 0.5))
        decided = {True: 0, False: 0}
        for _ in range(300):
            preds, truths = [], []
            for _ in range(10):
                p = random_box(rng, span=40.0, confidence=float(rng.uniform(0.1, 1.0)))
                t = random_box(rng, span=1.0)
                r = 0.5 * math.hypot(p.length, p.width) + 0.5 * math.hypot(t.length, t.width) \
                    + 1e-6 + float(rng.choice([0.0, 1e-16, -1e-16, rng.uniform(-1e-5, 1e-5)]))
                ang = float(rng.uniform(0.0, 2.0 * math.pi))
                preds.append(p)
                truths.append(RotatedBox(1.0, p.cx + r * math.cos(ang), p.cy + r * math.sin(ang),
                                         t.length, t.width, t.cos_a, t.sin_a))
                decided[_far_apart(p, truths[-1])] += 1
            got, calls = self.iou_calls(monkeypatch, preds, truths, part, self.THRESHOLDS)
            assert sorted(calls) == [(i, j) for i in range(10) for j in range(10)
                                     if not _far_apart(preds[i], truths[j])]
            assert got == evaluate_boxes_per_call(preds, truths, part, self.THRESHOLDS)
        assert min(decided.values()) > 500  # both sides of the distance are hit

    @pytest.mark.parametrize("budget", [0.02, 0.2, 0.5])
    def test_bulk_reject_on_decoded_boxes(self, monkeypatch, budget):
        settings = RunSettings()
        for seed, kw in ((3, {}), (4, dict(n_vehicles=24, n_collaborators=8))):
            world = generate(ScenarioConfig(seed=seed, **kw))
            scene = prepare_scene(world, settings)
            for method in ("directed", "uniform", "single"):
                preds = run_pipeline(scene, method, budget, settings).boxes
                truths = list(world.vehicles)
                got, calls = self.iou_calls(monkeypatch, preds, truths, scene.partition,
                                            self.THRESHOLDS)
                assert sorted(calls) == [(i, j) for i, p in enumerate(preds)
                                         for j, t in enumerate(truths) if not _far_apart(p, t)]
                assert calls and len(calls) < len(preds) * len(truths)
                assert got == evaluate_boxes_per_call(preds, truths, scene.partition,
                                                      self.THRESHOLDS)


def eval_config(seed=0, **kw):
    base = dict(seed=seed, area_side=32.0, n_collaborators=2, n_vehicles=5,
                sensor_range=16.0, occlusion_enabled=True, dropout_prob=0.1)
    base.update(kw)
    return ScenarioConfig(**base)


SETTINGS = RunSettings(sigma2=3.0)


class TestRunMethod:
    def test_budget_zero_identical_across_methods(self):
        world = generate(eval_config(seed=3))
        scene = prepare_scene(world, SETTINGS)
        results = [run_method(world, m, 0.0, SETTINGS, scene=scene)
                   for m in ("directed", "uniform", "single")]
        assert results[0].core_dict() == results[1].core_dict() == results[2].core_dict()
        assert results[0].bytes_transmitted == 0

    def test_full_budget_dominates_single_strict_over_20_seeds(self):
        # Full information (no occlusion, no dropout): with the degenerate
        # single-sector partition there is no sector-boundary bookkeeping, and
        # at IoU 0.5 every added detection is clean, so dominance is strict
        # seed by seed.
        settings = RunSettings(sigma2=3.0, n_dir=1, interest=(0.9,))
        for seed in range(20):
            cfg = ScenarioConfig(seed=seed, area_side=32.0, n_collaborators=2,
                                 n_vehicles=5, density_profile=(1.0,),
                                 sensor_range=16.0, occlusion_enabled=False,
                                 dropout_prob=0.0)
            world = generate(cfg)
            scene = prepare_scene(world, settings)
            single = run_method(world, "single", 1.0, settings, scene=scene)
            for method in ("directed", "uniform"):
                full = run_method(world, method, 1.0, settings, scene=scene)
                assert full.ap_at_pd_iou[0.5][0] >= single.ap_at_pd_iou[0.5][0] - 1e-12

    def test_full_budget_dominates_single_per_sector_aggregate(self):
        # Four-sector variant, aggregated over seeds. Individual seeds can
        # rank a sector-boundary-straddling box or a marginal-IoU box above a
        # true positive once confidences stop being tied, so the per-seed
        # claim only holds on average; at IoU 0.7 the marginal-box rank
        # jitter needs a small tolerance.
        acc = {m: {t: [] for t in SETTINGS.iou_thresholds}
               for m in ("single", "directed", "uniform")}
        for seed in range(20):
            world = generate(eval_config(seed=seed, occlusion_enabled=False,
                                         dropout_prob=0.0))
            scene = prepare_scene(world, SETTINGS)
            for m in acc:
                r = run_method(world, m, 1.0, SETTINGS, scene=scene)
                for t in acc[m]:
                    acc[m][t].append(r.ap_at_pd_iou[t])
        for t, slack in ((0.5, 1e-9), (0.7, 0.02)):
            single_mean = np.mean(acc["single"][t], axis=0)
            for m in ("directed", "uniform"):
                full_mean = np.mean(acc[m][t], axis=0)
                assert np.all(full_mean >= single_mean - slack), (m, t)

    def test_masked_sector_ap_helper(self):
        r = SeedResult(seed=0, method="directed", budget=0.2, loss_sigma=1.0,
                       mask=(1, 0, 1, 0),
                       ap_at_iou={0.5: 0.5},
                       ap_at_pd_iou={0.5: (0.8, 0.2, 0.6, 0.4)},
                       bytes_transmitted=0, n_predictions=0, n_truths=0)
        assert r.masked_sector_ap(0.5) == pytest.approx(0.7)


class TestSweep:
    def test_singleton_grid_matches_run_method(self):
        scenario = eval_config(seed=11)
        result = sweep(scenario, SETTINGS, budgets=[0.2], sigmas=[1.0],
                       seeds=[11], methods=("directed",))
        assert len(result.rows) == 1
        world = generate(scenario)
        direct = run_method(world, "directed", 0.2, SETTINGS)
        row = result.rows[0]
        for t in SETTINGS.iou_thresholds:
            assert row.mean_ap_at_iou[t] == direct.ap_at_iou[t]

    def test_deterministic_and_job_invariant(self):
        scenario = eval_config(seed=5)
        kwargs = dict(budgets=[0.1, 0.3], sigmas=[1.0], seeds=[5, 6],
                      methods=("directed", "single"))
        a = sweep(scenario, SETTINGS, **kwargs)
        b = sweep(scenario, SETTINGS, **kwargs)
        assert sweep_json(a) == sweep_json(b)
        c = sweep(scenario, SETTINGS, jobs=2, **kwargs)
        assert sweep_json(a) == sweep_json(c)

    @pytest.mark.parametrize("methods", [("single", "directed", "uniform"),
                                         ("directed", "uniform", "single"), ("single",)])
    def test_matches_per_budget_loop(self, monkeypatch, methods):
        import dircp.evaluate

        scenario = eval_config(seed=21)
        scorers = {0.5: ScorerParams.random(4, seed=1, scale=0.3),
                   2.0: ScorerParams.random(4, seed=2, scale=0.3)}
        kwargs = dict(budgets=[0.05, 0.2, 0.6], sigmas=[0.5, 2.0], seeds=[21, 22, 23],
                      methods=methods, scorers=scorers)

        def texts(result):
            svgs = [budget_curve_svg(result, t, s) for t in SETTINGS.iou_thresholds
                    for s in (0.5, 2.0)]
            return (sweep_json(result), sweep_csv(result, SETTINGS.iou_thresholds),
                    per_seed_csv(list(result.per_seed), SETTINGS.iou_thresholds), svgs)

        with monkeypatch.context() as m:
            m.setattr(dircp.evaluate, "_seed_cell_results", seed_cell_results_per_budget)
            ref = texts(sweep(scenario, SETTINGS, **kwargs))
        for jobs in (1, 2):
            assert texts(sweep(scenario, SETTINGS, jobs=jobs, **kwargs)) == ref

    def test_single_runs_once_per_seed(self, monkeypatch):
        import dircp.evaluate

        calls = []
        real = dircp.evaluate.run_pipeline
        monkeypatch.setattr(dircp.evaluate, "run_pipeline",
                            lambda scene, method, *a: calls.append(method) or
                            real(scene, method, *a))
        result = sweep(eval_config(seed=5), SETTINGS, budgets=[0.1, 0.3], sigmas=[1.0, 2.0],
                       seeds=[5, 6], methods=("single", "directed", "uniform"))
        assert sorted(calls) == ["directed"] * 8 + ["single"] * 2 + ["uniform"] * 8
        assert [(r.seed, r.method, r.budget, r.loss_sigma) for r in result.per_seed] == \
            [(seed, m, b, s) for seed in (5, 6) for s in (1.0, 2.0) for b in (0.1, 0.3)
             for m in ("single", "directed", "uniform")]

    def test_worker_count_is_clamped(self):
        assert worker_count(1, 5, 8) == 1
        assert worker_count(4, 5, 8) == 4
        assert worker_count(10**6, 3, 8) == 3        # no more workers than seeds
        assert worker_count(10**6, 100, 2) == 2      # no more workers than CPUs
        assert worker_count(8, 100, None) == 1       # CPU count unknown
        assert worker_count(0, 3, 8) == worker_count(-5, 3, 8) == 1

    def test_huge_jobs_with_one_seed_runs_in_process(self, monkeypatch):
        import dircp.evaluate

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-seed sweep must not start worker processes")

        monkeypatch.setattr(dircp.evaluate, "ProcessPoolExecutor", no_pool)
        scenario = eval_config(seed=5)
        kwargs = dict(budgets=[0.1], sigmas=[1.0], seeds=[5], methods=("directed",))
        assert sweep_json(sweep(scenario, SETTINGS, jobs=10**6, **kwargs)) == \
            sweep_json(sweep(scenario, SETTINGS, **kwargs))

    def test_one_cpu_affinity_runs_seeds_and_sigmas_in_process(self, monkeypatch):
        import dircp.evaluate

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-CPU affinity must not start worker processes")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(dircp.evaluate, "ProcessPoolExecutor", no_pool)
        assert usable_cpus() == 1
        scenario = eval_config(seed=5)
        kwargs = dict(budgets=[0.1], sigmas=[1.0], seeds=[5, 6], methods=("directed",))
        assert sweep_json(sweep(scenario, SETTINGS, jobs=2, **kwargs)) == \
            sweep_json(sweep(scenario, SETTINGS, **kwargs))
        small = dict(steps=1, hidden=3, grid=None)
        pooled = train_sigma_scorers(scenario, SETTINGS, [0.0, 1.0], 0.2, jobs=2, **small)
        assert list(pooled) == [0.0, 1.0]

    def test_sigma_scorers_reject_global_tie_break(self):
        settings = replace(SETTINGS, tie_break="global")
        with pytest.raises(ValueError, match="comms.tie_break"):
            train_sigma_scorers(eval_config(seed=5), settings, [1.0], 0.2, steps=1, hidden=3)

    def test_workers_run_one_blas_thread_and_the_parent_keeps_its_environment(
            self, monkeypatch):
        import dircp.evaluate

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        keys = list(dircp.evaluate._ONE_BLAS_THREAD)
        assert dircp.evaluate._map_in_workers(os.getenv, keys, jobs=2) == ["1"] * len(keys)
        assert os.environ["OMP_NUM_THREADS"] == "4"
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(eval_config(), SETTINGS, budgets=[], sigmas=[1.0], seeds=[1])

    def test_report_emission(self):
        scenario = eval_config(seed=9)
        result = sweep(scenario, SETTINGS, budgets=[0.1, 0.2], sigmas=[1.0],
                       seeds=[9, 10], methods=("directed", "uniform", "single"))
        csv_text = sweep_csv(result, SETTINGS.iou_thresholds)
        assert csv_text.startswith("budget,sigma,method,")
        assert len(csv_text.strip().split("\n")) == 1 + 2 * 3
        seed_text = per_seed_csv(list(result.per_seed), SETTINGS.iou_thresholds)
        assert len(seed_text.strip().split("\n")) == 1 + len(result.per_seed)
        svg = budget_curve_svg(result, 0.5, 1.0)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polyline" in svg


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman([1, 2, 3, 4], [0.1, 0.2, 0.5, 0.9]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_one_swap(self):
        assert spearman([1, 2, 3, 4, 5], [1, 2, 4, 3, 5]) == pytest.approx(0.9)


class TestPayloadAccounting:
    def test_bytes_non_decreasing_in_budget(self):
        world = generate(eval_config(seed=21))
        scene = prepare_scene(world, SETTINGS)
        prev = -1
        for budget in (0.0, 0.05, 0.1, 0.25, 0.5, 1.0):
            r = run_method(world, "directed", budget, SETTINGS, scene=scene)
            assert r.bytes_transmitted >= prev
            prev = r.bytes_transmitted
        assert prev > 0
