"""Average precision, per-sector AP, method comparison runs, and parameter sweeps."""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .comms import ScorerParams
from .geometry import RotatedBox, SectorPartition, far_apart_pairs, iou, sectors_of
from .learn import train_scorer, training_scenes
from .pipeline import (
    METHODS,
    PipelineResult,
    RunSettings,
    SceneInputs,
    prepare_scene,
    run_pipeline,
)
from .scenario import ScenarioConfig, ScenarioWorld, generate

# Matching and integration conventions, echoed into report metadata.
CONVENTIONS = {
    "matching": "greedy by descending confidence to the highest-IoU unmatched truth",
    "pr_integration": "all-point interpolated precision-recall area",
    "empty_sector_ap": "no truths and no predictions in a sector scores 1.0",
}


def _greedy_match(preds: list[RotatedBox], ious: np.ndarray,
                  iou_threshold: float) -> list[bool]:
    """True-positive flags for confidence-sorted predictions; ious is (preds, truths)."""
    order = sorted(range(len(preds)), key=lambda i: -preds[i].confidence)
    matched = [False] * ious.shape[1]
    flags = [False] * len(preds)
    for rank, i in enumerate(order):
        best_iou, best_j = 0.0, -1
        for j, v in enumerate(ious[i].tolist()):
            if not matched[j] and v >= iou_threshold and v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0:
            matched[best_j] = True
            flags[rank] = True
    return flags


def average_precision(preds: list[RotatedBox], truths: list[RotatedBox],
                      iou_threshold: float, ious: np.ndarray | None = None) -> float:
    """All-point interpolated AP with greedy one-to-one matching.

    Conventions: no truths and no predictions scores 1.0 (perfect agreement);
    predictions against an empty truth set score 0.0. ious, the (preds,
    truths) IoU matrix, is computed when not given.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError("iou_threshold must lie in (0, 1)")
    if not truths:
        return 1.0 if not preds else 0.0
    if not preds:
        return 0.0
    if ious is None:
        ious = np.array([[iou(p, t) for t in truths] for p in preds])
    flags = _greedy_match(preds, ious, iou_threshold)
    tp = np.cumsum(flags)
    ranks = np.arange(1, len(flags) + 1)
    precision = tp / ranks
    recall = tp / len(truths)
    # Precision envelope, then sum areas where recall steps.
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for p, r in zip(env, recall):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


def pd_average_precision(preds: list[RotatedBox], truths: list[RotatedBox],
                         partition: SectorPartition,
                         iou_threshold: float) -> list[float]:
    """Per-sector AP: objects are assigned to sectors by their center angle."""
    return list(evaluate_boxes(preds, truths, partition, (iou_threshold,))[1][iou_threshold])


@dataclass(frozen=True)
class SeedResult:
    """Metrics of one method on one world."""

    seed: int
    method: str
    budget: float
    loss_sigma: float
    mask: tuple[int, ...]
    ap_at_iou: dict[float, float]
    ap_at_pd_iou: dict[float, tuple[float, ...]]
    bytes_transmitted: int
    n_predictions: int
    n_truths: int

    def masked_sector_ap(self, threshold: float) -> float:
        """Mean per-sector AP over the masked-on sectors (1.0 if none are on)."""
        on = [i for i, b in enumerate(self.mask) if b]
        if not on:
            return 1.0
        values = self.ap_at_pd_iou[threshold]
        return float(np.mean([values[i] for i in on]))

    def core_dict(self) -> dict:
        """Everything except the method tag, for budget-0 identity checks."""
        return {
            "seed": self.seed, "budget": self.budget, "mask": list(self.mask),
            "ap_at_iou": {str(k): v for k, v in sorted(self.ap_at_iou.items())},
            "ap_at_pd_iou": {str(k): list(v)
                             for k, v in sorted(self.ap_at_pd_iou.items())},
            "bytes_transmitted": self.bytes_transmitted,
            "n_predictions": self.n_predictions, "n_truths": self.n_truths,
        }


def evaluate_boxes(preds, truths, partition, thresholds):
    """AP and per-sector AP at each IoU threshold, from one IoU per (pred, truth)."""
    ious = np.zeros((len(preds), len(truths)))  # far pairs, iou's early 0.0, stay 0.0
    for i, j in zip(*np.nonzero(~far_apart_pairs(preds, truths))):
        ious[i, j] = iou(preds[i], truths[j])
    centers = np.reshape([(b.cx, b.cy) for b in (*preds, *truths)], (-1, 2)).T
    sector = np.split(sectors_of(*centers, partition), [len(preds)])
    by_sector = [[np.flatnonzero(side == s) for side in sector]
                 for s in range(partition.n_dir)]
    ap_at_iou = {t: average_precision(preds, truths, t, ious) for t in thresholds}
    ap_at_pd = {t: tuple(average_precision([preds[k] for k in i], [truths[k] for k in j],
                                           t, ious[np.ix_(i, j)]) for i, j in by_sector)
                for t in thresholds}
    return ap_at_iou, ap_at_pd


def run_method(world: ScenarioWorld, method: str, budget: float,
               settings: RunSettings, scorer_params: ScorerParams | None = None,
               scene=None) -> SeedResult:
    """Evaluate one method on one world; scene may be precomputed and shared."""
    if scene is None:
        scene = prepare_scene(world, settings)
    result = run_pipeline(scene, method, budget, settings, scorer_params)
    return score_result(world, scene, result, budget, settings)


def score_result(world: ScenarioWorld, scene: SceneInputs, result: PipelineResult,
                 budget: float, settings: RunSettings) -> SeedResult:
    """Metrics of one finished pipeline run against the world's ground truth."""
    truths = list(world.vehicles)
    ap_at_iou, ap_at_pd = evaluate_boxes(result.boxes, truths, scene.partition,
                                         settings.iou_thresholds)
    return SeedResult(seed=int(world.config.seed), method=result.method, budget=budget,
                      loss_sigma=settings.loss_sigma,
                      mask=result.mask.mask, ap_at_iou=ap_at_iou,
                      ap_at_pd_iou=ap_at_pd,
                      bytes_transmitted=result.ledger.total_bytes,
                      n_predictions=len(result.boxes), n_truths=len(truths))


@dataclass(frozen=True)
class SweepRow:
    """Aggregate of one (budget, sigma, method) cell over all seeds."""

    budget: float
    loss_sigma: float
    method: str
    n_seeds: int
    mean_ap_at_iou: dict[float, float]
    mean_ap_at_pd_iou: dict[float, tuple[float, ...]]
    mean_masked_ap: dict[float, float]
    total_bytes: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    per_seed: tuple[SeedResult, ...]
    conventions: dict = field(default_factory=lambda: dict(CONVENTIONS))


def _train_sigma(args) -> ScorerParams:
    """One sigma's scorer trained from the shared init; top-level for pickling."""
    scenes, settings, sigma, budget, steps, learning_rate, hidden = args
    init = ScorerParams.random(hidden, seed=0, scale=0.3)
    return train_scorer(init, scenes, budget, replace(settings, loss_sigma=sigma),
                        learning_rate=learning_rate, steps=steps).params


def train_sigma_scorers(scenario: ScenarioConfig, settings: RunSettings,
                        sigmas, budget: float, steps: int = 200,
                        learning_rate: float = 0.5, hidden: int = 8,
                        grid=None, jobs: int = 1) -> dict[float, ScorerParams]:
    """One trained QC-Net per sigma, on a shared batch of 8 training worlds.

    Each sigma trains independently, in up to jobs worker processes; the
    scorers are the same for any jobs.
    """
    sigmas = [float(s) for s in sigmas]
    scenes = training_scenes(scenario, settings, 8, grid)
    tasks = [(scenes, settings, sigma, budget, steps, learning_rate, hidden)
             for sigma in sigmas]
    return dict(zip(sigmas, _map_in_workers(_train_sigma, tasks, jobs)))


def _seed_cell_results(args) -> list[SeedResult]:
    """All (budget, sigma, method) results for one seed; top-level for pickling."""
    (scenario, settings, seed, budgets, sigmas, methods, scorers, grid) = args
    world = generate(replace(scenario, seed=seed), grid=grid)
    scene = prepare_scene(world, settings)
    # single reads neither the budget nor the scorer: run it once, emit it per cell.
    single = "single" in methods and run_method(world, "single", 0.0, settings, scene=scene)
    out = []
    for sigma in sigmas:
        scorer = scorers.get(float(sigma)) if scorers else None
        sig_settings = replace(settings, loss_sigma=float(sigma))
        for budget in budgets:
            for method in methods:
                out.append(replace(single, budget=float(budget), loss_sigma=float(sigma))
                           if method == "single" else
                           run_method(world, method, float(budget), sig_settings,
                                      scorer_params=scorer, scene=scene))
    return out


def worker_count(jobs: int, n_tasks: int, cpus: int | None) -> int:
    """Workers a pool starts: never more than tasks or CPUs, at least one."""
    return max(1, min(jobs, n_tasks, cpus or 1))


def usable_cpus() -> int | None:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


# A worker gets one CPU, so its BLAS gets one thread: a spawned worker reads
# these when it imports numpy. Threaded BLAS in each of N workers would
# oversubscribe the CPUs and run slower than one process.
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}


def _map_in_workers(fn, tasks: list, jobs: int) -> list:
    """[fn(t) for t in tasks], in worker_count(jobs, len(tasks), usable_cpus())
    spawned processes when that is more than one; results in task order."""
    workers = worker_count(jobs, len(tasks), usable_cpus())
    if workers == 1:
        return [fn(t) for t in tasks]
    saved = {key: os.environ.get(key) for key in _ONE_BLAS_THREAD}
    os.environ.update(_ONE_BLAS_THREAD)
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, tasks))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key)
            else:
                os.environ[key] = value


def sweep(scenario: ScenarioConfig, settings: RunSettings, budgets, sigmas,
          seeds, methods=METHODS, scorers: dict[float, ScorerParams] | None = None,
          jobs: int = 1, grid=None) -> SweepResult:
    """Cross product of budgets x sigmas x methods over shared seeds.

    Sigma only matters when per-sigma trained scorers are supplied (a reference
    run is sigma-independent); sweep cells share worlds seed by seed. Rows are
    aggregated in a fixed order so output bytes are reproducible for any job
    count.
    """
    budgets = [float(b) for b in budgets]
    sigmas = [float(s) for s in sigmas]
    seeds = [int(s) for s in seeds]
    if not budgets or not sigmas or not seeds or not methods:
        raise ValueError("sweep grid must be non-empty")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    tasks = [(scenario, settings, seed, budgets, sigmas, tuple(methods), scorers,
              grid) for seed in seeds]
    per_seed = [r for results in _map_in_workers(_seed_cell_results, tasks, jobs)
                for r in results]

    rows = []
    for sigma in sigmas:
        for budget in budgets:
            for method in methods:
                cell = [r for r in per_seed
                        if r.method == method and r.budget == budget
                        and r.loss_sigma == sigma]
                thresholds = settings.iou_thresholds
                mean_ap = {t: float(np.mean([r.ap_at_iou[t] for r in cell]))
                           for t in thresholds}
                mean_pd = {
                    t: tuple(np.mean([r.ap_at_pd_iou[t] for r in cell], axis=0))
                    for t in thresholds
                }
                mean_masked = {t: float(np.mean([r.masked_sector_ap(t) for r in cell]))
                               for t in thresholds}
                rows.append(SweepRow(budget=budget, loss_sigma=sigma, method=method,
                                     n_seeds=len(seeds), mean_ap_at_iou=mean_ap,
                                     mean_ap_at_pd_iou=mean_pd,
                                     mean_masked_ap=mean_masked,
                                     total_bytes=sum(r.bytes_transmitted
                                                     for r in cell)))
    return SweepResult(rows=tuple(rows), per_seed=tuple(per_seed))


def spearman(xs, ys) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    def ranks(vals):
        order = np.argsort(vals, kind="stable")
        r = np.empty(len(vals))
        i = 0
        sorted_vals = np.asarray(vals)[order]
        while i < len(vals):
            j = i
            while j + 1 < len(vals) and sorted_vals[j + 1] == sorted_vals[i]:
                j += 1
            r[order[i:j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        return r

    rx, ry = ranks(xs), ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = float(np.sqrt((rx * rx).sum() * (ry * ry).sum()))
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)
