"""The three benchmark workloads and the checks run on every operation.

Each workload is a closed loop with one client in one process: the next
operation starts only after the previous one returns. An operation is:

- ``run_dense``: one ``dircp run`` (``dircp.cli.main``) on one dense world,
  24 vehicles and 8 collaborators, budget 0.05. Stresses scenario generation
  and the CLI-only path, with many small wire messages.
- ``sweep_budget``: one ``dircp sweep --budgets 0.02,0.1,0.2,0.5 --seeds 1
  --jobs 1`` on the default world. One world feeds 12 pipeline runs, so the
  wire round trip and fusion dominate, with a few large messages.
- ``train_scorer``: one ``dircp.learn.train_scorer`` call, MLP scorer of
  hidden width 8, budget 0.2, lr 0.5, on 8 default-size scenes built in
  set-up. Time goes to the soft training path.

Every scenario seed and scorer seed is derived from the workload seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

OUT = Path(".bench_out")
AP_KEYS = ("ap_at_iou", "ap_at_pd_iou", "mean_ap_at_iou", "mean_ap_at_pd_iou",
           "mean_masked_ap")


def derive_seed(workload: str, seed: int, stream: str, index: int) -> int:
    """The index-th scenario or scorer seed of a workload seed; reproducible."""
    return random.Random(f"dircp-bench/{workload}/{stream}/{seed}/{index}").randrange(1, 2**31)


def digest_dir(path: Path) -> str:
    """sha256 over the names and bytes of every file in an output directory."""
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


class WireCheck:
    """Checks every ``run_pipeline`` result while an operation runs.

    Installed as a wrapper on every binding of ``dircp.pipeline.run_pipeline``.
    It reads only the returned ``PipelineResult`` (query bits and ledger) and
    the ``SceneInputs`` it was given, so it does not depend on the message
    representation. Also counts what went over the wire.
    """

    def __init__(self):
        self.errors: list[str] = []
        self.calls = 0
        self.counters = {"messages": 0, "entries": 0, "entries_on": 0}
        self.capture: dict | None = None

    def wrap(self, run_pipeline):
        def checked(scene, method, budget, settings, scorer_params=None):
            result = run_pipeline(scene, method, budget, settings, scorer_params)
            self.calls += 1
            try:
                self._check(scene, method, budget, settings, scorer_params, result)
            except (AttributeError, TypeError, ValueError, IndexError) as exc:
                self.errors.append(f"cannot check run_pipeline result: {exc!r}")
            return result
        return checked

    def _check(self, scene, method, budget, settings, scorer, result):
        ledger = result.ledger
        if result.query is None:
            if ledger.total_entries:
                self.errors.append(f"{method}: entries sent without a query map")
            return
        bits = np.asarray(result.query.bits)
        h, w, k = bits.shape
        limit = int(math.floor(budget * h * w))
        per_collab = bits.reshape(-1, k).sum(axis=0)
        if (per_collab > limit).any():
            self.errors.append(f"{method}: collaborator entries {per_collab.tolist()} "
                               f"exceed floor(q_max*H*W) = {limit}")
        if ledger.total_entries != int(bits.sum()):
            self.errors.append(f"{method}: ledger counts {ledger.total_entries} "
                               f"entries for {int(bits.sum())} query bits")
        on_cells = np.asarray(scene.mask.mask)[scene.sector_map] == 1
        entries_on = int(bits[on_cells].sum())
        if method == "directed" and scorer is None and entries_on != bits.sum():
            self.errors.append(f"directed reference run sent {int(bits.sum()) - entries_on}"
                               " entries into masked-off sectors")
        self.counters["messages"] += ledger.messages
        self.counters["entries"] += ledger.total_entries
        self.counters["entries_on"] += entries_on
        if self.capture is not None and method == "directed":
            self.capture[(id(scene), budget, id(scorer))] = (scene, budget, settings,
                                                            scorer)


def _ap_values(node):
    """Every AP value in a report or sweep JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in AP_KEYS:
                yield from np.ravel(list(value.values()) if isinstance(value, dict)
                                    else value)
            else:
                yield from _ap_values(value)
    elif isinstance(node, list):
        for value in node:
            yield from _ap_values(value)


def ap_errors(values) -> list[str]:
    bad = [v for v in values if not 0.0 <= v <= 1.0]
    return [f"AP outside [0, 1]: {bad[:5]}"] if bad else []


class CliWorkload:
    """An operation is one ``dircp.cli.main`` call on a freshly written config.

    ``calibration`` is the mix of ``calibrate.Kernels`` timed before each
    operation, shaped like the workload's hot layers; ``calibration_ref_s`` is
    that mix's median time on the machine that measured ``baseline.json``, and
    ``calibration_power`` how strongly the workload's time follows the mix's.
    ``tail_p`` is the fixed percentile of ``op_tail_ms``.
    """

    name = ""
    argv: tuple[str, ...] = ()
    config = ""
    rows_file = ""
    json_file = ""
    units_per_op = 1

    def __init__(self):
        self.dir = OUT / self.name
        self.cfg_path = self.dir / "op.cfg"
        self.out_dir = self.dir / "op"

    def setup(self, seed: int):
        self.dir.mkdir(parents=True, exist_ok=True)
        return seed

    def prepare(self, seed, index: int):
        scenario_seed = derive_seed(self.name, seed, "scenario", index)
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        self.cfg_path.write_text(self.config.format(seed=scenario_seed,
                                                    out=self.out_dir.as_posix()))
        return scenario_seed

    def execute(self, prepared):
        import dircp.cli as cli  # looked up per call, so a traced run sees its wrappers
        return cli.main([self.argv[0], self.cfg_path.as_posix(), *self.argv[1:]])

    def verify(self, prepared, result) -> tuple[str, list[str]]:
        if result != 0:
            return "", [f"dircp {self.argv[0]} exited with {result}"]
        doc = json.loads((self.out_dir / self.json_file).read_text())
        return digest_dir(self.out_dir), ap_errors(list(_ap_values(doc)))

    def observe(self, prepared, result) -> list[dict]:
        with open(self.out_dir / self.rows_file, newline="") as f:
            return list(csv.DictReader(f))

    def quality(self, observed, captured) -> tuple[dict, list[str]]:
        """Quality of the directed method over the probe operations' reports.

        The DW loss is the hard-path loss of each directed run the probe made.
        """
        from dircp import learn
        directed = [r for rows in observed for r in rows if r["method"] == "directed"]
        dw = [learn.hard_path_loss(scorer, learn.make_train_scene(scene), budget, settings)
              for scene, budget, settings, scorer in captured]
        return {"wire_bytes_per_run": float(np.mean([int(r["bytes"]) for r in directed])),
                "ap50_masked_directed": float(np.mean([float(r["masked0.5"])
                                                       for r in directed])),
                "dw_loss_final": float(np.mean(dw))}, []


class RunDense(CliWorkload):
    name = "run_dense"
    argv = ("run",)
    rows_file = "report.csv"
    json_file = "report.json"
    units_per_op = 1  # scenes
    calibration = (("polygons", 3), ("wire", 1), ("attention", 1))
    calibration_ref_s = 0.0562
    calibration_power = 1.0
    tail_p = 81
    config = """[scenario]
seed = {seed}
n_vehicles = 24
n_collaborators = 8
density_profile = 0.4,0.4,0.1,0.1
[comms]
q_max = 0.05
[eval]
methods = directed,uniform,single
[output]
directory = {out}
formats = csv,json
"""


class SweepBudget(CliWorkload):
    name = "sweep_budget"
    argv = ("sweep", "--budgets", "0.02,0.1,0.2,0.5", "--seeds", "1", "--jobs", "1")
    rows_file = "per_seed.csv"
    json_file = "sweep.json"
    units_per_op = 12  # pipeline runs: 4 budgets x 3 methods
    calibration = (("wire", 4), ("attention", 3), ("polygons", 1))
    calibration_ref_s = 0.0648
    calibration_power = 1.0
    tail_p = 75
    config = """[scenario]
seed = {seed}
[output]
directory = {out}
"""


class TrainScorer:
    """An operation is one ``train_scorer`` call from a fresh random init."""

    name = "train_scorer"
    n_scenes = 8
    steps = 6
    budget = 0.2
    learning_rate = 0.5
    hidden = 8
    units_per_op = n_scenes * steps  # scene-steps
    calibration = (("attention", 8), ("wire", 2))
    calibration_ref_s = 0.0577
    calibration_power = 0.7
    tail_p = 90  # about 14 ops fit in a run: the ten-beyond rule gives p28

    def setup(self, seed: int):
        from dircp.learn import make_train_scene
        from dircp.pipeline import RunSettings, prepare_scene
        from dircp.scenario import ScenarioConfig, generate

        self.settings = RunSettings(q_max=self.budget)
        scenes = []
        for i in range(self.n_scenes):
            world = generate(ScenarioConfig(seed=derive_seed(self.name, seed, "scenario", i)))
            scenes.append(make_train_scene(prepare_scene(world, self.settings)))
        return seed, scenes

    def prepare(self, state, index: int):
        from dircp.comms import ScorerParams
        seed, scenes = state
        init_seed = derive_seed(self.name, seed, "init", index)
        return scenes, ScorerParams.random(self.hidden, seed=init_seed, scale=0.3)

    def execute(self, prepared):
        import dircp.learn as learn  # looked up per call, so a traced run sees its wrappers
        scenes, init = prepared
        return learn.train_scorer(init, scenes, self.budget, self.settings,
                                  learning_rate=self.learning_rate, steps=self.steps)

    def verify(self, prepared, result) -> tuple[str, list[str]]:
        from dircp.learn import training_log_csv
        errors = []
        losses = [row["dw_loss"] for row in result.history]
        if len(losses) != self.steps:
            errors.append(f"{len(losses)} history rows for {self.steps} steps")
        if not all(math.isfinite(v) for v in
                   losses + [result.hard_loss_initial, result.hard_loss_final]):
            errors.append("non-finite training loss")
        h = hashlib.sha256(training_log_csv(result.history).encode())
        h.update(result.params.to_vector().astype("<f8").tobytes())
        h.update(repr((result.hard_loss_initial, result.hard_loss_final)).encode())
        return h.hexdigest(), errors

    def observe(self, prepared, result):
        return prepared[0], result

    def quality(self, observed, captured) -> tuple[dict, list[str]]:
        """Directed runs of the probe's trained scorer on its training scenes."""
        from dircp.evaluate import run_method
        (scenes, result), = observed
        runs = [run_method(ts.scene.world, "directed", self.budget, self.settings,
                           scorer_params=result.params, scene=ts.scene) for ts in scenes]
        aps = [v for r in runs for per_t in (r.ap_at_iou, r.ap_at_pd_iou)
               for v in np.ravel(list(per_t.values()))]
        metrics = {"wire_bytes_per_run": float(np.mean([r.bytes_transmitted for r in runs])),
                   "ap50_masked_directed": float(np.mean([r.masked_sector_ap(0.5)
                                                          for r in runs])),
                   "dw_loss_final": float(result.hard_loss_final)}
        return metrics, ap_errors(aps)


WORKLOADS = {w.name: w for w in (RunDense, SweepBudget, TrainScorer)}
