"""dircp benchmark: one workload, one closed-loop client, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload run_dense --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a run that alternates
untraced and traced runs of each operation, traced with namespace wrappers
(see ``spans.py``). The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the environment. Everything the run writes goes under
``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import Kernels, calibration_seconds
from spans import Patches, Tracer, per_name

# One client on a small machine: keep numpy's BLAS to the client's own thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
SETUP_REPS = 5
MIN_OPS = 11          # fewest samples that leave one beyond a p90 op_tail_ms
LOOP_CAP_S = 120.0    # keeps a slow run inside the 180 s limit
# Operations of the default seed that every run replays untimed: their output
# digests must match digests.json, and the quality metrics come from them.
PROBE_OPS = {"run_dense": 4, "sweep_budget": 4, "train_scorer": 1}

# Span name -> functions it wraps. Each function is patched in every dircp
# namespace that binds it.
LAYERS = {
    "cli": ("dircp.cli.main",),
    "scenario.generate": ("dircp.scenario.generate",),
    "direction.cell_sector_map": ("dircp.direction.cell_sector_map",),
    "features.encode": ("dircp.features.encode",),
    "features.densify": ("dircp.features.densify",),
    "pipeline.prepare_scene": ("dircp.pipeline.prepare_scene",),
    "pipeline.run_pipeline": ("dircp.pipeline.run_pipeline",),
    "comms.score": ("dircp.comms.score_reference", "dircp.comms.score_mlp"),
    "comms.score_mlp_forward": ("dircp.comms.score_mlp_forward",),
    "comms.score_mlp_backward": ("dircp.comms.score_mlp_backward",),
    "comms.clip_queries": ("dircp.comms.clip_queries",),
    "comms.build_message": ("dircp.comms.build_message",),
    "comms.serialize": ("dircp.comms.serialize",),
    "comms.deserialize": ("dircp.comms.deserialize",),
    "comms.message_to_sparse": ("dircp.comms.message_to_sparse",),
    "fusion.dsa_weights": ("dircp.fusion.dsa_weights",),
    "fusion.fuse": ("dircp.fusion.fuse",),
    "fusion.decode": ("dircp.fusion.decode",),
    "fusion.attention_trace_csv": ("dircp.fusion.attention_trace_csv",),
    "learn.train_scorer": ("dircp.learn.train_scorer",),
    "learn.soft_forward": ("dircp.learn.soft_forward",),
    "learn.detection_loss": ("dircp.learn.detection_loss",),
    "learn.dw_loss_gradient": ("dircp.learn.dw_loss_gradient",),
    "learn.hard_path_loss": ("dircp.learn.hard_path_loss",),
    "evaluate.evaluate_boxes": ("dircp.evaluate.evaluate_boxes",),
    "geometry.iou": ("dircp.geometry.iou",),
    "report.write": ("dircp.report.write_text", "dircp.report.run_report_json",
                     "dircp.report.per_seed_csv", "dircp.report.sweep_csv",
                     "dircp.report.sweep_json", "dircp.report.budget_curve_svg"),
}
# Counters taken at the same boundaries: (args, kwargs, result) -> increments.
COUNTS = {
    "dircp.comms.serialize": lambda a, kw, out: {"wire_bytes": len(out)},
    "dircp.comms.deserialize": lambda a, kw, out: {"wire_bytes": len(a[0])},
    "dircp.fusion.decode": lambda a, kw, out: {"boxes": len(out)},
    "dircp.pipeline.prepare_scene": lambda a, kw, out: {
        "mask_on": sum(out.mask.mask), "mask_sectors": len(out.mask.mask)},
}


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples beyond it.

    With the nearest-rank rule, the p-th percentile is sample ceil(p n / 100)
    of the sorted list, and n - ceil(p n / 100) samples lie beyond it. Each
    workload's ``tail_p`` is this rule at its op count in ``baseline.json``,
    or p90 where the rule falls to the median or below, and every run is
    evaluated at that fixed percentile.
    """
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def percentile(sorted_values, p: int) -> float:
    return sorted_values[max(1, math.ceil(p * len(sorted_values) / 100)) - 1]


def speed_factor(wl, cal_s: float) -> float:
    """Multiplier that brings a time measured next to ``cal_s`` to the reference speed.

    ``calibration_power`` is how strongly the workload's own time follows the
    calibration mix's time when the machine's speed changes (see ``calibrate.py``).
    """
    return (wl.calibration_ref_s / cal_s) ** wl.calibration_power


def timing_metrics(ops, wl, scaled: bool = True) -> dict:
    """Throughput and operation-time percentiles at the workload's ``tail_p``.

    When ``scaled``, each operation's time is multiplied by the speed factor
    of its calibration time.
    """
    times = [(t * speed_factor(wl, cal) if scaled else t, ok) for t, ok, _, cal in ops]
    good = sorted(t for t, ok in times if ok)
    if not good:
        return {}
    return {"throughput_per_s": wl.units_per_op * len(good) / sum(t for t, _ in times),
            "op_p50_ms": statistics.median(good) * 1e3,
            "op_tail_ms": percentile(good, wl.tail_p) * 1e3}


def import_layers() -> None:
    """Import every dircp module that ``LAYERS`` names.

    A module imported after a patch is installed would bind the wrapper
    instead of the function, so this runs before any patch.
    """
    for targets in LAYERS.values():
        for dotted in targets:
            try:
                importlib.import_module(dotted.rpartition(".")[0])
            except ImportError:  # reported as absent by the tracer
                pass


def instrument(check, tracer=None):
    """Install the wire check, on top of the tracer's wrappers when tracing.

    Returns the patches, to be removed after the operation, and the names of
    the layers the tracer wraps. The check's own time is a span of its own,
    ``bench.check``, so that it lands in no dircp layer.
    """
    patches, installed = Patches(), set()
    if tracer is None:
        patches.install("dircp.pipeline.run_pipeline", check.wrap)
        return patches, installed
    for name, targets in LAYERS.items():
        for dotted in targets:
            if patches.install(dotted, lambda fn, n=name, d=dotted:
                               tracer.wrap(n, fn, COUNTS.get(d))):
                installed.add(name)
    patches.install("dircp.pipeline.run_pipeline",
                    lambda fn: tracer.wrap("bench.check", check.wrap(fn)))
    return patches, installed


def import_seconds() -> float:
    """Time to import dircp's entry modules in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import dircp.cli, dircp.learn; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def environment(workload: str, seed: int) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or None
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "dircp").rglob("*.py")))
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "workload": workload, "seed": seed,
            "src_dircp_lines": lines}


class Runner:
    """Runs operations of one workload and checks each one."""

    def __init__(self, workload, check):
        self.wl = workload
        self.check = check
        self.kernels = Kernels()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one(self, state, index: int, tracer=None):
        """One operation: returns (seconds, ok, digest, prepared, result)."""
        prepared = self.wl.prepare(state, index)
        self.check.errors.clear()
        calls = self.check.calls
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            result = self.wl.execute(prepared)
        except Exception:  # an operation boundary: record, count, carry on
            elapsed = time.perf_counter() - start
            self.fail(index, [traceback.format_exc()])
            return elapsed, False, "", prepared, None
        finally:
            if tracer is not None:
                tracer.op = -1
        elapsed = time.perf_counter() - start
        try:
            digest, errors = self.wl.verify(prepared, result)
        except Exception:  # a missing or malformed output fails the operation
            digest, errors = "", [traceback.format_exc()]
        if self.check.calls == calls:
            errors.append("no run_pipeline call observed; the wire was not checked")
        errors += self.check.errors
        self.attempted += 1
        if errors:
            self.fail(index, errors, counted=True)
        return elapsed, not errors, digest, prepared, result

    def fail(self, index, errors, counted=False):
        if not counted:
            self.attempted += 1
        self.failed += 1
        if len(self.errors) < 20:
            self.errors += [f"op {index}: {e}" for e in errors]

    def loop(self, state, seconds: float):
        """Untraced operations between passes of the calibration mix.

        An operation's calibration time is the mean of the passes just before
        and just after it, which follows the machine's speed during the
        operation more closely than either pass alone.
        """
        ops, cals = [], []
        start = time.perf_counter()
        patches, _ = instrument(self.check)
        try:
            while True:
                cals.append(calibration_seconds(self.kernels, self.wl.calibration))
                if _done(start, seconds, len(ops), MIN_OPS):
                    break
                elapsed, ok, digest, _, _ = self.one(state, len(ops))
                ops.append((elapsed, ok, digest))
        finally:
            patches.remove()
        return [(*op, (before + after) / 2) for op, before, after in zip(ops, cals, cals[1:])]

    def paired_loop(self, state, seconds: float, tracer):
        """Each operation untraced and traced; returns both and the wire counts.

        The two runs go back to back, so they see the same machine speed and
        their time ratio is the tracing overhead. Which of them goes first
        alternates, so that neither gains from following its twin. The wire
        counters cover the traced operations only.
        """
        plain, traced, installed = [], [], set()
        wire = dict.fromkeys(self.check.counters, 0)
        start = time.perf_counter()
        while not _done(start, seconds, len(traced), 1):
            index = len(plain)
            for trace in (False, True) if index % 2 == 0 else (True, False):
                before = dict(self.check.counters)
                patches, layers = instrument(self.check, tracer if trace else None)
                try:
                    op = self.one(state, index, tracer if trace else None)[:3]
                finally:
                    patches.remove()
                if trace:
                    traced.append(op)
                    installed = layers
                    for key in wire:
                        wire[key] += self.check.counters[key] - before[key]
                else:
                    plain.append(op)
        return plain, traced, installed, wire


def _done(start: float, seconds: float, n_ops: int, min_ops: int) -> bool:
    wall = time.perf_counter() - start
    return (wall >= seconds and n_ops >= min_ops) or (n_ops > 0 and wall >= LOOP_CAP_S)


def probe(runner, wl, record: bool) -> dict:
    """Replay the default seed's first operations; check digests; measure quality."""
    digests_path = Path(__file__).with_name("digests.json")
    recorded = json.loads(digests_path.read_text()) if digests_path.exists() else {}
    expected = recorded.get(wl.name, [])
    state = wl.setup(DEFAULT_SEED)
    runner.check.capture = {}
    observed, digests = [], []
    patches, _ = instrument(runner.check)
    try:
        for i in range(PROBE_OPS[wl.name]):
            _, ok, digest, prepared, result = runner.one(state, i)
            digests.append(digest)
            if ok and not record and (i >= len(expected) or expected[i] != digest):
                runner.fail(i, [f"output digest differs from {digests_path.name}"],
                            counted=True)
                ok = False
            if ok:
                observed.append(wl.observe(prepared, result))
    finally:
        patches.remove()
    captured = list(runner.check.capture.values())
    runner.check.capture = None
    if record:
        recorded[wl.name] = digests
        digests_path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    if len(observed) < len(digests):
        return {}
    try:
        quality, errors = wl.quality(observed, captured)
    except Exception:  # reported as a failed probe, not a crash
        quality, errors = {}, [traceback.format_exc()]
    if errors:
        runner.fail(0, errors, counted=True)
    return quality


def layer_metrics(tracer, wire, n_ops: int, installed: set[str]) -> tuple[dict, dict]:
    """Per-operation self time, calls and counters from the traced operations.

    ``wire`` holds the wire check's counts over the same operations.
    """
    spans = [s for s in tracer.spans if s is not None and s[4] >= 0]
    self_ns, calls = per_name(spans)
    m = {}
    for name in LAYERS:
        if name in installed:
            m[f"{name}.self_ms"] = self_ns.get(name, 0) / n_ops / 1e6
            m[f"{name}.calls"] = calls.get(name, 0) / n_ops
    c = tracer.counters
    counted = installed - tracer.count_errors
    wire_ns = self_ns.get("comms.serialize", 0) + self_ns.get("comms.deserialize", 0)
    if {"comms.serialize", "comms.deserialize"} <= counted:
        m["comms.wire_mb_per_s"] = c["wire_bytes"] / wire_ns * 1e3 if wire_ns else 0.0
    if "fusion.decode" in counted:
        m["fusion.boxes"] = c["boxes"] / n_ops
    if "pipeline.prepare_scene" in counted:
        m["direction.mask_on_frac"] = (c["mask_on"] / c["mask_sectors"]
                                       if c["mask_sectors"] else 0.0)
    m["comms.messages"] = wire["messages"] / n_ops
    m["comms.entries"] = wire["entries"] / n_ops
    m["comms.entries_on_masked_frac"] = (wire["entries_on"] / wire["entries"]
                                         if wire["entries"] else 0.0)
    total = sum(self_ns.values())
    top = sorted(self_ns.items(), key=lambda kv: -kv[1])[:8]
    shares = {name: round(ns / total, 4) for name, ns in top} if total else {}
    return m, shares


def write_spans(tracer, path: Path) -> None:
    with open(path, "w") as f:
        for s in tracer.spans:
            if s is not None:
                name, start, end, parent, op = s
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "op": op}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the default seed's output digests in digests.json")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "dircp" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no dircp source under {SRC} or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import dircp

    import_layers()
    if Path(dircp.__file__).resolve().parent != (SRC / "dircp").resolve():
        print(f"dircp imported from {dircp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import OUT, WORKLOADS, WireCheck

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    (OUT / wl.name).mkdir(parents=True, exist_ok=True)
    info = environment(args.workload, args.seed)

    # Each set-up is scaled like an operation, by the calibration passes around it.
    runner, setups = Runner(wl, WireCheck()), []
    for _ in range(SETUP_REPS):
        before = calibration_seconds(runner.kernels, wl.calibration)
        start = time.perf_counter()
        state = wl.setup(args.seed)
        elapsed = time.perf_counter() - start + import_seconds()
        cal = (before + calibration_seconds(runner.kernels, wl.calibration)) / 2
        setups.append((elapsed, elapsed * speed_factor(wl, cal)))

    quality = probe(runner, wl, args.record_digests)

    if args.trace == 0:
        ops = runner.loop(state, args.seconds)
        scale = speed_factor(wl, statistics.median(cal for *_, cal in ops))
        metrics = timing_metrics(ops, wl)
        raw = timing_metrics(ops, wl, scaled=False)
        metrics.update(
            setup_s=statistics.median(scaled for _, scaled in setups),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            ok_frac=(runner.attempted - runner.failed) / runner.attempted,
            **quality)
        n_good = sum(ok for _, ok, _, _ in ops)
        info.update(ops=len(ops), op_tail_percentile=wl.tail_p,
                    op_tail_samples_beyond=n_good - math.ceil(wl.tail_p * n_good / 100),
                    speed_scale=scale,
                    unscaled={**raw, "setup_s": statistics.median(t for t, _ in setups)})
        declared = spec["end_to_end"]
    else:
        tracer = Tracer()
        plain, traced, installed, wire = runner.paired_loop(state, args.seconds, tracer)
        mismatched = [i for i, (p, t) in enumerate(zip(plain, traced)) if p[2] != t[2]]
        if mismatched:
            runner.failed += 1
            runner.errors.append(f"traced outputs differ from untraced ones at ops {mismatched}")
        metrics, shares = layer_metrics(tracer, wire, len(traced), installed)
        metrics["trace.overhead_frac"] = (sum(op[0] for op in traced)
                                          / sum(op[0] for op in plain) - 1.0)
        write_spans(tracer, OUT / wl.name / "spans.jsonl")
        info.update(ops_paired=len(traced), self_time_share=shares)
        declared = spec["per_layer"]

    info["absent"] = [m["name"] for m in declared if m["name"] not in metrics]
    for err in runner.errors:
        print(err, file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }
    (OUT / wl.name / "result.json").write_text(json.dumps({"info": info, **result},
                                                          indent=2) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
