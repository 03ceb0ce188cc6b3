"""Command-line entry point: run, sweep, train, export-scene."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .comms import ScorerParams
from .config import ConfigError, RunConfig, effective_config_text, load_config, schema_help
from .evaluate import CONVENTIONS, score_result, sweep, train_sigma_scorers
from .fusion import attention_trace_csv
from .learn import (
    DivergedTraining,
    load_scorer,
    save_scorer,
    train_scorer,
    training_log_csv,
    training_scenes,
)
from .pipeline import prepare_scene, run_pipeline
from .report import (
    budget_curve_svg,
    per_seed_csv,
    run_report_json,
    sweep_csv,
    sweep_json,
    write_text,
)
from .scenario import PlacementExhausted, export_scene, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dircp",
        description="Direction-aware collaborative perception simulator.",
        epilog=schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate configured methods on each seed")
    run_p.add_argument("config", help="path to the run configuration file")
    run_p.add_argument("--output", help="override output.directory")
    run_p.add_argument("--scorer-checkpoint",
                       help="DCPW checkpoint for the MLP query scorer")

    sweep_p = sub.add_parser("sweep", help="budget x sigma x seed sweep")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--budgets", help="comma-separated budget list")
    sweep_p.add_argument("--sigmas", help="comma-separated sigma list")
    sweep_p.add_argument("--seeds", type=int, help="number of evaluation seeds")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the seeds and the sigma trainings")
    sweep_p.add_argument("--train-steps", type=int, default=200,
                         help="scorer training steps per sigma (mlp scorer)")
    sweep_p.add_argument("--train-lr", type=float, default=0.5,
                         help="scorer training learning rate (mlp scorer)")
    sweep_p.add_argument("--output", help="override output.directory")

    train_p = sub.add_parser("train", help="train the MLP query scorer")
    train_p.add_argument("config")
    train_p.add_argument("--steps", type=int, default=200)
    train_p.add_argument("--lr", type=float, default=0.5)
    train_p.add_argument("--batch", type=int, default=8,
                         help="number of training scenarios")
    train_p.add_argument("--output", help="override output.directory")

    export_p = sub.add_parser("export-scene", help="dump generated worlds as JSON")
    export_p.add_argument("config")
    export_p.add_argument("--output", help="override output.directory")
    return parser


def _parse_float_list(text: str, flag: str) -> list[float]:
    values = [v for v in (part.strip() for part in text.split(",")) if v]
    if not values:
        raise ConfigError(f"{flag}: empty list")
    try:
        return [float(v) for v in values]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _load(args, pipeline: bool = True) -> tuple[RunConfig, Path]:
    """Load the config and echo it; pipeline commands also need a collaborator, and
    those that train the scorer the per-collaborator clip that soft_forward ranks."""
    overrides = {}
    if getattr(args, "output", None):
        overrides["output.directory"] = args.output
    cfg = load_config(args.config, overrides=overrides)
    _require(not pipeline or cfg.scenario.n_collaborators >= 1,
             f"scenario.n_collaborators: dircp {args.command} needs at least one")
    trains = args.command == "train" or (args.command == "sweep" and cfg.scorer == "mlp")
    _require(not trains or cfg.settings.tie_break == "per_collaborator",
             f"comms.tie_break: dircp {args.command} trains the scorer for the "
             "per_collaborator clip only")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text(out_dir / "effective.cfg", effective_config_text(cfg))
    return cfg, out_dir


def _scorer_for(cfg: RunConfig, checkpoint: str | None = None) -> ScorerParams | None:
    if checkpoint:
        return load_scorer(checkpoint)
    if cfg.scorer == "reference":
        return None
    return ScorerParams.random(cfg.scorer_hidden, seed=cfg.scenario.seed % 2**64)


def cmd_run(args) -> int:
    cfg, out_dir = _load(args)
    scorer = _scorer_for(cfg, args.scorer_checkpoint)
    results = []
    first_run = None
    for seed in cfg.seeds:
        world = generate(replace(cfg.scenario, seed=seed), grid=cfg.grid)
        scene = prepare_scene(world, cfg.settings)
        for method in cfg.methods:
            params = None if method == "single" else scorer
            pipe = run_pipeline(scene, method, cfg.settings.q_max, cfg.settings, params)
            results.append(score_result(world, scene, pipe, cfg.settings.q_max,
                                        cfg.settings))
            if first_run is None:
                first_run = pipe
    if "json" in cfg.formats:
        write_text(out_dir / "report.json", run_report_json(results, CONVENTIONS))
    if "csv" in cfg.formats:
        write_text(out_dir / "report.csv",
                   per_seed_csv(results, cfg.settings.iou_thresholds))
        write_text(out_dir / "attention_trace.csv",
                   attention_trace_csv(first_run.fused) if first_run else "")
    return EXIT_OK


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def cmd_sweep(args) -> int:
    _require(args.jobs >= 1, "--jobs: must be >= 1")
    _require(args.train_steps >= 1, "--train-steps: must be >= 1")
    _require(math.isfinite(args.train_lr), "--train-lr: must be finite")
    _require(args.seeds is None or args.seeds >= 1, "--seeds: need at least one seed")
    cfg, out_dir = _load(args)
    budgets = ([cfg.settings.q_max] if args.budgets is None
               else _parse_float_list(args.budgets, "--budgets"))
    sigmas = ([cfg.settings.loss_sigma] if args.sigmas is None
              else _parse_float_list(args.sigmas, "--sigmas"))
    # Derived seeds past 2**64 wrap, as generate reduces them; the others keep their value.
    seeds = (list(cfg.seeds) if args.seeds is None
             else [s % 2**64 if s >= 2**64 else s
                   for s in range(cfg.scenario.seed, cfg.scenario.seed + args.seeds)])
    scorers = None
    if cfg.scorer == "mlp":
        scorers = train_sigma_scorers(cfg.scenario, cfg.settings, sigmas,
                                      cfg.settings.q_max, steps=args.train_steps,
                                      learning_rate=args.train_lr,
                                      hidden=cfg.scorer_hidden, grid=cfg.grid,
                                      jobs=args.jobs)
    result = sweep(cfg.scenario, cfg.settings, budgets, sigmas, seeds,
                   methods=cfg.methods, scorers=scorers, jobs=args.jobs,
                   grid=cfg.grid)
    if "csv" in cfg.formats:
        write_text(out_dir / "sweep.csv",
                   sweep_csv(result, cfg.settings.iou_thresholds))
        write_text(out_dir / "per_seed.csv",
                   per_seed_csv(list(result.per_seed), cfg.settings.iou_thresholds))
    if "json" in cfg.formats:
        write_text(out_dir / "sweep.json", sweep_json(result))
    if "svg" in cfg.formats:
        for t in cfg.settings.iou_thresholds:
            write_text(out_dir / f"budget_ap_{t:g}.svg",
                       budget_curve_svg(result, t, sigmas[0], "ap"))
            write_text(out_dir / f"budget_masked_{t:g}.svg",
                       budget_curve_svg(result, t, sigmas[0], "masked"))
    return EXIT_OK


def cmd_train(args) -> int:
    _require(args.steps >= 1, "--steps: must be >= 1")
    _require(args.batch >= 1, "--batch: must be >= 1")
    _require(math.isfinite(args.lr), "--lr: must be finite")
    cfg, out_dir = _load(args)
    scenes = training_scenes(cfg.scenario, cfg.settings, args.batch, cfg.grid)
    init = ScorerParams.random(cfg.scorer_hidden, seed=cfg.scenario.seed % 2**64, scale=0.3)
    result = train_scorer(init, scenes, cfg.settings.q_max, cfg.settings,
                          learning_rate=args.lr, steps=args.steps)
    save_scorer(result.params, out_dir / "scorer.dcpw")
    write_text(out_dir / "training_log.csv", training_log_csv(result.history))
    hard_gap = result.hard_loss_final - result.hard_loss_initial
    print(f"trained {args.steps} steps: soft loss "
          f"{result.history[0]['dw_loss']:.4f} -> {result.history[-1]['dw_loss']:.4f}, "
          f"hard loss {result.hard_loss_initial:.4f} -> "
          f"{result.hard_loss_final:.4f} (gap {hard_gap:+.4f})")
    return EXIT_OK


def cmd_export_scene(args) -> int:
    cfg, out_dir = _load(args, pipeline=False)
    for seed in cfg.seeds:
        world = generate(replace(cfg.scenario, seed=seed), grid=cfg.grid)
        export_scene(world, out_dir / f"scene_{seed}.json")
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "train": cmd_train,
    "export-scene": cmd_export_scene,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error:\n{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PlacementExhausted, DivergedTraining, OSError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"runtime error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
