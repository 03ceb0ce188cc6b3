"""Sectioned key-value run configuration: parsing, validation, and echoing."""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .pipeline import METHODS, RunSettings
from .scenario import ScenarioConfig

ENV_SEED = "DIRCP_SEED"


class ConfigError(ValueError):
    """Aggregated configuration problems; one line per offending field."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _parse_strs(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip() != "")


def _parse_boundaries(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for part in _parse_strs(text):
        lo, hi = part.split(":")
        out.append((float(lo), float(hi)))
    return tuple(out)


# section -> key -> (default string, parser, description)
SCHEMA: dict[str, dict[str, tuple[str, object, str]]] = {
    "scenario": {
        "seed": ("0", int, "base 64-bit scenario seed"),
        "area_side": ("64", float, "square scene side in meters"),
        "n_collaborators": ("4", int, "collaborating vehicles besides the ego"),
        "n_vehicles": ("12", int, "ground-truth vehicles to place"),
        "density_profile": ("1,1,1,1", _parse_floats,
                            "relative per-sector traffic density weights"),
        "sensor_range": ("28", float, "per-agent sensing radius in meters"),
        "occlusion": ("true", _parse_bool, "enable line-of-sight occlusion"),
        "dropout_prob": ("0.0", float, "per-cell evidence dropout probability"),
    },
    "grid": {
        "h": ("", int, "grid rows (default: area_side / cell_size)"),
        "w": ("", int, "grid cols (default: area_side / cell_size)"),
        "d": ("8", int, "feature channels"),
        "cell_size": ("1.0", float, "cell edge length in meters"),
    },
    "direction": {
        "n_dir": ("4", int, "number of angular sectors"),
        "boundaries": ("", _parse_boundaries,
                       "sector intervals 'lo:hi,...' in degrees (default uniform)"),
        "interest_weights": ("0.9,0.9,0.1,0.1", _parse_floats,
                             "ego per-sector interest in [0,1]"),
        "sigma1": ("", float, "relative mask threshold (default 1/(2 n_dir))"),
        "sigma2": ("5.0", float, "absolute mask threshold in vehicles"),
    },
    "comms": {
        "q_max": ("0.2", float, "communication budget in [0,1]"),
        "q0_mode": ("ones", str, "initial query map: ones | confidence_gap"),
        "tie_break": ("per_collaborator", str,
                      "top-k scope: per_collaborator | global"),
        "scorer": ("reference", str, "query scorer: reference | mlp"),
        "hidden": ("8", int, "MLP scorer hidden width"),
    },
    "fusion": {
        "n_heads": ("2", int, "attention heads"),
        "d_ff": ("", int, "FFN hidden width (default 2*d)"),
        "init_mode": ("identity", str, "attention init: identity | random"),
        "seed": ("0", int, "seed for random attention init"),
        "qk_scale": ("1.0", float, "query/key projection scale (identity init)"),
    },
    "loss": {
        "sigma": ("1.0", float, "direction weight-control factor"),
        "lambda_off": ("1.0", float, "offset loss weight"),
        "lambda_size": ("1.0", float, "size/angle loss weight"),
        "tau": ("0.05", float, "soft clipping temperature (training)"),
    },
    "eval": {
        "iou_thresholds": ("0.5,0.7", _parse_floats, "AP IoU thresholds"),
        "methods": ("directed,uniform,single", _parse_strs, "methods to run"),
        "seeds": ("", _parse_ints, "explicit eval seeds (default: scenario seed)"),
        "conf_threshold": ("0.55", float, "decoder confidence threshold"),
    },
    "output": {
        "directory": ("out", str, "output directory"),
        "formats": ("csv,json,svg", _parse_strs, "report formats to emit"),
    },
}


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    settings: RunSettings
    grid_h: int
    grid_w: int
    cell_size: float
    scorer: str
    scorer_hidden: int
    methods: tuple[str, ...]
    seeds: tuple[int, ...]
    out_dir: str
    formats: tuple[str, ...]


def schema_help() -> str:
    lines = ["configuration keys (defaults in parentheses):"]
    for section, keys in SCHEMA.items():
        lines.append(f"  [{section}]")
        for key, (default, _, desc) in keys.items():
            shown = default if default != "" else "auto"
            lines.append(f"    {key} ({shown}): {desc}")
    return "\n".join(lines)


def _read_raw(path: str | Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    text = Path(path).read_text(encoding="utf-8")
    parser.read_string(text, source=str(path))
    return {s: dict(parser.items(s)) for s in parser.sections()}


def load_config(path: str | Path | None = None,
                overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse, validate, and assemble a run configuration.

    All validation problems are aggregated into a single ConfigError. The
    DIRCP_SEED environment variable overrides the scenario seed; explicit
    overrides (CLI flags, "section.key" -> raw string) take highest precedence.
    """
    errors: list[str] = []
    raw: dict[str, dict[str, str]] = {}
    if path is not None:
        try:
            raw = _read_raw(path)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (configparser.Error, OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from None

    for section, keys in raw.items():
        if section not in SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        for key in keys:
            if key not in SCHEMA[section]:
                errors.append(f"unknown key {section}.{key}")

    values: dict[str, dict[str, object]] = {}
    merged: dict[str, dict[str, str]] = {
        s: {k: spec[0] for k, spec in keys.items()} for s, keys in SCHEMA.items()
    }
    for section, keys in raw.items():
        if section in SCHEMA:
            for key, text in keys.items():
                if key in SCHEMA[section]:
                    merged[section][key] = text
    if overrides:
        for dotted, text in overrides.items():
            section, _, key = dotted.partition(".")
            if section in SCHEMA and key in SCHEMA[section]:
                merged[section][key] = text
            else:
                errors.append(f"unknown override {dotted}")
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        merged["scenario"]["seed"] = env_seed

    for section, keys in merged.items():
        values[section] = {}
        for key, text in keys.items():
            default, parse, _ = SCHEMA[section][key]
            if text == "":
                values[section][key] = None
                continue
            try:
                values[section][key] = parse(text)
            except (ValueError, TypeError) as exc:
                errors.append(f"{section}.{key}: cannot parse {text!r} ({exc})")
                values[section][key] = None
            else:
                if parse is float and math.isnan(values[section][key]):
                    errors.append(f"{section}.{key}: must not be nan")
    if errors:
        raise ConfigError("\n".join(errors))

    sc, gr, di, co, fu, lo, ev, ou = (values["scenario"], values["grid"],
                                      values["direction"], values["comms"],
                                      values["fusion"], values["loss"],
                                      values["eval"], values["output"])

    def check(cond: bool, message: str):
        if not cond:
            errors.append(message)

    # Values the grid size and the checks below divide or count by.
    for section, key in (("scenario", "area_side"), ("scenario", "sensor_range"),
                         ("grid", "cell_size")):
        value = values[section][key]
        check(math.isfinite(value) and value > 0.0,
              f"{section}.{key} must be positive and finite")
    check(di["n_dir"] >= 1, "direction.n_dir must be >= 1")
    check(fu["n_heads"] >= 1, "fusion.n_heads must be >= 1")
    check(fu["d_ff"] is None or fu["d_ff"] >= 0, "fusion.d_ff must be >= 0")
    if errors:
        raise ConfigError("\n".join(errors))

    cell = gr["cell_size"]
    cells = sc["area_side"] / cell
    if not math.isfinite(cells):
        raise ConfigError("grid.cell_size is too small for scenario.area_side")
    default_cells = int(round(cells))
    grid_h = gr["h"] if gr["h"] is not None else default_cells
    grid_w = gr["w"] if gr["w"] is not None else default_cells

    check(grid_h * cell == sc["area_side"] and grid_w * cell == sc["area_side"],
          f"grid.h/w x cell_size must cover area_side exactly "
          f"({grid_h}x{grid_w} cells at {cell} vs {sc['area_side']} m)")
    check(gr["d"] >= 2, "grid.d: need at least 2 channels")
    check(len(di["interest_weights"] or ()) == di["n_dir"],
          "direction.interest_weights length must equal n_dir")
    check(len(sc["density_profile"] or ()) == di["n_dir"],
          "scenario.density_profile length must equal direction.n_dir")
    check(co["q0_mode"] in ("ones", "confidence_gap"),
          f"comms.q0_mode: unknown mode {co['q0_mode']!r}")
    check(co["tie_break"] in ("per_collaborator", "global"),
          f"comms.tie_break: unknown mode {co['tie_break']!r}")
    check(co["scorer"] in ("reference", "mlp"),
          f"comms.scorer: unknown scorer {co['scorer']!r}")
    check(fu["init_mode"] in ("identity", "random"),
          f"fusion.init_mode: unknown mode {fu['init_mode']!r}")
    check(0.0 <= co["q_max"] <= 1.0, "comms.q_max must lie in [0, 1]")
    check(0.0 < ev["conf_threshold"] < 1.0,
          "eval.conf_threshold must lie in (0, 1)")
    check(all(0.0 < t < 1.0 for t in ev["iou_thresholds"]),
          "eval.iou_thresholds must lie in (0, 1)")
    methods = ev["methods"] or ()
    check(bool(methods) and all(m in METHODS for m in methods),
          f"eval.methods must be drawn from {METHODS}")
    check(gr["d"] % fu["n_heads"] == 0, "grid.d must be divisible by fusion.n_heads")
    check(di["sigma1"] is None or 0.0 <= di["sigma1"] <= 1.0,
          "direction.sigma1 must lie in [0, 1]")
    check(di["sigma2"] >= 0.0, "direction.sigma2 must be >= 0")
    check(math.isfinite(fu["qk_scale"]), "fusion.qk_scale must be finite")
    check(lo["sigma"] >= 0.0, "loss.sigma must be >= 0")
    check(lo["tau"] > 0.0, "loss.tau must be positive")

    scenario = None
    if not errors:
        try:
            scenario = ScenarioConfig(
                seed=sc["seed"], area_side=sc["area_side"],
                n_collaborators=sc["n_collaborators"], n_vehicles=sc["n_vehicles"],
                density_profile=sc["density_profile"],
                sensor_range=sc["sensor_range"], occlusion_enabled=sc["occlusion"],
                dropout_prob=sc["dropout_prob"])
        except ValueError as exc:
            errors.append(f"scenario: {exc}")
    if errors:
        raise ConfigError("\n".join(errors))

    settings = RunSettings(
        d_channels=gr["d"], n_dir=di["n_dir"], boundaries=di["boundaries"],
        interest=di["interest_weights"], sigma1=di["sigma1"], sigma2=di["sigma2"],
        q_max=co["q_max"], q0_mode=co["q0_mode"], tie_break=co["tie_break"],
        n_heads=fu["n_heads"], d_ff=fu["d_ff"], init_mode=fu["init_mode"],
        attn_seed=fu["seed"], qk_scale=fu["qk_scale"],
        conf_threshold=ev["conf_threshold"], loss_sigma=lo["sigma"],
        lambda_off=lo["lambda_off"], lambda_size=lo["lambda_size"], tau=lo["tau"],
        iou_thresholds=ev["iou_thresholds"])
    seeds = ev["seeds"] if ev["seeds"] else (scenario.seed,)
    return RunConfig(scenario=scenario, settings=settings, grid_h=grid_h,
                     grid_w=grid_w, cell_size=cell, scorer=co["scorer"],
                     scorer_hidden=co["hidden"], methods=methods,
                     seeds=tuple(int(s) for s in seeds), out_dir=ou["directory"],
                     formats=ou["formats"])


def effective_config_text(config: RunConfig) -> str:
    """Canonical echo of the merged configuration (audit trail for reports)."""
    s = config.scenario
    st = config.settings
    boundaries = "" if st.boundaries is None else ",".join(
        f"{lo:g}:{hi:g}" for lo, hi in st.boundaries)
    sections = {
        "scenario": {
            "seed": s.seed, "area_side": f"{s.area_side:g}",
            "n_collaborators": s.n_collaborators, "n_vehicles": s.n_vehicles,
            "density_profile": ",".join(f"{w:g}" for w in s.density_profile),
            "sensor_range": f"{s.sensor_range:g}",
            "occlusion": str(s.occlusion_enabled).lower(),
            "dropout_prob": f"{s.dropout_prob:g}",
        },
        "grid": {"h": config.grid_h, "w": config.grid_w, "d": st.d_channels,
                 "cell_size": f"{config.cell_size:g}"},
        "direction": {
            "n_dir": st.n_dir, "boundaries": boundaries,
            "interest_weights": ",".join(f"{w:g}" for w in st.interest),
            "sigma1": f"{st.effective_sigma1():g}", "sigma2": f"{st.sigma2:g}",
        },
        "comms": {"q_max": f"{st.q_max:g}", "q0_mode": st.q0_mode,
                  "tie_break": st.tie_break, "scorer": config.scorer,
                  "hidden": config.scorer_hidden},
        "fusion": {"n_heads": st.n_heads,
                   "d_ff": st.d_ff if st.d_ff is not None else 2 * st.d_channels,
                   "init_mode": st.init_mode, "seed": st.attn_seed,
                   "qk_scale": f"{st.qk_scale:g}"},
        "loss": {"sigma": f"{st.loss_sigma:g}", "lambda_off": f"{st.lambda_off:g}",
                 "lambda_size": f"{st.lambda_size:g}", "tau": f"{st.tau:g}"},
        "eval": {"iou_thresholds": ",".join(f"{t:g}" for t in st.iou_thresholds),
                 "methods": ",".join(config.methods),
                 "seeds": ",".join(str(x) for x in config.seeds),
                 "conf_threshold": f"{st.conf_threshold:g}"},
        "output": {"directory": config.out_dir,
                   "formats": ",".join(config.formats)},
    }
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
