"""Sectioned key-value run configuration: parsing, validation, and echoing."""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

from .comms import SCORERS, TIE_BREAKS, WIRE_U16_MAX
from .direction import default_sigma1
from .grid import GridSpec
from .pipeline import INIT_MODES, METHODS, Q0_MODES, RunSettings
from .scenario import SEED_RANGE, ScenarioConfig

ENV_SEED = "DIRCP_SEED"
# Admission limit on a run's largest array, about (n_collaborators + 1) x h x w
# x max(d, hidden, d_ff, 3) float64 values: 2.6 MB at the defaults.
MEMORY_ENVELOPE = 256 * 2**20  # bytes


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


# section -> key -> (default string, parser, RunConfig field it sets, description).
# A default of "" means "auto": the value is derived from other keys in load_config.
SCHEMA: dict[str, dict[str, tuple[str, object, str, str]]] = {
    "scenario": {
        "seed": ("0", int, "scenario.seed", "base 64-bit scenario seed"),
        "area_side": ("64", float, "scenario.area_side", "square scene side in meters"),
        "n_collaborators": ("4", int, "scenario.n_collaborators",
                            "collaborating vehicles besides the ego"),
        "n_vehicles": ("12", int, "scenario.n_vehicles", "ground-truth vehicles to place"),
        "density_profile": ("1,1,1,1", _parse_floats, "scenario.density_profile",
                            "relative per-sector traffic density weights"),
        "sensor_range": ("28", float, "scenario.sensor_range",
                         "per-agent sensing radius in meters"),
        "occlusion": ("true", _parse_bool, "scenario.occlusion_enabled",
                      "enable line-of-sight occlusion"),
        "dropout_prob": ("0.0", float, "scenario.dropout_prob",
                         "per-cell evidence dropout probability"),
    },
    "grid": {
        "h": ("", int, "grid.h", "grid rows (default: area_side / cell_size)"),
        "w": ("", int, "grid.w", "grid cols (default: area_side / cell_size)"),
        "d": ("8", int, "settings.d_channels", "feature channels"),
        "cell_size": ("1.0", float, "grid.cell_size", "cell edge length in meters"),
    },
    "direction": {
        "n_dir": ("4", int, "settings.n_dir", "number of angular sectors"),
        "boundaries": ("", _parse_boundaries, "settings.boundaries",
                       "sector intervals 'lo:hi,...' in degrees (default uniform)"),
        "interest_weights": ("0.9,0.9,0.1,0.1", _parse_floats, "settings.interest",
                             "ego per-sector interest in [0,1]"),
        "sigma1": ("", float, "settings.sigma1",
                   "relative mask threshold (default 1/(2 n_dir))"),
        "sigma2": ("5.0", float, "settings.sigma2", "absolute mask threshold in vehicles"),
    },
    "comms": {
        "q_max": ("0.2", float, "settings.q_max", "communication budget in [0,1]"),
        "q0_mode": ("ones", str, "settings.q0_mode",
                    "initial query map: " + " | ".join(Q0_MODES)),
        "tie_break": ("per_collaborator", str, "settings.tie_break",
                      "top-k scope: " + " | ".join(TIE_BREAKS)),
        "scorer": ("reference", str, "scorer", "query scorer: " + " | ".join(SCORERS)),
        "hidden": ("8", int, "scorer_hidden", "MLP scorer hidden width"),
    },
    "fusion": {
        "n_heads": ("2", int, "settings.n_heads", "attention heads"),
        "d_ff": ("", int, "settings.d_ff", "FFN hidden width (default 2*d)"),
        "init_mode": ("identity", str, "settings.init_mode",
                      "attention init: " + " | ".join(INIT_MODES)),
        "seed": ("0", int, "settings.attn_seed", "seed for random attention init"),
        "qk_scale": ("1.0", float, "settings.qk_scale",
                     "query/key projection scale (identity init)"),
    },
    "loss": {
        "sigma": ("1.0", float, "settings.loss_sigma", "direction weight-control factor"),
        "lambda_off": ("1.0", float, "settings.lambda_off", "offset loss weight"),
        "lambda_size": ("1.0", float, "settings.lambda_size", "size/angle loss weight"),
        "tau": ("0.05", float, "settings.tau", "soft clipping temperature (training)"),
    },
    "eval": {
        "iou_thresholds": ("0.5,0.7", _parse_floats, "settings.iou_thresholds",
                           "AP IoU thresholds"),
        "methods": ("directed,uniform,single", _parse_strs, "methods", "methods to run"),
        "seeds": ("", _parse_ints, "seeds", "explicit eval seeds (default: scenario seed)"),
        "conf_threshold": ("0.55", float, "settings.conf_threshold",
                           "decoder confidence threshold"),
    },
    "output": {
        "directory": ("out", str, "out_dir", "output directory"),
        "formats": ("csv,json,svg", _parse_strs, "formats", "report formats to emit"),
    },
}
# The parts of RunConfig that SCHEMA fields address as "<part>.<attribute>".
_PARTS = {"scenario": ScenarioConfig, "grid": GridSpec, "settings": RunSettings}


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    grid: GridSpec
    settings: RunSettings
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
        for key, (default, _, _, desc) in keys.items():
            shown = default if default != "" else "auto"
            lines.append(f"    {key} ({shown}): {desc}")
    lines.append("a run's largest array, (n_collaborators + 1) x h x w x max(d, hidden, d_ff, "
                 f"3) x 8 bytes, may not exceed {MEMORY_ENVELOPE >> 20} MiB (exit 2)")
    return "\n".join(lines)


def _read_raw(path: str | Path) -> dict[str, dict[str, str]]:
    # No interpolation: a "%" is a literal, as effective_config_text writes it.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
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

    merged: dict[str, dict[str, str]] = {
        s: {k: spec[0] for k, spec in keys.items()} for s, keys in SCHEMA.items()
    }
    for section, keys in raw.items():
        if section not in SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        for key, text in keys.items():
            if key in SCHEMA[section]:
                merged[section][key] = text
            else:
                errors.append(f"unknown key {section}.{key}")
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

    values: dict[str, dict[str, object]] = {}
    for section, keys in merged.items():
        values[section] = {}
        for key, text in keys.items():
            default, parse, _, _ = SCHEMA[section][key]
            if text == "" and default == "":
                values[section][key] = None  # auto: resolved below
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

    # Resolve the auto defaults, so that the echo loads back to the same run.
    cells = sc["area_side"] / gr["cell_size"]
    if not math.isfinite(cells):
        raise ConfigError("grid.cell_size is too small for scenario.area_side")
    for axis in ("h", "w"):
        if gr[axis] is None:
            gr[axis] = int(round(cells))
    if di["sigma1"] is None:
        di["sigma1"] = default_sigma1(di["n_dir"])
    if fu["d_ff"] is None:
        fu["d_ff"] = 2 * gr["d"]
    check(all(seed in SEED_RANGE for seed in ev["seeds"] or ()),
          "eval.seeds: each seed must fit in 64 bits, [-2**63, 2**64)")
    if not ev["seeds"]:
        ev["seeds"] = (sc["seed"],)

    for key in ("area_side", "sensor_range"):
        check(math.isfinite(sc[key] * sc[key]), f"scenario.{key} must have a finite square")
    # What a DCPM wire payload can carry: u16 rows, columns, D and sender ids.
    for key, value, limit in (("grid.h", gr["h"], WIRE_U16_MAX + 1),
                              ("grid.w", gr["w"], WIRE_U16_MAX + 1),
                              ("grid.d", gr["d"], WIRE_U16_MAX),
                              ("scenario.n_collaborators", sc["n_collaborators"],
                               WIRE_U16_MAX)):
        check(value <= limit, f"{key} must be <= {limit}, the wire format's u16 limit")
    if errors:  # the checks below multiply these sizes
        raise ConfigError("\n".join(errors))
    size = ((sc["n_collaborators"] + 1) * gr["h"] * gr["w"]
            * max(gr["d"], co["hidden"], fu["d_ff"], 3) * 8)
    if size > MEMORY_ENVELOPE:  # named: the factor furthest above its default run's
        scale = {"scenario.n_collaborators": (sc["n_collaborators"] + 1, 5),
                 "grid.h": (gr["h"], 64), "grid.w": (gr["w"], 64), "grid.d": (gr["d"], 8),
                 "comms.hidden": (co["hidden"], 8), "fusion.d_ff": (fu["d_ff"], 16)}
        errors.append(f"{max(scale, key=lambda k: Fraction(*scale[k]))}: the run's largest "
                      f"array would take {size >> 20} MiB, above the "
                      f"{MEMORY_ENVELOPE >> 20} MiB envelope")
    cell = gr["cell_size"]
    check(gr["h"] * cell == sc["area_side"] and gr["w"] * cell == sc["area_side"],
          f"grid.h/w x cell_size must cover area_side exactly "
          f"({gr['h']}x{gr['w']} cells at {cell} vs {sc['area_side']} m)")
    check(gr["d"] >= 2, "grid.d: need at least 2 channels")
    check(len(di["interest_weights"]) == di["n_dir"],
          "direction.interest_weights length must equal n_dir")
    check(len(sc["density_profile"]) == di["n_dir"],
          "scenario.density_profile length must equal direction.n_dir")
    for section, key, allowed in (("comms", "q0_mode", Q0_MODES),
                                  ("comms", "tie_break", TIE_BREAKS),
                                  ("comms", "scorer", SCORERS),
                                  ("fusion", "init_mode", INIT_MODES)):
        check(values[section][key] in allowed,
              f"{section}.{key}: unknown value {values[section][key]!r}, "
              f"expected one of {allowed}")
    check(0.0 <= co["q_max"] <= 1.0, "comms.q_max must lie in [0, 1]")
    check(0.0 < ev["conf_threshold"] < 1.0,
          "eval.conf_threshold must lie in (0, 1)")
    check(bool(ev["iou_thresholds"]) and all(0.0 < t < 1.0 for t in ev["iou_thresholds"]),
          "eval.iou_thresholds must be non-empty and lie in (0, 1)")
    check(bool(ev["methods"]) and all(m in METHODS for m in ev["methods"]),
          f"eval.methods must be drawn from {METHODS}")
    check(ou["directory"] != "", "output.directory must not be empty")
    check(gr["d"] % fu["n_heads"] == 0, "grid.d must be divisible by fusion.n_heads")
    check(0.0 <= di["sigma1"] <= 1.0, "direction.sigma1 must lie in [0, 1]")
    check(di["sigma2"] >= 0.0, "direction.sigma2 must be >= 0")
    check(math.isfinite(fu["qk_scale"]), "fusion.qk_scale must be finite")
    check(fu["seed"] >= 0, "fusion.seed must be >= 0")
    check(co["hidden"] >= 1, "comms.hidden must be >= 1")
    check(lo["sigma"] >= 0.0, "loss.sigma must be >= 0")
    check(lo["tau"] > 0.0, "loss.tau must be positive")
    if errors:
        raise ConfigError("\n".join(errors))

    fields: dict[str, dict[str, object]] = {part: {} for part in (*_PARTS, "")}
    for section, keys in SCHEMA.items():
        for key, (_, _, field, _) in keys.items():
            part, _, name = field.rpartition(".")
            fields[part][name] = values[section][key]
    parts = {}
    for part, cls in _PARTS.items():
        try:
            parts[part] = cls(**fields[part])
        except ValueError as exc:
            raise ConfigError(f"{part}: {exc}") from None
    return RunConfig(**parts, **fields[""])


def _format(value) -> str:
    """One config value as text that parses back to the same value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        short = f"{value:g}"
        return short if float(short) == value else repr(value)
    if isinstance(value, tuple):
        return ",".join(":".join(map(_format, v)) if isinstance(v, tuple) else _format(v)
                        for v in value)
    return str(value)


def effective_config_text(config: RunConfig) -> str:
    """Canonical echo of the merged configuration (audit trail for reports).

    Every key is written with its resolved value, so the text loads back to
    an equal RunConfig.
    """
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (_, _, field, _) in keys.items():
            lines.append(f"{key} = {_format(attrgetter(field)(config))}")
        lines.append("")
    return "\n".join(lines)
