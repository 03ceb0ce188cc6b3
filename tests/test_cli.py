import os
import resource
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

import dircp
from dircp.cli import main
from dircp.comms import ScorerParams
from dircp.config import (
    MEMORY_ENVELOPE,
    SCHEMA,
    ConfigError,
    effective_config_text,
    load_config,
    schema_help,
)

BASE_CONFIG = """
[scenario]
seed = 3
area_side = 24
n_collaborators = 2
n_vehicles = 3
sensor_range = 12
dropout_prob = 0.1

[direction]
sigma2 = 2

[eval]
seeds = 3,4

[output]
directory = {out}
"""


def write_config(tmp_path, name="run.cfg", extra="", out=None):
    out = out or (tmp_path / "out")
    path = tmp_path / name
    path.write_text(BASE_CONFIG.format(out=out) + extra, encoding="utf-8")
    return path, out


EVERY_KEY_CHANGED = """
[scenario]
seed = 9
area_side = 30
n_collaborators = 3
n_vehicles = 5
density_profile = 0.333333333,1,2
sensor_range = 12.5
occlusion = false
dropout_prob = 0.05
[grid]
h = 20
w = 20
d = 6
cell_size = 1.5
[direction]
n_dir = 3
boundaries = 0:100,100:200.5,200.5:360
interest_weights = 0.333333333,0.7,0.1
sigma1 = 0.1
sigma2 = 2.5
[comms]
q_max = 0.3
q0_mode = confidence_gap
tie_break = global
scorer = mlp
hidden = 5
[fusion]
n_heads = 3
d_ff = 7
init_mode = random
seed = 4
qk_scale = 0.5
[loss]
sigma = 0.5
lambda_off = 2
lambda_size = 0.25
tau = 0.1
[eval]
iou_thresholds = 0.3,0.6
methods = single,directed
seeds = 9,11
conf_threshold = 0.6
[output]
directory = elsewhere_100%
formats = json
"""

THREE_SECTORS = """
[scenario]
seed = 3
density_profile = 1,1,1
[direction]
n_dir = 3
interest_weights = 0.333333333,0.9,0.1
"""

class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.scenario.seed == 0
        assert cfg.settings.q_max == 0.2
        assert cfg.settings.loss_sigma == 1.0
        assert cfg.grid.h == 64 and cfg.grid.w == 64
        assert cfg.methods == ("directed", "uniform", "single")

    def test_parse_errors_aggregate(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nseed = x\n[comms]\nq_max = abc\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        text = str(err.value)
        assert "scenario.seed" in text
        assert "comms.q_max" in text

    def test_semantic_errors_aggregate(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[comms]\nq_max = 3\n[eval]\nconf_threshold = 2\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        text = str(err.value)
        assert "q_max" in text
        assert "conf_threshold" in text

    def test_empty_output_directory_reported(self):
        with pytest.raises(ConfigError, match="output.directory"):
            load_config(None, overrides={"output.directory": ""})

    def test_unknown_key_reported(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nbogus = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key scenario.bogus"):
            load_config(path)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path, _ = write_config(tmp_path)
        monkeypatch.setenv("DIRCP_SEED", "77")
        cfg = load_config(path)
        assert cfg.scenario.seed == 77

    def test_density_profile_must_match_n_dir(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\ndensity_profile = 1,1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="density_profile"):
            load_config(path)

    @pytest.mark.parametrize("text", [EVERY_KEY_CHANGED, THREE_SECTORS],
                             ids=["every_key_changed", "three_sectors"])
    def test_effective_config_loads_back_to_the_same_run(self, tmp_path, monkeypatch,
                                                         text):
        monkeypatch.delenv("DIRCP_SEED", raising=False)
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        cfg = load_config(path)
        echo = effective_config_text(cfg)
        path.write_text(echo, encoding="utf-8")
        again = load_config(path)
        assert effective_config_text(again) == echo
        assert again.scenario == cfg.scenario
        assert again.grid == cfg.grid
        assert again.settings == cfg.settings
        assert again.settings.effective_sigma1() == cfg.settings.effective_sigma1()
        assert again == cfg

    def test_every_key_changed_config_changes_every_key(self, monkeypatch, tmp_path):
        monkeypatch.delenv("DIRCP_SEED", raising=False)
        path = tmp_path / "run.cfg"
        path.write_text(EVERY_KEY_CHANGED, encoding="utf-8")
        changed = effective_config_text(load_config(path)).split("\n")
        default = effective_config_text(load_config(None)).split("\n")
        n_keys = sum(len(keys) for keys in SCHEMA.values())
        assert sum(a != b for a, b in zip(changed, default)) == n_keys


BAD_CONFIG_VALUES = [
    ("fusion.n_heads", "0", ""),
    ("fusion.n_heads", "-2", ""),
    ("fusion.d_ff", "-3", ""),
    ("grid.cell_size", "0", ""),
    ("grid.cell_size", "-1", ""),
    ("scenario.area_side", "inf", ""),
    ("scenario.area_side", "nan", ""),
    ("scenario.sensor_range", "nan", ""),
    ("direction.n_dir", "0", "interest_weights =\n[scenario]\ndensity_profile =\n"),
    ("grid.cell_size", "1e-10", "[scenario]\narea_side = 1e308\n"),
    ("direction.sigma1", "2", ""),
    ("direction.sigma2", "nan", ""),
    ("fusion.qk_scale", "inf", ""),
    ("loss.lambda_off", "nan", ""),
    ("eval.iou_thresholds", "", ""),
    ("scenario.n_vehicles", "", ""),
    ("comms.hidden", "", ""),
    ("grid.h", "9" * 400, ""),        # past any float: no OverflowError traceback
    ("comms.hidden", "9" * 400, ""),
    ("comms.hidden", "0", "scorer = mlp\n"),
    ("comms.hidden", "-1", "scorer = mlp\n"),
    ("fusion.seed", "-1", "init_mode = random\n"),
    ("eval.seeds", "18446744073709551616", ""),
    ("eval.seeds", "-9223372036854775809", ""),
]


@pytest.mark.parametrize("key,value,extra", BAD_CONFIG_VALUES,
                         ids=[f"{k}={v if len(v) < 20 else v[:3] + '...'}"
                              for k, v, _ in BAD_CONFIG_VALUES])
def test_bad_config_value_exit_2_names_key(tmp_path, capsys, key, value, extra):
    section, name = key.split(".")
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{name} = {value}\n{extra}"
                    f"[output]\ndirectory = {tmp_path}\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert key in capsys.readouterr().err


ADDRESS_SPACE = 2 * 1024**3  # bytes: the child fails a large allocation, not the host


def run_cli_capped(tmp_path, config_text, entry=("-m", "dircp.cli")):
    """``dircp run`` on a config in a child process held to ADDRESS_SPACE."""
    path = tmp_path / "capped.cfg"
    path.write_text(f"{config_text}[output]\ndirectory = {tmp_path / 'out'}\n",
                    encoding="utf-8")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(dircp.__file__).resolve().parent.parent))
    return subprocess.run(
        [sys.executable, *entry, "run", str(path)], env=env, timeout=120,
        capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (ADDRESS_SPACE, ADDRESS_SPACE)))


@pytest.mark.parametrize("key", ["area_side", "sensor_range"])
def test_length_with_an_infinite_square_exit_2(tmp_path, key):
    proc = run_cli_capped(tmp_path, f"[scenario]\n{key} = 1e308\n")
    assert proc.returncode == 2
    assert f"scenario.{key}" in proc.stderr and "Traceback" not in proc.stderr


# The dircp CLI with generate replaced by an 8 TiB allocation, far above the cap.
HUGE_ALLOCATION = ("-c", "import sys, numpy, dircp.cli as cli; "
                   "cli.generate = lambda *a, **k: numpy.zeros(2**40); sys.exit(cli.main())")


def test_out_of_memory_exit_3_in_one_line(tmp_path):
    proc = run_cli_capped(tmp_path, "", entry=HUGE_ALLOCATION)
    assert proc.returncode == 3
    assert proc.stderr.startswith("runtime error: out of memory")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


# key the error names -> a config past the envelope, each factor within the u16 limits
PAST_THE_ENVELOPE = {
    "grid.d": "[grid]\nd = 65535\n[fusion]\nn_heads = 1\n",
    "comms.hidden": "[comms]\nscorer = mlp\nhidden = 100000000\n",
    "scenario.n_collaborators": "[scenario]\nn_collaborators = 5000\n",
    "grid.h": "[scenario]\narea_side = 65536\n[grid]\nh = 65536\nw = 65536\n",
}


@pytest.mark.parametrize("key", sorted(PAST_THE_ENVELOPE))
def test_past_the_envelope_exit_2_in_one_line(tmp_path, key):
    proc = run_cli_capped(tmp_path, PAST_THE_ENVELOPE[key])
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    header, line = proc.stderr.splitlines()
    assert header == "config error:"
    assert line.startswith(f"{key}: ") and line.endswith(
        f"above the {MEMORY_ENVELOPE >> 20} MiB envelope")


def test_envelope_admits_the_default_run_and_is_in_the_help():
    load_config(overrides={"comms.scorer": "mlp"})
    assert f"may not exceed {MEMORY_ENVELOPE >> 20} MiB (exit 2)" in schema_help()


# key -> (RunConfig field, the override that sets it, the u16 wire limit)
WIRE_LIMITS = {
    "grid.h": ("grid.h", "scenario.area_side", 65536),
    "grid.w": ("grid.w", "scenario.area_side", 65536),
    "grid.d": ("settings.d_channels", "grid.d", 65535),
    "scenario.n_collaborators": ("scenario.n_collaborators", "scenario.n_collaborators",
                                 65535),
}


@pytest.mark.parametrize("key", sorted(WIRE_LIMITS))
def test_wire_limits_admitted_at_the_limit_and_exit_2_past_it(tmp_path, capsys, key):
    field, override, limit = WIRE_LIMITS[key]
    heads = {"fusion.n_heads": "1"}  # divides any D
    at = {override: str(limit), **heads}
    if override == "scenario.area_side":
        # A 65536 x 65536 grid is within the u16 limit but past the envelope.
        with pytest.raises(ConfigError, match="envelope") as err:
            load_config(overrides=at)
        assert "u16" not in str(err.value)
    else:
        config = load_config(overrides={**at, "scenario.area_side": "1"})  # one cell
        assert attrgetter(field)(config) == limit
    past = {override: str(limit + 1), **heads}
    with pytest.raises(ConfigError, match=f"{key} must be <= {limit}"):
        load_config(overrides=past)
    path = tmp_path / "past.cfg"
    path.write_text("".join(f"[{k.split('.')[0]}]\n{k.split('.')[1]} = {v}\n"
                            for k, v in past.items())
                    + f"[output]\ndirectory = {tmp_path}\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "u16" in err


BAD_FLAGS = [
    (["sweep", "--train-steps", "0"], "--train-steps"),
    (["sweep", "--train-lr", "nan"], "--train-lr"),
    (["sweep", "--jobs", "0"], "--jobs"),
    (["sweep", "--jobs", "-4"], "--jobs"),
    (["train", "--lr", "nan"], "--lr"),
    (["train", "--lr", "inf"], "--lr"),
]


def forbid_work(monkeypatch):
    import dircp.cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    for name in ("sweep", "train_sigma_scorers", "train_scorer", "training_scenes",
                 "generate", "prepare_scene", "run_pipeline"):
        monkeypatch.setattr(dircp.cli, name, no_work)


@pytest.mark.parametrize("argv,flag", BAD_FLAGS,
                         ids=[" ".join(argv) for argv, _ in BAD_FLAGS])
def test_bad_flag_exit_2_before_any_work(tmp_path, capsys, monkeypatch, argv, flag):
    forbid_work(monkeypatch)
    path, _ = write_config(tmp_path, extra="\n[comms]\nscorer = mlp\nhidden = 4\n")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert flag in capsys.readouterr().err


NO_COLLABORATORS = "[scenario]\nn_collaborators = 0\n[comms]\nscorer = mlp\n"


@pytest.mark.parametrize("command", ["run", "sweep", "train"])
def test_zero_collaborators_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                   command):
    forbid_work(monkeypatch)
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    path.write_text(f"{NO_COLLABORATORS}[output]\ndirectory = {out}\n", encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert "scenario.n_collaborators" in capsys.readouterr().err
    assert not out.exists()


GLOBAL_TIE_BREAK = "[comms]\ntie_break = global\nscorer = {scorer}\n"


@pytest.mark.parametrize("command,scorer", [("train", "reference"), ("train", "mlp"),
                                            ("sweep", "mlp")])
def test_training_under_global_tie_break_exit_2_before_any_work(tmp_path, capsys,
                                                               monkeypatch, command, scorer):
    """soft_forward ranks each collaborator on its own: a global clip is never trained for."""
    forbid_work(monkeypatch)
    path, out = write_config(tmp_path, extra=GLOBAL_TIE_BREAK.format(scorer=scorer))
    assert main([command, str(path)]) == 2
    assert "comms.tie_break" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,scorer", [("run", "mlp"), ("sweep", "reference")])
def test_evaluation_under_global_tie_break_runs(tmp_path, command, scorer):
    path, out = write_config(tmp_path, extra=GLOBAL_TIE_BREAK.format(scorer=scorer))
    assert main([command, str(path)]) == 0
    assert (out / "effective.cfg").exists()


def seed_config(tmp_path, seed, extra=""):
    out = tmp_path / str(seed)
    path = tmp_path / f"{seed}.cfg"
    path.write_text(BASE_CONFIG.format(out=out).replace("seed = 3\n", f"seed = {seed}\n")
                    + extra, encoding="utf-8")
    return path, out


def test_negative_scenario_seed_seeds_the_mlp_scorer_mod_2_64(tmp_path):
    """generate reduces a scenario seed mod 2**64; so does the MLP scorer's init."""
    reports = []
    for seed in (-1, 2**64 - 1):
        path, out = seed_config(tmp_path, seed, "[comms]\nscorer = mlp\n")
        assert main(["run", str(path)]) == 0
        reports.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()
                              if p.name != "effective.cfg"))
    assert reports[0] == reports[1] and reports[0]
    assert main(["train", str(tmp_path / "-1.cfg"), "--steps", "1", "--batch", "1"]) == 0
    assert (tmp_path / "-1" / "scorer.dcpw").exists()


def test_train_world_seeds_wrap_mod_2_64(tmp_path):
    """train's world seeds wrap mod 2**64, as generate reduces a seed."""
    scorers = []
    for seed in (-1, 2**64 - 1):
        path, out = seed_config(tmp_path, seed)
        assert main(["train", str(path), "--steps", "2", "--batch", "2"]) == 0
        scorers.append((out / "scorer.dcpw").read_bytes())
    assert scorers[0] == scorers[1]


def test_sweep_seeds_past_2_64_wrap(tmp_path):
    path, out = seed_config(tmp_path, 2**64 - 1)
    assert main(["sweep", str(path), "--budgets", "0.1", "--seeds", "2"]) == 0
    rows = (out / "per_seed.csv").read_text().splitlines()
    assert {row.split(",")[1] for row in rows[1:]} == {str(2**64 - 1), "0"}


def test_zero_collaborators_export_scene(tmp_path):
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    path.write_text(f"{NO_COLLABORATORS}[output]\ndirectory = {out}\n", encoding="utf-8")
    assert main(["export-scene", str(path)]) == 0
    assert (out / "scene_0.json").exists()


class TestCmdRun:
    def test_missing_config_exit_2(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.cfg")])
        assert rc == 2
        assert "nope.cfg" in capsys.readouterr().err

    def test_artifact_manifest(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        for name in ("report.json", "report.csv", "attention_trace.csv",
                     "effective.cfg"):
            assert (out / name).exists(), name

    def test_byte_identical_reruns(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["run", str(path)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_one_pipeline_run_per_method_and_seed(self, tmp_path, monkeypatch):
        import dircp.cli
        from dircp.fusion import attention_trace_csv
        from dircp.pipeline import prepare_scene
        from dircp.scenario import generate

        calls = []
        original = dircp.cli.run_pipeline

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(dircp.cli, "run_pipeline", counted)
        path, out = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        assert calls == ["directed", "uniform", "single"] * 2  # seeds 3 and 4
        # The trace is the first run's, from the same pipeline result.
        cfg = load_config(path)
        world = generate(cfg.scenario, grid=cfg.grid)
        pipe = original(prepare_scene(world, cfg.settings), "directed",
                        cfg.settings.q_max, cfg.settings)
        assert (out / "attention_trace.csv").read_text() == attention_trace_csv(pipe.fused)

    def test_output_flag_overrides(self, tmp_path):
        path, _ = write_config(tmp_path)
        alt = tmp_path / "alt"
        assert main(["run", str(path), "--output", str(alt)]) == 0
        assert (alt / "report.json").exists()


class TestCmdSweep:
    def test_budget_sweep_artifacts(self, tmp_path):
        path, out = write_config(tmp_path)
        rc = main(["sweep", str(path), "--budgets", "0.1,0.3", "--seeds", "2"])
        assert rc == 0
        assert (out / "sweep.csv").exists()
        assert (out / "sweep.json").exists()
        assert (out / "per_seed.csv").exists()
        assert (out / "budget_ap_0.5.svg").exists()
        assert (out / "budget_masked_0.7.svg").exists()
        text = (out / "sweep.csv").read_text()
        assert len(text.strip().split("\n")) == 1 + 2 * 3  # 2 budgets x 3 methods

    def test_empty_budgets_exit_2(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["sweep", str(path), "--budgets", ","]) == 2
        assert "--budgets" in capsys.readouterr().err

    def test_deterministic_sweep_outputs(self, tmp_path):
        path, out = write_config(tmp_path)
        args = ["sweep", str(path), "--budgets", "0.1,0.2", "--seeds", "2"]
        assert main(args) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(args) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second


    def test_mlp_sweep_outputs_identical_for_any_jobs(self, tmp_path, monkeypatch):
        """The sigma trainings and the seeds run in worker pools at --jobs 2."""
        import dircp.evaluate

        pools = []
        real_pool = dircp.evaluate.ProcessPoolExecutor
        monkeypatch.setattr(dircp.evaluate, "ProcessPoolExecutor",
                            lambda *a, **kw: pools.append(kw["max_workers"]) or
                            real_pool(*a, **kw))
        outputs = []
        for jobs in ("1", "2"):
            path, out = write_config(tmp_path, extra="[comms]\nscorer = mlp\nhidden = 4\n")
            assert main(["sweep", str(path), "--budgets", "0.1,0.3", "--sigmas", "0,1",
                         "--seeds", "2", "--train-steps", "3", "--jobs", jobs]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert {"sweep.csv", "sweep.json", "per_seed.csv", "budget_ap_0.5.svg",
                "budget_masked_0.7.svg"} <= set(outputs[0])
        assert pools == ([2, 2] if dircp.evaluate.usable_cpus() >= 2 else [])


class TestCmdTrain:
    def test_steps_zero_exit_2(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["train", str(path), "--steps", "0"]) == 2

    def test_lr_zero_keeps_initialization(self, tmp_path):
        path, out = write_config(tmp_path, extra="\n[comms]\nscorer = mlp\nhidden = 4\n")
        rc = main(["train", str(path), "--steps", "2", "--lr", "0", "--batch", "2"])
        assert rc == 0
        from dircp.learn import load_scorer
        loaded = load_scorer(out / "scorer.dcpw")
        init = ScorerParams.random(4, seed=3, scale=0.3)
        assert np.allclose(loaded.to_vector(),
                           init.to_vector().astype(np.float32), atol=0)

    def test_training_improves_loss(self, tmp_path):
        path, out = write_config(tmp_path, extra="\n[comms]\nscorer = mlp\nhidden = 4\n")
        rc = main(["train", str(path), "--steps", "25", "--lr", "0.3",
                   "--batch", "2"])
        assert rc == 0
        log = (out / "training_log.csv").read_text().strip().split("\n")
        header, first, last = log[0], log[1], log[-1]
        assert header.startswith("step,dw_loss")
        assert float(last.split(",")[1]) < float(first.split(",")[1])


class TestCmdExportScene:
    def test_writes_scene_files(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["export-scene", str(path)]) == 0
        assert (out / "scene_3.json").exists()
        assert (out / "scene_4.json").exists()


class TestHelp:
    def test_help_lists_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for key in ("q_max", "sigma2", "interest_weights", "conf_threshold",
                    "dropout_prob", "iou_thresholds"):
            assert key in text


class TestScorerCheckpointFlow:
    def test_train_then_run_with_checkpoint(self, tmp_path):
        path, out = write_config(tmp_path, extra="\n[comms]\nscorer = mlp\nhidden = 4\n")
        assert main(["train", str(path), "--steps", "2", "--lr", "0.5",
                     "--batch", "2"]) == 0
        ckpt = out / "scorer.dcpw"
        alt = tmp_path / "run_out"
        assert main(["run", str(path), "--output", str(alt),
                     "--scorer-checkpoint", str(ckpt)]) == 0
        assert (alt / "report.json").exists()
