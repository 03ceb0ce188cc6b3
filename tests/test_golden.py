"""Golden outputs: the sha256 of every artifact of small CLI runs.

Each command runs on small worlds, on the default config or on WIDE, which takes
the non-default scenario, direction and comms paths. Both keep the default fusion
settings (identity init, whose bytes tests/test_kernels.py shows do not depend on
the BLAS kernels).
Every file it writes is hashed, effective.cfg without its `directory` line, and so
is `dircp train`'s summary line. A change that means to change an output
re-records tests/golden.json in the same change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

from dircp.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
CONFIG = """
[scenario]
seed = 5
area_side = 32
n_collaborators = 3
n_vehicles = 8

[eval]
seeds = 1,2
"""
WIDE = """
[scenario]
seed = 5
area_side = 32
n_collaborators = 6
n_vehicles = 8
density_profile = 0.5,0.2,0.1,0.2
dropout_prob = 0.1

[direction]
boundaries = 0:45,45:180,180:300,300:360

[comms]
q0_mode = confidence_gap
q_max = 0.05

[eval]
seeds = 3,4
"""
# run name -> (config text, command and flags)
RUNS = {
    "run": (CONFIG, ["run"]),
    "sweep_jobs1": (CONFIG, ["sweep", "--budgets", "0.05,0.2", "--seeds", "2", "--jobs", "1"]),
    "sweep_jobs2": (CONFIG, ["sweep", "--budgets", "0.05,0.2", "--seeds", "2", "--jobs", "2"]),
    "train": (CONFIG, ["train", "--steps", "3", "--batch", "2"]),
    "export-scene": (CONFIG, ["export-scene"]),
    "wide_run": (WIDE, ["run"]),
    "wide_sweep": (WIDE, ["sweep", "--budgets", "0.02,0.1", "--seeds", "2", "--jobs", "1"]),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(tmp: Path, read_stdout) -> dict[str, str]:
    """{run/file: sha256} over every run's output directory, plus each
    non-empty stdout; read_stdout() returns what was printed since its last call."""
    digests = {}
    for name, (text, (command, *flags)) in RUNS.items():
        config = tmp / f"{name}.cfg"
        config.write_text(text, encoding="utf-8")
        out = tmp / name
        assert main([command, str(config), *flags, "--output", str(out)]) == 0, name
        printed = read_stdout()
        if printed:
            digests[f"{name}/stdout"] = sha256(printed.encode())
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "effective.cfg":
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.startswith(b"directory "))
            digests[path.relative_to(tmp).as_posix()] = sha256(data)
    return digests


def test_every_artifact_keeps_its_bytes(tmp_path, capsys):
    got = artifact_digests(tmp_path, lambda: capsys.readouterr().out)
    sweeps = [{k.split("/", 1)[1]: v for k, v in got.items() if k.startswith(run + "/")}
              for run in ("sweep_jobs1", "sweep_jobs2")]
    assert sweeps[0] == sweeps[1]  # --jobs changes no byte
    assert "train/stdout" in got and "run/attention_trace.csv" in got
    assert got == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import io
    import tempfile
    from contextlib import redirect_stdout

    buffer = io.StringIO()

    def drain() -> str:
        text = buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
        return text

    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(buffer):
        digests = artifact_digests(Path(tmp), drain)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {GOLDEN}", file=sys.stderr)
