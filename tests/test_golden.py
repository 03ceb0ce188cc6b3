"""Golden outputs: the sha256 of every artifact of small default-config CLI runs.

Each command runs on small worlds with the default fusion settings (identity
init, whose bytes tests/test_kernels.py shows do not depend on the BLAS kernels).
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
RUNS = {
    "run": ["run"],
    "sweep_jobs1": ["sweep", "--budgets", "0.05,0.2", "--seeds", "2", "--jobs", "1"],
    "sweep_jobs2": ["sweep", "--budgets", "0.05,0.2", "--seeds", "2", "--jobs", "2"],
    "train": ["train", "--steps", "3", "--batch", "2"],
    "export-scene": ["export-scene"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(tmp: Path, read_stdout) -> dict[str, str]:
    """{run/file: sha256} over every run's output directory, plus each
    non-empty stdout; read_stdout() returns what was printed since its last call."""
    config = tmp / "golden.cfg"
    config.write_text(CONFIG, encoding="utf-8")
    digests = {}
    for name, (command, *flags) in RUNS.items():
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
