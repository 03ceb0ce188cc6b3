"""Which artifacts keep their bytes when OpenBLAS runs another CPU's kernels.

OpenBLAS built with DYNAMIC_ARCH picks its kernels for the CPU at start-up, and
OPENBLAS_CORETYPE makes it take another CPU's. Each run here sets it in the
child process's environment only. The contract (README, "Bytes on other
CPUs"): under the default config every output keeps its bytes; with random
attention init and the MLP scorer, the reports, the trained checkpoint and the
training summary keep theirs, while attention_trace.csv and training_log.csv
may differ.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CORETYPES = (None, "Prescott", "Sandybridge")  # None: the kernels OpenBLAS picks


def dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


pytestmark = [pytest.mark.slow, pytest.mark.skipif(
    not dynamic_openblas(),
    reason="numpy's BLAS is not an OpenBLAS that picks its kernels at run time")]


def child_env(coretype):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=str(SRC))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    return env


def child(args, coretype, **kw):
    return subprocess.run([sys.executable, *args], env=child_env(coretype), timeout=300,
                          capture_output=True, text=True, **kw)


def outputs(tmp_path, config_text, coretype) -> dict[str, bytes]:
    """A dircp run and a 5-step, 2-scene dircp train: every file they write but
    effective.cfg (which names the output directory), and train's summary line."""
    config = tmp_path / "kernels.cfg"
    config.write_text(config_text, encoding="utf-8")
    out = tmp_path / (coretype or "default")
    got = {}
    for command, *extra in (("run",), ("train", "--steps", "5", "--batch", "2")):
        proc = child(["-m", "dircp.cli", command, str(config), *extra,
                      "--output", str(out / command)], coretype)
        assert proc.returncode == 0, proc.stderr
        got[f"{command}.stdout"] = proc.stdout.encode()
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "effective.cfg":
            got[path.relative_to(out).as_posix()] = path.read_bytes()
    return got


def test_coretype_reaches_the_kernels():
    """Else every comparison below would be between the same kernels."""
    probe = ("import hashlib, numpy as np; rng = np.random.default_rng(0); "
             "x, w = rng.normal(size=(4097, 8)), rng.normal(size=(2, 8)); "
             "print(hashlib.sha256((x @ w.T).tobytes()).hexdigest())")
    digests = {coretype: child(["-c", probe], coretype).stdout for coretype in CORETYPES}
    assert all(digests.values()) and len(set(digests.values())) > 1, digests


@pytest.mark.parametrize("config_text,kept", [
    ("", None),  # the default config: every artifact
    ("[fusion]\ninit_mode = random\n[comms]\nscorer = mlp\n",
     {"run/report.json", "run/report.csv", "train/scorer.dcpw", "train.stdout"}),
], ids=["default", "random_init_mlp"])
def test_artifacts_keep_their_bytes_across_coretypes(tmp_path, config_text, kept):
    runs = {coretype: outputs(tmp_path, config_text, coretype) for coretype in CORETYPES}
    names = set(runs[None])
    assert kept is None or kept <= names
    for coretype in CORETYPES[1:]:
        assert set(runs[coretype]) == names
        for name in sorted(kept or names):
            assert runs[coretype][name] == runs[None][name], (coretype, name)
    assert "run/attention_trace.csv" in names and "train/training_log.csv" in names


LONE_ROW = "TestEgoOnly or one_cell_shared_by_many_agents or lone_cell_beside"
# Prescott's gemm rounds a row apart by the rows around it (an odd row count's
# last row, or two output columns), so there only the identity init, whose
# products are exact, matches the full-grid oracle; random params do not.
LONE_ROW_HOLDS = {None: LONE_ROW, "Sandybridge": LONE_ROW,
                  "Prescott": f"({LONE_ROW}) and (params0 or round_apart)"}


@pytest.mark.parametrize("coretype", CORETYPES, ids=lambda c: c or "default")
def test_lone_row_repeat_under_each_coretype(coretype):
    """fusion._attend runs a lone row twice so that it does not take matmul's
    one-row (gemv) path: the fusion tests of lone rows, run under each core type."""
    proc = child(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                  str(Path(__file__).with_name("test_fusion.py")),
                  "-k", LONE_ROW_HOLDS[coretype]], coretype, cwd=SRC.parent)
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert " passed" in proc.stdout and "deselected" in proc.stdout
