"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from spans import Patches, Tracer, per_name, self_times  # noqa: E402
from workloads import WORKLOADS, WireCheck, derive_seed  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 30, 0, 0),
        ("b", 20, 50, 0, 0),      # overlaps a: the union [10, 50] counts once
        ("c", 90, 120, 0, 0),     # clipped to the parent's end
        ("a.child", 12, 18, 1, 0),
        ("other", 200, 260, -1, 1),
    ]
    assert self_times(spans) == [50, 14, 30, 30, 6, 60]
    self_ns, calls = per_name(spans + [("a", 300, 305, -1, 1)])
    assert self_ns["a"] == 19 and calls["a"] == 2


def test_tracer_nests_spans_and_times_only_inner_work():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, lambda a, kw, out: {"seen": out})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.op = 7
    assert outer(1) == 4
    (n_in, s_in, e_in, p_in, op_in), (n_out, s_out, e_out, p_out, op_out) = \
        sorted(tracer.spans, key=lambda s: s[0])
    assert (n_in, p_in, op_in) == ("inner", 0, 7) and (n_out, p_out) == ("outer", -1)
    assert s_out <= s_in <= e_in <= e_out
    assert tracer.counters["seen"] == 2


@pytest.mark.parametrize("n, expected", [(10, None), (11, 9), (20, 50), (40, 75),
                                         (100, 90), (1000, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_tail_percentile_is_the_highest_such_percentile():
    for n in range(11, 400):
        p = run.tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= 10
        assert p == 99 or n - math.ceil((p + 1) * n / 100) < 10
        values = list(range(n))
        assert sum(v > run.percentile(values, p) for v in values) >= 10


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tail_percentile_is_fixed_from_the_baseline_op_count(name):
    baseline = json.loads((BENCH / "baseline.json").read_text())
    fixed = baseline["workloads"][name]["op_tail"]
    p = run.tail_percentile(fixed["fixed_from_ops_per_run"])
    assert WORKLOADS[name].tail_p == fixed["percentile"] == (p if p and p > 50 else 90)


def test_seeds_repeat_for_a_seed_and_change_with_it():
    same = [derive_seed("run_dense", 3, "scenario", i) for i in range(5)]
    assert same == [derive_seed("run_dense", 3, "scenario", i) for i in range(5)]
    assert same != [derive_seed("run_dense", 4, "scenario", i) for i in range(5)]
    assert len(set(same)) == 5


def _one_op(name, seed, index=0):
    run.import_layers()
    wl = WORKLOADS[name]()
    check = WireCheck()
    patch = Patches()
    assert patch.install("dircp.pipeline.run_pipeline", check.wrap)
    try:
        prepared = wl.prepare(wl.setup(seed), index)
        result = wl.execute(prepared)
        digest, errors = wl.verify(prepared, result)
    finally:
        patch.remove()
    assert check.calls > 0 and not check.errors and not errors
    return digest


@pytest.fixture()
def at_root(monkeypatch):
    monkeypatch.chdir(BENCH.parent)


def test_same_seed_same_digest_other_seed_other_digest(at_root):
    first = _one_op("run_dense", 5)
    assert _one_op("run_dense", 5) == first
    assert _one_op("run_dense", 6) != first


def test_traced_operation_gives_untraced_digest_and_unpatches(at_root):
    import dircp.cli
    import dircp.comms
    import dircp.pipeline

    originals = (dircp.pipeline.serialize, dircp.comms.serialize, dircp.cli.main)
    plain = _one_op("sweep_budget", 2)
    tracer, patches = Tracer(), Patches()
    for name, targets in run.LAYERS.items():
        for dotted in targets:
            assert patches.install(dotted, lambda fn, n=name: tracer.wrap(n, fn))
    assert dircp.pipeline.serialize is not originals[0]
    tracer.op = 0
    try:
        traced = _one_op("sweep_budget", 2)
    finally:
        patches.remove()
    assert traced == plain
    assert (dircp.pipeline.serialize, dircp.comms.serialize, dircp.cli.main) == originals
    _, calls = per_name(tracer.spans)
    assert calls["cli"] == 1 and calls["comms.serialize"] == calls["comms.deserialize"] > 0


def test_run_dense_op_leaves_every_run_pipeline_binding_unpatched(at_root):
    _one_op("run_dense", 3)
    import dircp.cli
    import dircp.evaluate
    import dircp.pipeline

    original = dircp.pipeline.run_pipeline
    assert original.__module__ == "dircp.pipeline" and not hasattr(original, "__wrapped__")
    assert dircp.cli.run_pipeline is original and dircp.evaluate.run_pipeline is original


def test_traced_run_dense_sees_every_run_pipeline_call(at_root):
    run.import_layers()
    wl, check, tracer = WORKLOADS["run_dense"](), WireCheck(), Tracer()
    prepared = wl.prepare(wl.setup(4), 0)
    patches, installed = run.instrument(check, tracer)
    tracer.op = 0
    try:
        assert wl.execute(prepared) == 0
    finally:
        patches.remove()
    _, calls = per_name(tracer.spans)
    # one run_pipeline per method, plus the one the CLI makes for its trace
    assert calls["pipeline.run_pipeline"] == calls["bench.check"] == check.calls == 4
    assert "pipeline.run_pipeline" in installed and not check.errors


def test_remove_unpatches_a_module_imported_while_patched():
    import dircp.comms

    original = dircp.comms.serialize
    patches = Patches()
    assert patches.install("dircp.comms.serialize", lambda fn: lambda *a: fn(*a))
    late = types.ModuleType("dircp._late_import")
    late.serialize = dircp.comms.serialize  # bound to the wrapper, never saved
    sys.modules[late.__name__] = late
    try:
        patches.remove()
        assert late.serialize is original and dircp.comms.serialize is original
    finally:
        del sys.modules[late.__name__]


def test_missing_function_is_reported_not_fatal():
    patches = Patches()
    assert not patches.install("dircp.comms.no_such_function", lambda fn: fn)
    assert not patches.install("dircp.no_such_module.f", lambda fn: fn)
