from dataclasses import fields, replace

import numpy as np
import pytest

from dircp import pipeline
from dircp.comms import ScorerParams, build_message, serialize
from dircp.fusion import AttentionParams
from dircp.pipeline import RunSettings, prepare_scene, run_pipeline
from dircp.scenario import ScenarioConfig, generate

WORLDS = {
    "default": {},
    "dense": dict(n_vehicles=24, n_collaborators=8, density_profile=(0.4, 0.4, 0.1, 0.1)),
}
BUDGETS = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("world_name", sorted(WORLDS))
def test_directed_reference_run_sends_nothing_into_masked_off_sectors(world_name, seed):
    """The paper's core claim: the budget goes only to the sectors the mask keeps.

    Checked through the scene's cell -> sector map, at every budget, and the
    ledger must account for exactly the bytes that went over the wire.
    """
    settings = RunSettings()
    scene = prepare_scene(generate(ScenarioConfig(seed=seed, **WORLDS[world_name])),
                          settings)
    off_cells = np.asarray(scene.mask.mask)[scene.sector_map] == 0
    assert off_cells.any() and not off_cells.all()
    for budget in BUDGETS:
        result = run_pipeline(scene, "directed", budget, settings)
        bits = result.query.bits
        assert bits.sum() > 0, budget
        assert bits[off_cells].sum() == 0, budget
        sent = [serialize(build_message(result.query, scene.collaborator_map(k),
                                        sender=k + 1))
                for k in range(scene.n_collaborators) if bits[:, :, k].any()]
        assert result.ledger.messages == len(sent)
        assert result.ledger.total_entries == int(bits.sum())
        assert result.ledger.total_bytes == sum(len(payload) for payload in sent)


class TestAttentionParamsMemoized:
    @pytest.mark.parametrize("kw", [
        {}, dict(n_heads=4), dict(qk_scale=0.5, d_ff=3), dict(d_channels=6, attn_seed=9),
        dict(init_mode="random", attn_seed=7),
        dict(init_mode="random", n_heads=4, d_ff=5, attn_seed=3, qk_scale=2.0),
    ])
    def test_equals_a_fresh_build_and_is_read_only(self, kw):
        settings = RunSettings(**kw)
        got = settings.attention_params()
        if settings.init_mode == "identity":
            ref = AttentionParams.identity(settings.d_channels, settings.n_heads,
                                           settings.d_ff, qk_scale=settings.qk_scale)
        else:
            ref = AttentionParams.random(settings.d_channels, settings.n_heads,
                                         settings.d_ff, seed=settings.attn_seed)
        assert got.n_heads == ref.n_heads
        for f in fields(ref)[1:]:
            arr, want = getattr(got, f.name), getattr(ref, f.name)
            assert arr.dtype == want.dtype and arr.shape == want.shape
            assert arr.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0
        assert RunSettings(**kw).attention_params() is got
        assert replace(settings, loss_sigma=0.25, q_max=0.5).attention_params() is got

    def test_a_field_it_reads_gets_its_own_entry(self):
        settings = RunSettings(init_mode="random", attn_seed=1)
        other = replace(settings, attn_seed=2).attention_params()
        assert other is not settings.attention_params()
        assert other.wq.tobytes() != settings.attention_params().wq.tobytes()

    def test_cache_is_bounded_and_unknown_mode_raises(self):
        maxsize = pipeline._attention_params.cache_info().maxsize
        assert maxsize is not None
        for seed in range(maxsize + 2):
            RunSettings(init_mode="random", attn_seed=100 + seed).attention_params()
        assert pipeline._attention_params.cache_info().currsize == maxsize
        with pytest.raises(ValueError, match="init_mode"):
            RunSettings(init_mode="orthogonal").attention_params()


def same_result(a, b):
    """Two PipelineResults agree byte for byte: fused map, trace, boxes, QCM,
    query bits and ledger."""
    arrays = [(a.fused.values, b.fused.values),
              (a.fused.attention_trace, b.fused.attention_trace)]
    if a.query is not None or b.query is not None:
        arrays += [(a.qcm.values, b.qcm.values), (a.query.bits, b.query.bits)]
    return (a.method == b.method and a.mask == b.mask and a.ledger == b.ledger
            and [x.as_tuple() for x in a.boxes] == [x.as_tuple() for x in b.boxes]
            and all(x.dtype == y.dtype and x.shape == y.shape
                    and x.tobytes() == y.tobytes() for x, y in arrays))


class TestSceneMemo:
    SCORERS = (None, ScorerParams.random(6, seed=4, scale=0.3),
               ScorerParams.random(8, seed=5, scale=0.5))
    SETTINGS = (RunSettings(), RunSettings(init_mode="random", attn_seed=3, n_heads=4))

    @pytest.mark.parametrize("world_name", sorted(WORLDS))
    def test_runs_in_any_order_match_fresh_scenes(self, world_name):
        world = generate(ScenarioConfig(seed=4, **WORLDS[world_name]))
        scene = prepare_scene(world, self.SETTINGS[0])
        runs = [(m, b, s, c) for m in pipeline.METHODS for b in (0.0, 0.05, 0.3, 1.0)
                for s in range(len(self.SCORERS)) for c in range(len(self.SETTINGS))]
        np.random.default_rng(7).shuffle(runs)
        for method, budget, s, c in runs:
            scorer, settings = self.SCORERS[s], self.SETTINGS[c]
            got = run_pipeline(scene, method, budget, settings, scorer)
            fresh = run_pipeline(prepare_scene(world, settings), method, budget, settings,
                                 scorer)
            assert same_result(got, fresh), (method, budget, s, c)
            if method != "single":
                assert scene.memo.qcms[method] is got.qcm
                assert scene.memo.params is settings.attention_params()

    def test_holds_one_scorer_and_shares_read_only_maps(self):
        settings = RunSettings()
        scene = prepare_scene(generate(ScenarioConfig(seed=5)), settings)
        for arr in (scene.features, scene.q0, scene.pe, scene.de):
            assert not arr.flags.writeable
        first, second = self.SCORERS[1:]
        a = run_pipeline(scene, "directed", 0.1, settings, first)
        b = run_pipeline(scene, "uniform", 0.1, settings, first)
        assert run_pipeline(scene, "directed", 0.4, settings, first).qcm is a.qcm
        assert set(scene.memo.qcms) == {"directed", "uniform"}
        c = run_pipeline(scene, "uniform", 0.1, settings, second)
        assert scene.memo.qcms == {"uniform": c.qcm}
        assert scene.memo.scorer == second.to_vector().tobytes()
        for arr in (a.qcm.values, b.qcm.values, c.qcm.values, scene.memo.ego_only):
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 0.5
        # A scorer changed in place is a new scorer: its maps are scored again.
        second.w1[0, 0] += 1.0
        d = run_pipeline(scene, "uniform", 0.1, settings, second)
        assert d.qcm is not c.qcm
        assert same_result(d, run_pipeline(prepare_scene(scene.world, settings), "uniform",
                                           0.1, settings, second))
        second.w1[0, 0] -= 1.0

    def test_one_scoring_pass_per_method(self, monkeypatch):
        calls = []
        real = pipeline.score_scene
        monkeypatch.setattr(pipeline, "score_scene",
                            lambda *a: calls.append(a[2] is a[0].de) or real(*a))
        settings = RunSettings()
        scene = prepare_scene(generate(ScenarioConfig(seed=6)), settings)
        for budget in (0.02, 0.1, 0.2, 0.5):
            for method in pipeline.METHODS:
                run_pipeline(scene, method, budget, settings)
        assert sorted(calls) == [False, True]  # uniform, then directed
