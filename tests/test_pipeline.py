import pickle
from dataclasses import fields, replace
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from dircp import fusion, learn, pipeline
from dircp.comms import ScorerParams, build_message, serialize
from dircp.fusion import AttentionParams, ego_only
from dircp.learn import training_scenes
from dircp.pipeline import RunSettings, SceneInputs, prepare_scene, run_pipeline
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
    """A scene memoizes the attention its settings build: prepared once, read-only."""

    @pytest.mark.parametrize("kw", [
        {}, dict(n_heads=4), dict(qk_scale=0.5, d_ff=3), dict(d_channels=6, attn_seed=9),
        dict(init_mode="random", attn_seed=7),
        dict(init_mode="random", n_heads=4, d_ff=5, attn_seed=3, qk_scale=2.0),
    ])
    def test_equals_a_fresh_build_and_is_read_only(self, kw):
        settings = RunSettings(**kw)
        if settings.init_mode == "identity":
            ref = AttentionParams.identity(settings.d_channels, settings.n_heads,
                                           settings.d_ff, qk_scale=settings.qk_scale)
        else:
            ref = AttentionParams.random(settings.d_channels, settings.n_heads,
                                         settings.d_ff, seed=settings.attn_seed)
        scene = prepare_scene(generate(ScenarioConfig(seed=2)), settings)
        for got in (settings.attention_params(), scene.attention):
            assert got.n_heads == ref.n_heads
            for f in fields(ref)[1:]:
                arr, want = getattr(got, f.name), getattr(ref, f.name)
                assert arr.dtype == want.dtype and arr.shape == want.shape
                assert arr.tobytes() == want.tobytes()
        for f in fields(ref)[1:]:
            with pytest.raises(ValueError):
                getattr(scene.attention, f.name).flat[0] = 1.0

    def test_unknown_init_mode_raises(self):
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
    """What a prepared scene holds for every run of it: read-only arrays, the
    attention params it was prepared with and their ego-only fused map."""

    SCORERS = (None, ScorerParams.random(6, seed=4, scale=0.3),
               ScorerParams.random(8, seed=5, scale=0.5))
    SETTINGS = (RunSettings(), RunSettings(init_mode="random", attn_seed=3, n_heads=4))

    @pytest.mark.parametrize("world_name", sorted(WORLDS))
    def test_runs_in_any_order_match_fresh_scenes(self, world_name):
        world = generate(ScenarioConfig(seed=4, **WORLDS[world_name]))
        for c, settings in enumerate(self.SETTINGS):
            scene = prepare_scene(world, settings)
            runs = [(m, b, s) for m in pipeline.METHODS for b in (0.0, 0.05, 0.3, 1.0)
                    for s in range(len(self.SCORERS))]
            np.random.default_rng(7).shuffle(runs)
            for method, budget, s in runs:
                scorer = self.SCORERS[s]
                got = run_pipeline(scene, method, budget, settings, scorer)
                fresh = run_pipeline(prepare_scene(world, settings), method, budget,
                                     settings, scorer)
                assert same_result(got, fresh), (method, budget, s, c)

    @pytest.mark.parametrize("settings", SETTINGS, ids=["identity", "random"])
    def test_ego_fused_is_ego_only_and_every_array_is_read_only(self, settings):
        scene = prepare_scene(generate(ScenarioConfig(seed=5)), settings)
        want = ego_only(scene.ego_map(), scene.attention)
        assert scene.ego_fused.dtype == want.dtype and scene.ego_fused.shape == want.shape
        assert scene.ego_fused.tobytes() == want.tobytes()
        assert all(f.init for f in fields(SceneInputs))
        arrays = [getattr(scene, f.name) for f in fields(scene)]
        arrays += [getattr(scene.attention, f.name) for f in fields(scene.attention)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        # de, pe, q0, features, sector_map, ego_fused and every attention weight
        assert len(arrays) == 6 + len(fields(scene.attention)) - 1
        for arr in arrays:
            with pytest.raises(ValueError):
                arr.flat[0] = 0.5

    def test_collaborator_map_rejects_an_index_outside_the_collaborators(self):
        scene = prepare_scene(generate(ScenarioConfig(seed=5)), RunSettings())
        n = scene.n_collaborators
        assert scene.collaborator_map(n - 1).values.tobytes() == scene.features[n].tobytes()
        for k in (-1, n):  # features[k + 1]: -1 would read the ego's map
            with pytest.raises(IndexError, match=rf"collaborator {k} outside 0\.\.{n - 1}"):
                scene.collaborator_map(k)

    @staticmethod
    def assert_read_only(s):
        maps = [s.ego_map(), *map(s.collaborator_map, range(s.n_collaborators))]
        for k, fmap in enumerate(maps):
            assert fmap.grid == s.grid
            assert np.shares_memory(fmap.values, s.features[k])
            assert fmap.values.tobytes() == s.features[k].tobytes()
            assert not fmap.values.flags.writeable
        attention = [getattr(s.attention, f.name) for f in fields(s.attention)[1:]]
        for arr in (s.de, s.pe, s.q0, s.features, s.sector_map, s.ego_fused, *attention):
            with pytest.raises(ValueError):
                arr.flat[0] = 0.5

    @pytest.mark.parametrize("world_name", sorted(WORLDS))
    def test_maps_are_read_only_views_of_features_pickled_once(self, world_name):
        scene = prepare_scene(generate(ScenarioConfig(seed=6, **WORLDS[world_name])),
                              RunSettings())
        shipped = pickle.loads(pickle.dumps(scene))
        for s in (scene, shipped):
            self.assert_read_only(s)
        bare = {f.name: getattr(scene, f.name) for f in fields(scene)}
        size = len(pickle.dumps(scene))
        assert abs(size - len(pickle.dumps(bare))) <= 0.01 * size

    def test_a_shipped_train_scene_list_stays_read_only(self):
        settings = RunSettings()
        scenes = training_scenes(ScenarioConfig(seed=8), settings, 2)
        # The task train_sigma_scorers hands a worker, pickled as the pool does.
        task = (scenes, settings, 1.0, 0.2, 5, 0.5, 8)
        shipped = pickle.loads(ForkingPickler.dumps(task))[0]
        for ts, sent in zip(shipped, scenes, strict=True):
            self.assert_read_only(ts.scene)
            assert ts.scene.features.tobytes() == sent.scene.features.tobytes()
            assert ts.scene.ego_fused.tobytes() == sent.scene.ego_fused.tobytes()

    @pytest.mark.parametrize("world_name", sorted(WORLDS))
    def test_a_pickled_scene_runs_the_same_bytes(self, world_name):
        settings = RunSettings()
        scene = prepare_scene(generate(ScenarioConfig(seed=6, **WORLDS[world_name])),
                              settings)
        shipped = pickle.loads(pickle.dumps(scene))  # as the sigma pool ships it
        for method in pipeline.METHODS:
            for budget, scorer in ((0.05, None), (0.3, self.SCORERS[1])):
                assert same_result(run_pipeline(shipped, method, budget, settings, scorer),
                                   run_pipeline(scene, method, budget, settings, scorer)), \
                    (method, budget)

    def test_a_shipped_train_scene_list_runs_its_own_ego_only_map(self, monkeypatch):
        """Unpickled scenes fuse over the ego-only map they carry: no run of them
        calls ego_only, and each gives the in-process bytes."""
        settings = RunSettings()
        scenes = training_scenes(ScenarioConfig(seed=8), settings, 3)
        task = (scenes, settings, 1.0, 0.2, 5, 0.5, 8)  # as train_sigma_scorers ships it
        shipped = pickle.loads(ForkingPickler.dumps(task))[0]
        calls = []
        for module in (fusion, pipeline):
            real = module.ego_only
            monkeypatch.setattr(module, "ego_only",
                                lambda *a, real=real: calls.append(a) or real(*a))
        for ts, sent in zip(shipped, scenes, strict=True):
            for method in ("directed", "uniform"):
                for budget, scorer in ((0.2, None), (0.3, self.SCORERS[1])):
                    assert same_result(
                        run_pipeline(ts.scene, method, budget, settings, scorer),
                        run_pipeline(sent.scene, method, budget, settings, scorer)), \
                        (method, budget)
        assert calls == []


class TestBoxesOnDemand:
    """A run's boxes are decoded from its fused map on first read, and a run no
    one reads the boxes of decodes nothing."""

    @pytest.mark.parametrize("method", pipeline.METHODS)
    def test_boxes_are_the_fused_maps_decode_made_once(self, monkeypatch, method):
        settings = RunSettings(conf_threshold=0.6)
        scene = prepare_scene(generate(ScenarioConfig(seed=3, **WORLDS["dense"])), settings)
        calls = []
        monkeypatch.setattr(pipeline, "decode",
                            lambda *a: calls.append(a) or fusion.decode(*a))
        result = run_pipeline(scene, method, 0.1, settings)
        assert calls == [] and result.conf_threshold == 0.6
        boxes = result.boxes
        assert result.boxes is boxes and len(calls) == 1
        want = fusion.decode(result.fused, settings.conf_threshold)
        assert want and [repr(b.as_tuple()) for b in boxes] == \
            [repr(b.as_tuple()) for b in want]

    @pytest.mark.parametrize("value", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_a_bad_conf_threshold_fails_in_the_settings(self, value):
        """Not late, at the first read of .boxes: replace() checks it too."""
        with pytest.raises(ValueError, match="conf_threshold"):
            RunSettings(conf_threshold=value)
        with pytest.raises(ValueError, match="conf_threshold"):
            replace(RunSettings(), conf_threshold=value)

    def test_hard_path_loss_never_decodes(self, monkeypatch):
        settings = RunSettings()
        tscene = training_scenes(ScenarioConfig(seed=8), settings, 1)[0]
        scorer = TestSceneMemo.SCORERS[1]
        want = [learn.hard_path_loss(p, tscene, 0.2, settings) for p in (None, scorer)]

        def no_decode(*args):
            raise AssertionError("hard_path_loss decoded boxes")

        monkeypatch.setattr(pipeline, "decode", no_decode)
        assert [learn.hard_path_loss(p, tscene, 0.2, settings) for p in (None, scorer)] == want
