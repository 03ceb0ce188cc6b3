import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dircp.comms import ScorerParams
from dircp.grid import GridSpec
from dircp.geometry import RotatedBox
from dircp.num import sigmoid
from dircp.learn import (
    DegenerateWeights,
    detection_loss,
    dw_loss,
    dw_loss_gradient,
    hard_path_loss,
    load_scorer,
    make_train_scene,
    rasterize_truth,
    save_scorer,
    smooth_l1,
    soft_forward,
    train_scorer,
    training_log_csv,
)
from dircp.pipeline import RunSettings, prepare_scene
from dircp.scenario import ScenarioConfig, _footprints, generate

from _oracles import (
    detection_loss_masks,
    dw_loss_gradient_masks,
    objective_reference,
    sigmoid_two_branch,
    soft_attention_rows,
    soft_forward_loops,
    soft_forward_reference,
)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


class TestDwLoss:
    def test_hand_case(self):
        val = dw_loss([2.0, 4.0, 6.0, 8.0], (1, 1, 0, 0), 1.0)
        assert val == pytest.approx(26.0 / 6.0, rel=1e-12)

    def test_all_ones_mask_is_mean(self):
        for sigma in (0.0, 0.3, 1.0, 7.5):
            val = dw_loss([2.0, 4.0, 6.0, 8.0], (1, 1, 1, 1), sigma)
            assert abs(val - 5.0) <= 1e-12 * 5.0

    def test_sigma_zero_single_direction(self):
        assert dw_loss([2.0, 4.0, 6.0, 8.0], (1, 0, 0, 0), 0.0) == 2.0

    def test_huge_sigma_approaches_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            losses = rng.uniform(0, 10, 4)
            mask = tuple(int(b) for b in rng.integers(0, 2, 4))
            mean = float(np.mean(losses))
            val = dw_loss(losses, mask, 1e6)
            assert abs(val - mean) <= 1e-4 * max(mean, 1e-12)

    def test_monotone_in_each_component(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            losses = rng.uniform(0, 5, 4)
            mask = tuple(int(b) for b in rng.integers(0, 2, 4))
            sigma = float(rng.uniform(0.1, 2))
            base = dw_loss(losses, mask, sigma)
            i = int(rng.integers(0, 4))
            bumped = losses.copy()
            bumped[i] += 1.0
            assert dw_loss(bumped, mask, sigma) >= base

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateWeights):
            dw_loss([1.0, 2.0], (0, 0), 0.0)


def one_cell_setup(p, truth_pos, residuals=None):
    pred = np.zeros((1, 1, 7))
    truth = np.zeros((1, 1, 7))
    pred[0, 0, 0] = p
    if truth_pos:
        truth[0, 0, 0] = 1.0
        truth[0, 0, 1:7] = (0.2, -0.1, 4.0, 2.0, 1.0, 0.0)
        pred[0, 0, 1:7] = truth[0, 0, 1:7]
        if residuals is not None:
            pred[0, 0, 1:7] = truth[0, 0, 1:7] + residuals
    sector = np.zeros((1, 1), dtype=np.int64)
    return pred, truth, sector


class TestDetectionLoss:
    def test_perfect_prediction(self):
        grid = GridSpec(8, 8, 1.0)
        boxes = [RotatedBox.from_angle(1.0, 3.2, 4.7, 4.0, 2.0, 0.4)]
        truth = rasterize_truth(boxes, grid, _footprints(boxes, grid)[0])
        pred = truth.copy()
        sector = np.zeros((8, 8), dtype=np.int64)
        parts = detection_loss(pred, truth, sector, 1)
        assert parts["offset"][0] == 0.0
        assert parts["size"][0] == 0.0
        assert parts["total"][0] < 1e-15

    def test_empty_sector_zero_loss(self):
        pred = np.zeros((4, 4, 7))
        truth = np.zeros((4, 4, 7))
        sector = np.zeros((4, 4), dtype=np.int64)
        sector[:, 2:] = 1
        parts = detection_loss(pred, truth, sector, 3)
        assert parts["total"][2] == 0.0  # no cells in sector 2 at all

    def test_single_cell_hand_arithmetic(self):
        p = 0.7
        res = np.array([0.3, -0.4, 1.5, 0.2, -0.05, 0.6])
        pred, truth, sector = one_cell_setup(p, True, res)
        parts = detection_loss(pred, truth, sector, 1, lambda_off=1.0, lambda_size=1.0)
        focal = -((1 - p) ** 2) * math.log(p)
        off = 0.5 * 0.3 ** 2 + 0.5 * 0.4 ** 2
        size = (1.5 - 0.5) + 0.5 * 0.2 ** 2 + 0.5 * 0.05 ** 2 + 0.5 * 0.6 ** 2
        assert parts["focal"][0] == pytest.approx(focal, rel=1e-12)
        assert parts["offset"][0] == pytest.approx(off, rel=1e-12)
        assert parts["size"][0] == pytest.approx(size, rel=1e-12)

    def test_smooth_l1_shape(self):
        assert smooth_l1(np.array(0.5)) == 0.125
        assert smooth_l1(np.array(2.0)) == 1.5
        assert smooth_l1(np.array(-1.0)) == 0.5


class TestLossMatchesMaskOracle:
    def test_random_maps(self):
        # Same bits as the per-call sector masks; the gradient may differ only in
        # the sign of the zeros on cells with no regression target.
        rng = np.random.default_rng(4)
        for trial in range(40):
            h, w = (int(v) for v in rng.integers(1, 9, 2))
            n_dir = int(rng.integers(1, 5))
            sector = rng.integers(0, n_dir, (h, w))
            truth = np.zeros((h, w, 7))
            truth[:, :, 0] = rng.uniform(size=(h, w)) < 0.3
            truth[:, :, 1:] = rng.uniform(-1, 1, (h, w, 6))
            truth[:, :, 3] *= rng.uniform(size=(h, w)) < 0.5
            pred = rng.uniform(-3, 3, (h, w, 7))
            pred[:, :, 0] = rng.uniform(0, 1, (h, w))
            mask = tuple(int(b) for b in rng.integers(0, 2, n_dir))
            sigma, lam_off, lam_size = (float(v) for v in rng.uniform(0.0, 2.0, 3))
            got = detection_loss(pred, truth, sector, n_dir, lam_off, lam_size)
            ref = detection_loss_masks(pred, truth, sector, n_dir, lam_off, lam_size)
            for key in ("focal", "offset", "size", "total", "n_pos"):
                assert same_bits(got[key], ref[key]), (trial, key)
            if sum(mask) + sigma * n_dir == 0.0:
                continue
            grad = dw_loss_gradient(pred, truth, sector, mask, sigma, lam_off, lam_size)
            ref_grad = dw_loss_gradient_masks(pred, truth, sector, mask, sigma,
                                              lam_off, lam_size)
            assert np.array_equal(grad, ref_grad), trial
            assert same_bits(grad[:, :, 0], ref_grad[:, :, 0]), trial


class TestDwLossGradient:
    def test_perfect_prediction_zero_regression_grad(self):
        grid = GridSpec(8, 8, 1.0)
        boxes = [RotatedBox.from_angle(1.0, 3.2, 4.7, 4.0, 2.0, 0.4)]
        truth = rasterize_truth(boxes, grid, _footprints(boxes, grid)[0])
        sector = np.zeros((8, 8), dtype=np.int64)
        grad = dw_loss_gradient(truth.copy(), truth, sector, (1,), 1.0)
        assert np.all(grad[:, :, 1:7] == 0.0)

    def test_masked_out_sigma_zero_has_zero_gradient(self):
        rng = np.random.default_rng(2)
        pred = np.zeros((4, 4, 7))
        pred[:, :, 0] = rng.uniform(0.1, 0.9, (4, 4))
        pred[:, :, 1:] = rng.normal(size=(4, 4, 6))
        truth = np.zeros((4, 4, 7))
        truth[1, 1, 0] = 1.0
        truth[3, 3, 0] = 1.0
        sector = np.zeros((4, 4), dtype=np.int64)
        sector[:, 2:] = 1
        grad = dw_loss_gradient(pred, truth, sector, (1, 0), 0.0)
        assert np.all(grad[sector == 1] == 0.0)
        assert np.any(grad[sector == 0] != 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            h = w = int(rng.integers(2, 5))
            n_dir = int(rng.integers(1, 4))
            sector = rng.integers(0, n_dir, (h, w))
            truth = np.zeros((h, w, 7))
            for _ in range(int(rng.integers(1, 4))):
                r, c = rng.integers(0, h), rng.integers(0, w)
                truth[r, c, 0] = 1.0
                truth[r, c, 1:7] = rng.uniform(-0.5, 0.5, 6)
            pred = np.zeros((h, w, 7))
            pred[:, :, 0] = rng.uniform(0.1, 0.9, (h, w))
            pred[:, :, 1:7] = rng.uniform(-2, 2, (h, w, 6))
            mask = tuple(int(b) for b in rng.integers(0, 2, n_dir))
            sigma = float(rng.uniform(0.2, 2.0))
            lam_off = float(rng.uniform(0.5, 2.0))
            lam_size = float(rng.uniform(0.5, 2.0))

            grad = dw_loss_gradient(pred, truth, sector, mask, sigma,
                                    lam_off, lam_size)
            step = 1e-4
            flat_idx = [(r, c, ch) for r in range(h) for c in range(w)
                        for ch in range(7)]
            sel = rng.choice(len(flat_idx), size=min(20, len(flat_idx)),
                             replace=False)
            for i in sel:
                r, c, ch = flat_idx[i]
                up, down = pred.copy(), pred.copy()
                up[r, c, ch] += step
                down[r, c, ch] -= step

                def loss_of(p):
                    parts = detection_loss(p, truth, sector, n_dir,
                                           lam_off, lam_size)
                    return dw_loss(parts["total"], mask, sigma)

                fd = (loss_of(up) - loss_of(down)) / (2 * step)
                denom = max(abs(fd), abs(grad[r, c, ch]), 1e-8)
                assert abs(fd - grad[r, c, ch]) / denom < 1e-4


def tiny_settings(**kw):
    base = dict(d_channels=8, n_dir=4, interest=(0.9, 0.9, 0.1, 0.1),
                sigma2=2.0, q_max=0.3, tau=0.05, loss_sigma=1.0)
    base.update(kw)
    return RunSettings(**base)


def tiny_scene(seed=0, area=16.0, n_vehicles=2, n_collaborators=2, settings=None):
    cfg = ScenarioConfig(seed=seed, area_side=area, n_collaborators=n_collaborators,
                         n_vehicles=n_vehicles, sensor_range=area,
                         occlusion_enabled=False, dropout_prob=0.0)
    world = generate(cfg)
    return make_train_scene(prepare_scene(world, settings or tiny_settings()))


class TestSoftPath:
    def test_end_to_end_gradient_matches_finite_differences(self):
        # 8x8 grid, full soft surrogate through scoring, clipping, attention,
        # fusion, and the per-cell decode readout.
        settings = tiny_settings()
        ts = tiny_scene(seed=5, area=8.0, n_vehicles=1, settings=settings)
        assert ts.scene.grid.shape == (8, 8)
        params = ScorerParams.random(4, seed=6, scale=0.4)
        loss, grads, _ = soft_forward(params, ts, 0.3, settings)
        assert math.isfinite(loss)
        flat_g = grads.to_vector()
        base = params.to_vector()
        step = 1e-4
        checked = 0
        for i in range(len(base)):
            up, down = base.copy(), base.copy()
            up[i] += step
            down[i] -= step
            lu, _, _ = soft_forward(ScorerParams.from_vector(up, 4), ts, 0.3, settings)
            ld, _, _ = soft_forward(ScorerParams.from_vector(down, 4), ts, 0.3, settings)
            fd = (lu - ld) / (2 * step)
            denom = max(abs(fd), abs(flat_g[i]), 1e-7)
            assert abs(fd - flat_g[i]) / denom < 1e-3, f"param {i}"
            checked += 1
        assert checked == len(base)

    def test_zero_budget_zero_gradient(self):
        settings = tiny_settings()
        ts = tiny_scene(seed=7, settings=settings)
        params = ScorerParams.random(4, seed=8)
        _, grads, _ = soft_forward(params, ts, 0.0, settings)
        assert np.all(grads.to_vector() == 0.0)

    def test_hard_path_loss_finite(self):
        settings = tiny_settings()
        ts = tiny_scene(seed=9, settings=settings)
        val = hard_path_loss(ScorerParams.random(4, seed=1), ts, 0.3, settings)
        assert math.isfinite(val)
        val_ref = hard_path_loss(None, ts, 0.3, settings)
        assert math.isfinite(val_ref)


class TestSoftPathMatchesOracle:
    @pytest.mark.parametrize("seed,n_collaborators,kw", [
        (11, 2, {}),
        (12, 4, {"n_heads": 4, "init_mode": "random", "attn_seed": 3}),
    ])
    def test_soft_forward_matches_inline_attention(self, monkeypatch, seed,
                                                   n_collaborators, kw):
        settings = tiny_settings(**kw)
        ts = tiny_scene(seed=seed, n_vehicles=3, n_collaborators=n_collaborators,
                        settings=settings)
        params = ScorerParams.random(4, seed=seed, scale=0.4)
        loss, grads, per_dir = soft_forward(params, ts, 0.3, settings)
        import dircp.learn
        monkeypatch.setattr(dircp.learn, "attention", soft_attention_rows)
        ref_loss, ref_grads, ref_per_dir = soft_forward(params, ts, 0.3, settings)
        assert loss == ref_loss
        assert np.array_equal(per_dir, ref_per_dir)
        assert np.array_equal(grads.to_vector(), ref_grads.to_vector())

    @pytest.mark.parametrize("budget", [0.0, 0.05, 0.3, 1.0])
    def test_soft_forward_matches_loop_oracle(self, budget):
        settings = tiny_settings(d_channels=6, n_heads=3)
        ts = tiny_scene(seed=13, n_vehicles=3, n_collaborators=3, settings=settings)
        params = ScorerParams.random(4, seed=13, scale=0.4)
        loss, grads, per_dir = soft_forward(params, ts, budget, settings)
        ref_loss, ref_grads, ref_per_dir = soft_forward_loops(params, ts, budget, settings)
        assert loss == ref_loss
        assert np.array_equal(per_dir, ref_per_dir)
        assert np.array_equal(grads.to_vector(), ref_grads.to_vector())


class TestSoftForwardMatchesReference:
    """soft_forward against its form before the per-scene loss constants, byte for byte."""

    @pytest.mark.parametrize("n_heads", [2, 4])
    @pytest.mark.parametrize("init_mode", ["identity", "random"])
    @pytest.mark.parametrize("loss_sigma", [0.0, 0.5, 1.0])
    def test_budgets(self, n_heads, init_mode, loss_sigma):
        settings = tiny_settings(n_heads=n_heads, init_mode=init_mode, attn_seed=5,
                                 loss_sigma=loss_sigma)
        ts = tiny_scene(seed=21, n_vehicles=4, n_collaborators=3, settings=settings)
        params = ScorerParams.random(4, seed=21, scale=0.4)
        for budget in (0.0, 0.02, 0.2, 0.5, 1.0):
            loss, grads, per_dir = soft_forward(params, ts, budget, settings)
            ref_loss, ref_grads, ref_per_dir = soft_forward_reference(params, ts, budget,
                                                                      settings)
            assert same_bits(loss, ref_loss), budget
            assert same_bits(per_dir, ref_per_dir), budget
            assert same_bits(grads.to_vector(), ref_grads.to_vector()), budget

    def test_train_scorer(self, monkeypatch):
        import dircp.learn
        settings = tiny_settings()
        scenes = [tiny_scene(seed=s, n_vehicles=3, settings=settings) for s in (31, 32)]
        params = ScorerParams.random(4, seed=7, scale=0.4)
        got = train_scorer(params, scenes, 0.3, settings, learning_rate=0.5, steps=3)
        monkeypatch.setattr(dircp.learn, "soft_forward", soft_forward_reference)
        monkeypatch.setattr(dircp.learn, "_objective", objective_reference)
        ref = train_scorer(params, scenes, 0.3, settings, learning_rate=0.5, steps=3)
        assert training_log_csv(got.history) == training_log_csv(ref.history)
        assert same_bits(got.params.to_vector(), ref.params.to_vector())
        assert same_bits((got.hard_loss_initial, got.hard_loss_final),
                         (ref.hard_loss_initial, ref.hard_loss_final))

    def test_peak_memory_of_one_step(self):
        # The default scene: 64 x 64 cells, the ego and 4 collaborators, D = 8. Holding
        # every intermediate to the end of the backward took 9.76 MiB.
        settings = RunSettings(q_max=0.2)
        ts = make_train_scene(prepare_scene(generate(ScenarioConfig(seed=1)), settings))
        assert ts.scene.features.shape == (5, 64, 64, 8)
        params = ScorerParams.random(8, seed=0, scale=0.3)
        soft_forward(params, ts, 0.2, settings)  # caches the attention params untraced
        tracemalloc.start()
        try:
            soft_forward(params, ts, 0.2, settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_sigmoid_matches_two_branch_form():
    rng = np.random.default_rng(6)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 1e-300, -1e-300]
    x = np.concatenate([rng.normal(0, 30, 5000), rng.normal(0, 1, 5000), special])
    assert sigmoid(x).tobytes() == sigmoid_two_branch(x).tobytes()
    strided = x.reshape(10, -1).T  # not contiguous
    assert sigmoid(strided).tobytes() == sigmoid_two_branch(strided).tobytes()
    for v in special:
        assert type(sigmoid(v)) is float and same_bits(sigmoid(v), sigmoid_two_branch(v))


class TestTrainScorer:
    def test_zero_learning_rate_keeps_params(self):
        settings = tiny_settings()
        scenes = [tiny_scene(seed=s, settings=settings) for s in (1, 2)]
        params = ScorerParams.random(4, seed=3)
        result = train_scorer(params, scenes, 0.3, settings,
                              learning_rate=0.0, steps=3)
        assert np.array_equal(result.params.to_vector(), params.to_vector())
        assert len(result.history) == 3

    def test_loss_decreases_200_steps_8_scenarios(self):
        settings = tiny_settings()
        scenes = [tiny_scene(seed=s, area=24.0, n_vehicles=3, settings=settings)
                  for s in range(20, 28)]
        params = ScorerParams.random(4, seed=0, scale=0.5)
        result = train_scorer(params, scenes, 0.3, settings,
                              learning_rate=1.0, steps=200)
        assert result.history[-1]["dw_loss"] < result.history[0]["dw_loss"]

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            train_scorer(ScorerParams.zeros(4), [], 0.3, tiny_settings(), steps=0)

    def test_global_tie_break_is_rejected_before_any_work(self, monkeypatch):
        """soft_forward ranks each collaborator on its own: a global clip is never trained for."""
        import dircp.learn

        def forbidden(*args, **kwargs):
            raise AssertionError("train_scorer must reject the setting before any pass")

        settings = tiny_settings(tie_break="global")
        scenes = [tiny_scene(seed=1, settings=settings)]
        for name in ("soft_forward", "hard_path_loss"):
            monkeypatch.setattr(dircp.learn, name, forbidden)
        with pytest.raises(ValueError, match="comms.tie_break"):
            train_scorer(ScorerParams.random(4, seed=3), scenes, 0.3, settings, steps=1)

    def test_training_log_csv(self):
        history = [{"step": 0, "dw_loss": 1.5, "per_direction": [1.0, 2.0]},
                   {"step": 1, "dw_loss": 1.25, "per_direction": [0.75, 1.75]}]
        text = training_log_csv(history)
        lines = text.strip().split("\n")
        assert lines[0] == "step,dw_loss,loss_dir0,loss_dir1"
        assert lines[1].startswith("0,1.5,")


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = ScorerParams.random(6, seed=5)
        path = tmp_path / "scorer.dcpw"
        save_scorer(params, path)
        raw = path.read_bytes()
        assert raw[:4] == b"DCPW"
        loaded = load_scorer(path)
        assert loaded.hidden == 6
        assert np.allclose(loaded.to_vector(),
                           params.to_vector().astype(np.float32), atol=0)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.dcpw"
        path.write_bytes(b"DCPW" + b"\x05\x00\x00\x00" + b"\x00" * 20)
        with pytest.raises(ValueError):
            load_scorer(path)


class TestRasterize:
    def test_center_cell_and_offsets(self):
        grid = GridSpec(8, 8, 1.0)
        box = RotatedBox.from_angle(1.0, 3.2, 4.7, 4.0, 2.0, 0.0)
        truth = rasterize_truth([box], grid, _footprints([box], grid)[0])
        assert truth[4, 3, 0] == 1.0
        assert truth[4, 3, 1] == pytest.approx(3.2 - 3.5)
        assert truth[4, 3, 2] == pytest.approx(4.7 - 4.5)
        # Objectness covers the rasterized footprint; regression targets live
        # on the single center cell (recognizable by its positive size).
        from dircp.learn import regression_mask
        assert truth[:, :, 0].sum() >= 8  # a 4x2 m car covers at least 8 cells
        assert regression_mask(truth).sum() == 1
        for r in range(8):
            for c in range(8):
                if truth[r, c, 0] == 1.0 and not (r == 4 and c == 3):
                    assert truth[r, c, 3] == 0.0

    def test_heading_canonicalized(self):
        grid = GridSpec(8, 8, 1.0)
        box = RotatedBox.from_angle(1.0, 4.0, 4.0, 4.0, 2.0, math.pi * 0.9)
        truth = rasterize_truth([box], grid, _footprints([box], grid)[0])
        r, c = grid.cell_of(4.0, 4.0)
        assert truth[r, c, 5] >= 0.0


def test_learn_reads_no_attention_kernel_internals():
    """fusion owns the attention kernel in both directions: learn calls attention
    and attention_backward and reads none of the kernel's parameters."""
    import dircp.learn

    tree = ast.parse(Path(dircp.learn.__file__).read_text(encoding="utf-8"))
    from_fusion = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "fusion"
                   for alias in node.names]
    assert from_fusion == ["attention", "attention_backward"]
    internals = {"wq", "wk", "wv", "wo", "n_heads", "head_dim", "value_matrix"}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not read & internals and not any(a.startswith("ffn_") for a in read)
