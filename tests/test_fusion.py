import math

import numpy as np
import pytest

from dircp.comms import (
    QueryConfidenceMap,
    ShapeMismatch,
    build_message,
    deserialize,
    message_to_sparse,
    serialize,
)
from dircp.features import BevFeatureMap, SparseFeatureMap
from dircp.fusion import (
    AttentionParams,
    FusedMap,
    _clusters,
    _gather,
    attention,
    attention_backward,
    attention_trace_csv,
    decode,
    dsa_weights,
    ego_only,
    fuse,
)
from dircp.grid import GridSpec
from dircp.num import canonical_sum
from dircp.pipeline import RunSettings, prepare_scene, run_pipeline
from dircp.scenario import ScenarioConfig, generate

from _oracles import (
    attention_trace_csv_per_element,
    clusters_full_scan,
    decode_per_cell,
    dense_dsa_weights,
    dense_fuse,
    hard_attention_pool,
    hard_attention_weights,
    one_row_grid,
    rows_of,
    soft_attention_rows,
    stack_agents,
)


DENSE = dict(n_vehicles=24, n_collaborators=8, density_profile=(0.4, 0.4, 0.1, 0.1))


def sparse_from_dense(dense, cells):
    h, w, d = dense.shape
    rows, cols = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    return SparseFeatureMap(rows, cols, dense[rows, cols], (h, w, d))


def qcm_of(values):
    return QueryConfidenceMap(np.asarray(values, dtype=np.float64))


class TestDsaWeights:
    def test_singleton_softmax_is_one(self):
        grid = GridSpec(4, 4, 1.0)
        rng = np.random.default_rng(0)
        ego = BevFeatureMap(grid, rng.normal(size=(4, 4, 4)))
        params = AttentionParams.identity(4)
        w = dsa_weights(ego, [None], qcm_of(np.zeros((4, 4, 1))), params)
        assert np.all(w.values[:, :, 0] == 1.0)
        assert np.all(w.values[:, :, 1] == 0.0)

    def test_identical_keys_split_evenly(self):
        grid = GridSpec(2, 2, 1.0)
        rng = np.random.default_rng(1)
        dense = rng.normal(size=(2, 2, 4))
        ego = BevFeatureMap(grid, dense)
        # Collaborator transmits features identical to the ego's everywhere.
        received = [sparse_from_dense(dense, [(r, c) for r in range(2) for c in range(2)])]
        w = dsa_weights(ego, received, qcm_of(np.ones((2, 2, 1))),
                        AttentionParams.identity(4))
        assert np.allclose(w.values, 0.5, atol=1e-12)

    def test_one_cell_three_agent_oracle(self):
        d, n_heads = 4, 2
        dh = d // n_heads
        grid = GridSpec(1, 1, 1.0)
        rng = np.random.default_rng(2)
        params = AttentionParams.random(d, n_heads, seed=3)
        f_ego = rng.normal(size=(1, 1, d))
        h1 = rng.normal(size=(1, 1, d))
        h2 = rng.normal(size=(1, 1, d))
        c = rng.uniform(0.1, 1.0, size=(1, 1, 2))
        ego = BevFeatureMap(grid, f_ego)
        received = [sparse_from_dense(h1, [(0, 0)]), sparse_from_dense(h2, [(0, 0)])]
        got = dsa_weights(ego, received, qcm_of(c), params)

        # Hand-rolled scaled dot-product + softmax + Hadamard oracle.
        feats = [f_ego[0, 0], h1[0, 0], h2[0, 0]]
        per_head = []
        for h in range(n_heads):
            q = params.wq[h] @ f_ego[0, 0]
            scores = [float(q @ (params.wk[h] @ fj)) / math.sqrt(dh) for fj in feats]
            mx = max(scores)
            exp = [math.exp(s - mx) for s in scores]
            tot = sum(exp)
            per_head.append([e / tot for e in exp])
        mean = [sum(per_head[h][j] for h in range(n_heads)) / n_heads for j in range(3)]
        expected = [mean[0], mean[1] * c[0, 0, 0], mean[2] * c[0, 0, 1]]
        assert np.allclose(got.values[0, 0], expected, atol=1e-6)

    def test_pre_qcm_sums_to_one_over_present(self):
        grid = GridSpec(6, 6, 1.0)
        rng = np.random.default_rng(4)
        ego = BevFeatureMap(grid, rng.normal(size=(6, 6, 4)))
        dense1 = rng.normal(size=(6, 6, 4))
        dense2 = rng.normal(size=(6, 6, 4))
        cells1 = [(r, c) for r in range(6) for c in range(6) if rng.uniform() < 0.4]
        cells2 = [(r, c) for r in range(6) for c in range(6) if rng.uniform() < 0.4]
        received = [sparse_from_dense(dense1, cells1), sparse_from_dense(dense2, cells2)]
        w = dsa_weights(ego, received, qcm_of(rng.uniform(0, 1, (6, 6, 2))),
                        AttentionParams.random(4, seed=5))
        sums = np.where(w.present, w.pre_qcm, 0.0).sum(axis=2)
        assert np.all(np.abs(sums - 1.0) < 1e-6)
        assert np.all(w.pre_qcm[~w.present] == 0.0)

    def test_shape_mismatch(self):
        grid = GridSpec(4, 4, 1.0)
        ego = BevFeatureMap(grid, np.zeros((4, 4, 4)))
        with pytest.raises(ShapeMismatch):
            dsa_weights(ego, [None], qcm_of(np.zeros((4, 4, 2))),
                        AttentionParams.identity(4))


@pytest.mark.parametrize("make", [AttentionParams.identity, AttentionParams.random])
@pytest.mark.parametrize("d,n_heads", [(6, 4), (5, 2), (3, 2)])
def test_params_reject_a_width_the_heads_do_not_divide(make, d, n_heads):
    with pytest.raises(ValueError, match="divisible"):
        make(d, n_heads)


class TestFuse:
    def test_self_only_identity_returns_ego(self):
        grid = GridSpec(5, 5, 1.0)
        rng = np.random.default_rng(6)
        ego = BevFeatureMap(grid, rng.normal(size=(5, 5, 4)))
        params = AttentionParams.identity(4)
        qcm = qcm_of(np.zeros((5, 5, 1)))
        w = dsa_weights(ego, [None], qcm, params)
        fused = fuse(ego, w, ego_only(ego, params))
        assert np.array_equal(fused.values, ego.values)
        assert fused.values.shape == (5, 5, 4)

    def test_one_cell_oracle(self):
        d = 4
        grid = GridSpec(1, 1, 1.0)
        rng = np.random.default_rng(7)
        params = AttentionParams.random(d, 2, seed=8)
        f_ego = rng.normal(size=(1, 1, d))
        h1 = rng.normal(size=(1, 1, d))
        ego = BevFeatureMap(grid, f_ego)
        received = [sparse_from_dense(h1, [(0, 0)])]
        qcm = qcm_of(rng.uniform(0.2, 1.0, (1, 1, 1)))
        w = dsa_weights(ego, received, qcm, params)
        fused = fuse(ego, w, ego_only(ego, params))

        m = params.wo @ np.concatenate(list(params.wv), axis=0)
        s = w.values[0, 0, 0] * (m @ f_ego[0, 0]) + w.values[0, 0, 1] * (m @ h1[0, 0])
        expected = s + params.ffn_w2 @ np.maximum(params.ffn_w1 @ s + params.ffn_b1, 0.0) \
            + params.ffn_b2
        assert np.allclose(fused.values[0, 0], expected, atol=1e-9)

    def test_zero_confidence_contributes_exactly_zero(self):
        grid = GridSpec(4, 4, 1.0)
        rng = np.random.default_rng(9)
        ego = BevFeatureMap(grid, rng.normal(size=(4, 4, 4)))
        dense = rng.normal(size=(4, 4, 4))
        received = [sparse_from_dense(dense, [(r, c) for r in range(4) for c in range(4)])]
        params = AttentionParams.random(4, seed=10)
        qcm = qcm_of(np.zeros((4, 4, 1)))
        w = dsa_weights(ego, received, qcm, params)
        assert np.all(w.values[:, :, 1] == 0.0)
        m = params.value_matrix()
        contrib = (dense @ m.T) * w.values[:, :, 1:2]
        assert np.all(contrib == 0.0)

    def test_permutation_equivariance_bit_exact(self):
        grid = GridSpec(6, 6, 1.0)
        rng = np.random.default_rng(11)
        ego = BevFeatureMap(grid, rng.normal(size=(6, 6, 4)))
        denses = [rng.normal(size=(6, 6, 4)) for _ in range(3)]
        cell_sets = [[(r, c) for r in range(6) for c in range(6) if rng.uniform() < 0.3]
                     for _ in range(3)]
        received = [sparse_from_dense(dn, cs) for dn, cs in zip(denses, cell_sets)]
        qcm_vals = rng.uniform(0, 1, (6, 6, 3))
        params = AttentionParams.random(4, seed=12)

        w = dsa_weights(ego, received, qcm_of(qcm_vals), params)
        fused = fuse(ego, w, ego_only(ego, params))

        perm = [2, 0, 1]
        received_p = [received[i] for i in perm]
        qcm_p = qcm_vals[:, :, perm]
        w_p = dsa_weights(ego, received_p, qcm_of(qcm_p), params)
        fused_p = fuse(ego, w_p, ego_only(ego, params))

        assert np.array_equal(fused.values, fused_p.values)
        for out_ch, src in enumerate(perm):
            assert np.array_equal(w_p.values[:, :, out_ch + 1], w.values[:, :, src + 1])


def same_bytes(a, b):
    """Equal shape, dtype and bytes: unlike np.array_equal, tells -0.0 from 0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_matches_dense(ego, received, qcm, params):
    """dsa_weights and fuse equal the kernel run over the full grid, bit for bit."""
    got = dsa_weights(ego, received, qcm, params)
    ref = dense_dsa_weights(ego, received, qcm, params)
    for name in ("values", "pre_qcm", "present"):
        assert same_bytes(getattr(got, name), getattr(ref, name)), name
        assert not getattr(got, name).flags.writeable, name
    fused = fuse(ego, got, ego_only(ego, params))
    ref_fused = dense_fuse(ego, received, ref, params)
    assert same_bytes(fused.values, ref_fused.values)
    assert same_bytes(fused.attention_trace, ref_fused.attention_trace)
    return fused


def random_received(rng, dense_shape, n_collab, p_cell):
    h, w, d = dense_shape
    out = []
    for _ in range(n_collab):
        cells = [(r, c) for r in range(h) for c in range(w) if rng.uniform() < p_cell]
        out.append(sparse_from_dense(rng.normal(size=dense_shape), cells) if cells
                   else None)
    return out


PARAMS = [AttentionParams.identity(8), AttentionParams.random(8, seed=21),
          AttentionParams.random(8, n_heads=4, seed=22)]


class TestGatherMatchesDense:
    @pytest.mark.parametrize("params", PARAMS)
    def test_all_none_received(self, params):
        rng = np.random.default_rng(40)
        ego = BevFeatureMap(GridSpec(7, 5, 1.0), rng.normal(size=(7, 5, 8)))
        fused = assert_matches_dense(ego, [None] * 3,
                                     qcm_of(rng.uniform(0, 1, (7, 5, 3))), params)
        assert fused.values.shape == (7, 5, 8)

    @pytest.mark.parametrize("params", PARAMS)
    def test_ego_only_heavy_maps(self, params):
        rng = np.random.default_rng(41)
        for n_collab in (1, 4, 8, 12):
            ego = BevFeatureMap(GridSpec(12, 10, 1.0), rng.normal(size=(12, 10, 8)))
            received = random_received(rng, (12, 10, 8), n_collab, 0.03)
            assert_matches_dense(ego, received,
                                 qcm_of(rng.uniform(0, 1, (12, 10, n_collab))), params)

    @pytest.mark.parametrize("params", PARAMS)
    def test_one_cell_shared_by_many_agents(self, params):
        # One gathered cell: a lone row takes another BLAS path through matmul,
        # and with 9+ agents np.sum over the agent axis alone sums pairwise.
        rng = np.random.default_rng(42)
        for n_collab in (8, 11, 16):
            ego = BevFeatureMap(GridSpec(6, 6, 1.0), rng.normal(size=(6, 6, 8)))
            received = [sparse_from_dense(rng.normal(size=(6, 6, 8)), [(2, 3)])
                        for _ in range(n_collab)]
            assert_matches_dense(ego, received,
                                 qcm_of(rng.uniform(0, 1, (6, 6, n_collab))), params)

    @pytest.mark.parametrize("params", PARAMS)
    def test_every_cell_or_all_but_one_landed(self, params):
        rng = np.random.default_rng(48)
        ego = BevFeatureMap(GridSpec(5, 4, 1.0), rng.normal(size=(5, 4, 8)))
        every = [(r, c) for r in range(5) for c in range(4)]
        for cells in (every, every[:7] + every[8:]):
            received = [sparse_from_dense(rng.normal(size=(5, 4, 8)), cells), None]
            assert_matches_dense(ego, received, qcm_of(rng.uniform(0, 1, (5, 4, 2))),
                                 params)

    @pytest.mark.parametrize("params", PARAMS)
    def test_negative_zero_ego_row(self, params):
        rng = np.random.default_rng(43)
        values = rng.normal(size=(6, 6, 8))
        values[2] = -0.0
        values[4, :, 0] = -0.0
        ego = BevFeatureMap(GridSpec(6, 6, 1.0), values)
        received = random_received(rng, (6, 6, 8), 3, 0.25)
        received[0] = sparse_from_dense(rng.normal(size=(6, 6, 8)), [(2, 0), (4, 1)])
        assert_matches_dense(ego, received, qcm_of(rng.uniform(0, 1, (6, 6, 3))), params)

    @pytest.mark.parametrize("params", PARAMS)
    def test_fuse_rejects_another_shape(self, params):
        """fuse scatters dsa_weights' rows at its cells over the ego-only map: a
        mis-shaped map, or weights from another grid, raises."""
        rng = np.random.default_rng(45)
        ego = BevFeatureMap(GridSpec(6, 7, 1.0), rng.normal(size=(6, 7, 8)))
        received = random_received(rng, (6, 7, 8), 3, 0.3)
        weights = dsa_weights(ego, received, qcm_of(rng.uniform(0, 1, (6, 7, 3))), params)
        alone = ego_only(ego, params)
        got = fuse(ego, weights, alone)
        assert same_bytes(got.values.reshape(-1, 8)[weights.cells], weights.rows)
        assert not weights.cells.flags.writeable and not weights.rows.flags.writeable
        for bad in (alone[:, :4], alone[:5], alone.reshape(7, 6, 8)):
            with pytest.raises(ShapeMismatch, match="ego-only map"):
                fuse(ego, weights, bad)
        for shape in ((7, 6), (5, 7)):  # the same number of cells, or fewer
            other = BevFeatureMap(GridSpec(*shape, 1.0), rng.normal(size=(*shape, 8)))
            foreign = dsa_weights(other, random_received(rng, (*shape, 8), 3, 0.3),
                                  qcm_of(rng.uniform(0, 1, (*shape, 3))), params)
            with pytest.raises(ShapeMismatch, match="weights' grid"):
                fuse(ego, foreign, alone)

    @pytest.mark.parametrize("params", PARAMS)
    def test_lone_cell_beside_a_map_with_no_entries(self, params):
        rng = np.random.default_rng(46)
        ego = BevFeatureMap(GridSpec(5, 6, 1.0), rng.normal(size=(5, 6, 8)))
        empty = sparse_from_dense(rng.normal(size=(5, 6, 8)), [])
        lone = sparse_from_dense(rng.normal(size=(5, 6, 8)), [(4, 5)])
        for received in ([empty, lone, None], [empty, None], [lone, empty], [empty]):
            assert_matches_dense(ego, received,
                                 qcm_of(rng.uniform(0, 1, (5, 6, len(received)))), params)
            weights = dsa_weights(ego, received, qcm_of(np.ones((5, 6, len(received)))),
                                  params)  # the lone cell (4, 5) appears once
            landed = [4 * 6 + 5] if any(r is lone for r in received) else []
            assert weights.cells.tolist() == landed
            assert weights.rows.shape == (len(landed), 8)

    @pytest.mark.parametrize("case", ["none", "empty", "lone", "sparse", "every"])
    def test_gather_is_the_stacked_agents_at_the_landed_cells(self, case):
        rng = np.random.default_rng(49)
        ego = BevFeatureMap(GridSpec(7, 6, 1.0), rng.normal(size=(7, 6, 8)))
        every = [(r, c) for r in range(7) for c in range(6)]
        cells = {"none": None, "empty": [], "lone": [(3, 2)], "sparse": every[::5],
                 "every": every}[case]
        received = [None if cells is None else
                    sparse_from_dense(rng.normal(size=(7, 6, 8)), cells),
                    None, sparse_from_dense(rng.normal(size=(7, 6, 8)), every[1::7])
                    if case == "sparse" else None]
        cells, present, feats = _gather(ego, received)
        stacked, stacked_present = stack_agents(ego, received)
        assert np.array_equal(cells, np.flatnonzero(stacked_present[1:].any(axis=0)))
        assert len(cells) == {"none": 0, "empty": 0, "lone": 1, "every": 42}.get(case,
                                                                                 len(cells))
        assert same_bytes(present, stacked_present.reshape(4, -1)[:, cells])
        assert feats.flags.c_contiguous
        assert same_bytes(feats, stacked.reshape(4, -1, 8)[:, cells])

    @pytest.mark.parametrize("params", PARAMS)
    def test_fuse_copies_the_ego_only_map_it_is_given(self, params):
        rng = np.random.default_rng(50)
        ego = BevFeatureMap(GridSpec(6, 5, 1.0), rng.normal(size=(6, 5, 8)))
        received = random_received(rng, (6, 5, 8), 3, 0.2)
        weights = dsa_weights(ego, received, qcm_of(rng.uniform(0, 1, (6, 5, 3))), params)
        alone = ~weights.present[:, :, 1:].any(axis=2)
        assert alone.any() and not alone.all()
        ref = fuse(ego, weights, ego_only(ego, params))
        given = ego_only(ego, params)
        assert same_bytes(fuse(ego, weights, given).values, ref.values)
        marked = fuse(ego, weights, given + 1.0).values
        assert same_bytes(marked[alone], given[alone] + 1.0)
        assert same_bytes(marked[~alone], ref.values[~alone])
        with pytest.raises(ShapeMismatch):
            fuse(ego, weights, given[:, :4])

    @pytest.mark.parametrize("world", [{}, DENSE])
    def test_real_scenes(self, world):
        settings = RunSettings()
        scene = prepare_scene(generate(ScenarioConfig(seed=3, **world)), settings)
        shape = (scene.grid.h, scene.grid.w, settings.d_channels)
        for budget in (0.02, 0.1, 0.2, 0.5):
            result = run_pipeline(scene, "directed", budget, settings)
            received = [
                message_to_sparse(deserialize(serialize(build_message(
                    result.query, scene.collaborator_map(k), sender=k + 1))), shape)
                if result.query.bits[:, :, k].any() else None
                for k in range(scene.n_collaborators)]
            fused = assert_matches_dense(scene.ego_map(), received, result.qcm,
                                         scene.attention)
            assert same_bytes(fused.values, result.fused.values)
            got = [repr(b.as_tuple()) for b in decode(fused, settings.conf_threshold)]
            ref = decode_per_cell(fused, settings.conf_threshold)
            assert got == [repr(b.as_tuple()) for b in ref] and got


def alone(rows, params):
    """attention over (M, D) rows of the ego with no other agent."""
    return attention(rows, rows[None], np.ones((1, len(rows)), dtype=bool),
                     np.empty((0, len(rows))), params, canonical_sum)


class TestEgoOnly:
    @pytest.mark.parametrize("params", PARAMS)
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 7), (1, 513), (27, 19),
                                       (33, 31), (64, 64)])
    def test_equals_one_pass_over_the_whole_grid(self, shape, params):
        """Blocks keep each row's bits, and no row takes matmul's one-row (gemv)
        path: a 1x1 grid's lone row runs twice."""
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        values = rng.normal(size=(*shape, 8))
        values[0, 0, :3] = -0.0
        ego = BevFeatureMap(GridSpec(*shape, 1.0), values)
        rows = values.reshape(-1, 8)
        rows = rows.repeat(2, axis=0) if len(rows) == 1 else rows
        whole, weights, pre, _ = alone(rows, params)
        assert (weights == 1.0).all() and (pre == 1.0).all()
        got = ego_only(ego, params)
        assert same_bytes(got, whole[:values[..., 0].size].reshape(values.shape))
        if len(rows) > 2:  # the dense oracle's lone row would itself take gemv
            no_message = dense_dsa_weights(ego, [None], qcm_of(np.zeros((*shape, 1))),
                                           params)
            assert same_bytes(got, dense_fuse(ego, [None], no_message, params).values)

    def test_a_lone_row_would_round_apart(self):
        """Why the 1x1 case matters: with these params the one-row pass differs."""
        params = PARAMS[1]
        row = np.random.default_rng(0).normal(size=(1, 8))
        one = alone(row, params)[0]
        ego = BevFeatureMap(GridSpec(1, 1, 1.0), row.reshape(1, 1, 8))
        assert not same_bytes(ego_only(ego, params).reshape(1, 8), one)


def kernel_inputs(rng, trial):
    """Seeded kernel inputs on 1-36 rows: 2-9 agents, 1-4 heads, identity or
    random params."""
    n = int(rng.integers(2, 10))
    n_heads = int(rng.integers(1, 5))
    d = 12 if n_heads == 3 else 8
    m = int(np.prod(rng.integers(1, 7, 2)))
    params = (AttentionParams.identity(d, n_heads) if trial % 2 == 0
              else AttentionParams.random(d, n_heads, seed=trial))
    feats = rng.normal(size=(n, m, d))
    present = rng.uniform(size=(n, m)) < 0.6
    present[0] = True
    present[1:, 0] = False  # at least one cell with the ego alone
    feats[1:][~present[1:]] = 0.0
    confidence = rng.uniform(0.0, 1.0, (n - 1, m))
    confidence[rng.uniform(size=(n - 1, m)) < 0.2] = 0.0
    return feats, present, confidence, params


class TestKernelMatchesOracles:
    """The row kernel against the grid oracles fed the 1 x M grid of its rows."""

    @pytest.mark.parametrize("total", [canonical_sum, np.sum])
    def test_matches_inline_evaluation_path(self, total):
        rng = np.random.default_rng(31)
        for trial in range(40):
            feats, present, confidence, params = kernel_inputs(rng, trial)
            fused, weights, pre, _ = attention(feats[0], feats, present, confidence,
                                               params, total)
            grid = one_row_grid(feats[0], feats, present, confidence)
            ref_weights, ref_pre = hard_attention_weights(*grid, params, total)
            assert np.array_equal(weights, rows_of(ref_weights))
            assert np.array_equal(pre, rows_of(ref_pre))
            assert np.array_equal(fused, rows_of(hard_attention_pool(grid[1], ref_weights,
                                                                     params, total)))

    def test_matches_inline_training_path(self):
        rng = np.random.default_rng(32)
        for trial in range(40):
            feats, _, confidence, params = kernel_inputs(rng, trial)
            present = np.ones(feats.shape[:2], dtype=bool)
            args = (feats[0], feats, present, confidence, params, np.sum)
            got = attention(*args)
            ref = soft_attention_rows(*args)
            for a, b in zip(got[:3], ref[:3]):
                assert np.array_equal(a, b)
            assert len(got[3]) == len(ref[3]) == 5 + 2 * params.n_heads
            for a, b in zip(got[3], ref[3]):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_backward_matches_central_differences(self, n_heads):
        """attention_backward against central differences of sum(g * fused) in the
        features and the confidence, the ego's queries held fixed."""
        rng = np.random.default_rng(33 + n_heads)
        params = AttentionParams.random(4, n_heads, seed=7 + n_heads, scale=0.6)
        ego = rng.normal(size=(5, 4))
        feats = rng.normal(size=(3, 5, 4))
        confidence = rng.uniform(0.1, 0.9, (2, 5))
        present = np.ones((3, 5), dtype=bool)
        g = rng.normal(size=(5, 4))

        def objective(f, c):
            return float(np.sum(g * attention(ego, f, present, c, params, np.sum)[0]))

        tape = attention(ego, feats, present, confidence, params, np.sum)[3]
        d_feats, d_conf = attention_backward(g, tape, params)
        assert tape == []
        eps = 1e-6
        for which, grad in enumerate((d_feats, d_conf)):
            x = (feats, confidence)[which]
            numeric = np.zeros(x.shape)
            for i in np.ndindex(x.shape):
                step = np.zeros(x.shape)
                step[i] = eps
                plus, minus = [feats, confidence], [feats, confidence]
                plus[which], minus[which] = x + step, x - step
                numeric[i] = (objective(*plus) - objective(*minus)) / (2 * eps)
            assert grad.shape == x.shape
            assert np.allclose(grad, numeric, rtol=1e-6, atol=1e-8)


def fused_evidence(grid, evidence_value, cells, n_agents=1):
    values = np.zeros((grid.h, grid.w, 4))
    for r, c in cells:
        values[r, c, 0] = evidence_value
    trace = np.zeros((grid.h, grid.w, n_agents))
    return FusedMap(grid=grid, values=values, attention_trace=trace)


class TestDecode:
    def test_all_zero_map_empty(self, monkeypatch):
        def no_eigh(a):
            raise AssertionError(f"eigh called on a {a.shape} stack")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        grid = GridSpec(8, 8, 1.0)
        fused = fused_evidence(grid, 0.0, [])
        assert decode(fused, 0.5) == []

    def test_single_cell_cluster_is_isotropic(self):
        # One cell's covariance is cell^2/12 * I: equal eigenvalues take the
        # fixed (1, 0) heading, next to a bar whose heading comes from its eigenvector.
        grid = GridSpec(12, 12, 0.5)
        fused = fused_evidence(grid, 4.0, [(2, 9)] + [(r, 3) for r in range(5, 9)])
        boxes = decode(fused, 0.5)
        assert [repr(b.as_tuple()) for b in boxes] == \
            [repr(b.as_tuple()) for b in decode_per_cell(fused, 0.5)]
        dot = next(b for b in boxes if b.cy == grid.center_of(2, 9)[1])
        assert (dot.cos_a, dot.sin_a, dot.length, dot.width) == (1.0, 0.0, 0.25, 0.25)
        bar = next(b for b in boxes if b is not dot)
        assert (bar.cos_a, bar.sin_a) == (0.0, 1.0)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_dense_world_matches_per_cell_decode(self, seed):
        settings = RunSettings()
        scene = prepare_scene(generate(ScenarioConfig(seed=seed, **DENSE)), settings)
        for method in ("directed", "uniform"):
            for budget in (0.02, 0.05, 0.2):
                fused = run_pipeline(scene, method, budget, settings).fused
                got = [repr(b.as_tuple()) for b in decode(fused, settings.conf_threshold)]
                ref = decode_per_cell(fused, settings.conf_threshold)
                assert got == [repr(b.as_tuple()) for b in ref] and got

    def test_two_by_four_cluster_heading(self):
        grid = GridSpec(12, 12, 1.0)
        cells = [(r, c) for r in (5, 6) for c in (3, 4, 5, 6)]
        fused = fused_evidence(grid, 4.0, cells)
        boxes = decode(fused, 0.5)
        assert len(boxes) == 1
        box = boxes[0]
        # Long axis runs along x: canonical heading (1, 0).
        assert abs(box.cos_a) > 0.999
        assert box.cx == pytest.approx(5.0)
        assert box.cy == pytest.approx(6.0)
        assert box.length > box.width

    def test_moment_size_recovery(self):
        # With the one-cell shrink, a k-cell bar of unit cells measures k-1;
        # uncorrected moments of the cell union would measure exactly k.
        grid = GridSpec(12, 12, 1.0)
        cells = [(5, c) for c in range(2, 8)]
        fused = fused_evidence(grid, 4.0, cells)
        box = decode(fused, 0.5)[0]
        assert box.length == pytest.approx(5.0)
        assert box.width == pytest.approx(0.5)

    def test_two_separated_clusters(self):
        grid = GridSpec(12, 12, 1.0)
        fused = fused_evidence(grid, 4.0, [(1, 1), (1, 2), (9, 9), (9, 10)])
        boxes = decode(fused, 0.5)
        assert len(boxes) == 2

    def test_sorted_by_confidence(self):
        grid = GridSpec(12, 12, 1.0)
        values = np.zeros((12, 12, 4))
        values[1, 1, 0] = 1.0
        values[9, 9, 0] = 3.0
        fused = FusedMap(grid=grid, values=values,
                         attention_trace=np.zeros((12, 12, 1)))
        boxes = decode(fused, 0.5)
        assert boxes[0].cy > boxes[1].cy  # the stronger cluster first
        assert boxes[0].confidence > boxes[1].confidence

    def test_threshold_monotone_box_count(self):
        # Clusters with per-cluster-uniform evidence, as the pipeline produces:
        # raising the threshold drops whole clusters and never splits one.
        grid = GridSpec(12, 12, 1.0)
        values = np.zeros((12, 12, 4))
        for level, cells in [(0.3, [(1, 1), (1, 2)]), (0.9, [(4, 6), (5, 6)]),
                             (2.0, [(9, 2), (9, 3), (10, 2)]), (4.0, [(11, 11)])]:
            for r, c in cells:
                values[r, c, 0] = level
        fused = FusedMap(grid=grid, values=values,
                         attention_trace=np.zeros((12, 12, 1)))
        counts = [len(decode(fused, t)) for t in (0.55, 0.7, 0.85, 0.95)]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 4 and counts[-1] == 1

    def test_invalid_threshold(self):
        grid = GridSpec(4, 4, 1.0)
        fused = fused_evidence(grid, 0.0, [])
        with pytest.raises(ValueError):
            decode(fused, 0.0)


class TestClusters:
    def test_matches_full_scan_order(self):
        rng = np.random.default_rng(47)
        for trial in range(60):
            h, w = (int(v) for v in rng.integers(1, 25, 2))
            mask = rng.uniform(size=(h, w)) < rng.uniform(0.0, 0.7)
            assert _clusters(mask) == clusters_full_scan(mask)


class TestFusedMapChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-9])
    def test_trace_weight_not_finite_or_negative_rejected(self, bad):
        trace = np.zeros((2, 2, 2))
        trace[1, 0, 1] = bad
        with pytest.raises(ValueError, match="attention trace"):
            FusedMap(grid=GridSpec(2, 2, 1.0), values=np.zeros((2, 2, 4)),
                     attention_trace=trace)


class TestTraceCsv:
    def test_header_and_rows(self):
        grid = GridSpec(2, 2, 1.0)
        fused = fused_evidence(grid, 1.0, [(0, 0)], n_agents=2)
        text = attention_trace_csv(fused)
        lines = text.strip().split("\n")
        assert lines[0] == "row,col,agent,weight"
        assert len(lines) == 1 + 2 * 2 * 2

    @pytest.mark.parametrize("method", ["directed", "uniform", "single"])
    def test_real_runs_match_per_element_writer(self, method):
        settings = RunSettings()
        scene = prepare_scene(generate(ScenarioConfig(seed=5)), settings)
        for budget in (0.02, 0.2, 0.5):
            fused = run_pipeline(scene, method, budget, settings).fused
            assert attention_trace_csv(fused) == attention_trace_csv_per_element(fused)

    def test_single_agent_trace(self):
        grid = GridSpec(3, 4, 1.0)
        trace = np.arange(12.0).reshape(3, 4, 1) / 7.0
        fused = FusedMap(grid=grid, values=np.zeros((3, 4, 4)), attention_trace=trace)
        text = attention_trace_csv(fused)
        assert text == attention_trace_csv_per_element(fused)
        assert text.count("\n") == 1 + 12

    def test_signed_zero_subnormal_and_repeats(self):
        grid = GridSpec(3, 2, 1.0)
        special = [-0.0, 0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, 0.3, 1e-05, -0.0, 1.0]
        trace = np.array((special * 4)[:18]).reshape(3, 2, 3)
        fused = FusedMap(grid=grid, values=np.zeros((3, 2, 4)), attention_trace=trace)
        text = attention_trace_csv(fused)
        assert text == attention_trace_csv_per_element(fused)
        weights = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:4]]
        assert weights == [repr(np.float64(v)) for v in special[:3]]
        assert repr(np.float64(-0.0)) in text and repr(np.float64(5e-324)) in text

    def test_weights_across_every_exponent(self):
        # The text of a weight comes from the Python float's repr; numpy's repr
        # switches to exponent form at the same 1e-4 and 1e16 bounds.
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 0x7FF0000000000000, 4 * 5 * 6, dtype=np.uint64)
        trace = bits.view(np.float64).reshape(4, 5, 6).copy()
        trace[0, 0] = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1.5e16, 0.0]
        trace[0, 1] = [-0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
                       np.finfo(float).max, 123456789.125]
        fused = FusedMap(grid=GridSpec(4, 5, 1.0), values=np.zeros((4, 5, 4)),
                         attention_trace=trace)
        assert attention_trace_csv(fused) == attention_trace_csv_per_element(fused)
