import numpy as np
import pytest

from dircp.comms import (
    HEADER_SIZE,
    TIE_BREAKS,
    BudgetLedger,
    FeatureMessage,
    MalformedMessage,
    QueryConfidenceMap,
    QueryMap,
    ScorerParams,
    ShapeMismatch,
    _relu_layer,
    build_message,
    clip_queries,
    deserialize,
    message_to_sparse,
    per_collaborator_budget,
    score_mlp,
    score_mlp_backward,
    score_mlp_forward,
    score_reference,
    serialize,
    top_cells,
)
from dircp.features import BevFeatureMap
from dircp.grid import GridSpec
from dircp.pipeline import RunSettings, prepare_scene, score_scene
from dircp.scenario import ScenarioConfig, generate

from _oracles import (
    clip_queries_sort,
    pack_message,
    relu_layer_row_bias,
    score_mlp_backward_outer,
    top_cells_sort,
)


DENSE = dict(n_vehicles=24, n_collaborators=8, density_profile=(0.4, 0.4, 0.1, 0.1))


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: -0.0 and +0.0 differ, so np.signbit agrees too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_inputs(rng, h=6, w=6, k=3):
    q0 = rng.uniform(0, 1, (h, w, k))
    pe = rng.uniform(0, 1, (h, w, k))
    de = (rng.uniform(0, 1, (h, w)) < 0.6).astype(float)
    return q0, pe, de


class TestScoreReference:
    def test_masked_off_scene_is_zero(self):
        rng = np.random.default_rng(0)
        q0, pe, _ = random_inputs(rng)
        c = score_reference(q0, pe, np.zeros((6, 6)))
        assert np.all(c.values == 0.0)

    def test_peak_at_collaborator(self):
        grid = GridSpec(8, 8, 1.0)
        from dircp.features import pose_embedding
        pe = pose_embedding([(4.5, 2.5, 0.0)], grid, 8.0)
        c = score_reference(np.ones((8, 8, 1)), pe, np.ones((8, 8)))
        assert c.values.argmax() == np.ravel_multi_index((2, 4, 0), c.values.shape)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        q0, pe, de = random_inputs(rng)
        c = score_reference(q0, pe, de)
        for r in range(6):
            for col in range(6):
                for k in range(3):
                    expected = min(max(de[r, col] * pe[r, col, k] * q0[r, col, k], 0.0), 1.0)
                    assert c.values[r, col, k] == expected

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            score_reference(np.ones((4, 4, 2)), np.ones((4, 4, 3)), np.ones((4, 4)))
        with pytest.raises(ShapeMismatch):
            score_reference(np.ones((4, 4, 2)), np.ones((4, 4, 2)), np.ones((5, 4)))


class TestScoreMlp:
    def test_zero_params_give_half(self):
        rng = np.random.default_rng(2)
        q0, pe, de = random_inputs(rng)
        c = score_mlp(ScorerParams.zeros(4), q0, pe, de)
        assert np.all(c.values == 0.5)

    def test_de_saturation_with_hand_weights(self):
        # Single path with large positive weight on the DE input channel.
        hidden = 4
        p = ScorerParams.zeros(hidden)
        p.w1[0, 2] = 50.0      # reads de
        p.w2[0, 0] = 50.0
        p.w3[0] = 50.0
        p.b3 = -10.0
        rng = np.random.default_rng(3)
        q0, pe, de = random_inputs(rng)
        c = score_mlp(p, q0, pe, de)
        on = de.astype(bool)
        assert np.all(c.values[on, :] > 0.99)
        assert np.all(c.values[~on, :] < 0.01)

    def test_outputs_in_open_unit_interval(self):
        rng = np.random.default_rng(4)
        q0, pe, de = random_inputs(rng)
        c = score_mlp(ScorerParams.random(6, seed=5), q0, pe, de)
        assert np.all((c.values > 0.0) & (c.values < 1.0))

    def test_param_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        q0, pe, de = random_inputs(rng, h=4, w=4, k=2)
        params = ScorerParams.random(4, seed=7)
        n = q0.size

        c, cache = score_mlp_forward(params, q0, pe, de)
        grads = score_mlp_backward(cache, np.full(c.values.shape, 1.0 / n))
        flat_g = grads.to_vector()

        def mean_out(vec):
            p = ScorerParams.from_vector(vec, 4)
            return float(score_mlp(p, q0, pe, de).values.mean())

        base = params.to_vector()
        step = 1e-4
        for i in range(len(base)):
            up, down = base.copy(), base.copy()
            up[i] += step
            down[i] -= step
            fd = (mean_out(up) - mean_out(down)) / (2 * step)
            denom = max(abs(fd), abs(flat_g[i]), 1e-8)
            assert abs(fd - flat_g[i]) / denom < 1e-4

    @pytest.mark.parametrize("hidden", [1, 3, 8, 16])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (7, 1, 1), (48, 48, 5), (64, 64, 4)],
                             ids=["rows1", "rows7", "rows11520", "rows16384"])
    @pytest.mark.parametrize("d_c_kind", ["signed_zeros", "all_negative_zero"])
    def test_mlp_matches_row_loops(self, hidden, shape, d_c_kind):
        rng = np.random.default_rng(hidden * 7919 + shape[0])
        q0, pe = rng.uniform(0, 1, shape), rng.uniform(0, 1, shape)
        de = (rng.uniform(0, 1, shape[:2]) < 0.6).astype(float)
        params = ScorerParams.random(hidden, seed=shape[0])
        # Unit 0 of each layer is dead on every row: its gradient column is all zeros.
        params.b1[0] = params.b2[0] = -1e3
        c, cache = score_mlp_forward(params, q0, pe, de)
        h1 = relu_layer_row_bias(cache["x"], params.w1, params.b1)
        assert same_bits(cache["h1"], h1)
        assert same_bits(cache["h2"], relu_layer_row_bias(h1, params.w2, params.b2))
        assert same_bits(_relu_layer(cache["x"], params.w1, params.b1), h1)
        assert not cache["h1"][:, 0].any() and not cache["h2"][:, 0].any()
        if d_c_kind == "signed_zeros":
            d_c = rng.normal(size=shape)
            u = rng.uniform(0, 1, shape)
            d_c[u < 0.2] = 0.0
            d_c[u > 0.8] = -0.0
        else:
            d_c = np.full(shape, -0.0)
        got = score_mlp_backward(cache, d_c)
        ref = score_mlp_backward_outer(cache, d_c)
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            assert same_bits(getattr(got, name), getattr(ref, name)), name

    def test_vector_round_trip(self):
        p = ScorerParams.random(5, seed=11)
        q = ScorerParams.from_vector(p.to_vector(), 5)
        assert np.array_equal(p.to_vector(), q.to_vector())


class TestClipQueries:
    def test_top_cells_matches_lexsort_rule(self):
        # Few distinct values, so most ranks are decided by the index tie-break.
        rng = np.random.default_rng(13)
        for _ in range(50):
            scores = rng.integers(0, 4, (int(rng.integers(1, 5)), 37)) / 3.0
            limit = int(rng.integers(1, 38))
            expected = [np.lexsort((np.arange(37), -row))[:limit] for row in scores]
            mask, last = top_cells(scores, limit)
            for kept, order in zip(mask, expected):
                assert np.array_equal(np.flatnonzero(kept), np.sort(order))
            assert np.array_equal(last, [order[-1] for order in expected])
            mask, last = top_cells(scores[0], limit)
            assert np.array_equal(np.flatnonzero(mask), np.sort(expected[0]))
            assert last == expected[0][-1]

    @pytest.mark.parametrize("limit", [-1, 0, 38])
    def test_top_cells_rejects_limit_outside_range(self, limit):
        with pytest.raises(ValueError, match="limit"):
            top_cells(np.zeros((2, 37)), limit)

    @pytest.mark.parametrize("values", [[0.5, np.nan, np.nan, np.nan], [np.nan],
                                        [0.2, -0.1], [1.5, 0.3], [0.4, np.inf]])
    def test_confidence_outside_unit_interval_rejected(self, values):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            QueryConfidenceMap(np.array(values).reshape(1, -1, 1))

    def test_hand_top2(self):
        c = QueryConfidenceMap(np.array([[[0.9], [0.1]], [[0.4], [0.7]]]))
        q = clip_queries(c, 0.5)
        assert q.bits[:, :, 0].tolist() == [[1, 0], [0, 1]]

    def test_zero_budget(self):
        rng = np.random.default_rng(8)
        c = QueryConfidenceMap(rng.uniform(0, 1, (4, 4, 2)))
        assert clip_queries(c, 0.0).bits.sum() == 0

    def test_full_budget_all_positive(self):
        rng = np.random.default_rng(9)
        c = QueryConfidenceMap(rng.uniform(0.01, 1, (4, 4, 2)))
        assert clip_queries(c, 1.0).bits.all()

    def test_zero_confidence_never_selected(self):
        vals = np.zeros((4, 4, 1))
        vals[0, 0, 0] = 0.8
        q = clip_queries(QueryConfidenceMap(vals), 1.0)
        assert q.bits.sum() == 1

    def test_budget_safety_random(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            h, w, k = rng.integers(1, 9), rng.integers(1, 9), rng.integers(1, 5)
            q_max = float(rng.uniform(0, 1))
            c = QueryConfidenceMap(rng.uniform(0, 1, (h, w, k)))
            bits = clip_queries(c, q_max).bits
            per = per_collaborator_budget(q_max, h, w)
            assert bits.sum() <= q_max * h * w * k + 1e-9
            for ch in range(k):
                assert bits[:, :, ch].sum() <= per

    def test_budget_monotonicity(self):
        rng = np.random.default_rng(12)
        c = QueryConfidenceMap(rng.uniform(0, 1, (6, 6, 3)))
        prev = np.zeros((6, 6, 3), dtype=np.uint8)
        for q_max in (0.0, 0.1, 0.3, 0.55, 0.8, 1.0):
            bits = clip_queries(c, q_max).bits
            assert np.all(bits[prev == 1] == 1)
            prev = bits

    def test_mask_dominance(self):
        rng = np.random.default_rng(13)
        q0, pe, de = random_inputs(rng)
        c = score_reference(q0, pe, de)
        bits = clip_queries(c, 1.0).bits
        off = de == 0.0
        assert bits[off, :].sum() == 0

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        vals = rng.uniform(0, 1, (8, 8, 2))
        a = clip_queries(QueryConfidenceMap(vals), 0.37).bits
        b = clip_queries(QueryConfidenceMap(vals.copy()), 0.37).bits
        assert np.array_equal(a, b)

    def test_tie_break_row_col_order(self):
        vals = np.full((2, 2, 1), 0.5)
        q = clip_queries(QueryConfidenceMap(vals), 0.5)
        # Two slots, all tied: (0,0) then (0,1) win.
        assert q.bits[:, :, 0].tolist() == [[1, 1], [0, 0]]

    def test_global_mode_aggregate_bound(self):
        rng = np.random.default_rng(15)
        c = QueryConfidenceMap(rng.uniform(0, 1, (5, 5, 3)))
        bits = clip_queries(c, 0.2, tie_break="global").bits
        assert bits.sum() <= int(0.2 * 5 * 5 * 3)


def tied_scores(rng, n):
    """Five score rows in [0, 1] for n cells: half 0.0, signed zeros, few repeated
    values, all equal, and distinct values."""
    return np.array([np.where(rng.uniform(0, 1, n) < 0.5, 0.0, rng.integers(1, 5, n) / 4.0),
                     rng.choice([0.0, -0.0, 0.5], n),
                     rng.integers(0, 3, n) / 2.0,
                     np.full(n, 0.25),
                     rng.uniform(0, 1, n)])


class TestTopCellsMatchesSort:
    @pytest.mark.parametrize("n", [1, 2, 7, 37, 64])
    def test_mask_and_last_index_at_every_limit(self, n):
        rng = np.random.default_rng(n)
        rows = tied_scores(rng, n)
        # One row per collaborator, and every cell in one row as the global mode ranks.
        for scores in (rows, rows.T.reshape(1, -1)):
            for limit in range(1, scores.shape[1] + 1):
                mask, last = top_cells(scores, limit)
                order = top_cells_sort(scores, limit)
                expected = np.zeros(scores.shape, dtype=bool)
                np.put_along_axis(expected, order, True, axis=1)
                assert np.array_equal(mask, expected)
                assert np.array_equal(last, order[:, -1])

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_clip_on_tied_scores(self, tie_break):
        rng = np.random.default_rng(21)
        for n in (1, 6, 36):
            c = QueryConfidenceMap(tied_scores(rng, n).T.reshape(n, 1, 5))
            for q_max in np.linspace(0.0, 1.0, 2 * n + 1):
                assert same_bits(clip_queries(c, q_max, tie_break).bits,
                                 clip_queries_sort(c, q_max, tie_break))

    @pytest.mark.parametrize("world", [{}, DENSE], ids=["default", "dense"])
    def test_clip_on_world_scores(self, world):
        settings = RunSettings()
        for seed in (0, 11):
            scene = prepare_scene(generate(ScenarioConfig(seed=seed, **world)), settings)
            maps = {"directed": score_scene(scene, scene.de, None),
                    "uniform": score_scene(scene, np.ones_like(scene.de), None),
                    "mlp": score_scene(scene, scene.de,
                                       ScorerParams.random(8, seed=seed))}
            for name, c in maps.items():
                for q_max in (0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0):
                    for tie_break in TIE_BREAKS:
                        assert same_bits(clip_queries(c, q_max, tie_break).bits,
                                         clip_queries_sort(c, q_max, tie_break)), \
                            (seed, name, q_max, tie_break)


def make_features(grid, seed=0):
    rng = np.random.default_rng(seed)
    return BevFeatureMap(grid, rng.normal(size=(grid.h, grid.w, 8)))


class TestQueryMapBits:
    @pytest.mark.parametrize("bad,dtype", [(2, np.int64), (2, np.uint8), (-1, np.int64),
                                           (0.5, np.float64), (np.nan, np.float64)])
    def test_non_binary_bits_rejected(self, bad, dtype):
        bits = np.zeros((2, 3, 2), dtype=dtype)
        bits[1, 2, 0] = bad
        with pytest.raises(ValueError, match="binary"):
            QueryMap(bits, 1.0)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64])
    def test_binary_bits_accepted(self, dtype):
        bits = np.array([[[1, 0], [0, 0]], [[0, 1], [1, 1]]]).astype(dtype)
        q = QueryMap(bits, 1.0)
        assert q.bits.dtype == np.uint8
        assert q.bits.tolist() == bits.astype(int).tolist()


class TestMessages:
    def test_empty_query_empty_message(self):
        grid = GridSpec(4, 4, 1.0)
        q = QueryMap(np.zeros((4, 4, 2), dtype=np.uint8), 0.0)
        msg = build_message(q, make_features(grid), sender=1)
        assert len(msg.rows) == 0 and msg.values.shape == (0, 8)
        assert msg.payload_bytes == HEADER_SIZE
        assert serialize(msg) == serialize(msg)
        assert len(serialize(msg)) == HEADER_SIZE

    def test_full_query_all_cells(self):
        grid = GridSpec(4, 4, 1.0)
        q = QueryMap(np.ones((4, 4, 1), dtype=np.uint8), 1.0)
        msg = build_message(q, make_features(grid), sender=1)
        assert len(msg.rows) == 16

    def test_entry_sizes(self):
        grid = GridSpec(4, 4, 1.0)
        bits = np.zeros((4, 4, 1), dtype=np.uint8)
        bits[2, 3, 0] = 1
        msg = build_message(QueryMap(bits, 1.0), make_features(grid), sender=1)
        # One entry at D=8: row u16 + col u16 + 8 f32 = 36 bytes after the header.
        assert msg.payload_bytes == HEADER_SIZE + 36
        assert len(serialize(msg)) == msg.payload_bytes

    def test_round_trip_random(self):
        grid = GridSpec(8, 8, 1.0)
        rng = np.random.default_rng(16)
        for i in range(50):
            bits = (rng.uniform(size=(8, 8, 3)) < 0.2).astype(np.uint8)
            q = QueryMap(bits, 1.0)
            sender = int(rng.integers(1, 4))
            msg = build_message(q, make_features(grid, seed=i), sender=sender)
            again = deserialize(serialize(msg))
            assert again == msg

    def test_bad_magic_rejected(self):
        grid = GridSpec(4, 4, 1.0)
        msg = build_message(QueryMap(np.zeros((4, 4, 1), dtype=np.uint8), 0.0),
                            make_features(grid), sender=1)
        data = bytearray(serialize(msg))
        data[0] = ord("X")
        with pytest.raises(MalformedMessage):
            deserialize(bytes(data))

    def test_truncation_rejected(self):
        grid = GridSpec(4, 4, 1.0)
        bits = np.ones((4, 4, 1), dtype=np.uint8)
        msg = build_message(QueryMap(bits, 1.0), make_features(grid), sender=1)
        data = serialize(msg)
        with pytest.raises(MalformedMessage):
            deserialize(data[:-1])
        with pytest.raises(MalformedMessage):
            deserialize(data + b"\x00")

    def test_out_of_range_indices_rejected(self):
        msg = FeatureMessage(sender=1, receiver=0, rows=np.array([7]), cols=np.array([7]),
                             values=np.zeros((1, 2), dtype=np.float32))
        received = deserialize(serialize(msg))
        assert received == msg  # the grid is checked on receipt, not on the wire
        with pytest.raises(MalformedMessage, match=r"sender 1: entry \(7, 7\) outside 4x4"):
            message_to_sparse(received, (4, 4, 2))
        with pytest.raises(MalformedMessage, match=r"\(7, 7\) outside 8x7"):
            message_to_sparse(received, (8, 7, 2))
        assert message_to_sparse(received, (8, 8, 2)).rows.tolist() == [7]

    def test_serialize_matches_struct_oracle(self):
        grid = GridSpec(8, 8, 1.0)
        rng = np.random.default_rng(17)
        for i in range(20):
            bits = (rng.uniform(size=(8, 8, 2)) < 0.3).astype(np.uint8)
            msg = build_message(QueryMap(bits, 1.0), make_features(grid, seed=i),
                                sender=2, receiver=int(rng.integers(0, 5)))
            assert serialize(msg) == pack_message(msg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        values = np.ones((3, 2), dtype=np.float32)
        values[1, 1] = bad
        msg = FeatureMessage(sender=1, receiver=0, rows=np.array([0, 1, 2]),
                             cols=np.array([0, 1, 2]), values=values)
        with pytest.raises(MalformedMessage, match="non-finite"):
            deserialize(serialize(msg))

    def test_duplicate_cell_parses(self):
        # Duplicates are a map-level defect (message_to_sparse), not a wire defect.
        msg = FeatureMessage(sender=1, receiver=0, rows=np.array([3, 3]),
                             cols=np.array([1, 1]),
                             values=np.arange(4, dtype=np.float32).reshape(2, 2))
        assert deserialize(serialize(msg)) == msg

    def test_duplicate_cell_rejected_on_receipt(self):
        msg = FeatureMessage(sender=2, receiver=0, rows=np.array([0, 3, 1, 3]),
                             cols=np.array([2, 1, 0, 1]),
                             values=np.zeros((4, 2), dtype=np.float32))
        with pytest.raises(MalformedMessage, match=r"sender 2: duplicate entry \(3, 1\)"):
            message_to_sparse(deserialize(serialize(msg)), (4, 4, 2))

    def test_entry_count_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            FeatureMessage(sender=1, receiver=0, rows=np.array([0, 1]), cols=np.array([0]),
                           values=np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(ShapeMismatch):
            FeatureMessage(sender=1, receiver=0, rows=np.array([0]), cols=np.array([0]),
                           values=np.zeros((2, 2), dtype=np.float32))

    def test_cell_outside_u16_not_serialized(self):
        msg = FeatureMessage(sender=1, receiver=0, rows=np.array([0x10000]),
                             cols=np.array([0]), values=np.zeros((1, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="u16"):
            serialize(msg)

    def test_sparse_round_trip(self):
        grid = GridSpec(4, 4, 1.0)
        bits = np.zeros((4, 4, 1), dtype=np.uint8)
        bits[1, 2, 0] = 1
        fm = make_features(grid)
        msg = build_message(QueryMap(bits, 1.0), fm, sender=1)
        sparse = message_to_sparse(msg, (4, 4, 8))
        from dircp.features import densify
        dense = densify(sparse)
        assert np.array_equal(dense[1, 2], fm.values[1, 2].astype(np.float32))

    def test_ledger(self):
        grid = GridSpec(4, 4, 1.0)
        ledger = BudgetLedger()
        bits = np.zeros((4, 4, 2), dtype=np.uint8)
        bits[0, 0, 0] = 1
        q = QueryMap(bits, 1.0)
        for sender in (1, 2):
            ledger.record(build_message(q, make_features(grid), sender=sender))
        assert ledger.messages == 2
        assert ledger.total_entries == 1
        assert ledger.total_bytes == 2 * HEADER_SIZE + 36
