import math

import numpy as np
import pytest

from dircp.features import (
    BevFeatureMap,
    SparseFeatureMap,
    densify,
    encode,
    pose_embedding,
    positional_channels,
)
from dircp.grid import GridSpec
from dircp.scenario import generate, observe, ScenarioConfig


GRID = GridSpec(16, 16, 1.0)


class TestEncode:
    def test_zero_observation(self):
        zero = np.zeros((16, 16))
        fmap = encode(zero, 8, GRID, (8.0, 8.0), 10.0)
        assert np.all(fmap.values[:, :, 0] == 0.0)
        # Other channels do not depend on evidence.
        one = zero.copy()
        one[3, 4] = 1.0
        fmap2 = encode(one, 8, GRID, (8.0, 8.0), 10.0)
        assert np.array_equal(fmap.values[:, :, 1:], fmap2.values[:, :, 1:])

    def test_single_cell_locality(self):
        obs = np.zeros((16, 16))
        obs[5, 9] = 1.0
        fmap = encode(obs, 4, GRID, (0.0, 0.0), 10.0)
        nz = np.nonzero(fmap.values[:, :, 0])
        assert list(zip(*nz)) == [(5, 9)]

    def test_channel0_sum_matches_observation(self):
        world = generate(ScenarioConfig(seed=7, area_side=16.0, n_collaborators=1,
                                        n_vehicles=3, sensor_range=20.0,
                                        occlusion_enabled=False))
        obs = observe(world, 0)
        fmap = encode(obs, 8, world.grid, (8.0, 8.0), 20.0)
        assert fmap.values[:, :, 0].sum() == obs.sum()

    def test_decay_channel_formula(self):
        fmap = encode(np.zeros((16, 16)), 2, GRID, (3.0, 4.0), 12.0)
        for r, c in [(0, 0), (7, 11), (15, 15)]:
            x, y = GRID.center_of(r, c)
            d = math.hypot(x - 3.0, y - 4.0)
            assert fmap.values[r, c, 1] == pytest.approx(math.exp(-d / 12.0), abs=1e-12)

    def test_positional_channels_pointwise(self):
        pos = positional_channels(GRID, 6)
        for r, c in [(0, 0), (5, 9), (15, 2)]:
            ux, uy = (c + 0.5) / 16.0, (r + 0.5) / 16.0
            assert pos[r, c, 0] == pytest.approx(math.sin(2 * math.pi * ux))
            assert pos[r, c, 1] == pytest.approx(math.sin(2 * math.pi * ux + math.pi / 2))
            assert pos[r, c, 2] == pytest.approx(math.sin(2 * math.pi * uy))
            assert pos[r, c, 3] == pytest.approx(math.sin(2 * math.pi * uy + math.pi / 2))
            assert pos[r, c, 4] == pytest.approx(math.sin(4 * math.pi * ux))

    def test_positional_channels_memoized_and_read_only(self):
        pos = positional_channels(GridSpec(16, 16, 1.0), 6)
        assert positional_channels(GridSpec(16, 16, 1.0), 6) is pos
        with pytest.raises(ValueError):
            pos[0, 0, 0] = 1.0
        # encode copies the shared array into each agent's own, writable values.
        a, b = (encode(np.zeros((16, 16)), 8, GRID, xy, 10.0) for xy in ((1, 2), (3, 4)))
        assert np.array_equal(a.values[:, :, 2:], pos) and a.values.flags.writeable
        assert not np.shares_memory(a.values, pos) and not np.shares_memory(a.values, b.values)

    def test_positional_channels_cache_is_bounded(self):
        maxsize = positional_channels.cache_info().maxsize
        assert maxsize is not None
        assert maxsize * positional_channels(GridSpec(64, 64, 1.0), 6).nbytes <= 512 * 1024
        for n in range(1, maxsize + 3):
            positional_channels(GRID, n)
        assert positional_channels.cache_info().currsize == maxsize

    def test_needs_two_channels(self):
        with pytest.raises(ValueError):
            encode(np.zeros((16, 16)), 1, GRID, (0, 0), 10.0)


class TestSparse:
    def test_round_trip_is_hadamard(self):
        rng = np.random.default_rng(9)
        fmap = BevFeatureMap(GRID, rng.normal(size=(16, 16, 4)))
        bits = (rng.uniform(size=(16, 16)) < 0.3).astype(np.uint8)
        rows, cols = np.nonzero(bits)
        sparse = SparseFeatureMap(rows, cols, fmap.values[rows, cols], (16, 16, 4))
        dense = densify(sparse)
        assert np.array_equal(dense, fmap.values * bits[:, :, None])

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseFeatureMap(np.array([1, 2, 1]), np.array([0, 3, 0]),
                             np.zeros((3, 2)), (4, 4, 2))

    def test_duplicates_rejected_sorted_or_not(self):
        for rows, cols in (([0, 1, 1, 2], [3, 0, 0, 1]), ([2, 0, 2], [1, 0, 1]),
                           ([3, 3], [3, 3])):
            with pytest.raises(ValueError, match="duplicate"):
                SparseFeatureMap(np.array(rows), np.array(cols),
                                 np.zeros((len(rows), 2)), (4, 4, 2))

    def test_unsorted_unique_entries_accepted(self):
        rows, cols = np.array([3, 0, 2, 0]), np.array([1, 2, 0, 0])
        sparse = SparseFeatureMap(rows, cols, np.arange(8.0).reshape(4, 2), (4, 4, 2))
        assert sparse.rows.tolist() == [3, 0, 2, 0] and sparse.cols.tolist() == [1, 2, 0, 0]

    def test_out_of_range_rejected(self):
        for row, col in ((5, 0), (0, 4), (-1, 0)):
            with pytest.raises(ValueError, match="outside"):
                SparseFeatureMap(np.array([0, row]), np.array([0, col]),
                                 np.zeros((2, 2)), (4, 4, 2))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            SparseFeatureMap(np.array([0]), np.array([0]), np.zeros((1, 3)), (4, 4, 2))


class TestPoseEmbedding:
    def test_peak_at_collaborator_cell(self):
        pe = pose_embedding([(8.5, 3.5, 0.0)], GRID, 16.0)
        assert pe.shape == (16, 16, 1)
        assert pe[3, 8, 0] == 1.0
        assert pe.argmax() == np.ravel_multi_index((3, 8, 0), pe.shape)

    def test_channel_permutation(self):
        a = (2.5, 2.5, 0.0)
        b = (12.5, 9.5, 1.0)
        pe_ab = pose_embedding([a, b], GRID, 16.0)
        pe_ba = pose_embedding([b, a], GRID, 16.0)
        assert np.array_equal(pe_ab[:, :, 0], pe_ba[:, :, 1])
        assert np.array_equal(pe_ab[:, :, 1], pe_ba[:, :, 0])

    def test_pointwise_formula(self):
        pe = pose_embedding([(5.0, 7.0, 0.3)], GRID, 16.0)
        for r, c in [(0, 0), (9, 4), (15, 15)]:
            x, y = GRID.center_of(r, c)
            expected = math.exp(-math.hypot(x - 5.0, y - 7.0) / 16.0)
            assert pe[r, c, 0] == pytest.approx(expected, abs=1e-12)

