import math

import numpy as np
import pytest

from dircp import direction, pipeline
from dircp.direction import (
    DirectionMask,
    DirectionScores,
    cell_sector_map,
    compute_mask,
    default_sigma1,
    direction_embedding,
)
from dircp.geometry import SectorPartition
from dircp.grid import GridSpec
from dircp.pipeline import RunSettings, prepare_scene
from dircp.scenario import ScenarioConfig, generate

from _oracles import cell_sector_map_loop, sector_of_point


def brute_force_mask(scores, interest, sigma1, sigma2):
    """Direct evaluation of the dual-threshold rule, kept naive on purpose."""
    weighted = [s * i for s, i in zip(scores, interest)]
    total = sum(weighted)
    out = []
    for v in weighted:
        rel = 0
        if total > 0.0 and v / total - sigma1 > 0.0:
            rel = 1
        ab = 1 if v - sigma2 > 0.0 else 0
        out.append(max(rel, ab))
    return tuple(out)


class TestComputeMask:
    def test_hand_case(self):
        ds = DirectionScores((8.0, 1.0, 1.0, 0.0), (1.0, 1.0, 1.0, 1.0))
        assert compute_mask(ds, 0.3, 5.0).mask == (1, 0, 0, 0)

    def test_zero_scores_zero_mask(self):
        ds = DirectionScores((0.0, 0.0, 0.0, 0.0), (0.5, 1.0, 0.2, 0.9))
        assert compute_mask(ds, 0.1, 1.0).mask == (0, 0, 0, 0)

    def test_reference_interest_weights(self):
        ds = DirectionScores((3.0, 3.0, 3.0, 3.0), (0.9, 0.9, 0.1, 0.1))
        # weighted [2.7, 2.7, 0.3, 0.3] -> shares [0.45, 0.45, 0.05, 0.05]
        assert compute_mask(ds, 0.3, 5.0).mask == (1, 1, 0, 0)

    def test_heaviside_zero_is_zero(self):
        ds = DirectionScores((5.0, 5.0), (1.0, 1.0))
        # share exactly 0.5 and sigma1 = 0.5 -> argument 0 -> off
        assert compute_mask(ds, 0.5, 5.0).mask == (0, 0)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            scores = tuple(float(x) for x in rng.uniform(0, 12, n))
            if rng.uniform() < 0.1:
                scores = tuple(0.0 for _ in scores)
            interest = tuple(float(x) for x in rng.uniform(0, 1, n))
            s1, s2 = float(rng.uniform(0, 1)), float(rng.uniform(0, 8))
            got = compute_mask(DirectionScores(scores, interest), s1, s2)
            assert got.mask == brute_force_mask(scores, interest, s1, s2)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            scores = tuple(float(x) for x in rng.uniform(0, 10, 4))
            interest = tuple(float(x) for x in rng.uniform(0, 1, 4))
            ds = DirectionScores(scores, interest)
            s1, s2 = float(rng.uniform(0, 0.9)), float(rng.uniform(0, 6))
            base = compute_mask(ds, s1, s2).mask
            up1 = compute_mask(ds, min(1.0, s1 + float(rng.uniform(0, 0.1))), s2).mask
            up2 = compute_mask(ds, s1, s2 + float(rng.uniform(0, 3))).mask
            for b, u in zip(base, up1):
                assert u <= b
            for b, u in zip(base, up2):
                assert u <= b

    def test_relative_term_scale_covariance(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            scores = tuple(float(x) for x in rng.uniform(0.01, 10, 4))
            interest = tuple(float(x) for x in rng.uniform(0.01, 1, 4))
            s1 = float(rng.uniform(0, 1))
            scale = float(rng.uniform(0.1, 50))
            # sigma2 huge disables the absolute term, isolating the relative one.
            big = 1e18
            a = compute_mask(DirectionScores(scores, interest), s1, big).mask
            scaled = tuple(s * scale for s in scores)
            b = compute_mask(DirectionScores(scaled, interest), s1, big).mask
            assert a == b

    def test_idempotent_and_recomputable(self):
        ds = DirectionScores((4.0, 2.0, 1.0, 0.0), (0.9, 0.9, 0.1, 0.1))
        m1 = compute_mask(ds, 0.25, 5.0)
        m2 = compute_mask(m1.scores, m1.sigma1, m1.sigma2)
        assert m1 == m2

    def test_invalid_inputs(self):
        ds = DirectionScores((1.0,), (1.0,))
        with pytest.raises(ValueError):
            compute_mask(ds, -0.1, 1.0)
        with pytest.raises(ValueError):
            compute_mask(ds, 0.5, -1.0)
        with pytest.raises(ValueError):
            DirectionScores((1.0, -2.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            DirectionScores((1.0, 2.0), (1.0, 1.1))

    def test_default_sigma1(self):
        assert default_sigma1(4) == 0.125


def make_mask(bits):
    n = len(bits)
    ds = DirectionScores(tuple(float(b * 10) for b in bits), tuple(1.0 for _ in bits))
    return DirectionMask(tuple(bits), 0.9, 5.0, ds)


class TestDirectionEmbedding:
    def setup_method(self):
        self.grid = GridSpec(16, 16, 1.0)
        self.partition = SectorPartition.uniform(4, frame_origin=(8.0, 8.0))
        self.sectors = cell_sector_map(self.partition, self.grid)

    def test_all_ones(self):
        de = direction_embedding(make_mask([1, 1, 1, 1]), self.sectors)
        assert de.shape == (16, 16)
        assert np.all(de == 1.0)

    def test_single_sector_matches_brute_force(self):
        de = direction_embedding(make_mask([1, 0, 0, 0]), self.sectors)
        count = 0
        for r in range(16):
            for c in range(16):
                x, y = self.grid.center_of(r, c)
                if sector_of_point(x, y, self.partition) == 0:
                    count += 1
                    assert de[r, c] == 1.0
                else:
                    assert de[r, c] == 0.0
        assert de.sum() == count

    def test_single_dir_all_off(self):
        part = SectorPartition.uniform(1, frame_origin=(8.0, 8.0))
        de = direction_embedding(make_mask([0]), cell_sector_map(part, self.grid))
        assert np.all(de == 0.0)

    def test_sum_equals_on_sector_cell_count(self):
        for bits in ([1, 0, 1, 0], [0, 1, 1, 1]):
            de = direction_embedding(make_mask(bits), self.sectors)
            expected = sum(int(np.sum(self.sectors == i)) for i, b in enumerate(bits) if b)
            assert de.sum() == expected


def non_uniform_boundaries(n_dir, rng):
    """Contiguous sectors with random cuts; every other cut on a multiple of 45."""
    cuts = set()
    while len(cuts) < n_dir - 1:
        cut = float(rng.integers(1, 8) * 45) if len(cuts) % 2 else float(rng.uniform(1, 359))
        cuts.add(cut)
    edges = [0.0] + sorted(cuts) + [360.0]
    return tuple(zip(edges[:-1], edges[1:]))


class TestCellSectorMap:
    grid = GridSpec(16, 16, 1.0)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(59)
        checked = 0
        for n_dir in range(1, 13):
            for heading in (0.0, math.pi / 4, 1e-18, float(rng.uniform(0, 2 * math.pi))):
                # Cell corner, cell center (origin cell -> sector 0), off-lattice.
                for origin in ((8.0, 8.0), (8.5, 8.5), tuple(rng.uniform(0, 16, 2))):
                    bounds = [SectorPartition.uniform(n_dir, origin, heading).boundaries]
                    if 2 <= n_dir <= 8:
                        bounds.append(non_uniform_boundaries(n_dir, rng))
                    if n_dir == 3:
                        # A sliver sector: 90 degrees is within the snap of two
                        # boundaries, and the first one wins.
                        sliver = 90.0 + 1e-10
                        bounds.append(((0.0, 90.0), (90.0, sliver), (sliver, 360.0)))
                    for b in bounds:
                        part = SectorPartition(n_dir, b, origin, heading)
                        got = cell_sector_map(part, self.grid)
                        assert got.dtype == np.int64
                        assert np.array_equal(got, cell_sector_map_loop(part, self.grid))
                        checked += 1
        assert checked > 200

    def test_origin_cell_and_wrap_to_360(self):
        # Heading 1e-18 puts the row through the origin at -5.7e-17 degrees,
        # which % 360 rounds to 360.0; the snap sends it to sector 0, not n-1.
        assert math.degrees(math.atan2(0.0, 1.0) - 1e-18) % 360.0 == 360.0
        part = SectorPartition.uniform(4, frame_origin=(8.5, 8.5), frame_heading=1e-18)
        got = cell_sector_map(part, self.grid)
        assert got[8, 8] == 0
        assert np.all(got[8, 9:] == 0)
        assert np.array_equal(got, cell_sector_map_loop(part, self.grid))


class TestCellSectorMapMemoized:
    grid = GridSpec(16, 16, 1.0)

    @pytest.mark.parametrize("boundaries,heading", [
        (((0.0, 30.0), (30.0, 135.0), (135.0, 200.5), (200.5, 360.0)), 0.0),
        (SectorPartition.uniform(4).boundaries, 1e-18),
    ])
    def test_cached_map_equals_loop_and_is_read_only(self, boundaries, heading):
        part = SectorPartition(4, boundaries, (8.5, 8.5), heading)
        first = cell_sector_map(part, self.grid)
        again = cell_sector_map(SectorPartition(4, boundaries, (8.5, 8.5), heading),
                                GridSpec(16, 16, 1.0))
        assert again is first
        assert np.array_equal(first, cell_sector_map_loop(part, self.grid))
        with pytest.raises(ValueError):
            first[0, 0] = 1

    def test_cache_is_bounded(self):
        maxsize = cell_sector_map.cache_info().maxsize
        assert maxsize is not None and maxsize * 64 * 64 * 8 <= 512 * 1024
        for k in range(maxsize + 2):
            cell_sector_map(SectorPartition.uniform(4, (8.0 + k, 8.0)), self.grid)
        assert cell_sector_map.cache_info().currsize == maxsize

    def test_worlds_of_one_config_share_the_map(self):
        settings = RunSettings()
        a, b = (prepare_scene(generate(ScenarioConfig(seed=seed)), settings)
                for seed in (5, 6))
        assert a.sector_map is b.sector_map


class TestPrepareSceneSectorMap:
    def test_one_map_per_scene_and_embedding_reads_it(self, monkeypatch):
        calls = []

        def counting(partition, grid):
            calls.append(1)
            return cell_sector_map(partition, grid)

        monkeypatch.setattr(direction, "cell_sector_map", counting)
        monkeypatch.setattr(pipeline, "cell_sector_map", counting)
        world = generate(ScenarioConfig(seed=5))
        scene = prepare_scene(world, RunSettings())
        assert len(calls) == 1
        bits = np.asarray(scene.mask.mask, dtype=np.float64)
        assert np.array_equal(scene.de, bits[scene.sector_map])
        assert np.array_equal(scene.sector_map,
                              cell_sector_map_loop(scene.partition, scene.grid))
