import math

import numpy as np
import pytest

from dircp import scenario
from dircp.geometry import RotatedBox, intersection_area, iou, sector_of
from dircp.grid import GridSpec
from dircp.learn import rasterize_truth
from dircp.scenario import (
    VEHICLE_LENGTH_RANGE,
    VEHICLE_WIDTH_RANGE,
    PlacementExhausted,
    ScenarioConfig,
    UnknownAgent,
    _box_arrays,
    _footprints,
    _observe_grid,
    cell_dropout_uniforms,
    export_scene,
    generate,
    observe,
    rsu_observe,
    scene_to_dict,
)

from _oracles import (
    clip_area,
    footprint_cells_per_cell,
    footprints_per_cell,
    observe_grid_per_blocker,
    observe_grid_per_vehicle,
    placement_scalar_draws,
)


def observe_arrays(vehicles, grid):
    """The per-world arrays generate hands _observe_grid."""
    rows, cols, owner = _footprints(vehicles, grid)[1]
    return rows, cols, owner, grid.centers[rows, cols], _box_arrays(vehicles)


def small_config(**kw):
    base = dict(seed=42, area_side=32.0, n_collaborators=2, n_vehicles=4,
                sensor_range=40.0, occlusion_enabled=False, dropout_prob=0.0)
    base.update(kw)
    return ScenarioConfig(**base)


class TestConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_vehicles=0)
        with pytest.raises(ValueError):
            ScenarioConfig(n_collaborators=-1)
        with pytest.raises(ValueError):
            ScenarioConfig(density_profile=(0.0, 0.0))
        with pytest.raises(ValueError):
            ScenarioConfig(density_profile=(1.0, -0.5))
        with pytest.raises(ValueError):
            ScenarioConfig(dropout_prob=1.5)

    @pytest.mark.parametrize("field", ["area_side", "sensor_range"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_lengths_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("field", ["area_side", "sensor_range"])
    def test_lengths_with_infinite_squares_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be positive, with a finite square"):
            ScenarioConfig(**{field: 1e308})
        ScenarioConfig(**{field: 1e154})


class TestGenerate:
    def test_vehicle_count_conserved(self):
        world = generate(small_config(n_vehicles=1))
        assert len(world.vehicles) == 1

    def test_deterministic_same_seed(self):
        a = generate(small_config(seed=42, dropout_prob=0.3, occlusion_enabled=True))
        b = generate(small_config(seed=42, dropout_prob=0.3, occlusion_enabled=True))
        assert a.vehicles == b.vehicles
        assert a.collaborator_poses == b.collaborator_poses
        assert np.array_equal(a.per_agent_observations, b.per_agent_observations)

    def test_different_seed_differs(self):
        a = generate(small_config(seed=42))
        b = generate(small_config(seed=43))
        assert a.vehicles != b.vehicles

    def test_density_concentration(self):
        world = generate(small_config(seed=7, density_profile=(1.0, 0.0, 0.0, 0.0),
                                      n_vehicles=3))
        for v in world.vehicles:
            assert sector_of(v, world.partition) == 0

    def test_centers_inside_area_and_no_overlap(self):
        world = generate(small_config(seed=11, n_vehicles=6, area_side=48.0))
        for v in world.vehicles:
            assert 0.0 <= v.cx <= 48.0 and 0.0 <= v.cy <= 48.0
        for i, a in enumerate(world.vehicles):
            for b in world.vehicles[i + 1:]:
                assert iou(a, b) <= 0.1

    def test_placement_exhausted(self):
        with pytest.raises(PlacementExhausted):
            generate(ScenarioConfig(seed=1, area_side=12.0, n_collaborators=0,
                                    n_vehicles=40, sensor_range=10.0))

    @pytest.mark.parametrize("seed,kw", [(1, dict(area_side=12.0, n_collaborators=0)),
                                         (2, dict(area_side=20.0, n_collaborators=3))])
    def test_placement_exhausted_at_the_reference_vehicle(self, seed, kw):
        cfg = ScenarioConfig(seed=seed, n_vehicles=40, sensor_range=10.0, **kw)
        with pytest.raises(PlacementExhausted) as ref:
            placement_scalar_draws(cfg)
        placed = ref.value.args[0]
        assert placed > 0
        with pytest.raises(PlacementExhausted) as got:
            generate(cfg)
        assert str(got.value) == f"could not place vehicle {placed} after 10000 attempts"

    def test_ego_heading_plus_x_at_center(self):
        world = generate(small_config())
        assert world.ego_pose == (16.0, 16.0, 0.0)

    def test_collaborator_distance_range(self):
        world = generate(small_config(seed=3, n_collaborators=8, area_side=64.0))
        for x, y, _ in world.collaborator_poses:
            d = math.hypot(x - 32.0, y - 32.0)
            assert 10.0 - 1e-9 <= d <= 32.0 + 1e-9


class TestObserve:
    def test_unoccluded_vehicle_fully_evident(self):
        world = generate(small_config(seed=5, n_vehicles=1, occlusion_enabled=True))
        ev = observe(world, 0)
        for r, c in world.vehicle_cells[0]:
            assert ev[r, c] == 1

    def test_unknown_agent(self):
        world = generate(small_config())
        with pytest.raises(UnknownAgent):
            observe(world, 99)

    def test_full_dropout_zeroes_grid(self):
        world = generate(small_config(seed=5, dropout_prob=1.0))
        assert observe(world, 0).sum() == 0

    def test_occlusion_blocks_far_vehicle(self):
        # Two-box collinear construction: agent at origin-side looking +x,
        # near vehicle fully shadows the far vehicle on the same ray.
        grid = GridSpec(32, 32, 1.0)
        cfg = small_config(occlusion_enabled=True)
        near = RotatedBox(1.0, 10.0, 16.0, 4.0, 2.0, 1.0, 0.0)
        far = RotatedBox(1.0, 20.0, 16.0, 4.0, 2.0, 1.0, 0.0)
        vehicles = [near, far]
        cells = _footprints(vehicles, grid)[0]
        arrays = observe_arrays(vehicles, grid)
        ev = _observe_grid(cfg, grid, (2.0, 16.0), 0, arrays)
        assert all(ev[r, c] == 1 for r, c in cells[0])
        assert all(ev[r, c] == 0 for r, c in cells[1])
        # Same construction without occlusion sees both.
        cfg_no = small_config(occlusion_enabled=False)
        ev_no = _observe_grid(cfg_no, grid, (2.0, 16.0), 0, arrays)
        assert all(ev_no[r, c] == 1 for r, c in cells[1])

    def test_sensor_range_monotonicity(self):
        base = small_config(seed=9, sensor_range=10.0, dropout_prob=0.4,
                            occlusion_enabled=True, n_vehicles=6)
        wider = small_config(seed=9, sensor_range=25.0, dropout_prob=0.4,
                             occlusion_enabled=True, n_vehicles=6)
        ev_small = observe(generate(base), 0)
        ev_big = observe(generate(wider), 0)
        assert np.all(ev_big[ev_small == 1] == 1)

    def test_dropout_keyed_per_cell(self):
        u1 = cell_dropout_uniforms(123, 0, 16, 16)
        u2 = cell_dropout_uniforms(123, 0, 16, 16)
        u3 = cell_dropout_uniforms(123, 1, 16, 16)
        assert np.array_equal(u1, u2)
        assert not np.array_equal(u1, u3)
        assert u1.min() >= 0.0 and u1.max() < 1.0


DENSE = dict(n_vehicles=24, n_collaborators=8, density_profile=(0.4, 0.4, 0.1, 0.1))


class TestMatchesReference:
    """generate against itself with the per-blocker occlusion loop, the per-cell
    footprint clip and the unrejected polygon clip of every keep-out pair
    patched in, so the reference runs none of the batched code.
    """

    @pytest.mark.parametrize("seed,kw", [
        (1, DENSE), (2, DENSE), (3, {}), (4, {}),
        (5, dict(DENSE, occlusion_enabled=False)),
        (6, dict(DENSE, dropout_prob=0.3)), (7, dict(dropout_prob=0.5)),
        (11, DENSE), (12, DENSE), (13, {}), (14, {}),
    ])
    def test_world_matches_reference(self, monkeypatch, seed, kw):
        cfg = ScenarioConfig(seed=seed, **kw)
        world = generate(cfg)
        monkeypatch.setattr(scenario, "_observe_grid", observe_grid_per_blocker)
        monkeypatch.setattr(scenario, "_footprints", footprints_per_cell)
        monkeypatch.setattr(scenario, "intersection_area", clip_area)
        ref = generate(cfg)
        assert world.vehicles == ref.vehicles
        assert world.vehicle_cells == ref.vehicle_cells
        assert world.per_agent_observations.dtype == ref.per_agent_observations.dtype
        assert np.array_equal(world.per_agent_observations, ref.per_agent_observations)


class TestPlacementMatchesScalarDraws:
    """Placement's block draws against one Generator.uniform call per value."""

    @pytest.mark.parametrize("kw", [{}, DENSE])
    def test_vehicles_and_poses(self, kw):
        for seed in range(200):
            cfg = ScenarioConfig(seed=seed, **kw)
            world = generate(cfg)
            assert (world.collaborator_poses, world.vehicles) == placement_scalar_draws(cfg)

    @pytest.mark.parametrize("side", [64.0, 32.0, 12.0, 100.5])
    def test_block_value_is_generator_uniform(self, side):
        bounds = [(0.0, side), (0.0, side), (0.0, 1.0), VEHICLE_LENGTH_RANGE,
                  VEHICLE_WIDTH_RANGE, (0.0, 2.0 * math.pi)]
        lo, hi = np.array(bounds).T
        block = (lo + (hi - lo) * np.random.default_rng(7).random((500, 6))).tolist()
        rng = np.random.default_rng(7)
        scalar = [[rng.uniform(a, b) for a, b in bounds] for _ in range(500)]
        assert block == scalar


def count_clips(monkeypatch):
    """Count the polygon clips _footprints falls back to."""
    calls = []

    def counted(a, b):
        calls.append(b)
        return intersection_area(a, b)

    monkeypatch.setattr(scenario, "intersection_area", counted)
    return calls


class TestFootprintCells:
    """The separating-axis footprint, one box at a time unless stated, against
    the per-cell clip it replaced."""

    def assert_matches(self, box, grid):
        [got], (rows, cols, owner) = _footprints([box], grid)
        assert got == footprint_cells_per_cell(box, grid)
        assert list(zip(rows.tolist(), cols.tolist())) == got and not owner.any()
        assert all(type(r) is int and type(c) is int for r, c in got)
        return got

    def test_aligned_box_on_cell_lines_leaves_touched_cells_out(self, monkeypatch):
        clips = count_clips(monkeypatch)
        grid = GridSpec(16, 16, 1.0)
        for box in (RotatedBox(1.0, 6.0, 5.0, 4.0, 2.0, 1.0, 0.0),
                    RotatedBox(1.0, 6.0, 5.0, 2.0, 4.0, 0.0, 1.0)):
            got = self.assert_matches(box, grid)
            assert sorted(got) == [(r, c) for r in (4, 5) for c in (4, 5, 6, 7)]
        assert clips  # the cells along the edges went through the fallback

    def test_diamond_touching_a_cell_corner(self, monkeypatch):
        clips = count_clips(monkeypatch)
        grid = GridSpec(16, 16, 1.0)
        a = math.pi / 4
        for eps in (0.0, 1e-12, -1e-12, 1e-7, -1e-7, 1e-5, -2e-5):
            # The lowest corner of a 45-degree box sits on the cell corner (5, 6),
            # so the box touches the row below only at that point.
            box = RotatedBox(1.0, 5.0 + eps + 2.0 * math.cos(a) - 1.0 * math.sin(a),
                             6.0 + 2.0 * math.sin(a) + 1.0 * math.cos(a),
                             4.0, 2.0, math.cos(a), math.sin(a))
            got = self.assert_matches(box, grid)
            assert (5, 4) not in got and (5, 5) not in got
            assert (6, 4) in got and (6, 5) in got
        assert clips

    def test_half_metre_cells_and_offset_origin(self, monkeypatch):
        clips = count_clips(monkeypatch)
        grid = GridSpec(40, 48, 0.5, origin_x=-3.25, origin_y=1.5)
        rng = np.random.default_rng(91)
        for _ in range(300):
            r, c = (int(v) for v in rng.integers(2, 30, 2))
            x0, y0 = grid.origin_x + c * 0.5, grid.origin_y + r * 0.5
            n_l, n_w = (int(v) for v in rng.integers(1, 9, 2))
            off = float(rng.choice([0.0, 1e-9, -1e-9, 1e-6, -3e-6, 0.25]))
            box = RotatedBox(1.0, x0 + 0.25 * n_l + off, y0 + 0.25 * n_w, 0.5 * n_l,
                             0.5 * n_w, 1.0, 0.0)
            self.assert_matches(box, grid)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            self.assert_matches(RotatedBox.from_angle(1.0, x0, y0, rng.uniform(0.2, 5.0),
                                                      rng.uniform(0.2, 2.5), ang), grid)
        assert clips

    def test_boxes_near_the_area_threshold(self):
        # A box inside one cell overlaps it by its own area, which can sit at or
        # below the 1e-12 the clip needs, however far the box is from the edges.
        grid = GridSpec(8, 8, 1.0)
        for side, inside in ((1e-7, False), (1e-6, None), (1.0000001e-6, None),
                             (2e-6, True), (1e-4, True)):
            for ang in (0.0, 0.7):
                got = self.assert_matches(
                    RotatedBox.from_angle(1.0, 3.3, 4.6, side, side, ang), grid)
                assert inside is None or got == ([(4, 3)] if inside else [])
        for width in (1e-13, 1e-12, 1e-9):
            self.assert_matches(RotatedBox(1.0, 3.3, 4.6, 3.0, width, 0.6, 0.8), grid)

    def test_box_partly_or_wholly_off_the_grid(self):
        grid = GridSpec(8, 10, 1.0, origin_x=2.0)
        for cx, cy in ((2.5, 4.0), (11.8, 7.9), (-5.0, 4.0), (6.0, 30.0)):
            for ang in (0.0, 0.3, math.pi / 4):
                self.assert_matches(RotatedBox.from_angle(1.0, cx, cy, 4.5, 1.8, ang), grid)
        assert _footprints([RotatedBox(1.0, -5.0, 4.0, 2.0, 1.0, 1.0, 0.0)], grid)[0] == [[]]

    def test_many_boxes_in_one_pass(self, monkeypatch):
        clips = count_clips(monkeypatch)
        grid = GridSpec(8, 10, 1.0, origin_x=2.0)
        rng = np.random.default_rng(17)
        boxes = [RotatedBox.from_angle(1.0, *rng.uniform(-4.0, 16.0, 2), rng.uniform(0.3, 5.0),
                                       rng.uniform(0.3, 2.5), rng.uniform(0.0, 2.0 * math.pi))
                 for _ in range(60)]
        # Edges on or within 1e-5 m of cell lines, which only the clip decides.
        boxes += [RotatedBox(1.0, 6.0 + off, 5.0, 4.0, 2.0, 1.0, 0.0)
                  for off in (0.0, 1e-6, -1e-6, 3e-6)]
        boxes += [RotatedBox(1.0, -5.0, 4.0, 2.0, 1.0, 1.0, 0.0),   # off the grid
                  RotatedBox(1.0, 3.3, 4.6, 1e-7, 1e-7, 1.0, 0.0)]  # below the area threshold
        got, arrays = _footprints(boxes, grid)
        ref, ref_arrays = footprints_per_cell(boxes, grid)
        assert got == ref
        for a, b in zip(arrays, ref_arrays, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got == [_footprints([box], grid)[0][0] for box in boxes]
        assert {bool(cells) for cells in got[:60]} == {True, False}
        assert got[-2:] == [[], []] and clips
        cells, arrays = _footprints([], grid)
        assert cells == [] and [a.size for a in arrays] == [0, 0, 0]

    @pytest.mark.parametrize("kw", [DENSE, {}])
    def test_rasterize_truth_same_bits(self, kw):
        for seed in range(20, 26):
            world = generate(ScenarioConfig(seed=seed, **kw))
            boxes = list(world.vehicles)
            ref = rasterize_truth(boxes, world.grid,
                                  [footprint_cells_per_cell(b, world.grid) for b in boxes])
            got = rasterize_truth(boxes, world.grid, _footprints(boxes, world.grid)[0])
            assert got.tobytes() == ref.tobytes()
        grid = GridSpec(40, 48, 0.5, origin_x=-3.25, origin_y=1.5)
        boxes = [RotatedBox(1.0, 2.0, 6.5, 4.0, 2.0, 1.0, 0.0),
                 RotatedBox.from_angle(1.0, 12.25, 14.0, 4.5, 1.9, math.pi / 4)]
        ref = rasterize_truth(boxes, grid, [footprint_cells_per_cell(b, grid) for b in boxes])
        got = rasterize_truth(boxes, grid, _footprints(boxes, grid)[0])
        assert got.tobytes() == ref.tobytes()


class TestObserveBatched:
    """_observe_grid's one ray cast per agent against one per target vehicle."""

    @pytest.mark.parametrize("kw", [
        DENSE, {}, dict(DENSE, occlusion_enabled=False), dict(occlusion_enabled=False),
        dict(DENSE, dropout_prob=0.3), dict(dropout_prob=0.3, occlusion_enabled=False),
        dict(DENSE, sensor_range=0.1), dict(sensor_range=1e-3, dropout_prob=0.3),
        dict(DENSE, sensor_range=9.0),
    ])
    @pytest.mark.parametrize("grid", [None, GridSpec(24, 40, 1.0, origin_x=10.0),
                                      GridSpec(30, 30, 0.5, origin_x=20.0, origin_y=15.0)])
    def test_matches_per_vehicle_loop(self, kw, grid):
        footprints = []
        for seed in (31, 32):
            cfg = ScenarioConfig(seed=seed, **kw)
            world = generate(cfg, grid=grid)
            agents = [world.ego_pose[:2]] + [p[:2] for p in world.collaborator_poses]
            arrays = observe_arrays(world.vehicles, world.grid)
            for agent, pos in enumerate(agents):
                got = _observe_grid(cfg, world.grid, pos, agent, arrays)
                ref = observe_grid_per_vehicle(cfg, world.grid, world.vehicles,
                                               world.vehicle_cells, pos, agent)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
                assert got.any() or cfg.sensor_range < 1.0 or grid is not None
                assert not (got.any() and cfg.sensor_range < 1.0)
            footprints += world.vehicle_cells
        # A grid smaller than the area leaves some vehicles with no cells.
        assert (() in footprints) == (grid is not None)


class TestRsuObserve:
    def test_counts_sum_to_vehicle_count(self):
        world = generate(small_config(seed=13, n_vehicles=7))
        assert rsu_observe(world).sum() == 7

    def test_concentrated_scene(self):
        world = generate(small_config(seed=7, density_profile=(1.0, 0.0, 0.0, 0.0),
                                      n_vehicles=5))
        counts = rsu_observe(world)
        assert list(counts) == [5, 0, 0, 0]

    def test_matches_brute_force_recount(self):
        world = generate(small_config(seed=7, n_vehicles=9, area_side=48.0))
        counts = rsu_observe(world)
        # Brute-force oracle: classify every vehicle with its own atan2 math.
        expected = [0, 0, 0, 0]
        ox, oy = world.ego_pose[0], world.ego_pose[1]
        for v in world.vehicles:
            ang = math.degrees(math.atan2(v.cy - oy, v.cx - ox)) % 360.0
            expected[int(ang // 90.0) % 4] += 1
        assert list(counts) == expected


class TestSceneExport:
    def test_export_deterministic_bytes(self, tmp_path):
        world = generate(small_config(seed=21, dropout_prob=0.2))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        export_scene(world, p1)
        export_scene(generate(small_config(seed=21, dropout_prob=0.2)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dict_contents(self):
        world = generate(small_config(seed=2))
        d = scene_to_dict(world)
        assert d["config"]["seed"] == 2
        assert len(d["vehicles"]) == 4
        assert len(d["collaborator_poses"]) == 2
        pos = {(a, r, c) for a, r, c in d["observations"]}
        assert len(pos) == int(world.per_agent_observations.sum())
