"""Seeded synthetic traffic worlds and the per-agent cell-evidence observation model."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import (
    RotatedBox,
    SectorPartition,
    box_corners,
    intersection_area,
    sectors_of,
)
from .grid import GridSpec

# Minimum edge-to-edge clearance enforced between placed vehicles. Large enough
# that 1 m cell footprints of distinct vehicles are never 8-adjacent, so the
# decoder cannot merge two vehicles into one cluster.
PLACEMENT_MARGIN = 3.0
_MAX_ATTEMPTS = 10_000

VEHICLE_LENGTH_RANGE = (3.5, 5.5)
VEHICLE_WIDTH_RANGE = (1.6, 2.2)
SEED_RANGE = range(-(2**63), 2**64)  # what a seed may be; generate reduces it mod 2**64
_BLOCK_EPS = 1e-9  # the share of a segment a box must cover, off its ends, to block it


class PlacementExhausted(RuntimeError):
    """Raised when rejection sampling cannot place a vehicle (overdense config)."""


class UnknownAgent(KeyError):
    """Raised for an agent index outside [0, n_collaborators]."""


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    area_side: float = 64.0
    n_collaborators: int = 4
    n_vehicles: int = 12
    density_profile: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)
    sensor_range: float = 28.0
    occlusion_enabled: bool = True
    dropout_prob: float = 0.0

    def __post_init__(self):
        if int(self.seed) not in SEED_RANGE:
            raise ValueError("seed must fit in 64 bits")
        for name in ("area_side", "sensor_range"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value * value)):
                raise ValueError(f"{name} must be positive, with a finite square")
        if self.n_collaborators < 0:
            raise ValueError("n_collaborators must be >= 0")
        if self.n_vehicles < 1:
            raise ValueError("n_vehicles must be >= 1")
        if len(self.density_profile) < 1 or any(w < 0 for w in self.density_profile) \
                or not any(w > 0 for w in self.density_profile):
            raise ValueError("density_profile needs non-negative weights, not all zero")
        if not (0.0 <= self.dropout_prob <= 1.0):
            raise ValueError("dropout_prob must lie in [0, 1]")


@dataclass(frozen=True)
class ScenarioWorld:
    config: ScenarioConfig
    grid: GridSpec
    partition: SectorPartition
    ego_pose: tuple[float, float, float]
    collaborator_poses: tuple[tuple[float, float, float], ...]
    rsu_pose: tuple[float, float, float]
    vehicles: tuple[RotatedBox, ...]
    per_agent_observations: np.ndarray = field(repr=False)  # (N, H, W) uint8
    vehicle_cells: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)

    @property
    def n_agents(self) -> int:
        return 1 + len(self.collaborator_poses)

    def agent_position(self, agent_index: int) -> tuple[float, float]:
        if agent_index == 0:
            return self.ego_pose[0], self.ego_pose[1]
        if 1 <= agent_index < self.n_agents:
            pose = self.collaborator_poses[agent_index - 1]
            return pose[0], pose[1]
        raise UnknownAgent(agent_index)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; stable across platforms for uint64 inputs."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def cell_dropout_uniforms(seed: int, agent_index: int, h: int, w: int) -> np.ndarray:
    """Deterministic per-(seed, agent, cell) uniforms in [0, 1).

    Keyed per cell, not per query, so enlarging the sensor range or re-asking
    never flips an individual cell's dropout decision.
    """
    rows, cols = np.meshgrid(np.arange(h, dtype=np.uint64),
                             np.arange(w, dtype=np.uint64), indexing="ij")
    key = _mix64(np.full((h, w), np.uint64(seed % (2**64)), dtype=np.uint64))
    key = _mix64(key ^ np.uint64(agent_index + 1))
    key = _mix64(key ^ (rows << np.uint64(20)) ^ cols)
    return (key >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _footprints(boxes, grid: GridSpec):
    """Cells whose squares overlap each box with positive area, row-major per box,
    and the same cells as arrays: (cells per box, (rows, cols, owner box)).

    depth is the shortest overlap (negative: the widest gap) of the cell's and
    the box's projections on the cell axes and the box's heading and normal,
    capped at the shortest side of the two (one projection inside the other).
    Above 1e-5 m the shared area is of order depth^2, far above 1e-12, so the
    cell is kept; below -1e-5 m it is dropped; the rest go through the clip.
    """
    spans = []
    for box in boxes:
        xs, ys = zip(*box_corners(box))
        r0, c0 = grid.cell_of(min(xs), min(ys))
        r1, c1 = grid.cell_of(max(xs), max(ys))
        spans.append((max(r0, 0), max(c0, 0), min(r1 + 1, grid.h), min(c1 + 1, grid.w)))
    r0, c0, r1, c1 = np.array(spans, dtype=np.intp).reshape(-1, 4).T
    n_cols = np.maximum(c1 - c0, 0)
    counts = np.maximum(r1 - r0, 0) * n_cols
    owner = np.repeat(np.arange(len(spans)), counts)
    k = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    rows, cols = r0[owner] + k // n_cols[owner], c0[owner] + k % n_cols[owner]
    bx, by, c, s, hl, hw = _box_arrays(boxes)[:, owner, 0]
    dx, dy = np.moveaxis(grid.centers[rows, cols], -1, 0) - (bx, by)
    hc = 0.5 * grid.cell_size
    reach = hc * (abs(c) + abs(s))  # the cell's half-extent along heading and normal
    depth = np.minimum.reduce([hl * abs(c) + hw * abs(s) + hc - np.abs(dx),
                               hl * abs(s) + hw * abs(c) + hc - np.abs(dy),
                               hl + reach - np.abs(dx * c + dy * s),
                               hw + reach - np.abs(dy * c - dx * s),
                               2.0 * np.minimum(np.minimum(hl, hw), hc)])
    keep = depth > 1e-5
    for i in np.flatnonzero(np.abs(depth) <= 1e-5).tolist():
        cx, cy = grid.center_of(int(rows[i]), int(cols[i]))
        cell_box = RotatedBox(1.0, cx, cy, grid.cell_size, grid.cell_size, 1.0, 0.0)
        keep[i] = intersection_area(boxes[owner[i]], cell_box) > 1e-12
    rows, cols, owner = rows[keep], cols[keep], owner[keep]
    kept = list(zip(rows.tolist(), cols.tolist()))
    ends = np.cumsum(np.bincount(owner, minlength=len(spans))).tolist()
    return [kept[a:b] for a, b in zip([0] + ends, ends)], (rows, cols, owner)


def _box_arrays(boxes) -> np.ndarray:
    """(6, B, 1): cx, cy, cos_a, sin_a, half-length and half-width of each box."""
    return np.array([(b.cx, b.cy, b.cos_a, b.sin_a, 0.5 * b.length, 0.5 * b.width)
                     for b in boxes], dtype=np.float64).reshape(-1, 6).T[:, :, None]


def _segments_blocked(pos: tuple[float, float], targets: np.ndarray,
                      boxes: np.ndarray) -> np.ndarray:
    """Open-segment-vs-box test of segments pos -> targets (K, 2): (B, K) bools.

    A slab the segment runs parallel to gives infinite entry and exit times:
    they keep the interval when the segment lies inside the slab and empty it
    when outside. On the slab's edge one time is NaN, which fails every final
    comparison, so grazing contact does not block.
    """
    cx, cy, c, s, half_l, half_w = boxes
    px = (pos[0] - cx) * c + (pos[1] - cy) * s
    py = -(pos[0] - cx) * s + (pos[1] - cy) * c
    qx = (targets[:, 0] - cx) * c + (targets[:, 1] - cy) * s
    qy = -(targets[:, 0] - cx) * s + (targets[:, 1] - cy) * c
    t0, t1 = 0.0, 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for start, deltas, half in ((px, qx - px, half_l), (py, qy - py, half_w)):
            ta = (-half - start) / deltas
            tb = (half - start) / deltas
            t0 = np.maximum(t0, np.minimum(ta, tb))
            t1 = np.minimum(t1, np.maximum(ta, tb))
        return ((t1 - t0) > _BLOCK_EPS) & (t1 > _BLOCK_EPS) & (t0 < 1.0 - _BLOCK_EPS)


def generate(config: ScenarioConfig, grid: GridSpec | None = None) -> ScenarioWorld:
    """Build a deterministic world from the config.

    The ego sits at the area center heading +x; collaborators are placed
    uniformly at distance [10, area_side/2] from it; vehicles are rejection
    sampled under the per-sector density profile with a separation margin.
    """
    if grid is None:
        grid = GridSpec.for_area(config.area_side)
    rng = np.random.default_rng(np.uint64(config.seed % (2**64)))
    side = config.area_side
    ego = (side / 2.0, side / 2.0, 0.0)
    partition = SectorPartition.uniform(len(config.density_profile),
                                        frame_origin=(ego[0], ego[1]),
                                        frame_heading=ego[2])

    collaborators = []
    r_lo = min(10.0, side / 2.0)
    for _ in range(config.n_collaborators):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(r_lo, side / 2.0)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        collaborators.append((ego[0] + radius * math.cos(ang),
                              ego[1] + radius * math.sin(ang), heading))

    agent_points = [(ego[0], ego[1])] + [(p[0], p[1]) for p in collaborators]
    max_weight = max(config.density_profile)
    vehicles: list[RotatedBox] = []
    # Agents' unit squares, then each placed vehicle inflated by the margin.
    keep_out = [RotatedBox(1.0, ax, ay, 1.0, 1.0, 1.0, 0.0) for ax, ay in agent_points]
    # Each attempt's x, y, roll, length, width and heading, drawn 64 attempts at
    # a time with the sectors of their (x, y): lo + (hi - lo) * u is
    # Generator.uniform(lo, hi) on the same stream, and nothing draws from rng
    # after placement.
    lo, hi = np.array([(0.0, side), (0.0, side), (0.0, 1.0), VEHICLE_LENGTH_RANGE,
                       VEHICLE_WIDTH_RANGE, (0.0, 2.0 * math.pi)]).T
    blocks = (lo + (hi - lo) * rng.random((64, 6)) for _ in itertools.count())
    draws = itertools.chain.from_iterable(
        zip(block.tolist(), sectors_of(block[:, 0], block[:, 1], partition).tolist())
        for block in blocks)
    for _ in range(config.n_vehicles):
        for attempt in range(_MAX_ATTEMPTS):
            (x, y, roll, length, width, ang), sector = next(draws)
            if roll * max_weight >= config.density_profile[sector]:
                continue
            cand = RotatedBox.from_angle(1.0, x, y, length, width, ang)
            # Whole footprint inside the area: a box clipped by the edge leaves
            # an undetectable sliver that pollutes every method's precision.
            if any(not (0.0 <= px <= side and 0.0 <= py <= side)
                   for px, py in box_corners(cand)):
                continue
            inflated = RotatedBox(1.0, x, y, length + PLACEMENT_MARGIN,
                                  width + PLACEMENT_MARGIN, cand.cos_a, cand.sin_a)
            if any(intersection_area(inflated, box) > 0.0 for box in keep_out):
                continue
            vehicles.append(cand)
            keep_out.append(inflated)
            break
        else:
            raise PlacementExhausted(
                f"could not place vehicle {len(vehicles)} after {_MAX_ATTEMPTS} attempts")

    footprints, (rows, cols, owner) = _footprints(vehicles, grid)
    observations = np.zeros((len(agent_points), grid.h, grid.w), dtype=np.uint8)
    arrays = rows, cols, owner, grid.centers[rows, cols], _box_arrays(vehicles)
    for agent, pos in enumerate(agent_points):
        observations[agent] = _observe_grid(config, grid, pos, agent, arrays)

    return ScenarioWorld(config=config, grid=grid, partition=partition, ego_pose=ego,
                         collaborator_poses=tuple(collaborators), rsu_pose=ego,
                         vehicles=tuple(vehicles),
                         per_agent_observations=observations,
                         vehicle_cells=tuple(map(tuple, footprints)))


def _observe_grid(config: ScenarioConfig, grid: GridSpec, pos: tuple[float, float],
                  agent_index: int, arrays) -> np.ndarray:
    """Evidence grid of one agent. arrays is generate's per-world part: the footprint
    cells' rows, cols, owner boxes and centers, and the boxes' _box_arrays."""
    evidence = np.zeros((grid.h, grid.w), dtype=np.uint8)
    rows, cols, owner, centers, boxes = arrays
    visible = ((centers - pos) ** 2).sum(axis=1) <= config.sensor_range ** 2
    rows, cols, owner, centers = rows[visible], cols[visible], owner[visible], centers[visible]
    if config.occlusion_enabled and rows.size:
        # One call over every in-range footprint cell: its temporaries are
        # n_vehicles x the in-range cells. A vehicle's own box does not block it.
        blocked = _segments_blocked(pos, centers, boxes)
        blocked[owner, np.arange(owner.size)] = False
        seen = ~blocked.any(axis=0)
        rows, cols = rows[seen], cols[seen]
    evidence[rows, cols] = 1
    if config.dropout_prob > 0.0:
        evidence[cell_dropout_uniforms(config.seed, agent_index, grid.h, grid.w)
                 < config.dropout_prob] = 0
    return evidence


def observe(world: ScenarioWorld, agent_index: int) -> np.ndarray:
    """Cell-evidence grid of one agent (0 = ego). Reproducible; read-only view."""
    if not (0 <= agent_index < world.n_agents):
        raise UnknownAgent(agent_index)
    out = world.per_agent_observations[agent_index]
    out = out.view()
    out.setflags(write=False)
    return out


def rsu_observe(world: ScenarioWorld,
                partition: SectorPartition | None = None) -> np.ndarray:
    """Per-sector ground-truth vehicle counts from the unoccluded RSU view."""
    part = partition if partition is not None else world.partition
    centers = np.reshape([(v.cx, v.cy) for v in world.vehicles], (-1, 2)).T
    return np.bincount(sectors_of(*centers, part), minlength=part.n_dir)


def scene_to_dict(world: ScenarioWorld) -> dict:
    """JSON-friendly scene dump (observations stored as sparse positive cells)."""
    positives = [
        [int(a), int(r), int(c)]
        for a in range(world.n_agents)
        for r, c in zip(*np.nonzero(world.per_agent_observations[a]))
    ]
    cfg = world.config
    return {
        "config": {
            "seed": int(cfg.seed), "area_side": cfg.area_side,
            "n_collaborators": cfg.n_collaborators, "n_vehicles": cfg.n_vehicles,
            "density_profile": list(cfg.density_profile),
            "sensor_range": cfg.sensor_range,
            "occlusion_enabled": cfg.occlusion_enabled,
            "dropout_prob": cfg.dropout_prob,
        },
        "grid": {"h": world.grid.h, "w": world.grid.w,
                 "cell_size": world.grid.cell_size,
                 "origin": [world.grid.origin_x, world.grid.origin_y]},
        "ego_pose": list(world.ego_pose),
        "collaborator_poses": [list(p) for p in world.collaborator_poses],
        "rsu_pose": list(world.rsu_pose),
        "vehicles": [list(v.as_tuple()) for v in world.vehicles],
        "observations": positives,
    }


def export_scene(world: ScenarioWorld, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(scene_to_dict(world), sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
