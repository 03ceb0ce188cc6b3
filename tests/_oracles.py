"""Independent reference computations shared by the unit and acceptance tests.

These deliberately avoid the library's own code paths (polygon clipping,
vectorized scoring and occlusion, analytic gradients, the array wire codec)
so they can serve as oracles.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from dircp.comms import WIRE_MAGIC, WIRE_VERSION, FeatureMessage
from dircp.geometry import (
    RotatedBox,
    SectorPartition,
    _clip_polygon,
    _polygon_area,
    box_corners,
    sector_of_point,
)
from dircp.grid import GridSpec
from dircp.scenario import ScenarioConfig, cell_dropout_uniforms


def points_in_box(points: np.ndarray, box: RotatedBox) -> np.ndarray:
    """Boolean mask of points (N, 2) strictly inside a rotated box."""
    dx = points[:, 0] - box.cx
    dy = points[:, 1] - box.cy
    u = dx * box.cos_a + dy * box.sin_a
    v = -dx * box.sin_a + dy * box.cos_a
    return (np.abs(u) <= 0.5 * box.length) & (np.abs(v) <= 0.5 * box.width)


def mc_iou(a: RotatedBox, b: RotatedBox, n: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo IoU estimate.

    Samples uniformly inside box a (which bounds the intersection region) and
    uses the exact analytic areas of both boxes, so only the intersection
    fraction is stochastic.
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(-0.5 * a.length, 0.5 * a.length, size=n)
    v = rng.uniform(-0.5 * a.width, 0.5 * a.width, size=n)
    pts = np.stack([a.cx + u * a.cos_a - v * a.sin_a,
                    a.cy + u * a.sin_a + v * a.cos_a], axis=1)
    p_hit = float(np.mean(points_in_box(pts, b)))
    inter = a.area * p_hit
    union = a.area + b.area - inter
    return inter / union


def random_box(rng: np.random.Generator, span: float = 10.0,
               min_size: float = 0.5, max_size: float = 6.0,
               confidence: float = 1.0) -> RotatedBox:
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return RotatedBox(confidence,
                      rng.uniform(-span, span), rng.uniform(-span, span),
                      rng.uniform(min_size, max_size), rng.uniform(min_size, max_size),
                      math.cos(ang), math.sin(ang))


def rotate_point(x: float, y: float, angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return (x * c - y * s, x * s + y * c)


def segment_intersects_box(p: tuple[float, float], q: tuple[float, float],
                           box: RotatedBox, eps: float = 1e-9) -> bool:
    """Scalar slab test: True when the open segment p->q crosses the box interior.

    Grazing contacts (measure-zero overlap with the boundary) do not count.
    """
    c, s = box.cos_a, box.sin_a
    # Segment endpoints in the box frame.
    px = (p[0] - box.cx) * c + (p[1] - box.cy) * s
    py = -(p[0] - box.cx) * s + (p[1] - box.cy) * c
    qx = (q[0] - box.cx) * c + (q[1] - box.cy) * s
    qy = -(q[0] - box.cx) * s + (q[1] - box.cy) * c
    dx, dy = qx - px, qy - py
    t0, t1 = 0.0, 1.0
    for start, delta, half in ((px, dx, 0.5 * box.length), (py, dy, 0.5 * box.width)):
        if delta == 0.0:
            if abs(start) >= half:
                return False
            continue
        ta = (-half - start) / delta
        tb = (half - start) / delta
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 >= t1:
            return False
    # Require a positive-length crossing strictly inside the open segment.
    return (t1 - t0) > eps and t1 > eps and t0 < 1.0 - eps


def pack_message(msg: FeatureMessage) -> bytes:
    """DCPM payload packed one entry at a time with struct."""
    out = bytearray(struct.pack("<4sHHHIHH", WIRE_MAGIC, WIRE_VERSION, msg.sender,
                                msg.receiver, len(msg.rows), msg.d, 0))
    entry = struct.Struct(f"<HH{msg.d}f")
    for r, c, vec in zip(msg.rows.tolist(), msg.cols.tolist(), msg.values):
        out += entry.pack(r, c, *vec.tolist())
    return bytes(out)


def clip_area(a: RotatedBox, b: RotatedBox) -> float:
    """Intersection area from the polygon clip alone, with no far-apart reject."""
    poly = _clip_polygon(box_corners(a), box_corners(b))
    return abs(_polygon_area(poly)) if len(poly) >= 3 else 0.0


def observe_grid_per_blocker(config: ScenarioConfig, grid: GridSpec, vehicles,
                             vehicle_cells, pos: tuple[float, float],
                             agent_index: int) -> np.ndarray:
    """Evidence grid of one agent: one scalar segment test per (cell, blocker)."""
    evidence = np.zeros((grid.h, grid.w), dtype=np.uint8)
    range_sq = config.sensor_range ** 2
    for vi, cells in enumerate(vehicle_cells):
        for r, c in cells:
            x, y = grid.center_of(r, c)
            if (x - pos[0]) ** 2 + (y - pos[1]) ** 2 > range_sq:
                continue
            if config.occlusion_enabled and any(
                    segment_intersects_box(pos, (x, y), blocker)
                    for wi, blocker in enumerate(vehicles) if wi != vi):
                continue
            evidence[r, c] = 1
    if config.dropout_prob > 0.0:
        keep = cell_dropout_uniforms(config.seed, agent_index, grid.h, grid.w) \
            >= config.dropout_prob
        evidence[~keep] = 0
    return evidence


def cell_sector_map_loop(partition: SectorPartition, grid: GridSpec) -> np.ndarray:
    """(H, W) sector index of each cell center, one sector_of_point call per cell."""
    out = np.empty((grid.h, grid.w), dtype=np.int64)
    for r in range(grid.h):
        for c in range(grid.w):
            out[r, c] = sector_of_point(*grid.center_of(r, c), partition)
    return out
