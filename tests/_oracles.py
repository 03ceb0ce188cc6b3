"""Independent reference computations shared by the unit and acceptance tests.

These deliberately avoid the library's own code paths (polygon clipping,
vectorized scoring and occlusion, analytic gradients, the array wire codec,
the shared attention kernel) so they can serve as oracles. The exceptions are
the former production code kept as bit-for-bit references for its batched
replacement: dense_dsa_weights/dense_fuse run the hard_attention_* forms on
every cell of the grid, footprint_cells_per_cell clips one cell at a time,
observe_grid_per_vehicle runs the segment test once per target vehicle,
seed_cell_results_per_budget runs single at every sweep cell,
soft_forward_reference rebuilds the loss from sector masks on every call,
canonical_sum_sort sorts with np.sort, placement_scalar_draws draws each
placement uniform with its own Generator.uniform call, sector_of_point (the
scalar reference of geometry.sectors_of) assigns one point at a time with
math.atan2 and a loop over the boundaries, top_cells_sort and
clip_queries_sort rank with a full stable argsort, and relu_layer_row_bias and
score_mlp_backward_outer run their bias adds, outer product and column sums
one hidden-wide row at a time.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import replace

import numpy as np

from dircp.comms import WIRE_MAGIC, WIRE_VERSION, FeatureMessage
from dircp.evaluate import run_method
from dircp.features import densify
from dircp.fusion import DsaWeights, FusedMap
from dircp.geometry import (
    _EPS_ANGLE_DEG,
    RotatedBox,
    SectorPartition,
    _clip_polygon,
    _polygon_area,
    box_corners,
    intersection_area,
    iou,
    sector_of,
)
from dircp.grid import GridSpec
from dircp.num import canonical_sum, sigmoid
from dircp.pipeline import prepare_scene
from dircp.scenario import (
    _MAX_ATTEMPTS,
    PLACEMENT_MARGIN,
    VEHICLE_LENGTH_RANGE,
    VEHICLE_WIDTH_RANGE,
    PlacementExhausted,
    ScenarioConfig,
    _box_arrays,
    _segments_blocked,
    cell_dropout_uniforms,
    generate,
)


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
    # Hits are counted over 32k-point slices, so the temporaries stay in cache;
    # an integer count over n equals the mean of the whole hit mask.
    hits, step = 0, 32_768
    for i in range(0, n, step):
        us, vs = u[i:i + step], v[i:i + step]
        pts = np.stack([a.cx + us * a.cos_a - vs * a.sin_a,
                        a.cy + us * a.sin_a + vs * a.cos_a], axis=1)
        hits += int(np.count_nonzero(points_in_box(pts, b)))
    p_hit = hits / n
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


def footprint_cells_per_cell(box: RotatedBox, grid: GridSpec) -> list[tuple[int, int]]:
    """scenario._footprints of one box as one polygon clip per cell of its range."""
    xs, ys = zip(*box_corners(box))
    r0, c0 = grid.cell_of(min(xs), min(ys))
    r1, c1 = grid.cell_of(max(xs), max(ys))
    cells = []
    for r in range(max(r0, 0), min(r1, grid.h - 1) + 1):
        for c in range(max(c0, 0), min(c1, grid.w - 1) + 1):
            cx, cy = grid.center_of(r, c)
            cell_box = RotatedBox(1.0, cx, cy, grid.cell_size, grid.cell_size, 1.0, 0.0)
            if intersection_area(box, cell_box) > 1e-12:
                cells.append((r, c))
    return cells


def footprints_per_cell(boxes, grid: GridSpec):
    """scenario._footprints as footprint_cells_per_cell on each box in turn:
    (cells per box, (rows, cols, owner box))."""
    cells = [footprint_cells_per_cell(box, grid) for box in boxes]
    rows, cols = np.array([rc for box_cells in cells for rc in box_cells],
                          dtype=np.intp).reshape(-1, 2).T
    return cells, (rows, cols, np.repeat(np.arange(len(cells)), [len(c) for c in cells]))


def observe_grid_per_vehicle(config: ScenarioConfig, grid: GridSpec, vehicles,
                             vehicle_cells, pos: tuple[float, float],
                             agent_index: int) -> np.ndarray:
    """scenario._observe_grid with one vectorized segment test per target vehicle."""
    evidence = np.zeros((grid.h, grid.w), dtype=np.uint8)
    range_sq = config.sensor_range ** 2
    boxes = _box_arrays(vehicles)
    for vi, cells in enumerate(vehicle_cells):
        if not cells:
            continue
        rows, cols = np.array(cells).T
        centers = grid.centers[rows, cols]
        visible = ((centers[:, 0] - pos[0]) ** 2 + (centers[:, 1] - pos[1]) ** 2) <= range_sq
        if config.occlusion_enabled and visible.any():
            blocked = _segments_blocked(pos, centers, boxes)
            blocked[vi] = False
            visible &= ~blocked.any(axis=0)
        evidence[rows[visible], cols[visible]] = 1
    if config.dropout_prob > 0.0:
        keep = cell_dropout_uniforms(config.seed, agent_index, grid.h, grid.w) \
            >= config.dropout_prob
        evidence = (evidence.astype(bool) & keep).astype(np.uint8)
    return evidence


def observe_grid_per_blocker(config: ScenarioConfig, grid: GridSpec,
                             pos: tuple[float, float], agent_index: int,
                             arrays) -> np.ndarray:
    """Evidence grid of one agent: one scalar segment test per (cell, blocker).

    Of arrays, generate's per-world part, it reads the footprint cells' rows,
    cols and owners and the boxes, not the batched cell centers.
    """
    rows, cols, owner, _, boxes = arrays
    vehicles = [RotatedBox(1.0, cx, cy, 2.0 * hl, 2.0 * hw, c, s)
                for cx, cy, c, s, hl, hw in boxes[:, :, 0].T.tolist()]
    evidence = np.zeros((grid.h, grid.w), dtype=np.uint8)
    range_sq = config.sensor_range ** 2
    for r, c, vi in zip(rows.tolist(), cols.tolist(), owner.tolist()):
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


def sector_of_point(x: float, y: float, partition: SectorPartition) -> int:
    """Sector index of a point; the origin itself maps to sector 0."""
    dx = x - partition.frame_origin[0]
    dy = y - partition.frame_origin[1]
    if dx == 0.0 and dy == 0.0:
        return 0
    ang = math.degrees(math.atan2(dy, dx) - partition.frame_heading) % 360.0
    # Snap to boundaries so that exact-boundary points land deterministically
    # in the upper half-open interval.
    for i, (lo, _) in enumerate(partition.boundaries):
        if abs(ang - lo) <= _EPS_ANGLE_DEG or abs(ang - lo - 360.0) <= _EPS_ANGLE_DEG:
            return i
    for i, (lo, hi) in enumerate(partition.boundaries):
        if lo <= ang < hi:
            return i
    return partition.n_dir - 1


def cell_sector_map_loop(partition: SectorPartition, grid: GridSpec) -> np.ndarray:
    """(H, W) sector index of each cell center, one sector_of_point call per cell."""
    out = np.empty((grid.h, grid.w), dtype=np.int64)
    for r in range(grid.h):
        for c in range(grid.w):
            out[r, c] = sector_of_point(*grid.center_of(r, c), partition)
    return out


def hard_attention_weights(ego, feats, present, confidence, params,
                           total=canonical_sum):
    """The evaluation path's attention weights as dsa_weights wrote them inline.

    Same arguments as fusion.attention; returns (weights, pre).
    """
    n, h, w, _ = feats.shape
    scale = 1.0 / math.sqrt(params.head_dim)
    head_sum = np.zeros((n, h, w), dtype=np.float64)
    for head in range(params.n_heads):
        q = ego @ params.wq[head].T                   # (H, W, dh)
        k = feats @ params.wk[head].T                 # (N, H, W, dh)
        e = np.einsum("hwd,nhwd->nhw", q, k) * scale
        e = np.where(present, e, -np.inf)
        m = e.max(axis=0)
        ex = np.where(present, np.exp(e - m), 0.0)
        denom = total(ex, axis=0)
        head_sum += ex / denom
    pre = head_sum / params.n_heads                   # (N, H, W)
    conf = np.ones((n, h, w), dtype=np.float64)
    conf[1:] = np.moveaxis(confidence, 2, 0)
    return pre * conf, pre


def hard_attention_pool(feats, weights, params, total=canonical_sum):
    """The evaluation path's fusion as fuse wrote it inline; returns the fused map."""
    m = params.value_matrix()
    values = feats @ m.T                              # (N, H, W, D)
    contrib = values * weights[..., None]
    pooled = total(contrib, axis=0)                   # (H, W, D)
    hidden = np.maximum(pooled @ params.ffn_w1.T + params.ffn_b1, 0.0)
    return pooled + hidden @ params.ffn_w2.T + params.ffn_b2


def soft_attention_weights(ego, feats, present, confidence, params, total):
    """The training path's attention weights as soft_forward wrote them inline.

    Takes fusion.attention's arguments when every agent is present and the
    sum over agents is np.sum.
    """
    assert present.all() and total is np.sum
    n, h, w, _ = feats.shape
    scale = 1.0 / math.sqrt(params.head_dim)
    a_heads, q_heads = [], []
    pre = np.zeros((n, h, w))
    for head in range(params.n_heads):
        q = ego @ params.wq[head].T
        keys = feats @ params.wk[head].T
        e = np.einsum("hwd,nhwd->nhw", q, keys) * scale
        e -= e.max(axis=0)
        ex = np.exp(e)
        a = ex / ex.sum(axis=0)
        a_heads.append(a)
        q_heads.append(q)
        pre += a
    pre /= params.n_heads
    conf = np.ones((n, h, w))
    conf[1:] = np.moveaxis(confidence, 2, 0)
    return pre * conf, pre, conf, a_heads, q_heads


def soft_attention_pool(feats, weights, params, total):
    """The training path's fusion as soft_forward wrote it inline.

    Takes the features and weights, with the sum over agents np.sum.
    """
    assert total is np.sum
    m_val = params.value_matrix()
    v = feats @ m_val.T
    s = (v * weights[..., None]).sum(axis=0)
    u = s @ params.ffn_w1.T + params.ffn_b1
    relu_u = np.maximum(u, 0.0)
    return s + relu_u @ params.ffn_w2.T + params.ffn_b2, v, u


def soft_forward_loops(params, tscene, budget, settings):
    """soft_forward as written before the shared kernel: per-collaborator loops
    for the soft clip and its backward, the inline attention above, and its own
    lexsort ranking. Returns (loss, grads, per_direction)."""
    from dircp.comms import per_collaborator_budget, score_mlp_backward, score_mlp_forward
    from dircp.num import sigmoid

    scene = tscene.scene
    attn = settings.attention_params()
    f = scene.features
    n, h, w, d = f.shape
    k = n - 1
    hw = h * w
    tau = settings.tau

    qcm, mlp_cache = score_mlp_forward(params, scene.q0, scene.pe, scene.de)
    c_vals = qcm.values

    limit = min(per_collaborator_budget(budget, h, w), hw)
    qs = np.zeros((k, hw))
    thr_idx = np.zeros(k, dtype=np.int64)
    if limit > 0:
        for j in range(k):
            flat = c_vals[:, :, j].ravel()
            order = np.lexsort((np.arange(hw), -flat))
            thr_idx[j] = order[limit - 1]
            qs[j] = sigmoid((flat - flat[thr_idx[j]]) / tau)

    h_ag = np.empty_like(f)
    h_ag[0] = f[0]
    for j in range(k):
        h_ag[j + 1] = qs[j].reshape(h, w)[:, :, None] * f[j + 1]

    wgt, pre, conf, a_heads, q_heads = soft_attention_weights(
        f[0], h_ag, np.ones((n, h, w), dtype=bool), c_vals, attn, np.sum)
    fused, v, u = soft_attention_pool(h_ag, wgt, attn, np.sum)
    m_val = attn.value_matrix()
    scale = 1.0 / math.sqrt(attn.head_dim)

    loss, per_dir, pred = objective_reference(fused, tscene, settings)
    dpred = dw_loss_gradient_masks(pred, tscene.truth, scene.sector_map, scene.mask,
                                   settings.loss_sigma, settings.lambda_off,
                                   settings.lambda_size)
    dfused = np.zeros((h, w, d))
    p0 = pred[:, :, 0]
    dfused[:, :, 0] = dpred[:, :, 0] * p0 * (1.0 - p0)
    reg = min(7, d)
    dfused[:, :, 1:reg] += dpred[:, :, 1:reg]

    dr = dfused @ attn.ffn_w2
    du = dr * (u > 0.0)
    ds = dfused + du @ attn.ffn_w1

    dwgt = np.einsum("hwd,nhwd->nhw", ds, v)
    dv = wgt[..., None] * ds[None]
    dh_ag = dv @ m_val

    dpre = dwgt * conf
    dconf = dwgt * pre
    d_c = np.moveaxis(dconf[1:], 0, 2).copy()

    for head in range(attn.n_heads):
        da = dpre / attn.n_heads
        a = a_heads[head]
        de_h = a * (da - (a * da).sum(axis=0))
        dkeys = de_h[..., None] * q_heads[head][None] * scale
        dh_ag += dkeys @ attn.wk[head]

    dqs = np.einsum("nhwd,nhwd->nhw", dh_ag[1:], f[1:]).reshape(k, hw)
    if limit > 0:
        for j in range(k):
            sp = qs[j] * (1.0 - qs[j]) / tau
            g = sp * dqs[j]
            dc_flat = g.copy()
            dc_flat[thr_idx[j]] -= g.sum()
            d_c[:, :, j] += dc_flat.reshape(h, w)

    return loss, score_mlp_backward(mlp_cache, d_c), per_dir


def canonical_sum_sort(x, axis):
    """num.canonical_sum as it was: np.sort along the axis, then np.sum."""
    return np.sum(np.sort(x, axis=axis), axis=axis)


def placement_scalar_draws(config):
    """scenario.generate's collaborator and vehicle placement as it was, with six
    scalar Generator.uniform calls per vehicle attempt: (collaborator_poses, vehicles)."""
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
    max_weight = max(config.density_profile)
    vehicles = []
    keep_out = [RotatedBox(1.0, ax, ay, 1.0, 1.0, 1.0, 0.0)
                for ax, ay in [ego[:2]] + [p[:2] for p in collaborators]]
    for _ in range(config.n_vehicles):
        for _attempt in range(_MAX_ATTEMPTS):
            x = rng.uniform(0.0, side)
            y = rng.uniform(0.0, side)
            roll = rng.uniform()
            length = rng.uniform(*VEHICLE_LENGTH_RANGE)
            width = rng.uniform(*VEHICLE_WIDTH_RANGE)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            if roll * max_weight >= config.density_profile[sector_of_point(x, y, partition)]:
                continue
            cand = RotatedBox.from_angle(1.0, x, y, length, width, ang)
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
            raise PlacementExhausted(len(vehicles))
    return tuple(collaborators), tuple(vehicles)


def sigmoid_two_branch(x):
    """num.sigmoid as it was: each sign of x through its own exp."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out) if out.ndim == 0 else out


def detection_loss_masks(pred, truth, sector_map, n_dir, lambda_off=1.0, lambda_size=1.0):
    """learn.detection_loss as it was: a boolean mask per sector, built on every call."""
    from dircp.learn import _focal_terms, regression_mask, smooth_l1

    positive = truth[:, :, 0] > 0.5
    reg_mask = regression_mask(truth)
    focal_cells = _focal_terms(pred[:, :, 0], positive)
    res = pred[:, :, 1:7] - truth[:, :, 1:7]
    off_cells = smooth_l1(res[:, :, 0]) + smooth_l1(res[:, :, 1])
    size_cells = smooth_l1(res[:, :, 2:6]).sum(axis=2)
    focal, offset, size = np.zeros(n_dir), np.zeros(n_dir), np.zeros(n_dir)
    n_pos = np.zeros(n_dir, dtype=np.int64)
    for i in range(n_dir):
        cells = sector_map == i
        pos_i = positive & cells
        reg_i = reg_mask & cells
        n_pos[i] = int(pos_i.sum())
        norm = max(1, n_pos[i])
        focal[i] = focal_cells[cells].sum() / norm
        offset[i] = lambda_off * off_cells[reg_i].sum() / norm
        size[i] = lambda_size * size_cells[reg_i].sum() / norm
    return {"focal": focal, "offset": offset, "size": size,
            "total": focal + offset + size, "n_pos": n_pos}


def dw_loss_gradient_masks(pred, truth, sector_map, mask, sigma, lambda_off=1.0,
                           lambda_size=1.0):
    """learn.dw_loss_gradient as it was: dense over every cell, coef built per sector."""
    from dircp.learn import _focal_grad, regression_mask, smooth_l1_grad

    bits = tuple(getattr(mask, "mask", mask))
    denom = sum(bits) + sigma * len(bits)
    positive = truth[:, :, 0] > 0.5
    reg_mask = regression_mask(truth)
    coef = np.zeros(pred.shape[:2])
    for i in range(len(bits)):
        cells = sector_map == i
        norm = max(1, int((positive & cells).sum()))
        coef[cells] = (bits[i] + sigma) / denom / norm
    grad = np.zeros_like(pred)
    grad[:, :, 0] = _focal_grad(pred[:, :, 0], positive) * coef
    reg = smooth_l1_grad(pred[:, :, 1:7] - truth[:, :, 1:7]) * reg_mask[:, :, None] \
        * coef[:, :, None]
    reg[:, :, 0:2] *= lambda_off
    reg[:, :, 2:6] *= lambda_size
    grad[:, :, 1:7] = reg
    return grad


def score_mlp_forward_reference(params, q0, pe, de):
    """comms.score_mlp_forward as it was: out-of-place layers, every activation cached."""
    from dircp.comms import QueryConfidenceMap, _stack_inputs

    x = _stack_inputs(q0, pe, de)
    flat = x.reshape(-1, 3)
    h1 = np.maximum(flat @ params.w1.T + params.b1, 0.0)
    h2 = np.maximum(h1 @ params.w2.T + params.b2, 0.0)
    c = sigmoid_two_branch(h2 @ params.w3 + params.b3)
    cache = {"x": flat, "h1": h1, "h2": h2, "c": c, "params": params}
    return QueryConfidenceMap(c.reshape(x.shape[:3])), cache


def score_mlp_backward_reference(cache, d_c):
    """comms.score_mlp_backward as it was, on score_mlp_forward_reference's cache."""
    from dircp.comms import ScorerParams

    params = cache["params"]
    dz3 = np.asarray(d_c, dtype=np.float64).reshape(-1) * (cache["c"] * (1.0 - cache["c"]))
    dz2 = np.outer(dz3, params.w3) * (cache["h2"] > 0.0)
    dz1 = (dz2 @ params.w2) * (cache["h1"] > 0.0)
    return ScorerParams(dz1.T @ cache["x"], dz1.sum(axis=0), dz2.T @ cache["h1"],
                        dz2.sum(axis=0), cache["h2"].T @ dz3, float(dz3.sum()))


def relu_layer_row_bias(x, w, b):
    """comms._relu_layer as it was: the bias broadcast over (rows, hidden)."""
    out = x @ w.T
    out += b
    return np.maximum(out, 0.0, out=out)


def score_mlp_backward_outer(cache, d_c):
    """comms.score_mlp_backward as it was: np.multiply.outer and sum(axis=0)."""
    from dircp.comms import ScorerParams

    params = cache["params"]
    flat_dc = np.asarray(d_c, dtype=np.float64).reshape(-1)
    dz3 = flat_dc * (cache["c"] * (1.0 - cache["c"]))
    dw3 = cache["h2"].T @ dz3
    db3 = float(dz3.sum())
    dz2 = np.multiply.outer(dz3, params.w3)
    dz2 *= cache["h2"] > 0.0
    dw2 = dz2.T @ cache["h1"]
    db2 = dz2.sum(axis=0)
    dz1 = dz2 @ params.w2
    dz1 *= cache["h1"] > 0.0
    dw1 = dz1.T @ cache["x"]
    db1 = dz1.sum(axis=0)
    return ScorerParams(dw1, db1, dw2, db2, dw3, db3)


def top_cells_sort(scores, limit):
    """comms.top_cells as it was: indices of the `limit` best scores along the
    last axis, best first, ties to the lower index."""
    return np.argsort(-scores, axis=-1, kind="stable")[..., :limit]


def clip_queries_sort(c, q_max, tie_break="per_collaborator"):
    """comms.clip_queries as it was, on top_cells_sort's ranking; the bits as uint8."""
    from dircp.comms import per_collaborator_budget

    h, w, k = c.values.shape
    if tie_break == "per_collaborator":
        scores = c.values.reshape(h * w, k).T
        limit = per_collaborator_budget(q_max, h, w)
    else:
        scores = c.values.reshape(1, -1)
        limit = int(math.floor(q_max * h * w * k))
    chosen = top_cells_sort(scores, limit)
    row, rank = np.nonzero(np.take_along_axis(scores, chosen, axis=1) > 0.0)
    bits = np.zeros(h * w * k, dtype=np.uint8)
    bits[chosen[row, rank] * len(scores) + row] = 1
    return bits.reshape(h, w, k)


def objective_reference(fused_values, tscene, settings):
    """learn._objective as it was: (loss, per-direction losses, prediction)."""
    from dircp.learn import dw_loss

    h, w, d = fused_values.shape
    pred = np.zeros((h, w, 7))
    pred[:, :, 0] = sigmoid_two_branch(fused_values[:, :, 0])
    pred[:, :, 1:min(7, d)] = fused_values[:, :, 1:min(7, d)]
    parts = detection_loss_masks(pred, tscene.truth, tscene.scene.sector_map,
                                 settings.n_dir, settings.lambda_off, settings.lambda_size)
    return dw_loss(parts["total"], tscene.scene.mask, settings.loss_sigma), parts["total"], pred


def soft_forward_reference(params, tscene, budget, settings, want_grad=True):
    """learn.soft_forward as it was before the per-scene loss constants: the loss
    and its gradient rebuilt from boolean sector masks, the two-branch sigmoid, the
    out-of-place scorer MLP and the inline attention above."""
    from dircp.comms import per_collaborator_budget

    scene = tscene.scene
    attn = settings.attention_params()
    f = scene.features
    n, h, w, d = f.shape
    k = n - 1
    hw = h * w
    tau = settings.tau

    qcm, mlp_cache = score_mlp_forward_reference(params, scene.q0, scene.pe, scene.de)
    c_vals = qcm.values
    limit = min(per_collaborator_budget(budget, h, w), hw)
    flat = c_vals.reshape(hw, k).T
    qs = np.zeros((k, hw))
    if limit > 0:
        thr_idx = top_cells_sort(flat, limit)[:, -1]
        qs = sigmoid_two_branch((flat - flat[np.arange(k), thr_idx][:, None]) / tau)

    h_ag = f.copy()
    h_ag[1:] *= qs.reshape(k, h, w, 1)
    wgt, pre, conf, probs, queries = soft_attention_weights(
        f[0], h_ag, np.ones((n, h, w), dtype=bool), c_vals, attn, np.sum)
    fused, v, u = soft_attention_pool(h_ag, wgt, attn, np.sum)
    loss, per_dir, pred = objective_reference(fused, tscene, settings)
    if not want_grad:
        return loss, None, per_dir

    dpred = dw_loss_gradient_masks(pred, tscene.truth, scene.sector_map, scene.mask,
                                   settings.loss_sigma, settings.lambda_off,
                                   settings.lambda_size)
    dfused = np.zeros((h, w, d))
    p0 = pred[:, :, 0]
    dfused[:, :, 0] = dpred[:, :, 0] * p0 * (1.0 - p0)
    reg = min(7, d)
    dfused[:, :, 1:reg] += dpred[:, :, 1:reg]

    du = (dfused @ attn.ffn_w2) * (u > 0.0)
    ds = dfused + du @ attn.ffn_w1
    dwgt = np.einsum("hwd,nhwd->nhw", ds, v)
    dv = wgt[..., None] * ds[None]
    dh_ag = dv @ attn.value_matrix()
    d_c = np.moveaxis(dwgt[1:] * pre[1:], 0, 2)

    scale = 1.0 / math.sqrt(attn.head_dim)
    da = dwgt * conf / attn.n_heads
    for a, q, wk in zip(probs, queries, attn.wk):
        de_h = a * (da - (a * da).sum(axis=0))
        dh_ag += (de_h[..., None] * q[None] * scale) @ wk

    if limit > 0:
        dqs = np.einsum("nhwd,nhwd->nhw", dh_ag[1:], f[1:]).reshape(k, hw)
        g = qs * (1.0 - qs) / tau * dqs
        g[np.arange(k), thr_idx] -= g.sum(axis=1)
        d_c = d_c + np.moveaxis(g.reshape(k, h, w), 0, 2)
    return loss, score_mlp_backward_reference(mlp_cache, d_c), per_dir


def soft_attention(ego, feats, present, confidence, params, total):
    """The training path's kernel on a grid: the two inline halves above,
    returning (fused, weights, pre, tape) with the tape's arrays in the order
    fusion.attention_backward reads them."""
    wgt, pre, conf, a_heads, q_heads = soft_attention_weights(
        ego, feats, present, confidence, params, total)
    fused, v, u = soft_attention_pool(feats, wgt, params, total)
    heads = [x for a, q in zip(a_heads, q_heads) for x in (a, q)]
    return fused, wgt, pre, [u, v, wgt, pre, conf, *heads]


def one_row_grid(ego, feats, present, confidence):
    """fusion.attention's row arguments as the 1 x M grid the grid oracles take,
    whose matmuls run one gemm per agent over the same M rows."""
    return ego[None], feats[:, None], present[:, None], confidence.T[None]


def rows_of(x):
    """An array on the 1 x M grid as rows: its first two axes, one of them of
    length 1, merge."""
    return x.reshape(-1, *x.shape[2:])


def soft_attention_rows(ego, feats, present, confidence, params, total):
    """soft_attention as a drop-in for fusion.attention: run on the 1 x M grid of
    the rows, its outputs and tape returned as rows."""
    fused, wgt, pre, tape = soft_attention(*one_row_grid(ego, feats, present, confidence),
                                           params, total)
    return rows_of(fused), rows_of(wgt), rows_of(pre), [rows_of(x) for x in tape]


def stack_agents(ego, received):
    """(N, H, W, D) agent features and (N, H, W) presence over the full grid."""
    h, w = ego.grid.shape
    n = 1 + len(received)
    feats = np.zeros((n, h, w, ego.d), dtype=np.float64)
    present = np.zeros((n, h, w), dtype=bool)
    feats[0] = ego.values
    present[0] = True
    for j, sparse in enumerate(received, start=1):
        if sparse is not None:
            feats[j] = densify(sparse)
            present[j, sparse.rows, sparse.cols] = True
    return feats, present


def dense_dsa_weights(ego, received, qcm, params):
    """dsa_weights with the attention weights run on every cell of the grid; its
    cells are all of them, its rows the pooling there."""
    feats, present = stack_agents(ego, received)
    values, pre = hard_attention_weights(ego.values, feats, present, qcm.values, params)
    rows = hard_attention_pool(feats, values, params).reshape(-1, ego.d)
    return DsaWeights(values=np.moveaxis(values, 0, 2), pre_qcm=np.moveaxis(pre, 0, 2),
                      present=np.moveaxis(present, 0, 2), cells=np.arange(len(rows)),
                      rows=rows)


def dense_fuse(ego, received, weights, params):
    """fuse with the pooling run on every cell of the grid."""
    feats, _ = stack_agents(ego, received)
    out = hard_attention_pool(feats, np.moveaxis(weights.values, 2, 0), params)
    return FusedMap(grid=ego.grid, values=out, attention_trace=weights.values)


def clusters_full_scan(mask):
    """8-connected components, seeded by a scan over every cell in row-major order."""
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    out = []
    for r0 in range(h):
        for c0 in range(w):
            if not mask[r0, c0] or seen[r0, c0]:
                continue
            queue = deque([(r0, c0)])
            seen[r0, c0] = True
            cluster = []
            while queue:
                r, c = queue.popleft()
                cluster.append((r, c))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < h and 0 <= cc < w and mask[rr, cc] \
                                and not seen[rr, cc]:
                            seen[rr, cc] = True
                            queue.append((rr, cc))
            out.append(cluster)
    return out


def decode_per_cell(fused, conf_threshold, cap=0.5):
    """fusion.decode with the cluster points, weights and peak read one cell at a time."""
    grid = fused.grid
    cell = grid.cell_size
    conf = sigmoid(fused.values[:, :, 0])
    boxes = []
    for cluster in clusters_full_scan(conf > conf_threshold):
        pts = np.array([grid.center_of(r, c) for r, c in cluster])
        wts = np.array([min(max(fused.values[r, c, 0], 1e-6), cap) for r, c in cluster])
        total = wts.sum()
        mu = (pts * wts[:, None]).sum(axis=0) / total
        centered = pts - mu
        cov = (centered.T * wts) @ centered / total
        cov += (cell * cell / 12.0) * np.eye(2)
        eigvals, eigvecs = np.linalg.eigh(cov)
        lam2, lam1 = float(eigvals[0]), float(eigvals[1])
        if lam1 - lam2 < 1e-12:
            axis = np.array([1.0, 0.0])
        else:
            axis = eigvecs[:, 1]
            if axis[0] < 0.0 or (axis[0] == 0.0 and axis[1] < 0.0):
                axis = -axis
        length = max(math.sqrt(12.0 * lam1) - cell, 0.5 * cell)
        width = max(math.sqrt(12.0 * lam2) - cell, 0.5 * cell)
        norm = math.hypot(axis[0], axis[1])
        peak = float(max(conf[r, c] for r, c in cluster))
        boxes.append(RotatedBox(peak, float(mu[0]), float(mu[1]), length, width,
                                float(axis[0] / norm), float(axis[1] / norm)))
    boxes.sort(key=lambda b: -b.confidence)
    return boxes


def _greedy_match_per_call(preds, truths, iou_threshold):
    order = sorted(range(len(preds)), key=lambda i: -preds[i].confidence)
    matched = [False] * len(truths)
    flags = [False] * len(preds)
    for rank, i in enumerate(order):
        best_iou, best_j = 0.0, -1
        for j, truth in enumerate(truths):
            if matched[j]:
                continue
            v = iou(preds[i], truth)
            if v >= iou_threshold and v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0:
            matched[best_j] = True
            flags[rank] = True
    return flags


def average_precision_per_call(preds, truths, iou_threshold):
    """All-point interpolated AP, calling iou for each pair the matching visits."""
    if not truths:
        return 1.0 if not preds else 0.0
    if not preds:
        return 0.0
    flags = _greedy_match_per_call(preds, truths, iou_threshold)
    tp = np.cumsum(flags)
    precision = tp / np.arange(1, len(flags) + 1)
    recall = tp / len(truths)
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for p, r in zip(env, recall):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


def evaluate_boxes_per_call(preds, truths, partition, thresholds):
    """evaluate.evaluate_boxes with the IoUs recomputed per threshold and sector."""
    p = [[] for _ in range(partition.n_dir)]
    t = [[] for _ in range(partition.n_dir)]
    for boxes, by_sector in ((preds, p), (truths, t)):
        for b in boxes:
            by_sector[sector_of(b, partition)].append(b)
    ap_at_iou = {th: average_precision_per_call(preds, truths, th) for th in thresholds}
    ap_at_pd = {th: tuple(average_precision_per_call(ps, ts, th) for ps, ts in zip(p, t))
                for th in thresholds}
    return ap_at_iou, ap_at_pd


def attention_trace_csv_per_element(fused):
    """fusion.attention_trace_csv with one f-string, and one repr, per element."""
    lines = ["row,col,agent,weight"]
    h, w, n = fused.attention_trace.shape
    for r in range(h):
        for c in range(w):
            for a in range(n):
                lines.append(f"{r},{c},{a},{fused.attention_trace[r, c, a]!r}")
    return "\n".join(lines) + "\n"


def seed_cell_results_per_budget(args):
    """evaluate._seed_cell_results with every method, single too, run at every cell."""
    (scenario, settings, seed, budgets, sigmas, methods, scorers, grid) = args
    world = generate(replace(scenario, seed=seed), grid=grid)
    scene = prepare_scene(world, settings)
    out = []
    for sigma in sigmas:
        scorer = scorers.get(float(sigma)) if scorers else None
        sig_settings = replace(settings, loss_sigma=float(sigma))
        for budget in budgets:
            for method in methods:
                out.append(run_method(world, method, float(budget), sig_settings,
                                      scorer_params=None if method == "single" else scorer,
                                      scene=scene))
    return out
