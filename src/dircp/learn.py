"""Detection losses, direction weighting, analytic gradients, and scorer training.

The evaluation path uses hard top-k query clipping and a clustering decoder,
neither of which is differentiable. Training therefore runs a soft surrogate:
the clip becomes a temperature-controlled logistic around the k-th confidence
value, and the decoder loss is computed on per-cell regression targets read
directly off the fused map. Evaluation always uses the hard path.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .comms import (
    ScorerParams,
    per_collaborator_budget,
    score_mlp_backward,
    score_mlp_forward,
    top_cells,
)
from .fusion import AttentionParams, attention_pool, attention_weights
from .geometry import RotatedBox
from .grid import GridSpec
from .num import sigmoid
from .pipeline import RunSettings, SceneInputs, prepare_scene, run_pipeline
from .scenario import ScenarioConfig, _footprint_cells, generate

FOCAL_ALPHA = 2.0
_P_EPS = 1e-7
CHECKPOINT_MAGIC = b"DCPW"


class DegenerateWeights(ValueError):
    """Eq. 8 denominator is zero (sigma = 0 with an all-zero mask)."""


class DivergedTraining(RuntimeError):
    """Training loss became non-finite."""


def rasterize_truth(boxes: list[RotatedBox], grid: GridSpec,
                    footprints=None) -> np.ndarray:
    """(H, W, 7) per-cell targets.

    Objectness (channel 0) is 1 on every cell of a box footprint, matching what
    the evidence channel should look like when the object is fully perceived.
    Offset/size/angle targets (channels 1-6) live on the box center cell only;
    center cells are recognizable downstream by a positive size channel.
    Headings are canonicalized to cos >= 0.
    """
    out = np.zeros((grid.h, grid.w, 7), dtype=np.float64)
    if footprints is None:
        footprints = [_footprint_cells(box, grid) for box in boxes]
    for box, cells in zip(boxes, footprints):
        for r, c in cells:
            out[r, c, 0] = 1.0
        r, c = grid.cell_of(box.cx, box.cy)
        if not grid.contains(r, c):
            continue
        cx, cy = grid.center_of(r, c)
        cos_a, sin_a = box.cos_a, box.sin_a
        if cos_a < 0.0 or (cos_a == 0.0 and sin_a < 0.0):
            cos_a, sin_a = -cos_a, -sin_a
        out[r, c] = (1.0, box.cx - cx, box.cy - cy, box.length, box.width,
                     cos_a, sin_a)
    return out


def regression_mask(truth: np.ndarray) -> np.ndarray:
    """Cells carrying offset/size targets (box centers have a positive length)."""
    return (truth[:, :, 0] > 0.5) & (truth[:, :, 3] > 0.0)


def smooth_l1(residual: np.ndarray) -> np.ndarray:
    """Quadratic below 1, linear above; C1 everywhere."""
    a = np.abs(residual)
    return np.where(a < 1.0, 0.5 * residual * residual, a - 0.5)


def smooth_l1_grad(residual: np.ndarray) -> np.ndarray:
    return np.where(np.abs(residual) < 1.0, residual, np.sign(residual))


def _focal_terms(p: np.ndarray, positive: np.ndarray):
    p = np.clip(p, _P_EPS, 1.0 - _P_EPS)
    pos_loss = -((1.0 - p) ** FOCAL_ALPHA) * np.log(p)
    neg_loss = -(p ** FOCAL_ALPHA) * np.log(1.0 - p)
    return np.where(positive, pos_loss, neg_loss)


def _focal_grad(p_raw: np.ndarray, positive: np.ndarray) -> np.ndarray:
    # Zero gradient where the probability is clipped for log stability.
    inside = (p_raw > _P_EPS) & (p_raw < 1.0 - _P_EPS)
    p = np.clip(p_raw, _P_EPS, 1.0 - _P_EPS)
    gpos = 2.0 * (1.0 - p) * np.log(p) - ((1.0 - p) ** 2) / p
    gneg = -2.0 * p * np.log(1.0 - p) + (p ** 2) / (1.0 - p)
    return np.where(positive, gpos, gneg) * inside


def detection_loss(pred: np.ndarray, truth: np.ndarray, sector_map: np.ndarray,
                   n_dir: int, lambda_off: float = 1.0,
                   lambda_size: float = 1.0) -> dict:
    """Per-direction focal + smooth-L1 offset + smooth-L1 size/angle losses.

    Each direction is normalized by its own positive-cell count (1 if none).
    Returns arrays keyed focal/offset/size/total/n_pos, each of length n_dir.
    """
    if pred.shape != truth.shape or pred.shape[2] != 7:
        raise ValueError(f"pred {pred.shape} and truth {truth.shape} must be (H, W, 7)")
    positive = truth[:, :, 0] > 0.5
    reg_mask = regression_mask(truth)
    focal_cells = _focal_terms(pred[:, :, 0], positive)
    res = pred[:, :, 1:7] - truth[:, :, 1:7]
    off_cells = smooth_l1(res[:, :, 0]) + smooth_l1(res[:, :, 1])
    size_cells = smooth_l1(res[:, :, 2:6]).sum(axis=2)
    focal = np.zeros(n_dir)
    offset = np.zeros(n_dir)
    size = np.zeros(n_dir)
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


def _mask_bits(mask) -> tuple[int, ...]:
    return tuple(getattr(mask, "mask", mask))


def dw_loss(per_direction, mask, sigma: float) -> float:
    """Direction-weighted total: sum_i L_i (M_i + sigma) / (sum_i M_i + sigma n_dir)."""
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    bits = _mask_bits(mask)
    losses = np.asarray(per_direction, dtype=np.float64)
    if len(bits) != len(losses):
        raise ValueError("mask and per-direction losses disagree on n_dir")
    denom = sum(bits) + sigma * len(bits)
    if denom == 0.0:
        raise DegenerateWeights("sigma = 0 with an all-zero mask")
    num = float(sum(loss * (bit + sigma) for loss, bit in zip(losses, bits)))
    return num / denom


def dw_loss_gradient(pred: np.ndarray, truth: np.ndarray, sector_map: np.ndarray,
                     mask, sigma: float, lambda_off: float = 1.0,
                     lambda_size: float = 1.0) -> np.ndarray:
    """Analytic gradient of dw_loss w.r.t. every entry of the prediction map."""
    bits = _mask_bits(mask)
    n_dir = len(bits)
    denom = sum(bits) + sigma * n_dir
    if denom == 0.0:
        raise DegenerateWeights("sigma = 0 with an all-zero mask")
    positive = truth[:, :, 0] > 0.5
    reg_mask = regression_mask(truth)
    # Per-cell outer coefficient: direction weight / direction positive count.
    coef = np.zeros(pred.shape[:2])
    for i in range(n_dir):
        cells = sector_map == i
        norm = max(1, int((positive & cells).sum()))
        coef[cells] = (bits[i] + sigma) / denom / norm
    grad = np.zeros_like(pred)
    grad[:, :, 0] = _focal_grad(pred[:, :, 0], positive) * coef
    res = pred[:, :, 1:7] - truth[:, :, 1:7]
    reg = smooth_l1_grad(res) * reg_mask[:, :, None] * coef[:, :, None]
    reg[:, :, 0:2] *= lambda_off
    reg[:, :, 2:6] *= lambda_size
    grad[:, :, 1:7] = reg
    return grad


@dataclass(frozen=True)
class TrainScene:
    """A prepared scene plus its rasterized ground truth."""

    scene: SceneInputs
    truth: np.ndarray = field(repr=False)


def make_train_scene(scene: SceneInputs) -> TrainScene:
    truth = rasterize_truth(list(scene.world.vehicles), scene.grid,
                            footprints=scene.world.vehicle_cells)
    return TrainScene(scene, truth)


def training_scenes(scenario: ScenarioConfig, settings: RunSettings, n: int,
                    grid: GridSpec | None = None) -> list[TrainScene]:
    """The n training worlds of a scenario, seeded apart from its eval seeds."""
    base = int(scenario.seed) + 100_000
    worlds = (generate(replace(scenario, seed=base + i), grid=grid) for i in range(n))
    return [make_train_scene(prepare_scene(world, settings)) for world in worlds]


def _fused_to_pred(fused_values: np.ndarray) -> np.ndarray:
    """Per-cell 7-tuple readout: logistic objectness + raw regression channels."""
    h, w, d = fused_values.shape
    pred = np.zeros((h, w, 7))
    pred[:, :, 0] = sigmoid(fused_values[:, :, 0])
    reg = min(7, d)
    pred[:, :, 1:reg] = fused_values[:, :, 1:reg]
    return pred


def _objective(fused_values: np.ndarray, tscene: TrainScene, settings: RunSettings):
    """DWLoss of a fused map; returns (loss, per-direction losses, prediction)."""
    scene = tscene.scene
    pred = _fused_to_pred(fused_values)
    parts = detection_loss(pred, tscene.truth, scene.sector_map, settings.n_dir,
                           settings.lambda_off, settings.lambda_size)
    return dw_loss(parts["total"], scene.mask, settings.loss_sigma), parts["total"], pred


def soft_forward(params: ScorerParams, tscene: TrainScene, budget: float,
                 settings: RunSettings, attn: AttentionParams | None = None,
                 want_grad: bool = True):
    """Differentiable surrogate of the full pipeline; returns (loss, grads, per_dir).

    The forward runs the evaluation path's attention kernel with every agent
    present on soft-clipped features and a plain sum over agents. grads is
    None when want_grad is False. Gradients flow to the scorer parameters
    only; attention parameters stay fixed.
    """
    scene = tscene.scene
    if attn is None:
        attn = settings.attention_params()
    f = scene.features
    n, h, w, d = f.shape
    k = n - 1
    hw = h * w
    tau = settings.tau

    qcm, mlp_cache = score_mlp_forward(params, scene.q0, scene.pe, scene.de)
    c_vals = qcm.values

    # The threshold cell is the last one the hard clip keeps.
    limit = min(per_collaborator_budget(budget, h, w), hw)
    flat = c_vals.reshape(hw, k).T
    qs = np.zeros((k, hw))
    if limit > 0:
        thr_idx = top_cells(flat, limit)[:, -1]
        qs = sigmoid((flat - flat[np.arange(k), thr_idx][:, None]) / tau)

    h_ag = f.copy()
    h_ag[1:] *= qs.reshape(k, h, w, 1)
    wgt, pre, conf, probs, queries = attention_weights(
        f[0], h_ag, np.ones((n, h, w), dtype=bool), c_vals, attn, np.sum)
    fused, v, u = attention_pool(h_ag, wgt, attn, np.sum)
    del h_ag  # the backward reads v, not the features it was projected from
    loss, per_dir, pred = _objective(fused, tscene, settings)
    if not want_grad:
        return loss, None, per_dir

    dpred = dw_loss_gradient(pred, tscene.truth, scene.sector_map, scene.mask,
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
    dv = np.multiply(wgt[..., None], ds[None], out=v)  # v is not read again
    dh_ag = dv @ attn.value_matrix()
    d_c = np.moveaxis(dwgt[1:] * pre[1:], 0, 2)

    scale = 1.0 / math.sqrt(attn.head_dim)
    da = dwgt * conf / attn.n_heads
    for a, q, wk in zip(probs, queries, attn.wk):
        de_h = a * (da - (a * da).sum(axis=0))
        dh_ag += np.matmul(de_h[..., None] * q[None] * scale, wk, out=dv)

    if limit > 0:
        dqs = np.einsum("nhwd,nhwd->nhw", dh_ag[1:], f[1:]).reshape(k, hw)
        g = qs * (1.0 - qs) / tau * dqs
        g[np.arange(k), thr_idx] -= g.sum(axis=1)
        d_c = d_c + np.moveaxis(g.reshape(k, h, w), 0, 2)

    del v, dv, dh_ag  # free the (N, H, W, D) arrays before the scorer's backward
    grads = score_mlp_backward(mlp_cache, d_c)
    return loss, grads, per_dir


def hard_path_loss(params: ScorerParams | None, tscene: TrainScene, budget: float,
                   settings: RunSettings) -> float:
    """DWLoss of the non-differentiable directed evaluation path, for gap reporting."""
    result = run_pipeline(tscene.scene, "directed", budget, settings, params)
    return _objective(result.fused.values, tscene, settings)[0]


@dataclass
class TrainResult:
    params: ScorerParams
    history: list[dict]
    hard_loss_initial: float
    hard_loss_final: float


def train_scorer(params: ScorerParams, scenes: list[TrainScene], budget: float,
                 settings: RunSettings, learning_rate: float = 0.5,
                 steps: int = 200) -> TrainResult:
    """Plain gradient descent on the mean soft-path DWLoss over the batch."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not scenes:
        raise ValueError("need at least one training scene")
    attn = settings.attention_params()
    current = params
    history: list[dict] = []
    hard0 = float(np.mean([hard_path_loss(current, ts, budget, settings)
                           for ts in scenes]))
    for step in range(steps):
        losses = []
        grad_acc = ScorerParams.zeros(current.hidden)
        per_dir_acc = np.zeros(settings.n_dir)
        for ts in scenes:
            loss, grads, per_dir = soft_forward(current, ts, budget, settings, attn)
            losses.append(loss)
            grad_acc = grad_acc.scaled_add(grads, 1.0)
            per_dir_acc += per_dir
        mean_loss = float(np.mean(losses))
        if not math.isfinite(mean_loss):
            raise DivergedTraining(f"loss {mean_loss} at step {step}")
        history.append({"step": step, "dw_loss": mean_loss,
                        "per_direction": list(per_dir_acc / len(scenes))})
        current = current.scaled_add(grad_acc, -learning_rate / len(scenes))
    hard1 = float(np.mean([hard_path_loss(current, ts, budget, settings)
                           for ts in scenes]))
    return TrainResult(params=current, history=history,
                       hard_loss_initial=hard0, hard_loss_final=hard1)


def training_log_csv(history: list[dict]) -> str:
    if not history:
        return "step,dw_loss\n"
    n_dir = len(history[0]["per_direction"])
    header = "step,dw_loss," + ",".join(f"loss_dir{i}" for i in range(n_dir))
    lines = [header]
    for row in history:
        cells = [str(row["step"]), repr(row["dw_loss"])]
        cells += [repr(v) for v in row["per_direction"]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def save_scorer(params: ScorerParams, path: str | Path) -> None:
    """Checkpoint format: magic, u32 count, count f32 values (little-endian)."""
    vec = params.to_vector().astype("<f4")
    Path(path).write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(vec))
                           + vec.tobytes())


def load_scorer(path: str | Path) -> ScorerParams:
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError("not a scorer checkpoint")
    count = struct.unpack("<I", raw[4:8])[0]
    if len(raw) != 8 + 4 * count:
        raise ValueError("checkpoint length mismatch")
    vec = np.frombuffer(raw, dtype="<f4", offset=8).astype(np.float64)
    # hidden solves hidden^2 + 6 hidden + 1 = count
    hidden = int(round(math.sqrt(count + 8))) - 3
    if hidden < 1 or hidden * hidden + 6 * hidden + 1 != count:
        raise ValueError(f"checkpoint size {count} is not a valid scorer shape")
    return ScorerParams.from_vector(vec, hidden)
