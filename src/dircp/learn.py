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
from .fusion import attention, attention_backward
from .geometry import RotatedBox
from .grid import GridSpec
from .num import sigmoid
from .pipeline import RunSettings, SceneInputs, prepare_scene, run_pipeline
from .scenario import ScenarioConfig, generate

FOCAL_ALPHA = 2.0
_P_EPS = 1e-7
CHECKPOINT_MAGIC = b"DCPW"


class DegenerateWeights(ValueError):
    """Eq. 8 denominator is zero (sigma = 0 with an all-zero mask)."""


class DivergedTraining(RuntimeError):
    """Training loss became non-finite."""


def rasterize_truth(boxes: list[RotatedBox], grid: GridSpec, footprints) -> np.ndarray:
    """(H, W, 7) per-cell targets; footprints holds each box's cells, as
    ScenarioWorld.vehicle_cells does.

    Objectness (channel 0) is 1 on every cell of a box footprint, matching what
    the evidence channel should look like when the object is fully perceived.
    Offset/size/angle targets (channels 1-6) live on the box center cell only;
    center cells are recognizable downstream by a positive size channel.
    Headings are canonicalized to cos >= 0.
    """
    out = np.zeros((grid.h, grid.w, 7), dtype=np.float64)
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


@dataclass(frozen=True, eq=False)
class LossTerms:
    """What detection_loss reads of the truth and sector map; cells are flat, row-major."""

    positive: np.ndarray  # (H*W,) bool
    reg: np.ndarray       # regression cells, ascending
    targets: np.ndarray   # (len(reg), 6) their regression targets
    cells: tuple          # per sector, its cells, ascending
    reg_of: tuple         # per sector, the positions in reg of its regression cells
    n_pos: np.ndarray     # (n_dir,) positive cells per sector

    @classmethod
    def of(cls, truth: np.ndarray, sector_map: np.ndarray, n_dir: int) -> "LossTerms":
        positive = truth[:, :, 0].ravel() > 0.5
        reg = np.flatnonzero(regression_mask(truth))
        sector = np.asarray(sector_map).ravel()
        cells = tuple(np.flatnonzero(sector == i) for i in range(n_dir))
        return cls(positive, reg, truth.reshape(-1, 7)[reg, 1:], cells,
                   tuple(np.flatnonzero(sector[reg] == i) for i in range(n_dir)),
                   np.array([np.count_nonzero(positive[c]) for c in cells], dtype=np.int64))


def _loss_parts(pred: np.ndarray, terms: LossTerms, lambda_off: float,
                lambda_size: float) -> dict:
    # A sector's cells are summed in row-major order, as a boolean mask would pick them.
    flat = pred.reshape(-1, 7)
    focal_cells = _focal_terms(flat[:, 0], terms.positive)
    res = flat[terms.reg, 1:] - terms.targets
    off_cells = smooth_l1(res[:, 0]) + smooth_l1(res[:, 1])
    size_cells = smooth_l1(res[:, 2:6]).sum(axis=1)
    norm = np.maximum(terms.n_pos, 1)
    focal = np.array([focal_cells[c].sum() for c in terms.cells]) / norm
    offset = lambda_off * np.array([off_cells[r].sum() for r in terms.reg_of]) / norm
    size = lambda_size * np.array([size_cells[r].sum() for r in terms.reg_of]) / norm
    return {"focal": focal, "offset": offset, "size": size,
            "total": focal + offset + size, "n_pos": terms.n_pos}


def detection_loss(pred: np.ndarray, truth: np.ndarray, sector_map: np.ndarray,
                   n_dir: int, lambda_off: float = 1.0,
                   lambda_size: float = 1.0) -> dict:
    """Per-direction focal + smooth-L1 offset + smooth-L1 size/angle losses.

    Each direction is normalized by its own positive-cell count (1 if none).
    Returns arrays keyed focal/offset/size/total/n_pos, each of length n_dir.
    """
    if pred.shape != truth.shape or pred.shape[2] != 7:
        raise ValueError(f"pred {pred.shape} and truth {truth.shape} must be (H, W, 7)")
    return _loss_parts(pred, LossTerms.of(truth, sector_map, n_dir), lambda_off, lambda_size)


def _weighting(mask, sigma: float) -> tuple[tuple[int, ...], float]:
    """The mask bits M_i and Eq. 8's denominator, sum_i M_i + sigma n_dir."""
    bits = tuple(getattr(mask, "mask", mask))
    denom = sum(bits) + sigma * len(bits)
    if denom == 0.0:
        raise DegenerateWeights("sigma = 0 with an all-zero mask")
    return bits, denom


def dw_loss(per_direction, mask, sigma: float) -> float:
    """Direction-weighted total: sum_i L_i (M_i + sigma) / (sum_i M_i + sigma n_dir)."""
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    bits, denom = _weighting(mask, sigma)
    losses = np.asarray(per_direction, dtype=np.float64)
    if len(bits) != len(losses):
        raise ValueError("mask and per-direction losses disagree on n_dir")
    num = float(sum(loss * (bit + sigma) for loss, bit in zip(losses, bits)))
    return num / denom


def _loss_grads(pred: np.ndarray, terms: LossTerms, mask, sigma: float,
                lambda_off: float, lambda_size: float):
    """dw_loss's gradient: (H*W,) on objectness, (len(reg), 6) on the regression cells."""
    bits, denom = _weighting(mask, sigma)
    # Per-cell outer coefficient: direction weight / direction positive count.
    coef = np.zeros(len(terms.positive))
    for cells, norm, bit in zip(terms.cells, np.maximum(terms.n_pos, 1), bits):
        coef[cells] = (bit + sigma) / denom / norm
    flat = pred.reshape(-1, 7)
    reg = smooth_l1_grad(flat[terms.reg, 1:] - terms.targets) * coef[terms.reg, None]
    reg[:, 0:2] *= lambda_off
    reg[:, 2:6] *= lambda_size
    return _focal_grad(flat[:, 0], terms.positive) * coef, reg


def dw_loss_gradient(pred: np.ndarray, truth: np.ndarray, sector_map: np.ndarray,
                     mask, sigma: float, lambda_off: float = 1.0,
                     lambda_size: float = 1.0) -> np.ndarray:
    """Analytic gradient of dw_loss w.r.t. every entry of the prediction map."""
    terms = LossTerms.of(truth, sector_map, len(_weighting(mask, sigma)[0]))
    grad = np.zeros((len(terms.positive), 7))
    grad[:, 0], grad[terms.reg, 1:] = _loss_grads(pred, terms, mask, sigma, lambda_off,
                                                  lambda_size)
    return grad.reshape(pred.shape)


@dataclass(frozen=True)
class TrainScene:
    """A prepared scene, its rasterized ground truth and the loss constants of both."""

    scene: SceneInputs
    truth: np.ndarray = field(repr=False)
    terms: LossTerms = field(repr=False)


def make_train_scene(scene: SceneInputs) -> TrainScene:
    truth = rasterize_truth(list(scene.world.vehicles), scene.grid, scene.world.vehicle_cells)
    return TrainScene(scene, truth, LossTerms.of(truth, scene.sector_map, scene.mask.n_dir))


def training_scenes(scenario: ScenarioConfig, settings: RunSettings, n: int,
                    grid: GridSpec | None = None) -> list[TrainScene]:
    """The n training worlds of a scenario, seeded apart from its eval seeds, mod 2**64."""
    seeds = [(int(scenario.seed) + 100_000 + i) % 2**64 for i in range(n)]
    worlds = (generate(replace(scenario, seed=seed), grid=grid) for seed in seeds)
    return [make_train_scene(prepare_scene(world, settings)) for world in worlds]


def _objective(fused_values: np.ndarray, tscene: TrainScene, settings: RunSettings):
    """DWLoss of a fused map; returns (loss, per-direction losses, prediction), the
    prediction a per-cell 7-tuple: logistic objectness, then raw regression channels."""
    h, w, d = fused_values.shape
    pred = np.zeros((h, w, 7))
    pred[:, :, 0] = sigmoid(fused_values[:, :, 0])
    pred[:, :, 1:min(7, d)] = fused_values[:, :, 1:min(7, d)]
    total = _loss_parts(pred, tscene.terms, settings.lambda_off, settings.lambda_size)["total"]
    return dw_loss(total, tscene.scene.mask, settings.loss_sigma), total, pred


def soft_forward(params: ScorerParams, tscene: TrainScene, budget: float,
                 settings: RunSettings):
    """Differentiable surrogate of the full pipeline; returns (loss, grads, per_dir).

    The forward runs the evaluation path's attention kernel with every agent
    present on soft-clipped features and a plain sum over agents, with the scene's
    attention. Gradients flow to the scorer parameters only; attention stays fixed.
    """
    scene = tscene.scene
    attn = scene.attention
    n, h, w, d = scene.features.shape
    k = n - 1
    hw = h * w
    tau = settings.tau
    # The threshold cell is the last one the hard clip keeps.
    limit = min(per_collaborator_budget(budget, h, w), hw)
    f = scene.features.reshape(n, hw, d)  # the kernel's rows: the grid's cells in order

    qcm, mlp_cache = score_mlp_forward(params, scene.q0, scene.pe, scene.de)
    conf = qcm.values.reshape(hw, k).T  # agent-major, as the kernel takes it
    qs = np.zeros((k, hw))
    if limit > 0:
        thr_idx = top_cells(conf, limit)[1]
        qs = sigmoid((conf - conf[np.arange(k), thr_idx][:, None]) / tau)

    # Soft-clipped collaborators, the ego kept whole; the weights and pre ride on the tape.
    feats = np.empty((n, hw, d))
    feats[0] = f[0]
    np.multiply(f[1:], qs[..., None], out=feats[1:])
    fused, tape = attention(f[0], feats, None, conf, attn, np.sum)[::3]
    loss, per_dir, pred = _objective(fused.reshape(h, w, d), tscene, settings)
    dp0, dreg = _loss_grads(pred, tscene.terms, scene.mask, settings.loss_sigma,
                            settings.lambda_off, settings.lambda_size)
    dfused = np.zeros((hw, d))
    p0 = pred.reshape(hw, 7)[:, 0]
    dfused[:, 0] = dp0 * p0 * (1.0 - p0)
    reg = min(7, d)
    dfused[tscene.terms.reg, 1:reg] += dreg[:, :reg - 1]
    del feats, fused, pred, p0, dp0  # each large array goes before the backward runs

    d_feats, d_c = attention_backward(dfused, tape, attn)

    if limit > 0:
        dqs = np.einsum("nmd,nmd->nm", d_feats, f[1:])
        g = qs * (1.0 - qs) / tau * dqs
        g[np.arange(k), thr_idx] -= g.sum(axis=1)
        d_c += g

    grads = score_mlp_backward(mlp_cache, d_c.T)
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
    if settings.tie_break != "per_collaborator":  # the one clip soft_forward models
        raise ValueError("comms.tie_break: training models the per_collaborator clip only")
    current = params
    history: list[dict] = []
    hard0 = float(np.mean([hard_path_loss(current, ts, budget, settings)
                           for ts in scenes]))
    for step in range(steps):
        losses = []
        grad_acc = 0.0
        per_dir_acc = np.zeros(settings.n_dir)
        for ts in scenes:
            loss, grads, per_dir = soft_forward(current, ts, budget, settings)
            losses.append(loss)
            grad_acc = grad_acc + grads.to_vector()
            per_dir_acc += per_dir
        mean_loss = float(np.mean(losses))
        if not math.isfinite(mean_loss):
            raise DivergedTraining(f"loss {mean_loss} at step {step}")
        history.append({"step": step, "dw_loss": mean_loss,
                        "per_direction": list(per_dir_acc / len(scenes))})
        current = ScorerParams.from_vector(
            current.to_vector() + (-learning_rate / len(scenes)) * grad_acc, current.hidden)
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
