"""Direction-aware selective attention over agents and the moments-based decoder."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .comms import QueryConfidenceMap, ShapeMismatch
from .features import BevFeatureMap, SparseFeatureMap, densify
from .geometry import RotatedBox
from .grid import GridSpec
from .num import canonical_sum, sigmoid

KEY_EVIDENCE_GAIN = 2.0


@dataclass(frozen=True)
class AttentionParams:
    """Per-head Q/K/V projections, output projection, and the FFN."""

    n_heads: int
    wq: np.ndarray  # (n_heads, dh, D)
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray  # (D, D)
    ffn_w1: np.ndarray  # (d_ff, D)
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray  # (D, d_ff)
    ffn_b2: np.ndarray

    def __post_init__(self):
        d = self.wo.shape[0]
        if d % self.n_heads != 0:
            raise ValueError("D must be divisible by n_heads")
        dh = d // self.n_heads
        if self.wq.shape != (self.n_heads, dh, d) or self.wk.shape != self.wq.shape \
                or self.wv.shape != self.wq.shape or self.wo.shape != (d, d):
            raise ShapeMismatch("attention projection shapes inconsistent")
        d_ff = self.ffn_w1.shape[0]
        if self.ffn_w1.shape != (d_ff, d) or self.ffn_b1.shape != (d_ff,) \
                or self.ffn_w2.shape != (d, d_ff) or self.ffn_b2.shape != (d,):
            raise ShapeMismatch("FFN shapes inconsistent")
        for arr in (self.wq, self.wk, self.wv, self.wo,
                    self.ffn_w1, self.ffn_b1, self.ffn_w2, self.ffn_b2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("attention parameters must be finite")

    @property
    def d(self) -> int:
        return self.wo.shape[0]

    @property
    def head_dim(self) -> int:
        return self.d // self.n_heads

    @classmethod
    def identity(cls, d: int, n_heads: int = 2, d_ff: int | None = None,
                 qk_scale: float = 1.0) -> "AttentionParams":
        """Identity-preserving initialization.

        Value and output projections reproduce the input exactly and the FFN
        second layer is zero, so fusing with only the ego present returns the
        ego features bit-for-bit. Q/K are identity slices scaled by qk_scale;
        the first head's key projection additionally mixes the evidence channel
        into the decay row (KEY_EVIDENCE_GAIN), so keys carrying evidence
        outrank empty (junk) transmissions at every cell whatever the ego sees.
        """
        if d % n_heads != 0:
            raise ValueError("D must be divisible by n_heads")
        if d_ff is None:
            d_ff = 2 * d
        dh = d // n_heads
        eye = np.eye(d)
        slices = np.stack([eye[h * dh:(h + 1) * dh] for h in range(n_heads)])
        wk = slices * qk_scale
        if dh >= 2:
            # Row reading channel 1 (distance decay, always positive on the
            # query side) also reads channel 0 (evidence) on the key side.
            wk = wk.copy()
            wk[0, 1, 0] += KEY_EVIDENCE_GAIN * qk_scale
        rng = np.random.default_rng(12345)  # fixed: identity init is a constant
        return cls(n_heads=n_heads, wq=slices * qk_scale, wk=wk,
                   wv=slices.copy(), wo=eye.copy(),
                   ffn_w1=rng.normal(0.0, 0.1, (d_ff, d)),
                   ffn_b1=np.full(d_ff, 0.01),
                   ffn_w2=np.zeros((d, d_ff)), ffn_b2=np.zeros(d))

    @classmethod
    def random(cls, d: int, n_heads: int = 2, d_ff: int | None = None,
               seed: int = 0, scale: float = 0.2) -> "AttentionParams":
        if d % n_heads != 0:
            raise ValueError("D must be divisible by n_heads")
        if d_ff is None:
            d_ff = 2 * d
        dh = d // n_heads
        rng = np.random.default_rng(seed)
        return cls(n_heads=n_heads,
                   wq=rng.normal(0, scale, (n_heads, dh, d)),
                   wk=rng.normal(0, scale, (n_heads, dh, d)),
                   wv=rng.normal(0, scale, (n_heads, dh, d)),
                   wo=rng.normal(0, scale, (d, d)),
                   ffn_w1=rng.normal(0, scale, (d_ff, d)),
                   ffn_b1=rng.normal(0, scale, d_ff),
                   ffn_w2=rng.normal(0, scale, (d, d_ff)),
                   ffn_b2=rng.normal(0, scale, d))

    def value_matrix(self) -> np.ndarray:
        """Combined per-cell value map: wo @ concat_heads(wv)."""
        return self.wo @ np.concatenate(list(self.wv), axis=0)


@dataclass(frozen=True)
class DsaWeights:
    """Per-location, per-agent attention weights (agent 0 is the ego)."""

    values: np.ndarray = field(repr=False)    # (H, W, N), QCM-modulated
    pre_qcm: np.ndarray = field(repr=False)   # (H, W, N), softmax output
    present: np.ndarray = field(repr=False)   # (H, W, N) bool


@dataclass(frozen=True)
class FusedMap:
    grid: GridSpec
    values: np.ndarray = field(repr=False)           # (H, W, D)
    attention_trace: np.ndarray = field(repr=False)  # (H, W, N)

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("fused values must be finite")
        if np.any(self.attention_trace < 0.0):
            raise ValueError("attention trace weights must be non-negative")


def _stack_agents(ego: BevFeatureMap, received: list[SparseFeatureMap | None]):
    """(N, H, W, D) agent feature tensor and (N, H, W) presence mask."""
    h, w = ego.grid.shape
    d = ego.d
    n = 1 + len(received)
    feats = np.zeros((n, h, w, d), dtype=np.float64)
    present = np.zeros((n, h, w), dtype=bool)
    feats[0] = ego.values
    present[0] = True
    for j, sparse in enumerate(received, start=1):
        if sparse is None:
            continue
        if sparse.shape != (h, w, d):
            raise ShapeMismatch(f"received map {j} shape {sparse.shape} != {(h, w, d)}")
        feats[j] = densify(sparse)
        present[j, sparse.rows, sparse.cols] = True
    return feats, present


def attention_weights(ego: np.ndarray, feats: np.ndarray, present: np.ndarray,
                      confidence: np.ndarray, params: AttentionParams, total):
    """Weights half of the attention kernel; agents on axis 0, the ego first.

    Per head, a scaled dot-product softmax of the ego's queries (H, W, D) over
    the keys (N, H, W, D) of the agents present (N, H, W) at each cell; the
    head average is scaled by confidence, 1 for the ego and (H, W, N-1) for
    the others. total(x, axis) sums over agents. Returns (weights, pre, conf),
    each (N, H, W), and per head the softmax and queries the backward reads.
    """
    scale = 1.0 / math.sqrt(params.head_dim)
    pre = np.zeros(present.shape, dtype=np.float64)
    probs, queries = [], []
    for head in range(params.n_heads):
        q = ego @ params.wq[head].T
        e = np.einsum("hwd,nhwd->nhw", q, feats @ params.wk[head].T) * scale
        e = np.where(present, e, -np.inf)
        ex = np.where(present, np.exp(e - e.max(axis=0)), 0.0)
        a = ex / total(ex, axis=0)
        pre += a
        probs.append(a)
        queries.append(q)
    pre /= params.n_heads
    conf = np.concatenate([np.ones((1, *confidence.shape[:2])),
                           np.moveaxis(confidence, 2, 0)])
    return pre * conf, pre, conf, probs, queries


def attention_pool(feats: np.ndarray, weights: np.ndarray, params: AttentionParams,
                   total):
    """Fusion half: value projection, pooling by weights (N, H, W), residual FFN.

    Returns the fused (H, W, D) map, the values and the FFN pre-activation.
    """
    values = feats @ params.value_matrix().T
    pooled = total(values * weights[..., None], axis=0)
    hidden = pooled @ params.ffn_w1.T + params.ffn_b1
    out = pooled + np.maximum(hidden, 0.0) @ params.ffn_w2.T + params.ffn_b2
    return out, values, hidden


def dsa_weights(ego: BevFeatureMap, received: list[SparseFeatureMap | None],
                qcm: QueryConfidenceMap, params: AttentionParams) -> DsaWeights:
    """Scaled dot-product attention over agents at every cell.

    The ego is agent 0 with an implicit confidence of 1; collaborator weights
    are the head-averaged softmax scores (over agents present at the cell)
    multiplied by the collaborator's query confidence. Sums over agents run in
    canonical order, so no weight depends on the order of the agents.
    """
    h, w = ego.grid.shape
    if qcm.values.shape[:2] != (h, w) or qcm.n_collaborators != len(received):
        raise ShapeMismatch("QCM shape disagrees with ego grid / received list")
    if params.d != ego.d:
        raise ShapeMismatch("attention params width disagrees with features")
    feats, present = _stack_agents(ego, received)
    values, pre, *_ = attention_weights(ego.values, feats, present, qcm.values,
                                        params, canonical_sum)
    return DsaWeights(values=np.moveaxis(values, 0, 2),
                      pre_qcm=np.moveaxis(pre, 0, 2),
                      present=np.moveaxis(present, 0, 2))


def fuse(ego: BevFeatureMap, received: list[SparseFeatureMap | None],
         weights: DsaWeights, params: AttentionParams) -> FusedMap:
    """Weighted agent fusion followed by the residual feed-forward block."""
    feats, _ = _stack_agents(ego, received)
    n, h, w, d = feats.shape
    if weights.values.shape != (h, w, n):
        raise ShapeMismatch("weights shape disagrees with agents")
    out, _, _ = attention_pool(feats, np.moveaxis(weights.values, 2, 0), params,
                               canonical_sum)
    return FusedMap(grid=ego.grid, values=out, attention_trace=weights.values)


def _clusters(mask: np.ndarray) -> list[list[tuple[int, int]]]:
    """8-connected components of True cells, in row-major discovery order."""
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


_EVIDENCE_WEIGHT_CAP = 0.5


def decode(fused: FusedMap, conf_threshold: float) -> list[RotatedBox]:
    """Cluster above-threshold cells and fit one rotated box per cluster.

    Confidence is the logistic of the channel-0 fused evidence. Each cluster
    yields an evidence-weighted centroid and a second-moment (eigen) size and
    heading estimate. The moment weights saturate at half evidence: a cell
    confirmed by several agents must not outweigh one the ego alone saw fully,
    otherwise attention-scale tilt across a cluster skews the box estimate.
    Each size shrinks by one cell, the half-cell halo that any-overlap
    rasterization adds on either side of a vehicle.
    """
    if not (0.0 < conf_threshold < 1.0):
        raise ValueError("conf_threshold must lie in (0, 1)")
    grid = fused.grid
    cell = grid.cell_size
    conf = sigmoid(fused.values[:, :, 0])
    boxes = []
    for cluster in _clusters(conf > conf_threshold):
        pts = np.array([grid.center_of(r, c) for r, c in cluster])
        wts = np.array([min(max(fused.values[r, c, 0], 1e-6), _EVIDENCE_WEIGHT_CAP)
                        for r, c in cluster])
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


def attention_trace_csv(fused: FusedMap) -> str:
    """CSV dump of the attention trace: row, col, agent, weight."""
    lines = ["row,col,agent,weight"]
    h, w, n = fused.attention_trace.shape
    for r in range(h):
        for c in range(w):
            for a in range(n):
                lines.append(f"{r},{c},{a},{fused.attention_trace[r, c, a]!r}")
    return "\n".join(lines) + "\n"
