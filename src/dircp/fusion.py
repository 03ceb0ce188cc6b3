"""Direction-aware selective attention over agents and the moments-based decoder."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .comms import QueryConfidenceMap, ShapeMismatch
from .features import BevFeatureMap, SparseFeatureMap
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
        if d_ff is None:
            d_ff = 2 * d
        dh = d // n_heads
        eye = np.eye(d)
        slices = np.stack([eye[h * dh:(h + 1) * dh] for h in range(n_heads)])
        wk = slices * qk_scale
        if dh >= 2:
            # Row reading channel 1 (distance decay, always positive on the
            # query side) also reads channel 0 (evidence) on the key side.
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
    cells: np.ndarray = field(repr=False)     # (M,) flat indices of the landed cells
    rows: np.ndarray = field(repr=False)      # (M, D) the fused rows at those cells


@dataclass(frozen=True)
class FusedMap:
    grid: GridSpec
    values: np.ndarray = field(repr=False)           # (H, W, D)
    attention_trace: np.ndarray = field(repr=False)  # (H, W, N)

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("fused values must be finite")
        if not np.all(np.isfinite(self.attention_trace) & (self.attention_trace >= 0.0)):
            raise ValueError("attention trace weights must be finite and non-negative")


def _gather(ego: BevFeatureMap, received: list[SparseFeatureMap | None]):
    """The flat indices of the M cells where any collaborator's map landed, and
    there the agents' presence (N, M) and features (N, M, D): the ego's rows,
    each received map's entries, zeros where an agent is absent."""
    h, w = ego.grid.shape
    landed = np.zeros(h * w, dtype=bool)
    landed_at = []
    for j, sparse in enumerate(received, start=1):
        if sparse is None:
            continue
        if sparse.shape != (h, w, ego.d):
            raise ShapeMismatch(f"received map {j} shape {sparse.shape} != {(h, w, ego.d)}")
        flat = sparse.rows * w + sparse.cols
        landed[flat] = True
        landed_at.append((j, flat, sparse.values))
    slot = np.cumsum(landed) - 1  # each landed cell's place among them
    cells = np.flatnonzero(landed)
    present = np.zeros((len(received) + 1, len(cells)), dtype=bool)
    present[0] = True
    feats = np.zeros((len(received) + 1, len(cells), ego.d))
    feats[0] = ego.values.reshape(h * w, ego.d)[cells]
    for j, flat, values in landed_at:
        present[j, slot[flat]] = True
        feats[j, slot[flat]] = values
    return cells, present, feats


def attention(ego: np.ndarray, feats: np.ndarray, present: np.ndarray | None,
              confidence: np.ndarray, params: AttentionParams, total):
    """The attention kernel over M cells; agents on axis 0, the ego first.

    Per head, a scaled dot-product softmax of the ego's queries (M, D) over the
    keys (N, M, D) of the agents present (N, M; None for all) at each cell; the
    head average, pre, is scaled by confidence, 1 for the ego and (N-1, M) for
    the others, and pools the agents' values ahead of the residual FFN. total(x,
    axis) sums over agents. Returns the fused (M, D) rows, the weights and pre
    (N, M), and the tape of arrays attention_backward reads.
    """
    scale = 1.0 / math.sqrt(params.head_dim)
    pre = np.zeros(feats.shape[:2], dtype=np.float64)
    heads = []
    for head in range(params.n_heads):
        q = ego @ params.wq[head].T
        e = np.einsum("md,nmd->nm", q, feats @ params.wk[head].T) * scale
        if present is not None:  # an absent agent's exp(-inf) is exactly 0.0
            e = np.where(present, e, -np.inf)
        ex = np.exp(e - e.max(axis=0))
        a = ex / total(ex, axis=0)
        pre += a
        heads += [a, q]
    pre /= params.n_heads
    del e, ex  # the last head's: the pooling below is where the kernel peaks
    conf = np.concatenate([np.ones((1, len(ego))), confidence])
    weights = pre * conf
    values = feats @ params.value_matrix().T
    pooled = total(values * weights[..., None], axis=0)
    hidden = pooled @ params.ffn_w1.T + params.ffn_b1
    fused = pooled + np.maximum(hidden, 0.0) @ params.ffn_w2.T + params.ffn_b2
    return fused, weights, pre, [hidden, values, weights, pre, conf, *heads]


def attention_backward(d_fused: np.ndarray, tape: list, params: AttentionParams):
    """d_fused (M, D), a loss's gradient at attention's fused rows, carried back
    to the collaborators' feats and the confidence: (N-1, M, D) and (N-1, M).

    For every agent present and np.sum over agents, the ego's queries held
    fixed. tape is attention's, emptied as it is read: each array goes once
    the backward is done with it.
    """
    hidden, values, weights, pre, conf = tape[:5]
    del tape[:5]
    d_hidden = (d_fused @ params.ffn_w2) * (hidden > 0.0)
    d_pooled = d_fused + d_hidden @ params.ffn_w1
    del hidden, d_hidden
    d_weights = np.einsum("md,nmd->nm", d_pooled, values)
    d_values = np.multiply(weights[1:, :, None], d_pooled[None], out=values[1:])
    del values, weights, d_pooled
    d_feats = d_values @ params.value_matrix()
    d_conf = d_weights[1:] * pre[1:]
    scale = 1.0 / math.sqrt(params.head_dim)
    d_pre = d_weights * conf / params.n_heads
    del d_weights, pre, conf
    for wk in params.wk:
        a, q = tape[:2]
        del tape[:2]
        d_e = a[1:] * (d_pre[1:] - (a * d_pre).sum(axis=0))
        d_feats += np.matmul(d_e[..., None] * q[None] * scale, wk, out=d_values)
    return d_feats, d_conf


def _attend(feats, present, confidence, params: AttentionParams):
    """attention's fused rows, weights and pre, with feats[0] as the ego and
    canonical_sum over agents. A lone row runs twice, as matmul would take one
    row down another BLAS path (gemv) that rounds apart."""
    m = feats.shape[1]
    if m == 1:
        feats, present, confidence = (x.repeat(2, axis=1) for x in (feats, present, confidence))
    fused, weights, pre, _ = attention(feats[0], feats, present, confidence, params,
                                       canonical_sum)
    return fused[:m], weights[:, :m], pre[:, :m]


def dsa_weights(ego: BevFeatureMap, received: list[SparseFeatureMap | None],
                qcm: QueryConfidenceMap, params: AttentionParams) -> DsaWeights:
    """Scaled dot-product attention over agents at every cell.

    The ego is agent 0 with an implicit confidence of 1; collaborator weights
    are the head-averaged softmax scores (over agents present at the cell)
    multiplied by the collaborator's query confidence. Sums over agents run in
    canonical order, so no weight depends on the order of the agents.

    The kernel runs only on the M cells where a collaborator's map landed,
    gathered as (N, M, D); elsewhere the ego is alone, so pre_qcm and the
    weights are [1.0, 0.0, ...] and present is [True, False, ...] there. Every
    field is read-only; cells and rows hand fuse the landed cells' fused rows.
    """
    h, w = ego.grid.shape
    if qcm.values.shape[:2] != (h, w) or qcm.n_collaborators != len(received):
        raise ShapeMismatch("QCM shape disagrees with ego grid / received list")
    if params.d != ego.d:
        raise ShapeMismatch("attention params width disagrees with features")
    cells, present, feats = _gather(ego, received)
    conf = qcm.values.reshape(h * w, len(received))[cells].T  # (N-1, M)
    rows, at, pre_at = _attend(feats, present, conf, params)
    grids = []
    for landed in (at, pre_at, present):  # the ego column, then the landed cells
        full = np.zeros((h * w, len(feats)), dtype=landed.dtype)
        full[:, 0], full[cells] = 1, landed.T
        grids.append(full.reshape(h, w, -1))
    for arr in (*grids, cells, rows):
        arr.setflags(write=False)
    return DsaWeights(*grids, cells=cells, rows=rows)


def ego_only(ego: BevFeatureMap, params: AttentionParams) -> np.ndarray:
    """The fused (H, W, D) map of the ego alone at weight 1.0 on every cell: what
    fuse gives wherever no collaborator's map landed, from one attention pass over
    all H*W rows (alone, the ego's softmax gives it a weight of exactly 1.0).
    """
    n = ego.grid.h * ego.grid.w
    return _attend(ego.values.reshape(1, n, ego.d), np.ones((1, n), dtype=bool),
                   np.empty((0, n)), params)[0].reshape(ego.values.shape)


def fuse(ego: BevFeatureMap, weights: DsaWeights, ego_only_map: np.ndarray) -> FusedMap:
    """Weighted agent fusion followed by the residual feed-forward block.

    weights is dsa_weights' output for ego: its rows are the kernel's fused rows
    at its cells, where a collaborator's map landed. Elsewhere the ego is alone
    at weight 1.0, so the row is copied from ego_only_map, ego_only(ego, params).
    """
    if ego_only_map.shape != ego.values.shape or weights.values.shape[:2] != ego.grid.shape:
        raise ShapeMismatch("ego-only map or weights' grid disagrees with the ego map")
    out = ego_only_map.copy()
    out.reshape(-1, ego.d)[weights.cells] = weights.rows
    return FusedMap(ego.grid, out, weights.values)


def _clusters(mask: np.ndarray) -> list[list[tuple[int, int]]]:
    """8-connected components of True cells, in row-major discovery order, each
    grown breadth-first from its first cell; decode's sums follow that order."""
    wp = mask.shape[1] + 2  # flat indices into the mask padded by one False cell
    seeds = np.flatnonzero(np.pad(mask, 1)).tolist()
    unseen = set(seeds)
    steps = [dr * wp + dc for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
    out = []
    for seed in (s for s in seeds if s in unseen):
        unseen.remove(seed)
        cluster = [seed]
        for i in cluster:  # the list grows behind the loop: a breadth-first queue
            for step in steps:
                j = i + step
                if j in unseen:
                    unseen.remove(j)
                    cluster.append(j)
        out.append([(i // wp - 1, i % wp - 1) for i in cluster])
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
    clusters, moments = [], []
    for cluster in _clusters(conf > conf_threshold):
        rr, cc = np.array(cluster).T
        pts = grid.centers[rr, cc]
        wts = np.minimum(np.maximum(fused.values[rr, cc, 0], 1e-6), _EVIDENCE_WEIGHT_CAP)
        total = wts.sum()
        mu = (pts * wts[:, None]).sum(axis=0) / total
        centered = pts - mu
        cov = (centered.T * wts) @ centered / total
        cov += (cell * cell / 12.0) * np.eye(2)
        clusters.append((rr, cc, mu))
        moments.append(cov)
    if not clusters:
        return []
    boxes = []
    # One batched call: each 2x2 matrix gets the same LAPACK routine and bits.
    for (rr, cc, mu), eigvals, eigvecs in zip(clusters, *np.linalg.eigh(np.stack(moments))):
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
        peak = float(conf[rr, cc].max())
        boxes.append(RotatedBox(peak, float(mu[0]), float(mu[1]), length, width,
                                float(axis[0] / norm), float(axis[1] / norm)))
    boxes.sort(key=lambda b: -b.confidence)
    return boxes


def attention_trace_csv(fused: FusedMap) -> str:
    """CSV dump of the float64 attention trace: row, col, agent, weight.

    Each weight is written as numpy's repr, made once for 0.0 and 1.0, which
    most weights are, and once per other distinct bit pattern (-0.0 included).
    """
    trace = fused.attention_trace
    h, w, n = trace.shape
    flat = trace.ravel().astype(np.float64, copy=False)
    one = flat == 1.0
    other = ~one & ((flat != 0.0) | np.signbit(flat))
    distinct, index = np.unique(flat[other].view(np.uint64), return_inverse=True)
    values = [0.0, 1.0, *distinct.view(np.float64).tolist()]
    texts = np.array([f"np.float64({x!r})" for x in values], dtype=object)
    code = one.astype(np.intp)  # each weight's row of texts
    code[other] = index + 2
    parts = np.empty((h * w, n, 3), dtype=object)
    cells = np.add.outer(np.array([f"\n{r}," for r in range(h)], dtype=object),
                         np.array([f"{c}," for c in range(w)], dtype=object))
    parts[:, :, 0] = cells.reshape(h * w, 1)
    parts[:, :, 1] = [f"{a}," for a in range(n)]
    parts[:, :, 2] = texts[code.reshape(h * w, n)]
    return "row,col,agent,weight" + "".join(parts.ravel().tolist()) + "\n"
