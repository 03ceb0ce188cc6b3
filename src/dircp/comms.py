"""Query scoring, budget-constrained clipping, messages, and the wire format.

A feature message travels as one little-endian DCPM payload:

    offset  size  field
    0       4     magic b"DCPM"
    4       2     u16 version (1)
    6       2     u16 sender agent id
    8       2     u16 receiver agent id
    10      4     u32 entry count n
    14      2     u16 feature width D (>= 1)
    16      2     u16 reserved (0)
    18      ...   n entries of (u16 row, u16 col, D x f32 values)

so a payload is exactly 18 + n * (4 + 4 D) bytes. Entries are packed with no
padding, in the sender's row-major order; receivers reject a bad header or
length, an out-of-grid cell and a non-finite value.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .features import BevFeatureMap, SparseFeatureMap
from .num import sigmoid

WIRE_MAGIC = b"DCPM"
WIRE_VERSION = 1
_HEADER = struct.Struct("<4sHHHIHH")  # magic, version, sender, receiver, count, D, reserved
HEADER_SIZE = _HEADER.size
WIRE_U16_MAX = 0xFFFF  # the largest row, col, D or agent id a payload can carry
SCORERS = ("reference", "mlp")          # score_reference, score_mlp
TIE_BREAKS = ("per_collaborator", "global")  # top-k scopes of clip_queries


def _entry_dtype(d: int) -> np.dtype:
    """One wire entry: u16 row, u16 col, D f32 values, packed little-endian."""
    return np.dtype([("row", "<u2"), ("col", "<u2"), ("values", "<f4", (d,))])


class ShapeMismatch(ValueError):
    """Raised when map shapes disagree."""


class MalformedMessage(ValueError):
    """Raised for wire payloads that fail structural validation."""


@dataclass(frozen=True)
class QueryConfidenceMap:
    """Per-cell, per-collaborator query priorities in [0, 1]."""

    values: np.ndarray = field(repr=False)  # (H, W, N-1)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise ShapeMismatch(f"QCM must be (H, W, K), got {v.shape}")
        if not np.all((v >= 0.0) & (v <= 1.0)):  # NaN fails both
            raise ValueError("QCM values must lie in [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def n_collaborators(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class QueryMap:
    """Binarized, budget-clipped query map (1 = request this cell's feature)."""

    bits: np.ndarray = field(repr=False)  # (H, W, N-1) uint8
    budget: float

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 3:
            raise ShapeMismatch(f"bits must be (H, W, K), got {b.shape}")
        if not ((b == 0) | (b == 1)).all():
            raise ValueError("query bits must be binary")
        h, w, k = b.shape
        if int(b.sum()) > self.budget * h * w * k + 1e-9:
            raise ValueError("query map violates the aggregate budget bound")
        object.__setattr__(self, "bits", b.astype(np.uint8))


@dataclass(frozen=True)
class FeatureMessage:
    """Sparse feature payload from one collaborator to the ego.

    Entry i carries values[i] (f32, width D) for cell (rows[i], cols[i]).
    """

    sender: int
    receiver: int
    rows: np.ndarray = field(repr=False)    # (n,)
    cols: np.ndarray = field(repr=False)    # (n,)
    values: np.ndarray = field(repr=False)  # (n, D) float32

    def __post_init__(self):
        n = len(self.rows)
        if self.rows.shape != (n,) or self.cols.shape != (n,) \
                or self.values.ndim != 2 or self.values.shape[0] != n:
            raise ShapeMismatch("rows, cols and values disagree on the entry count")

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def payload_bytes(self) -> int:
        return HEADER_SIZE + len(self.rows) * (4 + 4 * self.d)

    def __eq__(self, other):
        if not isinstance(other, FeatureMessage):
            return NotImplemented
        return (self.sender == other.sender and self.receiver == other.receiver
                and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
                and np.array_equal(self.values, other.values))


@dataclass
class ScorerParams:
    """Three-layer MLP over the per-cell (Q0, PE, DE) triple, logistic output."""

    w1: np.ndarray  # (hidden, 3)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, hidden)
    b2: np.ndarray  # (hidden,)
    w3: np.ndarray  # (hidden,)
    b3: float

    def __post_init__(self):
        hidden = self.w1.shape[0]
        if self.w1.shape != (hidden, 3) or self.b1.shape != (hidden,) \
                or self.w2.shape != (hidden, hidden) or self.b2.shape != (hidden,) \
                or self.w3.shape != (hidden,):
            raise ShapeMismatch("inconsistent scorer layer shapes")
        for arr in (self.w1, self.b1, self.w2, self.b2, self.w3):
            if not np.all(np.isfinite(arr)):
                raise ValueError("scorer parameters must be finite")
        if not math.isfinite(self.b3):
            raise ValueError("scorer parameters must be finite")

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @classmethod
    def zeros(cls, hidden: int = 8) -> "ScorerParams":
        return cls(np.zeros((hidden, 3)), np.zeros(hidden), np.zeros((hidden, hidden)),
                   np.zeros(hidden), np.zeros(hidden), 0.0)

    @classmethod
    def random(cls, hidden: int = 8, seed: int = 0, scale: float = 0.5) -> "ScorerParams":
        rng = np.random.default_rng(seed)
        return cls(rng.normal(0, scale, (hidden, 3)), rng.normal(0, scale, hidden),
                   rng.normal(0, scale, (hidden, hidden)), rng.normal(0, scale, hidden),
                   rng.normal(0, scale, hidden), float(rng.normal(0, scale)))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.w1.ravel(), self.b1, self.w2.ravel(),
                               self.b2, self.w3, [self.b3]])

    @classmethod
    def from_vector(cls, vec: np.ndarray, hidden: int) -> "ScorerParams":
        sizes = [hidden * 3, hidden, hidden * hidden, hidden, hidden, 1]
        if len(vec) != sum(sizes):
            raise ShapeMismatch("flat vector length mismatch")
        parts = np.split(np.asarray(vec, dtype=np.float64), np.cumsum(sizes)[:-1])
        return cls(parts[0].reshape(hidden, 3), parts[1],
                   parts[2].reshape(hidden, hidden), parts[3], parts[4],
                   float(parts[5][0]))


def _stack_inputs(q0: np.ndarray, pe: np.ndarray, de: np.ndarray) -> np.ndarray:
    """Broadcast (q0, pe, de) to a common (H, W, K, 3) input tensor."""
    q0 = np.asarray(q0, dtype=np.float64)
    pe = np.asarray(pe, dtype=np.float64)
    de = np.asarray(de, dtype=np.float64)
    if q0.shape != pe.shape or q0.ndim != 3:
        raise ShapeMismatch(f"q0 {q0.shape} and pe {pe.shape} must both be (H, W, K)")
    if de.shape != q0.shape[:2]:
        raise ShapeMismatch(f"de {de.shape} must be (H, W)")
    de3 = np.broadcast_to(de[:, :, None], q0.shape)
    return np.stack([q0, pe, de3], axis=-1)


def score_reference(q0: np.ndarray, pe: np.ndarray, de: np.ndarray) -> QueryConfidenceMap:
    """Deterministic reference scorer: elementwise de * pe * q0, clamped to [0, 1].

    Zero wherever the direction mask is zero, so masked-off cells can never be
    requested.
    """
    x = _stack_inputs(q0, pe, de)
    values = np.clip(x[..., 2] * x[..., 1] * x[..., 0], 0.0, 1.0)
    return QueryConfidenceMap(values)


def _relu_layer(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max(x @ w.T + b, 0) in place. The bias goes on a view of gcd(rows, 64) rows
    per line, so numpy runs long inner loops, not one hidden-wide loop per row."""
    out = x @ w.T
    r = math.gcd(len(out), 64)
    lines = out.reshape(-1, r * len(b))  # a view: the bias lands in out
    lines += np.tile(b, r)
    return np.maximum(out, 0.0, out=out)


def score_mlp_forward(params: ScorerParams, q0, pe, de):
    """MLP scorer forward pass; returns (QueryConfidenceMap, cache for backward)."""
    x = _stack_inputs(q0, pe, de)
    flat = x.reshape(-1, 3)
    h1 = _relu_layer(flat, params.w1, params.b1)
    h2 = _relu_layer(h1, params.w2, params.b2)
    c = sigmoid(h2 @ params.w3 + params.b3)
    cache = {"x": flat, "h1": h1, "h2": h2, "c": c, "params": params}
    return QueryConfidenceMap(c.reshape(x.shape[:3])), cache


def score_mlp(params: ScorerParams, q0, pe, de) -> QueryConfidenceMap:
    return score_mlp_forward(params, q0, pe, de)[0]


def score_mlp_backward(cache: dict, d_c: np.ndarray) -> ScorerParams:
    """Gradient of a scalar loss w.r.t. the scorer parameters.

    d_c is dLoss/dC with C the (H, W, K) confidence output of the cached pass.
    """
    params: ScorerParams = cache["params"]
    flat_dc = np.asarray(d_c, dtype=np.float64).reshape(-1)
    dz3 = flat_dc * (cache["c"] * (1.0 - cache["c"]))  # sigmoid' from its value
    dw3 = cache["h2"].T @ dz3
    db3 = float(dz3.sum())
    # The outer product dz3 x w3, built in long lines as in _relu_layer; einsum
    # adds the rows in order as sum(axis=0) does, without an inner loop per row.
    r, hidden = math.gcd(len(dz3), 64), params.hidden
    dz2 = np.repeat(dz3, hidden).reshape(-1, r * hidden)
    dz2 *= np.tile(params.w3, r)
    dz2 = dz2.reshape(-1, hidden)
    # A ReLU's output is positive exactly where its input is.
    dz2 *= cache["h2"] > 0.0
    dw2 = dz2.T @ cache["h1"]
    db2 = np.einsum("ij->j", dz2)
    dz1 = dz2 @ params.w2
    dz1 *= cache["h1"] > 0.0
    dw1 = dz1.T @ cache["x"]
    db1 = np.einsum("ij->j", dz1)
    return ScorerParams(dw1, db1, dw2, db2, dw3, db3)


def per_collaborator_budget(q_max: float, h: int, w: int) -> int:
    """Maximum activated queries per collaborator channel (Eq. 3 per-channel bound)."""
    return int(math.floor(q_max * h * w))


def top_cells(scores: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The `limit` highest scores along the last axis, as (mask, last kept index).

    Ties go to the lower index: on a C-order ravel, to the earlier cell. The
    last kept index is that of the limit-th best score. Comparisons with that
    score decide every bit: the cells above it, then the first cells equal to it.
    """
    n = scores.shape[-1]
    if not 1 <= limit <= n:
        raise ValueError(f"limit must lie in 1..{n}, got {limit}")
    scores = np.ascontiguousarray(scores)
    part = np.partition(scores, n - limit, axis=-1)
    kth = part[..., n - limit, None]
    mask = scores > kth
    ties = scores == kth
    # A partition puts every score above kth to its right, and any tie the
    # limit leaves out to its left.
    if (part[..., :n - limit] == kth).any():
        short = limit - np.count_nonzero(part[..., n - limit:] > kth, axis=-1)[..., None]
        ties &= np.cumsum(ties, axis=-1) <= short
    mask |= ties
    return mask, n - 1 - np.argmax(ties[..., ::-1], axis=-1)


def clip_queries(c: QueryConfidenceMap, q_max: float,
                 tie_break: str = "per_collaborator") -> QueryMap:
    """Top-k budget clipping of a confidence map.

    Default mode ranks each collaborator channel independently and keeps its
    floor(q_max*H*W) best cells; the "global" mode ranks all channels jointly
    under the aggregate bound. Ties break on (row, col, collaborator); cells
    with zero confidence are never activated, even under surplus budget.
    """
    if not (0.0 <= q_max <= 1.0):
        raise ValueError("q_max must lie in [0, 1]")
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie_break mode {tie_break!r}")
    h, w, k = c.values.shape
    if tie_break == "per_collaborator":
        scores = c.values.reshape(h * w, k).T  # one row per collaborator
        limit = per_collaborator_budget(q_max, h, w)
    else:
        scores = c.values.reshape(1, -1)  # C order is (row, col, collaborator)
        limit = int(math.floor(q_max * h * w * k))
    keep = np.zeros(scores.shape, dtype=bool)
    if limit > 0:
        keep = top_cells(scores, limit)[0] & (scores > 0.0)
    # In both modes keep.T lists the cells in the (H, W, K) bits' C order.
    return QueryMap(keep.T.reshape(h, w, k), q_max)


def build_message(query: QueryMap, sender_features: BevFeatureMap, sender: int,
                  receiver: int = 0) -> FeatureMessage:
    """Sparse feature message for one collaborator (agent id = channel + 1).

    Entries are exactly the activated cells of the sender's channel, row-major,
    carrying the sender's feature vectors rounded to the f32 wire precision.
    """
    h, w, k = query.bits.shape
    if sender_features.grid.shape != (h, w):
        raise ShapeMismatch("query map and sender features disagree on grid shape")
    if not (1 <= sender <= k):
        raise ShapeMismatch(f"sender {sender} has no query channel (1..{k})")
    rows, cols = np.nonzero(query.bits[:, :, sender - 1])
    return FeatureMessage(sender, receiver, rows, cols,
                          sender_features.values[rows, cols].astype(np.float32))


def message_to_sparse(msg: FeatureMessage, shape: tuple[int, int, int]) -> SparseFeatureMap:
    """The message as a received (H, W, D) map; a cell outside the grid or sent
    twice, or a feature width other than D, raises MalformedMessage."""
    try:
        return SparseFeatureMap(msg.rows, msg.cols, msg.values.astype(np.float64), shape)
    except ValueError as exc:
        raise MalformedMessage(f"sender {msg.sender}: {exc}") from None


def serialize(msg: FeatureMessage) -> bytes:
    """Little-endian wire encoding; see the module docstring for the layout."""
    if len(msg.rows) and (min(msg.rows.min(), msg.cols.min()) < 0
                          or max(msg.rows.max(), msg.cols.max()) > WIRE_U16_MAX):
        raise ValueError("cell index outside the u16 wire range")
    entries = np.empty(len(msg.rows), dtype=_entry_dtype(msg.d))
    entries["row"] = msg.rows
    entries["col"] = msg.cols
    entries["values"] = msg.values
    return _HEADER.pack(WIRE_MAGIC, WIRE_VERSION, msg.sender, msg.receiver,
                        len(entries), msg.d, 0) + entries.tobytes()


def deserialize(data: bytes) -> FeatureMessage:
    """Parse a wire payload, raising MalformedMessage on any structural defect.

    The cells are checked against the receiver's grid by message_to_sparse: a
    cell outside it or sent twice parses here.
    """
    if len(data) < HEADER_SIZE:
        raise MalformedMessage(f"truncated header: {len(data)} bytes")
    magic, version, sender, receiver, count, d, reserved = _HEADER.unpack_from(data)
    if magic != WIRE_MAGIC:
        raise MalformedMessage(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise MalformedMessage(f"unsupported version {version}")
    if reserved != 0:
        raise MalformedMessage("reserved field must be zero")
    if d < 1:
        raise MalformedMessage("feature width must be >= 1")
    entry = _entry_dtype(d)
    expected = HEADER_SIZE + count * entry.itemsize
    if len(data) != expected:
        raise MalformedMessage(f"length {len(data)} != expected {expected}")
    entries = np.frombuffer(data, dtype=entry, count=count, offset=HEADER_SIZE)
    rows, cols, values = entries["row"], entries["col"], entries["values"]
    if not np.isfinite(values).all():
        raise MalformedMessage("non-finite feature value")
    return FeatureMessage(sender, receiver, rows, cols, values)


@dataclass
class BudgetLedger:
    """Single-writer per-ego accounting of transmitted queries and bytes."""

    total_bytes: int = 0
    total_entries: int = 0
    messages: int = 0

    def record(self, msg: FeatureMessage) -> None:
        self.total_bytes += msg.payload_bytes
        self.total_entries += len(msg.rows)
        self.messages += 1
