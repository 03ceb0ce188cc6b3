"""End-to-end wiring: world -> masks/features -> queries -> fusion -> boxes."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .comms import (
    BudgetLedger,
    QueryConfidenceMap,
    QueryMap,
    ScorerParams,
    build_message,
    clip_queries,
    deserialize,
    message_to_sparse,
    score_mlp,
    score_reference,
    serialize,
)
from .direction import (
    DEFAULT_SIGMA2,
    DirectionMask,
    DirectionScores,
    cell_sector_map,
    compute_mask,
    default_sigma1,
    direction_embedding,
)
from .features import BevFeatureMap, SparseFeatureMap, encode, pose_embedding
from .fusion import AttentionParams, FusedMap, decode, dsa_weights, ego_only, fuse
from .geometry import RotatedBox, SectorPartition
from .grid import GridSpec
from .scenario import ScenarioWorld, observe, rsu_observe

METHODS = ("directed", "uniform", "single")
Q0_MODES = ("ones", "confidence_gap")   # initial query map; see prepare_scene
INIT_MODES = ("identity", "random")     # attention init; see attention_params


@dataclass(frozen=True)
class RunSettings:
    """All pipeline knobs that are not part of the scenario itself."""

    d_channels: int = 8
    n_dir: int = 4
    boundaries: tuple[tuple[float, float], ...] | None = None  # default: uniform
    interest: tuple[float, ...] = (0.9, 0.9, 0.1, 0.1)
    sigma1: float | None = None          # default: 1 / (2 n_dir)
    sigma2: float = DEFAULT_SIGMA2
    q_max: float = 0.2
    q0_mode: str = "ones"                # one of Q0_MODES
    tie_break: str = "per_collaborator"  # one of comms.TIE_BREAKS
    n_heads: int = 2
    d_ff: int | None = None
    init_mode: str = "identity"          # one of INIT_MODES
    attn_seed: int = 0
    qk_scale: float = 1.0
    conf_threshold: float = 0.55
    loss_sigma: float = 1.0
    lambda_off: float = 1.0
    lambda_size: float = 1.0
    tau: float = 0.05
    iou_thresholds: tuple[float, ...] = (0.5, 0.7)

    def effective_sigma1(self) -> float:
        return default_sigma1(self.n_dir) if self.sigma1 is None else self.sigma1

    def attention_params(self) -> AttentionParams:
        """Built afresh from the fusion fields; prepare_scene fixes it per scene."""
        d, n_heads, d_ff = self.d_channels, self.n_heads, self.d_ff
        if self.init_mode == "identity":
            return AttentionParams.identity(d, n_heads, d_ff, qk_scale=self.qk_scale)
        if self.init_mode == "random":
            return AttentionParams.random(d, n_heads, d_ff, seed=self.attn_seed)
        raise ValueError(f"unknown init_mode {self.init_mode!r}")


@dataclass(frozen=True)
class SceneInputs:
    """Per-world tensors shared by the evaluation and training paths, all read-only,
    also once unpickled. attention is the params every run of the scene fuses
    with, and ego_fused = ego_only(ego_map(), attention)."""

    world: ScenarioWorld
    grid: GridSpec
    partition: SectorPartition
    mask: DirectionMask
    de: np.ndarray = field(repr=False)          # (H, W)
    pe: np.ndarray = field(repr=False)          # (H, W, K)
    q0: np.ndarray = field(repr=False)          # (H, W, K)
    features: np.ndarray = field(repr=False)    # (N, H, W, D)
    sector_map: np.ndarray = field(repr=False)  # (H, W)
    attention: AttentionParams = field(repr=False)
    ego_fused: np.ndarray = field(repr=False)   # (H, W, D)

    @property
    def n_collaborators(self) -> int:
        return self.features.shape[0] - 1

    def ego_map(self) -> BevFeatureMap:
        return BevFeatureMap._checked(self.grid, self.features[0])

    def collaborator_map(self, k: int) -> BevFeatureMap:
        if not 0 <= k < self.n_collaborators:
            raise IndexError(f"collaborator {k} outside 0..{self.n_collaborators - 1}")
        return BevFeatureMap._checked(self.grid, self.features[k + 1])

    def __post_init__(self):  # makes every array read-only; __setstate__ calls it too
        attention = (getattr(self.attention, f.name) for f in fields(self.attention)[1:])
        for arr in (self.de, self.pe, self.q0, self.features, self.sector_map,
                    self.ego_fused, *attention):
            arr.setflags(write=False)

    def __setstate__(self, state):  # pickle hands the arrays back writable
        vars(self).update(state)
        self.__post_init__()


@dataclass(frozen=True)
class PipelineResult:
    method: str
    boxes: list[RotatedBox]
    fused: FusedMap
    mask: DirectionMask
    qcm: QueryConfidenceMap | None
    query: QueryMap | None
    ledger: BudgetLedger


def clamp_interest(weights, n_dir: int) -> tuple[float, ...]:
    if len(weights) != n_dir:
        raise ValueError(f"interest weights length {len(weights)} != n_dir {n_dir}")
    return tuple(min(max(float(w), 0.0), 1.0) for w in weights)


def prepare_scene(world: ScenarioWorld, settings: RunSettings) -> SceneInputs:
    """Precompute everything that does not depend on method or scorer."""
    if world.n_agents < 2:
        raise ValueError("pipeline needs at least one collaborator")
    grid = world.grid
    origin = (world.ego_pose[0], world.ego_pose[1])
    if settings.boundaries is None:
        partition = SectorPartition.uniform(settings.n_dir, frame_origin=origin,
                                            frame_heading=world.ego_pose[2])
    else:
        partition = SectorPartition(settings.n_dir, settings.boundaries, origin,
                                    world.ego_pose[2])
    counts = rsu_observe(world, partition)
    scores = DirectionScores(tuple(float(c) for c in counts),
                             clamp_interest(settings.interest, settings.n_dir))
    mask = compute_mask(scores, settings.effective_sigma1(), settings.sigma2)
    sector_map = cell_sector_map(partition, grid)
    de = direction_embedding(mask, sector_map)
    sensor_range = world.config.sensor_range
    feats = np.empty((world.n_agents, grid.h, grid.w, settings.d_channels))
    for agent in range(world.n_agents):
        fmap = encode(observe(world, agent), settings.d_channels, grid,
                      world.agent_position(agent), sensor_range)
        feats[agent] = fmap.values
    pe = pose_embedding(list(world.collaborator_poses), grid, world.config.area_side)
    k = world.n_agents - 1
    if settings.q0_mode == "ones":
        q0 = np.ones((grid.h, grid.w, k))
    elif settings.q0_mode == "confidence_gap":
        gap = 1.0 - feats[0, :, :, 0]
        q0 = np.repeat(gap[:, :, None], k, axis=2)
    else:
        raise ValueError(f"unknown q0_mode {settings.q0_mode!r}")
    attention = settings.attention_params()
    ego_fused = ego_only(BevFeatureMap._checked(grid, feats[0]), attention)
    return SceneInputs(world=world, grid=grid, partition=partition, mask=mask,
                       de=de, pe=pe, q0=q0, features=feats, sector_map=sector_map,
                       attention=attention, ego_fused=ego_fused)


def score_scene(scene: SceneInputs, de: np.ndarray,
                scorer_params: ScorerParams | None) -> QueryConfidenceMap:
    if scorer_params is None:
        return score_reference(scene.q0, scene.pe, de)
    return score_mlp(scorer_params, scene.q0, scene.pe, de)


def run_pipeline(scene: SceneInputs, method: str, budget: float,
                 settings: RunSettings,
                 scorer_params: ScorerParams | None = None) -> PipelineResult:
    """One evaluation run of a method on a prepared scene (hard query path).

    Of settings, a run reads tie_break and conf_threshold. The fields prepare_scene
    read are the scene's: the mask's, q0_mode, d_channels, and the fusion fields
    (n_heads, d_ff, init_mode, attn_seed, qk_scale) fixed in scene.attention.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    ego = scene.ego_map()
    ledger = BudgetLedger()
    if method == "single":
        trace = np.ones((scene.grid.h, scene.grid.w, 1))
        fused = FusedMap(grid=scene.grid, values=ego.values, attention_trace=trace)
        boxes = decode(fused, settings.conf_threshold)
        return PipelineResult("single", boxes, fused, scene.mask, None, None, ledger)

    de = np.ones_like(scene.de) if method == "uniform" else scene.de
    qcm = score_scene(scene, de, scorer_params)
    query = clip_queries(qcm, budget, tie_break=settings.tie_break)
    received: list[SparseFeatureMap | None] = []
    shape = scene.features.shape[1:]
    for k in range(scene.n_collaborators):
        if query.bits[:, :, k].sum() == 0:
            received.append(None)
            continue
        msg = build_message(query, scene.collaborator_map(k), sender=k + 1, receiver=0)
        ledger.record(msg)
        # Round-trip through the wire so every run exercises the byte format.
        received.append(message_to_sparse(deserialize(serialize(msg)), shape))
    weights = dsa_weights(ego, received, qcm, scene.attention)
    fused = fuse(ego, weights, scene.ego_fused)
    boxes = decode(fused, settings.conf_threshold)
    return PipelineResult(method, boxes, fused, scene.mask, qcm, query, ledger)
