"""Direction attention scores, ego interest weights, and the dual-threshold mask."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import SectorPartition, sectors_of
from .grid import GridSpec

DEFAULT_SIGMA2 = 5.0


def default_sigma1(n_dir: int) -> float:
    """Relative threshold just below the uniform per-sector share."""
    return 1.0 / (2.0 * n_dir)


@dataclass(frozen=True)
class DirectionScores:
    """Per-sector traffic scores from the RSU and the ego's interest weights."""

    scores: tuple[float, ...]
    interest: tuple[float, ...]

    def __post_init__(self):
        if len(self.scores) != len(self.interest) or not self.scores:
            raise ValueError("scores and interest must be equal-length, non-empty")
        if any(s < 0 for s in self.scores):
            raise ValueError("scores must be non-negative")
        if any(not (0.0 <= w <= 1.0) for w in self.interest):
            raise ValueError("interest weights must lie in [0, 1]")

    @property
    def n_dir(self) -> int:
        return len(self.scores)


@dataclass(frozen=True)
class DirectionMask:
    """Binary per-sector attention mask plus the inputs that produced it."""

    mask: tuple[int, ...]
    sigma1: float
    sigma2: float
    scores: DirectionScores

    def __post_init__(self):
        if any(m not in (0, 1) for m in self.mask):
            raise ValueError("mask entries must be 0 or 1")
        if len(self.mask) != self.scores.n_dir:
            raise ValueError("mask length must equal n_dir")

    @property
    def n_dir(self) -> int:
        return len(self.mask)


def _heaviside(x: float) -> int:
    """H(x): 1 for positive inputs, 0 otherwise (H(0) = 0)."""
    return 1 if x > 0.0 else 0


def compute_mask(ds: DirectionScores, sigma1: float, sigma2: float) -> DirectionMask:
    """Dual-threshold direction mask.

    Each sector turns on when its interest-weighted score clears either the
    relative threshold sigma1 (share of the weighted total) or the absolute
    threshold sigma2. A zero weighted total makes the relative term contribute
    0 for every sector, so empty scenes fall back to the absolute test alone.
    """
    if not (0.0 <= sigma1 <= 1.0):
        raise ValueError("sigma1 must lie in [0, 1]")
    if sigma2 < 0.0:
        raise ValueError("sigma2 must be >= 0")
    weighted = [s * w for s, w in zip(ds.scores, ds.interest)]
    total = sum(weighted)
    bits = []
    for v in weighted:
        relative = _heaviside(v / total - sigma1) if total > 0.0 else 0
        absolute = _heaviside(v - sigma2)
        bits.append(max(relative, absolute))
    return DirectionMask(tuple(bits), sigma1, sigma2, ds)


@lru_cache(maxsize=4)
def cell_sector_map(partition: SectorPartition, grid: GridSpec) -> np.ndarray:
    """(H, W) int map: ``sectors_of`` the cell centers; cached, read-only."""
    sectors = sectors_of(grid.centers[..., 0], grid.centers[..., 1], partition)
    sectors.setflags(write=False)
    return sectors


def direction_embedding(mask: DirectionMask, sector_map: np.ndarray) -> np.ndarray:
    """Spatial {0,1} broadcast of the mask: each cell carries its sector's bit.

    ``sector_map`` is the scene's ``cell_sector_map``. Returned as (H, W);
    callers broadcast it across collaborator channels.
    """
    return np.asarray(mask.mask, dtype=np.float64)[sector_map]
