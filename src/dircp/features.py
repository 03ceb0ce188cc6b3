"""BEV feature maps in a shared global frame: toy encoder, sparse maps, pose embedding."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import GridSpec


@dataclass(frozen=True)
class BevFeatureMap:
    """Dense H x W x D feature grid anchored by a GridSpec."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[:2] != (self.grid.h, self.grid.w) or v.shape[2] < 1:
            raise ValueError(f"values shape {v.shape} inconsistent with grid "
                             f"{(self.grid.h, self.grid.w)}")
        if not np.all(np.isfinite(v)):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def _checked(cls, grid: GridSpec, values: np.ndarray) -> "BevFeatureMap":
        """A map of values that __post_init__ has already checked, not checked again."""
        fmap = object.__new__(cls)
        vars(fmap).update(grid=grid, values=values)
        return fmap

    @property
    def d(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class SparseFeatureMap:
    """Received cells of an (H, W, D) map: values[i] sits at (rows[i], cols[i])."""

    rows: np.ndarray = field(repr=False)    # (n,)
    cols: np.ndarray = field(repr=False)    # (n,)
    values: np.ndarray = field(repr=False)  # (n, D)
    shape: tuple[int, int, int]

    def __post_init__(self):
        h, w, d = self.shape
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        if rows.shape != cols.shape or self.values.shape != (len(rows), d):
            raise ValueError("entry vector width mismatch")
        outside = np.flatnonzero((rows < 0) | (rows >= h) | (cols < 0) | (cols >= w))
        if outside.size:
            i = outside[0]
            raise ValueError(f"entry ({rows[i]}, {cols[i]}) outside {h}x{w}")
        flat = rows * w + cols  # strictly increasing, as build_message sends them: unique
        if not (flat[1:] > flat[:-1]).all():
            ordered = np.sort(flat)
            twice = ordered[1:][ordered[1:] == ordered[:-1]]
            if twice.size:
                raise ValueError(f"duplicate entry ({twice[0] // w}, {twice[0] % w})")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)


def densify(sparse: SparseFeatureMap) -> np.ndarray:
    out = np.zeros(sparse.shape, dtype=np.float64)
    out[sparse.rows, sparse.cols] = sparse.values
    return out


@lru_cache(maxsize=1)
def positional_channels(grid: GridSpec, n_channels: int) -> np.ndarray:
    """Fixed sinusoidal cell features: sin/cos over x then y, doubling frequency.

    Channel j is sin(2 pi f u + phase) with u the normalized x (j mod 4 < 2) or
    y coordinate, phase pi/2 for the cos variants, f = 2**(j // 4). Read-only.
    """
    out = np.empty((grid.h, grid.w, n_channels), dtype=np.float64)
    ux = (np.arange(grid.w) + 0.5) / grid.w
    uy = (np.arange(grid.h) + 0.5) / grid.h
    for j in range(n_channels):
        freq = 2.0 ** (j // 4)
        phase = 0.0 if j % 2 == 0 else math.pi / 2.0
        if j % 4 < 2:
            row = np.sin(2.0 * math.pi * freq * ux + phase)
            out[:, :, j] = np.broadcast_to(row, (grid.h, grid.w))
        else:
            col = np.sin(2.0 * math.pi * freq * uy + phase)
            out[:, :, j] = np.broadcast_to(col[:, None], (grid.h, grid.w))
    out.setflags(write=False)
    return out


def encode(observation: np.ndarray, d_channels: int, grid: GridSpec,
           agent_pos: tuple[float, float], sensor_range: float) -> BevFeatureMap:
    """Toy BEV encoder.

    Channel 0 carries the cell evidence, channel 1 the distance-to-agent decay
    exp(-d / sensor_range), and the remaining channels fixed sinusoidal
    positional features; fully deterministic.
    """
    if d_channels < 2:
        raise ValueError("need at least 2 channels")
    obs = np.asarray(observation, dtype=np.float64)
    if obs.shape != grid.shape:
        raise ValueError(f"observation shape {obs.shape} != grid {grid.shape}")
    values = np.empty((grid.h, grid.w, d_channels), dtype=np.float64)
    values[:, :, 0] = obs
    centers = grid.centers
    dist = np.hypot(centers[:, :, 0] - agent_pos[0], centers[:, :, 1] - agent_pos[1])
    values[:, :, 1] = np.exp(-dist / sensor_range)
    if d_channels > 2:
        values[:, :, 2:] = positional_channels(grid, d_channels - 2)
    return BevFeatureMap(grid, values)


def pose_embedding(poses: list[tuple[float, float, float]], grid: GridSpec,
                   area_side: float) -> np.ndarray:
    """(H, W, N-1) smooth proximity field, one channel per collaborator."""
    if not poses:
        raise ValueError("need at least one collaborator pose")
    centers = grid.centers
    out = np.empty((grid.h, grid.w, len(poses)), dtype=np.float64)
    for k, (x, y, _) in enumerate(poses):
        dist = np.hypot(centers[:, :, 0] - x, centers[:, :, 1] - y)
        out[:, :, k] = np.exp(-dist / area_side)
    return out
