"""Calibration kernels: fixed work shaped like dircp's hot layers, without dircp.

On the shared 2-core machine where the baseline was measured, speed changed
by a fifth or more from one minute to the next. Work of different kinds
changed by different amounts: tight interpreter loops sped up about twice as
much as numpy code on large arrays.
So each workload is timed against a mix of kernels shaped like its own hot
layers:

- ``polygons``: Sutherland-Hodgman clipping of rotated boxes in pure Python,
  plus many numpy calls on tiny arrays, like scenario placement and occlusion;
- ``wire``: per-entry ``struct`` packing and unpacking of 819 entries of 8
  floats, like the DCPM codec;
- ``attention``: per-cell multi-head attention over 5 agents on a 64 x 64 x 8
  map, with a per-channel top-k sort, like fusion and the soft training path.

The kernels never call dircp, so a change to dircp cannot move them.

An operation's time is multiplied by ``(calibration_ref_s / c) **
calibration_power``, where ``c`` is the mean time of the passes just before
and just after it. The power is how strongly the workload's time follows the
mix's time: the slope of log operation time on log ``c`` over 2.5 to 4
minutes of back-to-back operations was 0.87 on ``run_dense``, 0.94 on
``sweep_budget`` and 0.63 on ``train_scorer``. The first two are rounded to
1.0; training uses 0.7, because a power of 1 over-corrected it: in one fast
stretch the training mix sped up by 60% and training by 25%.
"""

from __future__ import annotations

import math
import struct
import time

import numpy as np


def _corners(cx, cy, length, width, angle):
    c, s = math.cos(angle), math.sin(angle)
    hl, hw = 0.5 * length, 0.5 * width
    return [(cx + c * x - s * y, cy + s * x + c * y)
            for x, y in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]


def _clipped_area(subject, clip) -> float:
    out = subject
    for i in range(len(clip)):
        if not out:
            return 0.0
        (ax, ay), (bx, by) = clip[i], clip[(i + 1) % len(clip)]
        ex, ey = bx - ax, by - ay
        inputs, out = out, []
        prev = inputs[-1]
        prev_side = ex * (prev[1] - ay) - ey * (prev[0] - ax)
        for cur in inputs:
            cur_side = ex * (cur[1] - ay) - ey * (cur[0] - ax)
            if (cur_side >= 0.0) != (prev_side >= 0.0):
                t = prev_side / (prev_side - cur_side)
                out.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
            if cur_side >= 0.0:
                out.append(cur)
            prev, prev_side = cur, cur_side
    return 0.5 * abs(sum(x0 * y1 - x1 * y0
                         for (x0, y0), (x1, y1) in zip(out, out[1:] + out[:1])))


class Kernels:
    """Fixed inputs, built once; each kernel runs for a few milliseconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.boxes = [_corners(*rng.uniform((0, 0, 3, 1.5, 0), (8, 8, 5, 2.2, 6.3)))
                      for _ in range(60)]
        self.targets = rng.uniform(0.0, 64.0, (40, 2))
        self.values = rng.normal(size=(819, 8)).astype(np.float32)
        self.feats = rng.normal(size=(5, 64, 64, 8))
        self.w = rng.normal(scale=0.3, size=(4, 8, 8))
        self.conf = rng.uniform(size=(4, 64 * 64))

    def polygons(self) -> float:
        area = 0.0
        for i, a in enumerate(self.boxes):
            for b in self.boxes[i + 1:i + 8]:
                area += _clipped_area(a, b)
        for _ in range(150):
            t = (self.targets[:, 0] - 32.0) / np.maximum(np.abs(self.targets[:, 1]), 1e-9)
            area += float(np.where(t > 0.0, np.minimum(t, 1.0), 0.0).sum())
        return area

    def wire(self) -> float:
        entry = struct.Struct("<HH8f")
        out = bytearray()
        for i, vec in enumerate(self.values):
            out += entry.pack(i // 64, i % 64, *vec)
        total = 0.0
        for offset in range(0, len(out), entry.size):
            fields = entry.unpack_from(out, offset)
            vec = np.array(fields[2:], dtype=np.float32)
            if np.all(np.isfinite(vec)):
                total += float(vec[0])
        return total

    def attention(self) -> float:
        f, w = self.feats, self.w
        pre = np.zeros(f.shape[:3])
        for head in range(2):
            q = f[0] @ w[head].T
            e = np.einsum("hwd,nhwd->nhw", q, f @ w[head + 2].T) / math.sqrt(4.0)
            e = np.exp(e - e.max(axis=0))
            pre += e / e.sum(axis=0)
        fused = ((f @ w[1].T) * (pre / 2.0)[..., None]).sum(axis=0)
        order = [np.lexsort((np.arange(c.size), -c))[:819] for c in self.conf]
        return float(fused.sum()) + float(sum(o[0] for o in order))


def calibration_seconds(kernels: Kernels, mix) -> float:
    """Wall time of one pass over ``mix``: pairs of (kernel name, repeats)."""
    start = time.perf_counter()
    for name, repeats in mix:
        for _ in range(repeats):
            getattr(kernels, name)()
    return time.perf_counter() - start
