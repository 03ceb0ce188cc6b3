"""Small numeric helpers shared across modules."""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))  # exp(-|x|); a NaN keeps its sign bit
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out


def _merge_exchange(n: int) -> list[tuple[int, int]]:
    """Compare-exchange pairs (i, j), i < j, of Batcher's merge-exchange sort
    of n items (Knuth, TAOCP 5.2.2, Algorithm M), in the order they run."""
    out = []
    t = (n - 1).bit_length()
    p = 1 << t >> 1
    while p:
        q, r, d = 1 << t >> 1, 0, p
        while True:
            out += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return out


def canonical_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Sum along an axis in a value-canonical order.

    Sorting before summing makes the float result independent of the input
    ordering along that axis, which keeps agent-permutation tests bit-exact.
    A network of elementwise min/max sorts a copy laid out as np.sort's, so
    np.sum adds the same values in the same order; where a -0.0 meets a +0.0
    it may keep one zero twice, which no sum starting from +0.0 can tell.
    """
    out = np.array(x, order="K")
    planes = np.moveaxis(out, axis, 0)
    for i, j in _merge_exchange(len(planes)):
        lo = np.minimum(planes[i], planes[j])
        np.maximum(planes[i], planes[j], out=planes[j])
        planes[i] = lo
    return np.sum(out, axis=axis)
