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


def canonical_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Sum along an axis in a value-canonical order.

    Sorting before summing makes the float result independent of the input
    ordering along that axis, which keeps agent-permutation tests bit-exact.
    """
    return np.sum(np.sort(x, axis=axis), axis=axis)
