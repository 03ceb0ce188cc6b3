"""Rotated 2D boxes, exact IoU via convex polygon clipping, and angular sectors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_EPS_AREA = 1e-12
_EPS_ANGLE_DEG = 1e-9
# Tolerance for the point-on-edge side test during clipping; keeps vertices
# that lie exactly on a clip edge (e.g. self-intersection) classified inside.
_EPS_SIDE = 1e-9


@dataclass(frozen=True)
class RotatedBox:
    """A detection or ground-truth box as a 7-tuple.

    Fields: confidence in [0,1], center (cx, cy) in meters, length along the
    heading, width across it, and the heading as (cos_a, sin_a) components.
    Ground-truth boxes carry confidence 1.
    """

    confidence: float
    cx: float
    cy: float
    length: float
    width: float
    cos_a: float
    sin_a: float

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if self.length <= 0.0 or self.width <= 0.0:
            raise ValueError(f"non-positive box size {self.length}x{self.width}")
        norm = self.cos_a * self.cos_a + self.sin_a * self.sin_a
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"heading components not normalized: cos^2+sin^2={norm}")

    @classmethod
    def from_angle(cls, confidence: float, cx: float, cy: float,
                   length: float, width: float, angle: float) -> "RotatedBox":
        """Build a box from a heading angle in radians."""
        return cls(confidence, cx, cy, length, width, math.cos(angle), math.sin(angle))

    @property
    def area(self) -> float:
        return self.length * self.width

    def as_tuple(self) -> tuple:
        return (self.confidence, self.cx, self.cy, self.length, self.width,
                self.cos_a, self.sin_a)


def box_corners(box: RotatedBox) -> list[tuple[float, float]]:
    """Return the four corners in counter-clockwise order.

    The centroid of the corners equals the box center to within rounding.
    """
    hl, hw = 0.5 * box.length, 0.5 * box.width
    c, s = box.cos_a, box.sin_a
    local = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    return [(box.cx + c * lx - s * ly, box.cy + s * lx + c * ly) for lx, ly in local]


def _polygon_area(poly: Sequence[tuple[float, float]]) -> float:
    """Shoelace area; positive for counter-clockwise vertex order."""
    n = len(poly)
    acc = 0.0
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return 0.5 * acc


def _clip_polygon(subject: list[tuple[float, float]],
                  clip: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of a convex subject against a CCW convex clip polygon."""
    output = subject
    n = len(clip)
    for i in range(n):
        if not output:
            break
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        inputs = output
        output = []
        prev = inputs[-1]
        prev_side = ex * (prev[1] - ay) - ey * (prev[0] - ax)
        for cur in inputs:
            cur_side = ex * (cur[1] - ay) - ey * (cur[0] - ax)
            if cur_side >= -_EPS_SIDE:
                if prev_side < -_EPS_SIDE:
                    output.append(_line_intersection(prev, cur, (ax, ay), (bx, by)))
                output.append(cur)
            elif prev_side >= -_EPS_SIDE:
                output.append(_line_intersection(prev, cur, (ax, ay), (bx, by)))
            prev, prev_side = cur, cur_side
    return output


def _line_intersection(p, q, a, b) -> tuple[float, float]:
    """Intersection of lines pq and ab (callers guarantee non-parallel crossing)."""
    dx1, dy1 = q[0] - p[0], q[1] - p[1]
    dx2, dy2 = b[0] - a[0], b[1] - a[1]
    denom = dx1 * dy2 - dy1 * dx2
    if abs(denom) < 1e-15:
        return q
    t = ((a[0] - p[0]) * dy2 - (a[1] - p[1]) * dx2) / denom
    return (p[0] + t * dx1, p[1] + t * dy1)


def _far_apart(a: RotatedBox, b: RotatedBox) -> bool:
    """Centers farther apart than the two circumradii plus a 1e-6 m margin."""
    # The margin keeps boxes that touch within the clipping tolerance on the exact path.
    r = 0.5 * math.hypot(a.length, a.width) + 0.5 * math.hypot(b.length, b.width) + 1e-6
    dx, dy = a.cx - b.cx, a.cy - b.cy
    return dx * dx + dy * dy > r * r


def far_apart_pairs(a_boxes, b_boxes) -> np.ndarray:
    """(A, B) bool: _far_apart of every (a, b) pair, with the same float operations."""
    (ra, xa, ya), (rb, xb, yb) = (np.reshape([(0.5 * math.hypot(b.length, b.width), b.cx, b.cy)
                                              for b in boxes], (-1, 3)).T
                                  for boxes in (a_boxes, b_boxes))
    dx, dy, r = xa[:, None] - xb, ya[:, None] - yb, (ra[:, None] + rb) + 1e-6
    return dx * dx + dy * dy > r * r


def _overlap(corners_a, corners_b) -> float:
    """Area of the clip of two convex polygons; 0.0 under three vertices."""
    poly = _clip_polygon(corners_a, corners_b)
    return abs(_polygon_area(poly)) if len(poly) >= 3 else 0.0


def intersection_area(a: RotatedBox, b: RotatedBox) -> float:
    return 0.0 if _far_apart(a, b) else _overlap(box_corners(a), box_corners(b))


def iou(a: RotatedBox, b: RotatedBox) -> float:
    """Exact intersection-over-union of two rotated boxes.

    Symmetric by construction (arguments are canonically ordered before
    clipping); degenerate edge-contact overlaps count as 0.
    """
    if _far_apart(a, b):
        return 0.0
    if b.as_tuple() < a.as_tuple():
        a, b = b, a
    corners_a = box_corners(a)
    corners_b = box_corners(b)
    # Same region (equal corner sets up to cyclic order) is exactly 1.
    key_a = sorted((round(x, 12), round(y, 12)) for x, y in corners_a)
    key_b = sorted((round(x, 12), round(y, 12)) for x, y in corners_b)
    if key_a == key_b:
        return 1.0
    inter = _overlap(corners_a, corners_b)
    if inter <= _EPS_AREA:
        return 0.0
    # Shoelace areas keep inter/union float-consistent so iou(a, a) == 1.0.
    union = abs(_polygon_area(corners_a)) + abs(_polygon_area(corners_b)) - inter
    return min(max(inter / union, 0.0), 1.0)


@dataclass(frozen=True)
class SectorPartition:
    """Contiguous angular sectors around a frame origin.

    Boundaries are half-open [lo, hi) intervals in degrees, ordered, disjoint
    and covering exactly [0, 360). Angles are measured relative to
    frame_heading (radians), counter-clockwise.
    """

    n_dir: int
    boundaries: tuple[tuple[float, float], ...]
    frame_origin: tuple[float, float]
    frame_heading: float

    def __post_init__(self):
        if self.n_dir < 1:
            raise ValueError("n_dir must be >= 1")
        if len(self.boundaries) != self.n_dir:
            raise ValueError("boundaries length must equal n_dir")
        lo0 = self.boundaries[0][0]
        if lo0 != 0.0:
            raise ValueError("first sector must start at 0 degrees")
        prev_hi = 0.0
        for lo, hi in self.boundaries:
            if lo != prev_hi or hi <= lo:
                raise ValueError("sectors must be contiguous and increasing")
            prev_hi = hi
        if prev_hi != 360.0:
            raise ValueError("sectors must cover [0, 360) exactly")

    @classmethod
    def uniform(cls, n_dir: int, frame_origin: tuple[float, float] = (0.0, 0.0),
                frame_heading: float = 0.0) -> "SectorPartition":
        step = 360.0 / n_dir
        bounds = tuple((i * step, (i + 1) * step if i < n_dir - 1 else 360.0)
                       for i in range(n_dir))
        return cls(n_dir, bounds, frame_origin, frame_heading)


def sectors_of(x, y, partition: SectorPartition) -> np.ndarray:
    """Int sector index of each point (x, y: equal-shape arrays); the origin maps to 0.

    An angle within _EPS_ANGLE_DEG of a boundary, also across 360, snaps to the
    first such sector, so exact-boundary points land in the upper interval.
    """
    dx = np.asarray(x, dtype=np.float64) - partition.frame_origin[0]
    dy = np.asarray(y, dtype=np.float64) - partition.frame_origin[1]
    # math.atan2 keeps every angle's bits on any CPU; numpy's SIMD arctan2 does not.
    atan = np.array(list(map(math.atan2, dy.ravel().tolist(), dx.ravel().tolist())))
    ang = np.degrees(atan.reshape(dx.shape) - partition.frame_heading) % 360.0
    los = [lo for lo, _ in partition.boundaries]
    sectors = np.searchsorted(los, ang, side="right") - 1
    # Only an angle within the snap of a boundary or of 360 can snap (rounding is monotone).
    if (np.abs(ang[..., None] - np.array([*los, 360.0])) <= _EPS_ANGLE_DEG).any():
        for i in reversed(range(partition.n_dir)):  # written last, the first snap wins
            diff = ang - los[i]
            snap = (np.abs(diff) <= _EPS_ANGLE_DEG) | (np.abs(diff - 360.0) <= _EPS_ANGLE_DEG)
            sectors[snap] = i
    sectors[(dx == 0.0) & (dy == 0.0)] = 0
    return sectors


def sector_of(box: RotatedBox, partition: SectorPartition) -> int:
    """Sector containing the box center."""
    return int(sectors_of([box.cx], [box.cy], partition)[0])
