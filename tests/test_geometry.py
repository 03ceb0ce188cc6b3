import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircp.evaluate import average_precision, evaluate_boxes
from dircp.geometry import (
    RotatedBox,
    SectorPartition,
    _far_apart,
    box_corners,
    far_apart_pairs,
    intersection_area,
    iou,
    sector_of,
    sectors_of,
)
from dircp.scenario import ScenarioConfig, _box_arrays, _segments_blocked, generate, rsu_observe

from _oracles import (
    clip_area,
    mc_iou,
    random_box,
    rotate_point,
    sector_of_point,
    segment_intersects_box,
)


def corner_set(box, ndigits=9):
    return {(round(x, ndigits), round(y, ndigits)) for x, y in box_corners(box)}


class TestRotatedBox:
    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            RotatedBox(1.5, 0, 0, 1, 1, 1.0, 0.0)
        with pytest.raises(ValueError):
            RotatedBox(1.0, 0, 0, 0.0, 1, 1.0, 0.0)
        with pytest.raises(ValueError):
            RotatedBox(1.0, 0, 0, 1, -1, 1.0, 0.0)
        with pytest.raises(ValueError):
            RotatedBox(1.0, 0, 0, 1, 1, 0.9, 0.9)

    def test_unit_square_corners(self):
        box = RotatedBox(1.0, 0, 0, 1, 1, 1.0, 0.0)
        assert corner_set(box) == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}

    def test_rotated_square_same_corner_set(self):
        base = RotatedBox(1.0, 0, 0, 1, 1, 1.0, 0.0)
        quarter = RotatedBox.from_angle(1.0, 0, 0, 1, 1, math.pi / 2)
        assert corner_set(base) == corner_set(quarter)

    def test_corners_match_rotation_oracle(self):
        # Independent oracle: rotate the axis-aligned corners by an explicit
        # 2x2 rotation matrix, then translate.
        ang = math.radians(30.0)
        box = RotatedBox.from_angle(1.0, 1.0, 2.0, 2.0, 1.0, ang)
        expected = []
        for lx, ly in ((1.0, 0.5), (-1.0, 0.5), (-1.0, -0.5), (1.0, -0.5)):
            rx, ry = rotate_point(lx, ly, ang)
            expected.append((1.0 + rx, 2.0 + ry))
        got = box_corners(box)
        assert np.allclose(got, expected, atol=1e-12)

    def test_corners_ccw_and_centered(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            box = random_box(rng)
            pts = box_corners(box)
            area2 = sum(pts[i][0] * pts[(i + 1) % 4][1] - pts[(i + 1) % 4][0] * pts[i][1]
                        for i in range(4))
            assert area2 > 0  # counter-clockwise
            cx = sum(p[0] for p in pts) / 4
            cy = sum(p[1] for p in pts) / 4
            assert abs(cx - box.cx) < 1e-9 and abs(cy - box.cy) < 1e-9


class TestIoU:
    def test_identical_boxes(self):
        box = RotatedBox.from_angle(1.0, 3.0, -2.0, 4.0, 2.0, 0.7)
        assert iou(box, box) == 1.0

    def test_disjoint(self):
        a = RotatedBox(1.0, 0, 0, 1, 1, 1.0, 0.0)
        b = RotatedBox(1.0, 100, 0, 1, 1, 1.0, 0.0)
        assert iou(a, b) == 0.0

    def test_axis_aligned_offset_third(self):
        # Two 2x2 squares offset by 1 m: intersection 2, union 6.
        a = RotatedBox(1.0, 0, 0, 2, 2, 1.0, 0.0)
        b = RotatedBox(1.0, 1, 0, 2, 2, 1.0, 0.0)
        assert abs(iou(a, b) - 1.0 / 3.0) < 1e-12

    def test_edge_contact_is_zero(self):
        a = RotatedBox(1.0, 0, 0, 2, 2, 1.0, 0.0)
        b = RotatedBox(1.0, 2, 0, 2, 2, 1.0, 0.0)
        assert iou(a, b) == 0.0

    def test_rotated_square_vs_monte_carlo(self):
        a = RotatedBox(1.0, 0, 0, 1, 1, 1.0, 0.0)
        b = RotatedBox.from_angle(1.0, 0, 0, 1, 1, math.pi / 4)
        assert abs(iou(a, b) - mc_iou(a, b, seed=3)) < 2e-3
        # Known closed form for this configuration: octagon overlap.
        inter = 2.0 * (math.sqrt(2.0) - 1.0)
        assert abs(iou(a, b) - inter / (2.0 - inter)) < 1e-12

    def test_symmetry_and_bounds_random(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou(b, a)

    def test_monte_carlo_agreement_sample(self):
        rng = np.random.default_rng(5)
        for i in range(40):
            a = random_box(rng, span=3.0)
            b = random_box(rng, span=3.0)
            assert abs(iou(a, b) - mc_iou(a, b, n=200_000, seed=i)) < 4e-3

    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b = random_box(rng, span=3.0), random_box(rng, span=3.0)
            dx, dy = rng.uniform(-50, 50, size=2)
            a2 = RotatedBox(a.confidence, a.cx + dx, a.cy + dy, a.length, a.width, a.cos_a, a.sin_a)
            b2 = RotatedBox(b.confidence, b.cx + dx, b.cy + dy, b.length, b.width, b.cos_a, b.sin_a)
            assert abs(iou(a, b) - iou(a2, b2)) < 1e-9

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.5, 4), st.floats(0.5, 4),
           st.floats(0, 2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_self_iou_is_one(self, cx, cy, length, width, ang):
        box = RotatedBox.from_angle(1.0, cx, cy, length, width, ang)
        assert iou(box, box) == 1.0


class TestSectorPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            SectorPartition(2, ((0.0, 90.0), (90.0, 350.0)), (0, 0), 0.0)
        with pytest.raises(ValueError):
            SectorPartition(2, ((0.0, 200.0), (190.0, 360.0)), (0, 0), 0.0)

    def test_left_front_45_degrees(self):
        part = SectorPartition.uniform(4)
        # atan2 oracle: center at angle 45 deg, 10 m out.
        d = 10.0 / math.sqrt(2.0)
        box = RotatedBox(1.0, d, d, 1, 1, 1.0, 0.0)
        assert math.degrees(math.atan2(d, d)) == pytest.approx(45.0)
        assert sector_of(box, part) == 0

    def test_exact_boundary_goes_up(self):
        part = SectorPartition.uniform(4)
        box = RotatedBox(1.0, 0.0, 10.0, 1, 1, 1.0, 0.0)  # exactly 90 deg
        assert sector_of(box, part) == 1

    def test_single_sector(self):
        part = SectorPartition.uniform(1)
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert sector_of(random_box(rng), part) == 0

    def test_origin_maps_to_sector_zero(self):
        part = SectorPartition.uniform(4, frame_origin=(2.0, 3.0))
        box = RotatedBox(1.0, 2.0, 3.0, 1, 1, 1.0, 0.0)
        assert sector_of(box, part) == 0

    def test_every_box_in_exactly_one_sector(self):
        part = SectorPartition.uniform(6, frame_origin=(1.0, -2.0), frame_heading=0.3)
        rng = np.random.default_rng(17)
        for _ in range(300):
            box = random_box(rng, span=20.0)
            hits = [i for i, (lo, hi) in enumerate(part.boundaries)
                    if lo <= (math.degrees(math.atan2(box.cy + 2.0, box.cx - 1.0) - 0.3) % 360.0) < hi]
            assert len(hits) == 1
            assert sector_of(box, part) == hits[0]

    def test_joint_rotation_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            ang = rng.uniform(0.05, 0.95) * 2 * math.pi  # stay off exact boundaries
            delta = rng.uniform(0, 2 * math.pi)
            base = SectorPartition.uniform(4)
            x, y = rotate_point(10.0, 0.0, ang)
            box = RotatedBox(1.0, x, y, 1, 1, 1.0, 0.0)
            rx, ry = rotate_point(x, y, delta)
            rotated = SectorPartition.uniform(4, frame_heading=delta)
            rbox = RotatedBox(1.0, rx, ry, 1, 1, 1.0, 0.0)
            assert sector_of(box, base) == sector_of(rbox, rotated)


# Offsets in degrees from each boundary: on it, inside and outside the 1e-9 snap.
BOUNDARY_OFFSETS = (0.0, 1e-10, -1e-10, 1e-9, -1e-9, 3e-9, -3e-9, 1e-6, -1e-6)
SLIVER = 90.0 + 1e-10
PARTITIONS = [
    SectorPartition.uniform(4),
    SectorPartition(4, ((0.0, 45.0), (45.0, 180.0), (180.0, 300.0), (300.0, 360.0)),
                    (3.5, -2.0), 0.3),
    # Sector 1 is narrower than the snap: the first boundary within it wins.
    SectorPartition(3, ((0.0, 90.0), (90.0, SLIVER), (SLIVER, 360.0)), (8.0, 8.0), 0.0),
    SectorPartition.uniform(4, (8.5, 8.5), 1e-18),
]


def boundary_points(part):
    """Points at every boundary plus BOUNDARY_OFFSETS, near and far, then the origin."""
    ox, oy = part.frame_origin
    pts = [(ox + r * math.cos(math.radians(lo + off) + part.frame_heading),
            oy + r * math.sin(math.radians(lo + off) + part.frame_heading))
           for lo, _ in part.boundaries for off in BOUNDARY_OFFSETS for r in (1e-3, 7.0, 1e4)]
    return pts + [(ox, oy)]


class TestSectorsOf:
    """geometry.sectors_of, and the callers that split boxes with it, against the
    scalar oracle on boundary, origin, wrap and sliver points."""

    @pytest.mark.parametrize("part", PARTITIONS)
    def test_matches_scalar_oracle_at_boundaries(self, part):
        xs, ys = np.array(boundary_points(part)).T
        got = sectors_of(xs, ys, part)
        assert got.dtype == np.int64 and got.shape == xs.shape
        assert got.tolist() == [sector_of_point(x, y, part) for x, y in zip(xs, ys)]
        assert got[-1] == 0  # the frame origin
        assert set(got.tolist()) == set(range(part.n_dir))
        grid_shaped = sectors_of(xs[:-1].reshape(-1, 3), ys[:-1].reshape(-1, 3), part)
        assert np.array_equal(grid_shaped.ravel(), got[:-1])

    def test_snap_lands_in_the_upper_sector_also_across_360(self):
        part = SectorPartition.uniform(4)
        for i, (lo, _) in enumerate(part.boundaries):
            for off, want in ((-1e-10, i), (1e-10, i), (-1e-6, (i - 1) % 4)):
                x, y = rotate_point(7.0, 0.0, math.radians(lo + off))
                assert sectors_of([x], [y], part).tolist() == [want]

    def test_wrap_to_360_goes_to_sector_zero(self):
        part = SectorPartition.uniform(4, frame_origin=(8.5, 8.5), frame_heading=1e-18)
        assert math.degrees(math.atan2(0.0, 1.0) - 1e-18) % 360.0 == 360.0
        assert sectors_of([9.5], [8.5], part).tolist() == [0]
        assert sector_of_point(9.5, 8.5, part) == 0

    def test_snap_sweep_across_every_boundary_and_up_to_360(self):
        """Angles swept across each boundary in 1e-10 degree steps, as far as 2.5
        times the snap on either side, and the axes: points exactly on a boundary,
        within the snap of one, just past it and just short of 360 all follow the
        scalar oracle, together and one point per call."""
        offsets = np.linspace(-2.5e-9, 2.5e-9, 51)
        seen = set()
        for part in PARTITIONS:
            ox, oy = part.frame_origin
            turns = [math.radians(lo + off) + part.frame_heading
                     for lo, _ in part.boundaries for off in offsets]
            turns += [k * math.pi / 2 for k in range(4)]
            pts = [(ox + r * math.cos(t), oy + r * math.sin(t))
                   for t in turns for r in (0.5, 7.0, 3e3)]
            xs, ys = np.array(pts).T
            want = [sector_of_point(x, y, part) for x, y in pts]
            assert sectors_of(xs, ys, part).tolist() == want
            assert [sectors_of([x], [y], part)[0] for x, y in pts] == want
            bounds = np.array([lo for lo, _ in part.boundaries] + [360.0])
            ang = np.array([math.degrees(math.atan2(y - oy, x - ox) - part.frame_heading)
                            % 360.0 for x, y in pts])
            gap = np.abs(ang[:, None] - bounds).min(axis=1)
            seen.update({"on" if g == 0.0 else "near" if g <= 1e-9 else "past"
                         for g in gap[gap < 3e-9]})
            if ((ang >= 360.0 - 1e-9) & (ang < 360.0)).any():
                seen.add("short of 360")
        assert seen == {"on", "near", "past", "short of 360"}

    def test_empty_input(self):
        for part in PARTITIONS:
            got = sectors_of(np.empty(0), np.empty(0), part)
            assert got.shape == (0,) and got.dtype == np.int64

    @pytest.mark.parametrize("part", PARTITIONS)
    def test_rsu_counts_and_ap_split_follow_the_oracle(self, part):
        boxes = [RotatedBox(1.0, x, y, 4.0, 2.0, 1.0, 0.0) for x, y in boundary_points(part)]
        oracle = [sector_of_point(b.cx, b.cy, part) for b in boxes]
        world = replace(generate(ScenarioConfig(n_vehicles=1, n_collaborators=0)),
                        vehicles=tuple(boxes))
        counts = rsu_observe(world, part)
        assert counts.dtype == np.int64
        assert counts.tolist() == np.bincount(oracle, minlength=part.n_dir).tolist()
        # A lone truth (or prediction) zeroes its own sector's AP and no other's.
        for box, sector in zip(boxes, oracle):
            want = tuple(0.0 if s == sector else 1.0 for s in range(part.n_dir))
            for preds, truths in (([], [box]), ([box], [])):
                assert evaluate_boxes(preds, truths, part, (0.5,))[1][0.5] == want
        preds = [replace(b, confidence=0.5 + 0.5 * (k % 2)) for k, b in enumerate(boxes[::2])]
        per = evaluate_boxes(preds, boxes, part, (0.5,))[1][0.5]
        for s in range(part.n_dir):
            p = [b for b in preds if sector_of_point(b.cx, b.cy, part) == s]
            t = [b for b, o in zip(boxes, oracle) if o == s]
            assert per[s] == average_precision(p, t, 0.5)


def blocked(p, q, box):
    """The production occlusion test on one segment and one box."""
    return bool(_segments_blocked(p, np.array([q], dtype=float), _box_arrays([box]))[0, 0])


def lattice_box(rng):
    """Axis-aligned box on a half-cell lattice."""
    cx, cy = rng.integers(-8, 9, 2) * 0.5
    return RotatedBox(1.0, cx, cy, float(rng.integers(1, 6)), float(rng.integers(1, 6)),
                      1.0, 0.0)


class TestSegmentBox:
    def test_crossing(self):
        box = RotatedBox(1.0, 5.0, 0.0, 2.0, 2.0, 1.0, 0.0)
        assert blocked((0, 0), (10, 0), box)

    def test_miss(self):
        box = RotatedBox(1.0, 5.0, 5.0, 2.0, 2.0, 1.0, 0.0)
        assert not blocked((0, 0), (10, 0), box)

    def test_grazing_edge_does_not_block(self):
        box = RotatedBox(1.0, 5.0, 1.0, 2.0, 2.0, 1.0, 0.0)
        assert not blocked((0, 0), (10, 0), box)

    def test_endpoint_touch_does_not_block(self):
        box = RotatedBox(1.0, 5.0, 0.0, 2.0, 2.0, 1.0, 0.0)
        # Segment ends exactly on the near face.
        assert not blocked((0, 0), (4.0, 0.0), box)

    def test_vectorized_matches_scalar_oracle(self):
        rng = np.random.default_rng(31)
        for i in range(200):
            # Lattice boxes with a lattice origin and half the targets on the
            # same half-cell lattice: parallel, grazing and face-touching
            # segments occur. Random boxes ride in the same batch.
            boxes = [lattice_box(rng), random_box(rng, span=4.0),
                     lattice_box(rng), random_box(rng, span=4.0)][:1 + i % 4]
            if i % 2:
                pos = tuple(rng.uniform(-8.0, 8.0, 2))
            else:
                pos = tuple(rng.integers(-16, 17, 2) * 0.5)
            targets = np.concatenate([rng.uniform(-8.0, 8.0, (50, 2)),
                                      rng.integers(-16, 17, (50, 2)) * 0.5, [pos]])
            got = _segments_blocked(pos, targets, _box_arrays(boxes))
            expected = [[segment_intersects_box(pos, tuple(t), box) for t in targets]
                        for box in boxes]
            assert got.tolist() == expected


class TestIntersectionArea:
    def test_far_apart_reject_matches_unrejected_clip(self):
        # Pairs whose facing corners sit on the line of centers touch at a
        # center distance equal to the sum of the circumradii; offsets around
        # that distance straddle the reject and its 1e-6 m margin.
        rng = np.random.default_rng(47)
        offsets = (-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-7, 1e-6, 1.1e-6, 1e-5, 1e-3)
        rejected = 0
        for i in range(3000):
            la, wa, lb, wb = rng.uniform(0.5, 8.5, 4)
            phi = rng.uniform(0.0, 2 * math.pi)
            if i % 2:
                head_a = phi - math.atan2(wa, la)
                head_b = phi + math.pi - math.atan2(wb, lb)
            else:
                head_a, head_b = rng.uniform(0.0, 2 * math.pi, 2)
            r = 0.5 * math.hypot(la, wa) + 0.5 * math.hypot(lb, wb)
            d = r + offsets[(i // 2) % len(offsets)]
            ax, ay = rng.uniform(0.0, 64.0, 2)
            a = RotatedBox.from_angle(1.0, ax, ay, la, wa, head_a)
            b = RotatedBox.from_angle(1.0, ax + d * math.cos(phi), ay + d * math.sin(phi),
                                      lb, wb, head_b)
            for p, q in ((a, b), (b, a)):
                got = intersection_area(p, q)
                assert got == clip_area(p, q)
                rejected += got == 0.0
        assert rejected > 0


class TestFarApartPairs:
    def test_matches_scalar_reject_at_the_reject_distance(self):
        # Each b[i] sits within 1e-5 m of a[i]'s reject distance; the other
        # pairs land anywhere.
        rng = np.random.default_rng(48)
        a = [random_box(rng, span=40.0) for _ in range(60)]
        b = []
        for p in a:
            t = random_box(rng, span=1.0)
            d = 0.5 * math.hypot(p.length, p.width) + 0.5 * math.hypot(t.length, t.width) \
                + 1e-6 + float(rng.choice([0.0, 1e-16, -1e-16, rng.uniform(-1e-5, 1e-5)]))
            ang = rng.uniform(0.0, 2 * math.pi)
            b.append(RotatedBox(1.0, p.cx + d * math.cos(ang), p.cy + d * math.sin(ang),
                                t.length, t.width, t.cos_a, t.sin_a))
        got = far_apart_pairs(a, b)
        assert got.dtype == bool and got.shape == (60, 60)
        assert got.tolist() == [[_far_apart(p, q) for q in b] for p in a]
        assert 10 < np.diag(got).sum() < 50  # both sides of the distance are hit

    def test_empty_sides(self):
        boxes = [random_box(np.random.default_rng(1)) for _ in range(3)]
        assert far_apart_pairs([], boxes).shape == (0, 3)
        assert far_apart_pairs(boxes, []).shape == (3, 0)


class TestEqualRegionIoU:
    def test_flipped_heading_same_region(self):
        # angle + pi describes the same rectangle; corner sets coincide.
        rng = np.random.default_rng(43)
        for _ in range(50):
            box = random_box(rng)
            flipped = RotatedBox(box.confidence, box.cx, box.cy, box.length,
                                 box.width, -box.cos_a, -box.sin_a)
            assert corner_set(box) == corner_set(flipped)
            assert iou(box, flipped) == 1.0

    def test_swapped_axes_same_region(self):
        # Swapping length/width while rotating the heading by 90 degrees
        # keeps the region identical.
        base = RotatedBox.from_angle(1.0, 2.0, -1.0, 4.0, 2.0, 0.3)
        swapped = RotatedBox.from_angle(1.0, 2.0, -1.0, 2.0, 4.0,
                                        0.3 + math.pi / 2)
        assert corner_set(base) == corner_set(swapped)
        assert iou(base, swapped) == 1.0

    def test_high_iou_implies_equal_corners(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            a = random_box(rng, span=4.0)
            b = random_box(rng, span=4.0)
            if iou(a, b) > 1.0 - 1e-9:
                assert corner_set(a, ndigits=6) == corner_set(b, ndigits=6)
