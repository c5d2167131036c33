"""Geometry: boxes, footprints, polygon clipping, IoU."""

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adathresh.bin_stats import ground_distance
from adathresh.geometry import (
    _PRUNE_SLACK,
    Box3D,
    _clip_area,
    iou_3d,
    iou_bev,
    normalize_angle,
    pair_iou,
)
from helpers import columns, make_box, mc_iou_bev, polygon_intersection_area

# Unit-footprint box: width = length = 1.
UNIT = dict(dims=(1.0, 1.0, 1.0))


def unit_box(x=0.0, z=0.0, yaw=0.0):
    return make_box(x, z, dims=(1.0, 1.0, 1.0), yaw=yaw)


finite_coord = st.floats(-80.0, 80.0)
box_dims = st.tuples(
    st.floats(0.5, 4.0), st.floats(0.5, 4.0), st.floats(0.5, 8.0)
)
yaws = st.floats(-math.pi, math.pi)


@st.composite
def boxes(draw, x=finite_coord, z=finite_coord):
    return Box3D(
        center=(draw(x), draw(st.floats(-2.0, 2.0)), draw(z)),
        dims=draw(box_dims),
        yaw=draw(yaws),
    )


@st.composite
def overlapping_box_pairs(draw, near=st.floats(-10.0, 10.0)):
    a = draw(boxes(x=near, z=near))
    dx = draw(st.floats(-4.0, 4.0))
    dz = draw(st.floats(-4.0, 4.0))
    b = Box3D(
        center=(a.center[0] + dx, a.center[1], a.center[2] + dz),
        dims=draw(box_dims),
        yaw=draw(yaws),
    )
    return a, b


class TestBox3D:
    def test_rejects_non_positive_dims(self):
        with pytest.raises(ValueError):
            Box3D(center=(0, 0, 0), dims=(1.0, 0.0, 1.0), yaw=0.0)
        with pytest.raises(ValueError):
            Box3D(center=(0, 0, 0), dims=(1.0, 1.0, -2.0), yaw=0.0)

    def test_normalizes_yaw(self):
        box = Box3D(center=(0, 0, 0), dims=(1, 1, 1), yaw=3.0 * math.pi)
        assert -math.pi <= box.yaw <= math.pi
        assert abs(box.yaw) == pytest.approx(math.pi, abs=1e-12)

    def test_dim_accessors(self):
        box = make_box(dims=(1.5, 1.7, 4.0))
        assert (box.height, box.width, box.length) == (1.5, 1.7, 4.0)


class TestEgoDistance:
    """The ground-plane distance of a box center (x, z): center[::2]."""

    def test_on_axis(self):
        assert ground_distance(*make_box(0.0, 10.0, y=1.7).center[::2]) == 10.0

    def test_three_four_five(self):
        assert ground_distance(*make_box(3.0, 4.0, y=1.7).center[::2]) == 5.0

    def test_origin(self):
        assert ground_distance(*Box3D(center=(0, 0, 0), dims=(1, 1, 1), yaw=0).center[::2]) == 0.0


class TestNormalizeAngle:
    @given(st.floats(-50.0, 50.0))
    def test_range_and_equivalence(self, angle):
        wrapped = normalize_angle(angle)
        assert -math.pi <= wrapped <= math.pi
        assert math.cos(wrapped) == pytest.approx(math.cos(angle), abs=1e-9)
        assert math.sin(wrapped) == pytest.approx(math.sin(angle), abs=1e-9)


class TestBevPolygon:
    """Box3D.footprint, the box's BEV polygon."""

    def test_axis_aligned_unit_square(self):
        verts = set(unit_box().footprint)
        assert verts == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}

    def test_quarter_turn_swaps_width_and_length(self):
        flat = make_box(0.0, 0.0, dims=(1.0, 1.0, 3.0), yaw=0.0).footprint
        turned = make_box(0.0, 0.0, dims=(1.0, 3.0, 1.0), yaw=math.pi / 2).footprint
        rounded = lambda verts: {(round(x, 9), round(z, 9)) for x, z in verts}
        assert rounded(flat) == rounded(turned)

    def test_diagonal_unit_square_vertices_on_diagonals(self):
        for x, z in unit_box(yaw=math.pi / 4).footprint:
            assert math.hypot(x, z) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    @given(boxes())
    def test_footprint_is_ccw_with_expected_area(self, box):
        # The oracle keeps what lies left of each edge, so a footprint
        # clipped by itself keeps its whole area only when it is CCW.
        assert polygon_intersection_area(box.footprint, box.footprint) == pytest.approx(box.width * box.length, rel=1e-9)
        # In its own frame a box is its rectangle exactly.
        assert _clip_area(box._shape[0], box._shape[0]) == box.footprint_area == box.width * box.length


def clip(a, b):
    """_clip_area of two boxes' frames."""
    return _clip_area(a._shape[0], b._shape[0])


class TestPolygonIntersectionArea:
    """_clip_area of two boxes' frames, judged by polygon_intersection_area,
    the world-frame convex-polygon clipper of tests/helpers.py; the first
    two cases check that oracle on polygons that are not boxes."""

    SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

    @pytest.mark.parametrize("few", [(), ((0.0, 0.0), (1.0, 0.0))], ids=["empty", "two vertices"])
    def test_fewer_than_three_vertices_give_zero(self, few):
        assert polygon_intersection_area(few, self.SQUARE) == 0.0
        assert polygon_intersection_area(self.SQUARE, few) == 0.0

    def test_ccw_square_area(self):
        assert polygon_intersection_area(self.SQUARE, self.SQUARE) == pytest.approx(1.0)

    def test_identical_unit_squares(self):
        assert clip(unit_box(), unit_box()) == 1.0

    def test_disjoint(self):
        assert clip(unit_box(), unit_box(x=10.0)) == 0.0

    def test_half_offset_rectangle_overlap(self):
        assert clip(unit_box(), unit_box(x=0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_edge_touching_counts_as_empty(self):
        assert clip(unit_box(), unit_box(x=1.0)) == 0.0

    @given(overlapping_box_pairs())
    def test_symmetric_exactly(self, pair):
        a, b = pair
        assert clip(a, b) == clip(b, a)

    @given(overlapping_box_pairs())
    def test_bounded_by_smaller_area(self, pair):
        a, b = pair
        inter = clip(a, b)
        assert 0.0 <= inter <= min(a.footprint_area, b.footprint_area) + 1e-9

    @given(overlapping_box_pairs(near=st.floats(-100.0, 100.0)))
    def test_matches_the_world_frame_clipper(self, pair):
        a, b = pair
        expected = polygon_intersection_area(a.footprint, b.footprint)
        assert abs(clip(a, b) - expected) <= 1e-9 * max(1.0, expected)


class TestIouBev:
    def test_identical_boxes_give_exactly_one(self):
        a = make_box(3.0, 21.0, yaw=0.7)
        b = make_box(3.0, 21.0, yaw=0.7)
        assert iou_bev(a, b) == 1.0

    def test_disjoint_boxes_give_zero(self):
        assert iou_bev(unit_box(), unit_box(x=30.0)) == 0.0

    def test_half_offset_unit_squares(self):
        assert iou_bev(unit_box(), unit_box(x=0.5)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @given(overlapping_box_pairs())
    def test_bounds(self, pair):
        a, b = pair
        assert 0.0 <= iou_bev(a, b) <= 1.0

    @given(overlapping_box_pairs())
    def test_symmetry_exact(self, pair):
        a, b = pair
        assert iou_bev(a, b) == iou_bev(b, a)

    @given(overlapping_box_pairs(), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
    def test_translation_invariance(self, pair, dx, dz):
        a, b = pair
        moved_a = Box3D((a.center[0] + dx, a.center[1], a.center[2] + dz), a.dims, a.yaw)
        moved_b = Box3D((b.center[0] + dx, b.center[1], b.center[2] + dz), b.dims, b.yaw)
        assert iou_bev(moved_a, moved_b) == pytest.approx(iou_bev(a, b), abs=1e-9)

    @given(overlapping_box_pairs(), st.floats(-math.pi, math.pi))
    def test_rotation_consistency(self, pair, angle):
        a, b = pair

        def rotate(box):
            c, s = math.cos(angle), math.sin(angle)
            x, y, z = box.center
            return Box3D((x * c + z * s, y, -x * s + z * c), box.dims, box.yaw + angle)

        assert iou_bev(rotate(a), rotate(b)) == pytest.approx(iou_bev(a, b), abs=1e-6)

    def test_monte_carlo_spot_check(self):
        # The heavyweight 100-pair / 1e6-sample sweep lives in the
        # acceptance suite; this is a fast smoke version.
        import random

        rng = random.Random(7)
        for trial in range(10):
            a = make_box(rng.uniform(-3, 3), rng.uniform(-3, 3), yaw=rng.uniform(-3, 3))
            b = make_box(rng.uniform(-3, 3), rng.uniform(-3, 3), yaw=rng.uniform(-3, 3))
            estimate = mc_iou_bev(a, b, n=100_000, seed=trial)
            assert iou_bev(a, b) == pytest.approx(estimate, abs=3e-2)


class TestIou3d:
    def test_identical_boxes_give_one(self):
        a = make_box(1.0, 9.0, yaw=0.3)
        assert iou_3d(a, make_box(1.0, 9.0, yaw=0.3)) == 1.0

    def test_vertical_gap_gives_zero(self):
        low = make_box(0.0, 10.0, y=0.0, dims=(1.0, 1.0, 1.0))
        high = make_box(0.0, 10.0, y=5.0, dims=(1.0, 1.0, 1.0))
        assert iou_3d(low, high) == 0.0

    def test_half_height_overlap_same_footprint(self):
        a = make_box(0.0, 10.0, y=0.0, dims=(1.0, 1.0, 1.0))
        b = make_box(0.0, 10.0, y=0.5, dims=(1.0, 1.0, 1.0))
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @given(overlapping_box_pairs())
    def test_bounds_and_symmetry(self, pair):
        a, b = pair
        value = iou_3d(a, b)
        assert 0.0 <= value <= 1.0
        assert value == iou_3d(b, a)

    @given(overlapping_box_pairs())
    def test_equals_bev_when_vertically_aligned(self, pair):
        a, b = pair
        same_h = Box3D(b.center, (a.dims[0], b.dims[1], b.dims[2]), b.yaw)
        aligned = Box3D((same_h.center[0], a.center[1], same_h.center[2]), same_h.dims, same_h.yaw)
        assert iou_3d(a, aligned) == pytest.approx(iou_bev(a, aligned), abs=1e-9)


def _radius(box):
    return 0.5 * math.hypot(box.width, box.length)


@st.composite
def box_frames(draw):
    """(gt, det) box lists; detections are random, coincident with a gt
    box, turned about its centre, abutting it along its length, or
    placed so that the two bounding circles (nearly) touch."""
    near = st.floats(-6.0, 6.0)
    gt = draw(st.lists(boxes(x=near, z=near), max_size=5))
    det = []
    kinds = st.sampled_from(["random", "coincident", "turned", "abutting", "tangent"])
    for kind in draw(st.lists(kinds, max_size=6)):
        if kind == "random" or not gt:
            det.append(draw(boxes(x=near, z=near)))
            continue
        g = draw(st.sampled_from(gt))
        if kind == "coincident":
            det.append(Box3D(g.center, g.dims, g.yaw))
            continue
        if kind == "turned":
            det.append(Box3D(g.center, g.dims, draw(yaws)))
            continue
        if kind == "abutting":
            # The length runs along (cos, -sin) in (x, z): one length on,
            # the footprints share an edge up to rounding.
            step = g.length * draw(st.sampled_from([-1.0, 1.0]))
            x = g.center[0] + step * math.cos(g.yaw)
            z = g.center[2] - step * math.sin(g.yaw)
            det.append(Box3D((x, g.center[1], z), g.dims, g.yaw))
            continue
        dims, yaw = draw(box_dims), draw(yaws)
        angle = draw(st.floats(-math.pi, math.pi))
        stretch = draw(st.sampled_from([1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 2e-9]))
        reach = stretch * (_radius(g) + 0.5 * math.hypot(dims[1], dims[2]))
        x = g.center[0] + reach * math.cos(angle)
        z = g.center[2] + reach * math.sin(angle)
        det.append(Box3D((x, g.center[1], z), dims, yaw))
    return gt, det


def row(box):
    """The (x, y, z, height, width, length, yaw) row pair_iou takes."""
    return (*box.center, *box.dims, box.yaw)


def box_of(values):
    """The Box3D of a pair_iou row: the scalar IoU's view of it."""
    return Box3D(values[:3], values[3:6], values[6])


def scalar_matrix(gt, det, iou):
    return [[iou(d, g) for g in gt] for d in det]


def one_frame_iou(gt, det, kind):
    """pair_iou of one frame's boxes as {(det_idx, gt_idx): iou}."""
    rows, cols, values = pair_iou(columns([row(b) for b in det]), [0, len(det)], columns([row(b) for b in gt]), [0, len(gt)], kind)
    return dict(zip(zip(rows, cols), values))


class TestIouMatrix:
    """pair_iou on a single frame."""

    @pytest.mark.parametrize("kind, iou", [("bev", iou_bev), ("3d", iou_3d)])
    @given(frame=box_frames())
    def test_equals_scalar_iou_exactly(self, kind, iou, frame):
        gt, det = frame
        pairs = one_frame_iou(gt, det, kind)
        assert set(pairs) <= {(d, g) for d in range(len(det)) for g in range(len(gt))}
        fresh_gt, fresh_det = [box_of(row(b)) for b in gt], [box_of(row(b)) for b in det]
        assert [[pairs.get((d, g), 0.0) for g in range(len(gt))] for d in range(len(det))] == (
            scalar_matrix(fresh_gt, fresh_det, iou)
        )

    @pytest.mark.parametrize("overlap", [0.0, 1e-5])
    def test_corners_meeting_where_bounding_circles_touch(self, overlap):
        # Unit squares one diagonal apart have tangent bounding circles
        # and touching corners; moved closer by `overlap` along the
        # diagonal, the corners overlap by overlap**2 square metres.
        # The same for two squares turned 45 degrees, along the x axis.
        quarter = math.pi / 4
        step = 1.0 - overlap
        cases = [
            (unit_box(), unit_box(step, step)),
            (unit_box(yaw=quarter), unit_box(math.sqrt(2.0) * step, 0.0, yaw=quarter)),
        ]
        for g, d in cases:
            value = one_frame_iou([g], [d], "bev").get((0, 0), 0.0)
            assert value == iou_bev(box_of(row(d)), box_of(row(g)))
            assert (value > 0.0) == (overlap > 0.0)

    @pytest.mark.parametrize("kind", ["bev", "3d"])
    def test_empty_lists(self, kind):
        some = [unit_box(), unit_box(0.5)]
        assert one_frame_iou([], some, kind) == {}
        assert one_frame_iou(some, [], kind) == {}
        assert one_frame_iou([], [], kind) == {}

    def test_disjoint_pairs_skip_the_clipper(self, monkeypatch):
        import adathresh.geometry as geometry

        calls = []

        def counting(a, b):
            calls.append((a, b))
            return _clip_area(a, b)

        monkeypatch.setattr(geometry, "_clip_area", counting)
        gt = [make_box(0.0, 10.0), make_box(0.0, 30.0)]
        det = [make_box(0.2, 10.0), make_box(0.0, 50.0)]
        pairs = one_frame_iou(gt, det, "bev")

        det_frames, gt_frames = [d._shape[0] for d in det], [g._shape[0] for g in gt]
        clipped = [(det_frames.index(a), gt_frames.index(b)) for a, b in calls]
        assert clipped == [(0, 0)]
        assert pairs[0, 0] == iou_bev(det[0], gt[0]) > 0.0
        assert [key for key, value in pairs.items() if value != 0.0] == [(0, 0)]

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            one_frame_iou([unit_box()], [unit_box()], "2d")


def flatten(frames):
    """[(gt, det), ...] frames of pair_iou rows as pair_iou's arguments:
    det rows, det offsets, gt rows, gt offsets."""
    gt = [b for g, _ in frames for b in g]
    det = [b for _, d in frames for b in d]
    gt_offsets = [0, *accumulate(len(g) for g, _ in frames)]
    det_offsets = [0, *accumulate(len(d) for _, d in frames)]
    return det, det_offsets, gt, gt_offsets


def assert_pairs_equal_scalar(frames, kind):
    """pair_iou over [(gt, det), ...] frames of pair_iou rows gives, for
    every same-frame pair in (frame, det, gt) order, the scalar IoU of
    the rows' Box3D bit for bit; a pair it leaves out has scalar IoU 0."""
    det, det_offsets, gt, gt_offsets = flatten(frames)
    rows, cols, values = pair_iou(columns(det), det_offsets, columns(gt), gt_offsets, kind)
    got = list(zip(rows, cols))
    assert got == sorted(got)
    kept = dict(zip(got, values))
    iou = iou_bev if kind == "bev" else iou_3d
    same_frame = []
    for f in range(len(frames)):
        for r in range(det_offsets[f], det_offsets[f + 1]):
            for c in range(gt_offsets[f], gt_offsets[f + 1]):
                same_frame.append((r, c))
                assert kept.get((r, c), 0.0) == iou(box_of(det[r]), box_of(gt[c])), (f, r, c)
    assert set(kept) <= set(same_frame)
    return kept


def box_frame_rows(frames):
    """box_frames output as frames of pair_iou rows."""
    return [([row(b) for b in g], [row(b) for b in d]) for g, d in frames]


def _box(x, z, w, l, yaw=0.0, y=1.0, h=1.0):
    """The pair_iou row of a box (as given, not normalized)."""
    return (x, y, z, h, w, l, yaw)


# (name, a, b, bev IoU or None): footprints at yaw 0 have vertices
# (x+l/2, z+w/2), (x-l/2, z+w/2), (x-l/2, z-w/2), (x+l/2, z-w/2).
EDGE_CASES = [
    ("coincident", _box(0.0, 0.0, 2.0, 2.0), _box(0.0, 0.0, 2.0, 2.0), 1.0),
    # B shares A's first vertex (1, 1) and is inside A: the canonical
    # swap has to compare the second vertex's x.
    ("one shared vertex, contained", _box(0.0, 0.0, 2.0, 2.0), _box(0.5, 0.5, 1.0, 1.0), 0.25),
    # C shares A's first two vertices: the swap compares the third z.
    ("two shared vertices, contained", _box(0.0, 0.0, 2.0, 2.0), _box(0.0, 0.5, 1.0, 2.0), 0.5),
    ("edge touching", _box(0.0, 0.0, 2.0, 2.0), _box(2.0, 0.0, 2.0, 2.0), 0.0),
    # Corners overlapping by about 1e-14 square metres: below the
    # degenerate-area cut, so the intersection counts as empty.
    ("corner sliver", _box(0.0, 0.0, 1.0, 1.0), _box(1.0 - 1e-7, 1.0 - 1e-7, 1.0, 1.0), 0.0),
    ("yaw +pi and -pi", _box(0.0, 0.0, 1.7, 4.0, math.pi), _box(0.3, 0.1, 1.7, 4.0, -math.pi),
     None),
    ("thin, crossed", _box(0.0, 0.0, 1e-3, 4.0, 0.3), _box(0.0, 0.0, 1e-3, 4.0, 0.3 + math.pi / 2),
     None),
    ("thin, parallel", _box(0.0, 0.0, 1e-3, 4.0, 0.3), _box(1e-4, 0.0, 1e-3, 4.0, 0.3), None),
    ("vertical offset", _box(0.0, 0.0, 2.0, 4.0, 0.5), _box(0.2, 0.1, 2.0, 4.0, 0.6, y=1.6), None),
]


class TestPairIou:
    @pytest.mark.parametrize("kind", ["bev", "3d"])
    @given(frames=st.lists(box_frames(), max_size=4))
    def test_equals_scalar_iou_exactly(self, kind, frames):
        assert_pairs_equal_scalar(box_frame_rows(frames), kind)

    @pytest.mark.parametrize("kind", ["bev", "3d"])
    @pytest.mark.parametrize("name, a, b, expected", EDGE_CASES, ids=[c[0] for c in EDGE_CASES])
    def test_edge_cases_both_orders(self, kind, name, a, b, expected):
        for g, d in ((a, b), (b, a)):
            kept = assert_pairs_equal_scalar([([g], [d])], kind)
            if expected is not None and kind == "bev":
                assert kept[0, 0] == expected

    @pytest.mark.parametrize("kind", ["bev", "3d"])
    def test_boxes_of_equal_x_order_by_later_frame_fields(self, kind):
        # The clipper works in the frame of the box whose frame tuple
        # (x, z, cos, sin, l/2, w/2, yaw) is smaller. These boxes share x,
        # and some share z too, so the order is decided by later fields;
        # they are turned, so the two clip orders round differently and
        # a wrong order shows as an asymmetric IoU.
        family = []
        for i, yaw in enumerate(np.linspace(-3.0, 3.0, 41).tolist()):
            dims = (1.5, 1.4 + 0.05 * (i % 5), 3.5 + 0.1 * (i % 7))
            family.append((10.0, 1.0, 20.0 + 0.25 * (i % 3), *dims, yaw))
        a, b = family[::2][:20], family[1::2]
        kept = assert_pairs_equal_scalar([(a, b), (b, a)], kind)
        assert len(kept) == 2 * 20 * 20
        for d in range(20):
            for g in range(20):
                assert kept[d, g] == kept[20 + g, 20 + d] > 0.0

    def test_frames_without_gt_or_detections(self):
        boxes = [_box(0.0, 0.0, 2.0, 4.0), _box(0.5, 0.0, 2.0, 4.0)]
        frames = [([], boxes), (boxes, []), ([], []), (boxes, boxes[::-1])]
        kept = assert_pairs_equal_scalar(frames, "bev")
        assert sorted(kept) == [(2, 2), (2, 3), (3, 2), (3, 3)]

    def test_rejects_unknown_kind(self):
        one = columns([row(unit_box())])
        with pytest.raises(ValueError):
            pair_iou(one, [0, 1], one, [0, 1], "2d")


def circle_test_pairs(det, det_offsets, gt, gt_offsets):
    """Every same-frame (det_idx, gt_idx) pair that the bounding-circle
    test keeps, found by testing every pair, in (frame, det, gt) order."""
    det_idx, gt_idx = [], []
    for f in range(len(det_offsets) - 1):
        for d in range(det_offsets[f], det_offsets[f + 1]):
            dx, _, dz, _, dw, dl, _ = det[d]
            dr, dm = 0.5 * math.hypot(dw, dl), math.hypot(dx, dz)
            for g in range(gt_offsets[f], gt_offsets[f + 1]):
                gx, _, gz, _, gw, gl, _ = gt[g]
                gr, gm = 0.5 * math.hypot(gw, gl), math.hypot(gx, gz)
                reach = dr + gr
                if not math.hypot(dx - gx, dz - gz) - reach > _PRUNE_SLACK * (reach + dm + gm):
                    det_idx.append(d)
                    gt_idx.append(g)
    return det_idx, gt_idx


def _row_radius(values):
    return 0.5 * math.hypot(values[4], values[5])


@st.composite
def prune_frames(draw):
    """[(gt, det), ...] frames of pair_iou rows that stress the windowed
    prune: frames of one ground-truth box or of many; detections that
    are crowded-style jittered duplicates of a ground-truth box, or
    placed straight along z from one (often the largest, whose circle
    sets the window) at the circles' reach plus c times the test's slack
    term, so they sit on either side of the test's bound and of the
    window's edge."""

    def box(x, z):
        w, l = draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 6.0))
        return (x, 1.5, z, 1.5, w, l, draw(yaws))

    frames = []
    for _ in range(draw(st.integers(1, 3))):
        n_gt = draw(st.sampled_from([0, 1, 1, 2, 6, 16]))
        gt = [box(draw(st.floats(-20.0, 20.0)), draw(st.floats(0.0, 60.0))) for _ in range(n_gt)]
        det = []
        for kind in draw(st.lists(st.sampled_from(["duplicate", "tangent", "random"]), max_size=8)):
            if kind == "random" or not gt:
                det.append(box(draw(st.floats(-20.0, 20.0)), draw(st.floats(0.0, 60.0))))
                continue
            if kind == "duplicate":
                gx, gy, gz, h, w, l, yaw = draw(st.sampled_from(gt))
                jitter = st.floats(-1.0, 1.0)
                det.append((gx + 0.6 * draw(jitter), gy, gz + 0.6 * draw(jitter), h, w, l, yaw + 0.3 * draw(jitter)))
                continue
            g = max(gt, key=_row_radius) if draw(st.booleans()) else draw(st.sampled_from(gt))
            d = box(g[0], g[2])
            reach = _row_radius(d) + _row_radius(g)
            c = draw(st.sampled_from([-1.0, 0.0, 0.5, 0.999, 1.001, 1.5, 1.999, 2.0, 2.001, 3.0]))
            step = reach + c * _PRUNE_SLACK * (reach + 2.0 * math.hypot(g[0], g[2]))
            det.append((d[0], d[1], g[2] + draw(st.sampled_from([-1.0, 1.0])) * step, *d[3:]))
        frames.append((gt, det))
    return frames


class TestWindowedPrune:
    """pair_iou tests the circle formula only inside a z window; it keeps
    exactly the pairs the formula keeps over every same-frame pair."""

    @pytest.mark.parametrize("kind", ["bev", "3d"])
    @given(frames=prune_frames())
    def test_keeps_exactly_the_pairs_of_the_circle_test(self, kind, frames):
        det, det_offsets, gt, gt_offsets = flatten(frames)
        rows, cols, values = pair_iou(columns(det), det_offsets, columns(gt), gt_offsets, kind)
        assert (rows, cols) == circle_test_pairs(det, det_offsets, gt, gt_offsets)
        assert len(values) == len(rows)

    def test_circles_at_the_windows_edge(self):
        # The detection sits straight along z from the largest box, at
        # the circles' reach plus c slack terms: the test keeps it up to
        # c = 1, and the window reaches a little beyond c = 2.
        big, small = (0.0, 1.5, 40.0, 1.5, 2.0, 5.0, 0.0), (30.0, 1.5, 40.0, 1.5, 1.0, 1.0, 0.0)
        reach = 0.5 * math.hypot(1.0, 1.0) + 0.5 * math.hypot(2.0, 5.0)
        for c, kept in ((0.0, True), (0.5, True), (1.0, None), (1.9, False), (2.0, False), (2.1, False)):
            z = 40.0 + reach + c * _PRUNE_SLACK * (reach + 80.0)
            det = [(0.0, 1.5, z, 1.5, 1.0, 1.0, 0.0)]
            got = pair_iou(columns(det), [0, 1], columns([big, small]), [0, 2], "bev")[:2]
            assert got == circle_test_pairs(det, [0, 1], [big, small], [0, 2])
            if kept is not None:
                assert got == (([0], [0]) if kept else ([], []))


def replaced(position, value, row=(0.0, 1.5, 40.0, 1.5, 1.7, 4.0, 0.0)):
    """A pair_iou row with the value at position replaced."""
    return (*row[:position], value, *row[position + 1 :])


class TestBoxArrays:
    """pair_iou's box rows hold what Box3D(center, dims, yaw) takes."""

    @given(st.floats(-1e9, 1e9))
    def test_yaw_is_normalized_like_box3d(self, angle):
        other = (0.5, 1.0, 0.3, 1.5, 1.7, 4.0, 0.2)
        for value in (angle, math.pi, -math.pi, 3 * math.pi, -7 * math.pi / 2):
            box = (0.0, 1.0, 0.0, 1.5, 1.7, 4.0, value)
            for kind, iou in (("bev", iou_bev), ("3d", iou_3d)):
                _, _, values = pair_iou(columns([box]), [0, 1], columns([other]), [0, 1], kind)
                assert values == [iou(box_of(box), box_of(other))]

    @given(boxes())
    def test_raw_rows_become_the_box3d_values(self, box):
        # Box3D normalizes its yaw once; raw rows are normalized once too.
        raw_yaw = box.yaw + 4 * math.pi
        rebuilt = Box3D(box.center, box.dims, raw_yaw)
        raw = (*box.center, *box.dims, raw_yaw)
        beside = Box3D((box.center[0] + 0.3, box.center[1], box.center[2] - 0.2), box.dims, 0.1)
        for kind, iou in (("bev", iou_bev), ("3d", iou_3d)):
            _, _, values = pair_iou(columns([raw]), [0, 1], columns([row(beside)]), [0, 1], kind)
            assert values == [iou(rebuilt, box_of(row(beside)))]

    @pytest.mark.parametrize(
        "row",
        [
            (0, 0, 0, 1.0, 0.0, 1.0, 0.0),
            (0, 0, 0, 1.0, 1.0, -1.0, 0.0),
            (0, 0, 0, 1, 1, 1, math.inf),
            *[
                pytest.param(replaced(p, v), id=f"{name}-{v}")
                for p, name in ((0, "x"), (1, "y"), (2, "z"), (4, "width"))
                for v in (math.nan, math.inf, -math.inf)
            ],
            pytest.param(replaced(6, math.nan), id="yaw-nan"),
        ],
    )
    def test_raw_rows_rejected_like_box3d(self, row):
        rule = "box dims must be positive" if all(map(math.isfinite, row)) else "box values must be finite"
        with pytest.raises(ValueError, match=rule):
            Box3D(row[:3], row[3:6], row[6])
        # Rows far along z from the rejected one: it is rejected before
        # any prune could leave it out.
        far = [(0.0, 1.5, z, 1.5, 1.7, 4.0, 0.0) for z in (5.0, 40.0, 80.0)]
        for det, gt in (([row], []), ([], [row]), ([row], far), (far, [row])):
            with pytest.raises(ValueError, match=rule):
                pair_iou(columns(det), [0, len(det)], columns(gt), [0, len(gt)], "bev")


FAR = [1e3, 1e7, 1e8, 1e10, 1e12, 1e200]
FAR_IOUS = {
    "pair_iou-bev": lambda a, b: pair_iou(columns([a]), [0, 1], columns([b]), [0, 1], "bev")[2],
    "pair_iou-3d": lambda a, b: pair_iou(columns([a]), [0, 1], columns([b]), [0, 1], "3d")[2],
    "iou_bev": lambda a, b: [iou_bev(box_of(a), box_of(b))],
    "iou_3d": lambda a, b: [iou_3d(box_of(a), box_of(b))],
}


def car(x, z):
    """A 4 m x 1.7 m car turned by 0.3 rad, as a pair_iou row."""
    return (x, 1.5, z, 1.5, 1.7, 4.0, 0.3)


class TestFarFromOrigin:
    """The clipper works on differences of centres, so an IoU does not
    depend on how far the pair is from the origin."""

    @pytest.mark.parametrize("name", list(FAR_IOUS))
    @pytest.mark.parametrize("far", FAR)
    def test_shifted_copy_gives_the_iou_at_the_origin(self, name, far):
        # The copy is shifted by the 0.5 m that far + 0.5 keeps: all of it
        # up to 1e12, none at 1e200.
        shift = (far + 0.5) - far
        iou = FAR_IOUS[name]
        expected = iou(car(0.0, 0.0), car(shift, 0.0))
        assert expected[0] == pytest.approx(0.672303287881404 if shift else 1.0, abs=1e-12)
        assert iou(car(far, far), car(far + 0.5, far)) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("name", list(FAR_IOUS))
    @pytest.mark.parametrize("far", FAR)
    def test_box_against_itself_gives_one(self, name, far):
        assert FAR_IOUS[name](car(far, far), car(far, far)) == [1.0]
