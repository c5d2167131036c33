"""Geometry: boxes, footprints, polygon clipping, IoU."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adathresh.geometry import (
    Box3D,
    Polygon2D,
    bev_polygon,
    ego_distance,
    iou_3d,
    iou_bev,
    iou_matrix,
    normalize_angle,
    polygon_intersection_area,
)
from helpers import make_box, mc_iou_bev

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
def overlapping_box_pairs(draw):
    a = draw(boxes(x=st.floats(-10.0, 10.0), z=st.floats(-10.0, 10.0)))
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
    def test_on_axis(self):
        assert ego_distance(make_box(0.0, 10.0, y=1.7)) == 10.0

    def test_three_four_five(self):
        assert ego_distance(make_box(3.0, 4.0, y=1.7)) == 5.0

    def test_origin(self):
        assert ego_distance(Box3D(center=(0, 0, 0), dims=(1, 1, 1), yaw=0)) == 0.0


class TestNormalizeAngle:
    @given(st.floats(-50.0, 50.0))
    def test_range_and_equivalence(self, angle):
        wrapped = normalize_angle(angle)
        assert -math.pi <= wrapped <= math.pi
        assert math.cos(wrapped) == pytest.approx(math.cos(angle), abs=1e-9)
        assert math.sin(wrapped) == pytest.approx(math.sin(angle), abs=1e-9)


class TestPolygon2D:
    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            Polygon2D(((0.0, 0.0), (1.0, 0.0)))

    def test_empty_polygon_has_zero_area(self):
        assert Polygon2D(()).area() == 0.0

    def test_ccw_square_area(self):
        square = Polygon2D(((0, 0), (1, 0), (1, 1), (0, 1)))
        assert square.signed_area() == pytest.approx(1.0)


class TestBevPolygon:
    def test_axis_aligned_unit_square(self):
        verts = set(bev_polygon(unit_box()).vertices)
        assert verts == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}

    def test_quarter_turn_swaps_width_and_length(self):
        flat = bev_polygon(make_box(0.0, 0.0, dims=(1.0, 1.0, 3.0), yaw=0.0))
        turned = bev_polygon(make_box(0.0, 0.0, dims=(1.0, 3.0, 1.0), yaw=math.pi / 2))
        rounded = lambda poly: {(round(x, 9), round(z, 9)) for x, z in poly.vertices}
        assert rounded(flat) == rounded(turned)

    def test_diagonal_unit_square_vertices_on_diagonals(self):
        poly = bev_polygon(unit_box(yaw=math.pi / 4))
        for x, z in poly.vertices:
            assert math.hypot(x, z) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    @given(boxes())
    def test_footprint_is_ccw_with_expected_area(self, box):
        poly = bev_polygon(box)
        assert poly.signed_area() > 0.0
        assert poly.area() == pytest.approx(box.width * box.length, rel=1e-9)


class TestPolygonIntersectionArea:
    def test_identical_unit_squares(self):
        a = bev_polygon(unit_box())
        b = bev_polygon(unit_box())
        assert polygon_intersection_area(a, b) == 1.0

    def test_disjoint(self):
        a = bev_polygon(unit_box())
        b = bev_polygon(unit_box(x=10.0))
        assert polygon_intersection_area(a, b) == 0.0

    def test_half_offset_rectangle_overlap(self):
        a = bev_polygon(unit_box())
        b = bev_polygon(unit_box(x=0.5))
        assert polygon_intersection_area(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_edge_touching_counts_as_empty(self):
        a = bev_polygon(unit_box())
        b = bev_polygon(unit_box(x=1.0))
        assert polygon_intersection_area(a, b) == 0.0

    @given(overlapping_box_pairs())
    def test_symmetric_exactly(self, pair):
        a, b = pair
        pa, pb = bev_polygon(a), bev_polygon(b)
        assert polygon_intersection_area(pa, pb) == polygon_intersection_area(pb, pa)

    @given(overlapping_box_pairs())
    def test_bounded_by_smaller_area(self, pair):
        a, b = pair
        pa, pb = bev_polygon(a), bev_polygon(b)
        inter = polygon_intersection_area(pa, pb)
        assert 0.0 <= inter <= min(pa.area(), pb.area()) + 1e-9


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
    box, or placed so that the two bounding circles (nearly) touch."""
    near = st.floats(-6.0, 6.0)
    gt = draw(st.lists(boxes(x=near, z=near), max_size=5))
    det = []
    for kind in draw(st.lists(st.sampled_from(["random", "coincident", "tangent"]), max_size=6)):
        if kind == "random" or not gt:
            det.append(draw(boxes(x=near, z=near)))
            continue
        g = draw(st.sampled_from(gt))
        if kind == "coincident":
            det.append(Box3D(g.center, g.dims, g.yaw))
            continue
        dims, yaw = draw(box_dims), draw(yaws)
        angle = draw(st.floats(-math.pi, math.pi))
        stretch = draw(st.sampled_from([1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 2e-9]))
        reach = stretch * (_radius(g) + 0.5 * math.hypot(dims[1], dims[2]))
        x = g.center[0] + reach * math.cos(angle)
        z = g.center[2] + reach * math.sin(angle)
        det.append(Box3D((x, g.center[1], z), dims, yaw))
    return gt, det


def scalar_matrix(gt, det, iou):
    return [[iou(d, g) for g in gt] for d in det]


class TestIouMatrix:
    @pytest.mark.parametrize("kind, iou", [("bev", iou_bev), ("3d", iou_3d)])
    @given(frame=box_frames())
    def test_equals_scalar_iou_exactly(self, kind, iou, frame):
        gt, det = frame
        matrix = iou_matrix(gt, det, kind)
        assert matrix.shape == (len(det), len(gt))
        fresh = [Box3D(b.center, b.dims, b.yaw) for b in gt]
        assert matrix.tolist() == scalar_matrix(fresh, det, iou)

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
            matrix = iou_matrix([g], [d], "bev")
            assert matrix.tolist() == [[iou_bev(d, g)]]
            assert (matrix[0, 0] > 0.0) == (overlap > 0.0)

    @pytest.mark.parametrize("kind", ["bev", "3d"])
    def test_empty_lists(self, kind):
        some = [unit_box(), unit_box(0.5)]
        assert iou_matrix([], some, kind).shape == (2, 0)
        assert iou_matrix(some, [], kind).shape == (0, 2)
        assert iou_matrix([], [], kind).shape == (0, 0)

    def test_disjoint_pairs_skip_the_clipper(self, monkeypatch):
        import adathresh.geometry as geometry

        calls = []

        def counting(a, b):
            calls.append((a, b))
            return iou_bev(a, b)

        monkeypatch.setattr(geometry, "iou_bev", counting)
        gt = [make_box(0.0, 10.0), make_box(0.0, 30.0)]
        det = [make_box(0.2, 10.0), make_box(0.0, 50.0)]
        matrix = iou_matrix(gt, det, "bev")
        assert [(det.index(d), gt.index(g)) for d, g in calls] == [(0, 0)]
        assert matrix[0, 0] == iou_bev(det[0], gt[0]) > 0.0
        assert np.count_nonzero(matrix) == 1

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            iou_matrix([unit_box()], [unit_box()], "2d")
