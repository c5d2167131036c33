"""Oriented 3D boxes and rotated-rectangle IoU.

Coordinates follow the KITTI camera frame: x right, y down, z forward.
The ground plane is (x, z). A box ``center`` sits at the middle of its
bottom face, so the box spans [y - height, y] vertically (y grows
downward).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

from .bin_stats import Record

# Intersection areas below this are noise from collinear clipping edges.
_DEGENERATE_AREA = 1e-12

# pair_iou skips a pair only when its footprints' bounding circles are
# apart by more than this fraction of the pair's combined radii and centre
# magnitudes, far above the rounding of the footprint vertices.
_PRUNE_SLACK = 1e-9


def normalize_angle(angle: float) -> float:
    """Wrap an angle to [-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped < 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


class Box3D(Record):
    """Oriented box: center (x, y, z), dims (height, width, length), yaw.

    yaw rotates the footprint about the (downward) y axis and is
    normalized to [-pi, pi] at construction. All dims must be positive.
    """

    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    yaw: float

    def __post_init__(self) -> None:
        center = tuple(float(v) for v in self.center)
        dims = tuple(float(v) for v in self.dims)
        if len(center) != 3 or len(dims) != 3:
            raise ValueError("center and dims must each have three components")
        if min(dims) <= 0.0:
            raise ValueError(f"box dims must be positive, got {dims}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "yaw", normalize_angle(float(self.yaw)))

    @property
    def height(self) -> float:
        return self.dims[0]

    @property
    def width(self) -> float:
        return self.dims[1]

    @property
    def length(self) -> float:
        return self.dims[2]

    @cached_property
    def footprint(self) -> Polygon2D:
        """bev_polygon(self), built once per box."""
        return bev_polygon(self)

    @cached_property
    def footprint_area(self) -> float:
        """Area of the footprint, computed once per box."""
        return self.footprint.area()


class Polygon2D(Record):
    """Convex ground-plane polygon; vertices are (x, z) in CCW order.

    Empty polygons (no vertices) are allowed and have zero area.
    """

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        verts = tuple((float(x), float(z)) for x, z in self.vertices)
        if 0 < len(verts) < 3:
            raise ValueError("a nonempty polygon needs at least 3 vertices")
        object.__setattr__(self, "vertices", verts)

    def signed_area(self) -> float:
        return _signed_area(self.vertices)

    def area(self) -> float:
        return abs(self.signed_area())


def _signed_area(verts: Sequence[tuple[float, float]]) -> float:
    if len(verts) < 3:
        return 0.0
    px, pz = verts[-1]
    terms = []
    for x, z in verts:
        terms.append(px * z - x * pz)
        px, pz = x, z
    return 0.5 * math.fsum(terms)


def bev_polygon(box: Box3D) -> Polygon2D:
    """Ground-plane footprint of a box: four vertices, CCW.

    Length runs along the box's local x axis and width along local z;
    the local frame is rotated by yaw about the downward y axis, so the
    in-plane rotation matrix is [[cos, sin], [-sin, cos]].
    """
    _, w, l = box.dims
    return Polygon2D(_corners(box.center[0], box.center[2], w, l, box.yaw))


def _corners(
    cx: float, cz: float, w: float, l: float, yaw: float
) -> tuple[tuple[float, float], ...]:
    """The footprint's vertices (cx + u cos + v sin, cz - u sin + v cos)
    for (u, v) = (l/2, w/2), (-l/2, w/2), (-l/2, -w/2), (l/2, -w/2)."""
    c = math.cos(yaw)
    s = math.sin(yaw)
    hu = 0.5 * l
    hv = 0.5 * w
    # Negating a factor negates the product exactly, so each vertex is
    # the sum above with its signs folded in.
    uc, us, vc, vs = hu * c, hu * s, hv * c, hv * s
    return (
        (cx + uc + vs, cz - us + vc),
        (cx - uc + vs, cz + us + vc),
        (cx - uc - vs, cz + us - vc),
        (cx + uc - vs, cz - us - vc),
    )


def polygon_intersection_area(a: Polygon2D, b: Polygon2D) -> float:
    """Area of the intersection of two convex CCW polygons.

    Sutherland-Hodgman clipping followed by the shoelace formula. The
    argument order is canonicalized first so both call orders run the
    same arithmetic and the result is exactly symmetric.
    """
    return _intersection_area(a.vertices, b.vertices)


def _intersection_area(
    va: tuple[tuple[float, float], ...], vb: tuple[tuple[float, float], ...]
) -> float:
    """polygon_intersection_area of two polygons' vertex tuples."""
    if len(va) < 3 or len(vb) < 3:
        return 0.0
    if vb < va:
        va, vb = vb, va
    clipped = list(va)
    for i in range(len(vb)):
        if not clipped:
            return 0.0
        clipped = _clip_to_halfplane(clipped, vb[i - 1], vb[i])
    if len(clipped) < 3:
        return 0.0
    area = _signed_area(clipped)
    if area < _DEGENERATE_AREA:
        return 0.0
    return area


def _clip_to_halfplane(
    poly: list[tuple[float, float]],
    p: tuple[float, float],
    q: tuple[float, float],
) -> list[tuple[float, float]]:
    """Keep the part of poly left of the directed edge p->q (inside, for CCW)."""
    px, pz = p
    ex = q[0] - px
    ez = q[1] - pz
    out: list[tuple[float, float]] = []
    prev = poly[-1]
    side_prev = ex * (prev[1] - pz) - ez * (prev[0] - px)
    for cur in poly:
        side_cur = ex * (cur[1] - pz) - ez * (cur[0] - px)
        if side_cur >= 0.0:
            if side_prev < 0.0:
                out.append(_edge_point(prev, cur, side_prev, side_cur))
            out.append(cur)
        elif side_prev >= 0.0:
            out.append(_edge_point(prev, cur, side_prev, side_cur))
        prev, side_prev = cur, side_cur
    return out


def _edge_point(
    a: tuple[float, float],
    b: tuple[float, float],
    side_a: float,
    side_b: float,
) -> tuple[float, float]:
    # side_a and side_b have opposite signs, so the denominator is nonzero.
    t = side_a / (side_a - side_b)
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Bird's-eye-view IoU of two boxes, in [0, 1]."""
    return _iou("bev", polygon_intersection_area(a.footprint, b.footprint), _extent(a), _extent(b))


def iou_3d(a: Box3D, b: Box3D) -> float:
    """3D IoU of two boxes whose vertical extent is [y - h, y]."""
    return _iou("3d", polygon_intersection_area(a.footprint, b.footprint), _extent(a), _extent(b))


def _extent(box: Box3D) -> tuple[float, float, float]:
    """A box's footprint area, bottom y and height."""
    return box.footprint_area, box.center[1], box.height


def _iou(kind: str, inter: float, a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    """The IoU of two boxes from their footprints' intersection and each
    one's _extent: over footprints for 'bev', over volumes for '3d'."""
    if inter <= 0.0:
        return 0.0
    (area_a, ya, ha), (area_b, yb, hb) = a, b
    if kind == "3d":
        overlap = min(ya, yb) - max(ya - ha, yb - hb)
        if overlap <= 0.0:
            return 0.0
        inter, area_a, area_b = inter * overlap, area_a * ha, area_b * hb
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return min(inter / union, 1.0)


def pair_iou(
    det: Sequence[Sequence[float]],
    det_offsets: Sequence[int],
    gt: Sequence[Sequence[float]],
    gt_offsets: Sequence[int],
    kind: str,
) -> tuple[list[int], list[int], list[float]]:
    """IoU of every same-frame (detection, ground truth) pair the prune keeps.

    det and gt hold one (x, y, z, height, width, length, yaw) row per
    box, the values Box3D(center, dims, yaw) takes: dims must be
    positive, the yaw not infinite, and the yaw is normalized once.
    Frame f holds det rows det_offsets[f]:det_offsets[f + 1] and gt rows
    likewise. Returns (det_idx, gt_idx, iou) in frame, detection,
    ground-truth order. A pair whose footprints' bounding circles
    (radius half the footprint diagonal) are provably apart is left out:
    its IoU is 0. Every other pair goes through the scalar clipper, so
    each iou equals iou_bev or iou_3d of the pair bit for bit.
    Non-finite inputs are never pruned.
    """
    if kind not in ("bev", "3d"):
        raise ValueError(f"kind must be 'bev' or '3d', got {kind!r}")
    det_circles, gt_circles = _circles(det), _circles(gt)
    det_idx: list[int] = []
    gt_idx: list[int] = []
    iou: list[float] = []
    for d0, d1, g0, g1 in zip(det_offsets, det_offsets[1:], gt_offsets, gt_offsets[1:]):
        frame_gt = [(g, *gt_circles[g]) for g in range(g0, g1)]
        start = len(det_idx)
        for d in range(d0, d1):
            dx, dz, dr, dm = det_circles[d]
            for g, gx, gz, gr, gm in frame_gt:
                reach = dr + gr
                # Not "<=": a pair whose test involves a NaN is kept.
                if not math.hypot(dx - gx, dz - gz) - reach > _PRUNE_SLACK * (reach + dm + gm):
                    det_idx.append(d)
                    gt_idx.append(g)
        # Footprints live for one frame, which keeps the heap (and the
        # garbage collector's passes over it) small.
        det_fp = {d: _footprint(det[d]) for d in set(det_idx[start:])}
        gt_fp = {g: _footprint(gt[g]) for g in set(gt_idx[start:])}
        for d, g in zip(det_idx[start:], gt_idx[start:]):
            (va, a), (vb, b) = det_fp[d], gt_fp[g]
            iou.append(_iou(kind, _intersection_area(va, vb), a, b))
    return det_idx, gt_idx, iou


def _circles(rows: Sequence[Sequence[float]]) -> list[tuple[float, float, float, float]]:
    """Each box's footprint bounding circle: x, z, radius (half the
    footprint diagonal) and the centre's distance from the origin.
    ValueError for the rows Box3D rejects."""
    out = []
    for x, _, z, h, w, l, yaw in rows:
        if math.isinf(yaw):
            raise ValueError("box yaw must not be infinite")
        if h <= 0.0 or w <= 0.0 or l <= 0.0:
            raise ValueError("box dims must be positive")
        out.append((x, z, 0.5 * math.hypot(w, l), math.hypot(x, z)))
    return out


def _footprint(
    row: Sequence[float],
) -> tuple[tuple[tuple[float, float], ...], tuple[float, float, float]]:
    """A box row's footprint vertices and _extent, as Box3D(center, dims,
    yaw) holds the row: floats, the yaw normalized once."""
    x, y, z, h, w, l, yaw = map(float, row)
    verts = _corners(x, z, w, l, normalize_angle(yaw))
    return verts, (abs(_signed_area(verts)), y, h)
