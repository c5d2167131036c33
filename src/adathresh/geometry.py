"""Oriented 3D boxes, ego distance, and rotated-rectangle IoU.

Coordinates follow the KITTI camera frame: x right, y down, z forward.
The ground plane is (x, z). A box ``center`` sits at the middle of its
bottom face, so the box spans [y - height, y] vertically (y grows
downward).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# Intersection areas below this are noise from collinear clipping edges.
_DEGENERATE_AREA = 1e-12

# iou_matrix skips a pair only when its footprints' bounding circles are
# apart by more than this fraction of the pair's combined radii and centre
# magnitudes, far above the rounding of the footprint vertices.
_PRUNE_SLACK = 1e-9


def ground_distance(x: float, z: float) -> float:
    """Horizontal distance from the ego vehicle to a ground-plane point."""
    return math.hypot(x, z)


def normalize_angle(angle: float) -> float:
    """Wrap an angle to [-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped < 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class Box3D:
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


def ego_distance(box: Box3D) -> float:
    """Ground-plane distance from the ego origin to the box center."""
    return ground_distance(box.center[0], box.center[2])


@dataclass(frozen=True)
class Polygon2D:
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


def _signed_area(verts: tuple[tuple[float, float], ...]) -> float:
    if len(verts) < 3:
        return 0.0
    return 0.5 * math.fsum(
        verts[i - 1][0] * verts[i][1] - verts[i][0] * verts[i - 1][1]
        for i in range(len(verts))
    )


def bev_polygon(box: Box3D) -> Polygon2D:
    """Ground-plane footprint of a box: four vertices, CCW.

    Length runs along the box's local x axis and width along local z;
    the local frame is rotated by yaw about the downward y axis, so the
    in-plane rotation matrix is [[cos, sin], [-sin, cos]].
    """
    _, w, l = box.dims
    cx, _, cz = box.center
    c = math.cos(box.yaw)
    s = math.sin(box.yaw)
    hu = 0.5 * l
    hv = 0.5 * w
    local = ((hu, hv), (-hu, hv), (-hu, -hv), (hu, -hv))
    verts = tuple((cx + u * c + v * s, cz - u * s + v * c) for u, v in local)
    return Polygon2D(verts)


def polygon_intersection_area(a: Polygon2D, b: Polygon2D) -> float:
    """Area of the intersection of two convex CCW polygons.

    Sutherland-Hodgman clipping followed by the shoelace formula. The
    argument order is canonicalized first so both call orders run the
    same arithmetic and the result is exactly symmetric.
    """
    va, vb = a.vertices, b.vertices
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
    area = _signed_area(tuple(clipped))
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
    inter = polygon_intersection_area(a.footprint, b.footprint)
    if inter <= 0.0:
        return 0.0
    union = a.footprint_area + b.footprint_area - inter
    if union <= 0.0:
        return 0.0
    return min(inter / union, 1.0)


def iou_3d(a: Box3D, b: Box3D) -> float:
    """3D IoU of two boxes whose vertical extent is [y - h, y]."""
    inter_bev = polygon_intersection_area(a.footprint, b.footprint)
    if inter_bev <= 0.0:
        return 0.0
    ya = a.center[1]
    yb = b.center[1]
    overlap = min(ya, yb) - max(ya - a.dims[0], yb - b.dims[0])
    if overlap <= 0.0:
        return 0.0
    inter_vol = inter_bev * overlap
    vol_a = a.footprint_area * a.dims[0]
    vol_b = b.footprint_area * b.dims[0]
    union = vol_a + vol_b - inter_vol
    if union <= 0.0:
        return 0.0
    return min(inter_vol / union, 1.0)


def iou_matrix(gt: Sequence[Box3D], det: Sequence[Box3D], kind: str) -> np.ndarray:
    """IoU of every detection with every ground-truth box, shape [n_det, n_gt].

    kind is "bev" or "3d". A pair whose footprints' bounding circles
    (radius half the footprint diagonal) are provably apart is 0 without
    clipping; every other pair is iou_bev or iou_3d of (det, gt), so each
    entry equals the scalar IoU bit for bit. Non-finite inputs are never
    pruned. Footprints and their areas are built once per box.
    """
    if kind not in ("bev", "3d"):
        raise ValueError(f"kind must be 'bev' or '3d', got {kind!r}")
    out = np.zeros((len(det), len(gt)))
    if not gt or not det:
        return out
    iou = iou_bev if kind == "bev" else iou_3d
    g = np.array([(b.center[0], b.center[2], b.width, b.length) for b in gt])
    d = np.array([(b.center[0], b.center[2], b.width, b.length) for b in det])
    reach = 0.5 * np.hypot(d[:, 2], d[:, 3])[:, None] + 0.5 * np.hypot(g[:, 2], g[:, 3])
    gap = np.hypot(d[:, 0, None] - g[:, 0], d[:, 1, None] - g[:, 1]) - reach
    scale = reach + np.hypot(d[:, 0], d[:, 1])[:, None] + np.hypot(g[:, 0], g[:, 1])
    rows, cols = np.nonzero(~(gap > _PRUNE_SLACK * scale))
    out[rows, cols] = [iou(det[r], gt[c]) for r, c in zip(rows.tolist(), cols.tolist())]
    return out
