"""Oriented 3D boxes and rotated-rectangle IoU.

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


def box_array(boxes: Sequence[Box3D]) -> np.ndarray:
    """[n, 7] array of x, y, z, height, width, length, yaw, one row per box."""
    return np.array([(*b.center, *b.dims, b.yaw) for b in boxes], dtype=float).reshape(-1, 7)


def normalize_angles(angles: np.ndarray) -> np.ndarray:
    """normalize_angle of every element, bit for bit (fmod is exact)."""
    wrapped = np.fmod(angles + math.pi, 2.0 * math.pi)
    wrapped = np.where(wrapped < 0.0, wrapped + 2.0 * math.pi, wrapped)
    return wrapped - math.pi


def raw_box_array(rows: np.ndarray) -> np.ndarray:
    """box_array of Box3D(center, dims, yaw) for rows of x, y, z, h, w, l, yaw.

    The yaw is normalized once, as Box3D does, and dims must be positive.
    normalize_angle is not idempotent to the last bit, so rows that come
    from Box3D objects go through box_array instead.
    """
    rows = np.array(rows, dtype=float).reshape(-1, 7)
    if np.isinf(rows[:, 6]).any():
        raise ValueError("box yaw must not be infinite")
    if (rows[:, 3:6] <= 0.0).any():
        raise ValueError("box dims must be positive")
    rows[:, 6] = normalize_angles(rows[:, 6])
    return rows


def pair_iou(
    det: np.ndarray,
    det_offsets: Sequence[int] | np.ndarray,
    gt: np.ndarray,
    gt_offsets: Sequence[int] | np.ndarray,
    kind: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """IoU of every same-frame (detection, ground truth) pair the prune keeps.

    det and gt are box arrays (box_array, raw_box_array); frame f holds
    det rows det_offsets[f]:det_offsets[f + 1] and gt rows likewise.
    Returns (det_idx, gt_idx, iou) in frame, detection, ground-truth
    order. A pair whose footprints' bounding circles (radius half the
    footprint diagonal) are provably apart is left out: its IoU is 0.
    Every other pair is clipped in one batch that repeats the scalar
    clipper's arithmetic, so each iou equals iou_bev or iou_3d of the
    pair bit for bit. Non-finite inputs are never pruned.
    """
    _check_kind(kind)
    det_idx, gt_idx = _same_frame_pairs(np.asarray(det_offsets), np.asarray(gt_offsets))
    near = ~_apart(det, gt, det_idx, gt_idx)
    det_idx, gt_idx = det_idx[near], gt_idx[near]
    if not len(det_idx):
        return det_idx, gt_idx, np.zeros(0)
    det_fp, det_area = _footprints(det)
    gt_fp, gt_area = _footprints(gt)
    inter = _intersection_areas(det_fp[det_idx], gt_fp[gt_idx])
    area_a, area_b = det_area[det_idx], gt_area[gt_idx]
    with np.errstate(all="ignore"):
        if kind == "bev":
            inter_all, union = inter, area_a + area_b - inter
            empty = inter <= 0.0
        else:
            ya, yb = det[det_idx, 1], gt[gt_idx, 1]
            low_a, low_b = ya - det[det_idx, 3], yb - gt[gt_idx, 3]
            # min(ya, yb) - max(low_a, low_b), with Python's NaN handling.
            overlap = np.where(yb < ya, yb, ya) - np.where(low_b > low_a, low_b, low_a)
            inter_all = inter * overlap
            union = area_a * det[det_idx, 3] + area_b * gt[gt_idx, 3] - inter_all
            empty = (inter <= 0.0) | (overlap <= 0.0)
        ratio = inter_all / union
        iou = np.where(empty | (union <= 0.0), 0.0, np.where(1.0 < ratio, 1.0, ratio))
    return det_idx, gt_idx, iou


def _check_kind(kind: str) -> None:
    if kind not in ("bev", "3d"):
        raise ValueError(f"kind must be 'bev' or '3d', got {kind!r}")


def _same_frame_pairs(
    det_offsets: np.ndarray, gt_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(det_idx, gt_idx) of every same-frame pair, frame by frame, row-major."""
    n_gt = np.diff(gt_offsets)
    counts = np.diff(det_offsets) * n_gt
    frame = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    per_frame = n_gt[frame]
    return det_offsets[frame] + k // per_frame, gt_offsets[frame] + k % per_frame


def _apart(det: np.ndarray, gt: np.ndarray, det_idx: np.ndarray, gt_idx: np.ndarray) -> np.ndarray:
    """True where a pair's footprints' bounding circles are provably apart."""
    reach = (
        0.5 * np.hypot(det[:, 4], det[:, 5])[det_idx] + 0.5 * np.hypot(gt[:, 4], gt[:, 5])[gt_idx]
    )
    dx = det[det_idx, 0] - gt[gt_idx, 0]
    dz = det[det_idx, 2] - gt[gt_idx, 2]
    gap = np.hypot(dx, dz) - reach
    scale = reach + np.hypot(det[:, 0], det[:, 2])[det_idx] + np.hypot(gt[:, 0], gt[:, 2])[gt_idx]
    return gap > _PRUNE_SLACK * scale


def _footprints(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """bev_polygon vertices [n, 4, 2] and footprint area [n] of each box."""
    yaw = boxes[:, 6].tolist()
    # libm, as bev_polygon uses: numpy's vectorized cos/sin may differ.
    c = np.array(list(map(math.cos, yaw)))[:, None]
    s = np.array(list(map(math.sin, yaw)))[:, None]
    hu = 0.5 * boxes[:, 5]
    hv = 0.5 * boxes[:, 4]
    u = np.stack([hu, -hu, -hu, hu], axis=1)
    v = np.stack([hv, hv, -hv, -hv], axis=1)
    x = boxes[:, 0:1] + u * c + v * s
    z = boxes[:, 2:3] - u * s + v * c
    verts = np.stack([x, z], axis=2)
    area = np.abs(0.5 * np.array(_fsum_rows(np.roll(x, 1, axis=1) * z - x * np.roll(z, 1, axis=1))))
    return verts, area


def _fsum_rows(terms: np.ndarray) -> list[float]:
    return list(map(math.fsum, terms.tolist()))


def _intersection_areas(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """polygon_intersection_area of each pair of [P, 4, 2] footprints.

    The batch repeats the scalar steps: the lexicographic swap, four
    Sutherland-Hodgman clips over padded vertex arrays, the shoelace
    area as an exactly rounded fsum, and the degenerate-area cut.
    """
    n_pairs = len(a)
    flat_a, flat_b = a.reshape(n_pairs, -1), b.reshape(n_pairs, -1)
    differ = flat_a != flat_b
    first = differ.argmax(axis=1)
    rows = np.arange(n_pairs)
    swap = differ[rows, first] & (flat_b[rows, first] < flat_a[rows, first])
    subject = np.where(swap[:, None, None], b, a)
    clip = np.where(swap[:, None, None], a, b)
    x, z = subject[:, :, 0], subject[:, :, 1]
    count = np.full(n_pairs, subject.shape[1])
    with np.errstate(all="ignore"):
        for i in range(clip.shape[1]):
            x, z, count = _clip_to_halfplanes(x, z, count, clip[:, i - 1], clip[:, i])
    terms = _previous(x, count) * z - x * _previous(z, count)
    terms[~(np.arange(x.shape[1]) < count[:, None])] = 0.0
    area = np.zeros(n_pairs)
    full = np.nonzero(count >= 3)[0]
    area[full] = 0.5 * np.array(_fsum_rows(terms[full]))
    area[area < _DEGENERATE_AREA] = 0.0
    return area


def _previous(values: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each vertex's predecessor's value in polygons of `count` vertices
    (padded rows: the first vertex follows the last one)."""
    out = np.empty_like(values)
    out[:, 1:] = values[:, :-1]
    if values.shape[1]:
        out[:, 0] = values[np.arange(len(values)), np.maximum(count - 1, 0)]
    return out


def _clip_to_halfplanes(
    x: np.ndarray, z: np.ndarray, count: np.ndarray, p: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_clip_to_halfplane of every polygon [P, width] (count vertices each)
    by its own directed edge p -> q; returns the clipped polygons."""
    px, pz = p[:, 0:1], p[:, 1:2]
    ex = q[:, 0:1] - px
    ez = q[:, 1:2] - pz
    side = ex * (z - pz) - ez * (x - px)
    side_prev = _previous(side, count)
    present = np.arange(x.shape[1]) < count[:, None]
    inside = side >= 0.0
    cross = (inside & (side_prev < 0.0) | ~inside & (side_prev >= 0.0)) & present
    keep = inside & present
    # Vertex j emits its crossing point, if any, then itself, if kept.
    emitted = cross.astype(np.int64) + keep
    cross_slot = np.cumsum(emitted, axis=1) - emitted
    new_count = emitted.sum(axis=1)
    width = int(new_count.max()) if len(new_count) else 0
    out_x = np.zeros((len(x), width))
    out_z = np.zeros((len(x), width))
    rows, cols = np.nonzero(keep)
    slots = cross_slot[rows, cols] + cross[rows, cols]
    out_x[rows, slots] = x[rows, cols]
    out_z[rows, slots] = z[rows, cols]
    rows, cols = np.nonzero(cross)
    prev = np.where(cols == 0, count[rows] - 1, cols - 1)
    side_a, side_b = side[rows, prev], side[rows, cols]
    t = side_a / (side_a - side_b)
    ax, az = x[rows, prev], z[rows, prev]
    out_x[rows, cross_slot[rows, cols]] = ax + t * (x[rows, cols] - ax)
    out_z[rows, cross_slot[rows, cols]] = az + t * (z[rows, cols] - az)
    return out_x, out_z, new_count
