"""Oriented 3D boxes and rotated-rectangle IoU.

Coordinates follow the KITTI camera frame: x right, y down, z forward.
The ground plane is (x, z). A box ``center`` sits at the middle of its
bottom face, so the box spans [y - height, y] vertically (y grows
downward).

A box's frame, (x, z, cos yaw, sin yaw, length / 2, width / 2, yaw)
with the yaw normalized by normalize_angle, is all the clipper needs:
in its own frame the box's footprint is the axis-aligned rectangle
|u| <= length / 2, |v| <= width / 2. _clip_area takes the box of the
smaller frame tuple, turns the other box's four corners into its frame
and cuts them by that rectangle, one comparison per vertex and side.
It works on differences of centres, so its rounding error is bounded
by the boxes' size, not by their distance from the origin: a box
against itself gives IoU exactly 1 anywhere. A footprint's area is
width * length. Box3D's footprint, iou_bev, iou_3d and the kernel
pair_iou all go through _frame and _clip_area, so every pair_iou value
equals the scalar IoU bit for bit.

pair_iou takes each side as seven columns (x, y, z, height, width,
length, yaw) with frame offsets. It sorts each frame's ground truth by
z once and runs the bounding-circle test only on the rows in a z window
around each detection, wide enough to hold every pair the test keeps.
A box with a value that is not finite (NaN or an infinity) or a dim
that is not positive is a ValueError, in Box3D and in pair_iou alike.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import chain
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
    normalized to [-pi, pi] at construction. Every value must be finite
    and every dim positive.
    """

    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    yaw: float

    def __post_init__(self) -> None:
        center = tuple(float(v) for v in self.center)
        dims = tuple(float(v) for v in self.dims)
        if len(center) != 3 or len(dims) != 3:
            raise ValueError("center and dims must each have three components")
        yaw = float(self.yaw)
        _circles([[v] for v in (*center, *dims, yaw)])  # the checks pair_iou makes of each row
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "yaw", normalize_angle(yaw))

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
    def _shape(self) -> tuple[tuple[float, ...], tuple[float, float, float]]:
        """_frame of the box, built once per box."""
        return _frame(*self.center, *self.dims, self.yaw)

    @cached_property
    def footprint(self) -> tuple[tuple[float, float], ...]:
        """The footprint's four (x, z) vertices, CCW.

        Length runs along the box's local u axis and width along local v;
        the local frame is rotated by yaw about the downward y axis, so the
        vertices are (x + u cos + v sin, z - u sin + v cos) for (u, v) =
        (l/2, w/2), (-l/2, w/2), (-l/2, -w/2), (l/2, -w/2).
        """
        x, z, c, s, hu, hv, _ = self._shape[0]
        uc, us, vc, vs = hu * c, hu * s, hv * c, hv * s
        return (x + uc + vs, z - us + vc), (x - uc + vs, z + us + vc), (x - uc - vs, z + us - vc), (x + uc - vs, z - us - vc)

    @property
    def footprint_area(self) -> float:
        """The footprint's area, width * length."""
        return self._shape[1][0]


def _frame(
    x: float, y: float, z: float, h: float, w: float, l: float, yaw: float
) -> tuple[tuple[float, ...], tuple[float, float, float]]:
    """A box's frame and its extent (footprint area w * l, bottom y,
    height), from its values as Box3D holds them: floats, the yaw
    already normalized."""
    return (x, z, math.cos(yaw), math.sin(yaw), 0.5 * l, 0.5 * w, yaw), (w * l, y, h)


def _clip_area(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    """Area of the intersection of two boxes' footprints, given as frames.

    The box of the smaller frame tuple is the canonical one, so both
    call orders run the same arithmetic and the result is exactly
    symmetric. The other box's corners, CCW, are expressed in its frame
    (u along its length, v along its width) and clipped to |u| <= l/2,
    |v| <= w/2 in four passes. Each pass keeps u <= h, then turns the
    polygon a quarter turn, (u, v) -> (v, -u), so that the next pass
    cuts the next side; the fourth turn brings the polygon back. The
    shoelace area of what is left follows.
    """
    if b < a:
        a, b = b, a
    ax, az, ac, as_, al, aw, ayaw = a
    bx, bz, _, _, bl, bw, byaw = b
    dx = bx - ax
    dz = bz - az
    u = dx * ac - dz * as_
    v = dx * as_ + dz * ac
    turn = byaw - ayaw
    c = math.cos(turn)
    s = math.sin(turn)
    # Negating a factor negates the product exactly, so each corner is
    # Box3D.footprint's sum with its signs folded in.
    uc, us, vc, vs = bl * c, bl * s, bw * c, bw * s
    poly = [(u + uc + vs, v - us + vc), (u - uc + vs, v + us + vc), (u - uc - vs, v + us - vc), (u + uc - vs, v - us - vc)]
    for h in (al, aw, al, aw):
        out = []
        pu, pv = poly[-1]
        for qu, qv in poly:
            if qu <= h:
                if pu > h:
                    # pu and qu lie on either side of h, so qu - pu is nonzero.
                    out.append((pv + (h - pu) / (qu - pu) * (qv - pv), -h))
                out.append((qv, -qu))
            elif pu <= h:
                out.append((pv + (h - pu) / (qu - pu) * (qv - pv), -h))
            pu, pv = qu, qv
        if not out:
            return 0.0
        poly = out
    pu, pv = poly[-1]
    terms = []
    for qu, qv in poly:
        terms.append(pu * qv - qu * pv)
        pu, pv = qu, qv
    area = 0.5 * math.fsum(terms)
    if area < _DEGENERATE_AREA:
        return 0.0
    return area


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Bird's-eye-view IoU of two boxes, in [0, 1]."""
    return _iou("bev", _clip_area(a._shape[0], b._shape[0]), a._shape[1], b._shape[1])


def iou_3d(a: Box3D, b: Box3D) -> float:
    """3D IoU of two boxes whose vertical extent is [y - h, y]."""
    return _iou("3d", _clip_area(a._shape[0], b._shape[0]), a._shape[1], b._shape[1])


def _iou(kind: str, inter: float, a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    """The IoU of two boxes from their footprints' intersection and each
    one's extent (footprint area, bottom y, height): over footprints for
    'bev', over volumes for '3d'."""
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

    det and gt each hold seven columns of floats, x, y, z, height,
    width, length and yaw, one value per box: the values
    Box3D(center, dims, yaw) holds, every value finite, dims positive;
    the yaw is normalized once. Frame f holds det rows det_offsets[f]:det_offsets[f + 1] and
    gt rows likewise. Returns (det_idx, gt_idx, iou) in frame, detection,
    ground-truth order. A pair whose footprints' bounding circles (radius
    half the footprint diagonal) are provably apart is left out: its IoU
    is 0. Every other pair goes through the one clipper, so each iou
    equals iou_bev or iou_3d of the pair bit for bit.

    The circle test runs only on the frame's ground truth whose z lies
    within a window of the detection's z: the largest reach the test
    can keep, with its slack doubled, so the window holds every pair
    the test keeps. A window whose half-width overflows to inf spans
    the whole frame. A row's frame is built once, when it first reaches
    the clipper, and is dropped when its frame is done.
    """
    if kind not in ("bev", "3d"):
        raise ValueError(f"kind must be 'bev' or '3d', got {kind!r}")
    hypot, clip = math.hypot, _clip_area
    det_x, det_z, det_r, det_m = _circles(det)
    gt_x, gt_z, gt_r, gt_m = _circles(gt)
    # The windows use the largest radius and centre distance over all
    # ground truth, not the frame's, which only widens them.
    max_gr = max(gt_r, default=0.0)
    max_gm = max(gt_m, default=0.0)
    det_idx: list[int] = []
    gt_idx: list[int] = []
    iou: list[float] = []
    for d0, d1, g0, g1 in zip(det_offsets, det_offsets[1:], gt_offsets, gt_offsets[1:]):
        if d0 == d1 or g0 == g1:
            continue
        by_z = sorted(range(g0, g1), key=gt_z.__getitem__)
        zs = list(map(gt_z.__getitem__, by_z))
        # Frames live for one frame of boxes, which keeps the heap (and
        # the garbage collector's passes over it) small.
        gt_frames = {}
        for d in range(d0, d1):
            dx, dz, dr, dm = det_x[d], det_z[d], det_r[d], det_m[d]
            # Twice the test's slack, and 2e-9 m more for rounding near
            # zero: a z gap the test can keep lies far inside.
            reach = dr + max_gr
            half = reach + 2.0 * _PRUNE_SLACK * (reach + dm + max_gm + 1.0)
            candidates = by_z[bisect_left(zs, dz - half) : bisect_right(zs, dz + half)]
            candidates.sort()
            frame = None
            for g in candidates:
                reach = dr + gt_r[g]
                # Not "<=": a pair whose test involves a NaN (an inf - inf
                # of overflowed terms) is kept.
                if not hypot(dx - gt_x[g], dz - gt_z[g]) - reach > _PRUNE_SLACK * (reach + dm + gt_m[g]):
                    if frame is None:
                        frame, extent = _row_frame(det, d)
                    other = gt_frames.get(g)
                    if other is None:
                        other = gt_frames[g] = _row_frame(gt, g)
                    det_idx.append(d)
                    gt_idx.append(g)
                    iou.append(_iou(kind, clip(frame, other[0]), extent, other[1]))
    return det_idx, gt_idx, iou


def _circles(columns: Sequence[Sequence[float]]) -> tuple[Sequence[float], Sequence[float], list[float], list[float]]:
    """The boxes' footprint bounding circles, as columns: x, z, radius
    (half the footprint diagonal) and the centre's distance from the
    origin. ValueError for a box with a value that is not finite or a
    dim that is not positive."""
    x, _, z, h, w, l, _ = columns
    if not all(map(math.isfinite, chain.from_iterable(columns))):
        raise ValueError("box values must be finite")
    if min(chain(h, w, l), default=1.0) <= 0.0:
        dims = next(dims for dims in zip(h, w, l) if min(dims) <= 0.0)
        raise ValueError(f"box dims must be positive, got {dims}")
    return x, z, [0.5 * r for r in map(math.hypot, w, l)], list(map(math.hypot, x, z))


def _row_frame(columns: Sequence[Sequence[float]], i: int) -> tuple[tuple[float, ...], tuple[float, float, float]]:
    """_frame of box i of pair_iou's columns, as Box3D(center, dims, yaw) holds it."""
    xs, ys, zs, hs, ws, ls, yaws = columns
    return _frame(xs[i], ys[i], zs[i], hs[i], ws[i], ls[i], normalize_angle(yaws[i]))
