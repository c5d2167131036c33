"""Oriented 3D boxes and rotated-rectangle IoU.

Coordinates follow the KITTI camera frame: x right, y down, z forward.
The ground plane is (x, z). A box ``center`` sits at the middle of its
bottom face, so the box spans [y - height, y] vertically (y grows
downward).

One function, _footprint, turns a box into its footprint's vertices and
area, and one Sutherland-Hodgman clipper, _intersection_area, intersects
two footprints; normalize_angle is the one place a yaw is wrapped.
Box3D's footprint, iou_bev, iou_3d and the kernel pair_iou all go
through them, so every pair_iou value equals the scalar IoU bit for
bit. pair_iou sorts each frame's ground truth by z once and runs the
bounding-circle test only on the rows in a z window around each
detection, wide enough to hold every pair the test keeps. A box with a
value that is not finite (NaN or an infinity) or a dim that is not
positive is a ValueError, in Box3D and in pair_iou alike.
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
        _circles([(*center, *dims, yaw)])  # the checks pair_iou makes of each row
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
    def _shape(self) -> tuple[tuple[tuple[float, float], ...], tuple[float, float, float]]:
        """_footprint of the box, built once per box."""
        return _footprint(*self.center, *self.dims, self.yaw)

    @property
    def footprint(self) -> tuple[tuple[float, float], ...]:
        """The footprint's four (x, z) vertices, CCW."""
        return self._shape[0]

    @property
    def footprint_area(self) -> float:
        """The footprint's area."""
        return self._shape[1][0]


def _footprint(
    x: float, y: float, z: float, h: float, w: float, l: float, yaw: float
) -> tuple[tuple[tuple[float, float], ...], tuple[float, float, float]]:
    """A box's footprint vertices, CCW, and its _extent, from its values
    as Box3D holds them: floats, the yaw already normalized.

    Length runs along the box's local x axis and width along local z;
    the local frame is rotated by yaw about the downward y axis, so the
    vertices are (x + u cos + v sin, z - u sin + v cos) for (u, v) =
    (l/2, w/2), (-l/2, w/2), (-l/2, -w/2), (l/2, -w/2).
    """
    c = math.cos(yaw)
    s = math.sin(yaw)
    hu = 0.5 * l
    hv = 0.5 * w
    # Negating a factor negates the product exactly, so each vertex is
    # the sum above with its signs folded in.
    uc, us, vc, vs = hu * c, hu * s, hv * c, hv * s
    x0, z0 = x + uc + vs, z - us + vc
    x1, z1 = x - uc + vs, z + us + vc
    x2, z2 = x - uc - vs, z + us - vc
    x3, z3 = x + uc - vs, z - us - vc
    area = abs(0.5 * math.fsum((x3 * z0 - x0 * z3, x0 * z1 - x1 * z0, x1 * z2 - x2 * z1, x2 * z3 - x3 * z2)))
    return ((x0, z0), (x1, z1), (x2, z2), (x3, z3)), (area, y, h)


def _intersection_area(
    va: Sequence[tuple[float, float]], vb: Sequence[tuple[float, float]]
) -> float:
    """Area of the intersection of two convex polygons given as CCW
    vertex tuples; 0 when either has fewer than 3 vertices.

    Clips va to the left of each directed edge p->q of vb in turn
    (inside, for CCW), then takes the shoelace area of what is left.
    The argument order is canonicalized first so both call orders run
    the same arithmetic and the result is exactly symmetric.
    """
    if len(va) < 3 or len(vb) < 3:
        return 0.0
    if vb < va:
        va, vb = vb, va
    clipped = va
    px, pz = vb[-1]
    for qx, qz in vb:
        ex = qx - px
        ez = qz - pz
        out = []
        ax, az = clipped[-1]
        side_a = ex * (az - pz) - ez * (ax - px)
        for b in clipped:
            bx, bz = b
            side_b = ex * (bz - pz) - ez * (bx - px)
            if side_b >= 0.0:
                if side_a < 0.0:
                    # side_a and side_b have opposite signs, so the
                    # denominator is nonzero.
                    t = side_a / (side_a - side_b)
                    out.append((ax + t * (bx - ax), az + t * (bz - az)))
                out.append(b)
            elif side_a >= 0.0:
                t = side_a / (side_a - side_b)
                out.append((ax + t * (bx - ax), az + t * (bz - az)))
            ax, az, side_a = bx, bz, side_b
        if not out:
            return 0.0
        clipped = out
        px, pz = qx, qz
    if len(clipped) < 3:
        return 0.0
    px, pz = clipped[-1]
    terms = []
    for x, z in clipped:
        terms.append(px * z - x * pz)
        px, pz = x, z
    area = 0.5 * math.fsum(terms)
    if area < _DEGENERATE_AREA:
        return 0.0
    return area


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Bird's-eye-view IoU of two boxes, in [0, 1]."""
    return _iou("bev", _intersection_area(a.footprint, b.footprint), _extent(a), _extent(b))


def iou_3d(a: Box3D, b: Box3D) -> float:
    """3D IoU of two boxes whose vertical extent is [y - h, y]."""
    return _iou("3d", _intersection_area(a.footprint, b.footprint), _extent(a), _extent(b))


def _extent(box: Box3D) -> tuple[float, float, float]:
    """A box's footprint area, bottom y and height."""
    return box._shape[1]


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
    box, the values Box3D(center, dims, yaw) takes: every value finite,
    dims positive, and the yaw is normalized once. Frame f holds det
    rows det_offsets[f]:det_offsets[f + 1] and gt rows likewise.
    Returns (det_idx, gt_idx, iou) in frame, detection, ground-truth
    order. A pair whose footprints' bounding circles (radius half the
    footprint diagonal) are provably apart is left out: its IoU is 0.
    Every other pair goes through the one clipper, so each iou equals
    iou_bev or iou_3d of the pair bit for bit.

    The circle test runs only on the frame's ground truth whose z lies
    within a window of the detection's z: the largest reach the test
    can keep, with its slack doubled, so the window holds every pair
    the test keeps. A window whose half-width overflows to inf spans
    the whole frame. A row's footprint is built once, when it first
    reaches the clipper, and is dropped when its frame is done.
    """
    if kind not in ("bev", "3d"):
        raise ValueError(f"kind must be 'bev' or '3d', got {kind!r}")
    hypot, clip = math.hypot, _intersection_area
    det_circles, gt_circles = _circles(det), _circles(gt)
    # The windows use the largest radius and centre distance over all
    # ground truth, not the frame's, which only widens them.
    max_gr = max([c[2] for c in gt_circles], default=0.0)
    max_gm = max([c[3] for c in gt_circles], default=0.0)
    gt_z = [c[1] for c in gt_circles]
    det_idx: list[int] = []
    gt_idx: list[int] = []
    iou: list[float] = []
    for d0, d1, g0, g1 in zip(det_offsets, det_offsets[1:], gt_offsets, gt_offsets[1:]):
        if d0 == d1 or g0 == g1:
            continue
        by_z = sorted(range(g0, g1), key=gt_z.__getitem__)
        zs = list(map(gt_z.__getitem__, by_z))
        # Footprints live for one frame, which keeps the heap (and the
        # garbage collector's passes over it) small.
        gt_footprints = {}
        for d in range(d0, d1):
            dx, dz, dr, dm = det_circles[d]
            # Twice the test's slack, and 2e-9 m more for rounding near
            # zero: a z gap the test can keep lies far inside.
            reach = dr + max_gr
            half = reach + 2.0 * _PRUNE_SLACK * (reach + dm + max_gm + 1.0)
            candidates = by_z[bisect_left(zs, dz - half) : bisect_right(zs, dz + half)]
            candidates.sort()
            footprint = None
            for g in candidates:
                gx, gz, gr, gm = gt_circles[g]
                reach = dr + gr
                # Not "<=": a pair whose test involves a NaN (an inf - inf
                # of overflowed terms) is kept.
                if not hypot(dx - gx, dz - gz) - reach > _PRUNE_SLACK * (reach + dm + gm):
                    if footprint is None:
                        footprint, a = _row_footprint(det[d])
                    other = gt_footprints.get(g)
                    if other is None:
                        other = gt_footprints[g] = _row_footprint(gt[g])
                    det_idx.append(d)
                    gt_idx.append(g)
                    iou.append(_iou(kind, clip(footprint, other[0]), a, other[1]))
    return det_idx, gt_idx, iou


def _circles(rows: Sequence[Sequence[float]]) -> list[tuple[float, float, float, float]]:
    """Each box's footprint bounding circle: x, z, radius (half the
    footprint diagonal) and the centre's distance from the origin.
    ValueError for a row with a value that is not finite or a dim that
    is not positive."""
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise ValueError("box values must be finite")
    out = []
    for x, _, z, h, w, l, _ in rows:
        if h <= 0.0 or w <= 0.0 or l <= 0.0:
            raise ValueError(f"box dims must be positive, got {(h, w, l)}")
        out.append((x, z, 0.5 * math.hypot(w, l), math.hypot(x, z)))
    return out


def _row_footprint(row: Sequence[float]) -> tuple[tuple[tuple[float, float], ...], tuple[float, float, float]]:
    """_footprint of a pair_iou row, as Box3D(center, dims, yaw) holds it."""
    x, y, z, h, w, l, yaw = map(float, row)
    return _footprint(x, y, z, h, w, l, normalize_angle(yaw))
