"""Fixture records, table builders and independent oracles shared across test modules.

Box3D with iou_bev and iou_3d, and assign_bin, are the scalar forms of
what the package computes in bulk: the IoU of one pair of boxes through
geometry's own frame, clipper and IoU, which geometry.pair_iou must equal
bit for bit, and the bin of one distance, which bin_stats.assign_bins
must equal element by element.

The other oracles deliberately re-derive results through different means than
the library: Monte-Carlo point inclusion instead of polygon clipping,
the world-frame convex-polygon clipper instead of the own-frame one, a
from-scratch greedy matcher, exhaustive search over one-to-one
assignments, the scalar three-pass evaluation with its brute-force
AP interpolation, and Gaussian elimination over fractions for the fit.
fraction_cramer_solve is the fit's own Cramer's rule over fractions,
which the package's integer solve must equal bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, compress
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from adathresh import bin_stats
from adathresh.bin_stats import BinSpec, FitError, ground_distance
from adathresh.evaluation import (
    _DIFFICULTY_LIMITS,
    BinBreakdown,
    EvalReport,
    EvaluationError,
    trade_off,
)
from adathresh.geometry import _circles, _clip_area, _frame, _iou, normalize_angle
from adathresh.kitti_io import DONT_CARE, LabelTable, read_label_table
from adathresh.kitti_parse import _table_from_lines

CAR_DIMS = (1.5, 1.7, 4.0)  # height, width, length


def replaced(record, **changes):
    """A copy of a package record with the named fields changed: what
    dataclasses.replace gives for the test-local dataclasses here."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


class Box3D(bin_stats.Record):
    """Oriented box: center (x, y, z), dims (height, width, length), yaw.

    yaw rotates the footprint about the (downward) y axis and is
    normalized to [-pi, pi] at construction. Every value must be finite
    and every dim positive: the checks pair_iou makes of each row.
    """

    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    yaw: float

    def __post_init__(self) -> None:
        _circles([[v] for v in (*self.center, *self.dims, self.yaw)])
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))

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
        """geometry._frame of the box, built once per box."""
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


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Bird's-eye-view IoU of two boxes, in [0, 1]."""
    return _iou("bev", _clip_area(a._shape[0], b._shape[0]), a._shape[1], b._shape[1])


def iou_3d(a: Box3D, b: Box3D) -> float:
    """3D IoU of two boxes whose vertical extent is [y - h, y]."""
    return _iou("3d", _clip_area(a._shape[0], b._shape[0]), a._shape[1], b._shape[1])


def assign_bin(distance: float, spec: BinSpec) -> int | None:
    """Bin index for a distance; None when at or beyond max_distance."""
    if distance < 0.0:
        raise ValueError(f"distance must be non-negative, got {distance}")
    if distance >= spec.max_distance:
        return None
    return min(int(distance // spec.bin_width), spec.n_bins - 1)


def make_box(
    x: float = 0.0,
    z: float = 10.0,
    *,
    y: float = 1.65,
    dims: tuple[float, float, float] = CAR_DIMS,
    yaw: float = 0.0,
) -> Box3D:
    return Box3D(center=(x, y, z), dims=dims, yaw=yaw)


@dataclass(frozen=True)
class Record:
    """One labeled object, the values of one label line; score is None in
    ground truth."""

    class_name: str
    truncated: float
    occluded: int
    alpha: float
    bbox_2d: tuple[float, float, float, float]
    dimensions: tuple[float, float, float]
    location: tuple[float, float, float]
    rotation_y: float
    score: float | None = None

    def ego_distance(self) -> float:
        return ground_distance(self.location[0], self.location[2])

    def to_box3d(self) -> Box3D:
        return Box3D(center=self.location, dims=self.dimensions, yaw=self.rotation_y)


def constructed(line: str) -> Record:
    """The record of a label line's tokens, parsed here token by token."""
    tokens = line.split()
    reals = [float(token) for token in tokens[1:]]
    return Record(
        tokens[0],
        reals[0],
        int(reals[1]),
        reals[2],
        tuple(reals[3:7]),
        tuple(reals[7:10]),
        tuple(reals[10:13]),
        reals[13],
        reals[14] if len(reals) == 15 else None,
    )


def make_record(
    x: float = 0.0,
    z: float = 10.0,
    *,
    y: float = 1.65,
    dims: tuple[float, float, float] = CAR_DIMS,
    yaw: float = 0.0,
    score: float | None = None,
    class_name: str = "Car",
    bbox: tuple[float, float, float, float] = (100.0, 100.0, 200.0, 160.0),
    truncated: float = 0.0,
    occluded: int = 0,
) -> Record:
    return Record(
        class_name=class_name,
        truncated=truncated,
        occluded=occluded,
        alpha=0.0,
        bbox_2d=bbox,
        dimensions=dims,
        location=(x, y, z),
        rotation_y=yaw,
        score=score,
    )


class Frame(NamedTuple):
    """The records of one frame, which tables() turns into table rows."""

    frame_id: str
    ground_truth: Sequence[Record] = ()
    detections: Sequence[Record] = ()


def label_line(record: Record) -> str:
    """record as a label line, each real written with repr, which reads
    back as the same float; a detection line when record has a score."""
    reals = [record.truncated, record.occluded, record.alpha, *record.bbox_2d, *record.dimensions]
    reals += [*record.location, record.rotation_y, *([] if record.score is None else [record.score])]
    return " ".join([record.class_name, *(repr(float(v)) for v in reals)])


def tables(frames: Sequence[Frame]) -> tuple[LabelTable, LabelTable]:
    """The ground-truth and the detection LabelTable of frames, in their
    order, read from label_line's lines by the program's own reader."""
    ids = [frame.frame_id for frame in frames]
    return _table(ids, [f.ground_truth for f in frames], False), _table(ids, [f.detections for f in frames], True)


def _table(ids: list[str], records: list[Sequence[Record]], with_score: bool) -> LabelTable:
    lines = [label_line(r if with_score else replace(r, score=None)) for rs in records for r in rs]
    ends = list(accumulate(map(len, records)))
    table = _table_from_lines(ids, [f"{i}.txt" for i in ids], lines, ends, with_score, True)
    assert table is not None, f"the reader rejects a fixture line of {lines}"
    return table


def detections(records: Sequence[Record]) -> LabelTable:
    """The detection table of one frame holding records."""
    return tables([Frame("000000", (), records)])[1]


def ground_truth(records: Sequence[Record]) -> LabelTable:
    """The ground-truth table, without scores, of one frame holding records."""
    return tables([Frame("000000", records)])[0]


def filtered(frames: Sequence[Frame], kept: Sequence[bool]) -> list[Frame]:
    """frames with only the detections flagged in kept, one flag per
    detection row of tables(frames)."""
    flags = iter(kept)  # compress takes one flag per detection, frame by frame
    return [f._replace(detections=tuple(compress(f.detections, flags))) for f in frames]


def label_text(records: Sequence[Record]) -> str:
    """records as a label file: label_line's lines, LF-terminated."""
    return "".join(label_line(r) + "\n" for r in records)


def read_text(directory: Path, text: str, expect_score: bool) -> LabelTable:
    """The table read_label_table reads from directory/000000.txt holding text."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "000000.txt").write_bytes(text.encode("utf-8"))
    return read_label_table(directory, "label", expect_score)


def write_label(path: Path, records: Sequence[Record]) -> None:
    """Write label_text(records) to path, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(label_text(records), encoding="utf-8")


def box_columns(records: list[Record]) -> list[list[float]]:
    """The records' boxes (Record.to_box3d) as geometry.pair_iou columns."""
    return columns([(*r.location, *r.dimensions, r.rotation_y) for r in records])


def columns(rows: Sequence[Sequence[float]]) -> list[list[float]]:
    """(x, y, z, height, width, length, yaw) rows as pair_iou's seven columns."""
    return [list(map(float, column)) for column in zip(*rows)] if rows else [[] for _ in range(7)]


def score_list(records: list[Record]) -> list[float]:
    return [r.score for r in records]


def eval_lists(frame: Frame, config) -> tuple[list[Record], list[Record]]:
    """The frame's ground truth and detections that evaluation uses, record
    by record: the configured class, and for ground truth neither DontCare
    nor outside the difficulty stratum (height, occlusion, truncation)."""

    def in_stratum(r: Record) -> bool:
        if config.difficulty is None:
            return True
        min_height, max_occlusion, max_truncation = _DIFFICULTY_LIMITS[config.difficulty]
        height = r.bbox_2d[3] - r.bbox_2d[1]
        return height >= min_height and r.occluded <= max_occlusion and r.truncated <= max_truncation

    gt = [
        r
        for r in frame.ground_truth
        if r.class_name == config.class_name and r.class_name != DONT_CARE and in_stratum(r)
    ]
    return gt, [r for r in frame.detections if r.class_name == config.class_name]


def footprint_corners(box: Box3D) -> list[tuple[float, float]]:
    """Ground-plane corner coordinates of a box footprint."""
    c = math.cos(box.yaw)
    s = math.sin(box.yaw)
    hu = 0.5 * box.length
    hv = 0.5 * box.width
    corners = []
    for su in (-1.0, 1.0):
        for sv in (-1.0, 1.0):
            u, v = su * hu, sv * hv
            corners.append((box.center[0] + u * c + v * s, box.center[2] - u * s + v * c))
    return corners


def polygon_intersection_area(
    va: Sequence[tuple[float, float]], vb: Sequence[tuple[float, float]]
) -> float:
    """Exact scalar clipper: the area of the intersection of two convex
    polygons given as CCW vertex tuples in world coordinates; 0 when
    either has fewer than 3 vertices or the area is below 1e-12.

    Clips va to the left of each directed edge p->q of vb in turn
    (inside, for CCW; Sutherland-Hodgman), then takes the shoelace area
    of what is left. The argument order is canonicalized first so both
    call orders run the same arithmetic. geometry clips in one box's own
    frame instead, by its four sides.
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
    return area if area >= 1e-12 else 0.0


def _inside_footprint(box: Box3D, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Vectorized point-in-rotated-rectangle test in the ground plane."""
    c = math.cos(box.yaw)
    s = math.sin(box.yaw)
    dx = xs - box.center[0]
    dz = zs - box.center[2]
    u = dx * c - dz * s
    v = dx * s + dz * c
    return (np.abs(u) <= 0.5 * box.length) & (np.abs(v) <= 0.5 * box.width)


def mc_iou_bev(a: Box3D, b: Box3D, n: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo BEV IoU estimate by uniform sampling over the joint AABB."""
    corners = footprint_corners(a) + footprint_corners(b)
    xs = [p[0] for p in corners]
    zs = [p[1] for p in corners]
    rng = np.random.default_rng(seed)
    px = rng.uniform(min(xs), max(xs), n)
    pz = rng.uniform(min(zs), max(zs), n)
    in_a = _inside_footprint(a, px, pz)
    in_b = _inside_footprint(b, px, pz)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def brute_force_match(
    gt: list[Record],
    det: list[Record],
    iou_fn,
    iou_threshold: float,
) -> list[tuple[int, int]]:
    """From-scratch greedy matcher; returns (det_idx, gt_idx) pairs.

    Detections in descending score order (equal scores: lower index
    first) each take the free ground-truth box of highest IoU at or
    above the threshold; IoU ties go to the lower ground-truth index.
    """
    gt_boxes = [r.to_box3d() for r in gt]
    det_boxes = [r.to_box3d() for r in det]
    order = sorted(range(len(det)), key=lambda i: (-det[i].score, i))
    free = list(range(len(gt)))
    pairs: list[tuple[int, int]] = []
    for det_idx in order:
        best_gt = None
        best_iou = -1.0
        for gt_idx in free:
            value = iou_fn(det_boxes[det_idx], gt_boxes[gt_idx])
            if value >= iou_threshold and value > best_iou:
                best_gt, best_iou = gt_idx, value
        if best_gt is not None:
            free.remove(best_gt)
            pairs.append((det_idx, best_gt))
    return pairs


def optimal_assignment(
    iou_matrix: list[list[float]], iou_threshold: float
) -> tuple[int, float]:
    """Best (matched count, total IoU) over all one-to-one assignments.

    iou_matrix is indexed [det][gt]. Exhaustive search with memoization
    on (next detection, used-gt bitmask); intended for instances up to
    about 6x6.
    """
    n_det = len(iou_matrix)
    n_gt = len(iou_matrix[0]) if n_det else 0

    @lru_cache(maxsize=None)
    def best_from(det_idx: int, used: int) -> tuple[int, float]:
        if det_idx == n_det:
            return 0, 0.0
        best = best_from(det_idx + 1, used)
        for gt_idx in range(n_gt):
            if used & (1 << gt_idx):
                continue
            value = iou_matrix[det_idx][gt_idx]
            if value >= iou_threshold:
                count, total = best_from(det_idx + 1, used | (1 << gt_idx))
                candidate = (count + 1, total + value)
                if candidate > best:
                    best = candidate
        return best

    result = best_from(0, 0)
    best_from.cache_clear()
    return result


def _random_dims(rng: random.Random) -> tuple[float, float, float]:
    return (rng.uniform(1.3, 1.7), rng.uniform(1.5, 1.9), rng.uniform(3.6, 4.4))


def random_scene(
    rng: random.Random, max_gt: int = 6, max_det: int = 6
) -> tuple[list[Record], list[Record]]:
    """Random single-frame scene with contested overlaps.

    Most detections are jittered copies of some ground-truth box, so
    IoUs spread across the matching threshold and occasionally cross.
    """
    gt: list[Record] = []
    for _ in range(rng.randint(0, max_gt)):
        gt.append(
            make_record(
                rng.uniform(-10.0, 10.0),
                rng.uniform(5.0, 30.0),
                dims=_random_dims(rng),
                yaw=rng.uniform(-math.pi, math.pi),
            )
        )
    det: list[Record] = []
    for _ in range(rng.randint(0, max_det)):
        if gt and rng.random() < 0.75:
            base = gt[rng.randrange(len(gt))]
            det.append(
                make_record(
                    base.location[0] + rng.uniform(-1.0, 1.0),
                    base.location[2] + rng.uniform(-1.0, 1.0),
                    dims=tuple(v * rng.uniform(0.9, 1.1) for v in base.dimensions),
                    yaw=base.rotation_y + rng.uniform(-0.3, 0.3),
                    score=rng.random(),
                )
            )
        else:
            det.append(
                make_record(
                    rng.uniform(-10.0, 10.0),
                    rng.uniform(5.0, 30.0),
                    dims=_random_dims(rng),
                    yaw=rng.uniform(-math.pi, math.pi),
                    score=rng.random(),
                )
            )
    return gt, det


def three_pass_evaluate(frames, config, bin_spec=None, ap_frames=None):
    """Reference evaluate(): the scalar three-pass implementation.

    One greedy pass over `frames` gives the point metrics and per-bin
    rows; each average precision is a separate global score-sorted sweep
    that calls the scalar IoU for every (detection, free gt) pair and
    interpolates with a loop over all curve points. The library computes
    one IoU matrix per frame instead and must give the same report.
    """
    iou = iou_bev if config.iou_kind == "bev" else iou_3d

    def score_of(record):
        if record.score is None:
            raise ValueError("detection record has no score")
        return record.score

    def ratio(numerator, denominator):
        return numerator / denominator if denominator > 0 else 1.0

    def greedy(det_order, det_boxes, gt_boxes, taken):
        """Yield (det_idx, gt_idx or -1) in det_order, updating taken."""
        for det_idx in det_order:
            best_gt, best_iou = -1, 0.0
            for gt_idx, gt_box in enumerate(gt_boxes):
                if taken[gt_idx]:
                    continue
                value = iou(det_boxes[det_idx], gt_box)
                if value >= config.iou_threshold and value > best_iou:
                    best_gt, best_iou = gt_idx, value
            if best_gt >= 0:
                taken[best_gt] = True
            yield det_idx, best_gt

    def sweep(sweep_frames):
        per_frame, entries, total_gt = [], [], 0
        for frame_pos, frame in enumerate(sweep_frames):
            gt, det = eval_lists(frame, config)
            gt_boxes = [r.to_box3d() for r in gt]
            per_frame.append((gt_boxes, [False] * len(gt)))
            total_gt += len(gt)
            for det_idx, record in enumerate(det):
                entries.append(
                    (score_of(record), frame.frame_id, det_idx, frame_pos, record.to_box3d())
                )
        if total_gt == 0:
            raise EvaluationError("average precision is undefined without ground truth")
        entries.sort(key=lambda e: (-e[0], e[1], e[2]))
        flags = []
        for entry in entries:
            gt_boxes, taken = per_frame[entry[3]]
            _, gt_idx = next(greedy([0], [entry[4]], gt_boxes, taken))
            flags.append(gt_idx >= 0)
        return loop_interpolated_ap(flags, total_gt, config.ap_interpolation)

    spec = bin_spec if bin_spec is not None else BinSpec()
    overflow = spec.n_bins
    tp_by_bin = [0] * (spec.n_bins + 1)
    fp_by_bin = [0] * (spec.n_bins + 1)
    fn_by_bin = [0] * (spec.n_bins + 1)

    def bin_of(record):
        index = assign_bin(record.ego_distance(), spec)
        return overflow if index is None else index

    for frame in frames:
        gt, det = eval_lists(frame, config)
        gt_boxes = [r.to_box3d() for r in gt]
        det_boxes = [r.to_box3d() for r in det]
        order = sorted(range(len(det)), key=lambda i: (-score_of(det[i]), i))
        taken = [False] * len(gt)
        for det_idx, gt_idx in greedy(order, det_boxes, gt_boxes, taken):
            if gt_idx >= 0:
                tp_by_bin[bin_of(gt[gt_idx])] += 1
            else:
                fp_by_bin[bin_of(det[det_idx])] += 1
        for gt_idx, was_taken in enumerate(taken):
            if not was_taken:
                fn_by_bin[bin_of(gt[gt_idx])] += 1

    tp, fp, fn = sum(tp_by_bin), sum(fp_by_bin), sum(fn_by_bin)
    recall, precision = ratio(tp, tp + fn), ratio(tp, tp + fp)
    rows = []
    for index in range(spec.n_bins + 1):
        b_tp, b_fp, b_fn = tp_by_bin[index], fp_by_bin[index], fn_by_bin[index]
        if index == overflow and not (b_tp or b_fp or b_fn):
            continue
        lo, hi = (spec.max_distance, None) if index == overflow else spec.edges(index)
        rows.append(
            BinBreakdown(
                index, lo, hi, b_tp, b_fp, b_fn, ratio(b_tp, b_tp + b_fn), ratio(b_tp, b_tp + b_fp)
            )
        )
    if ap_frames is not None:
        ap, ap_filtered = sweep(ap_frames), sweep(frames)
    else:
        ap, ap_filtered = sweep(frames), None
    return EvalReport(
        config=config,
        tp=tp,
        fp=fp,
        fn=fn,
        recall=recall,
        precision=precision,
        trade_off=trade_off(recall, precision),
        average_precision=ap,
        average_precision_filtered=ap_filtered,
        per_bin=tuple(rows),
    )


def loop_interpolated_ap(tp_flags, total_gt: int, interpolation: str) -> float:
    """Interpolated AP (percent) of a ranked TP/FP sweep, by brute force.

    At each recall point, scans the whole curve for the best precision
    at or beyond that recall.
    """
    if interpolation == "eleven_point":
        points = [i / 10.0 for i in range(11)]
    else:
        points = [i / 40.0 for i in range(1, 41)]
    recalls, precisions = [], []
    cum_tp = 0
    for rank, is_tp in enumerate(tp_flags, start=1):
        if is_tp:
            cum_tp += 1
        recalls.append(cum_tp / total_gt)
        precisions.append(cum_tp / rank)
    total = 0.0
    for point in points:
        best = 0.0
        for recall, precision in zip(recalls, precisions):
            if recall >= point and precision > best:
                best = precision
        total += best
    return 100.0 * total / len(points)


def exact_quadratic_fit(xs, ys, weights) -> tuple[float, float, float]:
    """Weighted least-squares (alpha, beta, gamma), each correctly rounded.

    Builds the normal equations D^T W D c = D^T W y over fractions, with
    design rows (x^2, x, 1), and solves them by Gaussian elimination;
    raises ZeroDivisionError when they are singular.
    """
    rows = [(Fraction(x) ** 2, Fraction(x), Fraction(1)) for x in xs]
    ws = [Fraction(w) for w in weights]
    ys = [Fraction(y) for y in ys]
    system = [
        [sum(w * r[i] * r[j] for w, r in zip(ws, rows)) for j in range(3)]
        + [sum(w * r[i] * y for w, r, y in zip(ws, rows, ys))]
        for i in range(3)
    ]
    for col in range(3):
        pivot = next((r for r in range(col, 3) if system[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular normal equations")
        system[col], system[pivot] = system[pivot], system[col]
        for r in range(col + 1, 3):
            factor = system[r][col] / system[col][col]
            system[r] = [a - factor * b for a, b in zip(system[r], system[col])]
    coeffs = [Fraction(0)] * 3
    for r in (2, 1, 0):
        known = sum(system[r][j] * coeffs[j] for j in range(r + 1, 3))
        coeffs[r] = (system[r][3] - known) / system[r][r]
    return tuple(float(c) for c in coeffs)


def fraction_cramer_solve(x, y, w) -> tuple[float, float, float]:
    """threshold._solve_weighted_quadratic over fractions: the same normal
    equations and Cramer determinants, each coefficient one Fraction
    rounded to float. Raises the same FitError for singular equations and
    for a coefficient beyond the float range."""
    moments = [Fraction(0)] * 5  # sum w x^j, j = 0..4
    rhs = [Fraction(0)] * 3  # sum w y x^j, j = 0..2
    for xi, yi, wi in zip(map(Fraction, x), map(Fraction, y), map(Fraction, w)):
        term = wi
        for j in range(5):
            moments[j] += term
            if j < 3:
                rhs[j] += term * yi
            term *= xi
    s0, s1, s2, s3, s4 = moments
    t0, t1, t2 = rhs

    def det3(a, b, c, d, e, f, g, h, i):
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    det = det3(s4, s3, s2, s3, s2, s1, s2, s1, s0)
    if det == 0:
        raise FitError("singular normal equations: bin abscissas do not span a quadratic")
    numerators = (
        det3(t2, s3, s2, t1, s2, s1, t0, s1, s0),
        det3(s4, t2, s2, s3, t1, s1, s2, t0, s0),
        det3(s4, s3, t2, s3, s2, t1, s2, s1, t0),
    )
    try:
        return tuple(float(n / det) for n in numerators)
    except OverflowError:
        raise FitError("fitted coefficients exceed the float range") from None
