"""Detection-vs-ground-truth matching and metrics.

Matching is greedy per frame: detections in descending score order each
take the unmatched ground-truth box of highest IoU, provided that IoU
reaches the configured threshold. Ties break toward the lower ground
truth index, and equal scores toward the lower detection index, so the
result is deterministic.

Recall, precision, and the recall/precision trade-off are micro-averaged
over frames. Average precision sweeps the full score range over a global
score-sorted detection list (no pre-thresholding) and interpolates at 11
or 40 recall points; it is reported as a percentage.

Per-bin rows attribute matched pairs and misses to the ground-truth
box's distance bin and false positives to the detection's bin.

Every metric comes from columns of kitti_io.LabelTable. The evaluated
rows' boxes go to geometry.pair_iou once, as seven columns (x, y, z, h,
w, l, yaw), each gathered from the table's column in one pass, with
frame offsets. It gives the IoU of every same-frame pair that the
bounding-circle prune keeps, bit for bit equal to the scalar IoU: the
prune tests only the ground truth in a z window around each detection,
each row's frame is built once, and every kept pair goes through the
package's one clipper, in one box's own frame. The pairs do not depend
on the threshold mode, so _cached_pairs keeps them in kitti_io's cache,
keyed by the bytes of both tables' box columns, the evaluated rows and
geometry.py's source: every eval after the first over the same boxes
reads them, and neither gathers the boxes nor imports geometry.
_candidates lists each detection's ground truth at or above the
threshold once, best first. The AP sweep (_sweep, one stable sort of the
rows by descending score) is also the matching order: _match walks it. A
threshold filter flags detection rows (one flag per row, or
EvaluationError); the filtered metrics walk the flagged part of the
sweep and the unfiltered AP all of it, over the same candidates. The
tables hold the same frames in strictly ascending frame_id order, so row
order is (frame_id, position) order.
"""

from __future__ import annotations

import os
import sys
from array import array
from bisect import bisect_left
from itertools import accumulate
from operator import lt
from typing import Iterable, Sequence

from .bin_stats import BinSpec, Record, assign_bins, ground_distance
from .kitti_io import DONT_CARE, LabelTable, _read_bytes, cache_get, cache_put

ELEVEN_POINT = "eleven_point"
FORTY_POINT = "forty_point"

# The first field of a pair entry's key; a new key or body layout changes it.
_PAIR_FORMAT = f"adathresh iou pairs 2 {sys.byteorder}"
_GEOMETRY_SOURCE = os.path.join(os.path.dirname(__file__), "geometry.py")  # pair_iou's, in a pairs key
_BOX_COLUMNS = ("x", "y", "z", "height", "width", "length", "rotation_y")  # pair_iou's column order

# Minimum 2D box height (pixels), maximum occlusion, maximum truncation.
_DIFFICULTY_LIMITS = {
    "easy": (40.0, 0, 0.15),
    "moderate": (25.0, 1, 0.30),
    "hard": (25.0, 2, 0.50),
}


class EvaluationError(ValueError):
    """Evaluation was asked for something undefined (e.g. AP without gt)."""


class MatchConfig(Record):
    """Matching and AP settings shared by all evaluation entry points."""

    iou_kind: str = "bev"
    iou_threshold: float = 0.7
    class_name: str = "Car"
    ap_interpolation: str = ELEVEN_POINT
    difficulty: str | None = None

    def __post_init__(self) -> None:
        if self.iou_kind not in ("bev", "3d"):
            raise ValueError(f"iou_kind must be 'bev' or '3d', got {self.iou_kind!r}")
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1], got {self.iou_threshold}")
        if not self.class_name:
            raise ValueError("class_name must be non-empty")
        if self.ap_interpolation not in (ELEVEN_POINT, FORTY_POINT):
            raise ValueError(f"unknown ap_interpolation {self.ap_interpolation!r}")
        if self.difficulty is not None and self.difficulty not in _DIFFICULTY_LIMITS:
            raise ValueError(f"unknown difficulty {self.difficulty!r}")


def trade_off(recall: float, precision: float) -> float:
    """Absolute recall/precision gap; 0 means perfectly balanced."""
    return abs(recall - precision)


def _eval_rows(gt: LabelTable, det: LabelTable, config: MatchConfig) -> tuple[list[int], list[int]]:
    """The table rows of the ground truth and the detections to evaluate.

    Both are the configured class, and neither side has DontCare rows.
    Ground truth also drops, when a difficulty stratum is set, rows
    outside it.
    """
    name = config.class_name
    if name == DONT_CARE:
        return [], []
    gt_rows = [i for i, c in enumerate(gt.class_names) if c == name]
    if config.difficulty is not None:
        min_height, max_occlusion, max_truncation = _DIFFICULTY_LIMITS[config.difficulty]
        top, bottom = gt.column("top"), gt.column("bottom")
        occluded, truncated = gt.column("occluded"), gt.column("truncated")
        gt_rows = [
            i
            for i in gt_rows
            if bottom[i] - top[i] >= min_height
            and occluded[i] <= max_occlusion
            and truncated[i] <= max_truncation
        ]
    det_rows = [i for i, c in enumerate(det.class_names) if c == name]
    return gt_rows, det_rows


def _sweep(scores: Sequence[float]) -> list[int]:
    """Detection indices by descending score, equal scores in index order
    (a reverse sort is stable too): the one order of matching and of AP."""
    return sorted(range(len(scores)), key=scores.__getitem__, reverse=True)


def _candidates(pairs: tuple[list[int], list[int], list[float]], n_det: int, threshold: float) -> list[list]:
    """Each detection's candidates among the (det_idx, gt_idx, iou) pairs:
    (-iou, gt_idx) for each pair at or above threshold, highest IoU first,
    ties to the lower ground-truth index."""
    candidates: list[list[tuple[float, int]]] = [[] for _ in range(n_det)]
    for d, g, value in zip(*pairs):
        if value >= threshold and value > 0.0:
            candidates[d].append((-value, g))
    for row in candidates:
        row.sort()
    return candidates


def _match(order: Iterable[int], candidates: list[list]) -> list[tuple[int, int]]:
    """The greedy matcher: each detection of order, in turn, takes its
    first candidate not yet taken. Ground-truth indices may span many
    frames as long as no index is shared between frames. Returns the
    (det_idx, gt_idx) matches in the order they were made."""
    taken: set[int] = set()
    matches: list[tuple[int, int]] = []
    for d in order:
        for _, g in candidates[d]:
            if g not in taken:
                taken.add(g)
                matches.append((d, g))
                break
    return matches


def _box_columns(table: LabelTable, rows: list[int]) -> list[list[float]]:
    """The rows' boxes as pair_iou columns: x, y, z, height, width, length and yaw."""
    return [list(map(table.column(name).__getitem__, rows)) for name in _BOX_COLUMNS]


def _cached_pairs(
    det: LabelTable, det_rows: list[int], gt: LabelTable, gt_rows: list[int], kind: str
) -> tuple[Sequence[int], Sequence[int], Sequence[float]]:
    """geometry.pair_iou of the boxes of det_rows of det and gt_rows of gt,
    from kitti_io's cache when a pairs entry holds this input, else
    computed (the only use of geometry and _box_columns) and stored.

    The key is _PAIR_FORMAT, sys.version, geometry.py's own bytes, the
    kind, both offset and row lists, and both tables' seven box columns
    as native doubles, so that an edit of the kernel misses every older
    entry; the body is det_idx, gt_idx and iou as native 8-byte values.
    An unreadable geometry.py, a cache error, or a body that is not three
    arrays of one length or holds an index outside its side's rows is a
    miss: the result never depends on the cache.
    """
    det_offsets, gt_offsets = _offsets(det, det_rows), _offsets(gt, gt_rows)
    try:
        source = _read_bytes(_GEOMETRY_SOURCE)
    except OSError:
        source = key = None
    if source is not None:
        # repr quotes sys.version's newline, and the sizes in head fix where
        # each later part ends, so two inputs never share a key.
        sizes = map(len, (source, det_offsets, gt_offsets, det_rows, gt_rows, det, gt))
        head = repr((_PAIR_FORMAT, sys.version, kind, *sizes)).encode()
        indices = array("q", [*det_offsets, *gt_offsets, *det_rows, *gt_rows]).tobytes()
        columns = [table.column(name).tobytes() for table in (det, gt) for name in _BOX_COLUMNS]
        key = b"".join([head, b"\n", source, indices, *columns])
        body = cache_get("pairs", key)
        if body is not None and len(body) % 24 == 0:
            size = len(body) // 3
            pairs = array("q"), array("q"), array("d")
            for j, part in enumerate(pairs):
                part.frombytes(body[j * size : (j + 1) * size])
            sides = ((pairs[0], len(det_rows)), (pairs[1], len(gt_rows)))
            if all(min(idx, default=0) >= 0 and max(idx, default=-1) < n_rows for idx, n_rows in sides):
                return pairs
    from .geometry import pair_iou  # a hit needs no kernel, and eval no other part of geometry
    pairs = pair_iou(_box_columns(det, det_rows), det_offsets, _box_columns(gt, gt_rows), gt_offsets, kind)
    if key is not None:
        cache_put("pairs", key, b"".join(array(code, v).tobytes() for code, v in zip("qqd", pairs)))
    return pairs


def _offsets(table: LabelTable, rows: list[int]) -> list[int]:
    """The frame offsets into rows, an ascending selection of table rows."""
    return [bisect_left(rows, start) for start in table.offsets]


def _bins(table: LabelTable, rows: list[int], spec: BinSpec) -> list[int]:
    """Each row's assign_bins of its ground_distance; spec.n_bins beyond the range."""
    x, z = table.column("x"), table.column("z")
    return assign_bins(map(ground_distance, map(x.__getitem__, rows), map(z.__getitem__, rows)), spec)


def _ratio(numerator: int, denominator: int) -> float:
    """tp / (tp + misses); an empty denominator counts as perfect."""
    return numerator / denominator if denominator > 0 else 1.0


def _interpolation_points(kind: str) -> list[float]:
    if kind == ELEVEN_POINT:
        return [i / 10.0 for i in range(11)]
    return [i / 40.0 for i in range(1, 41)]


def _interpolated_ap(tp_flags: Sequence[bool], total_gt: int, kind: str) -> float:
    """AP (percent) of a sweep given as TP flags in rank order.

    The interpolated precision at a recall point is the best precision
    at that recall or beyond: a reverse running maximum of the precision
    curve, read at the first rank whose recall reaches the point.
    """
    if total_gt == 0:
        raise EvaluationError("average precision is undefined without ground truth")
    cum_tp = list(accumulate(map(int, map(bool, tp_flags))))
    recalls = [tp / total_gt for tp in cum_tp]
    precisions = [tp / rank for rank, tp in enumerate(cum_tp, start=1)]
    best_after = list(accumulate(reversed(precisions), max))[::-1]
    points = _interpolation_points(kind)
    total = 0.0
    for point in points:
        i = bisect_left(recalls, point)
        total += best_after[i] if i < len(best_after) else 0.0
    return 100.0 * total / len(points)


# The range of each metric a report holds, by name: its upper bound and
# the rule it spells. Every lower bound is 0, and every upper bound is
# finite, so a check also rejects NaN and infinities.
_METRIC_RANGES = {
    **dict.fromkeys(("tp", "fp", "fn"), (sys.float_info.max, "a non-negative count")),
    **dict.fromkeys(("recall", "precision", "trade_off"), (1.0, "within [0, 1]")),
    **dict.fromkeys(("average_precision", "average_precision_filtered"), (100.0, "within [0, 100]")),
}


def _check_metric(name: str, value: float | None) -> None:
    """ValueError naming metric name unless value is None or within its range."""
    hi, rule = _METRIC_RANGES[name]
    if value is not None and not 0.0 <= value <= hi:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


class BinBreakdown(Record):
    """Counts and point metrics for one distance bin.

    hi_m is None for the overflow bin collecting objects at or beyond
    max_distance.
    """

    bin_index: int
    lo_m: float
    hi_m: float | None
    tp: int
    fp: int
    fn: int
    recall: float
    precision: float

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "recall", "precision"):
            _check_metric(name, getattr(self, name))


class EvalReport(Record):
    """Complete evaluation outcome for one detection set."""

    config: MatchConfig
    tp: int
    fp: int
    fn: int
    recall: float
    precision: float
    trade_off: float
    average_precision: float
    average_precision_filtered: float | None = None
    per_bin: tuple[BinBreakdown, ...] = ()

    def __post_init__(self) -> None:
        for name in _METRIC_RANGES:
            _check_metric(name, getattr(self, name))


def evaluate_tables(
    gt: LabelTable,
    det: LabelTable,
    config: MatchConfig,
    bin_spec: BinSpec | None = None,
    kept: Sequence[bool] | None = None,
) -> EvalReport:
    """The full report for the detections of det against the ground truth
    of gt.

    gt and det hold the same frames in strictly ascending frame_id order,
    as every table kitti_io and synthetic build does; other tables raise
    EvaluationError. Equal scores then sweep in row order: by frame_id,
    then by position in the frame.

    Without kept, every detection row is evaluated and average_precision
    sweeps them. With kept (one flag per row, threshold.keep_rows), point
    metrics, per-bin rows and average_precision_filtered come from the
    kept rows, and average_precision sweeps every row, so that the sweep
    covers the full score range. A kept of another length raises
    EvaluationError.
    """
    ids = gt.frame_ids
    if det.frame_ids != ids or not all(map(lt, ids, ids[1:])):
        raise EvaluationError(
            "ground truth and detections must hold the same frames in strictly ascending frame_id order"
        )
    if kept is not None and len(kept) != len(det):
        raise EvaluationError(f"kept holds {len(kept)} flags for {len(det)} detection rows")
    spec = bin_spec if bin_spec is not None else BinSpec()
    gt_rows, det_rows = _eval_rows(gt, det, config)
    scores = list(map(det.scores().__getitem__, det_rows))
    pairs = _cached_pairs(det, det_rows, gt, gt_rows, config.iou_kind)
    candidates = _candidates(pairs, len(det_rows), config.iou_threshold)
    sweep = _sweep(scores)
    kept_sweep = sweep if kept is None else [i for i in sweep if kept[det_rows[i]]]
    gt_hit, det_hit = [False] * len(gt_rows), [False] * len(det_rows)
    for d, g in _match(kept_sweep, candidates):
        det_hit[d] = gt_hit[g] = True

    overflow = spec.n_bins
    tp_by_bin, fn_by_bin, fp_by_bin = ([0] * (overflow + 1) for _ in range(3))
    for b, hit in zip(_bins(gt, gt_rows, spec), gt_hit):
        (tp_by_bin if hit else fn_by_bin)[b] += 1
    for b in _bins(det, [det_rows[i] for i in kept_sweep if not det_hit[i]], spec):
        fp_by_bin[b] += 1

    tp = sum(tp_by_bin)
    fp = sum(fp_by_bin)
    fn = sum(fn_by_bin)
    recall = _ratio(tp, tp + fn)
    precision = _ratio(tp, tp + fp)

    rows: list[BinBreakdown] = []
    for index in range(spec.n_bins + 1):
        if index == overflow and not (tp_by_bin[index] or fp_by_bin[index] or fn_by_bin[index]):
            continue
        if index == overflow:
            lo, hi = spec.max_distance, None
        else:
            lo, hi = spec.edges(index)
        b_tp, b_fp, b_fn = tp_by_bin[index], fp_by_bin[index], fn_by_bin[index]
        rows.append(
            BinBreakdown(
                bin_index=index,
                lo_m=lo,
                hi_m=hi,
                tp=b_tp,
                fp=b_fp,
                fn=b_fn,
                recall=_ratio(b_tp, b_tp + b_fn),
                precision=_ratio(b_tp, b_tp + b_fp),
            )
        )

    kind = config.ap_interpolation
    ap_filtered = _interpolated_ap([det_hit[i] for i in kept_sweep], len(gt_rows), kind)
    if kept is None:
        ap, ap_filtered = ap_filtered, None
    else:
        all_hit = {d for d, _ in _match(sweep, candidates)}
        ap = _interpolated_ap([i in all_hit for i in sweep], len(gt_rows), kind)
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


def compare_reports(baseline: EvalReport, candidate: EvalReport) -> list[tuple[str, float, float]]:
    """(metric, baseline value, candidate value) for each metric of
    _METRIC_RANGES, in its order, that both reports hold (not None), as
    the reports hold it: an int for tp, fp and fn. Reports under
    different configs raise EvaluationError."""
    if baseline.config != candidate.config:
        raise EvaluationError(
            "reports were produced under different configurations and cannot be compared"
        )
    rows = ((name, getattr(baseline, name), getattr(candidate, name)) for name in _METRIC_RANGES)
    return [row for row in rows if None not in row]
