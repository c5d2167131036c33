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
package's one clipper, in one box's own frame. One sparse greedy loop
(_greedy) then matches the pairs at or above the threshold, all frames
at once.
A threshold filter flags detection rows (one flag per row, or
EvaluationError), and the loop skips the pairs of unflagged ones, so
the kernel runs once for the filtered point metrics, per-bin rows and
AP and the unfiltered AP. The tables hold the same frames in strictly
ascending frame_id order, so row order is (frame_id, position) order:
the AP sweep is one stable sort of the rows by descending score, and
matching never crosses frames, so its flags are exactly those of a
global score-sorted sweep.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, compress, repeat
from operator import lt
from typing import Iterable, Sequence

from .bin_stats import BinSpec, Record, assign_bin, ground_distance
from .geometry import pair_iou
from .kitti_io import DONT_CARE, LabelTable

ELEVEN_POINT = "eleven_point"
FORTY_POINT = "forty_point"

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


def _greedy(
    det_idx: Iterable[int],
    gt_idx: Iterable[int],
    iou: Iterable[float],
    scores: Sequence[float],
    threshold: float,
) -> list[tuple[int, int, float]]:
    """The greedy matcher, over sparse (det_idx, gt_idx, iou) pairs.

    Detections are taken in (-score, index) order; each takes the free
    ground truth of highest IoU at or above threshold, the lowest index
    on ties. Indices may span many frames as long as no ground-truth
    index is shared between frames. Returns (det_idx, gt_idx, iou) in
    the order the matches were made.
    """
    order = sorted(
        (-scores[d], d, -value, g)
        for d, g, value in zip(det_idx, gt_idx, iou)
        if value >= threshold and value > 0.0
    )
    done: set[int] = set()
    taken: set[int] = set()
    matches: list[tuple[int, int, float]] = []
    for _, d, negated, g in order:
        if d not in done and g not in taken:
            done.add(d)
            taken.add(g)
            matches.append((d, g, -negated))
    return matches


def _match(
    pairs: tuple[list[int], list[int], list[float]],
    scores: list[float],
    threshold: float,
    n_gt: int,
    in_set: list[bool],
) -> tuple[list[bool], list[bool]]:
    """_greedy over the pairs of the detections flagged in in_set: the
    matched flags of the ground truth and of every detection."""
    flags = [in_set[d] for d in pairs[0]]
    gt_hit = [False] * n_gt
    det_hit = [False] * len(scores)
    for d, g, _ in _greedy(*(compress(column, flags) for column in pairs), scores, threshold):
        det_hit[d] = gt_hit[g] = True
    return gt_hit, det_hit


def _box_columns(table: LabelTable, rows: list[int]) -> list[list[float]]:
    """The rows' boxes as pair_iou columns: x, y, z, height, width, length and yaw."""
    names = ("x", "y", "z", "height", "width", "length", "rotation_y")
    return [list(map(table.column(name).__getitem__, rows)) for name in names]


def _offsets(table: LabelTable, rows: list[int]) -> list[int]:
    """The frame offsets into rows, an ascending selection of table rows."""
    return [bisect_left(rows, start) for start in table.offsets]


def _bins(table: LabelTable, rows: list[int], spec: BinSpec) -> list[int]:
    """Each row's assign_bin of its ground_distance; spec.n_bins beyond the range."""
    x, z = table.column("x"), table.column("z")
    distances = map(ground_distance, map(x.__getitem__, rows), map(z.__getitem__, rows))
    bins = map(assign_bin, distances, repeat(spec))
    return [spec.n_bins if b is None else b for b in bins]


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
    score_column = det.scores()
    scores = [score_column[r] for r in det_rows]
    det_boxes, gt_boxes = _box_columns(det, det_rows), _box_columns(gt, gt_rows)
    pairs = pair_iou(det_boxes, _offsets(det, det_rows), gt_boxes, _offsets(gt, gt_rows), config.iou_kind)
    every = [True] * len(det_rows)
    in_set = every if kept is None else [bool(kept[r]) for r in det_rows]
    gt_hit, det_hit = _match(pairs, scores, config.iou_threshold, len(gt_rows), in_set)

    overflow = spec.n_bins
    tp_by_bin, fn_by_bin, fp_by_bin = ([0] * (overflow + 1) for _ in range(3))
    for b, hit in zip(_bins(gt, gt_rows, spec), gt_hit):
        (tp_by_bin if hit else fn_by_bin)[b] += 1
    for b in _bins(det, [r for r, flag, hit in zip(det_rows, in_set, det_hit) if flag and not hit], spec):
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

    # A reverse sort is stable too: equal scores stay in row order.
    sweep = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    kind = config.ap_interpolation
    ap_filtered = _interpolated_ap([det_hit[i] for i in sweep if in_set[i]], len(gt_rows), kind)
    if kept is None:
        ap, ap_filtered = ap_filtered, None
    else:
        all_hit = _match(pairs, scores, config.iou_threshold, len(gt_rows), every)[1]
        ap = _interpolated_ap([all_hit[i] for i in sweep], len(gt_rows), kind)
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


class MetricDelta(Record):
    """One row of a report comparison: candidate minus baseline."""

    metric: str
    baseline: float
    candidate: float

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline

    def formatted_delta(self) -> str:
        return f"({self.delta:+.3f})"


def compare_reports(baseline: EvalReport, candidate: EvalReport) -> list[MetricDelta]:
    """Per-metric deltas between two reports sharing a config."""
    if baseline.config != candidate.config:
        raise EvaluationError(
            "reports were produced under different configurations and cannot be compared"
        )
    rows = [
        MetricDelta("tp", baseline.tp, candidate.tp),
        MetricDelta("fp", baseline.fp, candidate.fp),
        MetricDelta("fn", baseline.fn, candidate.fn),
        MetricDelta("recall", baseline.recall, candidate.recall),
        MetricDelta("precision", baseline.precision, candidate.precision),
        MetricDelta("trade_off", baseline.trade_off, candidate.trade_off),
        MetricDelta("average_precision", baseline.average_precision, candidate.average_precision),
    ]
    if (
        baseline.average_precision_filtered is not None
        and candidate.average_precision_filtered is not None
    ):
        rows.append(
            MetricDelta(
                "average_precision_filtered",
                baseline.average_precision_filtered,
                candidate.average_precision_filtered,
            )
        )
    return rows
