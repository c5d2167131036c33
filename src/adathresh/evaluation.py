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
rows' boxes go to geometry.pair_iou once, which gives the IoU of every
same-frame pair that the bounding-circle prune keeps, bit for bit equal
to the scalar IoU; one sparse greedy loop (_greedy) then matches the
pairs at or above the threshold, all frames at once. A threshold filter
selects detection rows, whose pairs are a subset of all pairs, so the
kernel runs once for the filtered point metrics, per-bin rows and AP and
the unfiltered AP. Matching never crosses frames, and the global sweep
order restricted to one frame is that frame's matching order (-score,
then position), so the match flags sorted in the global (-score,
frame_id, position, frame position) order are exactly the flags of a
global score-sorted sweep.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, compress, repeat
from typing import Sequence

from .bin_stats import BinSpec, JsonCodec, assign_bin, ground_distance
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


@dataclass(frozen=True)
class MatchConfig(JsonCodec):
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
    det_idx: Sequence[int],
    gt_idx: Sequence[int],
    iou: Sequence[float],
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


def _box_rows(table: LabelTable, rows: list[int]) -> list[tuple[float, ...]]:
    """The rows' boxes as pair_iou rows: center, dims and yaw, as geometry.Box3D takes them."""
    names = ("x", "y", "z", "height", "width", "length", "rotation_y")
    return list(zip(*(map(table.column(name).__getitem__, rows) for name in names)))


def _offsets(table: LabelTable, rows: list[int]) -> list[int]:
    """The frame offsets into rows, an ascending selection of table rows."""
    return [bisect_left(rows, start) for start in table.offsets]


@dataclass(frozen=True)
class _SetMatch:
    """The matching pass over one detection set.

    gt_rows and det_rows are the evaluated table rows in frame order;
    gt_hit and det_hit flag the matched ones; sweep is the positions in
    det_rows in global AP sweep order.
    """

    gt_rows: list[int]
    det_rows: list[int]
    gt_hit: list[bool]
    det_hit: list[bool]
    sweep: list[int]

    def average_precision(self, kind: str) -> float:
        return _interpolated_ap([self.det_hit[i] for i in self.sweep], len(self.gt_rows), kind)


@dataclass(frozen=True)
class _Candidates:
    """The evaluated rows of a ground-truth and detection table pair, and
    the IoU of every same-frame pair of them that the prune keeps.

    det_idx and gt_idx index det_rows and gt_rows; det_frame is each
    detection's frame and frame_rank each frame's rank by frame_id.
    """

    gt_rows: list[int]
    det_rows: list[int]
    det_frame: list[int]
    frame_rank: list[int]
    scores: list[float]
    det_idx: list[int]
    gt_idx: list[int]
    iou: list[float]
    threshold: float

    def match(self, kept: Sequence[bool] | None = None) -> _SetMatch:
        """One greedy pass over the detections, or over those flagged in kept.

        A subset's pairs are a subset of the pairs, so the IoU kernel
        runs once for both.
        """
        det_idx, gt_idx, iou = self.det_idx, self.gt_idx, self.iou
        scores, det_frame, det_rows = self.scores, self.det_frame, self.det_rows
        if kept is not None:
            renumbered = [n - 1 for n in accumulate(map(int, kept))]
            in_set = [kept[d] for d in det_idx]
            det_idx = [renumbered[d] for d in compress(det_idx, in_set)]
            gt_idx, iou = list(compress(gt_idx, in_set)), list(compress(iou, in_set))
            scores, det_frame, det_rows = (list(compress(a, kept)) for a in (scores, det_frame, det_rows))
        gt_hit = [False] * len(self.gt_rows)
        det_hit = [False] * len(det_rows)
        for d, g, _ in _greedy(det_idx, gt_idx, iou, scores, self.threshold):
            det_hit[d] = gt_hit[g] = True
        # Global sweep order: (-score, frame_id, position in frame, frame position).
        first: dict[int, int] = {}
        position = [i - first.setdefault(f, i) for i, f in enumerate(det_frame)]
        rank = self.frame_rank
        sweep = sorted(
            range(len(det_rows)),
            key=lambda i: (-scores[i], rank[det_frame[i]], position[i], det_frame[i]),
        )
        return _SetMatch(self.gt_rows, det_rows, gt_hit, det_hit, sweep)


def _candidates(gt: LabelTable, det: LabelTable, config: MatchConfig) -> _Candidates:
    """The IoU kernel over every frame of a table pair. gt and det hold
    the same frames."""
    gt_rows, det_rows = _eval_rows(gt, det, config)
    score_column = det.scores()
    scores = [score_column[r] for r in det_rows]
    det_offsets = _offsets(det, det_rows)
    det_idx, gt_idx, iou = pair_iou(
        _box_rows(det, det_rows), det_offsets, _box_rows(gt, gt_rows), _offsets(gt, gt_rows), config.iou_kind
    )
    det_frame = [f for f in range(len(det_offsets) - 1) for _ in range(det_offsets[f], det_offsets[f + 1])]
    rank = {frame_id: i for i, frame_id in enumerate(sorted(set(gt.frame_ids)))}
    frame_rank = [rank[frame_id] for frame_id in gt.frame_ids]
    return _Candidates(
        gt_rows, det_rows, det_frame, frame_rank, scores, det_idx, gt_idx, iou, config.iou_threshold
    )


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


@dataclass(frozen=True)
class BinBreakdown(JsonCodec):
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


@dataclass(frozen=True)
class EvalReport(JsonCodec):
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
    per_bin: tuple[BinBreakdown, ...] = field(default_factory=tuple)


def evaluate_tables(
    gt: LabelTable,
    det: LabelTable,
    config: MatchConfig,
    bin_spec: BinSpec | None = None,
    kept: Sequence[bool] | None = None,
) -> EvalReport:
    """The full report for the detections of det against the ground truth
    of gt, two tables of the same frames (kitti_io.load_tables).

    Without kept, every detection row is evaluated and average_precision
    sweeps them. With kept (one flag per row, threshold.keep_rows), point
    metrics, per-bin rows and average_precision_filtered come from the
    kept rows, and average_precision sweeps every row, so that the sweep
    covers the full score range.
    """
    spec = bin_spec if bin_spec is not None else BinSpec()
    candidates = _candidates(gt, det, config)
    subset = None if kept is None else [bool(kept[r]) for r in candidates.det_rows]
    matched = candidates.match(subset)
    overflow = spec.n_bins
    tp_by_bin, fn_by_bin, fp_by_bin = ([0] * (overflow + 1) for _ in range(3))
    for b, hit in zip(_bins(gt, matched.gt_rows, spec), matched.gt_hit):
        (tp_by_bin if hit else fn_by_bin)[b] += 1
    for b, hit in zip(_bins(det, matched.det_rows, spec), matched.det_hit):
        if not hit:
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

    ap_filtered = matched.average_precision(config.ap_interpolation)
    if kept is not None:
        ap = candidates.match().average_precision(config.ap_interpolation)
    else:
        ap, ap_filtered = ap_filtered, None
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


@dataclass(frozen=True)
class MetricDelta:
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
