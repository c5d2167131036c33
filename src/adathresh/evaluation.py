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

Every metric is driven by one IoU matrix per frame (geometry.iou_matrix),
in which a pair whose footprints' bounding circles are provably apart is
0 without clipping, and greedy_match is the only matcher. evaluate builds
the matrix on a frame's unfiltered detections (ap_frames) and matches
twice: on the whole matrix for the unfiltered AP, and on the rows of the
detections that survived the threshold for the point metrics, the per-bin
rows and the filtered AP. Matching never crosses frames, and the global
sweep order restricted to one frame is that frame's matching order
(-score, then position), so per-frame match flags merged in the global
(-score, frame_id, position) order are exactly the flags of a global
score-sorted sweep.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bin_stats import BinSpec, assign_bin
from .geometry import Box3D, iou_3d, iou_bev, iou_matrix
from .kitti_io import DONT_CARE, FramePair, KittiRecord, MissingScoreError

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
class MatchConfig:
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

    def iou_fn(self) -> Callable[[Box3D, Box3D], float]:
        return iou_bev if self.iou_kind == "bev" else iou_3d

    def to_dict(self) -> dict:
        return {
            "iou_kind": self.iou_kind,
            "iou_threshold": self.iou_threshold,
            "class_name": self.class_name,
            "ap_interpolation": self.ap_interpolation,
            "difficulty": self.difficulty,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MatchConfig":
        return cls(
            iou_kind=data["iou_kind"],
            iou_threshold=float(data["iou_threshold"]),
            class_name=data["class_name"],
            ap_interpolation=data["ap_interpolation"],
            difficulty=data.get("difficulty"),
        )


@dataclass(frozen=True)
class FrameMatch:
    """Greedy matching outcome for one frame; indices are list positions."""

    matches: tuple[tuple[int, int, float], ...]  # (det_idx, gt_idx, iou)
    unmatched_gt: tuple[int, ...]
    unmatched_det: tuple[int, ...]


def trade_off(recall: float, precision: float) -> float:
    """Absolute recall/precision gap; 0 means perfectly balanced."""
    return abs(recall - precision)


def _passes_difficulty(record: KittiRecord, difficulty: str | None) -> bool:
    if difficulty is None:
        return True
    min_height, max_occlusion, max_truncation = _DIFFICULTY_LIMITS[difficulty]
    height = record.bbox_2d[3] - record.bbox_2d[1]
    return (
        height >= min_height
        and record.occluded <= max_occlusion
        and record.truncated <= max_truncation
    )


def eval_lists(
    frame: FramePair, config: MatchConfig
) -> tuple[list[KittiRecord], list[KittiRecord]]:
    """Ground truth and detections of the configured class.

    DontCare rows and, when a difficulty stratum is set, ground truth
    outside it are dropped from the ground-truth list.
    """
    gt = [
        r
        for r in frame.ground_truth
        if r.class_name == config.class_name
        and r.class_name != DONT_CARE
        and _passes_difficulty(r, config.difficulty)
    ]
    det = [r for r in frame.detections if r.class_name == config.class_name]
    return gt, det


def _score_of(record: KittiRecord) -> float:
    if record.score is None:
        raise MissingScoreError("detection record has no score")
    return record.score


def greedy_match(
    iou: np.ndarray, scores: Sequence[float], threshold: float
) -> list[tuple[int, int, float]]:
    """Greedy matching of one frame from its [n_det, n_gt] IoU matrix.

    Rows are taken in (-score, row) order; each takes the free column of
    highest IoU at or above threshold, the lowest column on ties.
    Returns (det_idx, gt_idx, iou) in the order the matches were made.
    """
    rows, cols = np.nonzero(iou >= threshold)
    candidates: dict[int, list[tuple[int, float]]] = {}
    for row, col, value in zip(rows.tolist(), cols.tolist(), iou[rows, cols].tolist()):
        candidates.setdefault(row, []).append((col, value))
    taken: set[int] = set()
    matches: list[tuple[int, int, float]] = []
    for det_idx in sorted(candidates, key=lambda i: (-scores[i], i)):
        best_gt = -1
        best_iou = 0.0
        for gt_idx, value in candidates[det_idx]:
            if gt_idx not in taken and value > best_iou:
                best_gt = gt_idx
                best_iou = value
        if best_gt >= 0:
            taken.add(best_gt)
            matches.append((det_idx, best_gt, best_iou))
    return matches


def _frame_iou(
    gt: Sequence[KittiRecord], det: Sequence[KittiRecord], config: MatchConfig
) -> np.ndarray:
    """The configured IoU of every detection with every gt box, [n_det, n_gt]."""
    return iou_matrix([r.to_box3d() for r in gt], [r.to_box3d() for r in det], config.iou_kind)


def match_frame(
    gt: Sequence[KittiRecord],
    det: Sequence[KittiRecord],
    config: MatchConfig,
    iou: np.ndarray | None = None,
) -> FrameMatch:
    """Greedy score-descending matching of one frame.

    Both lists must already be filtered to the class under evaluation
    (see eval_lists); DontCare rows are not expected here. iou, when
    given, is the [n_det, n_gt] matrix of config.iou_kind IoU between
    det and gt, already computed; otherwise it is computed here.
    """
    if iou is None:
        iou = _frame_iou(gt, det, config)
    matches = greedy_match(iou, [_score_of(r) for r in det], config.iou_threshold)
    matched_gt = {m[1] for m in matches}
    matched_det = {m[0] for m in matches}
    return FrameMatch(
        matches=tuple(matches),
        unmatched_gt=tuple(i for i in range(len(gt)) if i not in matched_gt),
        unmatched_det=tuple(i for i in range(len(det)) if i not in matched_det),
    )


def _ratio(numerator: int, denominator: int) -> float:
    """tp / (tp + misses); an empty denominator counts as perfect."""
    return numerator / denominator if denominator > 0 else 1.0


def point_metrics(
    frames: Sequence[FramePair], config: MatchConfig
) -> tuple[float, float, float]:
    """Micro-averaged (recall, precision, trade_off) over all frames.

    Detections are evaluated as given; apply a threshold first if one is
    under test. With no ground truth and no detections at all, recall
    and precision are both 1.0.
    """
    tp = fp = fn = 0
    for frame in frames:
        gt, det = eval_lists(frame, config)
        result = match_frame(gt, det, config)
        tp += len(result.matches)
        fn += len(result.unmatched_gt)
        fp += len(result.unmatched_det)
    recall = _ratio(tp, tp + fn)
    precision = _ratio(tp, tp + fp)
    return recall, precision, trade_off(recall, precision)


def _interpolation_points(kind: str) -> list[float]:
    if kind == ELEVEN_POINT:
        return [i / 10.0 for i in range(11)]
    return [i / 40.0 for i in range(1, 41)]


# One detection of an AP sweep: (-score, frame_id, det_idx, frame_pos, is_tp).
# Sorting these tuples gives the global sweep order; frame_pos only breaks
# ties between frames that share a frame_id.
_SweepEntry = tuple[float, str, int, int, bool]


def _sweep_entries(
    frame_pos: int,
    frame_id: str,
    det: Sequence[KittiRecord],
    matches: Sequence[tuple[int, int, float]],
) -> list[_SweepEntry]:
    matched = {m[0] for m in matches}
    return [
        (-_score_of(record), frame_id, det_idx, frame_pos, det_idx in matched)
        for det_idx, record in enumerate(det)
    ]


def _interpolated_ap(tp_flags: Sequence[bool], total_gt: int, kind: str) -> float:
    """AP (percent) of a sweep given as TP flags in rank order.

    The interpolated precision at a recall point is the best precision
    at that recall or beyond: a reverse running maximum of the precision
    curve, read at the first rank whose recall reaches the point.
    """
    if total_gt == 0:
        raise EvaluationError("average precision is undefined without ground truth")
    recalls: list[float] = []
    best_after: list[float] = []
    cum_tp = 0
    for rank, is_tp in enumerate(tp_flags, start=1):
        cum_tp += is_tp
        recalls.append(cum_tp / total_gt)
        best_after.append(cum_tp / rank)
    for i in range(len(best_after) - 2, -1, -1):
        if best_after[i + 1] > best_after[i]:
            best_after[i] = best_after[i + 1]
    points = _interpolation_points(kind)
    total = 0.0
    for point in points:
        i = bisect_left(recalls, point)
        total += best_after[i] if i < len(best_after) else 0.0
    return 100.0 * total / len(points)


def _sweep_ap(entries: list[_SweepEntry], total_gt: int, kind: str) -> float:
    """AP of the global sweep over entries, sorted into sweep order."""
    return _interpolated_ap([entry[4] for entry in sorted(entries)], total_gt, kind)


def average_precision(frames: Sequence[FramePair], config: MatchConfig) -> float:
    """Interpolated average precision as a percentage in [0, 100].

    Sweeps all detections in a single global score-descending pass (ties
    broken by frame_id, then by record position) without any score
    threshold. Raises EvaluationError when there is no ground truth.
    With distinct scores the result does not depend on record order
    inside detection files.
    """
    entries: list[_SweepEntry] = []
    total_gt = 0
    for frame_pos, frame in enumerate(frames):
        gt, det = eval_lists(frame, config)
        result = match_frame(gt, det, config)
        entries += _sweep_entries(frame_pos, frame.frame_id, det, result.matches)
        total_gt += len(gt)
    return _sweep_ap(entries, total_gt, config.ap_interpolation)


@dataclass(frozen=True)
class BinBreakdown:
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

    def to_dict(self) -> dict:
        return {
            "bin_index": self.bin_index,
            "lo_m": self.lo_m,
            "hi_m": self.hi_m,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "recall": self.recall,
            "precision": self.precision,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BinBreakdown":
        return cls(
            bin_index=int(data["bin_index"]),
            lo_m=float(data["lo_m"]),
            hi_m=None if data["hi_m"] is None else float(data["hi_m"]),
            tp=int(data["tp"]),
            fp=int(data["fp"]),
            fn=int(data["fn"]),
            recall=float(data["recall"]),
            precision=float(data["precision"]),
        )


@dataclass(frozen=True)
class EvalReport:
    """Complete evaluation outcome for one detection set."""

    config: MatchConfig
    tp: int
    fp: int
    fn: int
    recall: float
    precision: float
    trade_off: float
    average_precision: float
    average_precision_filtered: float | None
    per_bin: tuple[BinBreakdown, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "recall": self.recall,
            "precision": self.precision,
            "trade_off": self.trade_off,
            "average_precision": self.average_precision,
            "average_precision_filtered": self.average_precision_filtered,
            "per_bin": [row.to_dict() for row in self.per_bin],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvalReport":
        return cls(
            config=MatchConfig.from_dict(data["config"]),
            tp=int(data["tp"]),
            fp=int(data["fp"]),
            fn=int(data["fn"]),
            recall=float(data["recall"]),
            precision=float(data["precision"]),
            trade_off=float(data["trade_off"]),
            average_precision=float(data["average_precision"]),
            average_precision_filtered=(
                None
                if data.get("average_precision_filtered") is None
                else float(data["average_precision_filtered"])
            ),
            per_bin=tuple(BinBreakdown.from_dict(row) for row in data.get("per_bin", [])),
        )


def _kept_rows(
    source: Sequence[KittiRecord], kept: Sequence[KittiRecord]
) -> list[int] | None:
    """Positions in source of the kept records (by identity), or None
    when kept is not an in-order subsequence of source."""
    rows: list[int] = []
    pos = 0
    for record in kept:
        while pos < len(source) and source[pos] is not record:
            pos += 1
        if pos == len(source):
            return None
        rows.append(pos)
        pos += 1
    return rows


def _same_records(a: Sequence[KittiRecord], b: Sequence[KittiRecord]) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def evaluate(
    frames: Sequence[FramePair],
    config: MatchConfig,
    bin_spec: BinSpec | None = None,
    ap_frames: Sequence[FramePair] | None = None,
) -> EvalReport:
    """Build a full report for a (possibly threshold-filtered) detection set.

    Point metrics and per-bin rows come from `frames`. average_precision
    is computed on ap_frames when given (the unfiltered detections, so
    the sweep covers the full score range) and on `frames` otherwise; in
    the former case the filtered set's AP is reported separately.

    Each frame's IoU matrix is built once, on its ap_frames detections
    when the frame's filtered detections are an in-order subsequence of
    them (the same record objects, the same ground truth), and is shared
    by both matchings; any other frame gets a matrix of its own.
    """
    spec = bin_spec if bin_spec is not None else BinSpec()
    overflow = spec.n_bins
    tp_by_bin = [0] * (spec.n_bins + 1)
    fp_by_bin = [0] * (spec.n_bins + 1)
    fn_by_bin = [0] * (spec.n_bins + 1)

    def bin_of(record: KittiRecord) -> int:
        index = assign_bin(record.ego_distance(), spec)
        return overflow if index is None else index

    sources = list(ap_frames) if ap_frames is not None else []
    source_pos: dict[str, int] = {}
    for pos, source in enumerate(sources):
        source_pos.setdefault(source.frame_id, pos)
    swept: set[int] = set()
    entries: list[_SweepEntry] = []
    ap_entries: list[_SweepEntry] = []
    ap_gt = 0

    def sweep_source(
        pos: int, gt: list[KittiRecord], det: list[KittiRecord], iou: np.ndarray
    ) -> None:
        nonlocal ap_gt
        matches = greedy_match(iou, [_score_of(r) for r in det], config.iou_threshold)
        ap_entries.extend(_sweep_entries(pos, sources[pos].frame_id, det, matches))
        ap_gt += len(gt)
        swept.add(pos)

    for frame_pos, frame in enumerate(frames):
        gt, det = eval_lists(frame, config)
        iou = None
        pos = source_pos.get(frame.frame_id)
        if pos is not None and pos not in swept:
            source_gt, source_det = eval_lists(sources[pos], config)
            kept = _kept_rows(source_det, det) if _same_records(source_gt, gt) else None
            if kept is not None:
                source_iou = _frame_iou(source_gt, source_det, config)
                sweep_source(pos, source_gt, source_det, source_iou)
                iou = source_iou[kept]
        result = match_frame(gt, det, config, iou)
        entries.extend(_sweep_entries(frame_pos, frame.frame_id, det, result.matches))
        for _, gt_idx, _ in result.matches:
            tp_by_bin[bin_of(gt[gt_idx])] += 1
        for gt_idx in result.unmatched_gt:
            fn_by_bin[bin_of(gt[gt_idx])] += 1
        for det_idx in result.unmatched_det:
            fp_by_bin[bin_of(det[det_idx])] += 1
    for pos, source in enumerate(sources):
        if pos not in swept:
            gt, det = eval_lists(source, config)
            sweep_source(pos, gt, det, _frame_iou(gt, det, config))

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

    ap_filtered = _sweep_ap(entries, tp + fn, config.ap_interpolation)
    if ap_frames is not None:
        ap = _sweep_ap(ap_entries, ap_gt, config.ap_interpolation)
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
