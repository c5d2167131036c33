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

Every metric comes from one matching pass per detection set. The
set's boxes go to geometry.pair_iou in batches of whole frames, which
gives the IoU of every same-frame pair that the bounding-circle prune
keeps, bit for bit equal to the scalar IoU; one sparse greedy loop
(_greedy) then matches the pairs at or above the threshold, all frames
at once. evaluate runs this pass on the (filtered) frames for the point
metrics, the per-bin rows and the filtered AP, and again on ap_frames
for the unfiltered AP. Matching never crosses frames, and the global
sweep order restricted to one frame is that frame's matching order
(-score, then position), so the match flags sorted in the global
(-score, frame_id, position, frame position) order are exactly the
flags of a global score-sorted sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from .bin_stats import BinSpec, assign_bin
from .geometry import pair_iou, raw_box_array
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


# Whole frames go to the IoU kernel together until the next frame would
# pass this many candidate pairs, which bounds its temporary arrays; a
# larger frame goes alone.
_BLOCK_PAIRS = 4096


def _greedy(
    det_idx: np.ndarray,
    gt_idx: np.ndarray,
    iou: np.ndarray,
    scores: np.ndarray,
    threshold: float,
) -> list[tuple[int, int, float]]:
    """The greedy matcher, over sparse (det_idx, gt_idx, iou) pairs.

    Detections are taken in (-score, index) order; each takes the free
    ground truth of highest IoU at or above threshold, the lowest index
    on ties. Indices may span many frames as long as no ground-truth
    index is shared between frames. Returns (det_idx, gt_idx, iou) in
    the order the matches were made.
    """
    det_idx, gt_idx, iou = (np.asarray(a) for a in (det_idx, gt_idx, iou))
    usable = (iou >= threshold) & (iou > 0.0)
    det_idx, gt_idx, iou = det_idx[usable], gt_idx[usable], iou[usable]
    order = np.lexsort((gt_idx, -iou, det_idx, -scores[det_idx]))
    done: set[int] = set()
    taken: set[int] = set()
    matches: list[tuple[int, int, float]] = []
    for d, g, value in zip(det_idx[order].tolist(), gt_idx[order].tolist(), iou[order].tolist()):
        if d not in done and g not in taken:
            done.add(d)
            taken.add(g)
            matches.append((d, g, value))
    return matches


def _box_array(records: Sequence[KittiRecord]) -> np.ndarray:
    """The records' boxes (KittiRecord.to_box3d) as a geometry box array."""
    n = len(records)
    location = np.fromiter(chain.from_iterable(map(attrgetter("location"), records)), float, 3 * n)
    dims = np.fromiter(chain.from_iterable(map(attrgetter("dimensions"), records)), float, 3 * n)
    yaw = np.fromiter(map(attrgetter("rotation_y"), records), float, n)
    return raw_box_array(np.column_stack([location.reshape(n, 3), dims.reshape(n, 3), yaw]))


def _scores(det: Sequence[KittiRecord]) -> np.ndarray:
    scores = [r.score for r in det]
    if None in scores:
        raise MissingScoreError("detection record has no score")
    return np.array(scores, dtype=float)


@dataclass(frozen=True)
class _SetMatch:
    """The matching pass over one detection set, flattened in frame order.

    gt and det hold every frame's eval_lists; gt_hit and det_hit flag the
    matched ones; sweep is the positions in det in global AP sweep order.
    """

    gt: list[KittiRecord]
    det: list[KittiRecord]
    gt_hit: np.ndarray
    det_hit: np.ndarray
    sweep: np.ndarray

    def average_precision(self, kind: str) -> float:
        return _interpolated_ap(self.det_hit[self.sweep].tolist(), len(self.gt), kind)


def _blocks(pair_counts: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) frame ranges of at most _BLOCK_PAIRS candidate pairs,
    except a single frame with more."""
    blocks: list[tuple[int, int]] = []
    start, total = 0, 0
    for frame, count in enumerate(pair_counts.tolist()):
        if total + count > _BLOCK_PAIRS and frame > start:
            blocks.append((start, frame))
            start, total = frame, 0
        total += count
    if start < len(pair_counts):
        blocks.append((start, len(pair_counts)))
    return blocks


def _match_set(frames: Sequence[FramePair], config: MatchConfig) -> _SetMatch:
    """Match every frame: the IoU kernel in blocks of whole frames, then one
    greedy pass over all pairs."""
    gt: list[KittiRecord] = []
    det: list[KittiRecord] = []
    gt_offsets, det_offsets = [0], [0]
    for frame in frames:
        frame_gt, frame_det = eval_lists(frame, config)
        gt += frame_gt
        det += frame_det
        gt_offsets.append(len(gt))
        det_offsets.append(len(det))
    scores = _scores(det)
    go, do = np.array(gt_offsets), np.array(det_offsets)
    pairs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for start, stop in _blocks(np.diff(go) * np.diff(do)):
        d, g, iou = pair_iou(
            _box_array(det[do[start] : do[stop]]),
            do[start : stop + 1] - do[start],
            _box_array(gt[go[start] : go[stop]]),
            go[start : stop + 1] - go[start],
            config.iou_kind,
        )
        pairs.append((d + do[start], g + go[start], iou))
    gt_hit = np.zeros(len(gt), dtype=bool)
    det_hit = np.zeros(len(det), dtype=bool)
    if pairs:
        for d, g, _ in _greedy(*map(np.concatenate, zip(*pairs)), scores, config.iou_threshold):
            det_hit[d] = gt_hit[g] = True
    # Global sweep order: (-score, frame_id, position in frame, frame position).
    per_frame = np.diff(do)
    frame_ids = [frame.frame_id for frame in frames]
    rank = {frame_id: i for i, frame_id in enumerate(sorted(set(frame_ids)))}
    frame_pos = np.repeat(np.arange(len(frames)), per_frame)
    position = np.arange(len(det)) - np.repeat(do[:-1], per_frame)
    frame_rank = np.repeat(np.array([rank[i] for i in frame_ids], dtype=int), per_frame)
    sweep = np.lexsort((frame_pos, position, frame_rank, -scores))
    return _SetMatch(gt, det, gt_hit, det_hit, sweep)


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
    cum_tp = np.cumsum(np.asarray(tp_flags, dtype=bool))
    recalls = cum_tp / total_gt
    best_after = np.maximum.accumulate((cum_tp / np.arange(1, len(cum_tp) + 1))[::-1])[::-1]
    points = _interpolation_points(kind)
    total = 0.0
    for i in np.searchsorted(recalls, points).tolist():
        total += best_after[i] if i < len(best_after) else 0.0
    return 100.0 * total / len(points)


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
    """
    spec = bin_spec if bin_spec is not None else BinSpec()
    overflow = spec.n_bins
    tp_by_bin = [0] * (spec.n_bins + 1)
    fp_by_bin = [0] * (spec.n_bins + 1)
    fn_by_bin = [0] * (spec.n_bins + 1)

    def bin_of(record: KittiRecord) -> int:
        index = assign_bin(record.ego_distance(), spec)
        return overflow if index is None else index

    matched = _match_set(frames, config)
    for record, hit in zip(matched.gt, matched.gt_hit.tolist()):
        if hit:
            tp_by_bin[bin_of(record)] += 1
        else:
            fn_by_bin[bin_of(record)] += 1
    for record, hit in zip(matched.det, matched.det_hit.tolist()):
        if not hit:
            fp_by_bin[bin_of(record)] += 1

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
    if ap_frames is not None:
        ap = _match_set(ap_frames, config).average_precision(config.ap_interpolation)
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
