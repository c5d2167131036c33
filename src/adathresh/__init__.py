"""Distance-adaptive confidence thresholding for KITTI-format 3D detections.

The package replaces a single global confidence threshold with a
piecewise model (quadratic up to a cutover distance, constant beyond),
fits that model from distance-binned score statistics, and evaluates
the effect with matched precision/recall and interpolated average
precision.
"""

from .bin_stats import BinSpec, BinStats, PreFilter, assign_bin, compute_bin_stats
from .evaluation import (
    EvalReport,
    EvaluationError,
    MatchConfig,
    average_precision,
    compare_reports,
    evaluate,
    greedy_match,
    match_frame,
    point_metrics,
    trade_off,
)
from .geometry import Box3D, ego_distance, iou_3d, iou_bev, iou_matrix
from .kitti_io import (
    DatasetError,
    FramePair,
    KittiIOError,
    KittiRecord,
    LabelError,
    load_dataset,
    parse_label_file,
    serialize_records,
    write_label_file,
)
from .synthetic import ScenarioSpec, ScoreModel, generate, known_optimal_counts
from .threshold import (
    FitError,
    FitResult,
    ModelRangeError,
    ThresholdModel,
    apply_adaptive,
    apply_single,
    fit_quadratic,
    threshold_at,
)

__version__ = "0.1.0"

__all__ = [
    "BinSpec",
    "BinStats",
    "Box3D",
    "DatasetError",
    "EvalReport",
    "EvaluationError",
    "FitError",
    "FitResult",
    "FramePair",
    "KittiIOError",
    "KittiRecord",
    "LabelError",
    "MatchConfig",
    "ModelRangeError",
    "PreFilter",
    "ScenarioSpec",
    "ScoreModel",
    "ThresholdModel",
    "__version__",
    "apply_adaptive",
    "apply_single",
    "assign_bin",
    "average_precision",
    "compare_reports",
    "compute_bin_stats",
    "ego_distance",
    "evaluate",
    "fit_quadratic",
    "generate",
    "greedy_match",
    "iou_3d",
    "iou_bev",
    "iou_matrix",
    "known_optimal_counts",
    "load_dataset",
    "match_frame",
    "parse_label_file",
    "point_metrics",
    "serialize_records",
    "threshold_at",
    "trade_off",
    "write_label_file",
]
