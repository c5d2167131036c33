"""Distance-adaptive confidence thresholding for KITTI-format 3D detections.

The package replaces a single global confidence threshold with a
piecewise model (quadratic up to a cutover distance, constant beyond),
fits that model from distance-binned score statistics, and evaluates
the effect with matched precision/recall and interpolated average
precision.

The names below load on first access (PEP 562), so ``import adathresh``
imports no submodule and no numpy until a name that needs it is used.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "BinSpec": "bin_stats",
    "BinStats": "bin_stats",
    "PreFilter": "bin_stats",
    "assign_bin": "bin_stats",
    "compute_bin_stats": "bin_stats",
    "table_samples": "bin_stats",
    "EvalReport": "evaluation",
    "EvaluationError": "evaluation",
    "MatchConfig": "evaluation",
    "compare_reports": "evaluation",
    "evaluate_tables": "evaluation",
    "trade_off": "evaluation",
    "Box3D": "geometry",
    "iou_3d": "geometry",
    "iou_bev": "geometry",
    "DatasetError": "kitti_io",
    "KittiIOError": "kitti_io",
    "LabelError": "kitti_io",
    "LabelTable": "kitti_io",
    "load_tables": "kitti_io",
    "read_label_table": "kitti_io",
    "ScenarioSpec": "synthetic",
    "ScoreModel": "synthetic",
    "generate": "synthetic",
    "known_optimal_counts": "synthetic",
    "FitError": "threshold",
    "FitResult": "threshold",
    "ModelRangeError": "threshold",
    "SingleThreshold": "threshold",
    "ThresholdModel": "threshold",
    "fit_quadratic": "threshold",
    "keep_rows": "threshold",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
