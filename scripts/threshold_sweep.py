#!/usr/bin/env python3
"""Sweep constant thresholds against the fitted adaptive curve.

Generates a synthetic scenario in memory, evaluates every constant
threshold on a grid, then fits the distance-adaptive threshold from the
same detections and evaluates it. The table shows why a single constant
cannot win at both ends of the range: near-range precision and
far-range recall are pooled separately from the per-bin breakdown.

Usage:
    python3 scripts/threshold_sweep.py
    python3 scripts/threshold_sweep.py --thresholds 0.3,0.5,0.7 --n-frames 500
"""

from __future__ import annotations

import argparse
import sys

from adathresh.bin_stats import compute_bin_stats, keep_rows, table_samples
from adathresh.evaluation import EvalReport, MatchConfig, evaluate_tables
from adathresh.synthetic import ScenarioSpec, ScoreModel, generate
from adathresh.threshold import SingleThreshold, fit_quadratic


def build_spec(seed: int, n_frames: int) -> ScenarioSpec:
    return ScenarioSpec(
        seed=seed,
        n_frames=n_frames,
        objects_per_frame=(2, 5),
        distance_range=(2.0, 60.0),
        score_model=ScoreModel(
            a=-4e-05,
            b=-0.0075,
            c=0.92,
            noise_std=(0.01, 0.012, 0.015, 0.02, 0.035, 0.05),
        ),
        fp_rate_per_bin=(0.5, 0.4, 0.3, 0.2, 0.15, 0.1),
        fn_rate_per_bin=(0.02, 0.03, 0.05, 0.08, 0.12, 0.18),
    )


def pooled(report: EvalReport, *, near: float, far: float) -> tuple[float, float]:
    """(near-range precision, far-range recall) from the per-bin rows."""
    near_tp = near_fp = far_tp = far_fn = 0
    for row in report.per_bin:
        if row.hi_m is not None and row.hi_m <= near:
            near_tp += row.tp
            near_fp += row.fp
        if row.lo_m >= far:
            far_tp += row.tp
            far_fn += row.fn
    near_precision = near_tp / (near_tp + near_fp) if near_tp + near_fp else 1.0
    far_recall = far_tp / (far_tp + far_fn) if far_tp + far_fn else 1.0
    return near_precision, far_recall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=90210)
    parser.add_argument("--n-frames", type=int, default=300)
    parser.add_argument(
        "--thresholds",
        default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8",
        help="comma-separated constant thresholds to sweep",
    )
    parser.add_argument("--iou-thr", type=float, default=0.7, help="matching IoU threshold")
    parser.add_argument("--near", type=float, default=30.0, help="near-range pool upper edge in meters")
    parser.add_argument("--far", type=float, default=40.0, help="far-range pool lower edge in meters")
    args = parser.parse_args(argv)

    spec = build_spec(args.seed, args.n_frames)
    gt, det = generate(spec)
    config = MatchConfig(iou_threshold=args.iou_thr)
    bin_spec = spec.bin_spec

    samples = table_samples(det, config.class_name, pre_filter=None)
    stats = compute_bin_stats(samples, bin_spec)
    fit = fit_quadratic(stats, bin_spec, delta=bin_spec.max_distance, k=None)
    model = fit.model

    schedules = [(f"single {float(t):.2f}", SingleThreshold(float(t))) for t in args.thresholds.split(",")]
    rows = []
    for name, schedule in schedules + [("adaptive", model)]:
        rows.append((name, evaluate_tables(gt, det, config, bin_spec, keep_rows(det, schedule))))

    print(
        f"fitted model: alpha={model.alpha:.6g} beta={model.beta:.6g} "
        f"gamma={model.gamma:.6g} delta={model.delta:.6g} k={model.k:.6g}"
    )
    print(f"weighted rmse={fit.weighted_rmse:.4f} over bins {fit.bin_indices}")
    print()
    header = (
        f"{'mode':<12} {'tp':>5} {'fp':>5} {'fn':>5} {'recall':>7} {'precision':>9} "
        f"{'trade_off':>9} {'near_prec':>9} {'far_rec':>8}"
    )
    print(header)
    print("-" * len(header))
    for name, report in rows:
        near_precision, far_recall = pooled(report, near=args.near, far=args.far)
        print(
            f"{name:<12} {report.tp:>5} {report.fp:>5} {report.fn:>5} "
            f"{report.recall:>7.3f} {report.precision:>9.3f} {report.trade_off:>9.3f} "
            f"{near_precision:>9.3f} {far_recall:>8.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
