"""Acceptance gate: one test per shipping criterion.

Run with `pytest -v tests/test_acceptance.py` to get one PASS/FAIL line
per criterion; each test also prints an `acceptance N <name>: PASS`
line (visible with -s or in failure output) and enforces its runtime
budget where one applies.
"""

import math
import random
import time
from array import array
from contextlib import contextmanager

import numpy as np

from adathresh.bin_stats import BinSpec, BinStats, ModelRangeError, compute_bin_stats, keep_rows
from adathresh.evaluation import MatchConfig, _candidates, _match, _sweep, evaluate_tables, trade_off
from adathresh.geometry import pair_iou
from adathresh.kitti_io import DONT_CARE, LabelTable, label_files, read_label_table, write_files
from adathresh.synthetic import ScenarioSpec, ScoreModel, generate, known_optimal_counts
from adathresh.threshold import SingleThreshold, ThresholdModel, fit_quadratic
from helpers import (
    box_columns,
    brute_force_match,
    constructed,
    iou_bev,
    label_text,
    make_box,
    make_record,
    mc_iou_bev,
    optimal_assignment,
    random_scene,
    read_text,
    replaced,
    score_list,
)


@contextmanager
def criterion(number, name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"acceptance {number} {name}: FAIL")
        raise AssertionError(f"{name}: {elapsed:.2f}s exceeded the {budget_s:.0f}s budget")
    print(f"acceptance {number} {name}: PASS ({elapsed:.2f}s)")


# Reference operating points: (recall, precision, trade-off cell).
# The four single-threshold PointPillars rows, the SECOND / PointRCNN /
# PV-RCNN single rows, and the non-PointPillars adaptive rows all
# reproduce |recall - precision| at three decimals.
CONSISTENT_CELLS = [
    (0.895, 0.646, 0.249),
    (0.807, 0.847, 0.040),
    (0.655, 0.943, 0.288),
    (0.808, 0.856, 0.048),
    (0.899, 0.848, 0.051),
    (0.969, 0.731, 0.238),
    (0.792, 0.823, 0.031),
    (0.849, 0.815, 0.034),
    (0.893, 0.792, 0.101),
]


def test_acceptance_1_trade_off_identity():
    with criterion(1, "trade-off identity", budget_s=1.0):
        for recall, precision, cell in CONSISTENT_CELLS:
            assert round(trade_off(recall, precision), 3) == cell, (recall, precision)
        # PV-RCNN's adaptive row improves its trade-off by 0.137.
        delta = trade_off(0.893, 0.792) - trade_off(0.969, 0.731)
        assert round(delta, 3) == -0.137
        # Pinned discrepancy: the PointPillars adaptive cell appears
        # inconsistently as 0.025 and 0.023 in the reference results,
        # but the stated recall/precision pair gives 0.027. The
        # identity, not the misprints, is what this suite enforces.
        assert round(trade_off(0.786, 0.813), 3) == 0.027
        assert round(trade_off(0.786, 0.813), 3) not in (0.025, 0.023)


def test_acceptance_2_threshold_curve_values():
    with criterion(2, "threshold curve evaluation"):
        model = ThresholdModel(alpha=-0.00002, beta=-0.0061, gamma=0.6828, delta=60.0, k=0.6)
        assert model.threshold_at(0.0) == 0.6828
        assert abs(model.threshold_at(40.0) - 0.4068) <= 1e-9
        assert abs(model.threshold_at(60.0) - 0.2448) <= 1e-9


def _random_quadratic(rng):
    """Coefficients of a quadratic through three in-[0.05, 0.95] values.

    The construction keeps |alpha|, |beta|, |gamma| well below 1; draws
    whose interior extremum still leaves [0, 1] are skipped by callers.
    """
    y0, y_mid, y_end = rng.uniform(0.05, 0.95, size=3)
    alpha = (y0 - 2.0 * y_mid + y_end) / 1800.0
    beta = (y_end - y0) / 60.0 - 60.0 * alpha
    return float(alpha), float(beta), float(y0)


def test_acceptance_3_fit_recovery():
    with criterion(3, "fit recovery", budget_s=5.0):
        spec = BinSpec()
        centers = [spec.center(i) for i in range(spec.n_bins)]
        rng = np.random.Generator(np.random.Philox(1234))

        recovered = 0
        for _ in range(200):
            alpha, beta, gamma = _random_quadratic(rng)
            assert max(abs(alpha), abs(beta), abs(gamma)) <= 1.0
            means = [(alpha * x + beta) * x + gamma for x in centers]
            stds = [float(s) for s in rng.uniform(0.01, 0.2, size=spec.n_bins)]
            stats = [
                BinStats(i, 1000, means[i], stds[i]) for i in range(spec.n_bins)
            ]
            try:
                result = fit_quadratic(stats, spec, delta=60.0, k=0.5)
            except ModelRangeError:
                continue
            assert abs(result.model.alpha - alpha) <= 1e-9
            assert abs(result.model.beta - beta) <= 1e-9
            assert abs(result.model.gamma - gamma) <= 1e-9
            recovered += 1
        assert recovered >= 100

        noisy_ok = 0
        for _ in range(5):
            alpha, beta, gamma = _random_quadratic(rng)
            samples = []
            for x in centers:
                mean = (alpha * x + beta) * x + gamma
                scores = mean + 0.02 * rng.standard_normal(10_000)
                samples.extend((x, float(s)) for s in scores)
            stats = compute_bin_stats(samples, spec)
            assert all(entry.count == 10_000 for entry in stats)
            try:
                result = fit_quadratic(stats, spec, delta=60.0, k=0.5)
            except ModelRangeError:
                continue
            assert abs(result.model.alpha - alpha) <= 5e-3
            assert abs(result.model.beta - beta) <= 5e-3
            assert abs(result.model.gamma - gamma) <= 5e-3
            noisy_ok += 1
        assert noisy_ok >= 3


def test_acceptance_4_geometry_oracle():
    with criterion(4, "geometry oracle", budget_s=30.0):
        rng = np.random.Generator(np.random.Philox(42))
        for index in range(100):
            ax, az = rng.uniform(-20.0, 20.0, size=2)
            bx = ax + float(rng.uniform(-4.0, 4.0))
            bz = az + float(rng.uniform(-4.0, 4.0))
            dims_a = tuple(float(v) for v in rng.uniform(0.5, 4.0, size=3))
            dims_b = tuple(float(v) for v in rng.uniform(0.5, 4.0, size=3))
            yaw_a = float(rng.uniform(-math.pi, math.pi))
            yaw_b = float(rng.uniform(-math.pi, math.pi))
            a = make_box(float(ax), float(az), dims=dims_a, yaw=yaw_a)
            b = make_box(bx, bz, dims=dims_b, yaw=yaw_b)

            exact = iou_bev(a, b)
            estimate = mc_iou_bev(a, b, n=1_000_000, seed=index)
            assert abs(exact - estimate) <= 2e-2, f"pair {index}"

            assert abs(iou_bev(a, b) - iou_bev(b, a)) <= 1e-9

            shift_a = make_box(float(ax) + 13.75, float(az) - 8.5, dims=dims_a, yaw=yaw_a)
            shift_b = make_box(bx + 13.75, bz - 8.5, dims=dims_b, yaw=yaw_b)
            assert abs(exact - iou_bev(shift_a, shift_b)) <= 1e-6


def test_acceptance_5_matching_oracle():
    with criterion(5, "matching oracle"):
        config = MatchConfig(iou_kind="bev", iou_threshold=0.5)
        optimal_hits = 0
        for seed in range(500):
            rng = random.Random(seed)
            gt, det = random_scene(rng)
            pairs = pair_iou(box_columns(det), [0, len(det)], box_columns(gt), [0, len(gt)], "bev")
            candidates = _candidates(pairs, len(det), config.iou_threshold)
            greedy_pairs = _match(_sweep(score_list(det)), candidates)
            assert greedy_pairs == brute_force_match(gt, det, iou_bev, config.iou_threshold)

            matrix = [[iou_bev(d.to_box3d(), g.to_box3d()) for g in gt] for d in det]
            best_count, _ = optimal_assignment(matrix, config.iou_threshold)
            assert len(greedy_pairs) <= best_count
            if len(greedy_pairs) == best_count:
                optimal_hits += 1
        assert optimal_hits >= 475  # 95% of 500


# Scenario engineered so that every false positive's score sits below
# the adaptive curve at its distance while far true detections score
# well above the far constant k.
ADAPTIVE_MODEL = ThresholdModel(alpha=-0.00025, beta=0.0, gamma=0.8, delta=40.0, k=0.1)
SCENARIO = ScenarioSpec(
    seed=90210,
    n_frames=300,
    objects_per_frame=(2, 5),
    distance_range=(2.0, 60.0),
    score_model=ScoreModel(
        a=-0.00004,
        b=-0.0075,
        c=0.92,
        noise_std=(0.01, 0.012, 0.015, 0.02, 0.035, 0.05),
    ),
    fp_rate_per_bin=(0.5, 0.4, 0.3, 0.2, 0.15, 0.1),
    fn_rate_per_bin=(0.02, 0.03, 0.05, 0.08, 0.12, 0.18),
)


def _pooled(report, which):
    tp = fp = fn = 0
    for row in report.per_bin:
        near = row.hi_m is not None and row.hi_m <= 30.0
        far = row.lo_m >= 40.0
        if (which == "near" and near) or (which == "far" and far):
            tp += row.tp
            fp += row.fp
            fn += row.fn
    return tp, fp, fn


def test_acceptance_6_end_to_end_synthetic():
    with criterion(6, "end-to-end synthetic dominance"):
        gt, det = generate(SCENARIO)
        config = MatchConfig(iou_kind="bev", iou_threshold=0.7)

        def eval_with(schedule):
            return evaluate_tables(gt, det, config, kept=keep_rows(det, schedule))

        adaptive = eval_with(ADAPTIVE_MODEL)
        oracle = known_optimal_counts(SCENARIO, ADAPTIVE_MODEL)
        assert oracle == (adaptive.tp, adaptive.fp, adaptive.fn)

        near_tp, near_fp, _ = _pooled(adaptive, "near")
        far_tp, _, far_fn = _pooled(adaptive, "far")
        assert near_tp + near_fp > 0 and far_tp + far_fn > 0
        adaptive_near_precision = near_tp / (near_tp + near_fp)
        adaptive_far_recall = far_tp / (far_tp + far_fn)

        for constant in (0.3, 0.5, 0.7):
            report = eval_with(SingleThreshold(constant))
            tp, fp, _ = _pooled(report, "near")
            assert tp + fp > 0
            assert adaptive_near_precision > tp / (tp + fp), f"near precision vs {constant}"
            tp, _, fn = _pooled(report, "far")
            assert tp + fn > 0
            assert adaptive_far_recall > tp / (tp + fn), f"far recall vs {constant}"


def test_acceptance_7_average_precision_fixture():
    # Benchmark-scale mAP (the 77.28-79.49 range reported for real
    # detectors) needs KITTI ground truth plus trained detector
    # outputs; it is explicitly NOT a target of this suite. What is
    # checked instead: the AP computation itself on fixtures.
    with criterion(7, "average precision fixture"):
        print(
            "note: absolute benchmark mAP values (77.28-79.49) require "
            "real KITTI data and detector outputs; not targets here"
        )
        config = MatchConfig(iou_kind="bev", iou_threshold=0.7)

        perfect_spec = ScenarioSpec(
            seed=7,
            n_frames=20,
            objects_per_frame=(2, 4),
            distance_range=(2.0, 58.0),
            score_model=ScoreModel(a=-0.00004, b=-0.0075, c=0.92, noise_std=(0.0,) * 6),
            fp_rate_per_bin=(0.0,) * 6,
            fn_rate_per_bin=(0.0,) * 6,
        )
        assert evaluate_tables(*generate(perfect_spec), config).average_precision == 100.0

        # The first 80 frames of SCENARIO: frames are drawn one after another.
        gt, noisy = generate(replaced(SCENARIO, n_frames=80))
        baseline = evaluate_tables(gt, noisy, config).average_precision
        assert abs(evaluate_tables(gt, _reversed_frames(noisy), config).average_precision - baseline) <= 1e-9


def _reversed_frames(table):
    """table with each frame's rows in reverse order."""
    order = [row for start, stop in zip(table.offsets, table.offsets[1:]) for row in reversed(range(start, stop))]
    return LabelTable(
        table.frame_ids,
        table.files,
        table.offsets,
        [table.class_names[row] for row in order],
        tuple(array("d", map(column.__getitem__, order)) for column in table.columns),
        [table.lines[row] for row in order],
    )


def _corpus_files(rng):
    """50 label files: half with scores, DontCare rows, CRLF variants."""
    files = []
    for index in range(50):
        with_score = index % 2 == 1
        records = []
        for _ in range(rng.randint(0, 6)):
            records.append(
                make_record(
                    rng.uniform(-30.0, 30.0),
                    rng.uniform(1.0, 80.0),
                    dims=(rng.uniform(1.2, 2.0), rng.uniform(1.4, 2.2), rng.uniform(3.2, 5.0)),
                    yaw=rng.uniform(-math.pi, math.pi),
                    score=rng.random() if with_score else None,
                    class_name=rng.choice(("Car", "Pedestrian", "Cyclist")),
                )
            )
        if not with_score and rng.random() < 0.5:
            records.append(
                make_record(
                    rng.uniform(-30.0, 30.0),
                    rng.uniform(1.0, 80.0),
                    dims=(-1.0, -1.0, -1.0),
                    class_name="DontCare",
                )
            )
        text = label_text(records)
        if index % 3 == 0:
            text = text.replace("\n", "\r\n")
        files.append((records, text, with_score))
    return files



def test_acceptance_8_parser_round_trip(tmp_path):
    with criterion(8, "parser round trip"):
        rng = random.Random(20240819)
        corpus = _corpus_files(rng)
        assert len(corpus) == 50
        saw_dontcare = saw_crlf = False
        for index, (records, text, with_score) in enumerate(corpus):
            saw_crlf = saw_crlf or "\r\n" in text
            first = read_text(tmp_path / f"in{index}", text, with_score)
            saw_dontcare = saw_dontcare or DONT_CARE in first.class_names
            assert list(map(constructed, first.lines)) == records
            write_files(tmp_path / f"out{index}", label_files(first))
            again = read_label_table(tmp_path / f"out{index}", "label", expect_score=with_score)
            assert (again.class_names, again.columns, again.lines) == (first.class_names, first.columns, first.lines)
        assert saw_dontcare and saw_crlf
