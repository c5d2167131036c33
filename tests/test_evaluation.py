"""Matching, point metrics, interpolated AP, and report comparison."""

import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adathresh.bin_stats import BinSpec
from adathresh.evaluation import (
    EvalReport,
    EvaluationError,
    MatchConfig,
    MetricDelta,
    _interpolated_ap,
    average_precision,
    compare_reports,
    evaluate,
    greedy_match,
    match_frame,
    point_metrics,
    trade_off,
)
from adathresh.kitti_io import FramePair, MissingScoreError
from adathresh.threshold import apply_single
from helpers import (
    brute_force_match,
    loop_interpolated_ap,
    make_record,
    random_scene,
    three_pass_evaluate,
)

BEV_CFG = MatchConfig(iou_kind="bev", iou_threshold=0.5)


def frame(frame_id, gt, det):
    return FramePair(frame_id=frame_id, ground_truth=tuple(gt), detections=tuple(det))


def single_frame(gt, det):
    return [frame("000000", gt, det)]


class TestMatchConfig:
    def test_defaults(self):
        cfg = MatchConfig()
        assert cfg.iou_kind == "bev"
        assert cfg.iou_threshold == 0.7
        assert cfg.class_name == "Car"
        assert cfg.difficulty is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iou_kind": "2d"},
            {"iou_threshold": 0.0},
            {"iou_threshold": 1.5},
            {"class_name": ""},
            {"ap_interpolation": "area"},
            {"difficulty": "extreme"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MatchConfig(**kwargs)

    def test_dict_round_trip(self):
        cfg = MatchConfig(
            iou_kind="3d",
            iou_threshold=0.5,
            class_name="Pedestrian",
            ap_interpolation="forty_point",
            difficulty="moderate",
        )
        assert MatchConfig.from_dict(cfg.to_dict()) == cfg
        assert MatchConfig.from_dict(MatchConfig().to_dict()) == MatchConfig()


class TestTradeOff:
    def test_balanced_is_zero(self):
        assert trade_off(0.8, 0.8) == 0.0

    def test_absolute_gap(self):
        assert trade_off(0.786, 0.813) == pytest.approx(0.027, abs=1e-12)
        assert trade_off(0.813, 0.786) == pytest.approx(0.027, abs=1e-12)


class TestGreedyMatch:
    def test_rows_in_score_order_take_best_free_column(self):
        iou = np.array([[0.8, 0.9], [0.95, 0.0]])
        assert greedy_match(iou, [0.5, 0.9], 0.5) == [(1, 0, 0.95), (0, 1, 0.9)]

    def test_ties_go_to_lower_row_and_lower_column(self):
        iou = np.array([[0.7, 0.7], [0.7, 0.7]])
        assert greedy_match(iou, [0.6, 0.6], 0.5) == [(0, 0, 0.7), (1, 1, 0.7)]

    def test_threshold_is_inclusive(self):
        iou = np.array([[0.5, 0.4999999999999999]])
        assert greedy_match(iou, [0.9], 0.5) == [(0, 0, 0.5)]
        assert greedy_match(iou, [0.9], 0.6) == []

    def test_empty_matrices(self):
        assert greedy_match(np.zeros((0, 3)), [], 0.5) == []
        assert greedy_match(np.zeros((2, 0)), [0.9, 0.8], 0.5) == []


class TestMatchFrame:
    def test_single_pair(self):
        gt = [make_record(0.0, 10.0)]
        det = [make_record(0.0, 10.0, score=0.9)]
        result = match_frame(gt, det, BEV_CFG)
        assert result.matches == ((0, 0, 1.0),)
        assert result.unmatched_gt == ()
        assert result.unmatched_det == ()

    def test_higher_score_wins_regardless_of_position(self):
        gt = [make_record(0.0, 10.0)]
        det = [
            make_record(0.1, 10.0, score=0.8),
            make_record(0.0, 10.0, score=0.9),
        ]
        result = match_frame(gt, det, BEV_CFG)
        assert [(d, g) for d, g, _ in result.matches] == [(1, 0)]
        assert result.unmatched_det == (0,)

    def test_equal_scores_favor_lower_detection_index(self):
        gt = [make_record(0.0, 10.0)]
        det = [
            make_record(0.1, 10.0, score=0.8),
            make_record(0.0, 10.0, score=0.8),
        ]
        result = match_frame(gt, det, BEV_CFG)
        assert [(d, g) for d, g, _ in result.matches] == [(0, 0)]

    def test_detection_takes_highest_iou_ground_truth(self):
        # At yaw 0 the 1.7 m width lies along z; the detection overlaps
        # both boxes but the second (IoU 0.89 vs 0.62) more.
        gt = [make_record(0.0, 10.0), make_record(0.0, 10.5)]
        det = [make_record(0.0, 10.4, score=0.9)]
        result = match_frame(gt, det, BEV_CFG)
        assert [(d, g) for d, g, _ in result.matches] == [(0, 1)]
        assert result.unmatched_gt == (0,)

    def test_iou_below_threshold_not_matched(self):
        gt = [make_record(0.0, 10.0)]
        det = [make_record(0.0, 11.4, score=0.9)]
        result = match_frame(gt, det, BEV_CFG)
        assert result.matches == ()
        assert result.unmatched_gt == (0,)
        assert result.unmatched_det == (0,)

    def test_missing_score_raises(self):
        gt = [make_record(0.0, 10.0)]
        det = [make_record(0.0, 10.0)]
        with pytest.raises(MissingScoreError):
            match_frame(gt, det, BEV_CFG)

    def test_agrees_with_reference_matcher(self):
        for seed in range(25):
            rng = random.Random(seed)
            gt, det = random_scene(rng)
            result = match_frame(gt, det, BEV_CFG)
            expected = brute_force_match(gt, det, BEV_CFG.iou_fn(), BEV_CFG.iou_threshold)
            assert [(d, g) for d, g, _ in result.matches] == expected, f"seed {seed}"

    @given(st.integers(0, 2**32 - 1))
    def test_conservation(self, seed):
        rng = random.Random(seed)
        gt, det = random_scene(rng)
        result = match_frame(gt, det, BEV_CFG)
        matched_gt = [g for _, g, _ in result.matches]
        matched_det = [d for d, _, _ in result.matches]
        assert len(set(matched_gt)) == len(matched_gt)
        assert len(set(matched_det)) == len(matched_det)
        assert sorted(matched_gt + list(result.unmatched_gt)) == list(range(len(gt)))
        assert sorted(matched_det + list(result.unmatched_det)) == list(range(len(det)))
        assert all(iou >= BEV_CFG.iou_threshold for _, _, iou in result.matches)


class TestPointMetrics:
    def test_no_frames_is_vacuously_perfect(self):
        assert point_metrics([], BEV_CFG) == (1.0, 1.0, 0.0)

    def test_perfect_detector(self):
        gt = [make_record(0.0, 10.0), make_record(0.0, 25.0)]
        det = [make_record(0.0, 10.0, score=0.9), make_record(0.0, 25.0, score=0.8)]
        frames = [frame("000000", gt, det), frame("000001", gt, det)]
        assert point_metrics(frames, BEV_CFG) == (1.0, 1.0, 0.0)

    def test_micro_average_over_frames(self):
        # Frame 1: one of two gts found, plus a false positive.
        # Frame 2: its single gt found, plus another false positive.
        # Totals tp=2 fn=1 fp=2: recall 2/3, precision 1/2.
        f1 = frame(
            "000000",
            [make_record(0.0, 10.0), make_record(0.0, 25.0)],
            [make_record(0.0, 10.0, score=0.9), make_record(8.0, 40.0, score=0.7)],
        )
        f2 = frame(
            "000001",
            [make_record(0.0, 15.0)],
            [make_record(0.0, 15.0, score=0.8), make_record(-8.0, 50.0, score=0.6)],
        )
        recall, precision, gap = point_metrics([f1, f2], BEV_CFG)
        assert recall == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert precision == pytest.approx(0.5, abs=1e-12)
        assert gap == pytest.approx(2.0 / 3.0 - 0.5, abs=1e-12)

    def test_other_classes_ignored(self):
        gt = [
            make_record(0.0, 10.0),
            make_record(0.0, 25.0, class_name="Pedestrian", dims=(1.8, 0.6, 0.8)),
        ]
        det = [
            make_record(0.0, 10.0, score=0.9),
            make_record(0.0, 25.0, score=0.9, class_name="Pedestrian", dims=(1.8, 0.6, 0.8)),
        ]
        recall, precision, gap = point_metrics(single_frame(gt, det), BEV_CFG)
        assert (recall, precision, gap) == (1.0, 1.0, 0.0)

    def test_dontcare_rows_never_count_as_misses(self):
        gt = [
            make_record(0.0, 10.0),
            make_record(0.0, 30.0, class_name="DontCare", dims=(-1.0, -1.0, -1.0)),
        ]
        det = [make_record(0.0, 10.0, score=0.9)]
        assert point_metrics(single_frame(gt, det), BEV_CFG) == (1.0, 1.0, 0.0)

    def test_dontcare_excluded_even_as_target_class(self):
        cfg = MatchConfig(iou_kind="bev", iou_threshold=0.5, class_name="DontCare")
        gt = [make_record(0.0, 10.0, class_name="DontCare", dims=(-1.0, -1.0, -1.0))]
        recall, precision, gap = point_metrics(single_frame(gt, []), cfg)
        assert recall == 1.0  # no gt survives the filter, vacuous

    def test_difficulty_strata(self):
        # 30 px tall 2D box: hard and moderate keep it, easy does not.
        short_box = (100.0, 100.0, 200.0, 130.0)
        gt = [make_record(0.0, 10.0, bbox=short_box)]
        det = [make_record(0.0, 10.0, score=0.9)]

        def metrics_at(difficulty):
            cfg = MatchConfig(iou_kind="bev", iou_threshold=0.5, difficulty=difficulty)
            return point_metrics(single_frame(gt, det), cfg)

        assert metrics_at(None) == (1.0, 1.0, 0.0)
        assert metrics_at("hard") == (1.0, 1.0, 0.0)
        recall, precision, _ = metrics_at("easy")
        assert recall == 1.0  # vacuous: no gt in stratum
        assert precision == 0.0  # the detection is now a false positive

    def test_occlusion_limits(self):
        gt = [make_record(0.0, 10.0, occluded=2)]
        det = [make_record(0.0, 10.0, score=0.9)]
        hard = MatchConfig(iou_kind="bev", iou_threshold=0.5, difficulty="hard")
        moderate = MatchConfig(iou_kind="bev", iou_threshold=0.5, difficulty="moderate")
        assert point_metrics(single_frame(gt, det), hard) == (1.0, 1.0, 0.0)
        _, precision, _ = point_metrics(single_frame(gt, det), moderate)
        assert precision == 0.0

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_raising_threshold_never_increases_tp_or_fp(self, seed, t_a, t_b):
        t_lo, t_hi = sorted((t_a, t_b))
        rng = random.Random(seed)
        frames = []
        for i in range(3):
            gt, det = random_scene(rng)
            frames.append(frame(f"{i:06d}", gt, det))

        def counts(threshold):
            tp = fp = 0
            for f in frames:
                kept = apply_single(list(f.detections), threshold)
                result = match_frame(list(f.ground_truth), kept, BEV_CFG)
                tp += len(result.matches)
                fp += len(result.unmatched_det)
            return tp, fp

        tp_lo, fp_lo = counts(t_lo)
        tp_hi, fp_hi = counts(t_hi)
        assert tp_hi <= tp_lo
        assert fp_hi <= fp_lo


class TestAveragePrecision:
    def test_perfect_detector_is_exactly_100(self):
        gt = [make_record(0.0, 10.0), make_record(0.0, 25.0)]
        det = [make_record(0.0, 10.0, score=0.9), make_record(0.0, 25.0, score=0.8)]
        assert average_precision(single_frame(gt, det), BEV_CFG) == 100.0

    def test_no_ground_truth_raises(self):
        with pytest.raises(EvaluationError):
            average_precision(single_frame([], [make_record(0.0, 10.0, score=0.9)]), BEV_CFG)

    def test_trailing_false_positive_does_not_hurt(self):
        gt = [make_record(0.0, 10.0)]
        det = [make_record(0.0, 10.0, score=0.9), make_record(8.0, 40.0, score=0.5)]
        assert average_precision(single_frame(gt, det), BEV_CFG) == 100.0

    def test_half_recall_eleven_point(self):
        # One of two gts found at full precision: 6 of 11 recall points
        # (0.0 through 0.5) interpolate to 1, the rest to 0.
        gt = [make_record(0.0, 10.0), make_record(0.0, 25.0)]
        det = [make_record(0.0, 10.0, score=0.9)]
        ap = average_precision(single_frame(gt, det), BEV_CFG)
        assert ap == pytest.approx(600.0 / 11.0, abs=1e-9)

    def test_half_recall_forty_point(self):
        cfg = MatchConfig(iou_kind="bev", iou_threshold=0.5, ap_interpolation="forty_point")
        gt = [make_record(0.0, 10.0), make_record(0.0, 25.0)]
        det = [make_record(0.0, 10.0, score=0.9)]
        assert average_precision(single_frame(gt, det), cfg) == pytest.approx(50.0, abs=1e-9)

    def test_high_scoring_false_positive_hurts(self):
        gt = [make_record(0.0, 10.0), make_record(0.0, 25.0)]
        det = [
            make_record(8.0, 40.0, score=0.95),
            make_record(0.0, 10.0, score=0.9),
        ]
        ap = average_precision(single_frame(gt, det), BEV_CFG)
        assert ap == pytest.approx(300.0 / 11.0, abs=1e-9)

    def test_no_detections_gives_zero(self):
        gt = [make_record(0.0, 10.0)]
        assert average_precision(single_frame(gt, []), BEV_CFG) == 0.0

    def test_invariant_under_record_order(self):
        rng = random.Random(7)
        frames = []
        for i in range(5):
            gt, det = random_scene(rng)
            # Distinct scores so the global sort has a single outcome.
            det = [
                make_record(
                    r.location[0],
                    r.location[2],
                    dims=r.dimensions,
                    yaw=r.rotation_y,
                    score=round(0.05 + 0.9 * j / 10.0 + i * 0.001, 6),
                )
                for j, r in enumerate(det)
            ]
            frames.append(frame(f"{i:06d}", gt, det))
        # Guarantees ground truth even if every random draw came up empty.
        frames.append(frame("000099", [make_record(0.0, 12.0)], []))
        baseline = average_precision(frames, BEV_CFG)
        shuffled = [
            frame(f.frame_id, f.ground_truth, tuple(reversed(f.detections)))
            for f in frames
        ]
        assert average_precision(shuffled, BEV_CFG) == baseline

    @given(st.integers(0, 2**32 - 1))
    def test_bounded(self, seed):
        rng = random.Random(seed)
        gt, det = random_scene(rng)
        if not gt:
            gt = [make_record(0.0, 10.0)]
        ap = average_precision(single_frame(gt, det), BEV_CFG)
        assert 0.0 <= ap <= 100.0


class TestInterpolatedAp:
    @pytest.mark.parametrize("kind", ["eleven_point", "forty_point"])
    @given(flags=st.lists(st.booleans(), max_size=80), extra_gt=st.integers(0, 5))
    def test_equals_full_scan_of_the_curve(self, kind, flags, extra_gt):
        total_gt = max(sum(flags) + extra_gt, 1)
        expected = loop_interpolated_ap(flags, total_gt, kind)
        assert _interpolated_ap(flags, total_gt, kind) == expected

    @pytest.mark.parametrize("kind", ["eleven_point", "forty_point"])
    def test_all_false_positive_and_empty_sweeps(self, kind):
        for flags in ([], [False], [False] * 7):
            assert _interpolated_ap(flags, 3, kind) == loop_interpolated_ap(flags, 3, kind) == 0.0

    def test_no_ground_truth_raises(self):
        with pytest.raises(EvaluationError):
            _interpolated_ap([False], 0, "eleven_point")


def _renewed(records):
    """Equal records that are new objects."""
    return [dataclasses.replace(r) for r in records]


@st.composite
def evaluation_inputs(draw):
    """(frames, ap_frames or None, config) over random multi-frame scenes.

    Scores are sometimes rounded to one decimal to force ties. frames is
    either the unfiltered set, or a per-frame threshold filter of it; a
    drawn share of its frames use new record objects, reversed order, or
    other ground truth, or drop out of ap_frames, so that evaluate must
    fall back to a matrix of their own.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    config = MatchConfig(
        iou_kind=draw(st.sampled_from(["bev", "3d"])),
        iou_threshold=draw(st.sampled_from([0.3, 0.5, 0.7])),
        ap_interpolation=draw(st.sampled_from(["eleven_point", "forty_point"])),
    )
    raw = []
    for index in range(rng.randint(1, 6)):
        gt, det = random_scene(rng)
        if rng.random() < 0.4:
            det = [dataclasses.replace(r, score=round(r.score, 1)) for r in det]
        raw.append(frame(f"{index:06d}", gt, det))
    raw.append(frame("000099", [make_record(0.0, 12.0)], []))
    if not draw(st.booleans()):
        return raw, None, config
    filtered = []
    for f in raw:
        kept = apply_single(list(f.detections), rng.random())
        how = rng.choice(["same", "same", "renewed", "reversed", "regrounded", "dropped"])
        gt = f.ground_truth[1:] if how == "regrounded" else f.ground_truth
        if how == "renewed":
            kept = _renewed(kept)
        elif how == "reversed":
            kept = kept[::-1]
        filtered.append(frame(f.frame_id, gt, kept))
        if how == "dropped" and f.frame_id != "000099":
            raw = [r for r in raw if r is not f]
    return filtered, raw, config


class TestEvaluateEquivalence:
    @given(evaluation_inputs())
    def test_report_equals_three_pass_oracle(self, inputs):
        frames, ap_frames, config = inputs
        try:
            expected = three_pass_evaluate(frames, config, ap_frames=ap_frames)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                evaluate(frames, config, ap_frames=ap_frames)
            return
        assert evaluate(frames, config, ap_frames=ap_frames) == expected

    def test_shared_frame_ids_and_renewed_ground_truth(self):
        # Tied scores across frames of one frame_id leave only the frames'
        # positions to order the AP sweep.
        rng = random.Random(3)
        raw = []
        for _ in range(6):
            gt, det = random_scene(rng)
            det = [dataclasses.replace(r, score=round(r.score, 1)) for r in det]
            raw.append(frame("000001", gt + [make_record(0.0, 12.0)], det))
        filtered = [
            frame(
                f.frame_id,
                _renewed(f.ground_truth) if i % 2 else f.ground_truth,
                apply_single(list(f.detections), 0.3),
            )
            for i, f in enumerate(raw)
        ]
        for ap_frames in (raw, None):
            assert evaluate(filtered, BEV_CFG, ap_frames=ap_frames) == three_pass_evaluate(
                filtered, BEV_CFG, ap_frames=ap_frames
            )

    def test_missing_score_raises(self):
        gt = [make_record(0.0, 10.0)]
        scored = single_frame(gt, [make_record(0.0, 10.0, score=0.9)])
        unscored = single_frame(gt, [make_record(0.0, 10.0)])
        with pytest.raises(MissingScoreError):
            evaluate(unscored, BEV_CFG)
        with pytest.raises(MissingScoreError):
            evaluate(scored, BEV_CFG, ap_frames=unscored)
        with pytest.raises(MissingScoreError):
            evaluate(unscored, BEV_CFG, ap_frames=scored)


class TestEvaluate:
    def test_per_bin_attribution(self):
        gt = [make_record(0.0, 5.0), make_record(0.0, 55.0)]
        det = [
            make_record(0.0, 5.0, score=0.9),  # tp, gt bin 0
            make_record(8.0, 45.0, score=0.8),  # fp, det bin 4
        ]
        report = evaluate(single_frame(gt, det), BEV_CFG)
        assert report.tp == 1 and report.fp == 1 and report.fn == 1
        rows = {row.bin_index: row for row in report.per_bin}
        assert set(rows) == {0, 1, 2, 3, 4, 5}
        assert (rows[0].tp, rows[0].fp, rows[0].fn) == (1, 0, 0)
        assert (rows[4].tp, rows[4].fp, rows[4].fn) == (0, 1, 0)
        assert (rows[5].tp, rows[5].fp, rows[5].fn) == (0, 0, 1)
        assert rows[4].recall == 1.0 and rows[4].precision == 0.0
        assert rows[5].recall == 0.0 and rows[5].precision == 1.0
        assert rows[1] == rows.get(1)  # empty bins still reported
        assert (rows[1].recall, rows[1].precision) == (1.0, 1.0)

    def test_overflow_row_only_when_occupied(self):
        gt = [make_record(0.0, 5.0)]
        near_only = evaluate(
            single_frame(gt, [make_record(0.0, 5.0, score=0.9)]), BEV_CFG
        )
        assert all(row.bin_index <= 5 for row in near_only.per_bin)

        with_far_fp = evaluate(
            single_frame(
                gt,
                [make_record(0.0, 5.0, score=0.9), make_record(8.0, 70.0, score=0.8)],
            ),
            BEV_CFG,
        )
        overflow = [row for row in with_far_fp.per_bin if row.bin_index == 6]
        assert len(overflow) == 1
        assert overflow[0].lo_m == 60.0
        assert overflow[0].hi_m is None
        assert overflow[0].fp == 1

    def test_totals_match_bin_sums(self):
        rng = random.Random(11)
        frames = []
        for i in range(10):
            gt, det = random_scene(rng)
            frames.append(frame(f"{i:06d}", gt, det))
        if not any(f.ground_truth for f in frames):
            pytest.skip("degenerate draw")
        report = evaluate(frames, BEV_CFG)
        assert report.tp == sum(row.tp for row in report.per_bin)
        assert report.fp == sum(row.fp for row in report.per_bin)
        assert report.fn == sum(row.fn for row in report.per_bin)

    def test_custom_bin_spec(self):
        gt = [make_record(0.0, 5.0)]
        det = [make_record(0.0, 5.0, score=0.9)]
        report = evaluate(
            single_frame(gt, det), BEV_CFG, bin_spec=BinSpec(bin_width=15.0, max_distance=30.0)
        )
        assert [row.bin_index for row in report.per_bin] == [0, 1]
        assert report.per_bin[0].hi_m == 15.0

    def test_ap_frames_reports_both_sweeps(self):
        # Raw detections: an early high-scoring false positive caps AP at
        # 300/11. A 0.97 threshold then removes every detection.
        gt = [make_record(0.0, 10.0), make_record(0.0, 25.0)]
        det = [
            make_record(8.0, 40.0, score=0.95),
            make_record(0.0, 10.0, score=0.9),
        ]
        raw = single_frame(gt, det)
        filtered = [frame("000000", gt, apply_single(det, 0.97))]
        report = evaluate(filtered, BEV_CFG, ap_frames=raw)
        assert report.tp == 0 and report.fp == 0 and report.fn == 2
        assert report.average_precision == pytest.approx(300.0 / 11.0, abs=1e-9)
        assert report.average_precision_filtered == 0.0

    def test_without_ap_frames_filtered_ap_is_none(self):
        gt = [make_record(0.0, 10.0)]
        det = [make_record(0.0, 10.0, score=0.9)]
        report = evaluate(single_frame(gt, det), BEV_CFG)
        assert report.average_precision == 100.0
        assert report.average_precision_filtered is None

    def test_report_json_round_trip(self):
        gt = [make_record(0.0, 5.0), make_record(0.0, 55.0)]
        det = [make_record(0.0, 5.0, score=0.9), make_record(8.0, 70.0, score=0.8)]
        report = evaluate(single_frame(gt, det), BEV_CFG, ap_frames=single_frame(gt, det))
        payload = json.loads(json.dumps(report.to_dict()))
        assert EvalReport.from_dict(payload) == report

    def test_report_round_trip_preserves_none_fields(self):
        gt = [make_record(0.0, 5.0)]
        report = evaluate(single_frame(gt, [make_record(0.0, 5.0, score=0.9)]), BEV_CFG)
        restored = EvalReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert restored.average_precision_filtered is None
        assert restored == report


class TestCompareReports:
    @staticmethod
    def _report(**overrides):
        base = dict(
            config=MatchConfig(),
            tp=10,
            fp=2,
            fn=3,
            recall=10 / 13,
            precision=10 / 12,
            trade_off=abs(10 / 13 - 10 / 12),
            average_precision=77.28,
            average_precision_filtered=None,
            per_bin=(),
        )
        base.update(overrides)
        return EvalReport(**base)

    def test_identical_reports_zero_deltas(self):
        report = self._report()
        rows = compare_reports(report, report)
        assert [r.metric for r in rows] == [
            "tp",
            "fp",
            "fn",
            "recall",
            "precision",
            "trade_off",
            "average_precision",
        ]
        assert all(r.delta == 0.0 for r in rows)

    def test_filtered_ap_row_present_when_both_sides_have_it(self):
        a = self._report(average_precision_filtered=70.0)
        b = self._report(average_precision_filtered=71.5)
        rows = compare_reports(a, b)
        assert rows[-1].metric == "average_precision_filtered"
        assert rows[-1].delta == pytest.approx(1.5, abs=1e-12)

    def test_config_mismatch_raises(self):
        a = self._report()
        b = self._report(config=MatchConfig(iou_threshold=0.5))
        with pytest.raises(EvaluationError):
            compare_reports(a, b)

    def test_delta_sign_and_formatting(self):
        row = MetricDelta("trade_off", 0.238, 0.101)
        assert row.delta == pytest.approx(-0.137, abs=1e-12)
        assert row.formatted_delta() == "(-0.137)"
        assert MetricDelta("recall", 0.5, 0.75).formatted_delta() == "(+0.250)"
