"""Matching, point metrics, interpolated AP, and report comparison."""

import dataclasses
import json
import random
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from adathresh import evaluation, geometry, kitti_io
from adathresh.bin_stats import BinSpec, keep_rows
from adathresh.evaluation import (
    EvalReport,
    EvaluationError,
    MatchConfig,
    _candidates,
    _eval_rows,
    _interpolated_ap,
    _match,
    _ratio,
    _sweep,
    compare_reports,
    evaluate_tables,
    trade_off,
)
from adathresh.geometry import pair_iou
from adathresh.kitti_io import load_tables, read_label_table
from adathresh.threshold import SingleThreshold
from helpers import (
    Frame,
    box_columns,
    brute_force_match,
    detections,
    filtered,
    ground_truth,
    iou_bev,
    loop_interpolated_ap,
    make_record,
    random_scene,
    replaced,
    score_list,
    tables,
    three_pass_evaluate,
    write_label,
)

BEV_CFG = MatchConfig(iou_kind="bev", iou_threshold=0.5)


def frame(frame_id, gt, det):
    return Frame(frame_id, tuple(gt), tuple(det))


def single_frame(gt, det):
    return [frame("000000", gt, det)]


def frame_candidates(gt, det):
    """_candidates of one frame's BEV pair_iou."""
    pairs = pair_iou(box_columns(det), [0, len(det)], box_columns(gt), [0, len(gt)], "bev")
    return _candidates(pairs, len(det), BEV_CFG.iou_threshold)


def frame_matches(gt, det):
    """_match over one frame's candidates along the _sweep of its scores:
    (det_idx, gt_idx) in match order."""
    return _match(_sweep(score_list(det)), frame_candidates(gt, det))


def frame_hits(gt, det, in_set=None):
    """The (gt_hit, det_hit) flags of _match over one frame's candidates,
    walking only the detections of the sweep flagged in in_set (all
    without it), as evaluate_tables walks the kept rows."""
    order = [d for d in _sweep(score_list(det)) if in_set is None or in_set[d]]
    gt_hit, det_hit = [False] * len(gt), [False] * len(det)
    for d, g in _match(order, frame_candidates(gt, det)):
        det_hit[d] = gt_hit[g] = True
    return gt_hit, det_hit


def evaluate_frames(frames, config, bin_spec=None, kept=None):
    """evaluate_tables over the frames' tables."""
    return evaluate_tables(*tables(frames), config, bin_spec, kept)


def spare_evaluate(frames, config, kept=None):
    """evaluate_frames with one more frame holding a lone ground-truth car,
    so that AP is defined even where no ground truth of frames is left."""
    spare = frame("000099", [make_record(0.0, 12.0)], [])
    return evaluate_frames([*frames, spare], config, kept=kept)


def counts(report):
    return report.tp, report.fp, report.fn


def point(report):
    return report.recall, report.precision, report.trade_off


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


class TestSweepAndMatch:
    """_sweep, _candidates and _match over sparse (det_idx, gt_idx, iou) pairs."""

    def test_sweep_order_takes_best_free_candidate(self):
        # The IoU matrix [[0.9, 0.8], [0.95, 0.0]], row = detection. The
        # higher-scored detection 1 takes ground truth 0 first, so
        # detection 0 falls back to its second candidate.
        candidates = _candidates(([0, 0, 1], [0, 1, 0], [0.9, 0.8, 0.95]), 2, 0.5)
        assert candidates == [[(-0.9, 0), (-0.8, 1)], [(-0.95, 0)]]
        assert _sweep([0.5, 0.9]) == [1, 0]
        assert _match(_sweep([0.5, 0.9]), candidates) == [(1, 0), (0, 1)]

    def test_ties_go_to_lower_detection_and_ground_truth_index(self):
        # Pairs listed with the higher ground-truth index first.
        candidates = _candidates(([0, 0, 1, 1], [1, 0, 1, 0], [0.7] * 4), 2, 0.5)
        assert candidates == [[(-0.7, 0), (-0.7, 1)], [(-0.7, 0), (-0.7, 1)]]
        assert _sweep([0.6, 0.6]) == [0, 1]
        assert _sweep([0.6, 0.9, 0.6, 0.6]) == [1, 0, 2, 3]
        assert _match(_sweep([0.6, 0.6]), candidates) == [(0, 0), (1, 1)]

    def test_threshold_is_inclusive(self):
        pairs = ([0, 0], [0, 1], [0.5, 0.4999999999999999])
        assert _candidates(pairs, 1, 0.5) == [[(-0.5, 0)]]
        assert _match([0], _candidates(pairs, 1, 0.5)) == [(0, 0)]
        assert _candidates(pairs, 1, 0.6) == [[]]
        assert _match([0], _candidates(pairs, 1, 0.6)) == []

    def test_empty_input(self):
        none = ([], [], [])
        assert _sweep([]) == []
        assert _candidates(none, 0, 0.5) == []
        assert _match([], []) == []
        assert _candidates(none, 2, 0.5) == [[], []]
        assert _match(_sweep([0.9, 0.8]), [[], []]) == []


class TestMatchFrame:
    """One frame through pair_iou, _candidates, _sweep and _match, and through evaluate_tables."""

    def test_single_pair(self):
        gt = [make_record(0.0, 10.0)]
        det = [make_record(0.0, 10.0, score=0.9)]
        assert frame_matches(gt, det) == [(0, 0)]
        assert frame_hits(gt, det) == ([True], [True])
        assert counts(evaluate_frames(single_frame(gt, det), BEV_CFG)) == (1, 0, 0)

    def test_higher_score_wins_regardless_of_position(self):
        gt = [make_record(0.0, 10.0)]
        det = [
            make_record(0.1, 10.0, score=0.8),
            make_record(0.0, 10.0, score=0.9),
        ]
        assert frame_matches(gt, det) == [(1, 0)]
        assert frame_hits(gt, det)[1] == [False, True]
        assert counts(evaluate_frames(single_frame(gt, det), BEV_CFG)) == (1, 1, 0)

    def test_unflagged_detections_neither_match_nor_block(self):
        gt = [make_record(0.0, 10.0)]
        det = [
            make_record(0.0, 10.0, score=0.9),
            make_record(0.1, 10.0, score=0.8),
        ]
        assert frame_hits(gt, det, [False, True]) == ([True], [False, True])
        assert frame_hits(gt, det, [False, False]) == ([False], [False, False])

    def test_equal_scores_favor_lower_detection_index(self):
        gt = [make_record(0.0, 10.0)]
        det = [
            make_record(0.1, 10.0, score=0.8),
            make_record(0.0, 10.0, score=0.8),
        ]
        assert frame_matches(gt, det) == [(0, 0)]

    def test_detection_takes_highest_iou_ground_truth(self):
        # At yaw 0 the 1.7 m width lies along z; the detection overlaps
        # both boxes but the second (IoU 0.89 vs 0.62) more.
        gt = [make_record(0.0, 10.0), make_record(0.0, 10.5)]
        det = [make_record(0.0, 10.4, score=0.9)]
        assert frame_matches(gt, det) == [(0, 1)]
        assert frame_hits(gt, det)[0] == [False, True]

    def test_iou_below_threshold_not_matched(self):
        gt = [make_record(0.0, 10.0)]
        det = [make_record(0.0, 11.4, score=0.9)]
        assert frame_matches(gt, det) == []
        assert frame_hits(gt, det) == ([False], [False])
        assert counts(evaluate_frames(single_frame(gt, det), BEV_CFG)) == (0, 1, 1)

    def test_missing_score_raises(self):
        # A table without a score column cannot be matched as detections.
        gt = ground_truth([make_record(0.0, 10.0)])
        with pytest.raises(ValueError, match="ground-truth table has no scores"):
            evaluate_tables(gt, gt, BEV_CFG)

    def test_agrees_with_reference_matcher(self):
        for seed in range(25):
            rng = random.Random(seed)
            gt, det = random_scene(rng)
            expected = brute_force_match(gt, det, iou_bev, BEV_CFG.iou_threshold)
            assert frame_matches(gt, det) == expected, f"seed {seed}"

    @given(st.integers(0, 2**32 - 1))
    def test_conservation(self, seed):
        rng = random.Random(seed)
        gt, det = random_scene(rng)
        matches = frame_matches(gt, det)
        gt_hit, det_hit = frame_hits(gt, det)
        matched_gt = [g for _, g in matches]
        matched_det = [d for d, _ in matches]
        unmatched_gt = [g for g, hit in enumerate(gt_hit) if not hit]
        unmatched_det = [d for d, hit in enumerate(det_hit) if not hit]
        assert len(set(matched_gt)) == len(matched_gt)
        assert len(set(matched_det)) == len(matched_det)
        assert sorted(matched_gt + unmatched_gt) == list(range(len(gt)))
        assert sorted(matched_det + unmatched_det) == list(range(len(det)))
        ious = [iou_bev(det[d].to_box3d(), gt[g].to_box3d()) for d, g in matches]
        assert all(iou >= BEV_CFG.iou_threshold for iou in ious)


class TestPointMetrics:
    """evaluate's recall, precision and trade-off; its counts with a spare
    ground-truth frame where no ground truth is left, since AP is
    undefined there."""

    def test_no_frames_is_vacuously_perfect(self):
        assert _eval_rows(*tables([]), BEV_CFG) == ([], [])
        assert (_ratio(0, 0), _ratio(0, 0), trade_off(1.0, 1.0)) == (1.0, 1.0, 0.0)

    def test_perfect_detector(self):
        gt = [make_record(0.0, 10.0), make_record(0.0, 25.0)]
        det = [make_record(0.0, 10.0, score=0.9), make_record(0.0, 25.0, score=0.8)]
        frames = [frame("000000", gt, det), frame("000001", gt, det)]
        assert point(evaluate_frames(frames, BEV_CFG)) == (1.0, 1.0, 0.0)

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
        recall, precision, gap = point(evaluate_frames([f1, f2], BEV_CFG))
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
        recall, precision, gap = point(evaluate_frames(single_frame(gt, det), BEV_CFG))
        assert (recall, precision, gap) == (1.0, 1.0, 0.0)

    def test_dontcare_rows_never_count_as_misses(self):
        gt = [
            make_record(0.0, 10.0),
            make_record(0.0, 30.0, class_name="DontCare", dims=(-1.0, -1.0, -1.0)),
        ]
        det = [make_record(0.0, 10.0, score=0.9)]
        assert point(evaluate_frames(single_frame(gt, det), BEV_CFG)) == (1.0, 1.0, 0.0)

    def test_dontcare_excluded_even_as_target_class(self):
        cfg = MatchConfig(iou_kind="bev", iou_threshold=0.5, class_name="DontCare")
        gt = [make_record(0.0, 10.0, class_name="DontCare", dims=(-1.0, -1.0, -1.0))]
        # No gt survives the filter: recall is vacuous.
        assert _eval_rows(*tables(single_frame(gt, [])), cfg) == ([], [])

    def test_difficulty_strata(self):
        # 30 px tall 2D box: hard and moderate keep it, easy does not.
        short_box = (100.0, 100.0, 200.0, 130.0)
        gt = [make_record(0.0, 10.0, bbox=short_box)]
        det = [make_record(0.0, 10.0, score=0.9)]

        def config_at(difficulty):
            return MatchConfig(iou_kind="bev", iou_threshold=0.5, difficulty=difficulty)

        assert point(evaluate_frames(single_frame(gt, det), config_at(None))) == (1.0, 1.0, 0.0)
        assert point(evaluate_frames(single_frame(gt, det), config_at("hard"))) == (1.0, 1.0, 0.0)
        # No gt of the frame is in the stratum, so the detection is now a
        # false positive; the one miss is the spare frame's.
        assert counts(spare_evaluate(single_frame(gt, det), config_at("easy"))) == (0, 1, 1)

    def test_occlusion_limits(self):
        gt = [make_record(0.0, 10.0, occluded=2)]
        det = [make_record(0.0, 10.0, score=0.9)]
        hard = MatchConfig(iou_kind="bev", iou_threshold=0.5, difficulty="hard")
        moderate = MatchConfig(iou_kind="bev", iou_threshold=0.5, difficulty="moderate")
        assert point(evaluate_frames(single_frame(gt, det), hard)) == (1.0, 1.0, 0.0)
        assert counts(spare_evaluate(single_frame(gt, det), moderate)) == (0, 1, 1)  # precision 0

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_raising_threshold_never_increases_tp_or_fp(self, seed, t_a, t_b):
        t_lo, t_hi = sorted((t_a, t_b))
        rng = random.Random(seed)
        frames = []
        for i in range(3):
            gt, det = random_scene(rng)
            frames.append(frame(f"{i:06d}", gt, det))

        def tp_fp(threshold):
            kept = keep_rows(tables(frames)[1], SingleThreshold(threshold))
            return counts(spare_evaluate(frames, BEV_CFG, kept=kept))[:2]

        tp_lo, fp_lo = tp_fp(t_lo)
        tp_hi, fp_hi = tp_fp(t_hi)
        assert tp_hi <= tp_lo
        assert fp_hi <= fp_lo


class TestAveragePrecision:
    """evaluate's average_precision: one unfiltered sweep."""

    def test_perfect_detector_is_exactly_100(self):
        gt = [make_record(0.0, 10.0), make_record(0.0, 25.0)]
        det = [make_record(0.0, 10.0, score=0.9), make_record(0.0, 25.0, score=0.8)]
        assert evaluate_frames(single_frame(gt, det), BEV_CFG).average_precision == 100.0

    def test_no_ground_truth_raises(self):
        with pytest.raises(EvaluationError):
            evaluate_frames(single_frame([], [make_record(0.0, 10.0, score=0.9)]), BEV_CFG)

    def test_trailing_false_positive_does_not_hurt(self):
        gt = [make_record(0.0, 10.0)]
        det = [make_record(0.0, 10.0, score=0.9), make_record(8.0, 40.0, score=0.5)]
        assert evaluate_frames(single_frame(gt, det), BEV_CFG).average_precision == 100.0

    def test_half_recall_eleven_point(self):
        # One of two gts found at full precision: 6 of 11 recall points
        # (0.0 through 0.5) interpolate to 1, the rest to 0.
        gt = [make_record(0.0, 10.0), make_record(0.0, 25.0)]
        det = [make_record(0.0, 10.0, score=0.9)]
        ap = evaluate_frames(single_frame(gt, det), BEV_CFG).average_precision
        assert ap == pytest.approx(600.0 / 11.0, abs=1e-9)

    def test_half_recall_forty_point(self):
        cfg = MatchConfig(iou_kind="bev", iou_threshold=0.5, ap_interpolation="forty_point")
        gt = [make_record(0.0, 10.0), make_record(0.0, 25.0)]
        det = [make_record(0.0, 10.0, score=0.9)]
        assert evaluate_frames(single_frame(gt, det), cfg).average_precision == pytest.approx(50.0, abs=1e-9)

    def test_high_scoring_false_positive_hurts(self):
        gt = [make_record(0.0, 10.0), make_record(0.0, 25.0)]
        det = [
            make_record(8.0, 40.0, score=0.95),
            make_record(0.0, 10.0, score=0.9),
        ]
        ap = evaluate_frames(single_frame(gt, det), BEV_CFG).average_precision
        assert ap == pytest.approx(300.0 / 11.0, abs=1e-9)

    def test_no_detections_gives_zero(self):
        gt = [make_record(0.0, 10.0)]
        assert evaluate_frames(single_frame(gt, []), BEV_CFG).average_precision == 0.0

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
        baseline = evaluate_frames(frames, BEV_CFG).average_precision
        shuffled = [
            frame(f.frame_id, f.ground_truth, tuple(reversed(f.detections)))
            for f in frames
        ]
        assert evaluate_frames(shuffled, BEV_CFG).average_precision == baseline

    @given(st.integers(0, 2**32 - 1))
    def test_bounded(self, seed):
        rng = random.Random(seed)
        gt, det = random_scene(rng)
        if not gt:
            gt = [make_record(0.0, 10.0)]
        ap = evaluate_frames(single_frame(gt, det), BEV_CFG).average_precision
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
    """(frames, kept or None, config) over random multi-frame scenes.

    Scores are sometimes rounded to one decimal to force ties. kept, when
    drawn, flags the detections a threshold drawn per frame keeps.
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
    kept = []
    for f in raw:
        kept += keep_rows(detections(f.detections), SingleThreshold(rng.random()))
    return raw, kept, config


class TestEvaluateEquivalence:
    @given(evaluation_inputs())
    def test_report_equals_three_pass_oracle(self, inputs):
        frames, kept, config = inputs
        # With kept, the oracle's point metrics see the kept detections and
        # its unfiltered AP sweep sees them all.
        subset, ap_frames = (frames, None) if kept is None else (filtered(frames, kept), frames)
        try:
            expected = three_pass_evaluate(subset, config, ap_frames=ap_frames)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                evaluate_frames(frames, config, kept=kept)
            return
        assert evaluate_frames(frames, config, kept=kept) == expected

    def test_tied_scores_across_frames_and_renewed_ground_truth(self):
        # Scores tied across frames leave only the frame ids and the
        # positions in each frame to order the AP sweep.
        rng = random.Random(3)
        raw = []
        for index in range(6):
            gt, det = random_scene(rng)
            det = [dataclasses.replace(r, score=round(r.score, 1)) for r in det]
            raw.append(frame(f"{index:06d}", gt + [make_record(0.0, 12.0)], det))
        kept = keep_rows(tables(raw)[1], SingleThreshold(0.3))
        subset = [
            f._replace(ground_truth=_renewed(f.ground_truth)) if i % 2 else f
            for i, f in enumerate(filtered(raw, kept))
        ]
        assert evaluate_frames(raw, BEV_CFG, kept=kept) == three_pass_evaluate(subset, BEV_CFG, ap_frames=raw)
        assert evaluate_frames(subset, BEV_CFG) == three_pass_evaluate(subset, BEV_CFG)

    def test_missing_score_raises(self):
        # A ground-truth table passed as detections has no scores, with or
        # without kept flags.
        gt = ground_truth([make_record(0.0, 10.0), make_record(0.0, 30.0)])
        for kept in (None, [True, False], [False, True]):
            with pytest.raises(ValueError, match="ground-truth table has no scores"):
                evaluate_tables(gt, gt, BEV_CFG, kept=kept)


class TestFrameOrder:
    """evaluate_tables takes two tables of the same frames, in strictly
    ascending frame_id order."""

    @pytest.mark.parametrize(
        "gt_ids, det_ids",
        [
            (["000000", "000001"], ["000001"]),
            (["000000", "000001"], ["000000", "000002"]),
            (["000001", "000000"], ["000001", "000000"]),
            (["000001", "000001"], ["000001", "000001"]),
        ],
        ids=["fewer", "other", "descending", "duplicate"],
    )
    def test_other_tables_raise(self, gt_ids, det_ids):
        gt = tables([frame(i, [make_record(0.0, 10.0)], []) for i in gt_ids])[0]
        det = tables([frame(i, [], [make_record(0.0, 10.0, score=0.9)]) for i in det_ids])[1]
        with pytest.raises(EvaluationError, match="strictly ascending frame_id order"):
            evaluate_tables(gt, det, BEV_CFG)

    def test_a_detection_table_of_fewer_frames_raises(self, tmp_path):
        # Zipped frame by frame, the detection would meet frame 000000's car.
        write_label(tmp_path / "gt" / "000000.txt", [make_record(0.0, 10.0)])
        write_label(tmp_path / "gt" / "000001.txt", [make_record(0.0, 25.0)])
        write_label(tmp_path / "det" / "000001.txt", [make_record(0.0, 25.0, score=0.9)])
        gt, det = load_tables(tmp_path / "gt", tmp_path / "det")
        assert counts(evaluate_tables(gt, det, BEV_CFG)) == (1, 0, 1)
        with pytest.raises(EvaluationError):
            evaluate_tables(gt, read_label_table(tmp_path / "det", "detection", True), BEV_CFG)


class TestKeptLength:
    """evaluate_tables takes one kept flag per detection row, no more and no fewer."""

    @pytest.mark.parametrize("extra", [-1, 7], ids=["short", "long"])
    def test_a_kept_of_another_length_raises(self, extra):
        gt, det = tables(
            single_frame([make_record(0.0, 10.0)], [make_record(0.0, 10.0, score=0.9), make_record(0.0, 30.0, score=0.8)])
        )
        assert len(det) == 2
        evaluate_tables(gt, det, BEV_CFG, kept=[True] * len(det))
        with pytest.raises(EvaluationError, match=f"kept holds {len(det) + extra} flags for 2 detection rows"):
            evaluate_tables(gt, det, BEV_CFG, kept=[True] * (len(det) + extra))


class TestEvaluate:
    def test_per_bin_attribution(self):
        gt = [make_record(0.0, 5.0), make_record(0.0, 55.0)]
        det = [
            make_record(0.0, 5.0, score=0.9),  # tp, gt bin 0
            make_record(8.0, 45.0, score=0.8),  # fp, det bin 4
        ]
        report = evaluate_frames(single_frame(gt, det), BEV_CFG)
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
        near_only = evaluate_frames(
            single_frame(gt, [make_record(0.0, 5.0, score=0.9)]), BEV_CFG
        )
        assert all(row.bin_index <= 5 for row in near_only.per_bin)

        with_far_fp = evaluate_frames(
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
        report = evaluate_frames(frames, BEV_CFG)
        assert report.tp == sum(row.tp for row in report.per_bin)
        assert report.fp == sum(row.fp for row in report.per_bin)
        assert report.fn == sum(row.fn for row in report.per_bin)

    def test_custom_bin_spec(self):
        gt = [make_record(0.0, 5.0)]
        det = [make_record(0.0, 5.0, score=0.9)]
        report = evaluate_frames(
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
        report = evaluate_frames(raw, BEV_CFG, kept=keep_rows(detections(det), SingleThreshold(0.97)))
        assert report.tp == 0 and report.fp == 0 and report.fn == 2
        assert report.average_precision == pytest.approx(300.0 / 11.0, abs=1e-9)
        assert report.average_precision_filtered == 0.0

    def test_without_ap_frames_filtered_ap_is_none(self):
        gt = [make_record(0.0, 10.0)]
        det = [make_record(0.0, 10.0, score=0.9)]
        report = evaluate_frames(single_frame(gt, det), BEV_CFG)
        assert report.average_precision == 100.0
        assert report.average_precision_filtered is None

    def test_report_json_round_trip(self):
        gt = [make_record(0.0, 5.0), make_record(0.0, 55.0)]
        det = [make_record(0.0, 5.0, score=0.9), make_record(8.0, 70.0, score=0.8)]
        report = evaluate_frames(single_frame(gt, det), BEV_CFG, kept=[True, True])
        payload = json.loads(json.dumps(report.to_dict()))
        assert EvalReport.from_dict(payload) == report

    def test_report_round_trip_preserves_none_fields(self):
        gt = [make_record(0.0, 5.0)]
        report = evaluate_frames(single_frame(gt, [make_record(0.0, 5.0, score=0.9)]), BEV_CFG)
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
        assert [metric for metric, _, _ in rows] == [
            "tp",
            "fp",
            "fn",
            "recall",
            "precision",
            "trade_off",
            "average_precision",
        ]
        assert all(cand - base == 0 for _, base, cand in rows)

    def test_values_are_as_the_reports_hold_them(self):
        a = self._report(fp=2, precision=0.5)
        b = self._report(fp=7, precision=0.25)
        rows = {metric: (base, cand) for metric, base, cand in compare_reports(a, b)}
        assert rows["fp"] == (2, 7) and type(rows["fp"][0]) is int and type(rows["fp"][1]) is int
        assert rows["precision"] == (0.5, 0.25) and type(rows["precision"][0]) is float

    def test_filtered_ap_row_present_only_when_both_sides_have_it(self):
        a = self._report(average_precision_filtered=70.0)
        b = self._report(average_precision_filtered=71.5)
        rows = compare_reports(a, b)
        assert rows[-1] == ("average_precision_filtered", 70.0, 71.5)
        assert len(rows) == 8
        none = self._report()
        assert len(compare_reports(none, b)) == len(compare_reports(b, none)) == 7

    def test_config_mismatch_raises(self):
        a = self._report()
        b = self._report(config=MatchConfig(iou_threshold=0.5))
        with pytest.raises(EvaluationError):
            compare_reports(a, b)

    @pytest.mark.parametrize(
        "metric, value, rule",
        [
            ("tp", -1.0, "a non-negative count"),
            ("fn", float("inf"), "a non-negative count"),
            ("recall", 1.5, r"within \[0, 1\]"),
            ("trade_off", float("nan"), r"within \[0, 1\]"),
            ("average_precision", 100.5, r"within \[0, 100\]"),
            ("average_precision_filtered", -1e-9, r"within \[0, 100\]"),
        ],
    )
    def test_a_value_out_of_its_metrics_range_is_rejected(self, metric, value, rule):
        # An infinite count is no integer, and _decode says so first.
        with pytest.raises(ValueError, match=f"^{metric}( must be {rule}|: expected an integer)"):
            self._report(**{metric: value})


def report_or_error(gt, det, config, kept):
    """evaluate_tables' report, or the type and message of its error."""
    try:
        return evaluate_tables(gt, det, config, kept=kept)
    except EvaluationError as exc:
        return type(exc), str(exc)


def pair_entries(cache_home: Path) -> list[Path]:
    return sorted((cache_home / "adathresh").glob("*.pairs"))


def _body(entry: bytes) -> bytes:
    """The body of a cache entry."""
    head, _, rest = entry.partition(b"\n")
    return rest[int(head.split()[0]) :]


def rewritten(entry: bytes, body: bytes) -> bytes:
    """entry with its body replaced by body, under a checksum that holds."""
    head, _, rest = entry.partition(b"\n")
    key = rest[: int(head.split()[0])]
    return b"%d %d\n" % (len(key), zlib.crc32(body, zlib.crc32(key))) + key + body


def other_value(body: bytes, array_index: int, pair: int, code: str, value) -> bytes:
    """body, three arrays of one length, with one value of one array replaced."""
    n = len(body) // 24
    at = 8 * (array_index * n + pair % n)
    return body[:at] + struct.pack(code, value) + body[at + 8 :]


class TestPairCache:
    """evaluate_tables reads its IoU pairs from the cache when an entry
    holds the same input; no report depends on the cache."""

    @pytest.fixture
    def cache_home(self, tmp_path, monkeypatch):
        home = tmp_path / "cache"
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        return home

    @pytest.fixture
    def scene(self):
        rng = random.Random(11)
        gt, det = tables([frame(f"{i:06d}", *random_scene(rng)) for i in range(4)])
        assert len(det) > 2 and len(gt) > 2
        return gt, det

    @staticmethod
    def counted(monkeypatch) -> list:
        """The arguments of each pair_iou call evaluate_tables makes from now on."""
        calls = []

        def counting(*args):
            calls.append(args)
            return pair_iou(*args)

        monkeypatch.setattr(geometry, "pair_iou", counting)  # evaluation imports it on a miss
        return calls

    @given(evaluation_inputs(), st.sampled_from([None, "easy", "moderate", "hard"]))
    def test_a_miss_a_hit_and_no_cache_give_one_report(self, inputs, difficulty):
        frames, kept, config = inputs
        config = replaced(config, difficulty=difficulty)
        gt, det = tables(frames)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setenv("XDG_CACHE_HOME", tmp)
            miss = report_or_error(gt, det, config, kept)
            assert len(pair_entries(Path(tmp))) == 1
            # A hit computes no pair and gathers no box.
            patch.setattr(geometry, "pair_iou", None)
            patch.setattr(evaluation, "_box_columns", None)
            hit = report_or_error(gt, det, config, kept)
            patch.undo()
            patch.delenv("XDG_CACHE_HOME")
            patch.delenv("HOME", raising=False)
            assert kitti_io._cache_root() is None
            uncached = report_or_error(gt, det, config, kept)
        assert miss == hit == uncached

    @pytest.mark.parametrize(
        "damage",
        [
            lambda entry, n_det, n_gt: entry[:-1],
            lambda entry, n_det, n_gt: b"garbage " + entry,
            lambda entry, n_det, n_gt: rewritten(entry, _body(entry)[:-8]),
            lambda entry, n_det, n_gt: rewritten(entry, _body(entry) + struct.pack("d", 0.5)),
            lambda entry, n_det, n_gt: rewritten(entry, other_value(_body(entry), 0, 0, "q", n_det)),
            lambda entry, n_det, n_gt: rewritten(entry, other_value(_body(entry), 1, -1, "q", n_gt)),
            lambda entry, n_det, n_gt: rewritten(entry, other_value(_body(entry), 1, 0, "q", -1)),
        ],
        ids=["truncated", "garbled", "a value cut", "a value appended", "det index", "gt index", "negative index"],
    )
    def test_a_damaged_entry_is_recomputed_and_replaced(self, scene, cache_home, monkeypatch, damage):
        gt, det = scene
        report = evaluate_tables(gt, det, BEV_CFG)
        [path] = pair_entries(cache_home)
        entry = path.read_bytes()
        path.write_bytes(damage(entry, len(det), len(gt)))
        calls = self.counted(monkeypatch)
        assert evaluate_tables(gt, det, BEV_CFG) == report
        assert len(calls) == 1 and path.read_bytes() == entry

    def test_an_entry_of_another_input_under_this_name_is_recomputed(self, scene, cache_home, monkeypatch):
        gt, det = scene
        report = evaluate_tables(gt, det, BEV_CFG)
        [path] = pair_entries(cache_home)
        entry = path.read_bytes()
        path.unlink()
        evaluate_tables(gt, det, replaced(BEV_CFG, iou_kind="3d"))
        [other] = pair_entries(cache_home)
        other.rename(path)
        calls = self.counted(monkeypatch)
        assert evaluate_tables(gt, det, BEV_CFG) == report
        assert len(calls) == 1 and path.read_bytes() == entry

    def test_an_entry_of_other_geometry_source_is_recomputed(self, scene, cache_home, monkeypatch, tmp_path):
        """An edit of geometry.py, even one that keeps its length, misses
        every entry stored before it."""
        gt, det = scene
        edited = tmp_path / "geometry.py"
        edited.write_bytes(Path(evaluation._GEOMETRY_SOURCE).read_bytes().swapcase())
        with monkeypatch.context() as patch:
            patch.setattr(evaluation, "_GEOMETRY_SOURCE", str(edited))
            report = evaluate_tables(gt, det, BEV_CFG)
        calls = self.counted(monkeypatch)
        assert evaluate_tables(gt, det, BEV_CFG) == report
        assert len(calls) == 1 and len(pair_entries(cache_home)) == 2
        assert evaluate_tables(gt, det, BEV_CFG) == report
        assert len(calls) == 1

    def test_pairs_and_tables_share_one_cap(self, scene, cache_home):
        for i in range(kitti_io._CACHE_ENTRIES):
            kitti_io.cache_put("table", b"key %d" % i, b"")
        evaluate_tables(*scene, BEV_CFG)
        assert len(list((cache_home / "adathresh").iterdir())) == kitti_io._CACHE_ENTRIES
        assert len(pair_entries(cache_home)) == 1

    def test_other_rows_of_the_same_tables_get_their_own_entry(self, cache_home, monkeypatch):
        """The key holds the evaluated rows, not only the tables' columns:
        each difficulty stratum and class of one pair of tables has its own
        entry, and each report is the one computed without a cache."""
        rng = random.Random(5)
        scenes = [random_scene(rng) for _ in range(4)]
        # Occlusion levels 0 to 3 put the ground truth in different strata.
        scenes = [([dataclasses.replace(g, occluded=i % 4) for i, g in enumerate(gt)], det) for gt, det in scenes]
        gt, det = tables([frame(f"{i:06d}", *scene) for i, scene in enumerate(scenes)])
        configs = [replaced(BEV_CFG, difficulty=d) for d in (None, "easy", "moderate", "hard")]
        configs.append(replaced(BEV_CFG, class_name="Pedestrian"))
        with monkeypatch.context() as patch:
            patch.delenv("XDG_CACHE_HOME")
            patch.delenv("HOME", raising=False)
            uncached = [report_or_error(gt, det, config, None) for config in configs]
        assert [report_or_error(gt, det, config, None) for config in configs] == uncached
        selections = {tuple(map(tuple, _eval_rows(gt, det, config))) for config in configs}
        assert len(pair_entries(cache_home)) == len(selections) == len(configs)
        assert [report_or_error(gt, det, config, None) for config in configs] == uncached

    def test_other_rows_with_the_same_offsets_get_their_own_entry(self, cache_home):
        """Each frame holds a Car and a Van on both sides, so both classes
        select one row a frame: equal offsets, other rows. The detected
        Van lies 10 m from the true one, which the Car's pairs would hide."""
        gt_car, gt_van = make_record(0.0, 10.0), make_record(3.0, 30.0, class_name="Van")
        det_car, det_van = make_record(0.0, 10.0, score=0.9), make_record(3.0, 40.0, score=0.8, class_name="Van")
        gt, det = tables([frame(f"{i:06d}", [gt_car, gt_van], [det_car, det_van]) for i in range(3)])
        car, van = (evaluate_tables(gt, det, replaced(BEV_CFG, class_name=name)) for name in ("Car", "Van"))
        assert (car.tp, car.fp, van.tp, van.fp) == (3, 0, 0, 3)
        assert len(pair_entries(cache_home)) == 2

    def test_the_source_in_the_key_is_the_module_that_computes_the_pairs(self):
        assert Path(evaluation._GEOMETRY_SOURCE).resolve() == Path(geometry.__file__).resolve()

    def test_an_unreadable_geometry_source_is_a_miss_that_stores_nothing(self, scene, cache_home, monkeypatch, tmp_path):
        gt, det = scene
        report = evaluate_tables(gt, det, BEV_CFG)
        monkeypatch.setattr(evaluation, "_GEOMETRY_SOURCE", str(tmp_path / "missing.py"))
        calls = self.counted(monkeypatch)
        assert evaluate_tables(gt, det, BEV_CFG) == report
        assert len(calls) == 1 and len(pair_entries(cache_home)) == 1

