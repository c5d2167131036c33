"""Synthetic scene generator: determinism, geometry, and oracle counts."""

import json
import math

import pytest

from adathresh.bin_stats import compute_bin_stats
from adathresh.evaluation import MatchConfig, evaluate
from adathresh.geometry import iou_bev
from adathresh.kitti_io import FramePair, serialize_records
from adathresh.synthetic import (
    MIN_SEPARATION,
    ScenarioSpec,
    ScoreModel,
    generate,
    generate_with_truth,
    known_optimal_counts,
    scenario_totals,
)
from adathresh.threshold import ThresholdModel, keep

BASE_MODEL = ScoreModel(a=-0.00004, b=-0.0075, c=0.92, noise_std=(0.02,) * 6)


def small_spec(**overrides):
    kwargs = dict(
        seed=20240817,
        n_frames=3,
        objects_per_frame=(2, 4),
        distance_range=(5.0, 55.0),
        score_model=BASE_MODEL,
        fp_rate_per_bin=(0.3,) * 6,
        fn_rate_per_bin=(0.1,) * 6,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


# Serialized first frame of small_spec(), locked down so that refactors
# of the generator cannot silently change existing datasets.
GOLDEN_FRAME0_GT = (
    "Car 0.000000 0 -1.461033 0.000000 176.669014 0.000000 241.107098 1.557773 1.782061 4.058523 -24.960697 1.650000 17.442977 -2.421898\n"
    "Car 0.000000 0 0.279394 1242.000000 180.876036 1242.000000 251.073270 1.480779 1.676922 4.151152 29.965618 1.650000 15.220510 1.380217\n"
    "Car 0.000000 0 -2.514043 1242.000000 180.078947 1242.000000 229.611108 1.439962 1.665571 4.066958 25.092370 1.650000 20.976002 -1.639528\n"
)
GOLDEN_FRAME0_DET = (
    "Car 0.000000 0 -1.461045 0.000000 176.660016 0.000000 240.946129 1.557773 1.782061 4.058523 -24.978145 1.650000 17.484212 -2.421129 0.661758\n"
    "Car 0.000000 0 0.280976 1242.000000 180.867586 1242.000000 250.990871 1.480779 1.676922 4.151152 29.930016 1.650000 15.236561 1.380893 0.634555\n"
    "Car 0.000000 0 -2.523853 1242.000000 180.088331 1242.000000 229.684825 1.439962 1.665571 4.066958 25.140221 1.650000 20.948793 -1.647762 0.655709\n"
    "Car 0.000000 0 2.481925 964.120604 175.276671 1015.992227 222.344438 1.569229 1.729388 4.052775 12.685688 1.650000 24.055903 2.967207 0.488529\n"
)


class TestScoreModel:
    def test_mean_at_is_quadratic(self):
        model = ScoreModel(a=-0.0001, b=-0.005, c=0.9, noise_std=(0.0,) * 6)
        assert model.mean_at(0.0) == 0.9
        assert model.mean_at(10.0) == pytest.approx(0.9 - 0.05 - 0.01, abs=1e-12)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            ScoreModel(a=0.0, b=0.0, c=0.5, noise_std=(0.01, -0.01, 0.0, 0.0, 0.0, 0.0))

    def test_dict_round_trip(self):
        assert ScoreModel.from_dict(BASE_MODEL.to_dict()) == BASE_MODEL


class TestScenarioSpec:
    def test_dict_round_trip_through_json(self):
        spec = small_spec()
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_frames": 0},
            {"objects_per_frame": (3, 2)},
            {"objects_per_frame": (-1, 2)},
            {"distance_range": (10.0, 10.0)},
            {"distance_range": (-1.0, 40.0)},
            {"distance_range": (5.0, 200.0)},
            {"fp_rate_per_bin": (0.3,) * 5},
            {"fp_rate_per_bin": (0.3,) * 5 + (1.2,)},
            {"fn_rate_per_bin": (-0.1,) + (0.0,) * 5},
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ValueError):
            small_spec(**overrides)

    def test_noise_std_length_must_match_bins(self):
        with pytest.raises(ValueError):
            small_spec(score_model=ScoreModel(a=0.0, b=0.0, c=0.5, noise_std=(0.02,) * 4))


def dataset_text(frames):
    parts = []
    for frame in frames:
        parts.append(frame.frame_id)
        parts.append(serialize_records(list(frame.ground_truth)))
        parts.append(serialize_records(list(frame.detections)))
    return "\n".join(parts)


class TestDeterminism:
    def test_same_spec_reproduces_bytes(self):
        spec = small_spec(n_frames=10)
        assert dataset_text(generate(spec)) == dataset_text(generate(spec))

    def test_seed_changes_output(self):
        a = dataset_text(generate(small_spec(n_frames=10)))
        b = dataset_text(generate(small_spec(n_frames=10, seed=20240818)))
        assert a != b

    def test_golden_first_frame(self):
        frames, truths = generate_with_truth(small_spec())
        assert serialize_records(list(frames[0].ground_truth)) == GOLDEN_FRAME0_GT
        assert serialize_records(list(frames[0].detections)) == GOLDEN_FRAME0_DET
        assert truths[0] == ("tp", "tp", "tp", "fp")
        assert scenario_totals(frames) == (11, 16)


class TestGeneratedRecords:
    def setup_method(self):
        self.spec = small_spec(seed=99, n_frames=50)
        self.frames, self.truths = generate_with_truth(self.spec)

    def test_frame_ids_sequential(self):
        assert [f.frame_id for f in self.frames] == [f"{i:06d}" for i in range(50)]

    def test_ground_truth_has_no_scores(self):
        assert all(r.score is None for f in self.frames for r in f.ground_truth)

    def test_detections_all_scored_in_range(self):
        scores = [r.score for f in self.frames for r in f.detections]
        assert scores and all(0.0 <= s <= 1.0 for s in scores)

    def test_all_records_are_cars(self):
        records = [r for f in self.frames for r in (*f.ground_truth, *f.detections)]
        assert all(r.class_name == "Car" for r in records)

    def test_object_count_bounded(self):
        for frame in self.frames:
            assert len(frame.ground_truth) <= self.spec.objects_per_frame[1]

    def test_truth_labels_align_with_detections(self):
        for frame, kinds in zip(self.frames, self.truths):
            assert len(kinds) == len(frame.detections)
            assert set(kinds) <= {"tp", "fp"}

    def test_minimum_separation_between_objects(self):
        for frame, kinds in zip(self.frames, self.truths):
            points = [(r.location[0], r.location[2]) for r in frame.ground_truth]
            points += [
                (r.location[0], r.location[2])
                for r, kind in zip(frame.detections, kinds)
                if kind == "fp"
            ]
            for i in range(len(points)):
                for j in range(i + 1, len(points)):
                    dx = points[i][0] - points[j][0]
                    dz = points[i][1] - points[j][1]
                    assert math.hypot(dx, dz) >= MIN_SEPARATION

    def test_true_detections_overlap_only_their_object(self):
        for frame, kinds in zip(self.frames, self.truths):
            gt_boxes = [r.to_box3d() for r in frame.ground_truth]
            for record, kind in zip(frame.detections, kinds):
                if kind != "tp":
                    continue
                ious = [iou_bev(record.to_box3d(), g) for g in gt_boxes]
                best = max(range(len(ious)), key=ious.__getitem__)
                assert ious[best] >= 0.7
                assert all(v == 0.0 for i, v in enumerate(ious) if i != best)

    def test_false_positives_overlap_nothing(self):
        for frame, kinds in zip(self.frames, self.truths):
            gt_boxes = [r.to_box3d() for r in frame.ground_truth]
            for record, kind in zip(frame.detections, kinds):
                if kind != "fp":
                    continue
                assert all(iou_bev(record.to_box3d(), g) == 0.0 for g in gt_boxes)


class TestNoiselessScores:
    def test_scores_equal_model_mean_exactly(self):
        spec = small_spec(
            seed=5,
            n_frames=20,
            score_model=ScoreModel(a=-0.00004, b=-0.0075, c=0.92, noise_std=(0.0,) * 6),
        )
        frames, truths = generate_with_truth(spec)
        checked = 0
        for frame, kinds in zip(frames, truths):
            for record, kind in zip(frame.detections, kinds):
                if kind == "tp":
                    assert record.score == spec.score_model.mean_at(record.ego_distance())
                    checked += 1
        assert checked > 0

    def test_false_positive_scores_below_local_mean(self):
        spec = small_spec(seed=6, n_frames=40, fp_rate_per_bin=(0.8,) * 6)
        frames, truths = generate_with_truth(spec)
        checked = 0
        for frame, kinds in zip(frames, truths):
            for record, kind in zip(frame.detections, kinds):
                if kind == "fp":
                    local = min(max(spec.score_model.mean_at(record.ego_distance()), 0.0), 1.0)
                    assert 0.45 * local - 1e-9 <= record.score <= 0.85 * local + 1e-9
                    checked += 1
        assert checked > 0


class TestKnownOptimalCounts:
    KEEP_ALL = ThresholdModel(alpha=0.0, beta=0.0, gamma=0.0, k=0.0)

    def test_perfect_scenario(self):
        spec = small_spec(
            seed=3, n_frames=20, fp_rate_per_bin=(0.0,) * 6, fn_rate_per_bin=(0.0,) * 6
        )
        total_gt, total_det = scenario_totals(generate(spec))
        assert total_gt == total_det
        assert known_optimal_counts(spec, self.KEEP_ALL) == (total_gt, 0, 0)

    def test_pure_false_positives(self):
        spec = small_spec(
            seed=4, n_frames=20, objects_per_frame=(0, 0), fp_rate_per_bin=(0.9,) * 6
        )
        _, total_det = scenario_totals(generate(spec))
        assert total_det > 0
        assert known_optimal_counts(spec, self.KEEP_ALL) == (0, total_det, 0)

    def test_missed_objects_counted_as_fn(self):
        spec = small_spec(
            seed=8, n_frames=30, fp_rate_per_bin=(0.0,) * 6, fn_rate_per_bin=(0.5,) * 6
        )
        total_gt, total_det = scenario_totals(generate(spec))
        assert total_det < total_gt
        assert known_optimal_counts(spec, self.KEEP_ALL) == (
            total_det,
            0,
            total_gt - total_det,
        )

    def test_agrees_with_full_evaluation(self):
        spec = small_spec(seed=12, n_frames=100, objects_per_frame=(2, 5))
        model = ThresholdModel(alpha=-0.0001, beta=-0.004, gamma=0.75, delta=60.0, k=0.35)
        frames = generate(spec)
        filtered = [
            FramePair(f.frame_id, f.ground_truth, tuple(keep(f.detections, model)))
            for f in frames
        ]
        report = evaluate(filtered, MatchConfig(iou_kind="bev", iou_threshold=0.7))
        assert known_optimal_counts(spec, model) == (report.tp, report.fp, report.fn)

    def test_clean_scenario_evaluates_perfectly(self):
        spec = small_spec(
            seed=13, n_frames=25, fp_rate_per_bin=(0.0,) * 6, fn_rate_per_bin=(0.0,) * 6
        )
        report = evaluate(generate(spec), MatchConfig(iou_kind="bev", iou_threshold=0.7))
        assert (report.recall, report.precision, report.trade_off) == (1.0, 1.0, 0.0)
        assert report.average_precision == 100.0


class TestScoreDistribution:
    def test_bin_means_track_model_mean(self):
        # Per bin the sample mean minus the average model mean at the
        # drawn distances is a mean of N(0, sigma^2) draws; 4 sigma over
        # sqrt(N) bounds it with overwhelming probability.
        spec = small_spec(
            seed=21,
            n_frames=1500,
            objects_per_frame=(3, 6),
            distance_range=(2.0, 60.0),
            fp_rate_per_bin=(0.0,) * 6,
            fn_rate_per_bin=(0.0,) * 6,
        )
        frames = generate(spec)
        bin_spec = spec.bin_spec
        samples = [
            (r.ego_distance(), r.score) for f in frames for r in f.detections
        ]
        stats = compute_bin_stats(samples, bin_spec)
        model_sums = [0.0] * bin_spec.n_bins
        counts = [0] * bin_spec.n_bins
        for distance, _ in samples:
            if distance < bin_spec.max_distance:
                index = min(int(distance // bin_spec.bin_width), bin_spec.n_bins - 1)
                model_sums[index] += spec.score_model.mean_at(distance)
                counts[index] += 1
        sigma = 0.02
        for row in stats:
            assert row.count == counts[row.bin_index]
            assert row.count >= 500, "scenario too sparse for the tolerance below"
            expected = model_sums[row.bin_index] / row.count
            assert abs(row.mean - expected) <= 4.0 * sigma / math.sqrt(row.count)


class TestScenarioTotals:
    def test_totals_are_simple_sums(self):
        frames = generate(small_spec())
        total_gt, total_det = scenario_totals(frames)
        assert total_gt == sum(len(f.ground_truth) for f in frames)
        assert total_det == sum(len(f.detections) for f in frames)
