"""Synthetic scene generator: determinism, geometry, and oracle counts."""

import hashlib
import json
import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adathresh import synthetic
from adathresh.bin_stats import compute_bin_stats, ground_distance, keep_rows
from adathresh.cli import main
from adathresh.evaluation import MatchConfig, evaluate_tables
from adathresh.philox import _FI, _KI, _UNIT, _WI, PhiloxStream, seed_key
from adathresh.synthetic import (
    MIN_SEPARATION,
    ScenarioSpec,
    ScoreModel,
    _raw_frames,
    generate,
    generate_with_truth,
    known_optimal_counts,
)
from adathresh.threshold import ThresholdModel
from helpers import Box3D, iou_bev

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

    @pytest.mark.parametrize(
        "field, value", [("a", math.inf), ("b", -math.inf), ("c", math.nan), ("noise_std", (0.02,) * 5 + (math.nan,))]
    )
    def test_rejects_non_finite_values(self, field, value):
        fields = {"a": 0.0, "b": 0.0, "c": 0.5, "noise_std": (0.02,) * 6, field: value}
        with pytest.raises(ValueError, match="finite"):
            ScoreModel(**fields)

    def test_dict_round_trip(self):
        assert ScoreModel.from_dict(BASE_MODEL.to_dict()) == BASE_MODEL


class TestScenarioSpec:
    def test_dict_round_trip_through_json(self):
        spec = small_spec()
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": -1},
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


def dataset_text(tables):
    """The frame ids, frame offsets and label lines of a (gt, det) table pair."""
    gt, det = tables
    return repr((gt.frame_ids, gt.files, gt.offsets, gt.lines, det.files, det.offsets, det.lines))


def by_frame(table, values):
    """values, one per row of table, split into the table's frames."""
    return [values[start:stop] for start, stop in zip(table.offsets, table.offsets[1:])]


def boxes(table):
    """Each row's box, from its center, dims and yaw columns."""
    names = ("x", "y", "z", "height", "width", "length", "rotation_y")
    rows = zip(*(table.column(name) for name in names))
    return [Box3D(center=(x, y, z), dims=(h, w, l), yaw=yaw) for x, y, z, h, w, l, yaw in rows]


def ground_points(table):
    """Each row's (x, z)."""
    return list(zip(table.column("x"), table.column("z")))


# sha256 of dataset_text(generate(spec)) for small_spec(**overrides),
# recorded from the generator that drew every uniform with
# Generator.uniform: a drifted stream or a changed float operation anywhere
# in a frame changes these. In the last, crowded scenario most placements
# fail, of true objects and of false positives alike.
PINNED_DIGESTS = [
    ({"n_frames": 200}, "45e045391ae050c0cea9e167590710ce65a1d6cf39a4e184f9d5cb9dd05cd742"),
    ({"n_frames": 200, "seed": 99}, "9606dc508c2dae9bd802f9a717421f82016c018959704cdd14a0536e0fec44e8"),
    (
        {"seed": 5, "n_frames": 60, "objects_per_frame": (16, 16), "distance_range": (2.0, 60.0)},
        "530785e22ca0b4e0b6e486e9c061625da8a51ec58cb5ab44b0dbe40c0ba427a9",
    ),
    (
        {"n_frames": 20, "objects_per_frame": (30, 40), "distance_range": (2.0, 20.0), "fp_rate_per_bin": (0.9,) * 6},
        "10f8d783515fd7f4ec4da9a070b413de1260f179ce1ef7082486ba4d2c97e67a",
    ),
]


class TestDeterminism:
    def test_same_spec_reproduces_bytes(self):
        spec = small_spec(n_frames=10)
        assert dataset_text(generate(spec)) == dataset_text(generate(spec))

    def test_seed_changes_output(self):
        a = dataset_text(generate(small_spec(n_frames=10)))
        b = dataset_text(generate(small_spec(n_frames=10, seed=20240818)))
        assert a != b

    def test_golden_first_frame(self):
        gt, det, kinds = generate_with_truth(small_spec())
        assert "".join(line + "\n" for line in by_frame(gt, gt.lines)[0]) == GOLDEN_FRAME0_GT
        assert "".join(line + "\n" for line in by_frame(det, det.lines)[0]) == GOLDEN_FRAME0_DET
        assert by_frame(det, kinds)[0] == ["tp", "tp", "tp", "fp"]
        assert (len(gt), len(det)) == (11, 16)

    @pytest.mark.parametrize("overrides, digest", PINNED_DIGESTS)
    def test_pinned_dataset_digest(self, overrides, digest):
        text = dataset_text(generate(small_spec(**overrides)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("overrides", [overrides for overrides, _ in PINNED_DIGESTS])
    def test_numpys_own_generator_writes_the_same_dataset(self, monkeypatch, overrides):
        # The generator draws only through calls numpy's Generator has
        # under the same names, so numpy's stream is a drop-in.
        spec = small_spec(**overrides)
        expected = dataset_text(generate(spec))
        monkeypatch.setattr(synthetic, "PhiloxStream", lambda seed: np.random.Generator(np.random.Philox(seed)))
        assert dataset_text(generate(spec)) == expected


# (low, high) of every uniform draw the frame loop makes.
FRAME_LOOP_RANGES = [
    (-synthetic._MAX_BEARING, synthetic._MAX_BEARING),
    (-math.pi, math.pi),
    (-synthetic._CENTER_JITTER, synthetic._CENTER_JITTER),
    (-synthetic._YAW_JITTER, synthetic._YAW_JITTER),
    synthetic._FP_SCORE_BAND,
    (-1.0, 1.0),  # dimension jitter
    (0.0, 1.0),  # miss and false-positive draws
]

finite = st.floats(-1e300, 1e300)
any_range = st.tuples(finite, finite).map(sorted).map(tuple)
draws = st.lists(
    st.one_of(
        st.tuples(st.just("uniform"), st.sampled_from(FRAME_LOOP_RANGES) | any_range),
        st.tuples(st.just("integers"), st.tuples(st.integers(0, 20), st.integers(0, 20)).map(sorted)),
        st.just(("normal", None)),
    ),
    max_size=40,
)


def uniform_pairs(seed, low, high, n):
    """n draws of numpy's Generator.uniform(low, high) and n of the
    stream's uniform(low, high) from the same seed, as hex."""
    numpy_rng = np.random.Generator(np.random.Philox(seed))
    stream = PhiloxStream(seed)
    return [(float(numpy_rng.uniform(low, high)).hex(), stream.uniform(low, high).hex()) for _ in range(n)]


def assert_aligned(stream, numpy_rng):
    """The stream and numpy's generator hold the same buffered 32-bit half
    and give the same next raw outputs."""
    state = numpy_rng.bit_generator.state
    assert state["has_uint32"] == (stream._half is not None)
    if stream._half is not None:
        assert state["uinteger"] == stream._half
    assert [stream.raw() for _ in range(5)] == [int(v) for v in numpy_rng.bit_generator.random_raw(5)]


class TestUniformDraws:
    @pytest.mark.parametrize("bounds", FRAME_LOOP_RANGES)
    def test_each_frame_loop_range_draws_numpy_uniforms(self, bounds):
        # Many draws per range: a range one ulp off changed 431 of these
        # 2,000 fp-fraction draws, too few for the property below to be
        # sure to see.
        for expected, got in uniform_pairs(20240817, *bounds, 2000):
            assert got == expected

    @given(st.integers(0, 2**64 - 1), draws)
    def test_raw_uniform_is_generator_uniform_bit_for_bit(self, seed, sequence):
        # The stream's uniform, integers and standard_normal against
        # numpy's Generator on the same seed; the two must stay aligned.
        numpy_rng = np.random.Generator(np.random.Philox(seed))
        stream = PhiloxStream(seed)
        for kind, args in sequence:
            if kind == "uniform":
                expected = float(numpy_rng.uniform(*args))
                assert stream.uniform(*args).hex() == expected.hex(), args
            elif kind == "integers":
                assert stream.integers(args[0], args[1] + 1) == int(numpy_rng.integers(args[0], args[1] + 1))
            else:
                assert stream.standard_normal().hex() == float(numpy_rng.standard_normal()).hex()
        assert_aligned(stream, numpy_rng)


def normal_after(output, then=(0, 0, 0)):
    """standard_normal from numpy and from the stream, each fed the raw
    outputs output, then the three of then, then seed 0's stream: both
    values, and how many outputs each used."""
    bit_generator = np.random.Philox(0)
    state = bit_generator.state
    state["buffer"] = np.array([output, *then], dtype=np.uint64)
    state["buffer_pos"] = 0
    bit_generator.state = state
    expected = float(np.random.Generator(bit_generator).standard_normal())
    after = bit_generator.state
    # Past the set buffer, each four outputs are one more counter step.
    numpy_used = 4 * int(after["state"]["counter"][0]) + after["buffer_pos"]
    stream = PhiloxStream(0)
    outputs = chain([output, *then], iter(stream.raw, None))
    used = []
    stream.raw = lambda: used.append(1) or next(outputs)
    return expected, stream.standard_normal(), numpy_used, len(used)


def ziggurat_output(idx, rabs, sign=0):
    """The raw output whose ziggurat layer is idx, sign bit sign and
    52-bit magnitude rabs."""
    return rabs << 9 | sign << 8 | idx


class TestPhiloxStream:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200 - 2**100 + 12345])
    def test_key_is_numpys_seed_sequence_state(self, seed):
        expected = tuple(int(v) for v in np.random.SeedSequence(seed).generate_state(2, np.uint64))
        assert seed_key(seed) == expected
        assert [int(v) for v in np.random.Philox(seed).state["state"]["key"]] == list(expected)

    def test_raw_outputs_cross_batches_as_numpys(self):
        # 3,000 outputs span three of the stream's 1,024-output batches.
        numpy_raw = np.random.Philox(7).random_raw(3000)
        stream = PhiloxStream(7)
        assert [stream.raw() for _ in range(3000)] == [int(v) for v in numpy_raw]

    @pytest.mark.parametrize(
        "low, high",
        [
            (0, 1), (3, 4), (0, 2), (-5, 16), (0, 2**31), (0, 2**32 - 1), (0, 2**32),
            (7, 2**32 + 8), (0, 2**40 + 3), (-(2**63), 0), (-(2**63), 2**63),
        ],
    )
    def test_integers_of_every_range_width_are_numpys(self, low, high):
        # Widths below, at and above 32 bits: the 32-bit rejection, the
        # plain 32-bit draw, the 64-bit rejection and the plain 64-bit draw,
        # interleaved with raw draws that must leave the buffered half alone.
        numpy_rng = np.random.Generator(np.random.Philox(11))
        stream = PhiloxStream(11)
        for i in range(300):
            if i % 3 == 2:
                assert stream.raw() == int(numpy_rng.bit_generator.random_raw())
            assert stream.integers(low, high) == int(numpy_rng.integers(low, high))
        assert_aligned(stream, numpy_rng)

    @pytest.mark.parametrize("low, high", [(0, 0), (5, 4), (0, 2**63 + 1), (-(2**63) - 1, 0)])
    def test_integers_outside_int64_or_of_an_empty_range_is_a_value_error(self, low, high):
        with pytest.raises(ValueError):
            PhiloxStream(0).integers(low, high)

    @pytest.mark.parametrize("idx", range(256))
    def test_each_ziggurat_layer_is_numpys(self, idx):
        # rabs = 1 gives exactly the layer's width wi[idx] (layer 1, whose
        # ki is 0, by its wedge with a zero uniform); rabs = ki - 1 returns
        # from one output, and rabs = ki goes on to the wedge or the tail.
        for sign in (0, 1):
            expected, got, numpy_used, used = normal_after(ziggurat_output(idx, 1, sign))
            assert expected == got == (-_WI[idx] if sign else _WI[idx])
            assert numpy_used == used
        if _KI[idx] > 0:
            expected, got, numpy_used, used = normal_after(ziggurat_output(idx, _KI[idx] - 1))
            assert expected.hex() == got.hex() and numpy_used == used == 1
        expected, got, numpy_used, used = normal_after(ziggurat_output(idx, _KI[idx]))
        assert expected.hex() == got.hex() and numpy_used == used > 1

    @pytest.mark.parametrize("idx", range(1, 256))
    def test_each_wedge_rejects_from_numpys_uniform(self, idx):
        # A point halfway out in layer idx, so past ki, and k the first
        # uniform k * 2**-53 whose wedge height reaches the density there:
        # the wedge accepts with k - 1 and rejects with k, in numpy as in
        # the stream. One ulp more or less in fi[idx - 1] or fi[idx] moves
        # that k by about fi / (fi[idx - 1] - fi[idx]) steps.
        rabs = (_KI[idx] + 2**52) // 2
        x = rabs * _WI[idx]

        def rejects(k):
            return (_FI[idx - 1] - _FI[idx]) * (k * _UNIT) + _FI[idx] >= math.exp(-0.5 * x * x)

        low, high = 0, 2**53 - 1
        assert not rejects(low) and rejects(high)
        while high - low > 1:
            middle = (low + high) // 2
            low, high = (low, middle) if rejects(middle) else (middle, high)
        # The output after a rejection, 0, is layer 0 at rabs 0: 0.0 at once.
        for k, value, n_used in ((high - 1, x, 2), (high, 0.0, 3)):
            expected, got, numpy_used, used = normal_after(ziggurat_output(idx, rabs), (k << 11, 0, 0))
            assert expected == got == value and numpy_used == used == n_used

    def test_normals_through_the_tail_and_the_wedges_are_numpys(self):
        numpy_rng = np.random.Generator(np.random.Philox(20240817))
        stream = PhiloxStream(20240817)
        draw = stream.raw
        first = []
        stream.raw = lambda: first.append(value := draw()) or value
        branches = set()
        for _ in range(50000):
            first.clear()
            assert stream.standard_normal().hex() == float(numpy_rng.standard_normal()).hex()
            if len(first) > 1:
                branches.add("tail" if first[0] & 0xFF == 0 else "wedge")
        assert branches == {"tail", "wedge"}
        assert_aligned(stream, numpy_rng)


class TestGeneratedRecords:
    def setup_method(self):
        self.spec = small_spec(seed=99, n_frames=50)
        self.gt, self.det, self.kinds = generate_with_truth(self.spec)

    def test_frame_ids_sequential(self):
        assert self.gt.frame_ids == self.det.frame_ids == [f"{i:06d}" for i in range(50)]
        assert self.det.files == [f"{i:06d}.txt" for i in range(50)]

    def test_frame_ids_past_six_digits_still_ascend(self, monkeypatch):
        # Only the ids matter here, so every frame after small_spec's first is empty.
        first = _raw_frames(small_spec(n_frames=1))
        monkeypatch.setattr(synthetic, "_raw_frames", lambda spec: first + [([], [], [])] * (spec.n_frames - 1))
        gt, det, _ = generate_with_truth(small_spec(n_frames=1_000_001))
        assert gt.frame_ids[-2:] == ["0999999", "1000000"]
        assert all(a < b for a, b in zip(gt.frame_ids, gt.frame_ids[1:]))
        report = evaluate_tables(gt, det, MatchConfig())
        assert (report.tp, report.fp, report.fn) == (3, 1, 0)

    def test_ground_truth_has_no_scores(self):
        with pytest.raises(ValueError, match="ground-truth table has no scores"):
            self.gt.scores()
        assert all(len(line.split()) == 15 for line in self.gt.lines)

    def test_detections_all_scored_in_range(self):
        scores = self.det.scores()
        assert scores and all(0.0 <= s <= 1.0 for s in scores)

    def test_all_records_are_cars(self):
        assert set(self.gt.class_names + self.det.class_names) == {"Car"}

    def test_object_count_bounded(self):
        for objects in by_frame(self.gt, self.gt.lines):
            assert len(objects) <= self.spec.objects_per_frame[1]

    def test_truth_labels_align_with_detections(self):
        assert len(self.kinds) == len(self.det)
        assert set(self.kinds) <= {"tp", "fp"}

    def test_minimum_separation_between_objects(self):
        for gt_points, det_points, kinds in zip(
            by_frame(self.gt, ground_points(self.gt)),
            by_frame(self.det, ground_points(self.det)),
            by_frame(self.det, self.kinds),
        ):
            points = gt_points + [point for point, kind in zip(det_points, kinds) if kind == "fp"]
            for i in range(len(points)):
                for j in range(i + 1, len(points)):
                    dx = points[i][0] - points[j][0]
                    dz = points[i][1] - points[j][1]
                    assert math.hypot(dx, dz) >= MIN_SEPARATION

    def frame_boxes(self):
        """(ground-truth boxes, detection boxes, detection kinds) of each frame."""
        return zip(by_frame(self.gt, boxes(self.gt)), by_frame(self.det, boxes(self.det)), by_frame(self.det, self.kinds))

    def test_true_detections_overlap_only_their_object(self):
        for gt_boxes, det_boxes, kinds in self.frame_boxes():
            for box, kind in zip(det_boxes, kinds):
                if kind != "tp":
                    continue
                ious = [iou_bev(box, g) for g in gt_boxes]
                best = max(range(len(ious)), key=ious.__getitem__)
                assert ious[best] >= 0.7
                assert all(v == 0.0 for i, v in enumerate(ious) if i != best)

    def test_false_positives_overlap_nothing(self):
        for gt_boxes, det_boxes, kinds in self.frame_boxes():
            for box, kind in zip(det_boxes, kinds):
                if kind != "fp":
                    continue
                assert all(iou_bev(box, g) == 0.0 for g in gt_boxes)


class TestNoiselessScores:
    def test_scores_equal_model_mean_exactly(self):
        # On the generated values, before they are formatted as label lines.
        spec = small_spec(
            seed=5,
            n_frames=20,
            score_model=ScoreModel(a=-0.00004, b=-0.0075, c=0.92, noise_std=(0.0,) * 6),
        )
        checked = 0
        for _, det_rows, kinds in _raw_frames(spec):
            for (x, z, _, _, score), kind in zip(det_rows, kinds):
                if kind == "tp":
                    assert score == spec.score_model.mean_at(ground_distance(x, z))
                    checked += 1
        assert checked > 0

    def test_false_positive_scores_below_local_mean(self):
        spec = small_spec(seed=6, n_frames=40, fp_rate_per_bin=(0.8,) * 6)
        _, det, kinds = generate_with_truth(spec)
        checked = 0
        for distance, score, kind in zip(det.distances(), det.scores(), kinds):
            if kind == "fp":
                local = min(max(spec.score_model.mean_at(distance), 0.0), 1.0)
                assert 0.45 * local - 1e-9 <= score <= 0.85 * local + 1e-9
                checked += 1
        assert checked > 0


class TestKnownOptimalCounts:
    KEEP_ALL = ThresholdModel(alpha=0.0, beta=0.0, gamma=0.0, delta=60.0, k=0.0)

    def test_perfect_scenario(self):
        spec = small_spec(
            seed=3, n_frames=20, fp_rate_per_bin=(0.0,) * 6, fn_rate_per_bin=(0.0,) * 6
        )
        total_gt, total_det = map(len, generate(spec))
        assert total_gt == total_det
        assert known_optimal_counts(spec, self.KEEP_ALL) == (total_gt, 0, 0)

    def test_pure_false_positives(self):
        spec = small_spec(
            seed=4, n_frames=20, objects_per_frame=(0, 0), fp_rate_per_bin=(0.9,) * 6
        )
        total_det = len(generate(spec)[1])
        assert total_det > 0
        assert known_optimal_counts(spec, self.KEEP_ALL) == (0, total_det, 0)

    def test_missed_objects_counted_as_fn(self):
        spec = small_spec(
            seed=8, n_frames=30, fp_rate_per_bin=(0.0,) * 6, fn_rate_per_bin=(0.5,) * 6
        )
        total_gt, total_det = map(len, generate(spec))
        assert total_det < total_gt
        assert known_optimal_counts(spec, self.KEEP_ALL) == (
            total_det,
            0,
            total_gt - total_det,
        )

    def test_agrees_with_full_evaluation(self):
        spec = small_spec(seed=12, n_frames=100, objects_per_frame=(2, 5))
        model = ThresholdModel(alpha=-0.0001, beta=-0.004, gamma=0.75, delta=60.0, k=0.35)
        gt, det = generate(spec)
        report = evaluate_tables(gt, det, MatchConfig(iou_kind="bev", iou_threshold=0.7), kept=keep_rows(det, model))
        assert known_optimal_counts(spec, model) == (report.tp, report.fp, report.fn)

    def test_agrees_with_eval_on_the_files_synth_writes(self, tmp_path):
        # The model's constant threshold is a score as written, so each
        # detection must be judged by the value synth writes, not by the
        # generator's unrounded one.
        spec_path = tmp_path / "scenario.json"
        spec_path.write_text(json.dumps(small_spec().to_dict()), encoding="utf-8")
        data = tmp_path / "data"
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(data)]) == 0
        score = float((data / "det" / "000000.txt").read_text().split()[15])
        model = ThresholdModel(alpha=0.0, beta=0.0, gamma=score, delta=60.0, k=score)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model.to_dict()), encoding="utf-8")
        io = ["--gt-dir", str(data / "gt"), "--det-dir", str(data / "det"), "--out-dir", str(tmp_path / "eval")]
        assert main(["eval", *io, "--threshold-mode", f"adaptive:{model_path}"]) == 0
        report = json.loads((tmp_path / "eval" / "eval_report.json").read_text(encoding="utf-8"))
        assert known_optimal_counts(small_spec(), model) == (report["tp"], report["fp"], report["fn"]) == (5, 0, 6)

    def test_clean_scenario_evaluates_perfectly(self):
        spec = small_spec(
            seed=13, n_frames=25, fp_rate_per_bin=(0.0,) * 6, fn_rate_per_bin=(0.0,) * 6
        )
        report = evaluate_tables(*generate(spec), MatchConfig(iou_kind="bev", iou_threshold=0.7))
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
        _, det = generate(spec)
        bin_spec = spec.bin_spec
        samples = list(zip(det.distances(), det.scores()))
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
