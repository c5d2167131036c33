"""Distance binning and per-bin score statistics."""

import json
import math
import re
import sys
from array import array

import pytest
from hypothesis import example, given, strategies as st

from adathresh.bin_stats import (
    MAX_BINS,
    BinSpec,
    BinStats,
    PreFilter,
    Record,
    assign_bins,
    compute_bin_stats,
    keep_rows,
    table_samples,
)
from adathresh.evaluation import BinBreakdown, EvalReport, MatchConfig
from adathresh.kitti_io import LabelTable
from adathresh.synthetic import ScenarioSpec, ScoreModel
from adathresh.threshold import FitResult, SingleThreshold, ThresholdModel
from helpers import Box3D, Frame, assign_bin, detections, ground_truth, make_record, replaced, tables

DEFAULT = BinSpec()

samples_strategy = st.lists(
    st.tuples(st.floats(0.0, 80.0), st.floats(0.0, 1.0)), max_size=60
)
# Scaling by a power of two is exact only while every intermediate stays
# a normal float, squared deviations from the bin mean included. So
# nonzero scores here are at least 2**-400; their squared deviations stay
# far above the smallest normal.
normal_scores = st.just(0.0) | st.floats(2.0**-400, 1.0)
normal_samples_strategy = st.lists(
    st.tuples(st.floats(0.0, 80.0), normal_scores), max_size=60
)
subnormal_samples_strategy = st.lists(
    st.tuples(
        st.floats(0.0, 80.0),
        normal_scores | st.floats(0.0, sys.float_info.min, exclude_max=True),
    ),
    max_size=60,
)
POWERS_OF_TWO = [1.0, 0.5, 0.25, 0.125]


class TestBinSpec:
    def test_defaults_give_six_bins(self):
        assert DEFAULT.n_bins == 6
        assert DEFAULT.edges(0) == (0.0, 10.0)
        assert DEFAULT.edges(5) == (50.0, 60.0)
        assert DEFAULT.center(2) == 25.0

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            BinSpec(bin_width=0.0)
        with pytest.raises(ValueError):
            BinSpec(bin_width=-1.0)

    def test_rejects_non_multiple_range(self):
        with pytest.raises(ValueError):
            BinSpec(bin_width=10.0, max_distance=25.0)

    @pytest.mark.parametrize(
        "width, max_distance", [(math.nan, 60.0), (10.0, math.nan), (math.inf, 60.0), (10.0, math.inf), (-math.inf, 60.0)]
    )
    def test_rejects_non_finite_values(self, width, max_distance):
        with pytest.raises(ValueError, match="must be finite"):
            BinSpec(bin_width=width, max_distance=max_distance)

    def test_bin_count_is_bounded(self):
        assert BinSpec(bin_width=0.006, max_distance=60.0).n_bins == MAX_BINS
        for width, max_distance, count in [(1e-3, 1e6, "1e+09"), (1e-300, 60.0, "6e+301"), (1e-320, 1e6, "inf")]:
            with pytest.raises(ValueError, match=rf"gives {re.escape(count)} bins, more than {MAX_BINS}"):
                BinSpec(bin_width=width, max_distance=max_distance)

    def test_fractional_width_multiple_accepted(self):
        assert BinSpec(bin_width=2.5, max_distance=10.0).n_bins == 4

    def test_edges_out_of_range(self):
        with pytest.raises(ValueError):
            DEFAULT.edges(6)
        with pytest.raises(ValueError):
            DEFAULT.edges(-1)

    def test_dict_round_trip(self):
        spec = BinSpec(bin_width=5.0, max_distance=40.0)
        assert BinSpec.from_dict(spec.to_dict()) == spec


class TestAssignBin:
    def test_zero(self):
        assert assign_bin(0.0, DEFAULT) == 0

    def test_half_open_boundary(self):
        assert assign_bin(10.0, DEFAULT) == 1
        assert assign_bin(9.999999, DEFAULT) == 0

    def test_at_and_beyond_max(self):
        assert assign_bin(60.0, DEFAULT) is None
        assert assign_bin(500.0, DEFAULT) is None

    def test_just_below_max(self):
        assert assign_bin(59.999, DEFAULT) == 5

    def test_negative_distance_raises(self):
        with pytest.raises(ValueError):
            assign_bin(-0.1, DEFAULT)

    @given(st.floats(0.0, 59.999))
    def test_consistent_with_edges(self, distance):
        index = assign_bin(distance, DEFAULT)
        lo, hi = DEFAULT.edges(index)
        assert lo <= distance < hi


# Specs whose edges and range are not all exact doubles (0.1 * 3 > 0.3;
# in BinSpec(0.009, 0.117), the double just below 0.117 floor-divides by
# 0.009 to 13, one past the last bin), and any width with a whole number
# of bins.
ODD_SPECS = st.sampled_from(
    [DEFAULT, BinSpec(0.1, 0.3), BinSpec(0.7, 2.1), BinSpec(1e-3, 1.0), BinSpec(3.0, 3.0), BinSpec(0.009, 0.117)]
) | st.builds(
    lambda width, n: BinSpec(width, width * n), st.floats(1e-3, 100.0), st.integers(1, 40)
)


@st.composite
def binned_distances(draw):
    """(spec, distances): a spec of ODD_SPECS and distances at and around
    its edges and range, huge and infinite ones among them."""
    spec = draw(ODD_SPECS)
    edges = [i * spec.bin_width for i in range(spec.n_bins + 1)] + [spec.max_distance]
    near = [math.nextafter(edge, direction) for edge in edges for direction in (0.0, math.inf)]
    special = st.sampled_from([0.0, -0.0, sys.float_info.max, math.inf, *edges, *near])
    return spec, draw(st.lists(special | st.floats(0.0, 2.0 * spec.max_distance) | st.floats(0.0), max_size=40))


class TestAssignBins:
    """assign_bins is assign_bin of each distance in one pass."""

    @given(binned_distances())
    @example((BinSpec(0.009, 0.117), [math.nextafter(0.117, 0.0), 0.117, 0.0, math.inf]))
    def test_equals_assign_bin_element_by_element(self, case):
        spec, distances = case
        expected = [assign_bin(distance, spec) for distance in distances]
        assert assign_bins(distances, spec) == [spec.n_bins if b is None else b for b in expected]
        assert assign_bins(iter(distances), spec) == assign_bins(distances, spec)

    @given(binned_distances(), st.sampled_from([-0.1, -sys.float_info.min, -math.inf, math.nan]), st.integers(0, 40))
    def test_a_negative_or_nan_distance_raises_as_in_assign_bin(self, case, bad, at):
        spec, distances = case
        distances.insert(min(at, len(distances)), bad)
        with pytest.raises(ValueError):
            assign_bin(bad, spec)
        with pytest.raises(ValueError):
            assign_bins(distances, spec)


class TestBinStats:
    def test_empty_bin_must_have_none_stats(self):
        BinStats(0, 0, None, None)
        with pytest.raises(ValueError):
            BinStats(0, 0, 0.5, 0.1)
        with pytest.raises(ValueError):
            BinStats(0, 3, None, None)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            BinStats(0, 2, 0.5, -0.1)

    @pytest.mark.parametrize("mean, std", [(math.nan, 0.1), (math.inf, 0.1), (0.5, math.nan), (0.5, math.inf)])
    def test_a_mean_or_std_that_is_not_finite_is_rejected(self, mean, std):
        name = "mean" if not math.isfinite(mean) else "std"
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            BinStats(0, 2, mean, std)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            BinStats.from_dict({"bin_index": 0, "count": 2, "mean": mean, "std": std})


class TestComputeBinStats:
    def test_two_point_bin(self):
        stats = compute_bin_stats([(1.0, 0.5), (2.0, 0.7)], DEFAULT)
        assert stats[0].count == 2
        assert stats[0].mean == pytest.approx(0.6, abs=1e-12)
        assert stats[0].std == pytest.approx(0.1, abs=1e-12)

    def test_single_sample_has_zero_std(self):
        stats = compute_bin_stats([(15.0, 0.9)], DEFAULT)
        assert stats[1].mean == 0.9
        assert stats[1].std == 0.0

    def test_four_point_population_std(self):
        samples = [(25.0, s) for s in (0.2, 0.4, 0.6, 0.8)]
        stats = compute_bin_stats(samples, DEFAULT)
        assert stats[2].mean == pytest.approx(0.5, abs=1e-12)
        assert stats[2].std == pytest.approx(math.sqrt(0.05), abs=1e-12)

    def test_empty_bins_marked_undefined(self):
        stats = compute_bin_stats([(35.0, 0.5)], DEFAULT)
        for entry in stats:
            if entry.bin_index == 3:
                assert entry.count == 1
            else:
                assert (entry.count, entry.mean, entry.std) == (0, None, None)

    def test_out_of_range_samples_ignored(self):
        stats = compute_bin_stats([(60.0, 0.5), (200.0, 0.9)], DEFAULT)
        assert all(entry.count == 0 for entry in stats)

    def test_negative_distance_raises(self):
        with pytest.raises(ValueError):
            compute_bin_stats([(-1.0, 0.5)], DEFAULT)

    @given(samples_strategy)
    def test_partition(self, samples):
        stats = compute_bin_stats(samples, DEFAULT)
        in_range = sum(1 for d, _ in samples if d < DEFAULT.max_distance)
        assert sum(entry.count for entry in stats) == in_range

    @given(samples_strategy)
    def test_mean_stays_in_unit_interval(self, samples):
        for entry in compute_bin_stats(samples, DEFAULT):
            if entry.count:
                assert 0.0 <= entry.mean <= 1.0
                assert entry.std >= 0.0

    @given(normal_samples_strategy, st.sampled_from(POWERS_OF_TWO))
    @example([(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.9999999999999999)], 0.5)
    def test_scaling_scores_scales_stats_exactly(self, samples, factor):
        # Powers of two rescale normal floats without rounding, so the
        # check can demand exact equality.
        base = compute_bin_stats(samples, DEFAULT)
        scaled = compute_bin_stats([(d, s * factor) for d, s in samples], DEFAULT)
        for b, s in zip(base, scaled):
            assert s.count == b.count
            if b.count:
                assert s.mean == b.mean * factor
                assert s.std == b.std * factor

    @given(subnormal_samples_strategy, st.sampled_from(POWERS_OF_TWO))
    @example([(0.0, 0.7632867076148406), (0.0, 0.5815989369683127), (0.0, 5e-324)], 0.5)
    def test_scaling_subnormal_scores_within_one_ulp(self, samples, factor):
        # Scaling a subnormal drops its low bits (0.5 * 5e-324 is 0), so
        # with subnormal scores the stats may move by one ulp.
        base = compute_bin_stats(samples, DEFAULT)
        scaled = compute_bin_stats([(d, s * factor) for d, s in samples], DEFAULT)
        for b, s in zip(base, scaled):
            assert s.count == b.count
            if b.count:
                assert abs(s.mean - b.mean * factor) <= math.ulp(b.mean * factor)
                assert abs(s.std - b.std * factor) <= math.ulp(b.std * factor)

    @given(samples_strategy, st.randoms(use_true_random=False))
    def test_permutation_invariance_exact(self, samples, rng):
        shuffled = list(samples)
        rng.shuffle(shuffled)
        assert compute_bin_stats(shuffled, DEFAULT) == compute_bin_stats(samples, DEFAULT)

    @pytest.mark.parametrize(
        "scores",
        [
            [1e308, 1e308],  # the sum overflows
            [-1e308, -1e308],  # the sum overflows below
            [1e308, 0.0],  # the sum of squares overflows
            [1e308, -1e308],
        ],
    )
    def test_a_mean_or_std_that_is_not_finite_is_an_overflow_error_naming_the_bin(self, scores):
        samples = [(0.5, 0.5)] + [(15.0, s) for s in scores]
        message = rf"bin 1 \[10, 20\) m: the mean or std of its {len(scores)} scores is not finite"
        with pytest.raises(OverflowError, match=message):
            compute_bin_stats(samples, DEFAULT)


class TestPreFilter:
    def test_defaults(self):
        pf = PreFilter()
        assert pf.distance_cutoff == 40.0
        assert pf.low_threshold == 0.3
        assert pf.high_threshold == 0.5

    def test_threshold_by_distance(self):
        pf = PreFilter()
        assert pf.threshold_at(0.0) == 0.5
        assert pf.threshold_at(39.999) == 0.5
        assert pf.threshold_at(40.0) == 0.3
        assert pf.threshold_at(60.0) == 0.3
        with pytest.raises(ValueError):
            pf.threshold_at(-1.0)

    def test_keeps_on_equality(self):
        pf = PreFilter()
        records = [make_record(0.0, 10.0, score=0.5), make_record(0.0, 45.0, score=0.3)]
        assert keep_rows(detections(records), pf) == [True, True]
        assert keep_rows(detections([make_record(0.0, 10.0, score=0.49999)]), pf) == [False]
        # At the cutoff itself the low threshold applies.
        at_cutoff = make_record(0.0, 40.0, score=0.3)
        assert keep_rows(detections([make_record(0.0, 39.999, score=0.4), at_cutoff]), pf) == [False, True]
        with pytest.raises(ValueError, match="ground-truth table has no scores"):
            keep_rows(ground_truth([make_record(0.0, 5.0)]), pf)

    def test_validation(self):
        with pytest.raises(ValueError):
            PreFilter(distance_cutoff=-1.0)
        with pytest.raises(ValueError):
            PreFilter(low_threshold=1.5)
        with pytest.raises(ValueError):
            PreFilter(high_threshold=-0.1)

    def test_apply_preserves_order(self):
        samples = [(10.0, 0.6), (10.0, 0.4), (50.0, 0.4), (50.0, 0.2)]
        pedestrian = make_record(0.0, 10.0, score=0.9, class_name="Pedestrian")
        cars = [make_record(0.0, d, score=s) for d, s in samples]
        _, table = tables([Frame("000000", (), cars[:2] + [pedestrian]), Frame("000001", (), cars[2:])])
        assert table_samples(table, "Car", PreFilter()) == [(10.0, 0.6), (50.0, 0.4)]
        assert table_samples(table, "Car", None) == samples

    def test_dict_round_trip(self):
        pf = PreFilter(distance_cutoff=35.0, low_threshold=0.2, high_threshold=0.6)
        assert PreFilter.from_dict(pf.to_dict()) == pf

    @given(st.floats(0.0, 100.0), st.floats(0.0, 1.0))
    def test_keeps_matches_threshold_for(self, distance, score):
        pf = PreFilter()
        record = make_record(0.0, distance, score=score)
        assert keep_rows(detections([record]), pf) == [score >= pf.threshold_at(distance)]


class TestJsonCodec:
    """The one to_dict/from_dict pair behind every JSON file."""

    INSTANCES = [
        BinSpec(bin_width=5.0, max_distance=40.0),
        BinStats(bin_index=2, count=3, mean=0.5, std=0.1),
        PreFilter(distance_cutoff=35.0, low_threshold=0.2, high_threshold=0.6),
        MatchConfig(iou_kind="3d", iou_threshold=0.5, class_name="Van", ap_interpolation="forty_point", difficulty="hard"),
        BinBreakdown(bin_index=6, lo_m=60.0, hi_m=None, tp=3, fp=1, fn=2, recall=0.6, precision=0.75),
        EvalReport(
            config=MatchConfig(),
            tp=3,
            fp=1,
            fn=2,
            recall=0.6,
            precision=0.75,
            trade_off=0.15,
            average_precision=54.5,
            average_precision_filtered=50.0,
            per_bin=(BinBreakdown(0, 0.0, 10.0, 3, 1, 2, 0.6, 0.75),),
        ),
        ScoreModel(a=-4e-05, b=-0.0075, c=0.92, noise_std=(0.02,) * 6),
        ScenarioSpec(
            seed=7,
            n_frames=3,
            objects_per_frame=(2, 5),
            distance_range=(2.0, 58.0),
            score_model=ScoreModel(a=-4e-05, b=-0.0075, c=0.92, noise_std=(0.02,) * 6),
            fp_rate_per_bin=(0.3,) * 6,
            fn_rate_per_bin=(0.1,) * 6,
            bin_spec=BinSpec(bin_width=20.0, max_distance=120.0),
        ),
        ThresholdModel(alpha=-2e-05, beta=-0.0061, gamma=0.6828, delta=50.0, k=0.4),
    ]
    # The keys each from_dict has let be missing, and the value it takes
    # then; every other key is required.
    OPTIONAL = {
        MatchConfig: {"difficulty": None},
        EvalReport: {"average_precision_filtered": None, "per_bin": ()},
        ScenarioSpec: {"bin_spec": BinSpec()},
    }

    @pytest.mark.parametrize("instance", INSTANCES, ids=lambda instance: type(instance).__name__)
    def test_a_missing_key_is_a_key_error_unless_optional(self, instance):
        cls = type(instance)
        data = json.loads(json.dumps(instance.to_dict()))
        assert cls.from_dict(data) == instance
        optional = self.OPTIONAL.get(cls, {})
        for key in data:
            rest = {k: v for k, v in data.items() if k != key}
            if key in optional:
                assert cls.from_dict(rest) == replaced(instance, **{key: optional[key]})
            else:
                with pytest.raises(KeyError) as excinfo:
                    cls.from_dict(rest)
                assert excinfo.value.args == (key,)

    def test_values_are_coerced_by_annotation(self):
        row = BinBreakdown.from_dict(
            {"bin_index": 6.0, "lo_m": 60, "hi_m": None, "tp": 3, "fp": 1, "fn": 2, "recall": 1, "precision": 0.5}
        )
        assert row == BinBreakdown(6, 60.0, None, 3, 1, 2, 1.0, 0.5)
        assert [type(v) for v in (row.bin_index, row.lo_m, row.tp, row.recall)] == [int, float, int, float]
        stats = BinStats.from_dict({"bin_index": 1, "count": 2, "mean": 1, "std": 0})
        assert type(stats.mean) is float and type(stats.std) is float

    @pytest.mark.parametrize("value", [True, False, "0.5", "60", None, [1.0]])
    def test_a_float_field_takes_only_a_number(self, value):
        with pytest.raises(ValueError, match="expected a number"):
            BinSpec.from_dict({"bin_width": 10.0, "max_distance": value})
        with pytest.raises(ValueError, match="expected a number"):
            BinBreakdown.from_dict(
                {"bin_index": 0, "lo_m": 0.0, "hi_m": None, "tp": 0, "fp": 0, "fn": 0, "recall": 0.0, "precision": value}
            )

    @pytest.mark.parametrize("value", [1.5, True, "3", None, float("inf"), float("nan")])
    def test_an_int_field_takes_only_an_integral_number(self, value):
        data = {"bin_index": 1, "count": 2, "mean": 0.5, "std": 0.1}
        assert BinStats.from_dict({**data, "count": 2.0}) == BinStats(1, 2, 0.5, 0.1)
        with pytest.raises(ValueError, match="expected an integer"):
            BinStats.from_dict({**data, "count": value})

    def test_tuples_and_nested_dataclasses_are_decoded(self):
        data = TestJsonCodec.INSTANCES[7].to_dict()
        data.update(objects_per_frame=[2.0, 5.0], distance_range=[2, 58], bin_spec={"bin_width": 20, "max_distance": 120})
        spec = ScenarioSpec.from_dict(data)
        assert spec == TestJsonCodec.INSTANCES[7]
        assert type(spec.objects_per_frame[0]) is int and type(spec.distance_range[0]) is float
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict({**data, "objects_per_frame": [1, 2, 3]})

    def test_strings_pass_through_and_unknown_keys_are_ignored(self):
        assert BinSpec.from_dict({"bin_width": 5, "max_distance": 40, "lo_m": 0.0}) == BinSpec(5.0, 40.0)
        with pytest.raises(ValueError, match="iou_kind"):
            MatchConfig.from_dict({**MatchConfig().to_dict(), "iou_kind": 3})

    @pytest.mark.parametrize("value", [5, 0.5, True, ["Car"], {"name": "Car"}])
    def test_a_str_field_takes_only_a_string(self, value):
        with pytest.raises(ValueError, match="class_name: expected a string"):
            MatchConfig.from_dict({**MatchConfig().to_dict(), "class_name": value})
        assert MatchConfig.from_dict({**MatchConfig().to_dict(), "difficulty": None}).difficulty is None


class TestRecord:
    """Record gives every value type what dataclass(frozen=True) gave it."""

    def test_fields_bind_by_position_keyword_and_default(self):
        assert BinSpec(5.0, 40.0) == BinSpec(5.0, max_distance=40.0) == BinSpec(max_distance=40.0, bin_width=5.0)
        assert (BinSpec().bin_width, BinSpec().max_distance) == (10.0, 60.0)
        model = ThresholdModel(-2e-05, -0.0061, 0.6828)
        assert (model.delta, model.k) == (60.0, 0.6)
        assert ThresholdModel._fields == ("alpha", "beta", "gamma", "delta", "k")

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((1, 2), {}, "missing required arguments: 'mean', 'std'"),
            ((1, 2, None, None, 5), {}, "takes 4 arguments but 5 were given"),
            ((1, 0, None, None), {"median": None}, "unexpected keyword argument 'median'"),
            ((1, 0, None), {"mean": None}, "multiple values for argument 'mean'"),
        ],
    )
    def test_a_missing_or_unknown_argument_is_a_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            BinStats(*args, **kwargs)

    def test_fields_are_frozen(self):
        spec = BinSpec()
        with pytest.raises(AttributeError, match="frozen BinSpec"):
            spec.bin_width = 5.0
        with pytest.raises(AttributeError, match="frozen BinSpec"):
            del spec.bin_width
        with pytest.raises(AttributeError):
            spec.other = 1
        assert spec == BinSpec()

    def test_equality_and_hash_hold_within_one_class(self):
        class Wider(BinSpec):
            pass

        assert BinSpec(5.0, 40.0) == BinSpec(5.0, 40.0)
        assert hash(BinSpec(5.0, 40.0)) == hash(BinSpec(5.0, 40.0)) == hash((5.0, 40.0))
        assert BinSpec(5.0, 40.0) != BinSpec(10.0, 40.0)
        assert Wider(5.0, 40.0) != BinSpec(5.0, 40.0)
        assert BinStats(1, 2, 0.5, 0.1) != (1, 2, 0.5, 0.1)
        assert len({MatchConfig(), MatchConfig(), MatchConfig(iou_kind="3d")}) == 2

    def test_a_label_table_compares_by_identity(self):
        a, b = (LabelTable([], [], [0], [], (), []) for _ in range(2))
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_repr_names_each_field_as_dataclasses_did(self):
        assert repr(BinSpec()) == "BinSpec(bin_width=10.0, max_distance=60.0)"
        assert repr(BinStats(0, 0, None, None)) == "BinStats(bin_index=0, count=0, mean=None, std=None)"
        assert repr(replaced(TestJsonCodec.INSTANCES[5], per_bin=())) == (
            "EvalReport(config=MatchConfig(iou_kind='bev', iou_threshold=0.7, class_name='Car', "
            "ap_interpolation='eleven_point', difficulty=None), tp=3, fp=1, fn=2, recall=0.6, "
            "precision=0.75, trade_off=0.15, average_precision=54.5, average_precision_filtered=50.0, per_bin=())"
        )

    def test_to_dict_nests_records_and_keeps_tuples(self):
        assert TestJsonCodec.INSTANCES[5].to_dict() == {
            "config": {
                "iou_kind": "bev",
                "iou_threshold": 0.7,
                "class_name": "Car",
                "ap_interpolation": "eleven_point",
                "difficulty": None,
            },
            "tp": 3,
            "fp": 1,
            "fn": 2,
            "recall": 0.6,
            "precision": 0.75,
            "trade_off": 0.15,
            "average_precision": 54.5,
            "average_precision_filtered": 50.0,
            "per_bin": (
                {"bin_index": 0, "lo_m": 0.0, "hi_m": 10.0, "tp": 3, "fp": 1, "fn": 2, "recall": 0.6, "precision": 0.75},
            ),
        }

    def test_a_cached_property_is_computed_once(self):
        box = Box3D((0.0, 1.65, 10.0), (1.5, 1.7, 4.0), 0.0)
        assert box.footprint is box.footprint
        assert box.footprint_area == pytest.approx(1.7 * 4.0)
        assert box == Box3D((0, 1.65, 10), (1.5, 1.7, 4), 0)

    def test_every_value_type_is_a_record(self):
        classes = [BinSpec, BinStats, PreFilter, BinBreakdown, EvalReport, MatchConfig, Box3D]
        classes += [LabelTable, ScenarioSpec, ScoreModel, FitResult, SingleThreshold, ThresholdModel]
        assert all(issubclass(cls, Record) for cls in classes)


def _record_classes(cls=Record):
    """Every Record subclass the package defines, and the tests' Box3D, by name."""
    found = {}
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("adathresh.") or sub is Box3D:
            found[sub.__name__] = sub
        found.update(_record_classes(sub))
    return found


RECORD_CLASSES = _record_classes()


def _typed(value):
    """value with the type of every field and element beside it, so that
    two equal records of different value types compare unequal."""
    if isinstance(value, Record):
        return type(value), tuple(map(_typed, value._values()))
    if isinstance(value, (tuple, list)):
        return type(value), tuple(map(_typed, value))
    return type(value), value


def _outcome(build):
    """The typed record build() returns, or the type of what it raises."""
    try:
        return _typed(build())
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # KeyError: a nested record's missing key
        return type(exc)


class TestOneValueRule:
    """A call and a JSON file turn a value into a field value by one rule."""

    # One JSON-like object per record class that both ways accept.
    VALID = {
        type(instance).__name__: json.loads(json.dumps(instance.to_dict())) for instance in TestJsonCodec.INSTANCES
    }
    VALID.update(
        SingleThreshold={"threshold": 0.5},
        FitResult={
            "model": VALID["ThresholdModel"],
            "bin_indices": [0, 1, 2],
            "abscissas": [5.0, 15.0, 25.0],
            "fitted": [0.9, 0.8, 0.7],
            "residuals": [0.0, 0.01, -0.01],
            "weighted_rmse": 0.01,
        },
        Box3D={"center": [0.0, 1.65, 10.0], "dims": [1.5, 1.7, 4.0], "yaw": 0.5},
        LabelTable={
            "frame_ids": ["000000"],
            "files": ["000000.txt"],
            "offsets": [0, 0],
            "class_names": [],
            "columns": [array("d")] * 15,
            "lines": [],
        },
    )
    # Booleans, strings, integral and non-integral numbers, non-finite
    # numbers, None, lists of every length a field here holds, and a dict.
    PROBES = [
        True, False, "0.5", "", 0, 2, -1, 10**400, 0.0, 0.5, 2.0, 2.7, -1.0, math.nan, math.inf, None,
        [], [0.5], [2, 5], [2.0, 5.7], [0.0, 1.65, 10.0], [1, 2, 3], [True, 1.0, 2.0], [0.5, "x", 0.5], [0.1] * 6, {},
    ]

    @pytest.mark.parametrize("name", sorted(RECORD_CLASSES))
    def test_a_call_and_from_dict_accept_and_reject_the_same_values(self, name):
        cls, valid = RECORD_CLASSES[name], self.VALID[name]
        for field in cls._fields:
            for probe in [valid[field], *self.PROBES]:
                data = {**valid, field: probe}
                assert _outcome(lambda: cls(**data)) == _outcome(lambda: cls.from_dict(data)), (field, probe)
        # A nested record may also be given as an instance of its class.
        record = cls.from_dict(valid)
        nested = {field: value for field, value in zip(cls._fields, record._values()) if isinstance(value, Record)}
        assert _typed(cls(**valid)) == _typed(cls(**{**valid, **nested})) == _typed(record)

    def test_integer_fields_take_only_integral_numbers(self):
        scenario = self.VALID["ScenarioSpec"]
        with pytest.raises(ValueError, match="objects_per_frame: expected an integer, got 2.7"):
            ScenarioSpec(**{**scenario, "objects_per_frame": (2.7, 5)})
        with pytest.raises(ValueError, match="seed: expected an integer, got 1.9"):
            ScenarioSpec(**{**scenario, "seed": 1.9})

    def test_a_boolean_is_not_a_number(self):
        with pytest.raises(ValueError, match="gamma: expected a number, got True"):
            ThresholdModel(alpha=0.0, beta=0.0, gamma=True)
        with pytest.raises(ValueError, match="threshold: expected a number, got True"):
            SingleThreshold(True)

    def test_a_float_field_holds_a_float_whatever_number_it_was_given(self):
        written = '{"bin_width": 10.0, "max_distance": 60.0}'
        assert json.dumps(BinSpec(10, 60).to_dict()) == written
        assert json.dumps(BinSpec.from_dict({"bin_width": 10, "max_distance": 60}).to_dict()) == written

    @pytest.mark.parametrize("center", [(0.0, 1.65), (0.0, 1.65, 10.0, 1.0)])
    def test_a_tuple_of_the_wrong_length_names_the_field_and_the_count(self, center):
        with pytest.raises(ValueError, match=f"center: expected 3 values, got {len(center)}"):
            Box3D(center, (1.5, 1.7, 4.0), 0.0)
