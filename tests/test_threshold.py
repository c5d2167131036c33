"""Piecewise threshold model: evaluation, filtering, and fitting."""

import math
from itertools import compress
from operator import le

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from adathresh.bin_stats import BinSpec, BinStats, FitError, ModelRangeError, PreFilter, keep_rows
from adathresh.threshold import (
    SIGMA_FLOOR,
    SingleThreshold,
    ThresholdModel,
    _solve_weighted_quadratic,
    fit_quadratic,
)
from helpers import detections, exact_quadratic_fit, fraction_cramer_solve, ground_truth, make_record

# The tuned reference parameterization used throughout the docs.
REFERENCE = ThresholdModel(alpha=-0.00002, beta=-0.0061, gamma=0.6828, delta=60.0, k=0.6)

scores = st.floats(0.0, 1.0)
distances = st.floats(0.0, 100.0)


def det_records(scored_at):
    """Records with (distance, score) pairs laid out on the z axis."""
    return [make_record(0.0, d, score=s) for d, s in scored_at]


@st.composite
def record_lists(draw):
    pairs = draw(st.lists(st.tuples(st.floats(0.0, 90.0), scores), max_size=30))
    return det_records(pairs)


@st.composite
def threshold_models(draw):
    """Valid models built from three in-range curve values.

    Sampling the quadratic through its values at 0, delta/2, and delta
    keeps construction failures (interior vertex escaping [0, 1]) rare.
    """
    delta = draw(st.floats(10.0, 80.0))
    y0 = draw(st.floats(0.0, 1.0))
    y_mid = draw(st.floats(0.0, 1.0))
    y_end = draw(st.floats(0.0, 1.0))
    h = delta / 2.0
    alpha = (y0 - 2.0 * y_mid + y_end) / (2.0 * h * h)
    beta = (y_end - y0) / delta - alpha * delta
    try:
        return ThresholdModel(
            alpha=alpha, beta=beta, gamma=y0, delta=delta, k=draw(st.floats(0.0, 1.0))
        )
    except ModelRangeError:
        assume(False)


class TestThresholdModelConstruction:
    def test_reference_parameters_valid(self):
        assert REFERENCE.alpha == -0.00002
        assert REFERENCE.k == 0.6

    def test_rejects_non_positive_delta(self):
        with pytest.raises(ModelRangeError):
            ThresholdModel(alpha=0.0, beta=0.0, gamma=0.5, delta=0.0, k=0.6)

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_rejects_delta_that_is_not_finite(self, delta):
        # A flat quadratic stays in [0, 1] on any range, so only the
        # finiteness check stops an infinite delta.
        with pytest.raises(ModelRangeError, match=f"delta must be finite, got {delta}"):
            ThresholdModel(alpha=0.0, beta=0.0, gamma=0.5, delta=delta, k=0.6)

    @pytest.mark.parametrize("k", [-0.01, 1.01])
    def test_rejects_out_of_range_k(self, k):
        with pytest.raises(ModelRangeError):
            ThresholdModel(alpha=0.0, beta=0.0, gamma=0.5, delta=60.0, k=k)

    def test_rejects_gamma_above_one(self):
        with pytest.raises(ModelRangeError):
            ThresholdModel(alpha=0.0, beta=0.0, gamma=1.2, delta=60.0, k=0.6)

    def test_rejects_negative_curve_at_far_end(self):
        # 0.5 - 0.02 * 60 = -0.7 at the far end of the default range.
        with pytest.raises(ModelRangeError):
            ThresholdModel(alpha=0.0, beta=-0.02, gamma=0.5, delta=60.0, k=0.6)

    def test_rejects_interior_vertex_dip(self):
        # Endpoints stay in range but the vertex at d = 50 dips to -2.
        with pytest.raises(ModelRangeError):
            ThresholdModel(alpha=0.001, beta=-0.1, gamma=0.5, delta=60.0, k=0.5)

    def test_boundary_values_allowed(self):
        ThresholdModel(alpha=0.0, beta=0.0, gamma=1.0, delta=60.0, k=0.6)
        ThresholdModel(alpha=0.0, beta=0.0, gamma=0.0, delta=60.0, k=0.0)

    def test_rejection_not_clamping(self):
        with pytest.raises(ModelRangeError):
            ThresholdModel(alpha=0.0, beta=0.0, gamma=1.01, delta=60.0, k=0.6)

    def test_dict_round_trip(self):
        assert ThresholdModel.from_dict(REFERENCE.to_dict()) == REFERENCE


class TestThresholdAt:
    def test_reference_value_at_zero(self):
        assert REFERENCE.threshold_at(0.0) == 0.6828

    def test_reference_value_at_forty(self):
        assert REFERENCE.threshold_at(40.0) == pytest.approx(0.4068, abs=1e-9)

    def test_reference_value_at_sixty(self):
        assert REFERENCE.threshold_at(60.0) == pytest.approx(0.2448, abs=1e-9)

    def test_constant_beyond_delta(self):
        assert REFERENCE.threshold_at(60.000001) == 0.6
        assert REFERENCE.threshold_at(1000.0) == 0.6

    def test_negative_distance_raises(self):
        with pytest.raises(ValueError):
            REFERENCE.threshold_at(-1.0)

    def test_constant_model_reduces_to_single_value(self):
        flat = ThresholdModel(alpha=0.0, beta=0.0, gamma=0.5, delta=60.0, k=0.5)
        for d in (0.0, 13.0, 59.9, 60.0, 75.0):
            assert flat.threshold_at(d) == 0.5

    @given(threshold_models(), distances)
    def test_always_within_unit_interval(self, model, d):
        assert -1e-9 <= model.threshold_at(d) <= 1.0 + 1e-9


class TestKeepBoundaries:
    @pytest.mark.parametrize(
        "schedule", [SingleThreshold(0.5), REFERENCE, PreFilter()], ids=["single", "adaptive", "pre_filter"]
    )
    @pytest.mark.parametrize("distance", [0.0, 12.5, 40.0, 60.0, 75.0])
    def test_score_equal_to_the_threshold_is_kept(self, schedule, distance):
        t = schedule.threshold_at(distance)
        at, below = make_record(0.0, distance, score=t), make_record(0.0, distance, score=t - 1e-9)
        assert keep_rows(detections([at, below]), schedule) == [True, False]

    def test_model_uses_the_quadratic_at_delta_and_k_beyond(self):
        # q(60) is 0.2448 and k is 0.6: a 0.3 score passes at delta only.
        at_delta = make_record(0.0, 60.0, score=0.3)
        beyond = make_record(0.0, 60.001, score=0.3)
        assert keep_rows(detections([at_delta, beyond]), REFERENCE) == [True, False]
        assert keep_rows(detections([make_record(0.0, 60.001, score=0.6)]), REFERENCE) == [True]

    def test_single_zero_drops_a_negative_score(self):
        # 'none' has no schedule and keeps it (test_cli).
        assert keep_rows(detections([make_record(0.0, 10.0, score=-0.25)]), SingleThreshold(0.0)) == [False]


class TestApplySingle:
    def test_zero_keeps_all(self):
        recs = det_records([(5.0, 0.1), (50.0, 0.9)])
        assert keep_rows(detections(recs), SingleThreshold(0.0)) == [True, True]

    def test_out_of_range_threshold_rejected(self):
        with pytest.raises(ValueError):
            SingleThreshold(1.0 + 1e-9)
        with pytest.raises(ValueError):
            SingleThreshold(-0.1)

    def test_keeps_on_equality(self):
        recs = det_records([(5.0, 0.3), (5.0, 0.5), (5.0, 0.7)])
        kept = compress(recs, keep_rows(detections(recs), SingleThreshold(0.5)))
        assert [r.score for r in kept] == [0.5, 0.7]

    def test_missing_score_raises(self):
        with pytest.raises(ValueError, match="ground-truth table has no scores"):
            keep_rows(ground_truth([make_record(0.0, 5.0)]), SingleThreshold(0.5))


class TestApplyAdaptive:
    def test_drops_score_below_near_threshold(self):
        # Threshold at d = 5 is 0.6518; a 0.65 score goes.
        rec = make_record(0.0, 5.0, score=0.65)
        assert keep_rows(detections([rec]), REFERENCE) == [False]

    def test_keeps_score_above_far_threshold(self):
        # Threshold at d = 40 is about 0.4068; a 0.45 score stays.
        rec = make_record(0.0, 40.0, score=0.45)
        assert keep_rows(detections([rec]), REFERENCE) == [True]

    def test_empty_input(self):
        assert keep_rows(detections([]), REFERENCE) == []

    def test_missing_score_raises(self):
        with pytest.raises(ValueError, match="ground-truth table has no scores"):
            keep_rows(ground_truth([make_record(0.0, 5.0)]), REFERENCE)

    def test_order_preserved(self):
        recs = det_records([(40.0, 0.9), (40.0, 0.5), (40.0, 0.8)])
        assert [r.score for r in compress(recs, keep_rows(detections(recs), REFERENCE))] == [0.9, 0.5, 0.8]

    @given(record_lists(), scores)
    def test_reduces_to_single_threshold(self, records, t):
        flat = ThresholdModel(alpha=0.0, beta=0.0, gamma=t, delta=60.0, k=t)
        table = detections(records)
        assert keep_rows(table, flat) == keep_rows(table, SingleThreshold(t))

    @given(record_lists(), threshold_models())
    def test_idempotent(self, records, model):
        once = list(compress(records, keep_rows(detections(records), model)))
        assert all(keep_rows(detections(once), model))

    @given(record_lists(), threshold_models())
    def test_survivors_is_order_preserving_subsequence(self, records, model):
        kept = list(compress(records, keep_rows(detections(records), model)))
        it = iter(records)
        assert all(any(r is k for r in it) for k in kept)

    @given(record_lists(), st.floats(0.0, 0.5), st.floats(0.0, 0.4))
    def test_raising_the_curve_never_adds_survivors(self, records, gamma, lift):
        low = ThresholdModel(alpha=0.0, beta=0.0, gamma=gamma, delta=60.0, k=gamma)
        high = ThresholdModel(alpha=0.0, beta=0.0, gamma=gamma + lift, delta=60.0, k=gamma + lift)
        table = detections(records)
        assert all(map(le, keep_rows(table, high), keep_rows(table, low)))


def make_stats(means, stds=None, counts=None, first_bin=0):
    stds = stds if stds is not None else [0.05] * len(means)
    counts = counts if counts is not None else [10] * len(means)
    return [
        BinStats(first_bin + i, counts[i], means[i], stds[i]) for i in range(len(means))
    ]


@st.composite
def noisy_bins(draw):
    """3 to 12 occupied 10 m bins of 0-120 m. Means lie within 0.02 of a
    quadratic through values in [0.2, 0.8] at 0, 60 and 120 m; stds
    include 0 and values below the sigma floor."""
    indices = sorted(draw(st.lists(st.integers(0, 11), min_size=3, max_size=12, unique=True)))
    y0, y_mid, y_end = (draw(st.floats(0.2, 0.8)) for _ in range(3))
    alpha = (y0 - 2.0 * y_mid + y_end) / 7200.0
    beta = (y_end - y0) / 120.0 - 120.0 * alpha
    stds = st.one_of(st.just(0.0), st.floats(0.0, SIGMA_FLOOR), st.floats(SIGMA_FLOOR, 0.3))
    stats = []
    for i in indices:
        x = 10.0 * i + 5.0
        mean = (alpha * x + beta) * x + y0 + draw(st.floats(-0.02, 0.02))
        stats.append(BinStats(i, draw(st.integers(1, 50)), mean, draw(stds)))
    return stats


@st.composite
def solve_inputs(draw):
    """Bin centers, means and weights as fit_quadratic passes them: 3 to 12
    bins of a width that may be fractional or tiny (a tiny one can push a
    coefficient past the float range), and weights 1 / max(std, floor)^2
    with stds at 0, at the floor and at 1e-300. Sometimes all centers are
    one point, which makes the equations singular."""
    n = draw(st.integers(3, 12))
    width = draw(st.one_of(st.just(10.0), st.floats(0.01, 50.0), st.floats(1e-300, 1e-100)))
    indices = sorted(draw(st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True)))
    if draw(st.booleans()) and draw(st.booleans()):
        indices = [indices[0]] * n
    floor = draw(st.sampled_from([SIGMA_FLOOR, 1e-150]))
    stds = draw(st.lists(st.one_of(st.just(0.0), st.just(1e-300), st.floats(0.0, 0.3)), min_size=n, max_size=n))
    means = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return [(i + 0.5) * width for i in indices], means, [1.0 / (max(s, floor) ** 2) for s in stds]


def solved(solve, x, y, w):
    """solve's coefficients, or its FitError message."""
    try:
        return solve(x, y, w)
    except FitError as exc:
        return str(exc)


@given(solve_inputs())
@example(([5.0, 5.0, 5.0], [0.1, 0.2, 0.3], [1.0, 1.0, 1.0]))  # singular
@example(([1e-200, 2e-200, 3e-200], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]))  # alpha beyond the float range
def test_the_integer_solve_equals_the_fraction_solve_bit_for_bit(inputs):
    got, expected = solved(_solve_weighted_quadratic, *inputs), solved(fraction_cramer_solve, *inputs)
    assert repr(got) == repr(expected)


class TestFitQuadratic:
    @given(noisy_bins())
    def test_coefficients_are_the_correctly_rounded_exact_solution(self, stats):
        spec = BinSpec(bin_width=10.0, max_distance=120.0)
        try:
            result = fit_quadratic(stats, spec, delta=120.0, k=0.5)
        except ModelRangeError:
            assume(False)
        x = [spec.center(s.bin_index) for s in stats]
        means = [s.mean for s in stats]
        scales = [max(s.std, SIGMA_FLOOR) for s in stats]
        got = (result.model.alpha, result.model.beta, result.model.gamma)
        assert got == exact_quadratic_fit(x, means, [1.0 / (m * m) for m in scales])
        xs, sw = np.array(x), 1.0 / np.array(scales)
        design = np.stack([xs * xs, xs, np.ones_like(xs)], axis=1) * sw[:, None]
        expected = np.linalg.lstsq(design, np.array(means) * sw, rcond=None)[0]
        assert got == pytest.approx(tuple(expected), abs=1e-9)

    def test_dyadic_quadratic_is_recovered_bit_exactly(self):
        alpha, beta, gamma = -(2.0**-14), -(2.0**-8), 0.75
        spec = BinSpec()
        means = [(alpha * x + beta) * x + gamma for x in (spec.center(i) for i in range(6))]
        stds = [0.0, 0.01, 0.02, 0.05, 0.1, 0.2]
        result = fit_quadratic(make_stats(means, stds=stds), spec, delta=60.0, k=0.5)
        assert (result.model.alpha, result.model.beta, result.model.gamma) == (alpha, beta, gamma)
        assert result.residuals == (0.0,) * 6
        assert result.weighted_rmse == 0.0

    def test_three_point_interpolation(self):
        # Quadratic through (5, 0.7), (15, 0.6), (25, 0.4); cross-checked
        # against an independent linear solve below.
        spec = BinSpec(bin_width=10.0, max_distance=30.0)
        means = [0.7, 0.6, 0.4]
        result = fit_quadratic(make_stats(means), spec, delta=30.0, k=None)
        vandermonde = np.array([[25.0, 5.0, 1.0], [225.0, 15.0, 1.0], [625.0, 25.0, 1.0]])
        expected = np.linalg.solve(vandermonde, np.array(means))
        assert result.model.alpha == pytest.approx(expected[0], abs=1e-9)
        assert result.model.beta == pytest.approx(expected[1], abs=1e-9)
        assert result.model.gamma == pytest.approx(expected[2], abs=1e-9)
        assert result.model.alpha == pytest.approx(-0.0005, abs=1e-9)
        assert result.model.beta == pytest.approx(0.0, abs=1e-9)
        assert result.model.gamma == pytest.approx(0.7125, abs=1e-9)

    def test_continuity_k_equals_curve_at_delta(self):
        spec = BinSpec(bin_width=10.0, max_distance=30.0)
        result = fit_quadratic(make_stats([0.7, 0.6, 0.4]), spec, delta=30.0, k=None)
        assert result.model.k == pytest.approx(result.model.threshold_at(30.0), abs=1e-12)
        assert result.model.k == pytest.approx(0.2625, abs=1e-9)

    def test_explicit_k_is_kept(self):
        spec = BinSpec(bin_width=10.0, max_distance=30.0)
        result = fit_quadratic(make_stats([0.7, 0.6, 0.4]), spec, delta=30.0, k=0.42)
        assert result.model.k == 0.42

    def test_constant_means_give_constant_fit(self):
        result = fit_quadratic(make_stats([0.55] * 6), BinSpec(), delta=60.0, k=0.6)
        assert result.model.alpha == pytest.approx(0.0, abs=1e-9)
        assert result.model.beta == pytest.approx(0.0, abs=1e-9)
        assert result.model.gamma == pytest.approx(0.55, abs=1e-9)

    def test_too_few_occupied_bins(self):
        stats = make_stats([0.7, 0.6]) + [BinStats(2, 0, None, None)]
        with pytest.raises(FitError):
            fit_quadratic(stats, BinSpec(bin_width=10.0, max_distance=30.0), delta=60.0, k=0.6)

    def test_identical_abscissas_are_singular(self):
        stats = [BinStats(1, 5, m, 0.05) for m in (0.5, 0.6, 0.7)]
        with pytest.raises(FitError):
            fit_quadratic(stats, BinSpec(), delta=60.0, k=0.6)

    def test_empty_bins_skipped(self):
        spec = BinSpec()
        stats = [
            BinStats(0, 4, 0.70, 0.05),
            BinStats(1, 0, None, None),
            BinStats(2, 4, 0.60, 0.05),
            BinStats(3, 0, None, None),
            BinStats(4, 4, 0.40, 0.05),
            BinStats(5, 0, None, None),
        ]
        result = fit_quadratic(stats, spec, delta=60.0, k=None)
        assert result.bin_indices == (0, 2, 4)
        assert result.abscissas == (5.0, 25.0, 45.0)

    def test_noiseless_recovery_of_reference_curve(self):
        coeffs = (REFERENCE.alpha, REFERENCE.beta, REFERENCE.gamma)
        spec = BinSpec()
        means = [REFERENCE.threshold_at(spec.center(i)) for i in range(6)]
        result = fit_quadratic(make_stats(means), spec, delta=60.0, k=0.6)
        assert result.model.alpha == pytest.approx(coeffs[0], abs=1e-9)
        assert result.model.beta == pytest.approx(coeffs[1], abs=1e-9)
        assert result.model.gamma == pytest.approx(coeffs[2], abs=1e-9)
        assert result.weighted_rmse == pytest.approx(0.0, abs=1e-9)

    @given(
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        st.lists(st.floats(0.01, 0.2), min_size=6, max_size=6),
    )
    def test_noiseless_recovery_ignores_weights(self, y0, y_mid, y_end, stds):
        # When every mean sits exactly on one quadratic, any positive
        # weighting recovers that quadratic.
        alpha = (y0 - 2.0 * y_mid + y_end) / 1800.0
        beta = (y_end - y0) / 60.0 - 60.0 * alpha
        spec = BinSpec()
        means = [(alpha * x + beta) * x + y0 for x in (spec.center(i) for i in range(6))]
        try:
            result = fit_quadratic(make_stats(means, stds=stds), spec, delta=60.0, k=0.5)
        except ModelRangeError:
            assume(False)
        assert result.model.alpha == pytest.approx(alpha, abs=1e-9)
        assert result.model.beta == pytest.approx(beta, abs=1e-9)
        assert result.model.gamma == pytest.approx(y0, abs=1e-9)

    def test_scaling_all_stds_leaves_fit_unchanged(self):
        spec = BinSpec()
        means = [0.7, 0.68, 0.6, 0.5, 0.42, 0.3]
        stds = [0.02, 0.05, 0.03, 0.08, 0.04, 0.1]
        base = fit_quadratic(make_stats(means, stds=stds), spec, delta=60.0, k=0.3)
        doubled = fit_quadratic(
            make_stats(means, stds=[2.0 * s for s in stds]), spec, delta=60.0, k=0.3
        )
        assert doubled.model.alpha == pytest.approx(base.model.alpha, abs=1e-9)
        assert doubled.model.beta == pytest.approx(base.model.beta, abs=1e-9)
        assert doubled.model.gamma == pytest.approx(base.model.gamma, abs=1e-9)

    def test_weights_pull_fit_toward_tight_bins(self):
        spec = BinSpec(bin_width=10.0, max_distance=40.0)
        means = [0.6, 0.55, 0.5, 0.7]  # last bin breaks the linear trend
        tight_outlier = make_stats(means, stds=[0.1, 0.1, 0.1, 0.001])
        loose_outlier = make_stats(means, stds=[0.001, 0.001, 0.001, 0.5])
        fit_tight = fit_quadratic(tight_outlier, spec, delta=40.0, k=0.5)
        fit_loose = fit_quadratic(loose_outlier, spec, delta=40.0, k=0.5)
        x = 35.0
        assert abs(fit_tight.model.threshold_at(x) - 0.7) < abs(
            fit_loose.model.threshold_at(x) - 0.7
        )

    def test_residuals_and_rmse_definitions(self):
        spec = BinSpec()
        means = [0.72, 0.66, 0.58, 0.49, 0.4, 0.33]
        stds = [0.02, 0.04, 0.05, 0.06, 0.08, 0.1]
        result = fit_quadratic(make_stats(means, stds=stds), spec, delta=60.0, k=0.3)
        weights = [1.0 / max(s, 1e-3) ** 2 for s in stds]
        for mean, fitted, residual in zip(means, result.fitted, result.residuals):
            assert residual == pytest.approx(mean - fitted, abs=1e-12)
        expected_rmse = math.sqrt(
            sum(w * r * r for w, r in zip(weights, result.residuals)) / sum(weights)
        )
        assert result.weighted_rmse == pytest.approx(expected_rmse, abs=1e-12)

    def test_local_optimality_of_weighted_residuals(self):
        spec = BinSpec()
        means = [0.7, 0.66, 0.57, 0.51, 0.4, 0.31]
        stds = [0.02, 0.03, 0.05, 0.04, 0.07, 0.09]
        result = fit_quadratic(make_stats(means, stds=stds), spec, delta=60.0, k=0.3)
        weights = [1.0 / max(s, 1e-3) ** 2 for s in stds]
        xs = [spec.center(i) for i in range(6)]

        def ssr(a, b, c):
            return sum(
                w * ((a * x + b) * x + c - m) ** 2
                for w, x, m in zip(weights, xs, means)
            )

        best = ssr(result.model.alpha, result.model.beta, result.model.gamma)
        for index in range(3):
            for sign in (-1.0, 1.0):
                trial = [result.model.alpha, result.model.beta, result.model.gamma]
                trial[index] += sign * 1e-3
                assert ssr(*trial) >= best - 1e-12

    def test_zero_std_bins_use_sigma_floor(self):
        spec = BinSpec(bin_width=10.0, max_distance=30.0)
        result = fit_quadratic(
            make_stats([0.7, 0.6, 0.4], stds=[0.0, 0.0, 0.0]), spec, delta=30.0, k=None
        )
        assert result.model.gamma == pytest.approx(0.7125, abs=1e-9)

    @pytest.mark.parametrize("std", [0.0, 1e-170, 1e-160, SIGMA_FLOOR / 2])
    def test_std_below_the_floor_weighs_as_the_floor(self, std):
        # 1e-160 once squared to a weight of inf, and 1e-170 to a variance
        # of 0; under the fixed floor each is the floor, to the bit.
        means = [0.9, 0.8, 0.75, 0.6]
        below = fit_quadratic(make_stats(means, stds=[std, 0.1, 0.1, 0.1]), BinSpec(), delta=60.0, k=0.6)
        at = fit_quadratic(make_stats(means, stds=[SIGMA_FLOOR, 0.1, 0.1, 0.1]), BinSpec(), delta=60.0, k=0.6)
        assert below == at
        assert math.isfinite(below.weighted_rmse)

    def test_std_past_1e154_weighs_nothing(self):
        # Its variance overflows to inf, a weight of exactly 0, so the fit
        # is the interpolation through the other three bins.
        means = [0.9, 0.8, 0.75, 0.6]
        spec = BinSpec()
        with_huge = fit_quadratic(make_stats(means, stds=[0.1, 0.1, 1e200, 0.1]), spec, delta=60.0, k=0.6)
        stats = make_stats(means)
        without = fit_quadratic([stats[0], stats[1], stats[3]], spec, delta=60.0, k=0.6)
        assert with_huge.model == without.model

    def test_delta_and_k_are_the_callers_and_the_floor_is_not(self):
        stats, spec = make_stats([0.7, 0.6, 0.4]), BinSpec(10.0, 30.0)
        with pytest.raises(TypeError, match="delta"):
            fit_quadratic(stats, spec)
        with pytest.raises(TypeError, match="k"):
            fit_quadratic(stats, spec, 30.0)
        with pytest.raises(TypeError, match="sigma_floor"):
            fit_quadratic(stats, spec, 30.0, None, sigma_floor=1e-3)
        assert ThresholdModel._defaults == {}

    @pytest.mark.parametrize(
        "delta, k, message",
        [
            (0.0, 0.6, "delta must be finite and positive, got 0.0"),
            (-1.0, 0.6, "delta must be finite and positive, got -1.0"),
            (math.nan, 0.6, "delta must be finite and positive, got nan"),
            (math.inf, 0.6, "delta must be finite and positive, got inf"),
            (30.0, 2.0, "k must be within \\[0, 1\\], got 2.0"),
            (30.0, -0.5, "k must be within \\[0, 1\\], got -0.5"),
            (30.0, math.nan, "k must be within \\[0, 1\\], got nan"),
        ],
    )
    def test_delta_and_a_given_k_out_of_range_are_value_errors(self, delta, k, message):
        # A bad argument, not a fitted model leaving [0, 1].
        with pytest.raises(ValueError, match=message) as exc:
            fit_quadratic(make_stats([0.7, 0.6, 0.4]), BinSpec(10.0, 30.0), delta=delta, k=k)
        assert not isinstance(exc.value, ModelRangeError)

    def test_coefficient_beyond_the_float_range_is_a_fit_error(self):
        # The interpolating alpha is 4 * 1.7e308 / 2, past the largest float.
        spec = BinSpec(bin_width=1.0, max_distance=3.0)
        with pytest.raises(FitError, match="float range"):
            fit_quadratic(make_stats([1.7e308, -1.7e308, 1.7e308]), spec, delta=3.0, k=0.6)

    def test_out_of_range_fit_is_loud(self):
        # Steep drop: the interpolating quadratic crosses 1 on [0, 60].
        spec = BinSpec(bin_width=10.0, max_distance=30.0)
        with pytest.raises(ModelRangeError):
            fit_quadratic(make_stats([0.9, 0.5, 0.1]), spec, delta=60.0, k=0.5)
