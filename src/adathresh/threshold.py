"""Piecewise quadratic score threshold over distance, and its fitting.

The threshold schedule is

    t(d) = alpha*d^2 + beta*d + gamma   for 0 <= d <= delta
    t(d) = k                            for d > delta

A detection survives when its score is greater than or equal to the
threshold at its ego distance. That one rule, bin_stats.keep_rows() over
a kitti_io.LabelTable, serves every schedule: this model, the constant
SingleThreshold baseline, and the near/far bin_stats.PreFilter. Fitting
recovers (alpha, beta, gamma) from binned score statistics by weighted
least squares with weights 1 / max(std, SIGMA_FLOOR)^2 at the bin
centers, solved exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

from .bin_stats import BinSpec, BinStats, FitError, ModelRangeError, Record

_RANGE_TOL = 1e-9
# The least std a fit weight uses: a bin of equal scores weighs 1e6, not infinity.
SIGMA_FLOOR = 1e-3


def _quadratic(alpha: float, beta: float, gamma: float, d: float) -> float:
    return (alpha * d + beta) * d + gamma


class ThresholdModel(Record):
    """Distance-adaptive threshold parameters.

    Construction validates that alpha, beta, gamma and delta are finite,
    delta > 0, k in [0, 1], and that the quadratic stays within [0, 1]
    on [0, delta]; violations raise ModelRangeError rather than being
    clamped.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    k: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ModelRangeError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.delta > 0.0:
            raise ModelRangeError(f"delta must be positive, got {self.delta}")
        if not 0.0 <= self.k <= 1.0:
            raise ModelRangeError(f"k must be within [0, 1], got {self.k}")
        lo, hi = self._quadratic_extremes()
        if lo < -_RANGE_TOL or hi > 1.0 + _RANGE_TOL:
            raise ModelRangeError(
                f"quadratic leaves [0, 1] on [0, {self.delta}]: range [{lo:.6g}, {hi:.6g}]"
            )

    def _quadratic_extremes(self) -> tuple[float, float]:
        values = [
            _quadratic(self.alpha, self.beta, self.gamma, 0.0),
            _quadratic(self.alpha, self.beta, self.gamma, self.delta),
        ]
        if self.alpha != 0.0:
            vertex = -self.beta / (2.0 * self.alpha)
            if 0.0 < vertex < self.delta:
                values.append(_quadratic(self.alpha, self.beta, self.gamma, vertex))
        return min(values), max(values)

    def threshold_at(self, distance: float) -> float:
        """Threshold value at a distance; gamma at d=0, k beyond delta."""
        if distance < 0.0:
            raise ValueError(f"distance must be non-negative, got {distance}")
        if distance <= self.delta:
            return _quadratic(self.alpha, self.beta, self.gamma, distance)
        return self.k


class SingleThreshold(Record):
    """The constant baseline: the same threshold at every distance."""

    threshold: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"single threshold must lie in [0, 1], got {self.threshold}")

    def threshold_at(self, distance: float) -> float:
        return self.threshold


class FitResult(Record):
    """Outcome of fit_quadratic.

    residuals are observed mean minus fitted value, aligned with
    bin_indices / abscissas / fitted. weighted_rmse is
    sqrt(sum(w * r^2) / sum(w)) over the used bins.
    """

    model: ThresholdModel
    bin_indices: tuple[int, ...]
    abscissas: tuple[float, ...]
    fitted: tuple[float, ...]
    residuals: tuple[float, ...]
    weighted_rmse: float


def fit_quadratic(
    stats: Sequence[BinStats],
    spec: BinSpec,
    delta: float,
    k: float | None,
) -> FitResult:
    """Weighted least-squares quadratic through occupied bin means.

    Abscissas are bin centers, weights 1 / max(std, SIGMA_FLOOR)^2. The
    normal equations are solved exactly over the float inputs, so each
    coefficient is the correctly rounded least-squares solution, the
    same on every platform. Pass k=None to set the flat tail by
    continuity, k = q(delta). delta must be finite and positive, and a
    given k within [0, 1] (ValueError). Fewer than 3 occupied bins or
    singular normal equations raise FitError; a fitted curve leaving
    [0, 1] on [0, delta], or a k set by continuity outside it, raises
    ModelRangeError from model construction.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    if k is not None and not 0.0 <= k <= 1.0:
        raise ValueError(f"k must be within [0, 1], got {k!r}")
    usable = [s for s in stats if s.count > 0]
    if len(usable) < 3:
        raise FitError(f"need at least 3 occupied bins, got {len(usable)}")
    x = [spec.center(s.bin_index) for s in usable]
    means = [s.mean for s in usable]
    # scale * scale, not ** 2, which raises OverflowError past 1e154; the
    # product overflows to inf there, a weight of 0.
    weights = [1.0 / (scale * scale) for scale in (max(s.std, SIGMA_FLOOR) for s in usable)]
    alpha, beta, gamma = _solve_weighted_quadratic(x, means, weights)
    fitted = [_quadratic(alpha, beta, gamma, v) for v in x]
    residuals = [m - f for m, f in zip(means, fitted)]
    weighted_rmse = math.sqrt(sum(w * r * r for w, r in zip(weights, residuals)) / sum(weights))
    k_value = _quadratic(alpha, beta, gamma, delta) if k is None else float(k)
    model = ThresholdModel(alpha=alpha, beta=beta, gamma=gamma, delta=delta, k=k_value)
    return FitResult(
        model=model,
        bin_indices=tuple(s.bin_index for s in usable),
        abscissas=tuple(x),
        fitted=tuple(fitted),
        residuals=tuple(residuals),
        weighted_rmse=weighted_rmse,
    )


def _solve_weighted_quadratic(
    x: Sequence[float], y: Sequence[float], w: Sequence[float]
) -> tuple[float, float, float]:
    """(alpha, beta, gamma) minimizing sum w*(y - alpha*x^2 - beta*x - gamma)^2.

    The 3x3 normal equations are formed and solved by Cramer's rule over
    integers: the float inputs times one power of two, 2**e, which shifts
    then undo. Each coefficient is one correctly rounded int division.
    """
    scale = max(v.as_integer_ratio()[1] for v in (*x, *y, *w))  # a power of two, 2**e
    xs, ys, ws = ([n * (scale // d) for n, d in (v.as_integer_ratio() for v in vs)] for vs in (x, y, w))
    moments = [0] * 5  # sum W X^j, j = 0..4, over the scaled inputs X, Y, W
    rhs = [0] * 3  # sum W Y X^j, j = 0..2
    for xi, yi, wi in zip(xs, ys, ws):
        term = wi
        for j in range(5):
            moments[j] += term
            if j < 3:
                rhs[j] += term * yi
            term *= xi
    s0, s1, s2, s3, s4 = moments
    t0, t1, t2 = rhs
    det = _det3(s4, s3, s2, s3, s2, s1, s2, s1, s0)
    if det == 0:
        raise FitError("singular normal equations: bin abscissas do not span a quadratic")
    # Against the unscaled system, det and the beta numerator carry a factor
    # 2**(9e), the alpha numerator 2**(8e) and the gamma numerator 2**(10e).
    e = scale.bit_length() - 1
    try:
        return (
            (_det3(t2, s3, s2, t1, s2, s1, t0, s1, s0) << e) / det,
            _det3(s4, t2, s2, s3, t1, s1, s2, t0, s0) / det,
            _det3(s4, s3, t2, s3, s2, t1, s2, s1, t0) / (det << e),
        )
    except OverflowError:
        raise FitError("fitted coefficients exceed the float range") from None


def _det3(a, b, c, d, e, f, g, h, i):
    """Determinant of the row-major 3x3 matrix [[a, b, c], [d, e, f], [g, h, i]]."""
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
