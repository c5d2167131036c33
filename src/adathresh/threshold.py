"""Piecewise quadratic score threshold over distance, and its fitting.

The threshold schedule is

    t(d) = alpha*d^2 + beta*d + gamma   for 0 <= d <= delta
    t(d) = k                            for d > delta

A detection survives when its score is greater than or equal to the
threshold at its ego distance. Fitting recovers (alpha, beta, gamma)
from binned score statistics by weighted least squares with weights
1 / max(std, sigma_floor)^2 at the bin centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bin_stats import BinSpec, BinStats
from .kitti_io import KittiRecord, MissingScoreError

SIGMA_FLOOR = 1e-3

_RANGE_TOL = 1e-9


class ModelRangeError(ValueError):
    """Model parameters describe a threshold outside [0, 1]."""


class FitError(RuntimeError):
    """The quadratic fit is underdetermined or numerically singular."""


def _quadratic(alpha: float, beta: float, gamma: float, d: float) -> float:
    return (alpha * d + beta) * d + gamma


@dataclass(frozen=True)
class ThresholdModel:
    """Distance-adaptive threshold parameters.

    Construction validates delta > 0, k in [0, 1], and that the
    quadratic stays within [0, 1] on [0, delta]; violations raise
    ModelRangeError rather than being clamped.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float = 60.0
    k: float = 0.6

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta", "k"):
            object.__setattr__(self, name, float(getattr(self, name)))
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

    def quadratic_at(self, d: float) -> float:
        """The quadratic branch evaluated at d, ignoring the k cutover."""
        return _quadratic(self.alpha, self.beta, self.gamma, d)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "delta": self.delta,
            "k": self.k,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ThresholdModel":
        return cls(
            alpha=float(data["alpha"]),
            beta=float(data["beta"]),
            gamma=float(data["gamma"]),
            delta=float(data["delta"]),
            k=float(data["k"]),
        )


def threshold_at(model: ThresholdModel, distance: float) -> float:
    """Threshold value at a distance; gamma at d=0, k beyond delta."""
    if distance < 0.0:
        raise ValueError(f"distance must be non-negative, got {distance}")
    if distance <= model.delta:
        return _quadratic(model.alpha, model.beta, model.gamma, distance)
    return model.k


def apply_adaptive(
    records: Sequence[KittiRecord], model: ThresholdModel
) -> list[KittiRecord]:
    """Keep records scoring at least the threshold at their ego distance.

    Order is preserved and the input is not mutated. Records without a
    score raise MissingScoreError.
    """
    kept: list[KittiRecord] = []
    for record in records:
        if record.score is None:
            raise MissingScoreError("record has no score; adaptive filtering needs one")
        if record.score >= threshold_at(model, record.ego_distance()):
            kept.append(record)
    return kept


def apply_single(records: Sequence[KittiRecord], threshold: float) -> list[KittiRecord]:
    """Keep records with score >= threshold; threshold must lie in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be within [0, 1], got {threshold}")
    kept: list[KittiRecord] = []
    for record in records:
        if record.score is None:
            raise MissingScoreError("record has no score; filtering needs one")
        if record.score >= threshold:
            kept.append(record)
    return kept


@dataclass(frozen=True)
class FitResult:
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
    bins_used: int

    def __post_init__(self) -> None:
        if self.bins_used < 3:
            raise ValueError("a quadratic fit needs at least 3 bins")


def fit_quadratic(
    stats: Sequence[BinStats],
    spec: BinSpec,
    delta: float = 60.0,
    k: float | None = 0.6,
    *,
    sigma_floor: float = SIGMA_FLOOR,
) -> FitResult:
    """Weighted least-squares quadratic through occupied bin means.

    Abscissas are bin centers, weights 1 / max(std, sigma_floor)^2.
    Pass k=None to set the flat tail by continuity, k = q(delta).
    Fewer than 3 occupied bins or a rank-deficient system raise
    FitError; a fitted curve leaving [0, 1] on [0, delta] raises
    ModelRangeError from model construction.
    """
    import numpy as np  # only the fit needs numpy; filtering stays numpy-free

    if sigma_floor <= 0.0:
        raise ValueError("sigma_floor must be positive")
    usable = [s for s in stats if s.count > 0]
    if len(usable) < 3:
        raise FitError(f"need at least 3 occupied bins, got {len(usable)}")
    x = np.array([spec.center(s.bin_index) for s in usable], dtype=float)
    means = np.array([s.mean for s in usable], dtype=float)
    stds = np.array([s.std for s in usable], dtype=float)
    weights = 1.0 / np.maximum(stds, sigma_floor) ** 2
    sw = np.sqrt(weights)
    design = np.stack([x * x, x, np.ones_like(x)], axis=1) * sw[:, None]
    target = means * sw
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 3:
        raise FitError("singular normal equations: bin abscissas do not span a quadratic")
    alpha, beta, gamma = (float(c) for c in coeffs)
    fitted = alpha * x * x + beta * x + gamma
    residuals = means - fitted
    weighted_rmse = float(np.sqrt(np.sum(weights * residuals**2) / np.sum(weights)))
    k_value = _quadratic(alpha, beta, gamma, delta) if k is None else float(k)
    model = ThresholdModel(alpha=alpha, beta=beta, gamma=gamma, delta=delta, k=k_value)
    return FitResult(
        model=model,
        bin_indices=tuple(s.bin_index for s in usable),
        abscissas=tuple(float(v) for v in x),
        fitted=tuple(float(v) for v in fitted),
        residuals=tuple(float(v) for v in residuals),
        weighted_rmse=weighted_rmse,
        bins_used=len(usable),
    )
