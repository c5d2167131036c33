"""Distance-binned confidence score statistics.

Detections are grouped into half-open distance bins [i*w, (i+1)*w) and
each occupied bin gets the mean and the population standard deviation of
its scores. Sums use math.fsum, so results do not depend on input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class BinSpec:
    """Uniform binning of [0, max_distance) into bins of bin_width meters."""

    bin_width: float = 10.0
    max_distance: float = 60.0

    def __post_init__(self) -> None:
        if self.bin_width <= 0.0:
            raise ValueError("bin_width must be positive")
        if self.max_distance <= 0.0:
            raise ValueError("max_distance must be positive")
        n = round(self.max_distance / self.bin_width)
        if n < 1 or abs(n * self.bin_width - self.max_distance) > 1e-9 * max(1.0, self.max_distance):
            raise ValueError(
                f"max_distance {self.max_distance} is not a multiple of bin_width {self.bin_width}"
            )

    @property
    def n_bins(self) -> int:
        return round(self.max_distance / self.bin_width)

    def edges(self, bin_index: int) -> tuple[float, float]:
        """(lo, hi) bounds of a bin; the bin covers [lo, hi)."""
        if not 0 <= bin_index < self.n_bins:
            raise ValueError(f"bin_index {bin_index} out of range")
        return bin_index * self.bin_width, (bin_index + 1) * self.bin_width

    def center(self, bin_index: int) -> float:
        lo, hi = self.edges(bin_index)
        return 0.5 * (lo + hi)

    def to_dict(self) -> dict:
        return {"bin_width": self.bin_width, "max_distance": self.max_distance}

    @classmethod
    def from_dict(cls, data: dict) -> "BinSpec":
        return cls(bin_width=float(data["bin_width"]), max_distance=float(data["max_distance"]))


def assign_bin(distance: float, spec: BinSpec) -> int | None:
    """Bin index for a distance; None when at or beyond max_distance."""
    if distance < 0.0:
        raise ValueError(f"distance must be non-negative, got {distance}")
    if distance >= spec.max_distance:
        return None
    return min(int(distance // spec.bin_width), spec.n_bins - 1)


@dataclass(frozen=True)
class BinStats:
    """Score statistics for one bin; mean and std are None when empty."""

    bin_index: int
    count: int
    mean: float | None
    std: float | None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if (self.count == 0) != (self.mean is None) or (self.count == 0) != (self.std is None):
            raise ValueError("mean and std must be None exactly when count is 0")
        if self.std is not None and self.std < 0.0:
            raise ValueError("std must be non-negative")


@dataclass(frozen=True)
class PreFilter:
    """Single-threshold pre-filter with a near/far split.

    Detections closer than distance_cutoff must score at least
    high_threshold, detections at or beyond it at least low_threshold.
    """

    distance_cutoff: float = 40.0
    low_threshold: float = 0.3
    high_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.distance_cutoff < 0.0:
            raise ValueError("distance_cutoff must be non-negative")
        for name in ("low_threshold", "high_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")

    def threshold_for(self, distance: float) -> float:
        if distance < 0.0:
            raise ValueError(f"distance must be non-negative, got {distance}")
        return self.high_threshold if distance < self.distance_cutoff else self.low_threshold

    def keeps(self, distance: float, score: float) -> bool:
        return score >= self.threshold_for(distance)

    def to_dict(self) -> dict:
        return {
            "distance_cutoff": self.distance_cutoff,
            "low_threshold": self.low_threshold,
            "high_threshold": self.high_threshold,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PreFilter":
        return cls(
            distance_cutoff=float(data["distance_cutoff"]),
            low_threshold=float(data["low_threshold"]),
            high_threshold=float(data["high_threshold"]),
        )


def apply_pre_filter(
    samples: Iterable[tuple[float, float]], pre_filter: PreFilter
) -> list[tuple[float, float]]:
    """Keep (distance, score) samples passing the pre-filter, order preserved."""
    return [(d, s) for d, s in samples if pre_filter.keeps(d, s)]


def compute_bin_stats(
    samples: Iterable[tuple[float, float]],
    spec: BinSpec,
    *,
    normalize_std: bool = False,
) -> list[BinStats]:
    """Per-bin mean and population std of scores.

    samples are (distance, score) pairs; entries at or beyond
    max_distance are ignored, negative distances raise. With
    normalize_std the std of each bin is divided by the bin mean
    (0 when the mean is 0). Returns one BinStats per bin, in order.
    """
    buckets: list[list[float]] = [[] for _ in range(spec.n_bins)]
    for distance, score in samples:
        index = assign_bin(distance, spec)
        if index is not None:
            buckets[index].append(score)
    out: list[BinStats] = []
    for index, scores in enumerate(buckets):
        n = len(scores)
        if n == 0:
            out.append(BinStats(index, 0, None, None))
            continue
        mean = math.fsum(scores) / n
        # A product, not ** 2: libm pow need not round correctly, and
        # then scaling every score by a power of two would not scale
        # the variance exactly.
        variance = math.fsum((s - mean) * (s - mean) for s in scores) / n
        std = math.sqrt(variance)
        if normalize_std:
            std = std / mean if mean > 0.0 else 0.0
        out.append(BinStats(index, n, mean, std))
    return out
