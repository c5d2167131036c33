"""Distance-binned confidence score statistics.

Detections are grouped into half-open distance bins [i*w, (i+1)*w) and
each occupied bin gets the mean and the population standard deviation of
its scores. Sums use math.fsum, so results do not depend on input order.
A distance is the ground-plane distance from the ego vehicle
(ground_distance), the one measure every module bins and thresholds by.
JsonCodec gives every dataclass that is written to or read from a JSON
file its to_dict/from_dict.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import cache
from itertools import compress
from operator import and_
from typing import TYPE_CHECKING, Iterable, get_args, get_origin, get_type_hints

if TYPE_CHECKING:
    from .kitti_io import LabelTable


def ground_distance(x: float, z: float) -> float:
    """Horizontal distance from the ego vehicle to a ground-plane point."""
    return math.hypot(x, z)


class JsonCodec:
    """to_dict/from_dict for a dataclass that is written to and read from JSON.

    from_dict coerces each value by its field's annotation: float from a
    JSON number, int from a JSON integer or an integral float (anything
    else, a boolean or a string included, is a ValueError), X | None keeps
    None, tuple[T, ...] and tuple[T, U] element by element, and a nested
    dataclass through its own from_dict; a str passes through unchanged.
    Keys that name no field are ignored. A key may be missing only when
    its field defaults to None or has a default_factory; any other
    missing key raises KeyError.
    """

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        values = {}
        for f, hint in _field_hints(cls):
            if f.name in data:
                values[f.name] = _decode(hint, data[f.name])
            elif f.default is not None and f.default_factory is MISSING:
                raise KeyError(f.name)
        return cls(**values)


@cache
def _field_hints(cls: type) -> tuple:
    """(field, resolved annotation) of each field of a dataclass."""
    hints = get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


def _decode(hint, value):
    args = get_args(hint)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        args = get_args(hint)
    if get_origin(hint) is tuple:
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in value)
        return tuple(_decode(a, v) for a, v in zip(args, value, strict=True))
    if is_dataclass(hint):
        return hint.from_dict(value)
    if hint is int:
        return _integer(value)
    return _real(value) if hint is float else value


def _integer(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _real(value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"expected a number, got {value!r}")


@dataclass(frozen=True)
class BinSpec(JsonCodec):
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


def assign_bin(distance: float, spec: BinSpec) -> int | None:
    """Bin index for a distance; None when at or beyond max_distance."""
    if distance < 0.0:
        raise ValueError(f"distance must be non-negative, got {distance}")
    if distance >= spec.max_distance:
        return None
    return min(int(distance // spec.bin_width), spec.n_bins - 1)


@dataclass(frozen=True)
class BinStats(JsonCodec):
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
class PreFilter(JsonCodec):
    """Single-threshold pre-filter with a near/far split.

    Detections closer than distance_cutoff must score at least
    high_threshold, detections at or beyond it at least low_threshold.
    """

    distance_cutoff: float = 40.0
    low_threshold: float = 0.3
    high_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not math.isfinite(self.distance_cutoff):
            raise ValueError(f"distance_cutoff must be finite, got {self.distance_cutoff}")
        if self.distance_cutoff < 0.0:
            raise ValueError("distance_cutoff must be non-negative")
        for name in ("low_threshold", "high_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")

    def threshold_at(self, distance: float) -> float:
        if distance < 0.0:
            raise ValueError(f"distance must be non-negative, got {distance}")
        return self.high_threshold if distance < self.distance_cutoff else self.low_threshold


def table_samples(
    detections: LabelTable, class_name: str, pre_filter: PreFilter | None
) -> list[tuple[float, float]]:
    """(distance, score) of every class_name row the pre-filter keeps.

    The pre-filter, when given, keeps what threshold.keep_rows keeps.
    Order is row order: frame order, then file order.
    """
    from .threshold import keep_rows  # threshold imports this module

    wanted = list(map(class_name.__eq__, detections.class_names))
    if pre_filter is not None:
        wanted = list(map(and_, wanted, keep_rows(detections, pre_filter)))
    return list(compress(zip(detections.distances(), detections.scores()), wanted))


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
