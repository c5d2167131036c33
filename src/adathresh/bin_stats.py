"""Distance-binned confidence score statistics.

Detections are grouped into half-open distance bins [i*w, (i+1)*w) and
each occupied bin gets the mean and the population standard deviation of
its scores. Sums use math.fsum, so results do not depend on input order.
A distance is the ground-plane distance from the ego vehicle
(ground_distance), the one measure every module bins and thresholds by.
Record is the base of every value type in the package. It gives each
one its fields, checks, equality and repr, and the to_dict/from_dict of
every JSON file. It stands in for dataclasses, whose import (with
inspect, ast, dis and tokenize) cost about 14 ms of each command's
start-up.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import compress
from operator import and_
from typing import TYPE_CHECKING, Iterable, get_args, get_origin, get_type_hints

if TYPE_CHECKING:
    from .kitti_io import LabelTable


def ground_distance(x: float, z: float) -> float:
    """Horizontal distance from the ego vehicle to a ground-plane point."""
    return math.hypot(x, z)


class Record:
    """Base of the package's value types: a frozen record of named fields.

    A subclass declares its fields as annotated class attributes, a
    default as the attribute's value, and its value checks and
    normalisation in __post_init__, which may set a field with
    object.__setattr__. Record gives it:

    - __init__, taking the fields in order, positionally or by keyword;
      a missing or unknown argument is a TypeError. _decode converts and
      checks each value given by its field's annotation;
    - frozen attributes: setting or deleting one is an AttributeError;
    - __eq__ and __hash__ over the tuple of field values, between records
      of one class; the class keyword eq=False keeps object identity;
    - a repr naming each field, as dataclasses writes it;
    - to_dict, the fields by name in order, with each record inside a
      field, or inside a tuple field, as its own to_dict;
    - from_dict, the inverse for a JSON object: __init__ of its values by
      field name, so a file and a call accept the same values. Keys that
      name no field are ignored. A key may be missing only when its field
      defaults to None, a tuple or a record; any other missing key raises
      KeyError.

    Fields and defaults are collected once per class, parents' first;
    the annotations are resolved when the class is first built.
    """

    _fields = ()  # the field names, in order
    _defaults = {}  # field name -> default, for the fields that have one

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__  # this class's annotations only
        cls._fields = (*cls._fields, *(name for name in own if name not in cls._fields))
        cls._defaults = {**cls._defaults, **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments but {len(args)} were given")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in cls._fields if name not in values and name not in cls._defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments: {', '.join(map(repr, missing))}")
        for name, hint, _ in _field_hints(cls):
            if name in values:
                values[name] = _decode(hint, values[name], name)
        self.__dict__.update(cls._defaults, **values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def to_dict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in self._fields}

    @classmethod
    def from_dict(cls, data: dict):
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object for {cls.__name__}, got {type(data).__name__}")
        for name, _, optional in _field_hints(cls):
            if name not in data and not optional:
                raise KeyError(name)
        return cls(**{name: data[name] for name in cls._fields if name in data})


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value


@cache
def _field_hints(cls: type) -> tuple:
    """(name, resolved annotation, whether from_dict may miss its key) of
    each field of a record class, resolved when the class is first built."""
    hints = get_type_hints(cls)
    optional = {name for name, default in cls._defaults.items() if isinstance(default, (type(None), tuple, Record))}
    return tuple((name, hints[name], name in optional) for name in cls._fields)


def _decode(hint, value, name: str):
    """value as a field annotated hint holds it: float from an int or a
    float, int from an int or an integral float, X | None keeping None,
    tuple[T, ...] and tuple[T, U] from a list or a tuple, element by
    element, a record from an instance or a dict (through its
    from_dict), and any other value unchanged. Anything else, such as a
    boolean or a string for a number or a fixed-length tuple of another
    length, is a ValueError naming the field name."""
    args = get_args(hint)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name}: expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], v, name) for v in value)
        if len(value) != len(args):
            raise ValueError(f"{name}: expected {len(args)} values, got {len(value)}")
        return tuple(_decode(a, v, name) for a, v in zip(args, value))
    if isinstance(hint, type) and issubclass(hint, Record):
        return value if isinstance(value, hint) else hint.from_dict(value)
    if hint is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    if hint is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ValueError(f"{name}: expected a number, got {value!r}")
    return value


# Every command holds a few lists of n_bins entries; a spec asking for
# more bins than this is a mistake, not a binning.
MAX_BINS = 10_000


class BinSpec(Record):
    """Uniform binning of [0, max_distance) into bins of bin_width meters."""

    bin_width: float = 10.0
    max_distance: float = 60.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bin_width) and math.isfinite(self.max_distance)):
            raise ValueError(
                f"bin_width and max_distance must be finite, got {self.bin_width} and {self.max_distance}"
            )
        if self.bin_width <= 0.0:
            raise ValueError("bin_width must be positive")
        if self.max_distance <= 0.0:
            raise ValueError("max_distance must be positive")
        ratio = self.max_distance / self.bin_width
        if ratio > MAX_BINS + 0.5:
            raise ValueError(
                f"max_distance {self.max_distance} / bin_width {self.bin_width} gives {ratio:.6g} bins, "
                f"more than {MAX_BINS}"
            )
        n = round(ratio)
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


class BinStats(Record):
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
        if self.mean is not None and not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if self.std is not None and not 0.0 <= self.std < math.inf:
            raise ValueError(f"std must be finite and non-negative, got {self.std}")


class PreFilter(Record):
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
    (0 when the mean is 0). Returns one BinStats per bin, in order. A
    bin whose mean or std is not finite (scores near the float range
    overflow its sums) is an OverflowError naming the bin.
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
        try:
            mean = math.fsum(scores) / n
            # A product, not ** 2: libm pow need not round correctly, and
            # then scaling every score by a power of two would not scale
            # the variance exactly.
            variance = math.fsum((s - mean) * (s - mean) for s in scores) / n
            std = math.sqrt(variance)
            if normalize_std:
                std = std / mean if mean > 0.0 else 0.0
            out.append(BinStats(index, n, mean, std))
        except (OverflowError, ValueError) as exc:  # fsum's overflow, or BinStats's finiteness check
            lo, hi = spec.edges(index)
            raise OverflowError(f"bin {index} [{lo:g}, {hi:g}) m: the mean or std of its {n} scores is not finite") from exc
    return out
