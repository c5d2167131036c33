"""Deterministic synthetic scenes with known matching outcomes.

All randomness flows through one philox.PhiloxStream seeded with
ScenarioSpec.seed: numpy's Philox counter-based 64-bit generator, drawn
bit for bit in pure Python, so synth needs no numpy. The draw order is
fixed by the generation loop below, so a given spec reproduces a
byte-identical dataset on any platform. Per frame the order is:

    1. object count
    2. per true object: placement tries (distance, bearing), three
       dimension jitters, yaw, a miss draw, and, when detected, center
       jitter (x, z), yaw jitter, and one score noise draw
    3. per distance bin: a false-positive draw and, when it fires,
       placement tries, dimension jitters, yaw, and a score fraction

Every draw but two is a uniform one, computed here from one raw 64-bit
output of the stream: a draw in [low, high) is low + (high - low) * u,
where u = (raw >> 11) * 2**-53 is the output's 53 high bits as a double
in [0, 1). That is what numpy's Generator.uniform(low, high) returns
(random_uniform over next_double), bit for bit, and Python rounds each
operation, so the value does not depend on how anything was compiled.
The object count is the stream's integers (numpy's Generator.integers)
and the score noise its standard_normal (numpy's ziggurat
Generator.standard_normal). A raw draw leaves alone the 32-bit half
that integers buffers, so the one stream stays aligned. numpy (NEP 19)
keeps a bit generator's raw stream fixed across versions but makes no
such promise for Generator methods; the tests compare all three draws
with the installed numpy and pin the digests of three datasets.

Objects are car-like boxes placed at least MIN_SEPARATION apart in the
ground plane, so every true detection overlaps exactly its own ground
truth (IoU well above 0.7) and false positives overlap nothing. That
makes exhaustive enumeration of the matching outcome trivial, which
known_optimal_counts exploits as an oracle for the evaluation pipeline.

True-detection scores are the scenario quadratic at the detected
distance plus Gaussian noise, clamped to [0, 1]. False positives score
a uniform fraction (0.45 to 0.85) of the local true-score mean, i.e.
always below it on average.

Each generated row is formatted once as a label line, reals with six
fractional digits, and the tables are read from those lines by
kitti_io's reader: generate, known_optimal_counts and synth all see
exactly the values that synth writes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import accumulate, chain, compress

from .bin_stats import BinSpec, Record, ground_distance
from .geometry import normalize_angle
from .kitti_io import LabelTable, _table_from_lines
from .philox import _UNIT, PhiloxStream
from .threshold import ThresholdModel, keep_rows

CAR_DIMS = (1.5, 1.7, 4.0)  # height, width, length (meters)
MIN_SEPARATION = 6.0

_PLACEMENT_TRIES = 100
_MAX_BEARING = 1.2  # radians off the camera forward axis
_CAMERA_Y = 1.65
_DIMS_JITTER = 0.05  # relative
_CENTER_JITTER = 0.05  # meters
_YAW_JITTER = 0.01  # radians
_FP_SCORE_BAND = (0.45, 0.85)  # fraction of the local true-score mean

# A uniform draw in [low, high) is low + (high - low) * ((raw >> 11) * _UNIT)
# for one raw 64-bit output of the stream, _UNIT being 2**-53 (see the
# module docstring); each constant range below is its (low, high - low).
_BEARING_LO = -_MAX_BEARING
_BEARING_RANGE = _MAX_BEARING - _BEARING_LO
_YAW_LO = -math.pi
_YAW_RANGE = math.pi - _YAW_LO
_CENTER_LO = -_CENTER_JITTER
_CENTER_RANGE = _CENTER_JITTER - _CENTER_LO
_YAW_JITTER_LO = -_YAW_JITTER
_YAW_JITTER_RANGE = _YAW_JITTER - _YAW_JITTER_LO
_FP_SCORE_LO = _FP_SCORE_BAND[0]
_FP_SCORE_RANGE = _FP_SCORE_BAND[1] - _FP_SCORE_LO

TRUE_POSITIVE = "tp"
FALSE_POSITIVE = "fp"

# The label line of a generated car (truncated 0, occluded 0): the reals
# from alpha on, with six fractional digits.
_GT_FORMAT = "Car 0.000000 0" + " %.6f" * 12
_DET_FORMAT = _GT_FORMAT + " %.6f"


class ScoreModel(Record):
    """Quadratic mean score over distance plus per-bin Gaussian noise."""

    a: float
    b: float
    c: float
    noise_std: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"score_model.{name} must be finite, got {getattr(self, name)}")
        if not all(0.0 <= v < math.inf for v in self.noise_std):
            raise ValueError(f"noise_std entries must be finite and non-negative, got {self.noise_std}")

    def mean_at(self, distance: float) -> float:
        """Unclamped mean score at a distance."""
        return (self.a * distance + self.b) * distance + self.c


class ScenarioSpec(Record):
    """Everything needed to regenerate a synthetic dataset."""

    seed: int
    n_frames: int
    objects_per_frame: tuple[int, int]
    distance_range: tuple[float, float]
    score_model: ScoreModel
    fp_rate_per_bin: tuple[float, ...]
    fn_rate_per_bin: tuple[float, ...]
    bin_spec: BinSpec = BinSpec()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n_frames <= 0:
            raise ValueError("n_frames must be positive")
        lo, hi = self.objects_per_frame
        if lo < 0 or hi < lo:
            raise ValueError(f"bad objects_per_frame range {self.objects_per_frame}")
        d_lo, d_hi = self.distance_range
        if not (0.0 <= d_lo < d_hi <= 120.0):
            raise ValueError(f"distance_range must satisfy 0 <= lo < hi <= 120, got {self.distance_range}")
        n_bins = self.bin_spec.n_bins
        for name in ("fp_rate_per_bin", "fn_rate_per_bin"):
            rates = getattr(self, name)
            if len(rates) != n_bins:
                raise ValueError(f"{name} needs {n_bins} entries, got {len(rates)}")
            if any(not 0.0 <= r <= 1.0 for r in rates):
                raise ValueError(f"{name} entries must lie in [0, 1]")
        if len(self.score_model.noise_std) != n_bins:
            raise ValueError(
                f"score_model.noise_std needs {n_bins} entries, got {len(self.score_model.noise_std)}"
            )


def _place(
    raw: Callable[[], int],
    d_lo: float,
    d_hi: float,
    existing: list[tuple[float, float]],
) -> tuple[float, float] | None:
    """Rejection-sample a ground position at least MIN_SEPARATION from others."""
    d_range = d_hi - d_lo
    for _ in range(_PLACEMENT_TRIES):
        distance = d_lo + d_range * ((raw() >> 11) * _UNIT)
        bearing = _BEARING_LO + _BEARING_RANGE * ((raw() >> 11) * _UNIT)
        x = distance * math.sin(bearing)
        z = distance * math.cos(bearing)
        for ex, ez in existing:
            if math.hypot(x - ex, z - ez) < MIN_SEPARATION:
                break
        else:
            return x, z
    return None


def _car_dims(raw: Callable[[], int]) -> tuple[float, float, float]:
    height, width, length = CAR_DIMS
    return (
        height * (1.0 + _DIMS_JITTER * (-1.0 + 2.0 * ((raw() >> 11) * _UNIT))),
        width * (1.0 + _DIMS_JITTER * (-1.0 + 2.0 * ((raw() >> 11) * _UNIT))),
        length * (1.0 + _DIMS_JITTER * (-1.0 + 2.0 * ((raw() >> 11) * _UNIT))),
    )


def _project_bbox(
    x: float, y: float, z: float, dims: tuple[float, float, float]
) -> tuple[float, float, float, float]:
    """Crude pinhole projection so emitted files carry plausible 2D boxes.

    The corners come out ordered (left <= right, top <= bottom) because
    dims and depth are positive and clamping is monotone.
    """
    fu, cu, cv = 721.5377, 609.5593, 172.854
    h, w, _ = dims
    depth = max(z, 0.5)
    left = cu + fu * (x - 0.5 * w) / depth
    right = cu + fu * (x + 0.5 * w) / depth
    top = cv + fu * (y - h) / depth
    bottom = cv + fu * y / depth
    return (
        min(max(left, 0.0), 1242.0),
        min(max(top, 0.0), 375.0),
        min(max(right, 0.0), 1242.0),
        min(max(bottom, 0.0), 375.0),
    )


def _label_line(
    x: float, z: float, dims: tuple[float, float, float], yaw: float, score: float | None = None
) -> str:
    """The label line of a car at ground position (x, z); a ground-truth
    line when score is None."""
    yaw = normalize_angle(yaw)
    alpha = normalize_angle(yaw - math.atan2(x, z))
    reals = (alpha, *_project_bbox(x, _CAMERA_Y, z, dims), *dims, x, _CAMERA_Y, z, yaw)
    return _GT_FORMAT % reals if score is None else _DET_FORMAT % (*reals, score)


def _generate_frame(
    spec: ScenarioSpec, stream: PhiloxStream
) -> tuple[list[tuple], list[tuple], list[str]]:
    raw = stream.raw
    lo, hi = spec.objects_per_frame
    d_lo, d_hi = spec.distance_range
    bin_width = spec.bin_spec.bin_width
    last_bin = spec.bin_spec.n_bins - 1
    fn_rates = spec.fn_rate_per_bin
    model = spec.score_model
    n_objects = stream.integers(lo, hi + 1)
    placements: list[tuple[float, float]] = []
    gt_rows: list[tuple] = []
    det_rows: list[tuple] = []
    kinds: list[str] = []
    for _ in range(n_objects):
        position = _place(raw, d_lo, d_hi, placements)
        if position is None:
            continue  # frame too crowded; deterministic either way
        placements.append(position)
        x, z = position
        dims = _car_dims(raw)
        yaw = _YAW_LO + _YAW_RANGE * ((raw() >> 11) * _UNIT)
        gt_rows.append((x, z, dims, yaw))
        gt_distance = ground_distance(x, z)
        if (raw() >> 11) * _UNIT < fn_rates[min(int(gt_distance // bin_width), last_bin)]:
            continue  # missed object: no detection emitted
        det_x = x + (_CENTER_LO + _CENTER_RANGE * ((raw() >> 11) * _UNIT))
        det_z = z + (_CENTER_LO + _CENTER_RANGE * ((raw() >> 11) * _UNIT))
        det_yaw = yaw + (_YAW_JITTER_LO + _YAW_JITTER_RANGE * ((raw() >> 11) * _UNIT))
        det_distance = ground_distance(det_x, det_z)
        sigma = model.noise_std[min(int(det_distance // bin_width), last_bin)]
        score = model.mean_at(det_distance)
        if sigma > 0.0:
            score += sigma * stream.standard_normal()
        det_rows.append((det_x, det_z, dims, det_yaw, min(max(score, 0.0), 1.0)))
        kinds.append(TRUE_POSITIVE)
    for bin_index, fp_rate in enumerate(spec.fp_rate_per_bin):
        if (raw() >> 11) * _UNIT >= fp_rate:
            continue
        position = _place(raw, bin_index * bin_width, (bin_index + 1) * bin_width, placements)
        if position is None:
            continue
        placements.append(position)
        x, z = position
        dims = _car_dims(raw)
        yaw = _YAW_LO + _YAW_RANGE * ((raw() >> 11) * _UNIT)
        local_mean = min(max(model.mean_at(ground_distance(x, z)), 0.0), 1.0)
        fraction = _FP_SCORE_LO + _FP_SCORE_RANGE * ((raw() >> 11) * _UNIT)
        det_rows.append((x, z, dims, yaw, min(max(fraction * local_mean, 0.0), 1.0)))
        kinds.append(FALSE_POSITIVE)
    return gt_rows, det_rows, kinds


def _raw_frames(spec: ScenarioSpec) -> list[tuple[list[tuple], list[tuple], list[str]]]:
    """Each frame's ground-truth rows (x, z, dims, yaw), detection rows
    (x, z, dims, yaw, score) and detection kinds, before formatting."""
    stream = PhiloxStream(spec.seed)
    return [_generate_frame(spec, stream) for _ in range(spec.n_frames)]


def _table(frame_ids: list[str], frames: tuple[list[tuple], ...], expect_score: bool) -> LabelTable:
    """The table read from the label lines of frames' rows."""
    lines = [_label_line(*row) for rows in frames for row in rows]
    ends = list(accumulate(map(len, frames)))
    table = _table_from_lines(frame_ids, [f"{i}.txt" for i in frame_ids], lines, ends, expect_score)
    if table is None:
        raise ValueError("the scenario generated a label line that the reader rejects")
    return table


def generate(spec: ScenarioSpec) -> tuple[LabelTable, LabelTable]:
    """The ground-truth and the detection table of a scenario, frames
    000000, 000001, ... in order; identical for identical specs."""
    gt, det, _ = generate_with_truth(spec)
    return gt, det


def generate_with_truth(spec: ScenarioSpec) -> tuple[LabelTable, LabelTable, list[str]]:
    """generate's tables, and each detection row's kind ('tp' or 'fp')."""
    gt, det, kinds = zip(*_raw_frames(spec))
    frame_ids = [f"{index:06d}" for index in range(spec.n_frames)]
    return _table(frame_ids, gt, False), _table(frame_ids, det, True), list(chain.from_iterable(kinds))


def known_optimal_counts(
    spec: ScenarioSpec, model: ThresholdModel
) -> tuple[int, int, int]:
    """(tp, fp, fn) after adaptive filtering, by exhaustive enumeration.

    Because generated objects never overlap each other, a surviving true
    detection always matches exactly its own ground-truth box and a
    surviving false positive matches nothing, so the counts follow
    directly from which detections pass the threshold.
    """
    gt, det, kinds = generate_with_truth(spec)
    surviving = list(compress(kinds, keep_rows(det, model)))
    tp = surviving.count(TRUE_POSITIVE)
    return tp, len(surviving) - tp, len(gt) - tp
