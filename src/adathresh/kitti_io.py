"""KITTI label and detection file I/O.

One object per line, whitespace-separated fields:

    col    field       type   notes
    0      type        str    class name, e.g. "Car"; "DontCare" marks
                              regions excluded from evaluation
    1      truncated   float
    2      occluded    int    0, 1, 2, 3 or -1 (unknown)
    3      alpha       float  observation angle, radians
    4-7    bbox        float  2D box: left, top, right, bottom (pixels)
    8-10   dimensions  float  height, width, length (meters)
    11-13  location    float  x, y, z in the camera frame (meters);
                              y points down and the location sits at the
                              center of the bottom face
    14     rotation_y  float  yaw about the camera y axis, radians
    15     score       float  detection files only

Ground-truth files carry 15 columns, detection files 16. Any run of
spaces or tabs separates fields; LF and CRLF inputs both parse, output
always uses LF. Only structural invariants are enforced (field count,
numeric fields, positive dimensions outside DontCare, bbox ordering);
value ranges such as truncation in [0, 1] are the producer's business.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .bin_stats import ground_distance

if TYPE_CHECKING:
    from .geometry import Box3D

DONT_CARE = "DontCare"

_GT_FIELDS = 15
_DET_FIELDS = 16
_OCCLUSION_LEVELS = (-1, 0, 1, 2, 3)


class KittiIOError(Exception):
    """Base class for label and dataset I/O problems."""


class LabelError(KittiIOError):
    """Problem with a specific label line."""

    def __init__(self, message: str, line_no: int | None = None, path: str | None = None):
        super().__init__(message)
        self.message = message
        self.line_no = line_no
        self.path = path

    def __str__(self) -> str:
        where = ""
        if self.path:
            where += f"{self.path}: "
        if self.line_no is not None:
            where += f"line {self.line_no}: "
        return where + self.message


class LabelParseError(LabelError):
    """Line cannot be read at all: bad field count or non-numeric field."""


class LabelFormatError(LabelError):
    """Line parses but violates the expected shape or an invariant."""


class DatasetError(KittiIOError):
    """Unreadable or inconsistent input files."""


class MissingScoreError(KittiIOError):
    """A record without a score was used where a score is required."""


@dataclass(frozen=True)
class KittiRecord:
    """One labeled object. ``score`` is None for ground-truth records."""

    class_name: str
    truncated: float
    occluded: int
    alpha: float
    bbox_2d: tuple[float, float, float, float]
    dimensions: tuple[float, float, float]
    location: tuple[float, float, float]
    rotation_y: float
    score: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "bbox_2d", tuple(map(float, self.bbox_2d)))
        object.__setattr__(self, "dimensions", tuple(map(float, self.dimensions)))
        object.__setattr__(self, "location", tuple(map(float, self.location)))

    @property
    def is_dontcare(self) -> bool:
        return self.class_name == DONT_CARE

    def ego_distance(self) -> float:
        """Ground-plane distance from the ego vehicle, sqrt(x^2 + z^2)."""
        return ground_distance(self.location[0], self.location[2])

    def to_box3d(self) -> Box3D:
        """Oriented box for this record. Fails for DontCare rows (dims <= 0)."""
        from .geometry import Box3D  # numpy; stats and filter never build boxes

        return Box3D(center=self.location, dims=self.dimensions, yaw=self.rotation_y)


_RECORD_FIELDS = tuple(f.name for f in fields(KittiRecord))


@dataclass(frozen=True)
class FramePair:
    """Ground truth and detections for one frame, matched by frame id."""

    frame_id: str
    ground_truth: tuple[KittiRecord, ...] = field(default_factory=tuple)
    detections: tuple[KittiRecord, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.frame_id:
            raise ValueError("frame_id must be non-empty")
        object.__setattr__(self, "ground_truth", tuple(self.ground_truth))
        object.__setattr__(self, "detections", tuple(self.detections))


def parse_label_file(text: str, expect_score: bool) -> list[KittiRecord]:
    """Parse one label file. Blank lines are skipped.

    expect_score selects the 16-column detection layout; a mismatch is a
    LabelFormatError, any other malformed line a LabelParseError. Both
    carry the 1-based line number.
    """
    n_fields = _DET_FIELDS if expect_score else _GT_FIELDS
    new_record, set_field = object.__new__, object.__setattr__
    records: list[KittiRecord] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != n_fields:
            _raise_field_count(len(tokens), expect_score, line_no)
        values = _parse_reals(tokens, line_no)
        occluded = values[1]
        if occluded not in _OCCLUSION_LEVELS:
            raise LabelFormatError(
                f"occluded must be one of -1,0,1,2,3, got {tokens[2]!r}", line_no=line_no
            )
        class_name = tokens[0]
        dimensions = (values[7], values[8], values[9])
        if class_name != DONT_CARE and min(dimensions) <= 0.0:
            raise LabelFormatError(
                f"non-positive dimensions {dimensions} for class {class_name!r}",
                line_no=line_no,
            )
        bbox_2d = (values[3], values[4], values[5], values[6])
        if values[5] < values[3] or values[6] < values[4]:
            raise LabelFormatError(f"inverted 2D bbox {bbox_2d}", line_no=line_no)
        # Every value is already in the form __post_init__ would store, so
        # the fields are set directly, not converted again by the
        # constructor. Setting them one by one, as the constructor does,
        # keeps the instance without a dict of its own (about 170 bytes a record).
        stored = (
            class_name,
            values[0],
            int(occluded),
            values[2],
            bbox_2d,
            dimensions,
            (values[10], values[11], values[12]),
            values[13],
            values[14] if expect_score else None,
        )
        record = new_record(KittiRecord)
        for name, value in zip(_RECORD_FIELDS, stored):
            set_field(record, name, value)
        records.append(record)
    return records


def _raise_field_count(n_tokens: int, expect_score: bool, line_no: int) -> None:
    if n_tokens not in (_GT_FIELDS, _DET_FIELDS):
        raise LabelParseError(f"expected 15 or 16 fields, got {n_tokens}", line_no=line_no)
    wanted = "16 fields (with score)" if expect_score else "15 fields (no score)"
    raise LabelFormatError(f"expected {wanted}, got {n_tokens}", line_no=line_no)


def _parse_reals(tokens: list[str], line_no: int) -> list[float]:
    """The line's fields after the class name as floats, all finite."""
    try:
        values = list(map(float, tokens[1:]))
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        _raise_first_bad(tokens[1:], line_no)
    return values


def _raise_first_bad(tokens: list[str], line_no: int) -> None:
    """Raise for the first token that is non-numeric or non-finite."""
    for tok in tokens:
        try:
            v = float(tok)
        except ValueError:
            raise LabelParseError(f"non-numeric field {tok!r}", line_no=line_no) from None
        if not math.isfinite(v):
            raise LabelParseError(f"non-finite field {tok!r}", line_no=line_no)


# One %-format per layout; reals carry six fractional digits.
_GT_FORMAT = "%s %.6f %s" + " %.6f" * 12
_DET_FORMAT = _GT_FORMAT + " %.6f"


def serialize_record(record: KittiRecord) -> str:
    """One label line; reals carry six fractional digits."""
    columns = (
        record.class_name,
        record.truncated,
        record.occluded,
        record.alpha,
        *record.bbox_2d,
        *record.dimensions,
        *record.location,
        record.rotation_y,
    )
    if record.score is None:
        return _GT_FORMAT % columns
    return _DET_FORMAT % (*columns, record.score)


def serialize_records(records: list[KittiRecord]) -> str:
    """Serialize records one per line with LF endings; empty list gives ''."""
    return "".join(serialize_record(r) + "\n" for r in records)


def write_label_file(path: str | Path, records: list[KittiRecord]) -> None:
    """Serialize records to path atomically (temp file + rename)."""
    write_text_atomic(path, serialize_records(records))


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text (UTF-8, newlines as given) to a temp file beside path,
    then rename it over path; parent directories are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_dataset(gt_dir: str | Path, det_dir: str | Path) -> list[FramePair]:
    """Load matching <frame_id>.txt files from both directories.

    Frames present only in gt_dir get empty detections; a detection file
    without a ground-truth counterpart is a DatasetError naming the
    frame. The result is sorted by frame_id.
    """
    gt_dir = Path(gt_dir)
    det_dir = Path(det_dir)
    gt_names = label_file_names(gt_dir, "ground-truth")
    det_names = label_file_names(det_dir, "detection")
    gt_files = {_frame_id(name): gt_dir / name for name in gt_names}
    det_files = {_frame_id(name): det_dir / name for name in det_names}
    orphans = sorted(set(det_files) - set(gt_files))
    if orphans:
        raise DatasetError(
            "detection files without ground-truth counterparts: " + ", ".join(orphans)
        )
    return [
        FramePair(
            frame_id,
            read_label_file(gt_files[frame_id], expect_score=False),
            read_label_file(det_files[frame_id], expect_score=True) if frame_id in det_files else (),
        )
        for frame_id in sorted(gt_files)
    ]


def label_file_names(directory: Path, role: str) -> list[str]:
    """Names in directory ending in ".txt", from one listing.

    This is the set Path.glob("*.txt") yields: case-sensitive, hidden
    names included. A missing directory is a DatasetError naming role.
    """
    try:
        with os.scandir(directory) as entries:
            return [entry.name for entry in entries if entry.name.endswith(".txt")]
    except (FileNotFoundError, NotADirectoryError):
        raise DatasetError(f"{role} directory not found: {directory}") from None


def _frame_id(name: str) -> str:
    """Path(name).stem for a name ending in ".txt"; ".txt" itself is its own stem."""
    return name[:-4] or name


def read_label_file(path: Path, expect_score: bool) -> list[KittiRecord]:
    """Read and parse one label file; errors name the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_label_file(text, expect_score=expect_score)
    except LabelError as exc:
        exc.path = str(path)
        raise
