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

parse_label_file reads one file into KittiRecords and is the reference
for every rule above. read_label_table and load_tables read whole
directories into a LabelTable, one row per line held by column, without
building records: each check runs once over all rows, and when any
fails the files are parsed again one by one, so the error raised is
the one parse_label_file raises for the first bad file.
LabelTable.from_records builds a table from records, and write_frames
writes a table's frames back to files.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, compress
from operator import lt
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn, Sequence

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

    def ego_distance(self) -> float:
        """Ground-plane distance from the ego vehicle, sqrt(x^2 + z^2)."""
        return ground_distance(self.location[0], self.location[2])

    def to_box3d(self) -> Box3D:
        """Oriented box for this record. Fails for DontCare rows (dims <= 0)."""
        from .geometry import Box3D  # on use: stats, fit and filter never build boxes

        return Box3D(center=self.location, dims=self.dimensions, yaw=self.rotation_y)


# The reals of a label line, in file order: every field after the class
# name. A ground-truth table stops before "score".
COLUMNS = (
    "truncated", "occluded", "alpha", "left", "top", "right", "bottom",
    "height", "width", "length", "x", "y", "z", "rotation_y", "score",
)
_COLUMN = {name: index for index, name in enumerate(COLUMNS)}
_OCCLUSION_VALUES = frozenset(map(float, _OCCLUSION_LEVELS))
_CHUNK_LINES = 256  # lines split at once by the bulk reader


@dataclass(frozen=True, eq=False)
class LabelTable:
    """The label lines of a sequence of frames, one row per line, by column.

    Frame i owns rows offsets[i] to offsets[i + 1]; files[i] is the name
    of the file it was read from (None for a frame without one), or
    <frame_id>.txt in a table built from records. columns
    holds one array('d') per name in COLUMNS, the score only in a
    detection table, where NaN marks a record without a score. lines
    holds each row's line as read, without its line break.
    """

    frame_ids: list[str]
    files: list[str | None]
    offsets: list[int]
    class_names: list[str]
    columns: tuple[array, ...]
    lines: list[str]

    def __len__(self) -> int:
        return len(self.class_names)

    def column(self, name: str) -> array:
        return self.columns[_COLUMN[name]]

    def distances(self) -> list[float]:
        """Each row's ground_distance from the ego vehicle."""
        return list(map(ground_distance, self.column("x"), self.column("z")))

    def scores(self) -> array:
        """The score column; MissingScoreError when a row has no score."""
        if len(self.columns) < len(COLUMNS) or any(map(math.isnan, self.columns[-1])):
            raise MissingScoreError("detection record has no score")
        return self.columns[-1]

    @classmethod
    def from_records(
        cls, frame_ids: Sequence[str], records: Sequence[Sequence[KittiRecord]], with_score: bool
    ) -> LabelTable:
        """The table of frames holding records[i] each. Frame i's file is
        named <frame_ids[i]>.txt, and each row's line is serialize_record's."""
        rows = list(chain.from_iterable(records))
        values = array("d")
        for r in rows:
            values.extend((r.truncated, r.occluded, r.alpha, *r.bbox_2d, *r.dimensions))
            values.extend((*r.location, r.rotation_y))
            if with_score:
                values.append(math.nan if r.score is None else r.score)
        width = len(COLUMNS) if with_score else len(COLUMNS) - 1
        return cls(
            list(frame_ids),
            [f"{frame_id}.txt" for frame_id in frame_ids],
            [0, *accumulate(map(len, records))],
            [r.class_name for r in rows],
            tuple(values[j::width] for j in range(width)),
            list(map(serialize_record, rows)),
        )


def parse_label_file(text: str, expect_score: bool) -> list[KittiRecord]:
    """Parse one label file. Blank lines are skipped.

    expect_score selects the 16-column detection layout; a mismatch is a
    LabelFormatError, any other malformed line a LabelParseError. Both
    carry the 1-based line number.
    """
    n_fields = _DET_FIELDS if expect_score else _GT_FIELDS
    records: list[KittiRecord] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != n_fields:
            _raise_field_count(len(tokens), expect_score, line_no)
        values = _parse_reals(tokens, line_no)
        if values[1] not in _OCCLUSION_LEVELS:
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
        if values[5] < values[3] or values[6] < values[4]:
            raise LabelFormatError(f"inverted 2D bbox {tuple(values[3:7])}", line_no=line_no)
        records.append(
            KittiRecord(
                class_name,
                values[0],
                int(values[1]),
                values[2],
                values[3:7],
                dimensions,
                values[10:13],
                values[13],
                values[14] if expect_score else None,
            )
        )
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


def write_frames(table: LabelTable, out_dir: str | Path, kept: Sequence[bool] | None = None) -> None:
    """Write each frame's file of table into out_dir, which is created even
    for a table without frames: the lines of the rows flagged in kept (all
    rows without kept) as held, LF-terminated, one write_text_atomic per file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kept = [True] * len(table) if kept is None else kept
    for name, start, stop in zip(table.files, table.offsets, table.offsets[1:]):
        lines = compress(table.lines[start:stop], kept[start:stop])
        write_text_atomic(out_dir / name, "".join(line + "\n" for line in lines))


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


def load_tables(gt_dir: str | Path, det_dir: str | Path) -> tuple[LabelTable, LabelTable]:
    """The ground-truth and the detection table of matching <frame_id>.txt files.

    Both tables hold every ground-truth frame, sorted by frame_id; a frame
    without a detection file has no detection rows. A detection file
    without a ground-truth counterpart is a DatasetError naming the
    frame. A bad file raises read_label_file's error for the first bad
    file in frame order, ground truth before detections.
    """
    gt_dir = Path(gt_dir)
    det_dir = Path(det_dir)
    gt_files = _files_by_frame(gt_dir, "ground-truth")
    det_files = _files_by_frame(det_dir, "detection")
    orphans = sorted(set(det_files) - set(gt_files))
    if orphans:
        raise DatasetError(
            "detection files without ground-truth counterparts: " + ", ".join(orphans)
        )
    frame_ids = sorted(gt_files)
    gt = _read_table(gt_dir, frame_ids, [gt_files[i] for i in frame_ids], expect_score=False)
    det = None
    if gt is not None:
        det = _read_table(det_dir, frame_ids, [det_files.get(i) for i in frame_ids], expect_score=True)
    if det is None:
        order = []
        for frame_id in frame_ids:
            order.append((gt_dir / gt_files[frame_id], False))
            if frame_id in det_files:
                order.append((det_dir / det_files[frame_id], True))
        _raise_first_error(order)
    return gt, det


def read_label_table(directory: str | Path, role: str, expect_score: bool) -> LabelTable:
    """The table of every label file in directory, one frame per file,
    sorted by frame id.

    The files are label_file_names'; a missing directory is a
    DatasetError naming role. A bad file raises read_label_file's error
    for the first bad file in name order.
    """
    directory = Path(directory)
    names = sorted(label_file_names(directory, role))
    files = sorted(names, key=_frame_id)
    table = _read_table(directory, list(map(_frame_id, files)), files, expect_score)
    if table is None:
        _raise_first_error([(directory / name, expect_score) for name in names])
    return table


def _read_table(
    directory: Path, frame_ids: list[str], files: list[str | None], expect_score: bool
) -> LabelTable | None:
    """The table of the named files of directory, parsed in bulk; None when
    a file cannot be read or has a line that parse_label_file rejects.

    parse_label_file's checks run on the whole set at once: the field
    count of every non-blank line, then one float conversion, one
    finiteness pass and the occlusion, dimension and bbox rules by
    column.
    """
    width = _DET_FIELDS if expect_score else _GT_FIELDS
    prefix = os.path.join(directory, "")  # a Path per file cost a tenth of the load
    lines: list[str] = []
    ends: list[int] = []
    for name in files:
        if name is not None:
            try:
                # Unbuffered bytes read a third faster than a text file; splitlines
                # breaks at a raw "\r\n" or "\r" as at the "\n" text mode makes of it.
                with open(prefix + name, "rb", buffering=0) as handle:
                    text = handle.read().decode("utf-8")
                # strip() is empty exactly where split() is: a blank line has no row.
                lines += filter(str.strip, text.splitlines())
            except (OSError, UnicodeDecodeError):
                return None
        ends.append(len(lines))
    # Lines are split a chunk at a time, which bounds the token strings alive at once.
    class_names: list[str] = []
    columns = tuple(array("d") for _ in range(width - 1))
    for start in range(0, len(lines), _CHUNK_LINES):
        rows = list(map(str.split, lines[start : start + _CHUNK_LINES]))
        if set(map(len, rows)) - {width}:
            return None
        tokens = list(chain.from_iterable(rows))
        class_names += map(sys.intern, tokens[::width])  # rows share one string per name
        try:
            for j, column in enumerate(columns, start=1):
                column.extend(map(float, tokens[j::width]))
        except ValueError:
            return None
    if not all(map(math.isfinite, chain.from_iterable(columns))):
        return None
    table = LabelTable(frame_ids, files, [0, *ends], class_names, columns, lines)
    return table if _invariants_hold(table) else None


def _invariants_hold(table: LabelTable) -> bool:
    """parse_label_file's occlusion, dimension and bbox rules, on every row."""
    if not _OCCLUSION_VALUES.issuperset(table.column("occluded")):
        return False
    sized = [name != DONT_CARE for name in table.class_names]
    dims = (compress(table.column(name), sized) for name in ("height", "width", "length"))
    if min(chain.from_iterable(dims), default=1.0) <= 0.0:
        return False
    left, top, right, bottom = (table.column(name) for name in ("left", "top", "right", "bottom"))
    return not (any(map(lt, right, left)) or any(map(lt, bottom, top)))


def _raise_first_error(paths: list[tuple[Path, bool]]) -> NoReturn:
    """Raise read_label_file's error for the first bad file of (path,
    expect_score) pairs, in their order."""
    for path, expect_score in paths:
        read_label_file(path, expect_score)
    raise AssertionError("the bulk parser rejected files that parse_label_file accepts")


def _files_by_frame(directory: Path, role: str) -> dict[str, str]:
    return {_frame_id(name): name for name in label_file_names(directory, role)}


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
