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
spaces or tabs separates fields; LF and CRLF inputs both parse, a
leading UTF-8 byte-order mark is dropped, and output always uses LF.
Only structural invariants are enforced (field count, finite numeric
fields, an occlusion level, positive dimensions outside DontCare, bbox
ordering); value ranges such as truncation in [0, 1] are the
producer's business.

read_label_table, load_tables and load_detections read whole directories
into a LabelTable, one row per line held by column, through one reader.
load_tables and load_detections take the frame set from one listing of a
ground-truth and a detection directory, by file name; load_detections
opens no ground-truth file and builds only the detection table. Each
file is read through a raw descriptor (os.open, os.read until end of
file, os.close) and decoded as strict UTF-8 without one leading
byte-order mark: the lines a utf-8-sig text file gives, save that a file
holding only part of a mark is undecodable, not empty. Every table,
synthetic ones included, is built from label lines by one function,
which runs each check once over all rows. When any fails, or a file
cannot be read, the files are read again and checked line by line in
frame order, ground truth first within a frame, and the error raised
names the first bad file and line.

write_files is the one writer of output files: label trees, and the
JSON, CSV, SVG and markdown reports. It writes a directory's files, each
one's UTF-8 bytes with os.write, into a fresh staging tree, names with a
subdirectory included: a new directory appears whole or not at all, and
an existing one gets one atomic replace per file. label_files gives a
table's frames as files, one label file each, and write_frames hands
them to write_files.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import tempfile
from array import array
from itertools import chain, compress
from operator import lt
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .bin_stats import Record, ground_distance

DONT_CARE = "DontCare"

_GT_FIELDS = 15
_DET_FIELDS = 16


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
    """A ground-truth table was used where scores are required."""


# The reals of a label line, in file order: every field after the class
# name. A ground-truth table stops before "score".
COLUMNS = (
    "truncated", "occluded", "alpha", "left", "top", "right", "bottom",
    "height", "width", "length", "x", "y", "z", "rotation_y", "score",
)
_COLUMN = {name: index for index, name in enumerate(COLUMNS)}
_OCCLUSION_VALUES = frozenset((-1.0, 0.0, 1.0, 2.0, 3.0))
_CHUNK_LINES = 256  # lines split at once by the bulk reader
_READ_BYTES = 1 << 16  # bytes asked of each os.read


class LabelTable(Record, eq=False):
    """The label lines of a sequence of frames, one row per line, by column.

    Frame i owns rows offsets[i] to offsets[i + 1]; files[i] is the name
    of the file it was read from (None for a frame without one), or
    <frame_id>.txt in a synthetic table. columns holds one array('d')
    per name in COLUMNS, the score only in a detection table. lines
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
        """The score column; MissingScoreError for a ground-truth table."""
        if len(self.columns) < len(COLUMNS):
            raise MissingScoreError("ground-truth table has no scores")
        return self.columns[-1]


def label_files(table: LabelTable, kept: Sequence[bool] | None = None) -> Iterator[tuple[str, str]]:
    """(file name, text) of each frame's file of table: the lines of the
    rows flagged in kept (all rows without kept) as held, LF-terminated.
    A frame without a file has no rows and gets none. A kept without
    exactly one flag per row is a ValueError, raised at the call, before
    anything is written.
    """
    kept = [True] * len(table) if kept is None else kept
    if len(kept) != len(table):
        raise ValueError(f"kept holds {len(kept)} flags for a table of {len(table)} rows")
    return (
        (name, "".join(line + "\n" for line in compress(table.lines[start:stop], kept[start:stop])))
        for name, start, stop in zip(table.files, table.offsets, table.offsets[1:])
        if name is not None
    )


def write_frames(table: LabelTable, out_dir: str | Path, kept: Sequence[bool] | None = None) -> None:
    """write_files of table's label_files into out_dir."""
    write_files(out_dir, label_files(table, kept))


def write_files(out_dir: str | Path, files: Iterable[tuple[str, str]]) -> None:
    """Write each (name, text) of files into out_dir as UTF-8, newlines as
    given, mode 0o600; parent directories are created. A name may hold
    subdirectories (gt/000000.txt), made as needed.

    The files are written into a hidden staging tree first. A new
    out_dir, even for no files, is then renamed into place whole, so it
    appears complete or not at all. In an existing out_dir each file
    replaces its namesake atomically, and files not named stay. On an
    error the staging directory is removed, and a new out_dir does not
    exist.
    """
    out_dir = Path(out_dir)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    existed = out_dir.is_dir()
    # Staged in the directory that gets the files, so that no rename
    # crosses a mount point (out_dir may be one).
    host = out_dir if existed else out_dir.parent
    stage = tempfile.mkdtemp(dir=host, prefix=f".{out_dir.name}.", suffix=".tmp")
    try:
        tree = os.path.join(stage, "tree")
        os.mkdir(tree)  # the mode of a plain mkdir, where mkdtemp gives 0o700
        names = []
        subdirs = {""}
        for name, text in files:
            subdir = os.path.dirname(name)
            if subdir not in subdirs:
                os.makedirs(os.path.join(tree, subdir), exist_ok=True)
                subdirs.add(subdir)
            data = memoryview(text.encode())
            # Mode 0o600, as tempfile.mkstemp gives; the tree is new, so O_EXCL.
            fd = os.open(os.path.join(tree, name), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            try:
                while data:
                    data = data[os.write(fd, data) :]
            finally:
                os.close(fd)
            names.append(name)
        if not existed:
            try:
                os.rename(tree, out_dir)
                return
            except OSError:
                # out_dir appeared meanwhile: fill it file by file. Something
                # other than a directory there is a FileExistsError naming it.
                out_dir.mkdir(exist_ok=True)
        for subdir in subdirs:
            os.makedirs(os.path.join(out_dir, subdir), exist_ok=True)
        for name in names:
            os.replace(os.path.join(tree, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def load_tables(gt_dir: str | Path, det_dir: str | Path) -> tuple[LabelTable, LabelTable]:
    """The ground-truth and the detection table of matching <frame_id>.txt files.

    Both tables hold every ground-truth frame, sorted by frame_id; a frame
    without a detection file has no detection rows. The frame set follows
    _listed_frames: its DatasetErrors come before any file is read. A bad
    file raises _read_tables' error: the first bad file in frame order,
    ground truth before detections. eval reads its input here.
    """
    gt_dir, det_dir = Path(gt_dir), Path(det_dir)
    gt_files, det_files = _listed_frames(gt_dir, det_dir)
    gt, det = _read_tables(sorted(gt_files), [(gt_dir, gt_files, False), (det_dir, det_files, True)])
    return gt, det


def load_detections(gt_dir: str | Path, det_dir: str | Path) -> LabelTable:
    """load_tables' detection rows, in its order, without reading ground truth.

    gt_dir is listed and no file in it is opened: the frame set and its
    DatasetErrors are load_tables' (see _listed_frames). The table holds
    one frame per detection file, sorted by frame_id, so its rows are
    those of load_tables' detection table. A bad detection file raises
    _read_tables' error: the first bad file in frame order. stats and fit
    read their input here.
    """
    det_dir = Path(det_dir)
    _, det_files = _listed_frames(Path(gt_dir), det_dir)
    [det] = _read_tables(sorted(det_files), [(det_dir, det_files, True)])
    return det


def read_label_table(directory: str | Path, role: str, expect_score: bool) -> LabelTable:
    """The table of every label file in directory, one frame per file,
    sorted by frame id. A missing directory or two files of one frame id
    is a DatasetError (see _files_by_frame); a bad file raises
    _read_tables' error for the first bad file in frame order. filter
    reads its input here."""
    directory = Path(directory)
    files = _files_by_frame(directory, role)
    [table] = _read_tables(sorted(files), [(directory, files, expect_score)])
    return table


def _read_tables(frame_ids: list[str], trees: list[tuple[Path, dict[str, str], bool]]) -> list[LabelTable]:
    """One table per (directory, frame id -> file name, expect_score) tree,
    each holding every frame of frame_ids (no rows where the tree has no
    file of the frame). When a file cannot be read or _table_from_lines
    rejects a line, every file is read again and checked line by line in
    frame order, trees in the given order within a frame, and
    _check_label_file's error for the first bad file is raised."""
    tables = []
    for directory, by_frame, expect_score in trees:
        files = [by_frame.get(frame_id) for frame_id in frame_ids]
        prefix = os.path.join(directory, "")  # a Path per file cost a tenth of the load
        lines: list[str] = []
        ends: list[int] = []
        try:
            for name in files:
                if name is not None:
                    # strip() is empty exactly where split() is: a blank line has no row.
                    lines += filter(str.strip, _read_text(prefix + name).splitlines())
                ends.append(len(lines))
        except (OSError, UnicodeDecodeError):
            break
        table = _table_from_lines(frame_ids, files, lines, ends, expect_score)
        if table is None:
            break
        tables.append(table)
    else:
        return tables
    for frame_id in frame_ids:
        for directory, by_frame, expect_score in trees:
            if frame_id in by_frame:
                _check_label_file(directory / by_frame[frame_id], expect_score)
    raise AssertionError("the bulk parser rejected files that _check_label_file accepts")


def _read_text(path: str | Path) -> str:
    """A label file's text: its bytes, read through a raw descriptor (half
    the time of a file object's), as strict UTF-8 without one leading
    byte-order mark. splitlines() breaks it at a "\r\n" or "\r" as at
    the "\n" a text file makes of them."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_BYTES):
            chunks.append(chunk)
    finally:
        os.close(fd)
    text = b"".join(chunks).decode()
    return text[1:] if text[:1] == "\ufeff" else text


def _table_from_lines(
    frame_ids: list[str], files: list[str | None], lines: list[str], ends: list[int], expect_score: bool
) -> LabelTable | None:
    """The table of non-blank label lines, frame i holding those after frame
    i - 1's up to ends[i]; None when a line breaks a rule of _check_line.

    The rules run on all lines at once: the field count of every line,
    then one float conversion, one finiteness pass and the occlusion,
    dimension and bbox rules by column.
    """
    width = _DET_FIELDS if expect_score else _GT_FIELDS
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
    """_check_line's occlusion, dimension and bbox rules, on every row."""
    if not _OCCLUSION_VALUES.issuperset(table.column("occluded")):
        return False
    sized = [name != DONT_CARE for name in table.class_names]
    dims = (compress(table.column(name), sized) for name in ("height", "width", "length"))
    if min(chain.from_iterable(dims), default=1.0) <= 0.0:
        return False
    left, top, right, bottom = (table.column(name) for name in ("left", "top", "right", "bottom"))
    return not (any(map(lt, right, left)) or any(map(lt, bottom, top)))


def _listed_frames(gt_dir: Path, det_dir: Path) -> tuple[dict[str, str], dict[str, str]]:
    """_files_by_frame of gt_dir, then of det_dir: the frame set, by file
    name alone. A detection file without a ground-truth counterpart is a
    DatasetError naming its frame."""
    gt_files = _files_by_frame(gt_dir, "ground-truth")
    det_files = _files_by_frame(det_dir, "detection")
    orphans = sorted(set(det_files) - set(gt_files))
    if orphans:
        raise DatasetError(
            "detection files without ground-truth counterparts: " + ", ".join(orphans)
        )
    return gt_files, det_files


def _files_by_frame(directory: Path, role: str) -> dict[str, str]:
    """Frame id -> name of each label file in directory, from one listing.

    The names are those Path.glob("*.txt") yields: case-sensitive, hidden
    names included. A frame id is the name's stem, and ".txt" is its own
    stem. A missing directory is a DatasetError naming role, and two names
    of one frame id (".txt" and ".txt.txt") a DatasetError naming both.
    """
    try:
        with os.scandir(directory) as entries:
            names = [entry.name for entry in entries if entry.name.endswith(".txt")]
    except (FileNotFoundError, NotADirectoryError):
        raise DatasetError(f"{role} directory not found: {directory}") from None
    files: dict[str, str] = {}
    for name in names:
        frame_id = name[:-4] or name
        if frame_id in files:
            a, b = sorted((files[frame_id], name))
            raise DatasetError(f"{role} files {directory / a} and {directory / b} have the same frame id {frame_id!r}")
        files[frame_id] = name
    return files


def _check_label_file(path: Path, expect_score: bool) -> None:
    """Raise _check_line's error for the first bad line of a label file,
    with the file and the 1-based line number; blank lines are skipped.
    An unreadable file is a DatasetError naming it. Builds nothing."""
    try:
        text = _read_text(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    n_fields = _DET_FIELDS if expect_score else _GT_FIELDS
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens:
            try:
                _check_line(tokens, n_fields)
            except LabelError as exc:
                exc.line_no, exc.path = line_no, str(path)
                raise


def _check_line(tokens: list[str], n_fields: int) -> None:
    """Raise for the first rule of the module docstring that a line's tokens
    break: a field count of the other layout is a LabelFormatError, any
    other malformed line a LabelParseError."""
    if len(tokens) != n_fields:
        if len(tokens) not in (_GT_FIELDS, _DET_FIELDS):
            raise LabelParseError(f"expected 15 or 16 fields, got {len(tokens)}")
        wanted = "16 fields (with score)" if n_fields == _DET_FIELDS else "15 fields (no score)"
        raise LabelFormatError(f"expected {wanted}, got {len(tokens)}")
    values = []
    for token in tokens[1:]:
        try:
            values.append(float(token))
        except ValueError:
            raise LabelParseError(f"non-numeric field {token!r}") from None
        if not math.isfinite(values[-1]):
            raise LabelParseError(f"non-finite field {token!r}")
    if values[1] not in _OCCLUSION_VALUES:
        raise LabelFormatError(f"occluded must be one of -1,0,1,2,3, got {tokens[2]!r}")
    dimensions = tuple(values[7:10])
    if tokens[0] != DONT_CARE and min(dimensions) <= 0.0:
        raise LabelFormatError(f"non-positive dimensions {dimensions} for class {tokens[0]!r}")
    if values[5] < values[3] or values[6] < values[4]:
        raise LabelFormatError(f"inverted 2D bbox {tuple(values[3:7])}")
