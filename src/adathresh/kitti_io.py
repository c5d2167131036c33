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
opens no ground-truth file and builds only the detection table, the
one load_tables builds; only read_label_table keeps each row's line.
Each file is read through a raw descriptor (os.open, os.read until end
of file, os.close; a listed regular file ends at its first short read)
and decoded as strict UTF-8 without one leading byte-order mark: the
lines a utf-8-sig text file gives, save that a file holding only part
of a mark is undecodable, not empty. Every table, synthetic ones included, is built from label lines
by one function, which runs each check once over all rows. When any
fails, or a file cannot be read, the files are read again and checked
line by line in frame order, ground truth first within a frame, and the
error raised names the first bad file and line (kitti_parse holds both).
A bad line is a LabelError holding the rule it breaks, its file's path
and its 1-based line number; any other bad input (an unreadable file or
directory, a frame set that does not pair up) is a DatasetError.

The cache spares a command work done before on the same input, under
$XDG_CACHE_HOME/adathresh, else $HOME/.cache/adathresh (no cache when
neither is an absolute path). cache_put stores a body under a key, and
cache_get reads it back. A table entry's key is a format version,
whether rows carry a score, each file's size, the frame ids and file
names, and the files' bytes; its body is their parse: each frame's row
end, the real columns and the class names, so that a hit decodes no
file unless its table keeps lines. A pairs entry holds evaluation's IoU
pairs. A hit needs the stored key to equal the current one byte for
byte and a crc32 to hold; a table hit's rows still go through the
finiteness pass and the invariants. Only the newest _CACHE_ENTRIES
entries of both kinds are kept. Any cache error (an unwritable or
missing root, a truncated or foreign entry) is a miss, so the cache
changes no table, error or output.

write_files is the one writer of output files: label trees, and the
JSON, CSV, SVG and markdown reports. It writes a directory's files, each
one's UTF-8 bytes with os.write, into a fresh staging tree, names with a
subdirectory included: a new directory appears whole or not at all, and
an existing one gets one atomic replace per file. label_files gives a
table's frames as files, one label file each, for write_files; it
refuses a table without lines.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import tempfile
import zlib
from array import array
from itertools import chain, compress
from operator import le, lt
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .bin_stats import Record, ground_distance

DONT_CARE = "DontCare"

_GT_FIELDS = 15
_DET_FIELDS = 16


class KittiIOError(Exception):
    """Base class for label and dataset I/O problems."""


class LabelError(KittiIOError):
    """A label line that breaks a rule of the module docstring: the message
    names the rule, path the file and line_no the 1-based line."""

    def __init__(self, message: str, line_no: int, path: str):
        super().__init__(message)
        self.message = message
        self.line_no = line_no
        self.path = path

    def __str__(self) -> str:
        return f"{self.path}: line {self.line_no}: {self.message}"


class DatasetError(KittiIOError):
    """Unreadable or inconsistent input files."""


# The reals of a label line, in file order: every field after the class
# name. A ground-truth table stops before "score".
COLUMNS = (
    "truncated", "occluded", "alpha", "left", "top", "right", "bottom",
    "height", "width", "length", "x", "y", "z", "rotation_y", "score",
)
_COLUMN = {name: index for index, name in enumerate(COLUMNS)}
_OCCLUSION_VALUES = frozenset((-1.0, 0.0, 1.0, 2.0, 3.0))
_TOP_BYTE = 7 if sys.byteorder == "little" else 0  # a double's sign-and-exponent byte in array("d") bytes
_READ_BYTES = 1 << 16  # bytes asked of each os.read
# The cache (see the module docstring). A new table entry layout, or a
# parser that makes other rows of a file, changes _CACHE_FORMAT, so
# that no older entry matches; array bytes are in native order.
_CACHE_FORMAT = f"adathresh label table 2 {sys.byteorder}"
_CACHE_ENTRIES = 16  # the newest entries, of both kinds, kept after each write
_CACHE_SUFFIXES = (".table", ".pairs")  # label tables, and evaluation's IoU pairs


class LabelTable(Record, eq=False):
    """The label lines of a sequence of frames, one row per line, by column.

    Frame i owns rows offsets[i] to offsets[i + 1]; files[i] is the name
    of the file it was read from (None for a frame without one), or
    <frame_id>.txt in a synthetic table. columns holds one array('d')
    per name in COLUMNS, the score only in a detection table. lines
    holds each row's line as read, without its line break; None in a
    table from load_tables or load_detections, which none writes back.
    """

    frame_ids: list[str]
    files: list[str | None]
    offsets: list[int]
    class_names: list[str]
    columns: tuple[array, ...]
    lines: list[str] | None

    def __len__(self) -> int:
        return len(self.class_names)

    def column(self, name: str) -> array:
        return self.columns[_COLUMN[name]]

    def distances(self) -> list[float]:
        """Each row's ground_distance from the ego vehicle."""
        return list(map(ground_distance, self.column("x"), self.column("z")))

    def scores(self) -> array:
        """The score column; ValueError for a ground-truth table."""
        if len(self.columns) < len(COLUMNS):
            raise ValueError("ground-truth table has no scores")
        return self.columns[-1]


def label_files(table: LabelTable, kept: Sequence[bool] | None = None) -> Iterator[tuple[str, str]]:
    """(file name, text) of each frame's file of table: the lines of the
    rows flagged in kept (all rows without kept) as held, LF-terminated.
    A frame without a file has no rows and gets none. A kept without
    exactly one flag per row, or a table without lines, is a ValueError,
    raised at the call, before anything is written.
    """
    if table.lines is None:
        raise ValueError("the table holds no lines to write (load_tables and load_detections keep none)")
    kept = [True] * len(table) if kept is None else kept
    if len(kept) != len(table):
        raise ValueError(f"kept holds {len(kept)} flags for a table of {len(table)} rows")
    return (
        (name, "\n".join([*compress(table.lines[start:stop], kept[start:stop]), ""]))
        for name, start, stop in zip(table.files, table.offsets, table.offsets[1:])
        if name is not None
    )


def write_files(out_dir: str | Path, files: Iterable[tuple[str, str | bytes]]) -> None:
    """Write each (name, text) of files into out_dir, a str as UTF-8 with
    newlines as given and bytes as they are, mode 0o600; parent
    directories are created. A name may hold subdirectories
    (gt/000000.txt), made as needed.

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
            data = memoryview(text if isinstance(text, bytes) else text.encode())
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
    gt, det = _read_tables(sorted(gt_files), [(gt_dir, gt_files, False), (det_dir, det_files, True)], False)
    return gt, det


def load_detections(gt_dir: str | Path, det_dir: str | Path) -> LabelTable:
    """load_tables' detection table, without reading ground truth.

    gt_dir is listed and no file in it is opened: the frame set and its
    DatasetErrors are load_tables' (see _listed_frames). The table holds
    every ground-truth frame, sorted by frame_id, as load_tables' does, so
    both read det_dir under one cache key. A bad detection file raises
    _read_tables' error: the first bad file in frame order. stats and fit
    read their input here.
    """
    det_dir = Path(det_dir)
    gt_files, det_files = _listed_frames(Path(gt_dir), det_dir)
    [det] = _read_tables(sorted(gt_files), [(det_dir, det_files, True)], False)
    return det


def read_label_table(directory: str | Path, role: str, expect_score: bool) -> LabelTable:
    """The table of every label file in directory, one frame per file,
    sorted by frame id. A missing directory or two files of one frame id
    is a DatasetError (see _files_by_frame); a bad file raises
    _read_tables' error for the first bad file in frame order. The table
    keeps its lines: filter reads its input here."""
    directory = Path(directory)
    files = _files_by_frame(directory, role)
    [table] = _read_tables(sorted(files), [(directory, files, expect_score)], True)
    return table


def _read_tables(
    frame_ids: list[str], trees: list[tuple[Path, dict[str, os.DirEntry], bool]], keep_lines: bool
) -> list[LabelTable]:
    """One table per (directory, frame id -> file entry, expect_score) tree,
    holding every frame of frame_ids (no rows where the tree has no file
    of the frame) and its lines when keep_lines. When a file cannot be
    read or _table_from_lines rejects a line, every file is read again and
    checked line by line in frame order, trees in the given order within
    a frame, and _check_label_file's error for the first bad file is raised;
    when it finds none, a file changed between the two reads, and the
    error is a DatasetError naming the directory."""
    tables = []
    for directory, by_frame, expect_score in trees:
        entries = [by_frame.get(frame_id) for frame_id in frame_ids]
        try:
            table = _cached_table(frame_ids, entries, expect_score, keep_lines)
        except (OSError, UnicodeDecodeError):
            break
        if table is None:
            break
        tables.append(table)
    else:
        return tables
    from .kitti_parse import _check_label_file

    for frame_id in frame_ids:
        for directory, by_frame, expect_score in trees:
            if frame_id in by_frame:
                _check_label_file(directory / by_frame[frame_id].name, expect_score)
    raise DatasetError(f"files in {trees[len(tables)][0]} changed while being read; run the command again")


def _text(data: bytes | memoryview) -> str:
    """A label file's text: its bytes as strict UTF-8 without one leading
    byte-order mark. splitlines() breaks it at a "\r\n" or "\r" as at
    the "\n" a text file makes of them."""
    text = str(data, "utf-8")
    return text[1:] if text[:1] == "\ufeff" else text


def _nonblank_lines(key: bytes, sizes: list[int]) -> tuple[list[str], list[int]]:
    """The non-blank lines of the files of sizes that end key, and their count at each file's end."""
    view, at = memoryview(key), len(key) - sum(sizes) - len(sizes)  # the NUL before the first file
    lines: list[str] = []
    ends: list[int] = []
    for size in sizes:
        data, at = view[at + 1 : at + 1 + size], at + 1 + size
        # strip() is empty exactly where split() is: a blank line has no row.
        lines += filter(str.strip, _text(data).splitlines())
        ends.append(len(lines))
    return lines, ends


def _read_bytes(path: str | Path, regular: bool = False) -> bytes:
    """A file's bytes, read through a raw descriptor (half the time of a
    file object's) until os.read returns nothing, or, for a regular file,
    until its first short read, which is its end."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_BYTES):
            chunks.append(chunk)
            if regular and len(chunk) < _READ_BYTES:
                break
    finally:
        os.close(fd)
    return b"".join(chunks)


def _checked_table(table: LabelTable) -> LabelTable | None:
    """table; None when a real is not finite or a row breaks _invariants_hold."""
    for column in table.columns:
        # A double whose sign-and-exponent byte is neither 0x7f nor 0xff
        # is finite (below 2**1009 in magnitude): scanning those bytes
        # takes a tenth of the time of math.isfinite on every value.
        top = column.tobytes()[_TOP_BYTE::8]
        if (b"\x7f" in top or b"\xff" in top) and not all(map(math.isfinite, column)):
            return None
    return table if _invariants_hold(table) else None


def _cache_root() -> str | None:
    """The cache's directory: $XDG_CACHE_HOME/adathresh, else
    $HOME/.cache/adathresh; None when neither variable is an absolute
    path (a relative XDG_CACHE_HOME is ignored, as the XDG spec asks)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        home = os.environ.get("HOME", "")
        base = os.path.join(home, ".cache") if os.path.isabs(home) else ""
    return os.path.join(base, "adathresh") if base else None


def _cached_table(
    frame_ids: list[str], entries: list[os.DirEntry | None], expect_score: bool, keep_lines: bool
) -> LabelTable | None:
    """_table_from_lines of the _nonblank_lines of each file of entries
    (none for None), from the cache when a table entry holds the files'
    bytes; a hit decodes them only to keep lines, which must then end
    each frame where its rows do. _checked_table still runs on a hit. A
    parse that succeeds stores its entry. A cache error is a miss, and a
    failed store is ignored: the result never depends on the cache."""
    raw = [b"" if e is None else _read_bytes(e.path, e.is_file(follow_symlinks=False)) for e in entries]
    files = [None if e is None else e.name for e in entries]
    sizes = list(map(len, raw))
    # Frame ids and file names hold no NUL, and the sizes fix how many
    # ids, names and files there are and where each file ends, so two
    # inputs never share a key.
    fields = [_CACHE_FORMAT, str(int(expect_score)), " ".join(map(str, sizes)), *frame_ids]
    key = b"\0".join(["\0".join([*fields, *(name or "" for name in files)]).encode("utf-8", "surrogatepass"), *raw])
    del raw  # the key holds the one copy of the bytes that stays alive
    lines, ends = _nonblank_lines(key, sizes) if keep_lines else (None, None)
    body = cache_get("table", key)
    width = (_DET_FIELDS if expect_score else _GT_FIELDS) - 1
    try:
        rows = None if body is None else _table_rows(body, width, len(frame_ids))
    except ValueError:
        rows = None
    hit = rows is not None and (ends is None or rows[0][1:] == ends)
    table = _checked_table(LabelTable(frame_ids, files, *rows, lines)) if hit else None
    if table is None:
        from .kitti_parse import _table_from_lines

        if lines is None:
            lines, ends = _nonblank_lines(key, sizes)
        table = _table_from_lines(frame_ids, files, lines, ends, expect_score, keep_lines)
        if table is not None:
            names = "\n".join(table.class_names).encode()
            cache_put("table", key, b"".join([array("q", ends).tobytes(), *(c.tobytes() for c in table.columns), names]))
    return table


def _table_rows(body: memoryview, width: int, n_frames: int) -> tuple[list[int], list[str], tuple[array, ...]] | None:
    """(offsets, class names, columns) of a table entry's body: n_frames
    native 8-byte row ends, width columns of one native double per row,
    and the class names joined by newlines. None for ends that are not one
    per frame, non-decreasing and ending at the row count, or other sizes;
    a ValueError for a body cut inside a value or names not UTF-8."""
    ends = array("q")
    ends.frombytes(body[: 8 * n_frames])
    offsets = [0, *ends]
    if len(ends) != n_frames or not all(map(le, offsets, offsets[1:])):
        return None
    n_rows, body = offsets[-1], body[8 * n_frames :]
    size = 8 * n_rows
    columns = tuple(array("d") for _ in range(width))
    for j, column in enumerate(columns):
        column.frombytes(body[j * size : (j + 1) * size])
    names = bytes(body[width * size :]).decode()
    class_names = list(map(sys.intern, names.split("\n"))) if names else []
    if len(class_names) != n_rows or len(columns[-1]) != n_rows:
        return None
    return offsets, class_names, columns


def cache_get(kind: str, key: bytes) -> memoryview | None:
    """The body of the cache entry of kind ("table" or "pairs") for key.

    An entry is the file <crc32 of key>.<kind> in _cache_root(): a line
    "<key length> <crc32 of key and body>", the key and the body. None
    without a root, without an entry, or when the entry does not hold
    exactly key or its checksum fails.
    """
    root = _cache_root()
    if root is None:
        return None
    key_crc = zlib.crc32(key)
    try:
        data = _read_bytes(os.path.join(root, f"{key_crc:08x}.{kind}"))
        head_end = data.find(b"\n") + 1
        key_size, crc = map(int, data[:head_end].split())
    except (OSError, ValueError):
        return None
    body = memoryview(data)[head_end + key_size :]
    # startswith compares in place: no copy, and not item by item as a memoryview does.
    if key_size != len(key) or not data.startswith(key, head_end) or zlib.crc32(body, key_crc) != crc:
        return None
    return body


def cache_put(kind: str, key: bytes, body: bytes) -> None:
    """Store body as the entry of kind for key (see cache_get), through
    write_files, then delete all but the _CACHE_ENTRIES newest entries of
    every kind (write_files' staging directories are not entries). A
    missing root and its missing parents are made with mode 0o700, as
    the XDG base directory spec asks. An OSError is ignored."""
    root = _cache_root()
    if root is None:
        return
    key_crc = zlib.crc32(key)
    head = b"%d %d\n" % (len(key), zlib.crc32(body, key_crc))
    try:
        _private_dirs(root)
        write_files(root, [(f"{key_crc:08x}.{kind}", b"".join([head, key, body]))])
        with os.scandir(root) as listing:
            entries = sorted(
                (entry.stat().st_mtime_ns, entry.name)
                for entry in listing
                if entry.name.endswith(_CACHE_SUFFIXES) and entry.is_file()
            )
        for _, old in entries[:-_CACHE_ENTRIES]:
            os.unlink(os.path.join(root, old))
    except OSError:
        pass


def _private_dirs(path: str) -> None:
    """Make directory path and each missing parent of it with mode 0o700
    (os.makedirs gives its mode to the last level only)."""
    if not os.path.isdir(path):
        _private_dirs(os.path.dirname(path))  # "/" is a directory, which ends the walk
        try:
            os.mkdir(path, 0o700)
        except FileExistsError:
            pass


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


def _files_by_frame(directory: Path, role: str) -> dict[str, os.DirEntry]:
    """Frame id -> os.DirEntry of each label file in directory, from one
    listing (whose d_type answers entry.is_file without a stat).

    The names are those Path.glob("*.txt") yields: case-sensitive, hidden
    names included. A frame id is the name's stem, and ".txt" is its own
    stem. A missing directory is a DatasetError naming role, and two names
    of one frame id (".txt" and ".txt.txt") a DatasetError naming both.
    """
    try:
        with os.scandir(directory) as entries:
            listed = [entry for entry in entries if entry.name.endswith(".txt")]
    except (FileNotFoundError, NotADirectoryError):
        raise DatasetError(f"{role} directory not found: {directory}") from None
    files: dict[str, os.DirEntry] = {}
    for entry in listed:
        frame_id = entry.name[:-4] or entry.name
        if frame_id in files:
            a, b = sorted((files[frame_id].name, entry.name))
            raise DatasetError(f"{role} files {directory / a} and {directory / b} have the same frame id {frame_id!r}")
        files[frame_id] = entry
    return files
