"""kitti_io's label-line parser, and the line checker that raises one
LabelError for a bad file's first bad line (kitti_io's docstring gives
the rules). Loaded on a table cache miss, to diagnose a bad file, or by
synthetic: a command over a warm cache compiles none of it."""

from __future__ import annotations

import math
import sys
from array import array
from itertools import chain
from pathlib import Path

from .kitti_io import (
    _DET_FIELDS, _GT_FIELDS, _OCCLUSION_VALUES, DONT_CARE, DatasetError, LabelError, LabelTable, _checked_table,
    _read_bytes, _text,
)

_CHUNK_LINES = 256  # lines split at once by the bulk reader


def _table_from_lines(
    frame_ids: list[str], files: list[str | None], lines: list[str], ends: list[int], expect_score: bool, keep_lines: bool
) -> LabelTable | None:
    """The table of label lines (kept when keep_lines), frame i holding
    those after i - 1's up to ends[i]; None when one breaks _check_line.

    The rules run on all lines at once: the field count of every line,
    then one float conversion, then _checked_table's rules.
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
    return _checked_table(LabelTable(frame_ids, files, [0, *ends], class_names, columns, lines if keep_lines else None))


def _check_label_file(path: Path, expect_score: bool) -> None:
    """Raise a LabelError for the first line of a label file that breaks
    _check_line, with its message, the file and the 1-based line number;
    blank lines are skipped. An unreadable file is a DatasetError naming
    it. Builds nothing."""
    try:
        text = _text(_read_bytes(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    n_fields = _DET_FIELDS if expect_score else _GT_FIELDS
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        message = _check_line(tokens, n_fields) if tokens else None
        if message is not None:
            raise LabelError(message, line_no, str(path))


def _check_line(tokens: list[str], n_fields: int) -> str | None:
    """The message of the first rule of the module docstring that a line's
    tokens break; None when they break none."""
    if len(tokens) != n_fields:
        if len(tokens) not in (_GT_FIELDS, _DET_FIELDS):
            return f"expected 15 or 16 fields, got {len(tokens)}"
        wanted = "16 fields (with score)" if n_fields == _DET_FIELDS else "15 fields (no score)"
        return f"expected {wanted}, got {len(tokens)}"
    values = []
    for token in tokens[1:]:
        try:
            values.append(float(token))
        except ValueError:
            return f"non-numeric field {token!r}"
        if not math.isfinite(values[-1]):
            return f"non-finite field {token!r}"
    if values[1] not in _OCCLUSION_VALUES:
        return f"occluded must be one of -1,0,1,2,3, got {tokens[2]!r}"
    dimensions = tuple(values[7:10])
    if tokens[0] != DONT_CARE and min(dimensions) <= 0.0:
        return f"non-positive dimensions {dimensions} for class {tokens[0]!r}"
    if values[5] < values[3] or values[6] < values[4]:
        return f"inverted 2D bbox {tuple(values[3:7])}"
    return None
