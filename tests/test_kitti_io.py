"""Label reading, writing, and dataset loading."""

import math
import os
import stat
import sys
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from adathresh import kitti_io, kitti_parse
from adathresh.cli import main
from adathresh.evaluation import _box_columns
from adathresh.kitti_io import (
    DONT_CARE,
    DatasetError,
    LabelError,
    LabelFormatError,
    LabelParseError,
    LabelTable,
    load_detections,
    load_tables,
    read_label_table,
    write_files,
)
from adathresh.kitti_parse import _check_label_file
from helpers import Frame, Record, constructed, detections, label_text, read_text, tables

GT_LINE = (
    "Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59"
)
DET_LINE = GT_LINE + " 0.92"
DONTCARE_LINE = (
    "DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10"
)


class TestParse:
    def test_ground_truth_line(self, tmp_path):
        table = read_text(tmp_path, GT_LINE, expect_score=False)
        assert len(table) == 1
        assert table.class_names == ["Car"]
        assert table.column("z")[0] == 46.70
        assert len(table.columns) == 14  # no score column

    def test_detection_line_with_score(self, tmp_path):
        assert list(read_text(tmp_path, DET_LINE, expect_score=True).scores()) == [0.92]

    def test_empty_string(self, tmp_path):
        assert len(read_text(tmp_path, "", expect_score=False)) == 0

    def test_blank_lines_skipped(self, tmp_path):
        text = f"\n{GT_LINE}\n\n   \n{GT_LINE}\n"
        assert len(read_text(tmp_path, text, expect_score=False)) == 2

    def test_crlf_accepted(self, tmp_path):
        text = f"{GT_LINE}\r\n{GT_LINE}\r\n"
        assert read_text(tmp_path, text, expect_score=False).lines == [GT_LINE, GT_LINE]

    def test_tab_separated_fields(self, tmp_path):
        assert len(read_text(tmp_path, GT_LINE.replace(" ", "\t"), expect_score=False)) == 1

    def test_order_preserved(self, tmp_path):
        lines = [GT_LINE, DONTCARE_LINE, GT_LINE.replace("Car", "Van")]
        table = read_text(tmp_path, "\n".join(lines), expect_score=False)
        assert table.class_names == ["Car", "DontCare", "Van"]

    @pytest.mark.parametrize("n_fields", [14, 17])
    def test_wrong_field_count_rejected(self, tmp_path, n_fields):
        tokens = DET_LINE.split()[:n_fields]
        while len(tokens) < n_fields:
            tokens.append("0.0")
        with pytest.raises(LabelParseError) as exc:
            read_text(tmp_path, " ".join(tokens), expect_score=False)
        assert exc.value.line_no == 1

    def test_non_numeric_field_rejected(self, tmp_path):
        bad = GT_LINE.replace("46.70", "oops")
        with pytest.raises(LabelParseError):
            read_text(tmp_path, bad, expect_score=False)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_field_rejected(self, tmp_path, token):
        bad = GT_LINE.replace("46.70", token)
        with pytest.raises(LabelParseError):
            read_text(tmp_path, bad, expect_score=False)

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ("nan", "oops", "non-finite field 'nan'"),
            ("oops", "nan", "non-numeric field 'oops'"),
            ("-inf", "1e999", "non-finite field '-inf'"),
        ],
    )
    def test_message_names_the_first_bad_token(self, tmp_path, first, second, message):
        # The message must name the first bad token in line order,
        # whichever kind it is.
        tokens = GT_LINE.split()
        tokens[3], tokens[12] = first, second
        text = f"{GT_LINE}\n\n{' '.join(tokens)}\n"
        with pytest.raises(LabelParseError) as exc:
            read_text(tmp_path, text, expect_score=False)
        assert exc.value.message == message
        assert str(exc.value) == f"{tmp_path / '000000.txt'}: line 3: {message}"

    def test_fractional_occlusion_message(self, tmp_path):
        tokens = GT_LINE.split()
        tokens[2] = "0.5"
        with pytest.raises(LabelFormatError) as exc:
            read_text(tmp_path, f"{GT_LINE}\n{' '.join(tokens)}\n", expect_score=False)
        assert str(exc.value) == f"{tmp_path / '000000.txt'}: line 2: occluded must be one of -1,0,1,2,3, got '0.5'"

    def test_score_expected_but_missing(self, tmp_path):
        with pytest.raises(LabelFormatError):
            read_text(tmp_path, GT_LINE, expect_score=True)

    def test_score_present_but_unexpected(self, tmp_path):
        with pytest.raises(LabelFormatError):
            read_text(tmp_path, DET_LINE, expect_score=False)

    def test_error_carries_line_number(self, tmp_path):
        text = f"{GT_LINE}\n{GT_LINE} 0.5 0.5\n"
        with pytest.raises(LabelParseError) as exc:
            read_text(tmp_path, text, expect_score=False)
        assert exc.value.line_no == 2
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("occluded", ["4", "-2", "0.5"])
    def test_bad_occlusion_rejected(self, tmp_path, occluded):
        bad = GT_LINE.split()
        bad[2] = occluded
        with pytest.raises(LabelFormatError):
            read_text(tmp_path, " ".join(bad), expect_score=False)

    def test_unknown_occlusion_minus_one_allowed(self, tmp_path):
        line = GT_LINE.split()
        line[2] = "-1"
        assert list(read_text(tmp_path, " ".join(line), expect_score=False).column("occluded")) == [-1.0]

    def test_dontcare_with_negative_dims_parses(self, tmp_path):
        table = read_text(tmp_path, DONTCARE_LINE, expect_score=False)
        assert table.class_names == [DONT_CARE]
        assert [table.column(name)[0] for name in ("height", "width", "length")] == [-1.0, -1.0, -1.0]

    def test_non_positive_dims_rejected_outside_dontcare(self, tmp_path):
        bad = GT_LINE.replace(" 1.65 1.67 3.64 ", " 1.65 0.00 3.64 ")
        with pytest.raises(LabelFormatError):
            read_text(tmp_path, bad, expect_score=False)

    def test_inverted_bbox_rejected(self, tmp_path):
        bad = GT_LINE.replace("587.01 173.33 614.12 200.12", "614.12 173.33 587.01 200.12")
        with pytest.raises(LabelFormatError):
            read_text(tmp_path, bad, expect_score=False)


class TestRecord:
    """A row's distance and box, as the commands read them from a table."""

    def test_ego_distance(self, tmp_path):
        table = read_text(tmp_path, GT_LINE, expect_score=False)
        assert table.distances() == [pytest.approx(math.hypot(-0.65, 46.70))]

    def test_to_box3d(self, tmp_path):
        table = read_text(tmp_path, GT_LINE, expect_score=False)
        assert _box_columns(table, [0]) == [[-0.65], [1.71], [46.70], [1.65], [1.67], [3.64], [-1.59]]


def real_token(lo: float, hi: float):
    """Text of a real in [lo, hi], spelled as files spell reals."""
    return st.one_of(
        st.floats(lo, hi).map(repr),
        st.floats(lo, hi).map("{:.6f}".format),
        st.integers(math.ceil(lo), math.floor(hi)).map(str),
    )


@st.composite
def label_files(draw, with_score: bool):
    """(file text, its non-blank lines) with mixed separators, blank lines and CRLF."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        class_name = draw(st.sampled_from(["Car", "Pedestrian", "DontCare"]))
        dims = real_token(-1.0, -1.0) if class_name == "DontCare" else real_token(0.01, 10.0)
        left, right = sorted((draw(real_token(0.0, 1200.0)), draw(real_token(0.0, 1200.0))), key=float)
        top, bottom = sorted((draw(real_token(0.0, 400.0)), draw(real_token(0.0, 400.0))), key=float)
        tokens = [
            class_name,
            draw(real_token(0.0, 1.0)),
            draw(st.sampled_from(["-1", "0", "1", "2", "3", "2.0", "-0"])),
            draw(real_token(-4.0, 4.0)),
            left, top, right, bottom,
            *(draw(dims) for _ in range(3)),
            *(draw(real_token(-100.0, 100.0)) for _ in range(3)),
            draw(real_token(-4.0, 4.0)),
        ]
        if with_score:
            tokens.append(draw(real_token(0.0, 1.0)))
        line = "".join(tok + draw(st.sampled_from([" ", "\t", "  "])) for tok in tokens)
        lines.append(draw(st.sampled_from(["", " "])) + line)
    text = ""
    for line in lines:
        text += draw(st.sampled_from(["", "\n", " \n"])) + line + draw(st.sampled_from(["\n", "\r\n"]))
    return text, lines


class TestParsedRecords:
    @given(st.booleans().flatmap(lambda with_score: st.tuples(st.just(with_score), label_files(with_score))))
    def test_parsed_records_equal_constructed_ones(self, case):
        with_score, (text, lines) = case
        with tempfile.TemporaryDirectory() as tmp:
            table = read_text(Path(tmp), text, expect_score=with_score)
        records = [constructed(line) for line in lines]
        frame = Frame("000000", (), records) if with_score else Frame("000000", records)
        assert same_rows(table, tables([frame])[with_score])
        assert table.lines == lines
        assert all(type(column) is array and column.typecode == "d" for column in table.columns)


record_values = st.floats(-100.0, 100.0)


@st.composite
def records(draw, with_score: bool):
    left = draw(st.floats(0.0, 600.0))
    top = draw(st.floats(0.0, 200.0))
    return Record(
        class_name=draw(st.sampled_from(["Car", "Van", "Pedestrian", "Cyclist"])),
        truncated=draw(st.floats(0.0, 1.0)),
        occluded=draw(st.sampled_from([-1, 0, 1, 2, 3])),
        alpha=draw(st.floats(-math.pi, math.pi)),
        bbox_2d=(left, top, left + draw(st.floats(0.0, 400.0)), top + draw(st.floats(0.0, 150.0))),
        dimensions=(draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 10.0))),
        location=(draw(record_values), draw(st.floats(-3.0, 3.0)), draw(st.floats(0.0, 100.0))),
        rotation_y=draw(st.floats(-math.pi, math.pi)),
        score=draw(st.floats(0.0, 1.0)) if with_score else None,
    )


def written(directory: Path, records) -> str:
    """The text filter writes for one frame of detection records: write_files
    of the table's label_files."""
    write_files(directory, kitti_io.label_files(detections(records)))
    return (directory / "000000.txt").read_bytes().decode("utf-8")


def rewritten(records) -> str:
    """written(records), in a directory of its own."""
    with tempfile.TemporaryDirectory() as tmp:
        return written(Path(tmp), records)


def same_rows(a: LabelTable, b: LabelTable) -> bool:
    """Whether two tables hold the same frames, class names and values."""
    return (a.frame_ids, a.offsets, a.class_names, a.columns) == (b.frame_ids, b.offsets, b.class_names, b.columns)


def round_trip(text: str) -> tuple[LabelTable, str]:
    """The detection table read from a file holding text, and the text
    filter writes for that table."""
    with tempfile.TemporaryDirectory() as tmp:
        table = read_text(Path(tmp) / "in", text, expect_score=True)
        write_files(Path(tmp) / "out", kitti_io.label_files(table))
        return table, (Path(tmp) / "out" / "000000.txt").read_bytes().decode("utf-8")


class TestSerialize:
    def test_empty_list(self, tmp_path):
        assert written(tmp_path, []) == ""

    def test_field_counts(self, tmp_path):
        gt, det = tables([Frame("000000", [constructed(GT_LINE)], [constructed(DET_LINE)])])
        write_files(tmp_path / "gt", kitti_io.label_files(gt))
        write_files(tmp_path / "det", kitti_io.label_files(det))
        assert len((tmp_path / "gt" / "000000.txt").read_text().split()) == 15
        assert len((tmp_path / "det" / "000000.txt").read_text().split()) == 16

    def test_lf_line_endings(self, tmp_path):
        table = read_text(tmp_path / "in", f"{GT_LINE}\r\n{GT_LINE}\r\n", expect_score=False)
        write_files(tmp_path / "out", kitti_io.label_files(table))
        text = (tmp_path / "out" / "000000.txt").read_bytes().decode("utf-8")
        assert "\r" not in text
        assert text.endswith("\n")

    @given(st.lists(records(with_score=True), max_size=8))
    def test_round_trip_stabilizes_after_one_pass(self, recs):
        # Reading written lines and writing them again gives the same
        # rows and the same text.
        once = rewritten(recs)
        table, twice = round_trip(once)
        assert twice == once
        assert same_rows(table, detections(recs))

    @given(st.lists(records(with_score=True), max_size=8))
    def test_round_trip_values_within_format_precision(self, recs):
        # Each real is written with repr, so it reads back exactly.
        table, _ = round_trip(rewritten(recs))
        assert [constructed(line) for line in table.lines] == recs
        assert list(table.scores()) == [r.score for r in recs]

    def test_order_preserved(self, tmp_path):
        table = read_text(tmp_path / "in", f"{GT_LINE}\n{DONTCARE_LINE}", expect_score=False)
        write_files(tmp_path / "out", kitti_io.label_files(table))
        lines = (tmp_path / "out" / "000000.txt").read_text().splitlines()
        assert lines[0].startswith("Car ")
        assert lines[1].startswith("DontCare ")


class TestDataset:
    @staticmethod
    def _write(tmp_path, name, text):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def test_matching_pairs(self, tmp_path):
        self._write(tmp_path, "gt/000000.txt", GT_LINE + "\n")
        self._write(tmp_path, "det/000000.txt", DET_LINE + "\n")
        gt, det = load_tables(tmp_path / "gt", tmp_path / "det")
        assert gt.frame_ids == det.frame_ids == ["000000"]
        assert len(gt) == 1
        assert len(det) == 1

    def test_gt_without_det_gets_empty_detections(self, tmp_path):
        self._write(tmp_path, "gt/000000.txt", GT_LINE + "\n")
        (tmp_path / "det").mkdir()
        _, det = load_tables(tmp_path / "gt", tmp_path / "det")
        assert (det.frame_ids, det.files, det.offsets) == (["000000"], [None], [0, 0])

    def test_orphan_detection_is_error_naming_frame(self, tmp_path):
        (tmp_path / "gt").mkdir()
        self._write(tmp_path, "det/000042.txt", DET_LINE + "\n")
        for load in (load_tables, load_detections):
            with pytest.raises(DatasetError, match="detection files without ground-truth counterparts: 000042"):
                load(tmp_path / "gt", tmp_path / "det")

    def test_missing_directories(self, tmp_path):
        (tmp_path / "gt").mkdir()
        for load in (load_tables, load_detections):
            with pytest.raises(DatasetError, match="ground-truth directory not found"):
                load(tmp_path / "nope", tmp_path / "nope")
            with pytest.raises(DatasetError, match="detection directory not found"):
                load(tmp_path / "gt", tmp_path / "nope")

    def test_sorted_by_frame_id(self, tmp_path):
        for frame in ("000002", "000000", "000001"):
            self._write(tmp_path, f"gt/{frame}.txt", GT_LINE + "\n")
            self._write(tmp_path, f"det/{frame}.txt", DET_LINE + "\n")
        gt, det = load_tables(tmp_path / "gt", tmp_path / "det")
        assert gt.frame_ids == det.frame_ids == ["000000", "000001", "000002"]

    def test_frame_ids_are_the_stems_glob_lists(self, tmp_path):
        for name in ("a.txt", ".b.txt", "c.TXT", "d.txt.tmp", ".txt"):
            self._write(tmp_path, f"gt/{name}", GT_LINE + "\n")
        (tmp_path / "det").mkdir()
        gt, _ = load_tables(tmp_path / "gt", tmp_path / "det")
        ids = gt.frame_ids
        assert ids == sorted(p.stem for p in (tmp_path / "gt").glob("*.txt"))
        assert ids == [".b", ".txt", "a"]
        assert same_rows(gt, tables([Frame(i, [constructed(GT_LINE)]) for i in ids])[0])

    def test_two_files_of_one_frame_id_are_a_dataset_error_naming_both(self, tmp_path):
        # ".txt" is its own stem, and ".txt.txt" has the stem ".txt".
        self._write(tmp_path, "gt/.txt", GT_LINE + "\n")
        for name in (".txt", ".txt.txt"):
            self._write(tmp_path, f"det/{name}", DET_LINE + "\n")

        def raised(read, sub):
            with pytest.raises(DatasetError) as exc:
                read()
            both = f"files {tmp_path / sub / '.txt'} and {tmp_path / sub / '.txt.txt'}"
            assert both + " have the same frame id '.txt'" in str(exc.value)

        raised(lambda: load_tables(tmp_path / "gt", tmp_path / "det"), "det")
        raised(lambda: load_detections(tmp_path / "gt", tmp_path / "det"), "det")
        raised(lambda: read_label_table(tmp_path / "det", "detection", expect_score=True), "det")
        self._write(tmp_path, "gt/.txt.txt", GT_LINE + "\n")
        raised(lambda: load_tables(tmp_path / "gt", tmp_path / "det"), "gt")
        raised(lambda: load_detections(tmp_path / "gt", tmp_path / "det"), "gt")
        raised(lambda: read_label_table(tmp_path / "gt", "ground-truth", expect_score=False), "gt")

    def test_a_byte_order_mark_is_not_part_of_the_first_class_name(self, tmp_path):
        for name, line in (("gt/000000.txt", GT_LINE), ("det/000000.txt", DET_LINE)):
            self._write(tmp_path, name, "\ufeff" + line + "\n")
        gt, det = load_tables(tmp_path / "gt", tmp_path / "det")
        assert (gt.class_names, det.class_names) == (["Car"], ["Car"])
        for sub, line, expect_score in (("gt", GT_LINE, False), ("det", DET_LINE, True)):
            table = read_label_table(tmp_path / sub, sub, expect_score)
            assert (table.class_names, table.lines) == (["Car"], [line])
        # The lines are written back without the mark.
        write_files(tmp_path / "out", kitti_io.label_files(table))
        assert (tmp_path / "out" / "000000.txt").read_bytes() == (DET_LINE + "\n").encode()

    def test_the_line_checker_reads_a_byte_order_mark_as_the_bulk_reader_does(self, tmp_path):
        # A mark set off by a space would be a 16th field if it were not dropped.
        self._write(tmp_path, "gt/000000.txt", f"\ufeff {GT_LINE}\nCar 1 2\n")
        (tmp_path / "det").mkdir()
        with pytest.raises(LabelParseError) as exc:
            load_tables(tmp_path / "gt", tmp_path / "det")
        assert (exc.value.line_no, exc.value.message) == (2, "expected 15 or 16 fields, got 3")

    def test_parse_error_names_file(self, tmp_path):
        self._write(tmp_path, "gt/000000.txt", "Car 1 2\n")
        (tmp_path / "det").mkdir()
        with pytest.raises(LabelParseError) as exc:
            load_tables(tmp_path / "gt", tmp_path / "det")
        assert "000000.txt" in str(exc.value)

    def test_a_listed_regular_file_ends_at_its_first_short_read(self, tmp_path, monkeypatch):
        """One os.read for a regular file shorter than a read, two for one
        longer; a symlink is read until os.read returns nothing, as every
        unlisted path (a cache entry, a JSON input) is."""
        long_text = (DET_LINE + "\n") * (kitti_io._READ_BYTES // len(DET_LINE) + 1)
        assert kitti_io._READ_BYTES < len(long_text) < 2 * kitti_io._READ_BYTES
        self._write(tmp_path, "det/a.txt", DET_LINE + "\n")
        self._write(tmp_path, "det/b.txt", long_text)
        self._write(tmp_path, "elsewhere.txt", DET_LINE + "\n")
        (tmp_path / "det" / "c.txt").symlink_to(tmp_path / "elsewhere.txt")
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.delenv("HOME", raising=False)  # no cache root: no entry is read
        reads = []
        read = os.read
        monkeypatch.setattr(os, "read", lambda fd, n: reads.append(fd) or read(fd, n))
        table = read_label_table(tmp_path / "det", "detection", expect_score=True)
        assert table.offsets == [0, 1, 1 + long_text.count("\n"), 2 + long_text.count("\n")]
        assert len(reads) == 1 + 2 + 2
        reads.clear()
        assert kitti_io._read_bytes(tmp_path / "det" / "a.txt") == (DET_LINE + "\n").encode()
        assert len(reads) == 2


class TestWriteLabelFile:
    """label_files: one label file per frame of a table, through write_files."""

    def test_write_files_writes_each_text_as_utf8_with_its_newlines_as_given(self, tmp_path):
        # The reports: CSV ends its rows with CRLF, markdown may hold non-ASCII.
        files = {"a.csv": "x,y\r\n1,2\r\n", "b.md": "σ ≥ 0\n", "c.json": "{}"}
        out = tmp_path / "new" / "out"
        write_files(out, iter(files.items()))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {name: text.encode() for name, text in files.items()}
        assert {stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()} == {0o600}
        assert [p.name for p in (tmp_path / "new").iterdir()] == ["out"]

    def test_names_with_a_subdirectory_are_staged_in_one_tree(self, tmp_path):
        files = {"gt/a.txt": "new gt a\n", "det/a.txt": "new det a\n", "manifest.json": "{}\n"}
        write_files(tmp_path / "new", files.items())
        existing = tmp_path / "existing"
        (existing / "gt").mkdir(parents=True)
        (existing / "gt" / "a.txt").write_text("old gt a\n")
        (existing / "gt" / "b.txt").write_text("old gt b\n")
        (existing / "z.txt").write_text("old z\n")
        write_files(existing, files.items())

        def tree(root):
            return {p.relative_to(root).as_posix(): p.read_text() for p in root.rglob("*") if p.is_file()}

        assert tree(tmp_path / "new") == files
        assert tree(existing) == {**files, "gt/b.txt": "old gt b\n", "z.txt": "old z\n"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["existing", "new"]
        assert not list(tmp_path.rglob("*.tmp"))

    def test_writes_parseable_file(self, tmp_path):
        records = [constructed(DET_LINE)]
        written(tmp_path / "out", records)
        assert same_rows(read_label_table(tmp_path / "out", "detection", expect_score=True), detections(records))

    def test_no_temp_files_left_behind(self, tmp_path):
        written(tmp_path, [constructed(DET_LINE)])
        leftovers = [p for p in tmp_path.iterdir() if p.name != "000000.txt"]
        assert leftovers == []

    def test_overwrites_atomically(self, tmp_path):
        written(tmp_path, [constructed(DET_LINE)])
        assert written(tmp_path, []) == ""

    def test_writes_the_flagged_lines_of_every_frame(self, tmp_path):
        det = constructed(DET_LINE)
        _, table = tables([Frame("a", (), [det, det]), Frame("b"), Frame("c", (), [det])])
        write_files(tmp_path / "all", kitti_io.label_files(table))
        write_files(tmp_path / "kept", kitti_io.label_files(table, [False, True, False]))
        assert {p.name: p.read_text() for p in (tmp_path / "all").iterdir()} == {
            "a.txt": label_text([det, det]), "b.txt": "", "c.txt": label_text([det])
        }
        assert {p.name: p.read_text() for p in (tmp_path / "kept").iterdir()} == {
            "a.txt": label_text([det]), "b.txt": "", "c.txt": ""
        }
        write_files(tmp_path / "none", kitti_io.label_files(tables([])[0]))
        assert (tmp_path / "none").is_dir() and not any((tmp_path / "none").iterdir())

    def test_frames_without_a_file_get_none(self, tmp_path):
        _write_tree(tmp_path, {"gt/a.txt": GT_LINE, "gt/b.txt": GT_LINE, "det/b.txt": DET_LINE})
        _, det = load_tables(tmp_path / "gt", tmp_path / "det")
        assert det.files == [None, "b.txt"]
        # The same frames with their lines, as read_label_table keeps them.
        read = read_label_table(tmp_path / "det", "detection", expect_score=True)
        table = LabelTable(det.frame_ids, det.files, det.offsets, det.class_names, det.columns, read.lines)
        write_files(tmp_path / "out", kitti_io.label_files(table))
        assert {p.name: p.read_text() for p in (tmp_path / "out").iterdir()} == {"b.txt": DET_LINE + "\n"}

    @staticmethod
    def three_frames():
        det = constructed(DET_LINE)
        return tables([Frame("a", (), [det]), Frame("b", (), [det]), Frame("c", (), [det])])[1]

    @staticmethod
    def fail_at(monkeypatch, k):
        """Make write_files's write of file k (from 0) raise OSError: the
        k-th os.open that creates a file."""
        calls = []
        real_open = os.open

        def failing_open(path, flags, *args, **kwargs):
            if flags & os.O_CREAT:
                calls.append(path)
                if len(calls) == k + 1:
                    raise OSError("disk full")
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(kitti_io.os, "open", failing_open)

    @pytest.mark.parametrize("k", [0, 2])
    def test_a_failed_write_leaves_no_new_tree_and_no_staging(self, tmp_path, monkeypatch, k):
        self.fail_at(monkeypatch, k)
        with pytest.raises(OSError, match="disk full"):
            write_files(tmp_path / "out", kitti_io.label_files(self.three_frames()))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("k", [0, 2])
    def test_a_failed_write_leaves_an_existing_tree_as_it_was(self, tmp_path, monkeypatch, k):
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.txt").write_text("old a\n")
        (out / "z.txt").write_text("old z\n")
        self.fail_at(monkeypatch, k)
        with pytest.raises(OSError, match="disk full"):
            write_files(out, kitti_io.label_files(self.three_frames()))
        assert {p.name: p.read_text() for p in out.iterdir()} == {"a.txt": "old a\n", "z.txt": "old z\n"}
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("n_flags", [0, 2, 4])
    def test_a_kept_of_another_length_writes_nothing(self, tmp_path, n_flags):
        # Each frame's slice of a short kept list would be cut silently.
        with pytest.raises(ValueError, match=f"kept holds {n_flags} flags for a table of 3 rows"):
            write_files(tmp_path / "new" / "out", kitti_io.label_files(self.three_frames(), [True] * n_flags))
        assert list(tmp_path.iterdir()) == []

    def test_a_kept_of_another_length_leaves_an_existing_tree_as_it_was(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.txt").write_text("old a\n")
        with pytest.raises(ValueError):
            write_files(out, kitti_io.label_files(self.three_frames(), [True]))
        assert [(p.name, p.read_text()) for p in out.iterdir()] == [("a.txt", "old a\n")]
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("umask", [0o022, 0o002])
    def test_a_new_tree_has_a_plain_mkdirs_mode_and_0600_files(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            (tmp_path / "plain").mkdir()
            write_files(tmp_path / "new" / "out", kitti_io.label_files(self.three_frames()))
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
        assert mode == 0o777 & ~umask
        for directory in (tmp_path / "new", tmp_path / "new" / "out"):
            assert stat.S_IMODE(directory.stat().st_mode) == mode
        files = list((tmp_path / "new" / "out").iterdir())
        assert len(files) == 3
        assert {stat.S_IMODE(p.stat().st_mode) for p in files} == {0o600}
        assert [p.name for p in (tmp_path / "new").iterdir()] == ["out"]

    def test_short_writes_are_continued_until_every_byte_is_written(self, tmp_path, monkeypatch):
        write = os.write
        sizes = []

        def short(fd, data):
            sizes.append(len(data))
            return write(fd, bytes(data[:7]))

        monkeypatch.setattr(kitti_io.os, "write", short)
        table = tables([Frame("a", (), [constructed(DET_LINE)] * 2), Frame("b")])[1]
        write_files(tmp_path / "out", kitti_io.label_files(table))
        text = label_text([constructed(DET_LINE)] * 2)
        assert (tmp_path / "out" / "a.txt").read_bytes() == text.encode()
        assert (tmp_path / "out" / "b.txt").read_bytes() == b""
        assert sizes == list(range(len(text), 0, -7))

    def test_a_directory_made_during_the_write_gets_the_files_one_by_one(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        rename = os.rename

        def made_meanwhile(src, dst):
            out.mkdir()
            (out / "z.txt").write_text("other\n")
            rename(src, dst)

        monkeypatch.setattr(kitti_io.os, "rename", made_meanwhile)
        write_files(out, kitti_io.label_files(self.three_frames()))
        assert sorted(p.name for p in out.iterdir()) == ["a.txt", "b.txt", "c.txt", "z.txt"]
        assert list(tmp_path.iterdir()) == [out]

    def test_a_file_in_place_of_out_dir_is_an_error_naming_it(self, tmp_path):
        (tmp_path / "out").write_text("a file\n")
        with pytest.raises(FileExistsError, match="out"):
            write_files(tmp_path / "out", kitti_io.label_files(self.three_frames()))
        assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [("out", "a file\n")]

    def test_an_existing_empty_directory_is_written_in_place(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir(mode=0o750)
        before = out.stat()
        write_files(out, kitti_io.label_files(self.three_frames()))
        after = out.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, stat.S_IMODE(before.st_mode))
        assert sorted(p.name for p in out.iterdir()) == ["a.txt", "b.txt", "c.txt"]
        assert {stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()} == {0o600}


@st.composite
def label_dirs(draw):
    """{relative path: file text} for a gt/ and a det/ directory: frame
    names hidden or not, some frames without detections, files drawn by
    label_files."""
    stems = draw(st.lists(st.sampled_from(["000000", "000010", ".a", "a-b", "a"]), unique=True, max_size=3))
    files = {}
    for stem in stems:
        files[f"gt/{stem}.txt"] = draw(label_files(with_score=False))[0]
        if draw(st.booleans()):
            files[f"det/{stem}.txt"] = draw(label_files(with_score=True))[0]
    return files


def _write_tree(root: Path, files: dict) -> None:
    for sub in ("gt", "det"):
        (root / sub).mkdir()
    for name, text in files.items():
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        (root / name).write_bytes(data)


class TestLabelTable:
    """The bulk reader against a token-by-token parse, file by file."""

    @given(label_dirs())
    def test_load_tables_equals_per_file_parse(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _write_tree(root, files)
            gt_table, det_table = load_tables(root / "gt", root / "det")
            det_dir_table = read_label_table(root / "det", "detection", expect_score=True)
            det_only = load_detections(root / "gt", root / "det")
        stems = sorted(name[3:-4] for name in files if name.startswith("gt/"))
        expected = [
            Frame(
                stem,
                [constructed(line) for line in files[f"gt/{stem}.txt"].splitlines() if line.split()],
                [constructed(line) for line in files.get(f"det/{stem}.txt", "").splitlines() if line.split()],
            )
            for stem in stems
        ]
        expected_gt, expected_det = tables(expected)
        assert same_rows(gt_table, expected_gt) and same_rows(det_table, expected_det)
        assert gt_table.frame_ids == det_table.frame_ids == stems
        # Each row of read_label_table keeps its line as read, without the
        # line break; load_tables and load_detections keep none.
        det_texts = [files[f"det/{stem}.txt"] for stem in stems if f"det/{stem}.txt" in files]
        assert det_dir_table.lines == [
            line for text in det_texts for line in text.splitlines() if line.split()
        ]
        assert gt_table.lines is det_table.lines is det_only.lines is None
        # load_detections: load_tables' detection table, each row that of
        # read_label_table's line.
        assert same_rows(det_only, det_table)
        lined = tables([Frame("0", [], list(map(constructed, det_dir_table.lines)))])[1]
        assert (det_only.class_names, det_only.columns) == (lined.class_names, lined.columns)

    def test_fixture_tables_round_trip_through_files(self, tmp_path):
        frame = Frame("000000", [constructed(GT_LINE), constructed(DONTCARE_LINE)], [constructed(DET_LINE)])
        gt, det = tables([frame])
        assert (gt.files, det.lines) == (["000000.txt"], label_text(frame.detections).splitlines())
        write_files(tmp_path / "gt", kitti_io.label_files(gt))
        write_files(tmp_path / "det", kitti_io.label_files(det))
        read_gt, read_det = load_tables(tmp_path / "gt", tmp_path / "det")
        assert same_rows(read_gt, gt) and same_rows(read_det, det)
        read = [read_label_table(tmp_path / sub, sub, expect_score) for sub, expect_score in (("gt", False), ("det", True))]
        records = [list(map(constructed, table.lines)) for table in read]
        assert records == [frame.ground_truth, frame.detections]

    def test_field_counts_are_checked_per_line(self, tmp_path):
        # 17 + 15 fields make two 16-field lines' worth of tokens.
        tokens = DET_LINE.split()
        _write_tree(tmp_path, {"gt/000000.txt": GT_LINE, "det/000000.txt": " ".join(tokens + ["0.5"]) + "\n" + GT_LINE})
        for read in (
            lambda: load_tables(tmp_path / "gt", tmp_path / "det"),
            lambda: read_label_table(tmp_path / "det", "detection", expect_score=True),
        ):
            with pytest.raises(LabelParseError) as exc:
                read()
            assert exc.value.line_no == 1
            assert exc.value.message == "expected 15 or 16 fields, got 17"
            assert exc.value.path == str(tmp_path / "det" / "000000.txt")

    @pytest.mark.parametrize("class_name", ["1.5", "nan", "-1"])
    def test_numeric_class_token_is_a_class_name(self, tmp_path, class_name):
        line = DET_LINE.replace("Car", class_name, 1)
        _write_tree(tmp_path, {"gt/000000.txt": GT_LINE, "det/000000.txt": line})
        _, det = load_tables(tmp_path / "gt", tmp_path / "det")
        assert same_rows(det, detections([constructed(line)]))
        assert det.class_names == [class_name]

    BAD_LINE = GT_LINE.replace("46.70", "oops")
    BAD_DET = DET_LINE.replace("587.01 173.33 614.12", "614.12 173.33 587.01")

    @pytest.mark.parametrize(
        "files, error, path, line_no",
        [
            # Frame order first: a's detections before b's ground truth.
            ({"gt/b.txt": f"{GT_LINE}\n{BAD_LINE}", "det/a.txt": BAD_DET}, LabelFormatError, "det/a.txt", 1),
            # Within a frame, ground truth first.
            ({"gt/a.txt": f"{GT_LINE}\n{BAD_LINE}", "det/a.txt": BAD_DET}, LabelParseError, "gt/a.txt", 2),
            # A file that is not UTF-8 in its place in that order.
            ({"det/a.txt": b"\xff\n", "gt/b.txt": BAD_LINE}, DatasetError, "det/a.txt", None),
            ({"gt/b.txt": b"\xff\n", "det/b.txt": BAD_DET, "det/a.txt": BAD_DET}, LabelFormatError, "det/a.txt", 1),
            # A read error (a directory named like a label file) likewise.
            ({"gt/b.txt": None, "det/c.txt": BAD_DET}, DatasetError, "gt/b.txt", None),
        ],
    )
    def test_first_bad_file_is_reported(self, tmp_path, files, error, path, line_no):
        self._raised_for(tmp_path, files, load_tables, error, path, line_no)

    @pytest.mark.parametrize(
        "files, path",
        [
            # Ground truth is never opened: neither b's bad line nor c's bytes count.
            ({"gt/b.txt": f"{GT_LINE}\n{BAD_LINE}", "gt/c.txt": b"\xff\n", "det/c.txt": BAD_DET}, "det/c.txt"),
            ({"gt/a.txt": None, "det/b.txt": BAD_DET}, "det/b.txt"),
            # Frame order, as load_tables: a before a-b, which sorts first by name.
            ({"gt/a-b.txt": GT_LINE, "det/a-b.txt": BAD_DET, "det/a.txt": BAD_DET}, "det/a.txt"),
        ],
    )
    def test_load_detections_reports_the_first_bad_detection_file(self, tmp_path, files, path):
        self._raised_for(tmp_path, files, load_detections, LabelFormatError, path, 1)

    @staticmethod
    def _raised_for(tmp_path, files, load, error, path, line_no):
        """load of gt/ and det/ (gt/a, b and c good unless files says
        otherwise; None makes a directory) raises error for path."""
        tree = {"gt/a.txt": GT_LINE, "gt/b.txt": GT_LINE, "gt/c.txt": GT_LINE}
        tree.update(files)
        directories = [name for name, text in tree.items() if text is None]
        _write_tree(tmp_path, {name: text for name, text in tree.items() if text is not None})
        for name in directories:
            (tmp_path / name).mkdir()
        with pytest.raises(error) as exc:
            load(tmp_path / "gt", tmp_path / "det")
        assert str(tmp_path / path) in str(exc.value)
        if line_no is not None:
            assert (exc.value.line_no, exc.value.path) == (line_no, str(tmp_path / path))

    def test_read_label_table_reports_the_first_bad_file_in_frame_order(self, tmp_path):
        # "a-b.txt" sorts before "a.txt" by name but after it by frame id.
        _write_tree(tmp_path, {"det/a.txt": self.BAD_DET, "det/a-b.txt": b"\xff"})
        with pytest.raises(LabelFormatError) as exc:
            read_label_table(tmp_path / "det", "detection", expect_score=True)
        assert (exc.value.line_no, exc.value.path) == (1, str(tmp_path / "det" / "a.txt"))
        table_dir = tmp_path / "ok"
        table_dir.mkdir()
        (table_dir / "a.txt").write_text(DET_LINE)
        (table_dir / "a-b.txt").write_text("")
        table = read_label_table(table_dir, "detection", expect_score=True)
        assert (table.frame_ids, table.files, table.offsets) == (["a", "a-b"], ["a.txt", "a-b.txt"], [0, 1, 1])


# Tokens that break a rule of the line checker, or spell a real oddly.
ODD_TOKENS = ["nan", "NaN", "inf", "-Infinity", "1e400", "oops", "0", "-1", "0.5", "4", "1_0", "+.5", "DontCare"]


@st.composite
def fuzzed_label_bytes(draw, expect_score: bool):
    """The bytes of a label file built from random lines, most of them
    good: ground-truth, detection and DontCare lines with 14 to 17
    fields, odd tokens, separators that str.split and str.splitlines
    treat alike (tab, form feed, NEL), blank lines, LF, CRLF or lone CR,
    a byte-order mark and bytes that are not UTF-8."""
    score = " 0.92" if expect_score else ""
    good = [GT_LINE + score, DONTCARE_LINE + score]
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        tokens = draw(st.sampled_from(good * 4 + [GT_LINE, DET_LINE])).split()
        count = draw(st.sampled_from([len(tokens)] * 6 + [14, 15, 16, 17]))
        tokens = (tokens + ["0.5", "0.5"])[:count]
        for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
            tokens[draw(st.integers(0, count - 1))] = draw(st.sampled_from(ODD_TOKENS))
        separators = [" ", "  ", "\t", " \t"] + ["\x0c", "\x85"] * draw(st.sampled_from([0, 0, 0, 1]))
        gaps = draw(st.lists(st.sampled_from(separators), min_size=count + 1, max_size=count + 1))
        line = gaps[0] * draw(st.booleans()) + "".join(map(str.__add__, tokens, gaps[1:]))
        lines.append(draw(st.sampled_from([line] * 4 + ["", " \t"])))
    breaks = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    data = "".join(map(str.__add__, lines, breaks)).encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xef\xbb"])) + data[at:]
    return data


def reference_rows(path: Path):
    """(class names, reals by row, lines) of a label file, read line by line
    from a utf-8-sig text file and converted token by token."""
    with open(path, encoding="utf-8-sig") as handle:
        lines = [line for line in handle.read().splitlines() if line.split()]
    return [line.split()[0] for line in lines], [list(map(float, line.split()[1:])) for line in lines], lines


# (expect_score, the bytes of one or two label files of that layout)
FUZZED_TREES = st.booleans().flatmap(lambda e: st.tuples(st.just(e), st.lists(fuzzed_label_bytes(e), min_size=1, max_size=2)))


def table_fields(table: LabelTable) -> tuple:
    """A table's fields, each column as its bytes."""
    columns = [column.tobytes() for column in table.columns]
    return table.frame_ids, table.files, table.offsets, table.class_names, columns, table.lines


def table_or_error(read) -> tuple:
    """The table_fields of what read returns, or the type and message of
    the error it raised."""
    try:
        return table_fields(read())
    except (LabelError, DatasetError) as exc:
        return type(exc), str(exc)


def cache_entries(cache_home: Path) -> list[Path]:
    return sorted((cache_home / "adathresh").glob("*.table"))


def split_entry(entry: bytes) -> tuple[bytes, bytes]:
    """(key, body) of a cache entry."""
    head, _, rest = entry.partition(b"\n")
    key_size = int(head.split()[0])
    return rest[:key_size], rest[key_size:]


def entry_of(key: bytes, body: bytes) -> bytes:
    """A cache entry of key and body, under a checksum that holds."""
    return b"%d %d\n" % (len(key), kitti_io.zlib.crc32(body, kitti_io.zlib.crc32(key))) + key + body


class TestFuzzedLabelFiles:
    """read_label_table on random files either returns the rows of a
    per-line parse or raises the error that _check_label_file raises for
    the first bad line, and nothing else."""

    @given(FUZZED_TREES)
    def test_a_cache_miss_and_a_hit_read_the_same_table_or_raise_the_same_error(self, case):
        expect_score, files = case
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            tree, cache_home = Path(tmp) / "tree", Path(tmp) / "cache"
            tree.mkdir()
            for i, data in enumerate(files):
                (tree / f"{i:06d}.txt").write_bytes(data)
            patch.setenv("XDG_CACHE_HOME", str(cache_home))
            miss = table_or_error(lambda: read_label_table(tree, "label", expect_score))
            parsed = not isinstance(miss[0], type)
            # Only a table is stored, and a hit does not parse.
            assert len(cache_entries(cache_home)) == parsed
            # The readers that keep no lines read the same entry: the tree as
            # load_detections' detections, or as load_tables' ground truth
            # (whose empty detection tree is stored before parsing stops).
            other = Path(tmp) / "other"
            other.mkdir()
            if expect_score:
                for i in range(len(files)):
                    (other / f"{i:06d}.txt").touch()
                load = lambda: load_detections(other, tree)
            else:
                load = lambda: load_tables(tree, other)[0]
                table_or_error(load)
            if parsed:
                patch.setattr(kitti_parse, "_table_from_lines", None)
            hit = table_or_error(lambda: read_label_table(tree, "label", expect_score))
            no_lines = table_or_error(load)
        assert hit == miss
        assert no_lines == ((*miss[:-1], None) if parsed else miss)

    @given(FUZZED_TREES)
    def test_bulk_reader_agrees_with_the_line_checker(self, case):
        expect_score, files = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / f"{i:06d}.txt" for i in range(len(files))]
            for path, data in zip(paths, files):
                path.write_bytes(data)
            try:
                table = read_label_table(tmp, "label", expect_score)
            except (LabelError, DatasetError) as exc:
                with pytest.raises(type(exc)) as expected:
                    for path in paths:
                        _check_label_file(path, expect_score)
                assert str(expected.value) == str(exc)
                return
            for path in paths:
                _check_label_file(path, expect_score)
            rows = [reference_rows(path) for path in paths]
        names, reals, lines = (sum((r[i] for r in rows), []) for i in range(3))
        assert (table.class_names, table.lines) == (names, lines)
        assert [list(values) for values in zip(*table.columns)] == reals


class TestTableCache:
    """The table cache of _read_tables: what it stores, what counts as a
    hit, and that nothing a command writes or says depends on it."""

    @pytest.fixture
    def cache_home(self, tmp_path, monkeypatch):
        home = tmp_path / "cache"
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        return home

    @pytest.fixture
    def tree(self, tmp_path):
        _write_tree(tmp_path, {"gt/a.txt": f"{GT_LINE}\n{DONTCARE_LINE}\n", "gt/b.txt": GT_LINE, "det/a.txt": DET_LINE})
        return tmp_path

    @staticmethod
    def read(tree):
        return list(map(table_fields, load_tables(tree / "gt", tree / "det")))

    @pytest.mark.parametrize(
        "environment, root",
        [
            ({"XDG_CACHE_HOME": "/x", "HOME": "/h"}, "/x/adathresh"),
            ({"HOME": "/h"}, "/h/.cache/adathresh"),
            ({"XDG_CACHE_HOME": "", "HOME": "/h"}, "/h/.cache/adathresh"),
            ({"XDG_CACHE_HOME": "relative", "HOME": "/h"}, "/h/.cache/adathresh"),
            ({"XDG_CACHE_HOME": "relative", "HOME": "also/relative"}, None),
            ({"HOME": "relative"}, None),
            ({}, None),
        ],
    )
    def test_the_root_is_xdg_cache_home_else_home_dot_cache(self, monkeypatch, environment, root):
        for name in ("XDG_CACHE_HOME", "HOME"):
            monkeypatch.delenv(name, raising=False)
        for name, value in environment.items():
            monkeypatch.setenv(name, value)
        assert kitti_io._cache_root() == root

    def test_each_missing_level_of_the_root_is_made_mode_0700(self, tree, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "new" / "xdg"))
        umask = os.umask(0o022)
        try:
            self.read(tree)
        finally:
            os.umask(umask)
        levels = [tmp_path / "new", tmp_path / "new" / "xdg", tmp_path / "new" / "xdg" / "adathresh"]
        assert [stat.S_IMODE(level.stat().st_mode) for level in levels] == [0o700] * 3
        assert len(cache_entries(tmp_path / "new" / "xdg")) == 2

    def test_each_tree_is_stored_once_and_then_read_without_parsing(self, tree, cache_home, monkeypatch):
        parsed = self.read(tree)
        assert len(cache_entries(cache_home)) == 2  # gt/ and det/
        entries = {path: path.read_bytes() for path in cache_entries(cache_home)}
        monkeypatch.setattr(kitti_parse, "_table_from_lines", None)
        assert self.read(tree) == parsed
        assert {path: path.read_bytes() for path in cache_entries(cache_home)} == entries
        assert list(cache_home.rglob("*.tmp")) == []

    def test_stats_and_eval_read_det_under_one_key(self, tree, cache_home):
        """stats reads det/ through load_detections, eval through
        load_tables: one entry for it, though gt/b.txt has no detection file."""
        io = ["--gt-dir", str(tree / "gt"), "--det-dir", str(tree / "det")]
        for command in ("stats", "eval"):
            assert main([command, *io, "--out-dir", str(tree / command)]) == 0
        assert len(cache_entries(cache_home)) == 2  # gt/ and det/

    def test_an_edited_line_misses(self, tree, cache_home):
        self.read(tree)
        (tree / "det" / "a.txt").write_text(DET_LINE.replace("0.92", "0.93"))
        _, det = load_tables(tree / "gt", tree / "det")
        assert det.scores().tolist() == [0.93]
        assert len(cache_entries(cache_home)) == 3

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: b"",
            lambda data: data[:-1],
            lambda data: data[: len(data) // 2],
            lambda data: b"garbage " + data,
            lambda data: data[:-20] + bytes([data[-20] ^ 1]) + data[-19:],  # one bit of a column
            lambda data: data + b"\nCar",
        ],
        ids=["empty", "last byte cut", "halved", "header garbled", "column bit flipped", "name appended"],
    )
    def test_a_damaged_entry_is_ignored_and_replaced(self, tree, cache_home, damage):
        parsed = self.read(tree)
        entries = {path: path.read_bytes() for path in cache_entries(cache_home)}
        for path, data in entries.items():
            path.write_bytes(damage(data))
        assert self.read(tree) == parsed
        assert {path: path.read_bytes() for path in cache_entries(cache_home)} == entries

    def test_an_entry_of_another_key_under_this_name_is_ignored_and_replaced(self, tmp_path, cache_home):
        """An entry that holds another tree's key and rows is no hit: not as
        it was written, and not with its checksum redone from this key's
        crc32, which only the byte-for-byte key comparison then rejects."""
        trees = [tmp_path / "a", tmp_path / "b"]
        for tree, score in zip(trees, ("0.92", "0.93")):
            tree.mkdir()
            (tree / "a.txt").write_text(DET_LINE.replace("0.92", score))
        read = lambda tree: table_fields(read_label_table(tree, "detection", expect_score=True))
        parsed = read(trees[0])
        [entry_a] = cache_entries(cache_home)
        read(trees[1])
        [entry_b] = [path for path in cache_entries(cache_home) if path != entry_a]
        original = entry_a.read_bytes()
        head, _, rest = entry_b.read_bytes().partition(b"\n")
        key_b, body_b = rest[: int(head.split()[0])], rest[int(head.split()[0]) :]
        key_a = original.partition(b"\n")[2][: len(key_b)]
        crc_from_key_a = kitti_io.zlib.crc32(body_b, kitti_io.zlib.crc32(key_a))
        for crc in (int(head.split()[1]), crc_from_key_a):
            entry_a.write_bytes(b"%d %d\n" % (len(key_b), crc) + key_b + body_b)
            assert read(trees[0]) == parsed
            assert entry_a.read_bytes() == original

    def test_an_entry_whose_rows_break_a_rule_is_not_a_hit(self, tree, cache_home):
        """The finiteness pass and the invariants run on every hit: an
        entry whose checksum holds over a NaN, or over an occlusion level
        no line can hold, is parsed again and replaced."""
        parsed = self.read(tree)
        for path in cache_entries(cache_home):
            original = path.read_bytes()
            key, body = split_entry(original)
            n_rows = 1 if key.split(b"\0")[1] == b"1" else 3  # det/ holds one row, gt/ three
            for value in (math.nan, 0.5):
                bad = bytearray(body)
                # The occluded column (the second) of the first row, after
                # the row ends of the tree's two frames.
                at = 16 + 8 * n_rows
                bad[at : at + 8] = array("d", [value]).tobytes()
                path.write_bytes(entry_of(key, bytes(bad)))
                assert self.read(tree) == parsed
                assert path.read_bytes() == original

    @pytest.mark.parametrize(
        "damage",
        [
            lambda ends: ends[1:],
            lambda ends: [ends[-1] + 1, ends[-1]],
            lambda ends: [ends[0], ends[-1] + 1],
            lambda ends: [end - 1 for end in ends],
            lambda ends: [-1, ends[-1]],
        ],
        ids=["an end cut", "decreasing", "more rows than held", "fewer rows than held", "negative"],
    )
    def test_an_entry_whose_row_ends_break_a_rule_is_not_a_hit(self, tree, cache_home, damage):
        """A hit's row ends must be one per frame, non-decreasing and end
        at the row count: an entry whose checksum holds over other ends is
        parsed again and replaced."""
        parsed = self.read(tree)
        for path in cache_entries(cache_home):
            original = path.read_bytes()
            key, body = split_entry(original)
            ends = array("q", body[:16]).tolist()  # the tree's two frames
            path.write_bytes(entry_of(key, array("q", damage(ends)).tobytes() + body[16:]))
            assert self.read(tree) == parsed
            assert path.read_bytes() == original

    def test_an_entry_of_rowless_files_needs_an_end_per_frame(self, tmp_path, cache_home):
        """With no rows, a body is only its row ends: one cut short still
        holds no columns and no names, and is a miss all the same, for a
        reader that keeps no lines to check the ends against."""
        _write_tree(tmp_path, {f"{sub}/{name}": "\n" for sub in ("gt", "det") for name in ("a.txt", "b.txt")})
        read = lambda: table_fields(load_detections(tmp_path / "gt", tmp_path / "det"))
        parsed = read()
        [path] = cache_entries(cache_home)
        original = path.read_bytes()
        key, body = split_entry(original)
        assert body == array("q", [0, 0]).tobytes()
        path.write_bytes(entry_of(key, body[8:]))
        assert read() == parsed
        assert path.read_bytes() == original

    def test_a_table_that_keeps_its_lines_needs_the_row_ends_of_its_lines(self, tmp_path, cache_home):
        """Ends that keep every rule but are not those of the files' lines
        are a hit for no reader that keeps lines."""
        for name in ("a.txt", "b.txt"):
            (tmp_path / name).write_text(DET_LINE)
        read = lambda: table_fields(read_label_table(tmp_path, "detection", expect_score=True))
        parsed = read()
        [path] = cache_entries(cache_home)
        original = path.read_bytes()
        key, body = split_entry(original)
        assert array("q", body[:16]).tolist() == [1, 2]
        path.write_bytes(entry_of(key, array("q", [0, 2]).tobytes() + body[16:]))
        assert read() == parsed
        assert path.read_bytes() == original

    @pytest.mark.parametrize(
        "variant",
        [
            lambda text: text.replace(b"\n", b"\r\n"),
            lambda text: b"\xef\xbb\xbf" + text,
            lambda text: text + b"\n",
            lambda text: text.rstrip(b"\n"),
        ],
        ids=["crlf", "byte-order mark", "trailing blank line", "no last line break"],
    )
    def test_equal_lines_in_other_bytes_get_their_own_entry_and_an_equal_table(self, tmp_path, cache_home, variant):
        text = f"{DET_LINE}\n{DONTCARE_LINE} 0.5\n".encode()
        trees = [tmp_path / "lf", tmp_path / "other"]
        for directory, data in zip(trees, (text, variant(text))):
            directory.mkdir()
            (directory / "a.txt").write_bytes(data)
        read = lambda directory: table_fields(read_label_table(directory, "detection", expect_score=True))
        tables = [read(directory) for directory in trees]
        assert tables[0] == tables[1]
        assert len(cache_entries(cache_home)) == 2
        assert [read(directory) for directory in trees] == tables
        assert len(cache_entries(cache_home)) == 2

    def test_an_entry_of_the_first_format_under_this_name_is_ignored_and_replaced(self, tree, cache_home):
        """An entry keyed and laid out as the first table format was (the
        decoded lines and row ends in the key, no ends in the body) is no
        hit, even under this key's name with a checksum that holds."""
        parsed = self.read(tree)
        for path, (directory, expect_score) in zip(cache_entries(cache_home), self.entry_trees(tree, cache_home)):
            original = path.read_bytes()
            table = read_label_table(directory, "label", expect_score)
            old_key = "\0".join(
                [
                    f"adathresh label table 1 {sys.byteorder}",
                    str(int(expect_score)),
                    " ".join(map(str, table.offsets[1:])),
                    *table.frame_ids,
                    *table.files,
                    "\n".join(table.lines),
                ]
            ).encode()
            old_body = b"".join([*(column.tobytes() for column in table.columns), "\n".join(table.class_names).encode()])
            path.write_bytes(entry_of(old_key, old_body))
            assert self.read(tree) == parsed
            assert path.read_bytes() == original

    @staticmethod
    def entry_trees(tree, cache_home) -> list:
        """(directory, expect_score) of each entry of cache_entries, in their order."""
        scored = [split_entry(path.read_bytes())[0].split(b"\0")[1] == b"1" for path in cache_entries(cache_home)]
        return [(tree / "det", True) if score else (tree / "gt", False) for score in scored]

    def test_only_read_label_table_keeps_lines_and_a_table_without_them_is_not_written(self, tree, cache_home):
        gt, det = load_tables(tree / "gt", tree / "det")
        only = load_detections(tree / "gt", tree / "det")
        assert gt.lines is det.lines is only.lines is None
        assert read_label_table(tree / "det", "detection", expect_score=True).lines == [DET_LINE]
        for table in (gt, det, only):
            with pytest.raises(ValueError, match="holds no lines"):
                write_files(tree / "out", kitti_io.label_files(table))
        assert not (tree / "out").exists()

    @given(st.lists(st.floats(), min_size=1, max_size=3))
    def test_a_value_is_read_exactly_when_it_is_finite(self, values):
        """The finiteness pass scans sign-and-exponent bytes first: every
        double, the largest ones and NaN payloads included, is accepted
        exactly when math.isfinite accepts it, by a parse and by a hit."""
        lines = [DET_LINE.replace("Car 0.00", f"Car {value!r}", 1) for value in values]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            (Path(tmp) / "a.txt").write_text("\n".join(lines))
            patch.setenv("XDG_CACHE_HOME", tmp)
            for _ in range(2):
                if all(map(math.isfinite, values)):
                    table = read_label_table(tmp, "detection", expect_score=True)
                    assert table.column("truncated").tobytes() == array("d", values).tobytes()
                else:
                    with pytest.raises(LabelParseError, match="non-finite field"):
                        read_label_table(tmp, "detection", expect_score=True)

    def test_only_the_newest_entries_are_kept_and_staging_directories_stay(self, tmp_path, cache_home):
        staging = cache_home / "adathresh" / ".adathresh.x.tmp"
        staging.mkdir(parents=True)
        for i in range(kitti_io._CACHE_ENTRIES + 4):
            directory = tmp_path / f"tree{i}"
            directory.mkdir()
            (directory / "a.txt").write_text(DET_LINE.replace("0.92", f"0.{i:02d}"))
            read_label_table(directory, "detection", expect_score=True)
            assert len(cache_entries(cache_home)) == min(i + 1, kitti_io._CACHE_ENTRIES)
        assert staging.is_dir()
        newest = read_label_table(tmp_path / f"tree{i}", "detection", expect_score=True)
        assert newest.scores().tolist() == [float(f"0.{i:02d}")]
