"""Label reading, writing, and dataset loading."""

import math
import os
import stat
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from adathresh import kitti_io
from adathresh.evaluation import _box_columns
from adathresh.kitti_io import (
    DONT_CARE,
    DatasetError,
    LabelError,
    LabelFormatError,
    LabelParseError,
    LabelTable,
    _check_label_file,
    load_tables,
    read_label_table,
    write_frames,
)
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
    """The text write_frames writes for one frame of detection records."""
    write_frames(detections(records), directory)
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
    write_frames writes for that table."""
    with tempfile.TemporaryDirectory() as tmp:
        table = read_text(Path(tmp) / "in", text, expect_score=True)
        write_frames(table, Path(tmp) / "out")
        return table, (Path(tmp) / "out" / "000000.txt").read_bytes().decode("utf-8")


class TestSerialize:
    def test_empty_list(self, tmp_path):
        assert written(tmp_path, []) == ""

    def test_field_counts(self, tmp_path):
        gt, det = tables([Frame("000000", [constructed(GT_LINE)], [constructed(DET_LINE)])])
        write_frames(gt, tmp_path / "gt")
        write_frames(det, tmp_path / "det")
        assert len((tmp_path / "gt" / "000000.txt").read_text().split()) == 15
        assert len((tmp_path / "det" / "000000.txt").read_text().split()) == 16

    def test_lf_line_endings(self, tmp_path):
        write_frames(read_text(tmp_path / "in", f"{GT_LINE}\r\n{GT_LINE}\r\n", expect_score=False), tmp_path / "out")
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
        write_frames(read_text(tmp_path / "in", f"{GT_LINE}\n{DONTCARE_LINE}", expect_score=False), tmp_path / "out")
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
        with pytest.raises(DatasetError, match="000042"):
            load_tables(tmp_path / "gt", tmp_path / "det")

    def test_missing_directories(self, tmp_path):
        (tmp_path / "gt").mkdir()
        with pytest.raises(DatasetError):
            load_tables(tmp_path / "nope", tmp_path / "gt")
        with pytest.raises(DatasetError):
            load_tables(tmp_path / "gt", tmp_path / "nope")

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
        raised(lambda: read_label_table(tmp_path / "det", "detection", expect_score=True), "det")
        self._write(tmp_path, "gt/.txt.txt", GT_LINE + "\n")
        raised(lambda: load_tables(tmp_path / "gt", tmp_path / "det"), "gt")
        raised(lambda: read_label_table(tmp_path / "gt", "ground-truth", expect_score=False), "gt")

    def test_a_byte_order_mark_is_not_part_of_the_first_class_name(self, tmp_path):
        for name, line in (("gt/000000.txt", GT_LINE), ("det/000000.txt", DET_LINE)):
            self._write(tmp_path, name, "\ufeff" + line + "\n")
        gt, det = load_tables(tmp_path / "gt", tmp_path / "det")
        assert (gt.class_names, gt.lines, det.class_names, det.lines) == (["Car"], [GT_LINE], ["Car"], [DET_LINE])
        for sub, line, expect_score in (("gt", GT_LINE, False), ("det", DET_LINE, True)):
            table = read_label_table(tmp_path / sub, sub, expect_score)
            assert (table.class_names, table.lines) == (["Car"], [line])
        # The lines are written back without the mark.
        write_frames(det, tmp_path / "out")
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


class TestWriteLabelFile:
    """write_frames: one label file per frame of a table."""

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
        write_frames(table, tmp_path / "all")
        write_frames(table, tmp_path / "kept", [False, True, False])
        assert {p.name: p.read_text() for p in (tmp_path / "all").iterdir()} == {
            "a.txt": label_text([det, det]), "b.txt": "", "c.txt": label_text([det])
        }
        assert {p.name: p.read_text() for p in (tmp_path / "kept").iterdir()} == {
            "a.txt": label_text([det]), "b.txt": "", "c.txt": ""
        }
        write_frames(tables([])[0], tmp_path / "none")
        assert (tmp_path / "none").is_dir() and not any((tmp_path / "none").iterdir())

    def test_frames_without_a_file_get_none(self, tmp_path):
        _write_tree(tmp_path, {"gt/a.txt": GT_LINE, "gt/b.txt": GT_LINE, "det/b.txt": DET_LINE})
        _, det = load_tables(tmp_path / "gt", tmp_path / "det")
        assert det.files == [None, "b.txt"]
        write_frames(det, tmp_path / "out")
        assert {p.name: p.read_text() for p in (tmp_path / "out").iterdir()} == {"b.txt": DET_LINE + "\n"}

    @staticmethod
    def three_frames():
        det = constructed(DET_LINE)
        return tables([Frame("a", (), [det]), Frame("b", (), [det]), Frame("c", (), [det])])[1]

    @staticmethod
    def fail_at(monkeypatch, k):
        """Make write_frames's write of file k (from 0) raise OSError: the
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
            write_frames(self.three_frames(), tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("k", [0, 2])
    def test_a_failed_write_leaves_an_existing_tree_as_it_was(self, tmp_path, monkeypatch, k):
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.txt").write_text("old a\n")
        (out / "z.txt").write_text("old z\n")
        self.fail_at(monkeypatch, k)
        with pytest.raises(OSError, match="disk full"):
            write_frames(self.three_frames(), out)
        assert {p.name: p.read_text() for p in out.iterdir()} == {"a.txt": "old a\n", "z.txt": "old z\n"}
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("n_flags", [0, 2, 4])
    def test_a_kept_of_another_length_writes_nothing(self, tmp_path, n_flags):
        # Each frame's slice of a short kept list would be cut silently.
        with pytest.raises(ValueError, match=f"kept holds {n_flags} flags for a table of 3 rows"):
            write_frames(self.three_frames(), tmp_path / "new" / "out", [True] * n_flags)
        assert list(tmp_path.iterdir()) == []

    def test_a_kept_of_another_length_leaves_an_existing_tree_as_it_was(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.txt").write_text("old a\n")
        with pytest.raises(ValueError):
            write_frames(self.three_frames(), out, [True])
        assert [(p.name, p.read_text()) for p in out.iterdir()] == [("a.txt", "old a\n")]
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("umask", [0o022, 0o002])
    def test_a_new_tree_has_a_plain_mkdirs_mode_and_0600_files(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            (tmp_path / "plain").mkdir()
            write_frames(self.three_frames(), tmp_path / "new" / "out")
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
        write_frames(table, tmp_path / "out")
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
        write_frames(self.three_frames(), out)
        assert sorted(p.name for p in out.iterdir()) == ["a.txt", "b.txt", "c.txt", "z.txt"]
        assert list(tmp_path.iterdir()) == [out]

    def test_a_file_in_place_of_out_dir_is_an_error_naming_it(self, tmp_path):
        (tmp_path / "out").write_text("a file\n")
        with pytest.raises(FileExistsError, match="out"):
            write_frames(self.three_frames(), tmp_path / "out")
        assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [("out", "a file\n")]

    def test_an_existing_empty_directory_is_written_in_place(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir(mode=0o750)
        before = out.stat()
        write_frames(self.three_frames(), out)
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
        # Each row keeps its line as read, without the line break.
        det_texts = [files[f"det/{stem}.txt"] for stem in stems if f"det/{stem}.txt" in files]
        assert det_dir_table.lines == [
            line for text in det_texts for line in text.splitlines() if line.split()
        ]

    def test_fixture_tables_round_trip_through_files(self, tmp_path):
        frame = Frame("000000", [constructed(GT_LINE), constructed(DONTCARE_LINE)], [constructed(DET_LINE)])
        gt, det = tables([frame])
        assert (gt.files, det.lines) == (["000000.txt"], label_text(frame.detections).splitlines())
        write_frames(gt, tmp_path / "gt")
        write_frames(det, tmp_path / "det")
        read_gt, read_det = load_tables(tmp_path / "gt", tmp_path / "det")
        assert same_rows(read_gt, gt) and same_rows(read_det, det)
        records = [list(map(constructed, table.lines)) for table in (read_gt, read_det)]
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
        tree = {"gt/a.txt": GT_LINE, "gt/b.txt": GT_LINE, "gt/c.txt": GT_LINE}
        tree.update(files)
        directories = [name for name, text in tree.items() if text is None]
        _write_tree(tmp_path, {name: text for name, text in tree.items() if text is not None})
        for name in directories:
            (tmp_path / name).mkdir()
        with pytest.raises(error) as exc:
            load_tables(tmp_path / "gt", tmp_path / "det")
        assert str(tmp_path / path) in str(exc.value)
        if line_no is not None:
            assert (exc.value.line_no, exc.value.path) == (line_no, str(tmp_path / path))

    def test_read_label_table_reports_the_first_bad_file_by_name(self, tmp_path):
        # "a-b.txt" sorts before "a.txt" by name but after it by frame id.
        _write_tree(tmp_path, {"det/a.txt": self.BAD_DET, "det/a-b.txt": b"\xff"})
        with pytest.raises(DatasetError, match="a-b.txt"):
            read_label_table(tmp_path / "det", "detection", expect_score=True)
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


class TestFuzzedLabelFiles:
    """read_label_table on random files either returns the rows of a
    per-line parse or raises the error that _check_label_file raises for
    the first bad line, and nothing else."""

    @given(st.booleans().flatmap(lambda e: st.tuples(st.just(e), st.lists(fuzzed_label_bytes(e), min_size=1, max_size=2))))
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
