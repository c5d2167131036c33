"""End-to-end CLI coverage: pipelines, config precedence, exit codes."""

import argparse
import csv
import hashlib
import json
import math
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from io import StringIO
from itertools import compress
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from adathresh import cli, kitti_io
from adathresh.bin_stats import BinSpec, PreFilter, compute_bin_stats
from adathresh.cli import main
from adathresh.threshold import ThresholdModel, fit_quadratic, keep_rows
from helpers import constructed, detections, label_text, make_record, write_label


def run(*argv):
    return main(list(argv))


def write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def scenario_payload(**overrides):
    spec = dict(
        seed=20240817,
        n_frames=25,
        objects_per_frame=[2, 5],
        distance_range=[2.0, 58.0],
        score_model={"a": -0.00004, "b": -0.0075, "c": 0.92, "noise_std": [0.02] * 6},
        fp_rate_per_bin=[0.3] * 6,
        fn_rate_per_bin=[0.1] * 6,
        bin_spec={"bin_width": 10.0, "max_distance": 60.0},
    )
    spec.update(overrides)
    return spec


def tree_digest(root):
    """sha256 over the sorted relative paths and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def eval_digests(cwd, data_dir, mode, iou):
    """sha256 of the eval_report.json and eval_report.csv that eval writes
    for data_dir's gt/ and det/ under mode and iou, run from cwd: the
    report holds threshold_mode as typed, so the model path is relative."""
    write_json(cwd / "model.json", ThresholdModel(alpha=-0.00002, beta=-0.0061, gamma=0.6828, k=0.6).to_dict())
    out = cwd / "e"
    data = ("--gt-dir", str(data_dir / "gt"), "--det-dir", str(data_dir / "det"))
    assert run("eval", *data, "--out-dir", str(out), "--iou", iou, "--threshold-mode", mode) == 0
    return [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("eval_report.json", "eval_report.csv")]


# sha256 of eval_report.json and eval_report.csv for the dataset fixture's scenario.
EVAL_DIGESTS = {
    ("none", "bev"): [
        "d1fb0100df3a51aa9c213b01c5bbbdfc7fb0044e6d735cc940f325676ef0a075",
        "ff74f8ff8d2b5a7bab1398ac9a8d943f17d9f53f172395f14ce1d46a9a518898",
    ],
    ("none", "3d"): [
        "56f94ff09f7acf8fbaf1249e4511817049a5b250e7901ea79f2ba75659b40ec7",
        "ff74f8ff8d2b5a7bab1398ac9a8d943f17d9f53f172395f14ce1d46a9a518898",
    ],
    ("single:0.5", "bev"): [
        "8c49cc65cc441eacf5fc74a2308713a51b0dab584c9e1e6eb5f75cdbe5a56405",
        "db3d59bb52013d152dcb480b68ea9d43ef010db50ef8d90fd4722ef438e2f2ab",
    ],
    ("single:0.5", "3d"): [
        "2894a6e55dd368556ccebfa2d96ec37ab121235065d8a13c3724ec7b37dc65d1",
        "db3d59bb52013d152dcb480b68ea9d43ef010db50ef8d90fd4722ef438e2f2ab",
    ],
    ("adaptive:model.json", "bev"): [
        "d494775040e987bfcdeeb8c46007c6bf03e086f4aa4aa477387afae56381baaa",
        "9682cea93a2299c64c30d67036bc5db0416c223d29b71d087481bd13086296a0",
    ],
    ("adaptive:model.json", "3d"): [
        "49d0961a41bb07683a2521e90fc21cbc2f828ec97504d7e04fe0c8fb54b9b6cf",
        "9682cea93a2299c64c30d67036bc5db0416c223d29b71d087481bd13086296a0",
    ],
}


# The same digests for crowded_dataset's frames.
CROWDED_EVAL_DIGESTS = {
    ("none", "bev"): [
        "009d0ca931ce9026514fb0018ae562a6370935c914ef66098c38fc54ae394d4f",
        "922de7cfedb431e7a1e8c0d3c358defa2b56d550583c90eb8668cda8322a4967",
    ],
    ("none", "3d"): [
        "200ebe7d69f6b8d4300a95ebef1b3849a191b79f94c360014a852df4a1821285",
        "922de7cfedb431e7a1e8c0d3c358defa2b56d550583c90eb8668cda8322a4967",
    ],
    ("single:0.5", "bev"): [
        "1f81d3e9c96073fc32d7b3870c094752e27a3b10fd750d721b69f461bd2d4f07",
        "4df56d94041e6169a779459b7a583f370adfdddef2512cc4462ec2ca901a1ae2",
    ],
    ("single:0.5", "3d"): [
        "cad107b4275cbc60a9eef9a90bbe5dfd151216a71d5b33f3487b56a1ea6ba9bb",
        "4df56d94041e6169a779459b7a583f370adfdddef2512cc4462ec2ca901a1ae2",
    ],
    ("adaptive:model.json", "bev"): [
        "ada414ff164c0dc691ab23c3916176ed8584bfa68a847438c27864b781acc84c",
        "b80b7171282876647a9f878bb252b9b2836dcf5df4a6fbc9bd24c3b76c91348e",
    ],
    ("adaptive:model.json", "3d"): [
        "62cf0357fa877d8e7e9a1d2af2c35a27e05ed024fcf242434349d946cc632bb6",
        "b80b7171282876647a9f878bb252b9b2836dcf5df4a6fbc9bd24c3b76c91348e",
    ],
}


def stats_fit_digests(cwd, data_dir, flags):
    """fit's exit code, then the sha256 of bin_stats.json, bin_stats.csv,
    model.json and fit_report.csv (None for a file not written), from
    stats and fit on data_dir's gt/ and det/ with flags, run from cwd;
    --normalized-std goes to stats only, which alone has it."""
    data = ("--gt-dir", str(data_dir / "gt"), "--det-dir", str(data_dir / "det"))
    assert run("stats", *data, "--out-dir", str(cwd / "s"), *flags) == 0
    fit_flags = [flag for flag in flags if flag != "--normalized-std"]
    fit_rc = run("fit", *data, "--out-dir", str(cwd / "f"), *fit_flags)
    paths = [cwd / name for name in ("s/bin_stats.json", "s/bin_stats.csv", "f/model.json", "f/fit_report.csv")]
    return [fit_rc, *(hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None for p in paths)]


# fit's exit code and the sha256 of bin_stats.json, bin_stats.csv, model.json
# and fit_report.csv for the dataset fixture's scenario, by the flags given
# to stats and fit.
STATS_FIT_DIGESTS = {
    (): [
        0,
        "3953907d7c865dc395ec2e15bd1bed0ae6618aaa3849ad0e8f29d16cbcd455f6",
        "d639b127b975d395686c06bf643e57a0a88be0cda363e11720bf37df9dcaa711",
        "415bb104d8ed904137eb1ee8681c9a6b798066adda76a82cca5a84d7fcdd23d0",
        "76ff1fd350ddeb4e145d89192720020bf75d0792187502637b0b205caa067373",
    ],
    ("--normalized-std",): [
        0,
        "6cd2acefd7b564aef56dc2f06993ae9db0ecc7a52d24d5b598a93495f733dda8",
        "fc5944173d91c2978dc177afbb3a6f8a93a0c4c6c1dad253420976e096f94e2b",
        "415bb104d8ed904137eb1ee8681c9a6b798066adda76a82cca5a84d7fcdd23d0",
        "76ff1fd350ddeb4e145d89192720020bf75d0792187502637b0b205caa067373",
    ],
    ("--pre-filter", "none"): [
        0,
        "60320fd0610cbfbf4c62825346a625589033a44eeeba206004646ab70d44c51f",
        "5c840094a7c1e99ca3cead4f33e01698a823e2ac20f469d69d7a5e8b06af49b5",
        "2f4785f422f26846a5e557f9b1de9db8ef0693e4a9ba91ef6b96d13404098d25",
        "535175b08cc18e027725cb45e491766e27bca1a33f155bbb20352092db09b822",
    ],
}


# The same for crowded_dataset's frames. Without the pre-filter, their
# quadratic leaves [0, 1] and fit exits 3, writing nothing.
CROWDED_STATS_FIT_DIGESTS = {
    (): [
        0,
        "643bc55318a375383d6298fb7b4a8467a56029fe98bba51901cbe6a48fc9d0db",
        "ca5ae18774984bd958ff5db728da955143ec1e6b6f1da38d216ef1ef582e8dba",
        "0ea4f8106d2f29848884ebb6f925180282923e58401e9cd74a285ea434f746ea",
        "1ce94cd6e2f90e3c18d6216f0842e99108906db86cceef26cc8ed19881f4c622",
    ],
    ("--normalized-std",): [
        0,
        "1abb05f4b2befc6cc7e9bfda072322cdff3bf5a7d5ce8cfb883c5d25b59ae5c1",
        "61a4085f3d537a845684acbc5bc2e538ab5747152cbe775b67ea4194b1f7514a",
        "0ea4f8106d2f29848884ebb6f925180282923e58401e9cd74a285ea434f746ea",
        "1ce94cd6e2f90e3c18d6216f0842e99108906db86cceef26cc8ed19881f4c622",
    ],
    ("--pre-filter", "none"): [
        3,
        "b135c8675ea9dd0a169f3318044ab538ee69b2e8c7f9c1b671743dea39930b88",
        "1a16db516f1f0e5633e5550b40c0f3aab306b55ba5ad3b72b8ce32896f0b4e67",
        None,
        None,
    ],
}


@pytest.fixture
def dataset(tmp_path):
    """Synthetic gt/ and det/ directories plus the scenario file."""
    spec_path = write_json(tmp_path / "scenario.json", scenario_payload())
    data_dir = tmp_path / "data"
    assert run("synth", "--spec", spec_path, "--out-dir", str(data_dir)) == 0
    return data_dir


@pytest.fixture
def crowded_dataset(tmp_path):
    """Eight cars a frame, and three pre-NMS style duplicates after each
    detection: one jittered by up to 0.6 m and 0.3 rad (many of its pairs
    fall below the IoU threshold), one moved by a few micrometres (IoU
    ties to within rounding) and one at the same place with the score
    repeated (score ties)."""
    payload = scenario_payload(n_frames=6, objects_per_frame=[8, 8], distance_range=[2.0, 40.0])
    spec_path = write_json(tmp_path / "scenario.json", payload)
    data_dir = tmp_path / "crowded"
    assert run("synth", "--spec", spec_path, "--out-dir", str(data_dir)) == 0
    rng = random.Random(17)
    for path in sorted((data_dir / "det").iterdir()):
        out = []
        for line in path.read_text(encoding="utf-8").splitlines():
            tokens = line.split()
            x, z, yaw, score = (float(tokens[i]) for i in (11, 13, 14, 15))
            copies = (
                (0.6 * rng.uniform(-1, 1), 0.6 * rng.uniform(-1, 1), 0.3 * rng.uniform(-1, 1), rng.uniform(0.5, 0.98)),
                (4e-6 * rng.uniform(-1, 1), 4e-6 * rng.uniform(-1, 1), 0.0, rng.uniform(0.5, 0.98)),
                (0.0, 0.0, 0.0, 1.0),
            )
            out.append(line)
            for dx, dz, dyaw, factor in copies:
                tokens[11], tokens[13], tokens[14] = f"{x + dx:.6f}", f"{z + dz:.6f}", f"{yaw + dyaw:.6f}"
                tokens[15] = f"{score * factor:.6f}"
                out.append(" ".join(tokens))
        path.write_text("".join(f"{line}\n" for line in out), encoding="utf-8")
    return data_dir


class TestPipeline:
    def test_full_pipeline(self, tmp_path, dataset, capsys):
        gt_dir = str(dataset / "gt")
        det_dir = str(dataset / "det")

        stats_dir = tmp_path / "stats"
        rc = run(
            "stats",
            "--gt-dir", gt_dir,
            "--det-dir", det_dir,
            "--out-dir", str(stats_dir),
            "--pre-filter", "none",
        )
        assert rc == 0
        stats_payload = json.loads((stats_dir / "bin_stats.json").read_text())
        assert stats_payload["pre_filter"] is None
        assert len(stats_payload["bins"]) == 6
        assert (stats_dir / "bin_stats.csv").exists()

        fit_dir = tmp_path / "fit"
        rc = run(
            "fit",
            "--gt-dir", gt_dir,
            "--det-dir", det_dir,
            "--out-dir", str(fit_dir),
            "--pre-filter", "none",
            "--k", "continuity",
        )
        assert rc == 0
        model = ThresholdModel.from_dict(json.loads((fit_dir / "model.json").read_text()))
        assert model.k == pytest.approx(model.threshold_at(model.delta), abs=1e-12)
        assert (fit_dir / "fit_report.csv").exists()

        filt_dir = tmp_path / "filtered"
        rc = run(
            "filter",
            "--det-dir", det_dir,
            "--out-dir", str(filt_dir),
            "--threshold-mode", f"adaptive:{fit_dir / 'model.json'}",
        )
        assert rc == 0
        assert sorted(p.name for p in filt_dir.glob("*.txt")) == sorted(
            p.name for p in (dataset / "det").glob("*.txt")
        )

        reports = {}
        for label, mode in (
            ("baseline", "none"),
            ("single", "single:0.5"),
            ("adaptive", f"adaptive:{fit_dir / 'model.json'}"),
        ):
            out = tmp_path / f"eval_{label}"
            rc = run(
                "eval",
                "--gt-dir", gt_dir,
                "--det-dir", det_dir,
                "--out-dir", str(out),
                "--threshold-mode", mode,
                "--iou-thr", "0.7",
            )
            assert rc == 0
            reports[label] = json.loads((out / "eval_report.json").read_text())

        assert reports["baseline"]["threshold_mode"] == "none"
        assert reports["baseline"]["average_precision_filtered"] is None
        assert reports["adaptive"]["threshold_mode"].startswith("adaptive:")
        assert reports["adaptive"]["average_precision_filtered"] is not None
        assert reports["adaptive"]["n_frames"] == 25
        assert reports["adaptive"]["fp"] <= reports["baseline"]["fp"]
        assert reports["adaptive"]["tp"] <= reports["baseline"]["tp"]

        cmp_dir = tmp_path / "cmp"
        rc = run(
            "compare",
            str(tmp_path / "eval_baseline" / "eval_report.json"),
            str(tmp_path / "eval_single" / "eval_report.json"),
            "--out-dir", str(cmp_dir),
        )
        assert rc == 0
        with open(cmp_dir / "compare.csv", newline="") as handle:
            rows = {row["metric"]: row for row in csv.DictReader(handle)}
        assert int(rows["tp"]["candidate"]) == reports["single"]["tp"]
        assert float(rows["recall"]["delta"]) == pytest.approx(
            reports["single"]["recall"] - reports["baseline"]["recall"], abs=1e-9
        )
        out = capsys.readouterr().out
        assert "trade_off" in out

        rpt_dir = tmp_path / "rpt"
        rc = run(
            "report",
            "--model", str(fit_dir / "model.json"),
            "--stats", str(stats_dir / "bin_stats.json"),
            "--out-dir", str(rpt_dir),
        )
        assert rc == 0
        svg = (rpt_dir / "threshold_curve.svg").read_text()
        assert svg.lstrip().startswith("<svg")
        assert (rpt_dir / "summary.md").read_text().strip()

        # Files and staging directories alike.
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_stats_matches_library(self, tmp_path, dataset):
        out = tmp_path / "stats"
        assert run(
            "stats",
            "--gt-dir", str(dataset / "gt"),
            "--det-dir", str(dataset / "det"),
            "--out-dir", str(out),
            "--pre-filter", "none",
        ) == 0
        payload = json.loads((out / "bin_stats.json").read_text())
        samples = [
            (r.ego_distance(), r.score)
            for path in sorted((dataset / "det").glob("*.txt"))
            for r in map(constructed, path.read_text().splitlines())
            if r.class_name == "Car"
        ]
        expected = compute_bin_stats(samples, BinSpec())
        assert payload["n_detections_used"] == len(samples)
        for entry, stat in zip(payload["bins"], expected):
            assert entry["count"] == stat.count
            if stat.count:
                assert entry["mean"] == pytest.approx(stat.mean, abs=1e-12)
                assert entry["std"] == pytest.approx(stat.std, abs=1e-12)

    def test_filter_matches_library(self, tmp_path, dataset):
        model = ThresholdModel(alpha=-0.0001, beta=-0.004, gamma=0.75, delta=60.0, k=0.35)
        model_path = write_json(tmp_path / "model.json", model.to_dict())
        out = tmp_path / "filtered"
        assert run(
            "filter",
            "--det-dir", str(dataset / "det"),
            "--out-dir", str(out),
            "--threshold-mode", f"adaptive:{model_path}",
        ) == 0
        for path in sorted((dataset / "det").glob("*.txt")):
            lines = path.read_text().splitlines()
            survivors = compress(lines, keep_rows(detections(list(map(constructed, lines))), model))
            assert (out / path.name).read_text() == "".join(line + "\n" for line in survivors)

    def test_filter_none_keeps_a_negative_score_and_single_zero_drops_it(self, tmp_path):
        det_dir = tmp_path / "det"
        negative, positive = make_record(0.0, 10.0, score=-0.25), make_record(0.0, 20.0, score=0.0)
        write_label(det_dir / "000000.txt", [negative, positive])
        for mode, survivors in (("none", [negative, positive]), ("single:0", [positive])):
            out = tmp_path / mode.replace(":", "_")
            assert run("filter", "--det-dir", str(det_dir), "--out-dir", str(out), "--threshold-mode", mode) == 0
            assert (out / "000000.txt").read_text() == label_text(survivors)

    def test_filter_of_empty_det_dir_writes_an_evaluable_out_dir(self, tmp_path):
        gt_dir = tmp_path / "gt"
        det_dir = tmp_path / "det"
        write_label(gt_dir / "000000.txt", [make_record(0.0, 10.0)])
        det_dir.mkdir()
        out = tmp_path / "filtered"
        assert run(
            "filter", "--det-dir", str(det_dir), "--out-dir", str(out), "--threshold-mode", "none"
        ) == 0
        assert out.is_dir() and not any(out.iterdir())
        report_dir = tmp_path / "eval"
        assert run(
            "eval", "--gt-dir", str(gt_dir), "--det-dir", str(out), "--out-dir", str(report_dir)
        ) == 0
        payload = json.loads((report_dir / "eval_report.json").read_text())
        assert (payload["tp"], payload["fp"], payload["fn"]) == (0, 0, 1)

    def test_filter_reads_the_files_glob_lists(self, tmp_path):
        det_dir = tmp_path / "det"
        names = ("a.txt", ".b.txt", "c.TXT", "d.txt.tmp", ".txt")
        for name in names:
            write_label(det_dir / name, [make_record(0.0, 10.0, score=0.9)])
        out = tmp_path / "filtered"
        assert run("filter", "--det-dir", str(det_dir), "--out-dir", str(out), "--threshold-mode", "none") == 0
        listed = sorted(p.name for p in det_dir.glob("*.txt"))
        assert sorted(p.name for p in out.iterdir()) == listed == [".b.txt", ".txt", "a.txt"]

    def test_filter_writes_kept_lines_as_read(self, tmp_path):
        # Reals with 4 and 8 decimals, tab separators and CRLF endings.
        det_dir = tmp_path / "det"
        det_dir.mkdir()
        near_low = "Car\t0.0000\t0\t0.0000\t100.0000\t100.0000\t200.0000\t160.0000\t1.5000\t1.7000\t4.0000\t0.0000\t1.6500\t5.0000\t0.0000\t0.4000"
        near_high = "Car 0.00000000 0 0.12345678 100.00000000 100.00000000 200.00000000 160.00000000 1.50000000 1.70000000 4.00000000 0.00000000 1.65000000 10.00000000 0.00000000 0.90000000"
        far_low = " Car  0 1 0.5 100 100 200 160 1.5 1.7 4 3.25 1.65 50.125 0.1 0.35 "
        (det_dir / "000000.txt").write_bytes(f"{near_low}\r\n{near_high}\r\n\r\n{far_low}\r\n".encode())
        out = tmp_path / "filtered"
        assert run("filter", "--det-dir", str(det_dir), "--out-dir", str(out), "--threshold-mode", "single:0.38") == 0
        assert (out / "000000.txt").read_bytes() == f"{near_low}\n{near_high}\n".encode()
        pf = tmp_path / "pf"
        model = write_json(tmp_path / "model.json", {"alpha": 0.0, "beta": -0.01, "gamma": 0.8, "delta": 40.0, "k": 0.3})
        assert run("filter", "--det-dir", str(det_dir), "--out-dir", str(pf), "--threshold-mode", f"adaptive:{model}") == 0
        assert (pf / "000000.txt").read_bytes() == f"{near_high}\n{far_low}\n".encode()

    def test_filter_none_copies_synth_output_byte_for_byte(self, tmp_path, dataset):
        out = tmp_path / "copy"
        assert run("filter", "--det-dir", str(dataset / "det"), "--out-dir", str(out), "--threshold-mode", "none") == 0
        inputs = sorted((dataset / "det").iterdir())
        assert [p.name for p in inputs] == sorted(p.name for p in out.iterdir())
        assert all((out / p.name).read_bytes() == p.read_bytes() for p in inputs)

    def test_fit_matches_library(self, tmp_path, dataset):
        fit_dir = tmp_path / "fit"
        assert run(
            "fit",
            "--gt-dir", str(dataset / "gt"),
            "--det-dir", str(dataset / "det"),
            "--out-dir", str(fit_dir),
            "--pre-filter", "none",
            "--k", "0.35",
        ) == 0
        samples = [
            (r.ego_distance(), r.score)
            for path in sorted((dataset / "det").glob("*.txt"))
            for r in map(constructed, path.read_text().splitlines())
            if r.class_name == "Car"
        ]
        stats = compute_bin_stats(samples, BinSpec())
        expected = fit_quadratic(stats, BinSpec(), delta=60.0, k=0.35)
        written = ThresholdModel.from_dict(json.loads((fit_dir / "model.json").read_text()))
        assert written.alpha == pytest.approx(expected.model.alpha, abs=1e-12)
        assert written.beta == pytest.approx(expected.model.beta, abs=1e-12)
        assert written.gamma == pytest.approx(expected.model.gamma, abs=1e-12)

    def test_refit_after_filtering_shifts_the_curve(self, tmp_path, dataset):
        # Filtering truncates each bin's score distribution from below,
        # so a refit on its own output must not reproduce the model.
        fit_dir = tmp_path / "fit"
        assert run(
            "fit",
            "--gt-dir", str(dataset / "gt"),
            "--det-dir", str(dataset / "det"),
            "--out-dir", str(fit_dir),
            "--pre-filter", "none",
        ) == 0
        first = ThresholdModel.from_dict(json.loads((fit_dir / "model.json").read_text()))

        filt_dir = tmp_path / "filtered"
        assert run(
            "filter",
            "--det-dir", str(dataset / "det"),
            "--out-dir", str(filt_dir),
            "--threshold-mode", f"adaptive:{fit_dir / 'model.json'}",
        ) == 0

        refit_dir = tmp_path / "refit"
        assert run(
            "fit",
            "--gt-dir", str(dataset / "gt"),
            "--det-dir", str(filt_dir),
            "--out-dir", str(refit_dir),
            "--pre-filter", "none",
        ) == 0
        second = ThresholdModel.from_dict(json.loads((refit_dir / "model.json").read_text()))
        assert abs(second.gamma - first.gamma) > 1e-6

    def test_synth_deterministic_across_runs(self, tmp_path):
        spec_path = write_json(tmp_path / "scenario.json", scenario_payload(n_frames=8))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run("synth", "--spec", spec_path, "--out-dir", str(out_a)) == 0
        assert run("synth", "--spec", spec_path, "--out-dir", str(out_b)) == 0
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*.txt"))
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*.txt"))
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    def test_synth_writes_pinned_bytes(self, tmp_path):
        # Frame 000002 has no objects and three frames have no detections,
        # so the trees hold empty files of both kinds.
        payload = scenario_payload(n_frames=6, objects_per_frame=[0, 3], fp_rate_per_bin=[0.1] * 6, fn_rate_per_bin=[0.3] * 6)
        spec_path = write_json(tmp_path / "scenario.json", payload)
        assert run("synth", "--spec", spec_path, "--out-dir", str(tmp_path / "o")) == 0
        sizes = {sub: [p.stat().st_size for p in sorted((tmp_path / "o" / sub).iterdir())] for sub in ("gt", "det")}
        assert sizes == {"gt": [267, 402, 0, 397, 136, 136], "det": [141, 287, 0, 847, 0, 0]}
        assert tree_digest(tmp_path / "o" / "gt") == "e984716a5c59727bff1143ad0abbab22fa8d3dc4a0d14c2e51c8e2a8383d4d51"
        assert tree_digest(tmp_path / "o" / "det") == "90d278760ebe07196c954fcdc08da37201d1560fda378a89e1d17fae3d67fba3"

    @pytest.mark.parametrize("mode, iou", list(EVAL_DIGESTS))
    def test_eval_writes_pinned_bytes(self, tmp_path, dataset, monkeypatch, mode, iou):
        monkeypatch.chdir(tmp_path)
        assert eval_digests(tmp_path, dataset, mode, iou) == EVAL_DIGESTS[mode, iou]

    @pytest.mark.parametrize("mode, iou", list(CROWDED_EVAL_DIGESTS))
    def test_eval_writes_pinned_bytes_on_crowded_frames(self, tmp_path, crowded_dataset, monkeypatch, mode, iou):
        monkeypatch.chdir(tmp_path)
        assert eval_digests(tmp_path, crowded_dataset, mode, iou) == CROWDED_EVAL_DIGESTS[mode, iou]

    @pytest.mark.parametrize("flags", list(STATS_FIT_DIGESTS))
    def test_stats_and_fit_write_pinned_bytes(self, tmp_path, dataset, flags):
        assert stats_fit_digests(tmp_path, dataset, flags) == STATS_FIT_DIGESTS[flags]

    @pytest.mark.parametrize("flags", list(CROWDED_STATS_FIT_DIGESTS))
    def test_stats_and_fit_write_pinned_bytes_on_crowded_frames(self, tmp_path, crowded_dataset, flags):
        assert stats_fit_digests(tmp_path, crowded_dataset, flags) == CROWDED_STATS_FIT_DIGESTS[flags]

    def test_synth_manifest_writes_whole_numbers_of_float_fields_as_floats(self, tmp_path):
        payload = scenario_payload(n_frames=2, distance_range=[2, 58], bin_spec={"bin_width": 10, "max_distance": 60})
        spec_path = write_json(tmp_path / "scenario.json", payload)
        assert run("synth", "--spec", spec_path, "--out-dir", str(tmp_path / "o")) == 0
        expected = {**payload, "distance_range": [2.0, 58.0], "bin_spec": {"bin_width": 10.0, "max_distance": 60.0}}
        manifest = (tmp_path / "o" / "manifest.json").read_text(encoding="utf-8")
        assert manifest == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_report_without_stats(self, tmp_path):
        model_path = write_json(
            tmp_path / "model.json",
            ThresholdModel(alpha=-0.00002, beta=-0.0061, gamma=0.6828, k=0.6).to_dict(),
        )
        out = tmp_path / "rpt"
        assert run("report", "--model", model_path, "--out-dir", str(out)) == 0
        assert (out / "threshold_curve.svg").exists()
        assert (out / "summary.md").exists()

    def test_eval_3d_iou_and_difficulty(self, tmp_path, dataset):
        out = tmp_path / "eval3d"
        rc = run(
            "eval",
            "--gt-dir", str(dataset / "gt"),
            "--det-dir", str(dataset / "det"),
            "--out-dir", str(out),
            "--iou", "3d",
            "--difficulty", "easy",
            "--ap", "40",
        )
        assert rc == 0
        payload = json.loads((out / "eval_report.json").read_text())
        assert payload["config"]["iou_kind"] == "3d"
        assert payload["config"]["ap_interpolation"] == "forty_point"
        assert payload["config"]["difficulty"] == "easy"


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path, dataset):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "gt_dir": str(dataset / "gt"),
                "det_dir": str(dataset / "det"),
                "pre_filter": "none",
                "bin_width": 20.0,
            },
        )
        from_config = tmp_path / "from_config"
        assert run("stats", "--config", cfg, "--out-dir", str(from_config)) == 0
        assert json.loads((from_config / "bin_stats.json").read_text())["bin_width"] == 20.0

        from_flag = tmp_path / "from_flag"
        assert run(
            "stats", "--config", cfg, "--out-dir", str(from_flag), "--bin-width", "30"
        ) == 0
        assert json.loads((from_flag / "bin_stats.json").read_text())["bin_width"] == 30.0

        no_cfg = tmp_path / "default"
        assert run(
            "stats",
            "--gt-dir", str(dataset / "gt"),
            "--det-dir", str(dataset / "det"),
            "--pre-filter", "none",
            "--out-dir", str(no_cfg),
        ) == 0
        assert json.loads((no_cfg / "bin_stats.json").read_text())["bin_width"] == 10.0

    @pytest.mark.parametrize("key", ["class_name", "bin_width", "pre_filter", "normalized_std"])
    def test_a_null_config_value_is_not_given(self, tmp_path, dataset, capsys, key):
        io = {"gt_dir": str(dataset / "gt"), "det_dir": str(dataset / "det")}
        for name, payload in (("absent", io), ("null", {**io, key: None})):
            cfg = write_json(tmp_path / f"{name}.json", payload)
            assert run("stats", "--config", cfg, "--out-dir", str(tmp_path / name)) == 0
        out = capsys.readouterr().out
        assert out.count("binned 91 Car detections into 6 bins") == 2
        for name in ("bin_stats.json", "bin_stats.csv"):
            assert (tmp_path / "null" / name).read_bytes() == (tmp_path / "absent" / name).read_bytes()

    def test_a_null_required_config_value_is_missing(self, tmp_path, dataset, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"gt_dir": None, "det_dir": str(dataset / "det")})
        assert run("stats", "--config", cfg, "--out-dir", str(tmp_path / "o")) == 1
        assert "missing required option --gt-dir (or config key 'gt_dir')" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestExitCodes:
    def test_missing_required_option_is_usage_error(self, tmp_path, capsys):
        assert run("stats", "--out-dir", str(tmp_path)) == 1
        assert "--gt-dir" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_bad_pre_filter_spec(self, tmp_path, dataset):
        rc = run(
            "stats",
            "--gt-dir", str(dataset / "gt"),
            "--det-dir", str(dataset / "det"),
            "--out-dir", str(tmp_path / "o"),
            "--pre-filter", "not-a-filter",
        )
        assert rc == 1

    @pytest.mark.parametrize("mode", ["single:1.5", "single:abc", "bogus:1", "adaptive:"])
    def test_bad_threshold_mode(self, tmp_path, dataset, mode):
        rc = run(
            "filter",
            "--det-dir", str(dataset / "det"),
            "--out-dir", str(tmp_path / "o"),
            "--threshold-mode", mode,
        )
        assert rc == 1

    def test_missing_directories(self, tmp_path):
        rc = run(
            "stats",
            "--gt-dir", str(tmp_path / "nope_gt"),
            "--det-dir", str(tmp_path / "nope_det"),
            "--out-dir", str(tmp_path / "o"),
        )
        assert rc == 2

    def test_orphan_detection_file(self, tmp_path, capsys):
        gt_dir = tmp_path / "gt"
        det_dir = tmp_path / "det"
        write_label(gt_dir / "000000.txt", [make_record(0.0, 10.0)])
        write_label(det_dir / "000000.txt", [make_record(0.0, 10.0, score=0.9)])
        write_label(det_dir / "000042.txt", [make_record(0.0, 12.0, score=0.8)])
        rc = run(
            "eval",
            "--gt-dir", str(gt_dir),
            "--det-dir", str(det_dir),
            "--out-dir", str(tmp_path / "o"),
        )
        assert rc == 2
        assert "000042" in capsys.readouterr().err

    def test_two_files_of_one_frame_id(self, tmp_path, capsys):
        for sub, score in (("gt", None), ("det", 0.9)):
            for name in (".txt", ".txt.txt"):
                write_label(tmp_path / sub / name, [make_record(0.0, 10.0, score=score)])
        io = ("--gt-dir", str(tmp_path / "gt"), "--det-dir", str(tmp_path / "det"))
        assert run("eval", *io, "--out-dir", str(tmp_path / "o")) == 2
        assert "have the same frame id '.txt'" in capsys.readouterr().err
        filtered = ("--det-dir", str(tmp_path / "det"), "--out-dir", str(tmp_path / "f"), "--threshold-mode", "none")
        assert run("filter", *filtered) == 2
        assert str(tmp_path / "det" / ".txt.txt") in capsys.readouterr().err
        assert not (tmp_path / "o").exists() and not (tmp_path / "f").exists()

    def test_parse_error_names_file_and_line(self, tmp_path, capsys):
        det_dir = tmp_path / "det"
        det_dir.mkdir()
        good = label_text([make_record(0.0, 10.0, score=0.9)])
        (det_dir / "000000.txt").write_text(good + "Car not a number\n")
        rc = run(
            "filter",
            "--det-dir", str(det_dir),
            "--out-dir", str(tmp_path / "o"),
            "--threshold-mode", "none",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "000000.txt" in err
        assert "line 2" in err

    def test_every_command_names_the_first_bad_file_in_frame_order(self, tmp_path, capsys):
        # "a-b.txt" sorts before "a.txt" by name but after it by frame id.
        line = label_text([make_record(0.0, 10.0, score=0.9)]).replace("\n", " 0.5\n")
        (tmp_path / "det").mkdir()
        for frame_id in ("a", "a-b"):
            write_label(tmp_path / "gt" / f"{frame_id}.txt", [make_record(0.0, 10.0)])
            (tmp_path / "det" / f"{frame_id}.txt").write_text(line, encoding="utf-8")
        data = ("--gt-dir", str(tmp_path / "gt"), "--det-dir", str(tmp_path / "det"))
        message = f"{tmp_path / 'det' / 'a.txt'}: line 1: expected 15 or 16 fields, got 17"
        for argv in (
            ("stats", *data),
            ("fit", *data),
            ("filter", "--det-dir", str(tmp_path / "det"), "--threshold-mode", "none"),
            ("eval", *data),
        ):
            assert run(*argv, "--out-dir", str(tmp_path / "o")) == 2
            assert capsys.readouterr().err == f"adathresh: error: {message}\n", argv[0]
        assert not (tmp_path / "o").exists()

    def test_label_file_that_is_not_utf8_is_a_data_error_naming_it(self, tmp_path, capsys):
        det_dir = tmp_path / "det"
        det_dir.mkdir()
        (det_dir / "000000.txt").write_bytes(b"\xff\n")
        rc = run("filter", "--det-dir", str(det_dir), "--out-dir", str(tmp_path / "o"), "--threshold-mode", "none")
        assert rc == 2
        assert "000000.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["model", "config", "scenario", "stats", "report"])
    def test_json_file_that_is_not_utf8_is_a_data_error_naming_it(self, tmp_path, capsys, kind):
        bad = tmp_path / f"bad_{kind}.json"
        bad.write_bytes(b"\xff{}")
        model = write_json(tmp_path / "model.json", ThresholdModel(0.0, 0.0, 0.5, 60.0, 0.5).to_dict())
        out = ("--out-dir", str(tmp_path / "o"))
        argv = {
            "model": ["report", "--model", str(bad), *out],
            "config": ["stats", "--config", str(bad), *out],
            "scenario": ["synth", "--spec", str(bad), *out],
            "stats": ["report", "--model", model, "--stats", str(bad), *out],
            "report": ["compare", str(bad), str(bad), *out],
        }[kind]
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith(f"adathresh: error: cannot read {kind} file {bad}: 'utf-8' codec")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["model", "config", "scenario", "stats", "report"])
    @pytest.mark.parametrize("value", [[], 5, "x", None, True])
    def test_json_file_that_holds_no_object_is_a_data_error_naming_it(self, tmp_path, capsys, kind, value):
        bad = write_json(tmp_path / f"bad_{kind}.json", value)
        model = write_json(tmp_path / "model.json", ThresholdModel(0.0, 0.0, 0.5, 60.0, 0.5).to_dict())
        out = ("--out-dir", str(tmp_path / "o"))
        argv = {
            "model": ["report", "--model", bad, *out],
            "config": ["stats", "--config", bad, *out],
            "scenario": ["synth", "--spec", bad, *out],
            "stats": ["report", "--model", model, "--stats", bad, *out],
            "report": ["compare", bad, bad, *out],
        }[kind]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert f"{kind} file {bad}" in err and "JSON object" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "delta, rc, message",
        [
            (5000.0, 0, ""),  # 10,000 curve samples every 0.5 m
            (5000.5, 2, "plot ticks or curve samples, more than 10000"),
            (1e9, 2, "plot ticks or curve samples, more than 10000"),
            (math.inf, 3, "delta must be finite, got inf"),
        ],
    )
    def test_report_of_a_far_delta_returns(self, tmp_path, capsys, delta, rc, message):
        # A flat curve stays within [0, 1] at any delta, and the plot's axis
        # ticks and curve samples run out to delta.
        model = write_json(tmp_path / "model.json", {"alpha": 0.0, "beta": 0.0, "gamma": 0.5, "delta": delta, "k": 0.5})
        assert run("report", "--model", model, "--out-dir", str(tmp_path / "o")) == rc
        err = capsys.readouterr().err
        assert message in err
        assert (f"model file {model} cannot be plotted" in err) == (rc == 2)
        assert (tmp_path / "o").exists() == (rc == 0)

    def test_json_files_drop_one_leading_byte_order_mark(self, tmp_path, dataset, capsys):
        # As label files do: the rest is read as if the mark were not there.
        model = ThresholdModel(0.0, 0.0, 0.5, 60.0, 0.5).to_dict()
        config = {"gt_dir": str(dataset / "gt"), "det_dir": str(dataset / "det")}
        for name, payload in (("model", model), ("cfg", config)):
            path = Path(write_json(tmp_path / f"{name}.json", payload))
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run("report", "--model", str(tmp_path / "model.json"), "--out-dir", str(tmp_path / "r")) == 0
        assert run("stats", "--config", str(tmp_path / "cfg.json"), "--out-dir", str(tmp_path / "s")) == 0
        (tmp_path / "model.json").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "model.json").read_bytes())
        assert run("report", "--model", str(tmp_path / "model.json"), "--out-dir", str(tmp_path / "r")) == 2
        assert f"model file {tmp_path / 'model.json'} is not valid JSON" in capsys.readouterr().err

    def test_corrupt_model_file(self, tmp_path, dataset):
        bad = tmp_path / "model.json"
        bad.write_text("{not json")
        rc = run(
            "filter",
            "--det-dir", str(dataset / "det"),
            "--out-dir", str(tmp_path / "o"),
            "--threshold-mode", f"adaptive:{bad}",
        )
        assert rc == 2

    def test_bad_value_in_model_file_is_a_data_error_naming_it(self, tmp_path, dataset, capsys):
        bad = write_json(
            tmp_path / "model.json",
            {"alpha": "abc", "beta": 0.0, "gamma": 0.5, "delta": 60.0, "k": 0.5},
        )
        rc = run(
            "filter",
            "--det-dir", str(dataset / "det"),
            "--out-dir", str(tmp_path / "o"),
            "--threshold-mode", f"adaptive:{bad}",
        )
        assert rc == 2
        assert f"model file {bad}" in capsys.readouterr().err

    def test_bad_value_in_scenario_file_is_a_data_error_naming_it(self, tmp_path, capsys):
        score_model = scenario_payload()["score_model"]
        non_finite = [("a", math.inf), ("b", -math.inf), ("c", math.nan), ("noise_std", [0.02] * 5 + [math.nan])]
        for overrides in (
            {"n_frames": 0},
            {"n_frames": math.inf},  # not an integral number
            *({"seed": seed} for seed in (-1, 1.5, True, "1")),
            *({"score_model": {**score_model, field: value}} for field, value in non_finite),
            {"score_model": {**score_model, "c": True}},  # a float field takes only a number
            {"distance_range": ["2", "58"]},
        ):
            bad = write_json(tmp_path / "scenario.json", scenario_payload(**overrides))
            assert run("synth", "--spec", bad, "--out-dir", str(tmp_path / "o")) == 2, overrides
            assert f"scenario file {bad}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_value_in_report_file_is_a_data_error_naming_it(self, tmp_path, dataset, capsys):
        good = tmp_path / "eval" / "eval_report.json"
        common = ("--gt-dir", str(dataset / "gt"), "--det-dir", str(dataset / "det"))
        assert run("eval", *common, "--out-dir", str(good.parent)) == 0
        payload = json.loads(good.read_text(encoding="utf-8"))
        payload["config"]["iou_kind"] = "2d"
        bad = write_json(tmp_path / "bad_report.json", payload)
        assert run("compare", str(good), bad, "--out-dir", str(tmp_path / "cmp")) == 2
        assert f"report file {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["bin_widht", "jobs", "config"])
    def test_unknown_config_key_is_a_usage_error_naming_it(self, tmp_path, dataset, capsys, key):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"gt_dir": str(dataset / "gt"), "det_dir": str(dataset / "det"), key: 5},
        )
        assert run("stats", "--config", cfg, "--out-dir", str(tmp_path / "o")) == 1
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_keys_are_the_commands_options(self, tmp_path, dataset):
        cfg = write_json(tmp_path / "cfg.json", {"det_dir": str(dataset / "det"), "gt_dir": "gt"})
        # filter has no --gt-dir.
        assert run("filter", "--config", cfg, "--out-dir", str(tmp_path / "o"), "--threshold-mode", "none") == 1

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_model_parameter_exits_3(self, tmp_path, dataset, capsys, name, value):
        params = {"alpha": 0.0, "beta": 0.0, "gamma": 0.5, "delta": 60.0, "k": 0.5, name: value}
        bad = write_json(tmp_path / "model.json", params)  # json writes NaN and Infinity
        rc = run(
            "filter",
            "--det-dir", str(dataset / "det"),
            "--out-dir", str(tmp_path / "o"),
            "--threshold-mode", f"adaptive:{bad}",
        )
        assert rc == 3
        assert f"{name} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", ["nan", "inf"])
    def test_non_finite_pre_filter_cutoff(self, tmp_path, dataset, capsys, cutoff):
        io_flags = ("--gt-dir", str(dataset / "gt"), "--det-dir", str(dataset / "det"))
        assert run("stats", *io_flags, "--out-dir", str(tmp_path / "o"), "--pre-filter", f"{cutoff}:0.3:0.5") == 1
        assert "distance_cutoff must be finite" in capsys.readouterr().err
        for value in (f"{cutoff}:0.3:0.5", {"distance_cutoff": float(cutoff), "low_threshold": 0.3, "high_threshold": 0.5}):
            cfg = write_json(tmp_path / "cfg.json", {"pre_filter": value})
            assert run("stats", *io_flags, "--config", cfg, "--out-dir", str(tmp_path / "o")) == 2
            err = capsys.readouterr().err
            assert f"config file {cfg}" in err and "distance_cutoff must be finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("stats", "bin_width", -5, "bin_width must be positive"),
            ("stats", "gt_dir", 5, ""),
            ("stats", "max_distance", 25, "not a multiple of bin_width"),
            ("stats", "pre_filter", "1:2", "expected 'CUTOFF:LOW:HIGH'"),
            ("fit", "delta", "far", ""),
            ("fit", "k", [0.5], "expected a number or 'continuity'"),
            ("fit", "sigma_floor", -1, "sigma_floor must be finite and positive"),
            ("filter", "threshold_mode", "single:abc", ""),
            ("eval", "iou_thr", "abc", "could not convert string to float: 'abc'"),
            ("eval", "iou", "2d", ""),
            ("eval", "ap", 12, "expected 11 or 40"),
            ("eval", "difficulty", "extreme", ""),
            ("eval", "class_name", "", "class_name must be non-empty"),
            ("eval", "threshold_mode", "bogus:1", "unknown threshold mode"),
            ("synth", "spec", 5, ""),
            ("report", "stats", 5, ""),
        ],
    )
    def test_bad_config_value_is_a_data_error_naming_the_file(
        self, tmp_path, dataset, capsys, command, key, value, message
    ):
        model = write_json(tmp_path / "model.json", ThresholdModel(0.0, 0.0, 0.5, 60.0, 0.5).to_dict())
        options = {
            "filter": {"det_dir": str(dataset / "det")},
            "synth": {},
            "report": {"model": model},
        }.get(command, {"gt_dir": str(dataset / "gt"), "det_dir": str(dataset / "det")})
        cfg = write_json(tmp_path / "cfg.json", {**options, "out_dir": str(tmp_path / "o"), key: value})
        assert run(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert f"config file {cfg} has a bad {key} value" in err and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["stats", "fit", "eval"])
    @pytest.mark.parametrize(
        "value, message",
        [
            (["Car"], "expected a string, got ['Car']"),
            (5, "expected a string, got 5"),
            (True, "expected a string, got True"),
            ({"a": 1}, "expected a string, got {'a': 1}"),
            ("", "class_name must be non-empty"),
            ("Car ", "class_name must be one label token without whitespace, got 'Car '"),
        ],
    )
    def test_class_name_that_no_label_line_can_hold_is_rejected(self, tmp_path, dataset, capsys, command, value, message):
        # None of these can equal the class token of a label line.
        io = {"gt_dir": str(dataset / "gt"), "det_dir": str(dataset / "det"), "out_dir": str(tmp_path / "o")}
        cfg = write_json(tmp_path / "cfg.json", {**io, "class_name": value})
        assert run(command, "--config", cfg) == 2
        assert f"config file {cfg} has a bad class_name value: {message}" in capsys.readouterr().err
        if isinstance(value, str):
            flags = ["--gt-dir", io["gt_dir"], "--det-dir", io["det_dir"], "--out-dir", io["out_dir"]]
            assert run(command, *flags, "--class", value) == 1
            assert f"bad --class value: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_value_as_a_flag_stays_a_usage_error(self, tmp_path, dataset, capsys):
        io_flags = ("--gt-dir", str(dataset / "gt"), "--det-dir", str(dataset / "det"))
        assert run("stats", *io_flags, "--out-dir", str(tmp_path / "o"), "--bin-width", "-5") == 1
        assert "bin_width must be positive" in capsys.readouterr().err
        assert run("eval", *io_flags, "--out-dir", str(tmp_path / "o"), "--iou-thr", "abc") == 1
        assert "--iou-thr" in capsys.readouterr().err
        # A flag overrides the config file's value, good or bad.
        cfg = write_json(tmp_path / "cfg.json", {"bin_width": 20.0})
        assert run("stats", *io_flags, "--config", cfg, "--out-dir", str(tmp_path / "o"), "--bin-width", "-5") == 1
        cfg = write_json(tmp_path / "cfg.json", {"bin_width": -5})
        assert run("stats", *io_flags, "--config", cfg, "--out-dir", str(tmp_path / "o"), "--bin-width", "20") == 0

    @pytest.mark.parametrize("command", ["stats", "fit", "eval"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--bin-width", "1e-300"), "gives 6e+301 bins, more than 10000"),
            (("--bin-width", "1e-3", "--max-distance", "1e6"), "gives 1e+09 bins, more than 10000"),
            (("--max-distance", "nan"), "must be finite"),
            (("--bin-width", "inf"), "must be finite"),
        ],
    )
    def test_bin_count_out_of_bounds_as_a_flag_is_a_usage_error(self, tmp_path, dataset, capsys, command, flags, message):
        io_flags = ("--gt-dir", str(dataset / "gt"), "--det-dir", str(dataset / "det"))
        assert run(command, *io_flags, "--out-dir", str(tmp_path / "o"), *flags) == 1
        err = capsys.readouterr().err
        assert "bad --" in err and message in err
        assert not (tmp_path / "o").exists()

    def test_bin_count_out_of_bounds_in_a_file_is_a_data_error_naming_it(self, tmp_path, dataset, capsys):
        huge = {"bin_width": 1e-3, "max_distance": 1e6}
        io = {"gt_dir": str(dataset / "gt"), "det_dir": str(dataset / "det")}
        cfg = write_json(tmp_path / "cfg.json", {**io, **huge})
        assert run("stats", "--config", cfg, "--out-dir", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"config file {cfg}" in err and "1e+09 bins" in err

        assert run("stats", "--gt-dir", io["gt_dir"], "--det-dir", io["det_dir"], "--out-dir", str(tmp_path)) == 0
        payload = {**json.loads((tmp_path / "bin_stats.json").read_text()), **huge}
        stats = write_json(tmp_path / "bad_stats.json", payload)
        model = write_json(tmp_path / "model.json", ThresholdModel(0.0, 0.0, 0.5, 60.0, 0.5).to_dict())
        assert run("report", "--model", model, "--stats", stats, "--out-dir", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"stats file {stats}" in err and "1e+09 bins" in err

        spec = write_json(tmp_path / "scenario.json", scenario_payload(bin_spec=huge))
        assert run("synth", "--spec", spec, "--out-dir", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"scenario file {spec}" in err and "1e+09 bins" in err
        assert not (tmp_path / "o").exists()

    def test_corrupt_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        assert run("stats", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 2

    def test_compare_config_mismatch(self, tmp_path, dataset):
        base_dir = tmp_path / "a"
        other_dir = tmp_path / "b"
        common = (
            "--gt-dir", str(dataset / "gt"),
            "--det-dir", str(dataset / "det"),
        )
        assert run("eval", *common, "--out-dir", str(base_dir)) == 0
        assert run("eval", *common, "--out-dir", str(other_dir), "--iou-thr", "0.5") == 0
        rc = run(
            "compare",
            str(base_dir / "eval_report.json"),
            str(other_dir / "eval_report.json"),
            "--out-dir", str(tmp_path / "cmp"),
        )
        assert rc == 2

    def test_fit_with_too_few_bins(self, tmp_path):
        gt_dir = tmp_path / "gt"
        det_dir = tmp_path / "det"
        write_label(gt_dir / "000000.txt", [])
        write_label(
            det_dir / "000000.txt",
            [
                make_record(0.0, 5.0, score=0.9),
                make_record(0.0, 6.0, score=0.85),
                make_record(0.0, 15.0, score=0.7),
            ],
        )
        rc = run(
            "fit",
            "--gt-dir", str(gt_dir),
            "--det-dir", str(det_dir),
            "--out-dir", str(tmp_path / "o"),
            "--pre-filter", "none",
        )
        assert rc == 3

    @pytest.mark.parametrize("sigma_floor", ["nan", "inf", "0", "-1"])
    def test_fit_with_sigma_floor_that_is_not_finite_and_positive(self, tmp_path, dataset, capsys, sigma_floor):
        rc = run(
            "fit",
            "--gt-dir", str(dataset / "gt"),
            "--det-dir", str(dataset / "det"),
            "--out-dir", str(tmp_path / "o"),
            f"--sigma-floor={sigma_floor}",
        )
        assert rc == 1
        assert "sigma_floor must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, flag_value, config_value, message",
        [
            ("k", "2", 2, "k must be within [0, 1], got 2.0"),
            ("k", "-0.5", -0.5, "k must be within [0, 1], got -0.5"),
            ("k", "nan", math.nan, "k must be within [0, 1], got nan"),
            ("delta", "-1", -1, "delta must be finite and positive, got -1.0"),
            ("delta", "nan", math.nan, "delta must be finite and positive, got nan"),
            ("delta", "inf", math.inf, "delta must be finite and positive, got inf"),
        ],
    )
    def test_fit_with_k_or_delta_out_of_range(self, tmp_path, dataset, capsys, key, flag_value, config_value, message):
        # A bad value, named as a flag (exit 1) or with its config file (exit 2), not a numerical failure.
        io = {"gt_dir": str(dataset / "gt"), "det_dir": str(dataset / "det"), "out_dir": str(tmp_path / "o")}
        flags = ["--gt-dir", io["gt_dir"], "--det-dir", io["det_dir"], "--out-dir", io["out_dir"]]
        assert run("fit", *flags, f"--{key}", flag_value) == 1
        assert f"bad --{key} value: {message}" in capsys.readouterr().err
        cfg = write_json(tmp_path / "cfg.json", {**io, key: config_value})
        assert run("fit", "--config", cfg) == 2
        assert f"config file {cfg} has a bad {key} value: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, key",
        [(command, key) for command in ("stats", "fit", "eval") for key in ("bin_width", "max_distance")]
        + [("fit", "delta"), ("fit", "k"), ("fit", "sigma_floor"), ("eval", "iou_thr")],
    )
    @pytest.mark.parametrize("value", [True, False])
    def test_a_json_boolean_is_not_a_real_value(self, tmp_path, dataset, capsys, command, key, value):
        io = {"gt_dir": str(dataset / "gt"), "det_dir": str(dataset / "det"), "out_dir": str(tmp_path / "o")}
        cfg = write_json(tmp_path / "cfg.json", {**io, key: value})
        assert run(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert f"config file {cfg} has a bad {key} value: expected a number" in err and f"got {value}" in err
        assert not (tmp_path / "o").exists()

    def test_fit_leaving_unit_interval(self, tmp_path):
        # Means 0.9 / 0.5 / 0.1 at 5 / 15 / 25 m extrapolate to 1.1 at
        # zero distance, which the model rejects.
        gt_dir = tmp_path / "gt"
        det_dir = tmp_path / "det"
        write_label(gt_dir / "000000.txt", [])
        write_label(
            det_dir / "000000.txt",
            [
                make_record(0.0, 5.0, score=0.9),
                make_record(0.0, 15.0, score=0.5),
                make_record(0.0, 25.0, score=0.1),
            ],
        )
        rc = run(
            "fit",
            "--gt-dir", str(gt_dir),
            "--det-dir", str(det_dir),
            "--out-dir", str(tmp_path / "o"),
            "--pre-filter", "none",
            "--bin-width", "10",
            "--max-distance", "30",
            "--delta", "30",
            "--k", "continuity",
        )
        assert rc == 3

    def test_out_of_range_model_file(self, tmp_path, dataset):
        bad = write_json(
            tmp_path / "model.json",
            {"alpha": 0.0, "beta": 0.0, "gamma": 1.2, "delta": 60.0, "k": 0.5},
        )
        rc = run(
            "filter",
            "--det-dir", str(dataset / "det"),
            "--out-dir", str(tmp_path / "o"),
            "--threshold-mode", f"adaptive:{bad}",
        )
        assert rc == 3

    @pytest.mark.parametrize("command", ["report", "filter", "eval"])
    def test_out_of_range_model_file_exits_3_naming_it(self, tmp_path, dataset, capsys, command):
        bad = write_json(tmp_path / "model.json", {"alpha": 0.0, "beta": 0.0, "gamma": 0.5, "delta": 60.0, "k": 1.5})
        io = ("--det-dir", str(dataset / "det"), "--out-dir", str(tmp_path / "o"))
        argv = {
            "report": ("report", "--model", bad, "--out-dir", str(tmp_path / "o")),
            "filter": ("filter", *io, "--threshold-mode", f"adaptive:{bad}"),
            "eval": ("eval", "--gt-dir", str(dataset / "gt"), *io, "--threshold-mode", f"adaptive:{bad}"),
        }[command]
        assert run(*argv) == 3
        assert f"model file {bad}: k must be within [0, 1], got 1.5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [("stats",), ("stats", "--normalized-std"), ("fit",)])
    def test_a_bin_whose_mean_or_std_overflows_exits_3_naming_it(self, tmp_path, capsys, command):
        write_label(tmp_path / "gt" / "000000.txt", [make_record(1.0, 10.0)])
        write_label(tmp_path / "det" / "000000.txt", [make_record(1.0, 10.0, score=1e308), make_record(5.0, 12.0, score=1e308)])
        io = ("--gt-dir", str(tmp_path / "gt"), "--det-dir", str(tmp_path / "det"), "--out-dir", str(tmp_path / "o"))
        assert run(*command, *io) == 3
        assert "bin 1 [10, 20) m: the mean or std of its 2 scores is not finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, value", [("mean", math.nan), ("mean", math.inf), ("std", math.nan), ("std", math.inf)])
    def test_stats_file_with_a_mean_or_std_that_is_not_finite_is_a_data_error_naming_it(
        self, tmp_path, dataset, capsys, field, value
    ):
        assert run("stats", "--gt-dir", str(dataset / "gt"), "--det-dir", str(dataset / "det"), "--out-dir", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "bin_stats.json").read_text())
        payload["bins"][1][field] = value
        stats = write_json(tmp_path / "bad_stats.json", payload)  # json writes NaN and Infinity
        model = write_json(tmp_path / "model.json", ThresholdModel(0.0, 0.0, 0.5, 60.0, 0.5).to_dict())
        assert run("report", "--model", model, "--stats", stats, "--out-dir", str(tmp_path / "rpt")) == 2
        assert f"stats file {stats} has a missing or bad value: {field} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "rpt").exists()

    @pytest.mark.parametrize("value", ["false", "no", "true", 0, 1])
    def test_config_switch_must_be_a_json_boolean(self, tmp_path, dataset, capsys, value):
        io = {"gt_dir": str(dataset / "gt"), "det_dir": str(dataset / "det")}
        cfg = write_json(tmp_path / "cfg.json", {**io, "normalized_std": value})
        assert run("stats", "--config", cfg, "--out-dir", str(tmp_path / "o")) == 2
        assert f"config file {cfg} has a bad normalized_std value" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        for switch in (False, True):
            cfg = write_json(tmp_path / "cfg.json", {**io, "normalized_std": switch})
            assert run("stats", "--config", cfg, "--out-dir", str(tmp_path / "o")) == 0
            assert json.loads((tmp_path / "o" / "bin_stats.json").read_text())["normalized_std"] is switch

    @pytest.mark.parametrize("change", ["bin_index", "bin_width"])
    def test_stats_file_with_a_bin_outside_its_spec_is_a_data_error_naming_it(self, tmp_path, dataset, capsys, change):
        assert run("stats", "--gt-dir", str(dataset / "gt"), "--det-dir", str(dataset / "det"), "--out-dir", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "bin_stats.json").read_text())
        if change == "bin_index":
            payload["bins"][2]["bin_index"] = 99
        else:
            payload["bin_width"] = 20
        stats = write_json(tmp_path / "bad_stats.json", payload)
        model = write_json(tmp_path / "model.json", ThresholdModel(0.0, 0.0, 0.5, 60.0, 0.5).to_dict())
        assert run("report", "--model", model, "--stats", stats, "--out-dir", str(tmp_path / "rpt")) == 2
        err = capsys.readouterr().err
        assert f"stats file {stats}" in err and "out of range" in err
        assert not (tmp_path / "rpt").exists()

    def test_stats_file_with_a_normalized_std_is_a_data_error_naming_it(self, tmp_path, dataset, capsys):
        # report draws each bin's std as a band in score units; a std divided
        # by its mean is not one.
        io = ("--gt-dir", str(dataset / "gt"), "--det-dir", str(dataset / "det"))
        assert run("stats", *io, "--out-dir", str(tmp_path / "s"), "--normalized-std") == 0
        stats = tmp_path / "s" / "bin_stats.json"
        model = write_json(tmp_path / "model.json", ThresholdModel(0.0, 0.0, 0.5, 60.0, 0.5).to_dict())
        assert run("report", "--model", model, "--stats", str(stats), "--out-dir", str(tmp_path / "rpt")) == 2
        err = capsys.readouterr().err
        assert f"stats file {stats} has a missing or bad value" in err and "normalized_std is true" in err
        assert not (tmp_path / "rpt").exists()

    def test_eval_has_no_pre_filter(self, tmp_path, dataset, capsys):
        # eval counts every detection; a pre-filter shapes only stats and fit.
        io = ("--gt-dir", str(dataset / "gt"), "--det-dir", str(dataset / "det"), "--out-dir", str(tmp_path / "o"))
        assert run("eval", *io, "--pre-filter", "none") == 1
        assert "unrecognized arguments: --pre-filter none" in capsys.readouterr().err
        cfg = write_json(tmp_path / "cfg.json", {"pre_filter": "none"})
        assert run("eval", *io, "--config", cfg) == 1
        assert f"config file {cfg} has keys that name no eval option: 'pre_filter'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["stats", "eval"])
    def test_a_failed_second_file_leaves_the_out_dir_as_it_was(self, tmp_path, dataset, monkeypatch, capsys, command):
        """A command's report files are written in one staged call: a new
        --out-dir gets none of them, and an existing one keeps its files."""
        names = {"stats": ["bin_stats.csv", "bin_stats.json"], "eval": ["eval_report.csv", "eval_report.json"]}[command]
        old = tmp_path / "old"
        old.mkdir()
        for name in names:
            (old / name).write_text("old\n")
        created = []
        real_open = os.open

        def failing_open(path, flags, *args, **kwargs):
            if flags & os.O_CREAT:
                created.append(path)
                if len(created) == 2:
                    raise OSError("disk full")
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", failing_open)
        io = ("--gt-dir", str(dataset / "gt"), "--det-dir", str(dataset / "det"))
        for out in (tmp_path / "new", old):
            created.clear()
            assert run(command, *io, "--out-dir", str(out)) == 2
            assert capsys.readouterr().err == "adathresh: error: disk full\n"
            assert len(created) == 2
        assert not (tmp_path / "new").exists()
        assert {p.name: p.read_text() for p in old.iterdir()} == dict.fromkeys(names, "old\n")
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_a_failed_synth_write_leaves_no_out_dir(self, tmp_path, monkeypatch, capsys):
        """synth stages gt/, det/ and manifest.json as one tree: when the
        first file of det/ cannot be created, a new --out-dir gets none of
        them, gt/ included."""
        spec_path = write_json(tmp_path / "scenario.json", scenario_payload(n_frames=3))
        created = []
        real_open = os.open

        def failing_open(path, flags, *args, **kwargs):
            if flags & os.O_CREAT:
                created.append(Path(path))
                if len(created) == 4:
                    raise OSError("disk full")
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", failing_open)
        assert run("synth", "--spec", spec_path, "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == "adathresh: error: disk full\n"
        assert [p.parent.name + "/" + p.name for p in created] == [
            "gt/000000.txt", "gt/000001.txt", "gt/000002.txt", "det/000000.txt"
        ]
        assert not (tmp_path / "out").exists()
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_eval_of_the_dontcare_class_has_no_ground_truth(self, tmp_path, capsys):
        dont_care = make_record(0.0, 30.0, class_name="DontCare", dims=(-1.0, -1.0, -1.0))
        write_label(tmp_path / "gt" / "000000.txt", [make_record(0.0, 10.0), dont_care])
        write_label(tmp_path / "det" / "000000.txt", [make_record(0.0, 10.0, score=0.9), replace(dont_care, score=0.5)])
        common = ("--gt-dir", str(tmp_path / "gt"), "--det-dir", str(tmp_path / "det"), "--out-dir", str(tmp_path / "o"))
        assert run("eval", *common, "--class", "DontCare") == 2
        assert "average precision is undefined without ground truth" in capsys.readouterr().err

    def test_any_other_value_error_is_a_data_error(self, tmp_path, dataset, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise ValueError("no such statistic")

        monkeypatch.setattr(cli, "compute_bin_stats", fail)
        rc = run("stats", "--gt-dir", str(dataset / "gt"), "--det-dir", str(dataset / "det"), "--out-dir", str(tmp_path))
        assert rc == 2
        assert capsys.readouterr().err == "adathresh: error: no such statistic\n"


class TestGroundTruthIsListedNotRead:
    """stats and fit take their frame set from gt/'s file names and open no
    file there; eval reads and checks every one."""

    def test_stats_and_fit_pass_over_bad_ground_truth_that_eval_rejects(self, tmp_path, dataset, capsys):
        (dataset / "gt" / "000003.txt").write_bytes(b"\xff\xfe not UTF-8\n")
        (dataset / "gt" / "000007.txt").write_text("Car 1 2\n", encoding="utf-8")
        assert stats_fit_digests(tmp_path, dataset, ()) == STATS_FIT_DIGESTS[()]
        capsys.readouterr()
        data = ("--gt-dir", str(dataset / "gt"), "--det-dir", str(dataset / "det"))
        assert run("eval", *data, "--out-dir", str(tmp_path / "e")) == 2
        assert f"cannot read {dataset / 'gt' / '000003.txt'}" in capsys.readouterr().err
        (dataset / "gt" / "000003.txt").write_bytes(b"")
        assert run("eval", *data, "--out-dir", str(tmp_path / "e")) == 2
        assert f"{dataset / 'gt' / '000007.txt'}: line 1: expected 15 or 16 fields" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_only_eval_opens_a_ground_truth_file(self, tmp_path, dataset, monkeypatch):
        opened = []
        read_text = kitti_io._read_text
        monkeypatch.setattr(kitti_io, "_read_text", lambda path: opened.append(Path(path)) or read_text(path))
        for command in ("stats", "fit", "eval"):
            opened.clear()
            data = ("--gt-dir", str(dataset / "gt"), "--det-dir", str(dataset / "det"))
            assert run(command, *data, "--out-dir", str(tmp_path / command)) == 0
            read_dirs = {path.parent for path in opened}
            assert read_dirs == ({dataset / "gt", dataset / "det"} if command == "eval" else {dataset / "det"})

    @pytest.mark.parametrize("command", ["stats", "fit"])
    @pytest.mark.parametrize("case", ["orphan", "missing", "same frame id"])
    def test_the_frame_set_is_checked_as_eval_checks_it(self, tmp_path, capsys, command, case):
        gt_dir, det_dir = tmp_path / "gt", tmp_path / "det"
        write_label(gt_dir / "000000.txt", [make_record(0.0, 10.0)])
        write_label(det_dir / "000000.txt", [make_record(0.0, 10.0, score=0.9)])
        if case == "orphan":
            write_label(det_dir / "000042.txt", [make_record(0.0, 12.0, score=0.8)])
            message = "detection files without ground-truth counterparts: 000042"
        elif case == "missing":
            gt_dir = tmp_path / "nope"
            message = f"ground-truth directory not found: {gt_dir}"
        else:
            for name in (".txt", ".txt.txt"):
                write_label(gt_dir / name, [make_record(0.0, 10.0)])
            message = f"ground-truth files {gt_dir / '.txt'} and {gt_dir / '.txt.txt'} have the same frame id '.txt'"
        for name in (command, "eval"):
            rc = run(name, "--gt-dir", str(gt_dir), "--det-dir", str(det_dir), "--out-dir", str(tmp_path / "o"))
            assert rc == 2
            assert capsys.readouterr().err == f"adathresh: error: {message}\n"
        assert not (tmp_path / "o").exists()


# JSON values for a config key: scalars, odd numbers, spellings the
# converters know, and small lists and objects (PreFilter's field names
# among their keys).
SPELLINGS = [
    "none", "continuity", "single:0.5", "single:2", "adaptive:", "40:0.3:0.5", "nan:0:1", "bev", "3d",
    "11", "40", "easy", "hard", "Car", "DontCare", "", " ", "1e400", "-5", "0", "nan", "true",
]
NUMBERS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 1e-300, 0, -0.0, 0.5, 20, 10**30, 10**400]
CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.sampled_from(NUMBERS) | st.floats() | st.sampled_from(SPELLINGS) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["distance_cutoff", "low_threshold", "high_threshold", "x"]), inner, max_size=3),
    max_leaves=4,
)
FUZZED = ["stats", "fit", "filter", "eval"]


@pytest.fixture(scope="class")
def small_dataset(tmp_path_factory):
    """A six-frame synthetic gt/ and det/ on which every fuzzed command
    exits 0 under its defaults."""
    root = tmp_path_factory.mktemp("small")
    spec_path = write_json(root / "scenario.json", scenario_payload(n_frames=6))
    assert run("synth", "--spec", spec_path, "--out-dir", str(root)) == 0
    for command in FUZZED:
        assert main(TestFuzzedConfigValues.argv(root, command, {})) == 0, command
    return root


class TestFuzzedConfigValues:
    """stats, fit, filter and eval under a config file of random values for
    their own option keys, the directories given as flags: main returns an
    exit code and never raises, and a value makes an exit 2 only with a
    message naming the config file."""

    # An exit 2 that follows from the data under a well-formed value.
    DATA_ERRORS = ("average precision is undefined without ground truth",)

    @staticmethod
    def argv(root, command, config):
        argv = [command, "--det-dir", str(root / "det"), "--out-dir", str(root / "out")]
        if command != "filter":
            argv += ["--gt-dir", str(root / "gt")]
        elif "threshold_mode" not in config:
            argv += ["--threshold-mode", "none"]
        return argv + ["--config", write_json(root / "cfg.json", config)]

    @settings(max_examples=150)
    @given(
        st.sampled_from(FUZZED).flatmap(
            lambda command: st.tuples(
                st.just(command),
                st.dictionaries(
                    st.sampled_from([row.dest for row in cli._OPTIONS[command] if row not in cli._IO]),
                    CONFIG_VALUES,
                    max_size=2,
                ),
            )
        )
    )
    def test_main_exits_with_a_code_and_names_the_config_file(self, small_dataset, case):
        command, config = case
        argv = self.argv(small_dataset, command, config)
        err = StringIO()
        with redirect_stderr(err), redirect_stdout(StringIO()):
            rc = main(argv)
        # Only a missing required value, filter's threshold_mode set to null, is a usage error.
        missing = command == "filter" and config.get("threshold_mode", "") is None
        assert rc in (0, 2, 3) or (rc == 1 and missing), (rc, err.getvalue())
        if rc == 2:
            named = f"config file {small_dataset / 'cfg.json'}" in err.getvalue()
            assert named or any(message in err.getvalue() for message in self.DATA_ERRORS), err.getvalue()


# JSON values for a whole input file or one of its fields: scalars, odd
# numbers, strings, and small lists and objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.sampled_from(NUMBERS) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
# synth's work grows with n_frames and objects_per_frame by design, so
# values drawn for them stay small.
SMALL_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2.0, 4.0) | st.sampled_from(NUMBERS[:3]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=3,
)
_DELETE = object()


def json_paths(value, prefix=()):
    """The path (keys and list indices) of value and of every value inside it."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    yield prefix
    for key, inner in items:
        yield from json_paths(inner, (*prefix, key))


def replaced(payload, path, value):
    """A copy of payload with the value at path replaced by value, or
    removed when value is _DELETE; value itself at the empty path."""
    if not path:
        return value
    copy = json.loads(json.dumps(payload))
    *head, last = path
    parent = copy
    for key in head:
        parent = parent[key]
    if value is _DELETE:
        del parent[last]
    else:
        parent[last] = value
    return copy


@pytest.fixture(scope="class")
def json_inputs(tmp_path_factory):
    """A valid payload of each JSON input: scenario, model, stats and report."""
    root = tmp_path_factory.mktemp("json")
    scenario = scenario_payload(n_frames=2, objects_per_frame=[1, 2])
    assert run("synth", "--spec", write_json(root / "scenario.json", scenario), "--out-dir", str(root)) == 0
    data = ("--gt-dir", str(root / "gt"), "--det-dir", str(root / "det"))
    assert run("stats", *data, "--out-dir", str(root / "s")) == 0
    assert run("eval", *data, "--out-dir", str(root / "e"), "--threshold-mode", "single:0.5") == 0
    return {
        "scenario": scenario,
        # A flat curve stays within [0, 1] at any delta, so delta alone bounds the plot.
        "model": ThresholdModel(alpha=0.0, beta=0.0, gamma=0.5, k=0.6).to_dict(),
        "stats": json.loads((root / "s" / "bin_stats.json").read_text(encoding="utf-8")),
        "report": json.loads((root / "e" / "eval_report.json").read_text(encoding="utf-8")),
    }


class TestFuzzedJsonFiles:
    """Scenario files through synth, model and stats files through report,
    and report files through compare, each valid but for one random JSON
    value, as the whole file or in place of one field (or that field
    removed): main returns an exit code and never raises, and an exit 2
    names the file."""

    # An exit 2 that follows from two reports, not from one file.
    DATA_ERRORS = ("reports were produced under different configurations",)

    @staticmethod
    def argv(root, kind, path, inputs):
        out = ["--out-dir", str(root / "out")]
        if kind == "scenario":
            return ["synth", "--spec", path, *out]
        if kind == "model":
            return ["report", "--model", path, *out]
        if kind == "stats":
            return ["report", "--model", write_json(root / "valid.json", inputs["model"]), "--stats", path, *out]
        return ["compare", write_json(root / "valid.json", inputs["report"]), path, *out]

    @settings(max_examples=100)
    @given(data=st.data())
    @pytest.mark.parametrize("kind", ["scenario", "model", "stats", "report"])
    def test_main_exits_with_a_code_and_names_the_file(self, json_inputs, kind, data):
        base = json_inputs[kind]
        path = data.draw(st.sampled_from(list(json_paths(base))), label="path")
        small = kind == "scenario" and path[:1] in (("n_frames",), ("objects_per_frame",))
        values = SMALL_VALUES if small else JSON_VALUES
        value = data.draw(values | st.just(_DELETE) if path else values, label="value")
        err = StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            fuzzed = write_json(Path(tmp) / f"{kind}.json", replaced(base, path, value))
            with redirect_stderr(err), redirect_stdout(StringIO()):
                rc = main(self.argv(Path(tmp), kind, fuzzed, json_inputs))
        assert rc in (0, 2, 3), (rc, err.getvalue())
        if rc == 2:
            named = f"file {fuzzed}" in err.getvalue()
            assert named or any(message in err.getvalue() for message in self.DATA_ERRORS), err.getvalue()


class TestOptionTable:
    # Each command's flags and their dests, as the parser took them before
    # the options moved into one table; compare's positional report files
    # are listed under their names.
    SURFACE = {
        "stats": {
            "--gt-dir": "gt_dir", "--det-dir": "det_dir", "--out-dir": "out_dir", "--config": "config",
            "--class": "class_name", "--bin-width": "bin_width", "--max-distance": "max_distance",
            "--pre-filter": "pre_filter", "--normalized-std": "normalized_std",
        },
        "fit": {
            "--gt-dir": "gt_dir", "--det-dir": "det_dir", "--out-dir": "out_dir", "--config": "config",
            "--class": "class_name", "--bin-width": "bin_width", "--max-distance": "max_distance",
            "--pre-filter": "pre_filter", "--delta": "delta", "--k": "k", "--sigma-floor": "sigma_floor",
        },
        "filter": {"--det-dir": "det_dir", "--out-dir": "out_dir", "--config": "config", "--threshold-mode": "threshold_mode"},
        "eval": {
            "--gt-dir": "gt_dir", "--det-dir": "det_dir", "--out-dir": "out_dir", "--config": "config",
            "--class": "class_name", "--bin-width": "bin_width", "--max-distance": "max_distance",
            "--iou": "iou", "--iou-thr": "iou_thr", "--ap": "ap",
            "--difficulty": "difficulty", "--threshold-mode": "threshold_mode",
        },
        "compare": {"baseline": "baseline", "candidate": "candidate", "--out-dir": "out_dir", "--config": "config"},
        "synth": {"--spec": "spec", "--out-dir": "out_dir", "--config": "config"},
        "report": {"--model": "model", "--stats": "stats", "--out-dir": "out_dir", "--config": "config"},
    }
    BINNING = {"class_name": "Car", "bin_width": 10.0, "max_distance": 60.0}
    PRE_FILTER = {"pre_filter": PreFilter(40.0, 0.3, 0.5)}
    # The value of each option that neither a flag nor a config key gives;
    # every other option but --config is required.
    DEFAULTS = {
        "stats": {**BINNING, **PRE_FILTER, "normalized_std": False},
        "fit": {**BINNING, **PRE_FILTER, "delta": 60.0, "k": 0.6, "sigma_floor": 1e-3},
        "filter": {},
        "eval": {
            **BINNING,
            "iou": "bev",
            "iou_thr": 0.7,
            "ap": "eleven_point",
            "difficulty": None,
            "threshold_mode": ("none", None),
        },
        "compare": {},
        "synth": {},
        "report": {"stats": None},
    }
    REQUIRED_FLAGS = {
        "stats": ["--gt-dir", "g", "--det-dir", "d", "--out-dir", "o"],
        "fit": ["--gt-dir", "g", "--det-dir", "d", "--out-dir", "o"],
        "filter": ["--det-dir", "d", "--out-dir", "o", "--threshold-mode", "none"],
        "eval": ["--gt-dir", "g", "--det-dir", "d", "--out-dir", "o"],
        "compare": ["a.json", "b.json", "--out-dir", "o"],
        "synth": ["--spec", "s.json", "--out-dir", "o"],
        "report": ["--model", "m.json", "--out-dir", "o"],
    }

    def test_each_commands_flags_and_dests_are_pinned(self):
        (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(subparsers.choices) == list(self.SURFACE)
        for command, subparser in subparsers.choices.items():
            flags = {(a.option_strings or [a.dest])[0]: a.dest for a in subparser._actions if a.dest != "help"}
            assert flags == self.SURFACE[command], command

    @pytest.mark.parametrize("command", list(DEFAULTS))
    def test_each_commands_defaults_are_pinned(self, command):
        opts = cli._Options(cli.build_parser().parse_args([command, *self.REQUIRED_FLAGS[command]]))
        assert {dest: getattr(opts, dest) for dest in self.DEFAULTS[command]} == self.DEFAULTS[command]
        required = {row.dest for row in cli._OPTIONS[command] if row.default is cli._REQUIRED}
        assert required == set(self.SURFACE[command].values()) - {"config"} - set(self.DEFAULTS[command])


# A non-default value of each option that has a default, as a flag spells
# it and as a config file gives it; None is a switch given as a flag.
PARITY = {
    "class_name": ("Car", "Car"),
    "bin_width": ("20", 20),
    "max_distance": ("40", 40),
    "pre_filter": ("30:0.2:0.4", {"distance_cutoff": 30, "low_threshold": 0.2, "high_threshold": 0.4}),
    "normalized_std": (None, True),
    "delta": ("50", 50),
    "k": ("continuity", "continuity"),
    "sigma_floor": ("0.01", 0.01),
    "iou": ("3d", "3d"),
    "iou_thr": ("0.5", 0.5),
    "ap": ("40", 40),
    "difficulty": ("hard", "hard"),
    "threshold_mode": ("single:0.5", "single:0.5"),
}


@pytest.mark.parametrize(
    "command, row",
    [
        pytest.param(command, row, id=f"{command}-{row.dest}")
        for command, rows in cli._OPTIONS.items()
        for row in rows
        if row.flag != row.dest  # a positional argument always comes from its flag
    ],
)
def test_a_value_as_a_flag_or_a_config_key_writes_the_same_files(tmp_path, dataset, command, row):
    common = ("--gt-dir", str(dataset / "gt"), "--det-dir", str(dataset / "det"))
    model = write_json(tmp_path / "model.json", ThresholdModel(-1e-4, -4e-3, 0.75, 60.0, 0.35).to_dict())
    paths = {
        "gt_dir": str(dataset / "gt"),
        "det_dir": str(dataset / "det"),
        "threshold_mode": f"adaptive:{model}",
        "spec": str(tmp_path / "scenario.json"),
        "model": model,
        "stats": str(tmp_path / "stats" / "bin_stats.json"),
    }
    positional = []
    if command == "compare":
        assert run("eval", *common, "--out-dir", str(tmp_path / "eval")) == 0
        positional = [str(tmp_path / "eval" / "eval_report.json")] * 2
    if command == "report":
        assert run("stats", *common, "--out-dir", str(tmp_path / "stats")) == 0
    written = []
    for how in ("flag", "config"):
        out = tmp_path / how
        values = {**paths, "out_dir": str(out)}
        argv = [command, *positional]
        for other in cli._OPTIONS[command]:
            if other.default is cli._REQUIRED and other.flag != other.dest and other is not row:
                argv += [other.flag, values[other.dest]]
        flag_value, config_value = PARITY.get(row.dest, (values.get(row.dest),) * 2)
        if how == "flag":
            argv += [row.flag] if flag_value is None else [row.flag, flag_value]
        else:
            argv += ["--config", write_json(tmp_path / "cfg.json", {row.dest: config_value})]
        assert run(*argv) == 0, argv
        written.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert written[0] == written[1] and written[0]
