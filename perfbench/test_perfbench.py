"""Tests of the benchmark itself, on a few frames per workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import traced

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
FRAMES = "6"


def bench(*args: str, cwd: Path = HERE.parent) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--frames", FRAMES, "--seconds", "1", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    code, result, stderr = bench("--workload", workload, "--seed", "3", "--trace", trace)
    assert code == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_units_match_benchmark_json():
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert run.PER_LAYER_UNITS == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("field, path", [("eval", ("eval_adaptive", "tp")), ("digest", ("det_sha256",))])
def test_wrong_reference_raises_fail_ratio(tmp_path, field, path):
    references = tmp_path / "references.json"
    common = ("--workload", "kitti-val", "--seed", "0", "--references", str(references))
    code, result, stderr = bench(*common, "--record-references")
    assert code == 0 and result["failed"] == 0, stderr
    code, result, _ = bench(*common)
    assert code == 0 and result["failed"] == 0

    data = json.loads(references.read_text(encoding="utf-8"))
    entry = data["kitti-val"]
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = entry[path[-1]] + 1 if field == "eval" else "0" * 64
    references.write_text(json.dumps(data), encoding="utf-8")
    code, result, _ = bench(*common)
    assert code != 0
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    code, result, _ = bench("--workload", "kitti-val", cwd=tmp_path)
    assert code != 0 and result is None


def spans(rows: list[tuple[str, int, float, float]], counts: dict | None = None) -> dict:
    names = sorted({r[0] for r in rows})
    return {
        "names": np.array(names),
        "name_id": np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        "parent": np.array([r[1] for r in rows], dtype=np.int32),
        "start": np.array([r[2] for r in rows]),
        "end": np.array([r[3] for r in rows]),
        "counts": np.array(json.dumps(counts or {})),
    }


def test_layer_totals_self_time_and_nesting():
    trace = spans(
        [
            ("cli.eval", -1, 0.0, 10.0),
            ("evaluate", 0, 1.0, 9.0),
            ("iou", 1, 2.0, 3.0),
            ("iou", 2, 2.1, 2.9),  # iou_3d calling iou_bev: not counted twice
            ("iou", 1, 4.0, 6.0),
        ],
        {"n": 2},
    )
    totals, counts = run.layer_totals([trace, trace])
    assert totals["evaluate"] == {"calls": 2, "s": 16.0, "self_s": 10.0}
    assert totals["iou"]["calls"] == 4 and totals["iou"]["s"] == pytest.approx(6.0)
    assert counts == {"n": 4}


def test_missing_public_name_reports_zero_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.setattr(traced, "TARGETS", traced.TARGETS + (("evaluation", "no_such_name", "gone", None),))
    tracer = traced.Tracer()
    traced.install(tracer, {"gone"})
    assert "gone" not in tracer.names
    totals, _ = run.layer_totals([])
    assert totals.get("gone", {}).get("calls", 0) == 0


def test_prune_keeps_the_newest_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    for i in range(5):
        (tmp_path / f"run{i}").mkdir()
        os.utime(tmp_path / f"run{i}", (i, i))
    run.prune(3)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run2", "run3", "run4"]
