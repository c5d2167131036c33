"""What each entry point imports, and exit codes, checked in fresh interpreters.

The test process has imported every module long before these tests run,
so each check starts its own ``python`` and reports ``sys.modules`` back.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adathresh.synthetic import ScenarioSpec, ScoreModel
from adathresh.threshold import ThresholdModel
from helpers import make_record, write_label

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules no command may load: numpy, and dataclasses and inspect (which
# numpy imports itself), which would add about 14 ms to a command's
# start-up; hashlib (3-5 ms), which the cache keys do without; and
# argparse with its gettext (2-3 ms to import, about 5 ms more to build
# and run a parser), since cli reads the command line from its own table.
HEAVY = ("numpy", "dataclasses", "inspect", "hashlib", "argparse", "gettext")
# Nor fractions, with the decimal it imports: 2.4 ms that fit's solve
# saves by computing over integers.
NEVER = (*HEAVY, "fractions", "decimal")
LOADED = f"import json, sys; print(json.dumps(sorted(m for m in sys.modules if m in {NEVER!r} or m.startswith('adathresh'))))"


def python(*args: str, timeout: float = 120, cwd: Path | None = None) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
        cwd=cwd,
    )


def loaded_after(code: str) -> set[str]:
    proc = python("-c", f"{code}\n{LOADED}")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


@pytest.fixture
def data(tmp_path):
    """Ground truth, detections, a model and a scenario file for every command."""
    write_label(tmp_path / "gt" / "000000.txt", [make_record(0.0, 5.0), make_record(0.0, 25.0)])
    # One detection in each of four 10 m bins, means falling 0.1 a bin.
    write_label(
        tmp_path / "det" / "000000.txt",
        [make_record(0.0, z, score=score) for z, score in ((5.0, 0.9), (15.0, 0.8), (25.0, 0.7), (35.0, 0.6))],
    )
    model = ThresholdModel(alpha=0.0, beta=-0.005, gamma=0.8, delta=60.0, k=0.5)
    (tmp_path / "model.json").write_text(json.dumps(model.to_dict()), encoding="utf-8")
    scenario = ScenarioSpec(
        seed=3,
        n_frames=4,
        objects_per_frame=(1, 4),
        distance_range=(5.0, 55.0),
        score_model=ScoreModel(a=0.0, b=-0.005, c=0.9, noise_std=(0.05,) * 6),
        fp_rate_per_bin=(0.3,) * 6,
        fn_rate_per_bin=(0.1,) * 6,
    )
    (tmp_path / "scenario.json").write_text(json.dumps(scenario.to_dict()), encoding="utf-8")
    return tmp_path


def test_package_import_loads_no_submodule():
    assert loaded_after("import adathresh") == {"adathresh"}


def test_every_public_name_resolves_and_is_listed():
    proc = python(
        "-c",
        "import json, adathresh\n"
        "unlisted = [n for n in adathresh.__all__ if n not in dir(adathresh)]\n"
        "unresolved = [n for n in adathresh.__all__ if not hasattr(adathresh, n)]\n"
        "print(json.dumps([unlisted, unresolved, adathresh.__all__]))",
    )
    assert proc.returncode == 0, proc.stderr
    unlisted, unresolved, names = json.loads(proc.stdout)
    assert unlisted == [] and unresolved == []
    # Adding or dropping an export is an edit of this list.
    assert names == [
        "BinSpec", "BinStats", "DatasetError", "EvalReport", "EvaluationError", "FitError",
        "FitResult", "KittiIOError", "LabelError", "LabelTable", "MatchConfig",
        "ModelRangeError", "PreFilter", "ScenarioSpec", "ScoreModel", "SingleThreshold", "ThresholdModel",
        "__version__", "compare_reports", "compute_bin_stats", "evaluate_tables",
        "fit_quadratic", "generate", "keep_rows", "known_optimal_counts",
        "load_tables", "read_label_table", "table_samples", "trade_off",
    ]


def test_console_script_entry_point_shows_help(tmp_path):
    # What the installed script runs: pyproject's [project.scripts] target,
    # loaded as an entry point by a process started outside the source tree.
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["adathresh"]
    code = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "sys.argv = ['adathresh', '--help']\n"
        f"sys.exit(EntryPoint('adathresh', {target!r}, 'console_scripts').load()())"
    )
    proc = python("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: adathresh")


def test_cli_import_loads_no_numpy():
    assert "numpy" not in loaded_after("import adathresh.cli")


def _commands(data: Path) -> dict[str, list[str]]:
    io = ["--gt-dir", str(data / "gt"), "--det-dir", str(data / "det")]
    model = f"adaptive:{data / 'model.json'}"
    return {
        "synth": ["synth", "--spec", str(data / "scenario.json"), "--out-dir", str(data / "synth")],
        "stats": ["stats", *io, "--out-dir", str(data / "stats")],
        "filter": ["filter", "--det-dir", str(data / "det"), "--out-dir", str(data / "filtered"), "--threshold-mode", model],
        "report": ["report", "--model", str(data / "model.json"), "--out-dir", str(data / "report")],
        "fit": ["fit", *io, "--out-dir", str(data / "fit"), "--pre-filter", "none"],
        "eval": ["eval", *io, "--out-dir", str(data / "eval")],
        "eval-adaptive-3d": ["eval", *io, "--out-dir", str(data / "eval3d"), "--threshold-mode", model, "--iou", "3d"],
        "compare": ["compare", str(data / "baseline.json"), str(data / "baseline.json"), "--out-dir", str(data / "compare")],
    }


# Modules each command must leave unloaded. threshold loads only where a
# model, a single threshold or a fit is built: stats, eval
# --threshold-mode none ("eval") and compare build none.
NOT_LOADED = {
    "synth": {*NEVER, "adathresh.evaluation", "adathresh.report", "adathresh.threshold"},
    "stats": {
        *NEVER, "adathresh.geometry", "adathresh.evaluation", "adathresh.synthetic", "adathresh.report", "adathresh.threshold"
    },
    "filter": {*NEVER, "adathresh.geometry", "adathresh.evaluation", "adathresh.synthetic", "adathresh.report"},
    "report": {*NEVER, "adathresh.geometry", "adathresh.evaluation", "adathresh.synthetic"},
    "fit": {*NEVER, "adathresh.geometry", "adathresh.evaluation", "adathresh.synthetic", "adathresh.report"},
    "eval": {*NEVER, "adathresh.synthetic", "adathresh.report", "adathresh.threshold"},
    "eval-adaptive-3d": {*NEVER, "adathresh.synthetic", "adathresh.report"},
    "compare": {*NEVER, "adathresh.synthetic", "adathresh.report", "adathresh.threshold"},
}


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_command_loads_only_what_it_runs(data, command):
    if command == "compare":
        from adathresh.cli import main

        assert main(_commands(data)["eval"]) == 0
        (data / "eval" / "eval_report.json").rename(data / "baseline.json")
    argv = _commands(data)[command]
    loaded = loaded_after(f"from adathresh.cli import main\nassert main({argv!r}) == 0")
    assert not loaded & NOT_LOADED[command]


@pytest.mark.parametrize("command", ["eval", "eval-adaptive-3d"])
def test_only_an_eval_that_misses_its_pairs_loads_geometry(data, tmp_path, monkeypatch, command):
    """geometry holds the IoU kernel, which an eval needs only when the
    cache holds no pairs of its input: a cold eval loads it, and the same
    eval in a fresh interpreter over a warm cache does not. Neither loads
    a NEVER module."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    run = f"from adathresh.cli import main\nassert main({_commands(data)[command]!r}) == 0"
    cold, warm = loaded_after(run), loaded_after(run)
    assert not (cold | warm) & set(NEVER)
    assert "adathresh.geometry" in cold
    assert "adathresh.geometry" not in warm and "adathresh.evaluation" in warm


@pytest.mark.parametrize("command", ["stats", "fit", "filter", "eval"])
def test_only_a_command_that_misses_its_tables_loads_the_parser(data, tmp_path, monkeypatch, command):
    """kitti_parse holds the label-line parser and the line checker: a
    cold command loads it to parse its trees, and the same command in a
    fresh interpreter over a warm cache reads every table from there and
    does not. Neither loads a NEVER module."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    run = f"from adathresh.cli import main\nassert main({_commands(data)[command]!r}) == 0"
    cold, warm = loaded_after(run), loaded_after(run)
    assert not (cold | warm) & set(NEVER)
    assert "adathresh.kitti_parse" in cold
    assert "adathresh.kitti_parse" not in warm and "adathresh.kitti_io" in warm


def test_main_with_argv_leaves_the_gc_state_alone(data):
    from adathresh.cli import main

    frozen = gc.get_freeze_count()
    assert main(_commands(data)["stats"]) == 0
    assert main(["stats", "--bogus"]) == 1
    assert gc.get_freeze_count() == frozen


def test_main_without_argv_freezes_the_heap_on_its_way_out(data):
    """The console script's call: what main leaves on the heap is frozen,
    so the interpreter's shutdown collection skips it. So is it after a
    usage error."""
    code = (
        "import gc, sys\n"
        "from adathresh.cli import main\n"
        "sys.argv = ['adathresh', *sys.argv[1:]]\n"
        "assert gc.get_freeze_count() == 0\n"
        "code = main()\n"
        "print(code, gc.get_freeze_count() > 0)"
    )
    for argv, expected in ((_commands(data)["stats"], "0 True"), (["stats", "--bogus"], "1 True")):
        proc = python("-c", code, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == expected


def test_eval_without_ground_truth_of_the_class_exits_2(tmp_path):
    write_label(tmp_path / "gt" / "000000.txt", [make_record(0.0, 10.0, class_name="Pedestrian")])
    write_label(tmp_path / "det" / "000000.txt", [make_record(0.0, 10.0, score=0.9)])
    proc = python(
        "-m", "adathresh.cli", "eval",
        "--gt-dir", str(tmp_path / "gt"),
        "--det-dir", str(tmp_path / "det"),
        "--out-dir", str(tmp_path / "out"),
    )
    assert proc.returncode == 2, proc.stderr
    assert "average precision is undefined without ground truth" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_fit_of_collinear_means_has_alpha_exactly_0(data):
    proc = python("-m", "adathresh.cli", *_commands(data)["fit"])
    assert proc.returncode == 0, proc.stderr
    model = json.loads((data / "fit" / "model.json").read_text(encoding="utf-8"))
    assert model["alpha"] == 0.0
