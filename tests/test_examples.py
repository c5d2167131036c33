"""README's quick start and library example, and scripts/threshold_sweep.py, run as written."""

import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

from adathresh.cli import main
from adathresh.evaluation import EvalReport

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# threshold_sweep.py's output with its default arguments, captured before
# the script moved onto the LabelTable pipeline steps. gamma is the one
# `adathresh fit --pre-filter none --k continuity` prints for the files
# `synth` writes for the same scenario, since generated tables hold the
# values as written (six fractional digits).
SWEEP_DEFAULT_OUTPUT = textwrap.dedent(
    """\
    fitted model: alpha=-5.93743e-05 beta=-0.00365797 gamma=0.745976 delta=60 k=0.312749
    weighted rmse=0.0045 over bins (0, 1, 2, 3, 4, 5)

    mode            tp    fp    fn  recall precision trade_off near_prec  far_rec
    -----------------------------------------------------------------------------
    single 0.10   1006   515    81   0.925     0.661     0.264     0.568    0.877
    single 0.20   1006   513    81   0.925     0.662     0.263     0.568    0.877
    single 0.30    991   458    96   0.912     0.684     0.228     0.568    0.840
    single 0.40    892   353   195   0.821     0.716     0.104     0.601    0.591
    single 0.50    743   221   344   0.684     0.771     0.087     0.697    0.218
    single 0.60    587    91   500   0.540     0.866     0.326     0.841    0.005
    single 0.70    411    22   676   0.378     0.949     0.571     0.949    0.000
    single 0.80    224     0   863   0.206     1.000     0.794     1.000    0.000
    adaptive       921     7   166   0.847     0.992     0.145     0.986    0.664
"""
)


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_threshold_sweep_output_is_pinned(tmp_path, monkeypatch, capsys):
    """The output, and the one file the sweep writes: evaluate_tables's
    pairs entry in the cache. Its tables are generated, not read, so it
    stores no table entry, and it writes nothing in its directory."""
    cache, work = tmp_path / "xdg", tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.chdir(work)
    assert load("threshold_sweep").main([]) == 0
    assert capsys.readouterr().out == SWEEP_DEFAULT_OUTPUT
    written = [path.relative_to(tmp_path) for path in sorted(tmp_path.rglob("*")) if path.is_file()]
    assert len(written) == 1 and written[0].parent == Path("xdg", "adathresh") and written[0].suffix == ".pairs"


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    """README's quick start: the scenario file, then each adathresh line
    (continuations joined). First every command runs as the console script
    runs it, in its own process through main() without argv, with numpy
    unimportable and an empty cache; then all of them in this process
    through main(argv) over the cache the first run filled. Every exit is
    0, and both runs print the same and write the same files."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Quick start\n") :].split("\n## ", 1)[0]
    scenario, script = re.findall(r"```(?:json|sh)\n(.*?)```", section, re.S)
    lines = script.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("adathresh ")]
    cache = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    console = "import sys; sys.modules['numpy'] = None; from adathresh.cli import main; sys.exit(main())"
    runs = []
    for name in ("script", "in-process"):
        work = tmp_path / name
        work.mkdir()
        (work / "scenario.json").write_text(scenario, encoding="utf-8")
        monkeypatch.chdir(work)
        said = []
        for argv in commands:
            if name == "script":
                proc = subprocess.run([sys.executable, "-c", console, *argv], env=env, capture_output=True, text=True, timeout=120)
                said.append((proc.returncode, proc.stdout, proc.stderr))
            else:
                said.append((main(argv), *capsys.readouterr()))
        assert [rc for rc, _, _ in said] == [0] * len(commands), said
        runs.append((said, sorted((str(p.relative_to(work)), p.read_bytes()) for p in work.rglob("*") if p.is_file())))
        assert {p.suffix for p in (cache / "adathresh").iterdir()} == {".table", ".pairs"}
    assert runs[0] == runs[1]
    assert list(tmp_path.rglob("*.tmp")) == []


def test_readme_library_example_runs(tmp_path, monkeypatch):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    scenario = {
        "seed": 20240817,
        "n_frames": 25,
        "objects_per_frame": [2, 5],
        "distance_range": [2.0, 58.0],
        "score_model": {"a": -0.00004, "b": -0.0075, "c": 0.92, "noise_std": [0.02] * 6},
        "fp_rate_per_bin": [0.3] * 6,
        "fn_rate_per_bin": [0.1] * 6,
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--spec", "scenario.json", "--out-dir", "data"]) == 0
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    report = namespace["report"]
    assert isinstance(report, EvalReport) and report.average_precision_filtered is not None
    assert report.tp + report.fn == 83  # the scenario's ground-truth cars, as synth reports
