"""The example scripts under scripts/, run in-process."""

import importlib.util
import textwrap
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

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


def test_threshold_sweep_output_is_pinned(capsys):
    assert load("threshold_sweep").main([]) == 0
    assert capsys.readouterr().out == SWEEP_DEFAULT_OUTPUT


def test_synthetic_pipeline_runs(tmp_path, capsys):
    assert load("run_synthetic_pipeline").main(["--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "compare" / "compare.csv").is_file()
    assert (tmp_path / "report" / "threshold_curve.svg").is_file()
    assert "adaptive: tp=" in capsys.readouterr().out
