"""Command-line interface.

Subcommands: stats, fit, filter, eval, compare, synth, report. Every
option is one row of _OPTIONS: its config key (the dest), flag, default,
converter and help. An option resolves with precedence CLI flag > config
file (--config, a JSON object keyed by the dests; a null value counts
as not given) > the row's default, and the row's converter turns a
flag's string and a config value alike into the value the command uses;
a None default stays None. A switch's config value is a JSON
boolean. Exit codes: 0 success, 1 usage error (including a bad flag
value), 2 data or parse error (including a bad config-file value, named
with its file), 3 numerical failure. Every output file is written
atomically (temp file + rename); CSV uses RFC 4180 quoting and JSON a
stable key order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .bin_stats import BinSpec, BinStats, PreFilter, compute_bin_stats, table_samples
from .kitti_io import (
    DatasetError,
    KittiIOError,
    load_tables,
    read_label_table,
    write_frames,
    write_text_atomic,
)
from .threshold import (
    SIGMA_FLOOR,
    FitError,
    ModelRangeError,
    Schedule,
    SingleThreshold,
    ThresholdModel,
    fit_quadratic,
    keep_rows,
)

# evaluation, synthetic and report load inside the commands that use them:
# synthetic imports numpy, which only synth needs, and stats, fit and
# filter never load the IoU and matching code.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_AP_MODES = {"11": "eleven_point", "40": "forty_point"}


class _UsageError(ValueError):
    """Bad flag or config value; maps to exit code 1."""


def _err(message: object) -> None:
    print(f"adathresh: error: {message}", file=sys.stderr)


def _write_json(path: Path, payload: object) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list[object]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    write_text_atomic(path, buffer.getvalue())


def _read_json(path: str | Path, kind: str):
    """The JSON value in a `kind` file; DatasetError naming the file otherwise."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DatasetError(f"cannot read {kind} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{kind} file {path} is not valid JSON: {exc}") from exc


def _load_json(path: str | Path, kind: str, from_dict):
    """from_dict of a `kind` file's JSON. A missing key or a bad value is a
    DatasetError naming the file; a ModelRangeError passes through (exit 3)."""
    data = _read_json(path, kind)
    try:
        return from_dict(data)
    except ModelRangeError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"{kind} file {path} has a missing or bad value: {exc}") from exc


def _load_config_file(args: argparse.Namespace) -> dict:
    """The --config file's object. A key that names none of the command's
    options is a usage error."""
    if args.config is None:
        return {}
    data = _read_json(args.config, "config")
    if not isinstance(data, dict):
        raise DatasetError(f"config file {args.config} must hold a JSON object")
    unknown = sorted(set(data) - {row.dest for row in _OPTIONS[args.command]})
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise _UsageError(f"config file {args.config} has keys that name no {args.command} option: {names}")
    return data


def _load_model(path: str | Path) -> ThresholdModel:
    return _load_json(path, "model", ThresholdModel.from_dict)


def _parse_pre_filter(value) -> PreFilter | None:
    """The schedule of a pre_filter value: 'CUTOFF:LOW:HIGH', 'none' or a
    dict of PreFilter fields; ValueError otherwise."""
    if isinstance(value, dict):
        try:
            return PreFilter.from_dict(value)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"expected distance_cutoff, low_threshold and high_threshold: {exc}") from exc
    text = str(value).strip()
    if text.lower() == "none":
        return None
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected 'CUTOFF:LOW:HIGH' or 'none'")
    cutoff, low, high = (float(p) for p in parts)
    return PreFilter(distance_cutoff=cutoff, low_threshold=low, high_threshold=high)


def _parse_threshold_mode(value: str) -> tuple[str, Schedule | None]:
    """The report label and the schedule of a --threshold-mode value;
    'none' has no schedule. ValueError for a bad value."""
    text = str(value).strip()
    if text.lower() == "none":
        return "none", None
    kind, sep, payload = text.partition(":")
    if not sep:
        raise ValueError(f"expected 'none', 'single:<t>' or 'adaptive:<model.json>', got {value!r}")
    if kind == "single":
        schedule = SingleThreshold(float(payload))
        return f"single:{schedule.threshold}", schedule
    if kind == "adaptive":
        if not payload:
            raise ValueError("adaptive mode needs a model file: adaptive:<model.json>")
        return f"adaptive:{payload}", _load_model(payload)
    raise ValueError(f"unknown threshold mode {kind!r}")


def _parse_k(value) -> float | None:
    """A --k value: a number, or None for 'continuity'."""
    if isinstance(value, str) and value.strip().lower() == "continuity":
        return None
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"expected a number or 'continuity', got {value!r}") from exc


def _parse_ap(value) -> str:
    """The ap_interpolation of an --ap value."""
    key = str(value)
    if key not in _AP_MODES:
        raise ValueError(f"expected 11 or 40, got {key!r}")
    return _AP_MODES[key]


def _parse_switch(value) -> bool:
    """A switch: the flag gives True, a config value must be a JSON boolean."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


_REQUIRED = object()


class _Option(NamedTuple):
    """One option: its config key, its flag (a name without dashes is a
    positional argument), its default as a flag would spell it (or
    _REQUIRED), the converter of a flag's string and of a config value,
    and its help."""

    dest: str
    flag: str
    default: Any
    convert: Callable[[Any], Any]
    help: str


_GT_DIR = _Option("gt_dir", "--gt-dir", _REQUIRED, Path, "directory of ground-truth label files")
_DET_DIR = _Option("det_dir", "--det-dir", _REQUIRED, Path, "directory of detection files")
_OUT_DIR = _Option("out_dir", "--out-dir", _REQUIRED, Path, "directory for outputs")
_IO = (_GT_DIR, _DET_DIR, _OUT_DIR)
_BINNING = (
    _Option("class_name", "--class", "Car", str, "object class to use"),
    _Option("bin_width", "--bin-width", "10", float, "bin width in meters"),
    _Option("max_distance", "--max-distance", "60", float, "binning range end in meters"),
    _Option(
        "pre_filter",
        "--pre-filter",
        "40:0.3:0.5",
        _parse_pre_filter,
        "'CUTOFF:LOW:HIGH' score pre-filter or 'none'",
    ),
)
_THRESHOLD_MODE = _Option(
    "threshold_mode",
    "--threshold-mode",
    _REQUIRED,
    _parse_threshold_mode,
    "'none', 'single:<t>' or 'adaptive:<model.json>'",
)

_OPTIONS: dict[str, tuple[_Option, ...]] = {
    "stats": (
        *_IO,
        *_BINNING,
        _Option(
            "normalized_std", "--normalized-std", False, _parse_switch, "divide each bin's std by its mean"
        ),
    ),
    "fit": (
        *_IO,
        *_BINNING,
        _Option("delta", "--delta", "60", float, "quadratic/constant cutover distance"),
        _Option("k", "--k", "0.6", _parse_k, "far-range constant threshold, or 'continuity'"),
        _Option("sigma_floor", "--sigma-floor", str(SIGMA_FLOOR), float, "minimum std used in weights"),
    ),
    "filter": (_DET_DIR, _OUT_DIR, _THRESHOLD_MODE),
    "eval": (
        *_IO,
        *_BINNING,
        _Option("iou", "--iou", "bev", str, "IoU kind: bev or 3d"),
        _Option("iou_thr", "--iou-thr", "0.7", float, "matching IoU threshold"),
        _Option("ap", "--ap", "11", _parse_ap, "AP interpolation points: 11 or 40"),
        _Option(
            "difficulty", "--difficulty", None, str, "ground-truth stratum: easy, moderate or hard"
        ),
        _THRESHOLD_MODE._replace(default="none"),
    ),
    "compare": (
        _Option("baseline", "baseline", _REQUIRED, Path, "baseline eval_report.json"),
        _Option("candidate", "candidate", _REQUIRED, Path, "candidate eval_report.json"),
        _OUT_DIR._replace(help="directory for compare.csv"),
    ),
    "synth": (
        _Option("spec", "--spec", _REQUIRED, Path, "scenario JSON file"),
        _OUT_DIR._replace(help="output directory (gt/, det/, manifest.json)"),
    ),
    "report": (
        _Option("model", "--model", _REQUIRED, Path, "model JSON file"),
        _Option("stats", "--stats", None, Path, "bin_stats.json to overlay (optional)"),
        _OUT_DIR._replace(help="directory for SVG and markdown"),
    ),
}


class _Options:
    """A command's option values, as attributes named by the dests."""

    def __init__(self, args: argparse.Namespace) -> None:
        file_cfg = _load_config_file(args)
        self._config = args.config
        self._from_flag: dict[str, str] = {}  # dest -> flag
        self._from_file: set[str] = set()
        for row in _OPTIONS[args.command]:
            value = getattr(args, row.dest)
            if value is not None:
                self._from_flag[row.dest] = row.flag
            elif file_cfg.get(row.dest) is not None:
                value = file_cfg[row.dest]
                self._from_file.add(row.dest)
            else:
                value = row.default
            if value is _REQUIRED:
                raise _UsageError(f"missing required option {row.flag} (or config key '{row.dest}')")
            if value is not None:
                value = self.checked((row.dest,), partial(row.convert, value))
            setattr(self, row.dest, value)

    def checked(self, dests: tuple[str, ...], build):
        """build(), which converts and checks the values of dests. A bad
        value (ValueError, TypeError, OverflowError) is a DatasetError
        naming the --config file when one of dests took its value from
        that file, and a usage error otherwise. A ModelRangeError passes
        through (exit 3)."""
        try:
            return build()
        except ModelRangeError:
            raise
        except (ValueError, TypeError, OverflowError) as exc:
            from_file = [dest for dest in dests if dest in self._from_file]
            if from_file:
                names = ", ".join(from_file)
                raise DatasetError(f"config file {self._config} has a bad {names} value: {exc}") from exc
            flags = ", ".join(self._from_flag[dest] for dest in dests if dest in self._from_flag)
            raise _UsageError(f"bad {flags} value: {exc}" if flags else str(exc)) from exc


def _stats_pipeline(opts: _Options, normalize_std: bool = False) -> tuple[list[BinStats], BinSpec, int]:
    spec = opts.checked(("bin_width", "max_distance"), lambda: BinSpec(opts.bin_width, opts.max_distance))
    _, detections = load_tables(opts.gt_dir, opts.det_dir)
    samples = table_samples(detections, opts.class_name, opts.pre_filter)
    stats = compute_bin_stats(samples, spec, normalize_std=normalize_std)
    return stats, spec, len(samples)


def _stats_rows(stats: list[BinStats], spec: BinSpec) -> list[list[object]]:
    rows: list[list[object]] = []
    for entry in stats:
        lo, hi = spec.edges(entry.bin_index)
        rows.append(
            [
                entry.bin_index,
                lo,
                hi,
                entry.count,
                "" if entry.mean is None else repr(entry.mean),
                "" if entry.std is None else repr(entry.std),
            ]
        )
    return rows


def cmd_stats(opts: _Options) -> int:
    """distance-binned score statistics"""
    stats, spec, n_used = _stats_pipeline(opts, opts.normalized_std)
    payload = {
        **spec.to_dict(),
        "class_name": opts.class_name,
        "normalized_std": opts.normalized_std,
        "pre_filter": None if opts.pre_filter is None else opts.pre_filter.to_dict(),
        "n_detections_used": n_used,
        "bins": [
            dict(zip(("lo_m", "hi_m"), spec.edges(entry.bin_index)), **entry.to_dict()) for entry in stats
        ],
    }
    csv_path = opts.out_dir / "bin_stats.csv"
    json_path = opts.out_dir / "bin_stats.json"
    _write_csv(csv_path, ["bin_index", "lo_m", "hi_m", "count", "mean", "std"], _stats_rows(stats, spec))
    _write_json(json_path, payload)
    print(f"binned {n_used} {opts.class_name} detections into {spec.n_bins} bins")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_fit(opts: _Options) -> int:
    """fit the quadratic threshold to binned statistics"""
    stats, spec, _ = _stats_pipeline(opts)
    # fit_quadratic checks sigma_floor; a fit failure is a FitError.
    result = opts.checked(
        ("sigma_floor",),
        lambda: fit_quadratic(stats, spec, delta=opts.delta, k=opts.k, sigma_floor=opts.sigma_floor),
    )
    model_path = opts.out_dir / "model.json"
    report_path = opts.out_dir / "fit_report.csv"
    _write_json(model_path, result.model.to_dict())
    by_index = {entry.bin_index: entry for entry in stats}
    rows: list[list[object]] = []
    for bin_index, x, fitted, residual in zip(
        result.bin_indices, result.abscissas, result.fitted, result.residuals
    ):
        entry = by_index[bin_index]
        rows.append([bin_index, x, repr(entry.mean), repr(entry.std), repr(fitted), repr(residual)])
    _write_csv(report_path, ["bin_index", "x_m", "mean", "std", "fitted", "residual"], rows)
    model = result.model
    print(
        f"fit over {result.bins_used} bins: alpha={model.alpha:.6g} beta={model.beta:.6g} "
        f"gamma={model.gamma:.6g} delta={model.delta:.6g} k={model.k:.6g} "
        f"(weighted rmse {result.weighted_rmse:.6g})"
    )
    print(f"wrote {model_path} and {report_path}")
    return EXIT_OK


def cmd_filter(opts: _Options) -> int:
    """write threshold-filtered copies of detection files"""
    label, schedule = opts.threshold_mode
    table = read_label_table(opts.det_dir, "detection", expect_score=True)
    kept = [True] * len(table) if schedule is None else keep_rows(table, schedule)
    write_frames(table, opts.out_dir, kept)  # each kept line as read, LF-terminated
    print(f"kept {sum(kept)} of {len(table)} detections under mode {label}; wrote {opts.out_dir}")
    return EXIT_OK


def cmd_eval(opts: _Options) -> int:
    """match detections against ground truth and report metrics"""
    from .evaluation import MatchConfig, evaluate_tables

    spec = opts.checked(("bin_width", "max_distance"), lambda: BinSpec(opts.bin_width, opts.max_distance))
    label, schedule = opts.threshold_mode
    config = opts.checked(
        ("iou", "iou_thr", "class_name", "difficulty"),
        lambda: MatchConfig(
            iou_kind=opts.iou,
            iou_threshold=opts.iou_thr,
            class_name=opts.class_name,
            ap_interpolation=opts.ap,
            difficulty=opts.difficulty,
        ),
    )
    gt, det = load_tables(opts.gt_dir, opts.det_dir)
    kept = None if schedule is None else keep_rows(det, schedule)
    report = evaluate_tables(gt, det, config, spec, kept)
    payload = {**report.to_dict(), "threshold_mode": label, "n_frames": len(gt.frame_ids)}
    json_path = opts.out_dir / "eval_report.json"
    csv_path = opts.out_dir / "eval_report.csv"
    _write_json(json_path, payload)
    rows: list[list[object]] = [
        ["all", "", "", report.tp, report.fp, report.fn, repr(report.recall), repr(report.precision)]
    ]
    for row in report.per_bin:
        rows.append(
            [
                f"bin{row.bin_index}",
                row.lo_m,
                "" if row.hi_m is None else row.hi_m,
                row.tp,
                row.fp,
                row.fn,
                repr(row.recall),
                repr(row.precision),
            ]
        )
    _write_csv(csv_path, ["scope", "lo_m", "hi_m", "tp", "fp", "fn", "recall", "precision"], rows)
    filtered_note = (
        ""
        if report.average_precision_filtered is None
        else f" ap_filtered={report.average_precision_filtered:.2f}"
    )
    print(
        f"mode {label}: recall={report.recall:.3f} precision={report.precision:.3f} "
        f"trade_off={report.trade_off:.3f} ap={report.average_precision:.2f}{filtered_note}"
    )
    print(f"wrote {json_path} and {csv_path}")
    return EXIT_OK


def cmd_compare(opts: _Options) -> int:
    """delta table between two eval reports"""
    from .evaluation import EvalReport, compare_reports

    baseline = _load_json(opts.baseline, "report", EvalReport.from_dict)
    candidate = _load_json(opts.candidate, "report", EvalReport.from_dict)
    rows = compare_reports(baseline, candidate)
    csv_rows: list[list[object]] = []
    print(f"{'metric':<28}{'baseline':>12}{'candidate':>12}{'delta':>12}")
    for row in rows:
        is_count = row.metric in ("tp", "fp", "fn")
        base = int(row.baseline) if is_count else row.baseline
        cand = int(row.candidate) if is_count else row.candidate
        delta = cand - base
        formatted = f"({delta:+d})" if is_count else row.formatted_delta()
        csv_rows.append([row.metric, base, cand, delta, formatted])
        if is_count:
            print(f"{row.metric:<28}{base:>12d}{cand:>12d}{formatted:>12}")
        else:
            print(f"{row.metric:<28}{base:>12.3f}{cand:>12.3f}{formatted:>12}")
    csv_path = opts.out_dir / "compare.csv"
    _write_csv(csv_path, ["metric", "baseline", "candidate", "delta", "formatted"], csv_rows)
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_synth(opts: _Options) -> int:
    """generate a synthetic dataset from a scenario file"""
    from .synthetic import ScenarioSpec, generate

    out_dir = opts.out_dir
    spec = _load_json(opts.spec, "scenario", ScenarioSpec.from_dict)
    gt, det = generate(spec)
    write_frames(gt, out_dir / "gt")
    write_frames(det, out_dir / "det")
    _write_json(out_dir / "manifest.json", spec.to_dict())
    print(
        f"generated {len(gt.frame_ids)} frames ({len(gt)} ground-truth objects, {len(det)} detections) "
        f"from seed {spec.seed}"
    )
    print(f"wrote {out_dir / 'gt'}, {out_dir / 'det'}, {out_dir / 'manifest.json'}")
    return EXIT_OK


def _decode_stats(data: dict) -> tuple[BinSpec, list[BinStats]]:
    """The BinSpec and the bins of a bin_stats.json object; ValueError for a
    bin outside that spec."""
    spec = BinSpec.from_dict(data)
    bins = [BinStats.from_dict(entry) for entry in data["bins"]]
    for entry in bins:
        spec.edges(entry.bin_index)
    return spec, bins


def cmd_report(opts: _Options) -> int:
    """render the threshold curve and a summary"""
    from .report import render_summary_md, render_threshold_svg

    model = _load_model(opts.model)
    spec, bins = BinSpec(), []
    if opts.stats is not None:
        spec, bins = _load_json(opts.stats, "stats", _decode_stats)
    svg_path = opts.out_dir / "threshold_curve.svg"
    md_path = opts.out_dir / "summary.md"
    write_text_atomic(svg_path, render_threshold_svg(model, bins, spec))
    write_text_atomic(md_path, render_summary_md(model, bins, spec))
    print(f"wrote {svg_path} and {md_path}")
    return EXIT_OK


_COMMANDS = {
    "stats": cmd_stats,
    "fit": cmd_fit,
    "filter": cmd_filter,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "synth": cmd_synth,
    "report": cmd_report,
}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this project uses 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, one argument per _OPTIONS row. Every
    argument collects the raw string (a switch collects True); _Options
    converts it."""
    parser = _ArgumentParser(
        prog="adathresh",
        description="Distance-adaptive confidence thresholding and evaluation for KITTI-format detections.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)
    for command, run in _COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        for row in _OPTIONS[command]:
            text = f"{row.help} (default {row.default})" if isinstance(row.default, str) else row.help
            if row.flag == row.dest:
                p.add_argument(row.dest, help=text)
            elif row.convert is _parse_switch:
                p.add_argument(row.flag, dest=row.dest, action="store_const", const=True, help=text)
            else:
                p.add_argument(row.flag, dest=row.dest, help=text)
        p.add_argument("--config", help="JSON config file; CLI flags override its keys")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](_Options(args))
    except _UsageError as exc:
        _err(exc)
        return EXIT_USAGE
    except (FitError, ModelRangeError) as exc:
        _err(exc)
        return EXIT_NUMERIC
    except (KittiIOError, OSError, ValueError) as exc:
        _err(exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
