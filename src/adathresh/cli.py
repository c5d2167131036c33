"""Command-line interface.

Subcommands: stats, fit, filter, eval, compare, synth, report. Options
resolve with precedence CLI flag > config file (--config, JSON keyed by
the flag names with dashes as underscores) > built-in default. Exit
codes: 0 success, 1 usage error, 2 data or parse error, 3 numerical
failure. Every output file is written atomically (temp file + rename);
CSV uses RFC 4180 quoting and JSON a stable key order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import compress
from pathlib import Path
from typing import TYPE_CHECKING

from .bin_stats import BinSpec, BinStats, PreFilter, compute_bin_stats, table_samples
from .kitti_io import (
    DatasetError,
    KittiIOError,
    load_tables,
    read_label_table,
    write_label_file,
    write_text_atomic,
)
from .threshold import (
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
if TYPE_CHECKING:
    from .evaluation import EvalReport

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
    unknown = sorted(set(data) - (set(vars(args)) - {"command"}))
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise _UsageError(f"config file {args.config} has keys that name no {args.command} option: {names}")
    return data


def _flag(key: str) -> str:
    return "--class" if key == "class_name" else "--" + key.replace("_", "-")


def _resolve(args: argparse.Namespace, file_cfg: dict, key: str, default=None, required=False, convert=None):
    """The key's flag value, else its config-file value, else default,
    passed through convert under _checked when convert is given."""
    value = getattr(args, key, None)
    if value is None:
        value = file_cfg.get(key, default)
    if required and value is None:
        raise _UsageError(f"missing required option {_flag(key)} (or config key '{key}')")
    if convert is None:
        return value
    return _checked(args, file_cfg, (key,), lambda: convert(value))


def _checked(args: argparse.Namespace, file_cfg: dict, keys: tuple[str, ...], build):
    """build(), which converts and checks the values of keys. A bad value
    (ValueError, TypeError, OverflowError) is a DatasetError naming the
    --config file when one of keys took its value from that file, and a
    usage error otherwise. A ModelRangeError passes through (exit 3)."""
    try:
        return build()
    except ModelRangeError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        from_file = [key for key in keys if getattr(args, key, None) is None and key in file_cfg]
        if from_file:
            names = ", ".join(from_file)
            raise DatasetError(f"config file {args.config} has a bad {names} value: {exc}") from exc
        flags = ", ".join(_flag(key) for key in keys if getattr(args, key, None) is not None)
        raise _UsageError(f"bad {flags} value: {exc}" if flags else str(exc)) from exc


def _parse_pre_filter(value) -> PreFilter | None:
    """The schedule of a pre_filter value: 'CUTOFF:LOW:HIGH', 'none', a
    dict of PreFilter fields, or None for the default; ValueError otherwise."""
    if value is None:
        return PreFilter()
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


def _load_model(path: str | Path) -> ThresholdModel:
    return _load_json(path, "model", ThresholdModel.from_dict)


def _bin_spec_from(args: argparse.Namespace, file_cfg: dict) -> BinSpec:
    width = _resolve(args, file_cfg, "bin_width", 10.0)
    max_distance = _resolve(args, file_cfg, "max_distance", 60.0)
    return _checked(
        args,
        file_cfg,
        ("bin_width", "max_distance"),
        lambda: BinSpec(bin_width=float(width), max_distance=float(max_distance)),
    )


def _stats_pipeline(args: argparse.Namespace, file_cfg: dict):
    gt_dir = _resolve(args, file_cfg, "gt_dir", required=True, convert=Path)
    det_dir = _resolve(args, file_cfg, "det_dir", required=True, convert=Path)
    class_name = _resolve(args, file_cfg, "class_name", "Car", convert=str)
    spec = _bin_spec_from(args, file_cfg)
    pre_filter = _resolve(args, file_cfg, "pre_filter", convert=_parse_pre_filter)
    normalize = _resolve(args, file_cfg, "normalized_std", False, convert=bool)
    _, detections = load_tables(gt_dir, det_dir)
    samples = table_samples(detections, class_name, pre_filter)
    stats = compute_bin_stats(samples, spec, normalize_std=normalize)
    return stats, spec, pre_filter, class_name, normalize, len(samples)


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


def _stats_payload(stats, spec, pre_filter, class_name, normalize, n_used) -> dict:
    return {
        "class_name": class_name,
        "bin_width": spec.bin_width,
        "max_distance": spec.max_distance,
        "normalized_std": normalize,
        "pre_filter": None if pre_filter is None else pre_filter.to_dict(),
        "n_detections_used": n_used,
        "bins": [
            {
                "bin_index": entry.bin_index,
                "lo_m": spec.edges(entry.bin_index)[0],
                "hi_m": spec.edges(entry.bin_index)[1],
                "count": entry.count,
                "mean": entry.mean,
                "std": entry.std,
            }
            for entry in stats
        ],
    }


def cmd_stats(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args)
    out_dir = _resolve(args, file_cfg, "out_dir", required=True, convert=Path)
    stats, spec, pre_filter, class_name, normalize, n_used = _stats_pipeline(args, file_cfg)
    csv_path = out_dir / "bin_stats.csv"
    json_path = out_dir / "bin_stats.json"
    _write_csv(csv_path, ["bin_index", "lo_m", "hi_m", "count", "mean", "std"], _stats_rows(stats, spec))
    _write_json(json_path, _stats_payload(stats, spec, pre_filter, class_name, normalize, n_used))
    print(f"binned {n_used} {class_name} detections into {spec.n_bins} bins")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def _parse_k(value) -> float | None:
    """A --k value: a number, or None for 'continuity'."""
    if isinstance(value, str) and value.strip().lower() == "continuity":
        return None
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"expected a number or 'continuity', got {value!r}") from exc


def cmd_fit(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args)
    out_dir = _resolve(args, file_cfg, "out_dir", required=True, convert=Path)
    delta = _resolve(args, file_cfg, "delta", 60.0, convert=float)
    k = _resolve(args, file_cfg, "k", 0.6, convert=_parse_k)
    sigma_floor = _resolve(args, file_cfg, "sigma_floor", 1e-3, convert=float)
    stats, spec, _, _, _, _ = _stats_pipeline(args, file_cfg)
    # fit_quadratic checks sigma_floor; a fit failure is a FitError.
    result = _checked(
        args,
        file_cfg,
        ("sigma_floor",),
        lambda: fit_quadratic(stats, spec, delta=delta, k=k, sigma_floor=sigma_floor),
    )
    model_path = out_dir / "model.json"
    report_path = out_dir / "fit_report.csv"
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


def cmd_filter(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args)
    det_dir = _resolve(args, file_cfg, "det_dir", required=True, convert=Path)
    out_dir = _resolve(args, file_cfg, "out_dir", required=True, convert=Path)
    label, schedule = _resolve(args, file_cfg, "threshold_mode", required=True, convert=_parse_threshold_mode)
    table = read_label_table(det_dir, "detection", expect_score=True)
    kept = [True] * len(table) if schedule is None else keep_rows(table, schedule)
    out_dir.mkdir(parents=True, exist_ok=True)  # exists even when det_dir holds no file
    # Each kept line is written as read, with an LF ending.
    for name, start, stop in zip(table.files, table.offsets, table.offsets[1:]):
        lines = compress(table.lines[start:stop], kept[start:stop])
        write_text_atomic(out_dir / name, "".join(line + "\n" for line in lines))
    print(f"kept {sum(kept)} of {len(table)} detections under mode {label}; wrote {out_dir}")
    return EXIT_OK


def _parse_ap(value) -> str:
    """The ap_interpolation of an --ap value."""
    key = str(value)
    if key not in _AP_MODES:
        raise ValueError(f"expected 11 or 40, got {key!r}")
    return _AP_MODES[key]


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import MatchConfig, evaluate_tables

    file_cfg = _load_config_file(args)
    gt_dir = _resolve(args, file_cfg, "gt_dir", required=True, convert=Path)
    det_dir = _resolve(args, file_cfg, "det_dir", required=True, convert=Path)
    out_dir = _resolve(args, file_cfg, "out_dir", required=True, convert=Path)
    spec = _bin_spec_from(args, file_cfg)
    label, schedule = _resolve(args, file_cfg, "threshold_mode", "none", convert=_parse_threshold_mode)
    ap_interpolation = _resolve(args, file_cfg, "ap", "11", convert=_parse_ap)
    config = _checked(
        args,
        file_cfg,
        ("iou", "iou_thr", "class_name", "difficulty"),
        lambda: MatchConfig(
            iou_kind=str(_resolve(args, file_cfg, "iou", "bev")),
            iou_threshold=float(_resolve(args, file_cfg, "iou_thr", 0.7)),
            class_name=str(_resolve(args, file_cfg, "class_name", "Car")),
            ap_interpolation=ap_interpolation,
            difficulty=_resolve(args, file_cfg, "difficulty"),
        ),
    )
    gt, det = load_tables(gt_dir, det_dir)
    kept = None if schedule is None else keep_rows(det, schedule)
    report = evaluate_tables(gt, det, config, spec, kept)
    payload = report.to_dict()
    payload["threshold_mode"] = label
    payload["n_frames"] = len(gt.frame_ids)
    json_path = out_dir / "eval_report.json"
    csv_path = out_dir / "eval_report.csv"
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


def _load_report(path: str) -> EvalReport:
    from .evaluation import EvalReport

    return _load_json(path, "report", EvalReport.from_dict)


def cmd_compare(args: argparse.Namespace) -> int:
    from .evaluation import compare_reports

    file_cfg = _load_config_file(args)
    out_dir = _resolve(args, file_cfg, "out_dir", required=True, convert=Path)
    baseline = _load_report(args.baseline)
    candidate = _load_report(args.candidate)
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
    csv_path = out_dir / "compare.csv"
    _write_csv(csv_path, ["metric", "baseline", "candidate", "delta", "formatted"], csv_rows)
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    from .synthetic import ScenarioSpec, generate, scenario_totals

    file_cfg = _load_config_file(args)
    out_dir = _resolve(args, file_cfg, "out_dir", required=True, convert=Path)
    spec_path = _resolve(args, file_cfg, "spec", required=True, convert=Path)
    spec = _load_json(spec_path, "scenario", ScenarioSpec.from_dict)
    frames = generate(spec)
    for frame in frames:
        write_label_file(out_dir / "gt" / f"{frame.frame_id}.txt", list(frame.ground_truth))
        write_label_file(out_dir / "det" / f"{frame.frame_id}.txt", list(frame.detections))
    _write_json(out_dir / "manifest.json", spec.to_dict())
    n_gt, n_det = scenario_totals(frames)
    print(
        f"generated {len(frames)} frames ({n_gt} ground-truth objects, {n_det} detections) "
        f"from seed {spec.seed}"
    )
    print(f"wrote {out_dir / 'gt'}, {out_dir / 'det'}, {out_dir / 'manifest.json'}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    from .report import render_summary_md, render_threshold_svg

    file_cfg = _load_config_file(args)
    out_dir = _resolve(args, file_cfg, "out_dir", required=True, convert=Path)
    model = _load_model(_resolve(args, file_cfg, "model", required=True, convert=Path))
    stats_path = _resolve(args, file_cfg, "stats", convert=lambda value: None if value is None else Path(value))
    bins: list[BinStats] = []
    spec = BinSpec()
    if stats_path is not None:
        data = _read_json(stats_path, "stats")
        try:
            spec = BinSpec(bin_width=float(data["bin_width"]), max_distance=float(data["max_distance"]))
            bins = [
                BinStats(
                    bin_index=int(entry["bin_index"]),
                    count=int(entry["count"]),
                    mean=entry["mean"],
                    std=entry["std"],
                )
                for entry in data["bins"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"stats file {stats_path} has an unexpected shape: {exc}") from exc
    svg_path = out_dir / "threshold_curve.svg"
    md_path = out_dir / "summary.md"
    write_text_atomic(svg_path, render_threshold_svg(model, bins, spec))
    write_text_atomic(md_path, render_summary_md(model, bins, spec))
    print(f"wrote {svg_path} and {md_path}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this project uses 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_io_flags(parser: argparse.ArgumentParser, *, gt: bool = True, det: bool = True) -> None:
    if gt:
        parser.add_argument("--gt-dir", dest="gt_dir", help="directory of ground-truth label files")
    if det:
        parser.add_argument("--det-dir", dest="det_dir", help="directory of detection files")
    parser.add_argument("--out-dir", dest="out_dir", help="directory for outputs")
    parser.add_argument("--config", help="JSON config file; CLI flags override its keys")


def _add_binning_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--class", dest="class_name", help="object class to use (default Car)")
    parser.add_argument("--bin-width", dest="bin_width", type=float, help="bin width in meters (default 10)")
    parser.add_argument(
        "--max-distance", dest="max_distance", type=float, help="binning range end in meters (default 60)"
    )
    parser.add_argument(
        "--pre-filter",
        dest="pre_filter",
        help="'CUTOFF:LOW:HIGH' score pre-filter (default 40:0.3:0.5) or 'none'",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="adathresh",
        description="Distance-adaptive confidence thresholding and evaluation for KITTI-format detections.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p_stats = sub.add_parser("stats", help="distance-binned score statistics")
    _add_io_flags(p_stats)
    _add_binning_flags(p_stats)
    p_stats.add_argument(
        "--normalized-std",
        dest="normalized_std",
        action="store_const",
        const=True,
        help="divide each bin's std by its mean",
    )

    p_fit = sub.add_parser("fit", help="fit the quadratic threshold to binned statistics")
    _add_io_flags(p_fit)
    _add_binning_flags(p_fit)
    p_fit.add_argument("--delta", type=float, help="quadratic/constant cutover distance (default 60)")
    p_fit.add_argument("--k", help="far-range constant threshold, or 'continuity' (default 0.6)")
    p_fit.add_argument("--sigma-floor", dest="sigma_floor", type=float, help="minimum std used in weights")

    p_filter = sub.add_parser("filter", help="write threshold-filtered copies of detection files")
    _add_io_flags(p_filter, gt=False)
    p_filter.add_argument(
        "--threshold-mode",
        dest="threshold_mode",
        help="'none', 'single:<t>' or 'adaptive:<model.json>'",
    )

    p_eval = sub.add_parser("eval", help="match detections against ground truth and report metrics")
    _add_io_flags(p_eval)
    _add_binning_flags(p_eval)
    p_eval.add_argument("--iou", choices=("bev", "3d"), help="IoU kind (default bev)")
    p_eval.add_argument("--iou-thr", dest="iou_thr", type=float, help="matching IoU threshold (default 0.7)")
    p_eval.add_argument("--ap", choices=("11", "40"), help="AP interpolation points (default 11)")
    p_eval.add_argument(
        "--difficulty", choices=("easy", "moderate", "hard"), help="optional ground-truth stratum filter"
    )
    p_eval.add_argument(
        "--threshold-mode",
        dest="threshold_mode",
        help="'none' (default), 'single:<t>' or 'adaptive:<model.json>'",
    )

    p_compare = sub.add_parser("compare", help="delta table between two eval reports")
    p_compare.add_argument("baseline", help="baseline eval_report.json")
    p_compare.add_argument("candidate", help="candidate eval_report.json")
    p_compare.add_argument("--out-dir", dest="out_dir", help="directory for compare.csv")
    p_compare.add_argument("--config", help="JSON config file")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset from a scenario file")
    p_synth.add_argument("--spec", help="scenario JSON file")
    p_synth.add_argument("--out-dir", dest="out_dir", help="output directory (gt/, det/, manifest.json)")
    p_synth.add_argument("--config", help="JSON config file")

    p_report = sub.add_parser("report", help="render the threshold curve and a summary")
    p_report.add_argument("--model", help="model JSON file")
    p_report.add_argument("--stats", help="bin_stats.json to overlay (optional)")
    p_report.add_argument("--out-dir", dest="out_dir", help="directory for SVG and markdown")
    p_report.add_argument("--config", help="JSON config file")

    return parser


_COMMANDS = {
    "stats": cmd_stats,
    "fit": cmd_fit,
    "filter": cmd_filter,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "synth": cmd_synth,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        _err(exc)
        return EXIT_USAGE
    except (FitError, ModelRangeError) as exc:
        _err(exc)
        return EXIT_NUMERIC
    except (KittiIOError, OSError) as exc:
        _err(exc)
        return EXIT_DATA
    except ValueError as exc:
        _err(exc)
        return EXIT_DATA if _is_evaluation_error(exc) else EXIT_USAGE


def _is_evaluation_error(exc: ValueError) -> bool:
    """Whether exc is an EvaluationError, without importing the evaluation
    module to ask: only a command that loaded it can raise one."""
    evaluation = sys.modules.get(f"{__package__}.evaluation")
    return evaluation is not None and isinstance(exc, evaluation.EvaluationError)


if __name__ == "__main__":
    sys.exit(main())
