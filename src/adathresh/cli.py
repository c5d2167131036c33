"""Command-line interface.

Subcommands: stats, fit, filter, eval, compare, synth, report. Every
option is one row of _OPTIONS: its config key (the dest), flag, default,
converter and help; _parse_argv reads the command line from those rows.
An option resolves with precedence CLI flag > config file (--config, a
JSON object keyed by the flags' dests; a null value counts as not
given) > the row's default, and the row's converter turns a flag's
string and a config value alike into the value the command uses; a None
default stays None. A real option's config value is never a JSON
boolean. stats and fit read only detection files:
--gt-dir fixes their frame set by file name, and only eval reads ground
truth. Exit codes: 0 success, 1 usage error (including a bad flag
value), 2 data or parse error (including a bad config-file value, named
with its file), 3 numerical failure (an OverflowError out of a command
included). A command's output files (synth's gt/, det/ and
manifest.json too) go through one kitti_io.write_files call, so a new
--out-dir gets all or none of them; CSV uses RFC 4180 quoting and JSON
a stable key order. JSON inputs are decoded as label files are
(strict UTF-8, one leading BOM dropped).
"""

from __future__ import annotations

import csv
import gc
import io
import json
import sys
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .bin_stats import (
    BinSpec, BinStats, FitError, ModelRangeError, PreFilter, Schedule, compute_bin_stats, keep_rows,
    table_samples,
)
from .kitti_io import (
    DatasetError,
    KittiIOError,
    _read_bytes,
    _text,
    label_files,
    load_detections,
    load_tables,
    read_label_table,
    write_files,
)

# threshold, evaluation, synthetic and report load inside the commands that
# use them: stats loads none of them, fit and filter no evaluation, eval
# --threshold-mode none no threshold, and only synth generates scenes.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_AP_MODES = {"11": "eleven_point", "40": "forty_point"}


class _UsageError(ValueError):
    """Bad flag or config value; maps to exit code 1."""


def _err(message: object) -> None:
    print(f"adathresh: error: {message}", file=sys.stderr)


def _json_text(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list[object]]) -> str:
    """The CSV of header and rows, each cell as csv.writer makes it: None
    an empty field, a float its repr."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _write(out_dir: Path, files: dict[str, str]) -> str:
    """write_files of files into out_dir; the line that names what was written."""
    write_files(out_dir, files.items())
    return "wrote " + " and ".join(str(out_dir / name) for name in files)


def _read_json(path: str | Path, kind: str):
    """The JSON value in a `kind` file, decoded as label files are;
    DatasetError naming the file otherwise."""
    try:
        return json.loads(_text(_read_bytes(path)))
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read {kind} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{kind} file {path} is not valid JSON: {exc}") from exc


def _load_json(path: str | Path, kind: str, from_dict):
    """from_dict of a `kind` file's JSON. A missing key or a bad value is a
    DatasetError naming the file; a ModelRangeError stays one (exit 3),
    its message prefixed with the file's name."""
    data = _read_json(path, kind)
    try:
        return from_dict(data)
    except ModelRangeError as exc:
        raise ModelRangeError(f"{kind} file {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"{kind} file {path} has a missing or bad value: {exc}") from exc


def _load_config_file(command: str, path: str | None) -> dict:
    """The --config file's object. A key that names none of the command's
    flags (a positional argument has no key) is a usage error."""
    if path is None:
        return {}
    data = _read_json(path, "config")
    if not isinstance(data, dict):
        raise DatasetError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - {row.dest for row in _OPTIONS[command] if row.flag != row.dest})
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise _UsageError(f"config file {path} has keys that name no {command} option: {names}")
    return data


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
    from .threshold import SingleThreshold, ThresholdModel

    kind, sep, payload = text.partition(":")
    if not sep:
        raise ValueError(f"expected 'none', 'single:<t>' or 'adaptive:<model.json>', got {value!r}")
    if kind == "single":
        schedule = SingleThreshold(float(payload))
        return f"single:{schedule.threshold}", schedule
    if kind == "adaptive":
        if not payload:
            raise ValueError("adaptive mode needs a model file: adaptive:<model.json>")
        return f"adaptive:{payload}", _load_json(payload, "model", ThresholdModel.from_dict)
    raise ValueError(f"unknown threshold mode {kind!r}")


def _parse_real(value) -> float:
    """A real option's value: float() of a flag's string or of a JSON
    number or string. A JSON boolean is a ValueError, not 1.0 or 0.0."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _parse_k(value) -> float | None:
    """A --k value: a number, or None for 'continuity'."""
    if isinstance(value, str) and value.strip().lower() == "continuity":
        return None
    try:
        return _parse_real(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"expected a number or 'continuity', got {value!r}") from exc


def _parse_ap(value) -> str:
    """The ap_interpolation of an --ap value."""
    key = str(value)
    if key not in _AP_MODES:
        raise ValueError(f"expected 11 or 40, got {key!r}")
    return _AP_MODES[key]


def _parse_class_name(value) -> str:
    """A --class value: a string (in a config file, a JSON string) that is
    one label-file token, non-empty and free of whitespace."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    if not value:
        raise ValueError("class_name must be non-empty")
    if value.split() != [value]:
        raise ValueError(f"class_name must be one label token without whitespace, got {value!r}")
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
    _Option("class_name", "--class", "Car", _parse_class_name, "object class to use"),
    _Option("bin_width", "--bin-width", "10", _parse_real, "bin width in meters"),
    _Option("max_distance", "--max-distance", "60", _parse_real, "binning range end in meters"),
)
_PRE_FILTER = _Option(
    "pre_filter", "--pre-filter", "40:0.3:0.5", _parse_pre_filter, "'CUTOFF:LOW:HIGH' score pre-filter or 'none'"
)
_THRESHOLD_MODE = _Option(
    "threshold_mode",
    "--threshold-mode",
    _REQUIRED,
    _parse_threshold_mode,
    "'none', 'single:<t>' or 'adaptive:<model.json>'",
)

_OPTIONS: dict[str, tuple[_Option, ...]] = {
    "stats": (*_IO, *_BINNING, _PRE_FILTER),
    "fit": (
        *_IO,
        *_BINNING,
        _PRE_FILTER,
        _Option("delta", "--delta", "60", _parse_real, "quadratic/constant cutover distance"),
        _Option("k", "--k", "0.6", _parse_k, "far-range constant threshold, or 'continuity'"),
    ),
    "filter": (_DET_DIR, _OUT_DIR, _THRESHOLD_MODE),
    "eval": (
        *_IO,
        *_BINNING,
        _Option("iou", "--iou", "bev", str, "IoU kind: bev or 3d"),
        _Option("iou_thr", "--iou-thr", "0.7", _parse_real, "matching IoU threshold"),
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

    def __init__(self, command: str, given: dict[str, str]) -> None:
        self._config = given.get("config")
        file_cfg = _load_config_file(command, self._config)
        self._from_flag: dict[str, str] = {}  # dest -> flag
        self._from_file: set[str] = set()
        for row in _OPTIONS[command]:
            value = given.get(row.dest)
            if value is not None:
                self._from_flag[row.dest] = row.flag
            elif file_cfg.get(row.dest) is not None:
                value = file_cfg[row.dest]
                self._from_file.add(row.dest)
            else:
                value = row.default
            if value is _REQUIRED:
                what = f"argument {row.dest}" if row.flag == row.dest else f"option {row.flag} (or config key '{row.dest}')"
                raise _UsageError(f"missing required {what}")
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


def _stats_pipeline(opts: _Options) -> tuple[list[BinStats], BinSpec, int]:
    spec = opts.checked(("bin_width", "max_distance"), lambda: BinSpec(opts.bin_width, opts.max_distance))
    # --gt-dir only fixes the frame set: no ground-truth file is read.
    detections = load_detections(opts.gt_dir, opts.det_dir)
    samples = table_samples(detections, opts.class_name, opts.pre_filter)
    stats = compute_bin_stats(samples, spec)
    return stats, spec, len(samples)


def cmd_stats(opts: _Options) -> int:
    """distance-binned score statistics"""
    stats, spec, n_used = _stats_pipeline(opts)
    payload = {
        **spec.to_dict(),
        "class_name": opts.class_name,
        "pre_filter": None if opts.pre_filter is None else opts.pre_filter.to_dict(),
        "n_detections_used": n_used,
        "bins": [
            dict(zip(("lo_m", "hi_m"), spec.edges(entry.bin_index)), **entry.to_dict()) for entry in stats
        ],
    }
    header = ["bin_index", "lo_m", "hi_m", "count", "mean", "std"]
    csv_text = _csv_text(header, [[entry[name] for name in header] for entry in payload["bins"]])
    wrote = _write(opts.out_dir, {"bin_stats.csv": csv_text, "bin_stats.json": _json_text(payload)})
    print(f"binned {n_used} {opts.class_name} detections into {spec.n_bins} bins")
    print(wrote)
    return EXIT_OK


def cmd_fit(opts: _Options) -> int:
    """fit the quadratic threshold to binned statistics"""
    from .threshold import fit_quadratic

    stats, spec, _ = _stats_pipeline(opts)
    # fit_quadratic checks delta and k; a fit failure is a FitError.
    result = opts.checked(("delta", "k"), lambda: fit_quadratic(stats, spec, opts.delta, opts.k))
    by_index = {entry.bin_index: entry for entry in stats}
    rows = [
        [bin_index, x, by_index[bin_index].mean, by_index[bin_index].std, fitted, residual]
        for bin_index, x, fitted, residual in zip(result.bin_indices, result.abscissas, result.fitted, result.residuals)
    ]
    csv_text = _csv_text(["bin_index", "x_m", "mean", "std", "fitted", "residual"], rows)
    wrote = _write(opts.out_dir, {"model.json": _json_text(result.model.to_dict()), "fit_report.csv": csv_text})
    model = result.model
    print(
        f"fit over {len(result.bin_indices)} bins: alpha={model.alpha:.6g} beta={model.beta:.6g} "
        f"gamma={model.gamma:.6g} delta={model.delta:.6g} k={model.k:.6g} "
        f"(weighted rmse {result.weighted_rmse:.6g})"
    )
    print(wrote)
    return EXIT_OK


def cmd_filter(opts: _Options) -> int:
    """write threshold-filtered copies of detection files"""
    label, schedule = opts.threshold_mode
    table = read_label_table(opts.det_dir, "detection", expect_score=True)
    kept = [True] * len(table) if schedule is None else keep_rows(table, schedule)
    write_files(opts.out_dir, label_files(table, kept))  # each kept line as read, LF-terminated
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
    scopes = [("all", "", "", report)]
    scopes += [(f"bin{row.bin_index}", row.lo_m, row.hi_m, row) for row in report.per_bin]
    rows = [[*scope, row.tp, row.fp, row.fn, row.recall, row.precision] for *scope, row in scopes]
    csv_text = _csv_text(["scope", "lo_m", "hi_m", "tp", "fp", "fn", "recall", "precision"], rows)
    wrote = _write(opts.out_dir, {"eval_report.json": _json_text(payload), "eval_report.csv": csv_text})
    filtered_note = (
        ""
        if report.average_precision_filtered is None
        else f" ap_filtered={report.average_precision_filtered:.2f}"
    )
    print(
        f"mode {label}: recall={report.recall:.3f} precision={report.precision:.3f} "
        f"trade_off={report.trade_off:.3f} ap={report.average_precision:.2f}{filtered_note}"
    )
    print(wrote)
    return EXIT_OK


def cmd_compare(opts: _Options) -> int:
    """delta table between two eval reports"""
    from .evaluation import EvalReport, compare_reports

    baseline = _load_json(opts.baseline, "report", EvalReport.from_dict)
    candidate = _load_json(opts.candidate, "report", EvalReport.from_dict)
    rows = compare_reports(baseline, candidate)
    csv_rows: list[list[object]] = []
    print(f"{'metric':<28}{'baseline':>12}{'candidate':>12}{'delta':>12}")
    for metric, base, cand in rows:
        delta = cand - base
        spec = "d" if isinstance(delta, int) else ".3f"  # tp, fp and fn are ints
        formatted = f"({delta:+{spec}})"
        csv_rows.append([metric, base, cand, delta, formatted])
        print(f"{metric:<28}{base:>12{spec}}{cand:>12{spec}}{formatted:>12}")
    csv_text = _csv_text(["metric", "baseline", "candidate", "delta", "formatted"], csv_rows)
    print(_write(opts.out_dir, {"compare.csv": csv_text}))
    return EXIT_OK


def cmd_synth(opts: _Options) -> int:
    """generate a synthetic dataset from a scenario file"""
    from .synthetic import ScenarioSpec, generate

    out_dir = opts.out_dir
    spec = _load_json(opts.spec, "scenario", ScenarioSpec.from_dict)
    gt, det = generate(spec)
    files = chain(
        ((f"gt/{name}", text) for name, text in label_files(gt)),
        ((f"det/{name}", text) for name, text in label_files(det)),
        [("manifest.json", _json_text(spec.to_dict()))],
    )
    write_files(out_dir, files)
    print(
        f"generated {len(gt.frame_ids)} frames ({len(gt)} ground-truth objects, {len(det)} detections) "
        f"from seed {spec.seed}"
    )
    print(f"wrote {out_dir / 'gt'}, {out_dir / 'det'}, {out_dir / 'manifest.json'}")
    return EXIT_OK


def _decode_stats(data: dict) -> tuple[BinSpec, list[BinStats]]:
    """The BinSpec and the bins of a bin_stats.json object; ValueError for a
    bin outside that spec, a std divided by its mean (not in score units;
    an older stats --normalized-std wrote such files), or a mean or std
    off the [0, 1] score axis the report draws."""
    spec = BinSpec.from_dict(data)
    if data.get("normalized_std"):
        raise ValueError("normalized_std is true: the report draws std in score units")
    bins = [BinStats.from_dict(entry) for entry in data["bins"]]
    for entry in bins:
        spec.edges(entry.bin_index)
        if entry.count and not (0.0 <= entry.mean <= 1.0 and entry.std <= 1.0):
            raise ValueError(
                f"bin {entry.bin_index}: mean {entry.mean!r} and std {entry.std!r} must lie within "
                "the [0, 1] score axis the report draws"
            )
    return spec, bins


def cmd_report(opts: _Options) -> int:
    """render the threshold curve and a summary"""
    from .report import render_summary_md, render_threshold_svg
    from .threshold import ThresholdModel

    model = _load_json(opts.model, "model", ThresholdModel.from_dict)
    spec, bins = BinSpec(), []
    if opts.stats is not None:
        spec, bins = _load_json(opts.stats, "stats", _decode_stats)
    try:
        svg = render_threshold_svg(model, bins, spec)
    except ValueError as exc:
        raise DatasetError(f"model file {opts.model} cannot be plotted: {exc}") from exc
    md = render_summary_md(model, bins, spec)
    print(_write(opts.out_dir, {"threshold_curve.svg": svg, "summary.md": md}))
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


_CONFIG = _Option("config", "--config", None, str, "JSON config file; CLI flags override its keys")
_HELP = {"-h": "help", "--help": "help"}


def _is_flag(token: str) -> bool:
    """A flag starts with '-' and is neither '-' alone nor a negative number."""
    return token[:1] == "-" and token[1:2] not in ("", *"0123456789.")


def _match(token: str, flags: dict[str, str]) -> str | None:
    """The flag that token (up to any '=') names, in full or as the prefix
    of one flag only; None when it names none."""
    name = token.partition("=")[0]
    found = [name] if name in flags else [flag for flag in flags if len(name) > 2 and flag.startswith(name)]
    if len(found) > 1:
        raise _UsageError(f"ambiguous option: {name} could match {', '.join(found)}")
    return found[0] if found else None


def _help(commands: list[str]) -> str:
    """The usage line, then each command's flags with their help."""
    lines = [f"usage: adathresh {commands[0] if len(commands) == 1 else 'COMMAND'} [--FLAG VALUE ...]", ""]
    lines.append("Distance-adaptive confidence thresholding and evaluation for KITTI-format detections.")
    for command in commands:
        lines += ["", f"{command}: {_COMMANDS[command].__doc__}"]
        for row in (*_OPTIONS[command], _CONFIG):
            usage = row.dest if row.flag == row.dest else f"{row.flag} {row.dest.upper()}"
            note = f" (default {row.default})" if isinstance(row.default, str) else ""
            lines.append(f"  {usage:<30}{row.help}{' (required)' if row.default is _REQUIRED else note}")
    return "\n".join([*lines, "", f"  {'-h, --help':<30}show this help and exit", ""])


def _parse_argv(argv: list[str]) -> tuple[str, dict[str, str]] | None:
    """The command and the string each of its options was given (the last
    one for a repeated flag), or None once help is printed. A flag takes
    the next token as its value, or the text after '='. A token that the
    command does not take is a usage error."""
    command = argv[0] if argv else ""
    if _is_flag(command) and _match(command, _HELP):
        print(_help(list(_COMMANDS)), end="")
        return None
    if command not in _COMMANDS:
        got = f"unknown command {command!r}" if command else "no command"
        raise _UsageError(f"{got}; expected one of {', '.join(_COMMANDS)}")
    rows = (*_OPTIONS[command], _CONFIG)
    flags = {row.flag: row.dest for row in rows if row.flag != row.dest} | _HELP
    positionals = [row.dest for row in rows if row.flag == row.dest]
    given, unknown = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        flag = _match(token, flags) if _is_flag(token) else None
        if flag in _HELP:
            print(_help([command]), end="")
            return None
        if flag is None and positionals and not _is_flag(token):
            given[positionals.pop(0)] = token
        elif flag is None:
            unknown.append(token)
        elif "=" in token:
            given[flags[flag]] = token.partition("=")[2]
        else:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                raise _UsageError(f"argument {flag}: expected one value")
            given[flags[flag]] = value
    if unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return command, given


def main(argv: list[str] | None = None) -> int:
    try:
        parsed = _parse_argv(sys.argv[1:] if argv is None else argv)
        return EXIT_OK if parsed is None else _COMMANDS[parsed[0]](_Options(*parsed))
    except _UsageError as exc:
        _err(exc)
        return EXIT_USAGE
    except (FitError, ModelRangeError, OverflowError) as exc:
        _err(exc)
        return EXIT_NUMERIC
    except (KittiIOError, OSError, ValueError) as exc:
        _err(exc)
        return EXIT_DATA
    finally:
        if argv is None:  # the process's own command line: spare its shutdown collection a walk over the heap
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
