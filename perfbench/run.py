#!/usr/bin/env python3
"""Benchmark of the adathresh CLI: per-subcommand wall time and a layer trace.

    python3 perfbench/run.py --workload kitti-val --seed 0 --seconds 50 --trace 0

Run from anywhere inside a source checkout: the package is taken from
``src/`` next to this directory. One closed-loop client runs each
subcommand as a fresh process, one at a time. With ``--trace 0`` it
sets the workload up several times, then repeats the chain
``stats, fit, filter, eval none, eval adaptive`` for about ``--seconds``
seconds (at least once) and reports medians; times are scaled to a
reference machine speed (see reference_work). With ``--trace 1`` it runs
the chain once with the package's public functions timed from outside
(see traced.py) and reports per-layer figures. Every output is checked
(see checks.py). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when
every check passed. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from workloads import DEFAULT_SEED, WORKLOADS, BASE_SEED, add_duplicates, tree_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups
# Finished runs' directories are kept, and only the oldest beyond this
# many are deleted. Deleting a run's ~10k files as it ends made file
# creation in the following runs up to twice as slow (ext4 with online
# discard), so a series of runs would have measured its own clean-up.
KEEP_RUNS = 100
# Every timed process is scaled to a host speed at which reference_work()
# takes this long, from SPEED_SAMPLES timings of it just before and as
# many just after the process (see reference_work and README.md).
REFERENCE_WORK_S = 0.030
SPEED_SAMPLES = 2
_CLI = "import sys; from adathresh.cli import main; sys.exit(main())"
_REFERENCE_LINES = [
    " ".join(["Car", "0", "0"] + [f"{(i * 7 + j) % 97 / 3.0:.6f}" for j in range(13)]) for i in range(64)
]

END_TO_END_UNITS = {
    "setup_s": "s",
    "stats_s": "s",
    "fit_s": "s",
    "filter_s": "s",
    "eval_none_s": "s",
    "eval_adaptive_s": "s",
    "pipeline_s": "s",
    "eval_peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "kitti_io.load_dataset.s": "s",
    "kitti_io.load_dataset.calls": "count",
    "kitti_io.load_dataset.jobs2_s": "s",
    "kitti_io.files_read": "count",
    "kitti_io.records_parsed": "count",
    "kitti_io.bytes_read": "bytes",
    "kitti_io.parse_label_file.s": "s",
    "kitti_io.write_label_file.s": "s",
    "kitti_io.files_written": "count",
    "kitti_io.bytes_written": "bytes",
    "geometry.iou.calls": "count",
    "geometry.iou.s": "s",
    "geometry.iou.nonzero_ratio": "ratio",
    "geometry.iou.candidate_pairs": "count",
    "evaluation.evaluate.s": "s",
    "evaluation.evaluate.self_s": "s",
    "evaluation.match_frame.calls": "count",
    "evaluation.match_frame.s": "s",
    "evaluation.average_precision.calls": "count",
    "evaluation.average_precision.s": "s",
    "evaluation.matches": "count",
    "threshold.fit_quadratic.s": "s",
    "threshold.apply.s": "s",
    "threshold.apply.kept_ratio": "ratio",
    "bin_stats.compute_bin_stats.s": "s",
    "bin_stats.samples": "count",
    "bin_stats.pre_filter.kept_ratio": "ratio",
    "synthetic.generate.s": "s",
    "cli.startup_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Call:
    """One child process: what ran, how it ended, and what its checks found."""

    tag: str
    seconds: float
    returncode: int
    maxrss_kb: int
    sys_s: float
    log: Path
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or bool(self.errors)


def reference_work() -> float:
    """A fixed mix of what the CLI does (text parsing, numpy, Python loops), about 30 ms.

    The shared host switches between faster and slower phases lasting
    seconds to minutes, which slow this work and the CLI alike. Timed in
    this process just before and just after a timed child, it measures
    the host's speed while the child ran.
    """
    total = 0.0
    for _ in range(80):
        rows = [[float(t) for t in line.split()[3:]] for line in _REFERENCE_LINES]
        a = np.asarray(rows)
        total += float(np.hypot(a[:, None, 8] - a[None, :, 8], a[:, None, 10] - a[None, :, 10]).sum())
        for row in rows:
            for value in row:
                total += value * 1e-9
    return total


class Runner:
    """Starts children one at a time and keeps every Call for the tally."""

    def __init__(self, work: Path, started: float) -> None:
        self.work = work
        self.deadline = started + RUN_LIMIT_S
        self.calls: list[Call] = []
        self.started = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.reference: list[float] = []  # every timing of reference_work(), for the record
        (work / "logs").mkdir(parents=True)

    def run(self, tag: str, argv: list[str], counted: bool = True) -> Call:
        self.started += 1
        log = self.work / "logs" / f"{self.started:04d}-{tag}.log"
        with open(log, "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        call = Call(tag, seconds, proc.returncode, usage.ru_maxrss, usage.ru_stime, log)
        if counted:
            self.calls.append(call)
        return call

    def reference_seconds(self) -> list[float]:
        """Time reference_work() SPEED_SAMPLES times in this process."""
        times = []
        for _ in range(SPEED_SAMPLES):
            start = perf_counter()
            reference_work()
            times.append(perf_counter() - start)
        self.reference += times
        return times

    def cli(self, tag: str, args: list[str], counted: bool = True) -> Call:
        return self.run(tag, [sys.executable, "-c", _CLI, *args], counted)

    def traced(self, tag: str, args: list[str], spans: Path, only: tuple[str, ...] = (), counted: bool = True) -> Call:
        flags = [f"--only={name}" for name in only]
        return self.run(tag, [sys.executable, str(HERE / "traced.py"), f"--spans={spans}", *flags, "--", *args], counted)


def chain_args(data: Path, out: Path) -> dict[str, list[str]]:
    gt, det = ["--gt-dir", str(data / "gt")], ["--det-dir", str(data / "det")]
    model = f"adaptive:{out / 'fit' / 'model.json'}"
    return {
        "stats": ["stats", *gt, *det, "--out-dir", str(out / "stats")],
        "fit": ["fit", *gt, *det, "--out-dir", str(out / "fit"), "--k", "continuity"],
        "filter": ["filter", *det, "--out-dir", str(out / "filtered"), "--threshold-mode", model],
        "eval_none": ["eval", *gt, *det, "--out-dir", str(out / "eval_none"), "--threshold-mode", "none"],
        "eval_adaptive": ["eval", *gt, *det, "--out-dir", str(out / "eval_adaptive"), "--threshold-mode", model],
    }


def check_chain(calls: dict[str, Call], out: Path, inputs: checks.Inputs, duplicates: int) -> dict:
    """Run every gate on one chain's outputs; errors land on the Call that made them."""
    fields: dict = {}
    errors, fields["stats"] = checks.check_stats(out / "stats", inputs)
    calls["stats"].errors += errors
    errors, model = checks.check_fit(out / "fit", inputs)
    calls["fit"].errors += errors
    fields["model"] = model
    if model is None:
        for tag in ("filter", "eval_adaptive"):
            calls[tag].errors.append("no model to check against")
    else:
        errors, fields["filter_kept"] = checks.check_filter(out / "filtered", inputs, model)
        calls["filter"].errors += errors
    errors, none = checks.check_eval(out / "eval_none", inputs, None, duplicates, None)
    calls["eval_none"].errors += errors
    fields["eval_none"] = none
    if model is not None:
        ap = None if none is None else none["average_precision"]
        errors, adaptive = checks.check_eval(out / "eval_adaptive", inputs, model, duplicates, ap)
        calls["eval_adaptive"].errors += errors
        fields["eval_adaptive"] = adaptive
    return fields


def check_references(reference: dict | None, digests: dict, fields: dict, setup: Call, calls: dict[str, Call]) -> None:
    if reference is None:
        return
    for key in ("gt_sha256", "det_sha256"):
        if digests.get(key) != reference[key]:
            setup.errors.append(f"{key} {digests.get(key)} != pinned {reference[key]}")
    for tag in ("eval_none", "eval_adaptive"):
        if not checks.compare(fields.get(tag), reference[tag]):
            calls[tag].errors.append(f"fields differ from the reference: {fields.get(tag)}")


def known_optimal(workload, seed: int, frames: int, model: dict) -> list[int]:
    """The package's own oracle, synthetic.known_optimal_counts, for the fitted model."""
    sys.path.insert(0, str(SRC))
    from adathresh.synthetic import ScenarioSpec, known_optimal_counts
    from adathresh.threshold import ThresholdModel

    spec = ScenarioSpec.from_dict(workload.scenario(seed, frames))
    return list(known_optimal_counts(spec, ThresholdModel.from_dict(model)))


def check_known_optimal(workload, seed: int, frames: int, fields: dict, reference: dict | None, call: Call) -> None:
    """At the pinned seed, eval adaptive's counts must equal the package's oracle."""
    if reference is None or workload.duplicates or fields.get("model") is None or not fields.get("eval_adaptive"):
        return
    oracle = known_optimal(workload, seed, frames, fields["model"])
    got = [fields["eval_adaptive"][k] for k in ("tp", "fp", "fn")]
    if got != oracle or oracle != reference["known_optimal_counts"]:
        call.errors.append(f"(tp, fp, fn) {got}, known_optimal_counts {oracle}, pinned {reference['known_optimal_counts']}")


def scale(reference: list[float]) -> float:
    """Factor from wall seconds to seconds at the reference host speed."""
    return REFERENCE_WORK_S / statistics.fmean(reference)


def setup(runner: Runner, workload, seed: int, frames: int, repeats: int, traced: bool) -> tuple[Path, list[float], dict]:
    """Generate the inputs `repeats` times, each into a fresh directory, and time each (scaled).

    Copies are deleted with the work directory at the end of the run, so
    that no deletion runs while a later command is timed.
    """
    scenario = runner.work / "scenario.json"
    scenario.write_text(json.dumps(workload.scenario(seed, frames), indent=2, sort_keys=True), encoding="utf-8")
    times: list[float] = []
    digests: dict = {}
    for i in range(repeats):
        data = runner.work / f"data{i}"
        args = ["synth", "--spec", str(scenario), "--out-dir", str(data)]
        before = runner.reference_seconds()
        start = perf_counter()
        call = runner.traced("synth", args, runner.work / "synth.npz") if traced else runner.cli("synth", args)
        if call.returncode == 0 and workload.duplicates:
            add_duplicates(data / "det", BASE_SEED + seed, workload.duplicates)
        seconds = perf_counter() - start
        times.append(seconds * scale(before + runner.reference_seconds()))
        if call.returncode != 0:
            call.errors.append("synth failed")
            continue
        got = {"gt_sha256": tree_digest(data / "gt"), "det_sha256": tree_digest(data / "det")}
        if not digests:
            digests = got
        elif got != digests:
            call.errors.append("inputs differ between set-ups of one run")
    return runner.work / "data0", times, digests


def spread(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["iqr_over_median"] = (q3 - q1) / out["median"] if out["median"] else 0.0
    return out


def measure(runner: Runner, workload, args, data: Path, inputs: checks.Inputs, setup_times: list[float]):
    """The untraced closed loop: (metrics, per-metric spreads, first chain's fields and calls).

    Each time sample is one process's wall time, scaled by the host speed
    around it; each metric is the median of its samples.
    """
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    samples["setup_s"] = setup_times
    unscaled: dict[str, list[float]] = {f"{tag}_s": [] for tag in ("stats", "fit", "filter", "eval_none", "eval_adaptive")}
    sys_time: dict[str, list[float]] = {f"{tag}_s": [] for tag in ("stats", "fit", "filter", "eval_none", "eval_adaptive")}
    first: dict | None = None
    first_calls: dict[str, Call] = {}
    loop_start = perf_counter()
    laps: list[float] = []
    while True:
        lap_start = perf_counter()
        out = runner.work / f"out{len(laps)}"  # kept until the run ends, like the set-up copies
        calls: dict[str, Call] = {}
        scaled: dict[str, float] = {}
        for tag, cli_args in chain_args(data, out).items():
            before = runner.reference_seconds()
            calls[tag] = runner.cli(tag, cli_args)
            scaled[tag] = calls[tag].seconds * scale(before + runner.reference_seconds())
        fields = check_chain(calls, out, inputs, workload.duplicates)
        if first is None:
            first, first_calls = fields, calls
        elif not checks.compare(fields, first):
            for call in calls.values():
                call.errors.append("outputs differ from the first chain of this run")
        for tag, call in calls.items():
            samples[f"{tag}_s"].append(scaled[tag])
            unscaled[f"{tag}_s"].append(call.seconds)
            sys_time[f"{tag}_s"].append(call.sys_s)
        samples["pipeline_s"].append(sum(scaled.values()))
        samples["eval_peak_rss_mb"].append(calls["eval_adaptive"].maxrss_kb / 1024.0)
        laps.append(perf_counter() - lap_start)
        if perf_counter() - loop_start + statistics.median(laps) > args.seconds:
            break
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    spreads = {name: spread(values) for name, values in samples.items()}
    spreads["reference_work_s"] = spread(runner.reference)
    for name, values in sys_time.items():  # file-system phases show up as kernel time
        spreads[name]["sys_median_s"] = statistics.median(values)
        spreads[name]["unscaled_median_s"] = statistics.median(unscaled[name])
    return metrics, spreads, first, first_calls


def load_spans(path: Path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def layer_totals(spans: list[dict]) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
    """Per span name: calls, inclusive seconds and self seconds, plus the counts.

    A span directly inside one of the same name (iou_3d calling iou_bev)
    is not counted again.
    """
    totals: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for trace in spans:
        names, name_id, parent = trace["names"], trace["name_id"], trace["parent"]
        duration = trace["end"] - trace["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        outer = ~has_parent | (name_id[np.where(has_parent, parent, 0)] != name_id)
        for i, name in enumerate(names.tolist()):
            mask = (name_id == i) & outer
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += int(mask.sum())
            entry["s"] += float(duration[mask].sum())
            entry["self_s"] += float((duration - child)[mask].sum())
        for key, value in json.loads(str(trace["counts"])).items():
            counts[key] = counts.get(key, 0) + value
    return totals, counts


def probe_seconds(runner: Runner, args: list[str], name: str, only: tuple[str, ...]) -> float:
    """Inclusive seconds of one layer in a traced child that is neither checked nor counted; 0 if it fails."""
    spans = runner.work / "probe.npz"
    if runner.traced("probe", args, spans, only, counted=False).returncode != 0:
        return 0.0
    return layer_totals([load_spans(spans)])[0].get(name, {}).get("s", 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_run(runner: Runner, workload, args, frames: int, reference: dict | None) -> dict[str, float]:
    """Set-up and chain once under traced.py; returns the per-layer metrics."""
    work = runner.work
    data, _, digests = setup(runner, workload, args.seed, frames, 1, traced=True)
    inputs = checks.read_inputs(data / "gt", data / "det")
    out = work / "out"
    calls = {
        tag: runner.traced(tag, cli_args, work / f"{tag}.npz")
        for tag, cli_args in chain_args(data, out).items()
    }
    fields = check_chain(calls, out, inputs, workload.duplicates)
    check_references(reference, digests, fields, runner.calls[0], calls)
    check_known_optimal(workload, args.seed, frames, fields, reference, calls["eval_adaptive"])
    chain = [load_spans(work / f"{tag}.npz") for tag, call in calls.items() if call.returncode == 0]
    totals, counts = layer_totals(chain)
    synth = layer_totals([load_spans(work / "synth.npz")] if (work / "synth.npz").exists() else [])[0]

    # Probes rewrite checked outputs; they are neither checked nor counted.
    probe_args = chain_args(data, out)
    evaluate = "evaluation.evaluate"
    traced_eval: list[float] = []
    untraced_eval: list[float] = []
    for _ in range(3):  # alternated, so that a drift in machine speed hits both sides
        traced_eval.append(probe_seconds(runner, probe_args["eval_adaptive"], evaluate, ()))
        untraced_eval.append(probe_seconds(runner, probe_args["eval_adaptive"], evaluate, (evaluate,)))
    jobs2_s = probe_seconds(runner, probe_args["stats"] + ["--jobs", "2"], "kitti_io.load_dataset", ("kitti_io.load_dataset",))
    startup = [runner.cli("probe", ["--help"], counted=False).seconds for _ in range(5)]

    def layer(name: str, key: str = "s", source: dict = totals) -> float:
        return source.get(name, {}).get(key, 0)

    iou_calls = layer("geometry.iou", "calls")
    bin_calls = layer("bin_stats.compute_bin_stats", "calls")
    return {
        "kitti_io.load_dataset.s": layer("kitti_io.load_dataset"),
        "kitti_io.load_dataset.calls": layer("kitti_io.load_dataset", "calls"),
        "kitti_io.load_dataset.jobs2_s": jobs2_s,
        "kitti_io.files_read": counts.get("kitti_io.files_read", 0),
        "kitti_io.records_parsed": counts.get("kitti_io.records_parsed", 0),
        "kitti_io.bytes_read": counts.get("kitti_io.bytes_read", 0),
        "kitti_io.parse_label_file.s": layer("kitti_io.parse_label_file"),
        "kitti_io.write_label_file.s": layer("kitti_io.write_label_file"),
        "kitti_io.files_written": counts.get("kitti_io.files_written", 0),
        "kitti_io.bytes_written": counts.get("kitti_io.bytes_written", 0),
        "geometry.iou.calls": iou_calls,
        "geometry.iou.s": layer("geometry.iou"),
        "geometry.iou.nonzero_ratio": _ratio(counts.get("geometry.iou.nonzero", 0), iou_calls),
        "geometry.iou.candidate_pairs": inputs.candidate_pairs,
        "evaluation.evaluate.s": layer("evaluation.evaluate"),
        "evaluation.evaluate.self_s": layer("evaluation.evaluate", "self_s"),
        "evaluation.match_frame.calls": layer("evaluation.match_frame", "calls"),
        "evaluation.match_frame.s": layer("evaluation.match_frame"),
        "evaluation.average_precision.calls": layer("evaluation.average_precision", "calls"),
        "evaluation.average_precision.s": layer("evaluation.average_precision"),
        "evaluation.matches": counts.get("evaluation.matches", 0),
        "threshold.fit_quadratic.s": layer("threshold.fit_quadratic"),
        "threshold.apply.s": layer("threshold.apply"),
        "threshold.apply.kept_ratio": _ratio(counts.get("threshold.apply.kept", 0), counts.get("threshold.apply.in", 0)),
        "bin_stats.compute_bin_stats.s": layer("bin_stats.compute_bin_stats"),
        "bin_stats.samples": counts.get("bin_stats.samples", 0),
        "bin_stats.pre_filter.kept_ratio": _ratio(counts.get("bin_stats.samples", 0), bin_calls * inputs.n_det),
        "synthetic.generate.s": layer("synthetic.generate", source=synth),
        "cli.startup_s": statistics.median(startup),
        "trace.overhead_ratio": _ratio(statistics.median(traced_eval), statistics.median(untraced_eval)),
    }


def environment(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, read from files; 'unknown' outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> list[float] | None:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def prune(keep: int) -> None:
    """Delete the oldest run directories beyond `keep` (see KEEP_RUNS)."""
    runs = sorted(WORK.iterdir(), key=lambda path: path.stat().st_mtime) if WORK.is_dir() else []
    for old in runs[: max(0, len(runs) - keep)]:
        shutil.rmtree(old, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="input seed (default 0: the pinned inputs)")
    parser.add_argument("--seconds", type=float, default=50.0, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--frames", type=int, help="override the workload's frame count (tests)")
    parser.add_argument("--references", type=Path, default=REFERENCES, help="pinned digests and outputs")
    parser.add_argument(
        "--record-references", action="store_true", help="write this run's digests and outputs as the references"
    )
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (SRC / "adathresh" / "cli.py").is_file():
        print(f"perfbench: no adathresh sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    frames = workload.n_frames if args.frames is None else args.frames
    references = json.loads(args.references.read_text(encoding="utf-8")) if args.references.exists() else {}
    reference = references.get(workload.name)
    if reference is not None and (reference["seed"], reference["n_frames"]) != (args.seed, frames):
        reference = None
    if args.record_references:
        reference = None

    record = {"workload": workload.name, "seed": args.seed, "frames": frames, "loadavg_before": loadavg()}
    record.update(environment(ROOT))
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(work, started)
        runner.cli("probe", ["--help"], counted=False)  # compile and cache bytecode before timing
        if args.trace:
            metrics, spreads = traced_run(runner, workload, args, frames, reference), {}
            units = PER_LAYER_UNITS
        else:
            data, setup_times, digests = setup(runner, workload, args.seed, frames, SETUP_REPEATS, False)
            inputs = checks.read_inputs(data / "gt", data / "det")
            metrics, spreads, fields, chain = measure(runner, workload, args, data, inputs, setup_times)
            check_references(reference, digests, fields, runner.calls[0], chain)
            check_known_optimal(workload, args.seed, frames, fields, reference, chain["eval_adaptive"])
            units = END_TO_END_UNITS
            if args.record_references:
                record_references(args, workload, frames, digests, fields, references)
        failed_calls = [call for call in runner.calls if call.failed]
        for call in failed_calls:
            tail = call.log.read_text(errors="replace")[-2000:]
            print(f"perfbench: {call.tag} failed (exit {call.returncode}): {call.errors}\n{tail}", file=sys.stderr)
    finally:
        prune(KEEP_RUNS)

    attempted, failed = len(runner.calls), len(failed_calls)
    record["loadavg_after"] = loadavg()
    record["fail_ratio"] = failed / attempted
    record["spread"] = spreads
    record["wall_s"] = perf_counter() - started
    for name, value in metrics.items():
        print(f"{workload.name:>12} {name:<36} {value:>14.6g} {units[name]}")
    print(json.dumps({"environment": record}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def record_references(args, workload, frames: int, digests: dict, fields: dict, references: dict) -> None:
    entry = {"seed": args.seed, "n_frames": frames, **digests}
    entry["eval_none"] = fields["eval_none"]
    entry["eval_adaptive"] = fields["eval_adaptive"]
    if not workload.duplicates:
        entry["known_optimal_counts"] = known_optimal(workload, args.seed, frames, fields["model"])
    references[workload.name] = entry
    args.references.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
