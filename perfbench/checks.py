"""Correctness gates for the outputs of one chain of CLI commands.

Every gate is computed from the input files the CLI read, not from the
package, so a refactor of the package cannot move both sides at once:

- ``stats``: counts, means and stds per bin, recomputed from the files
  under the default pre-filter (40:0.3:0.5).
- ``fit``: a weighted least-squares quadratic through those bins,
  solved again with numpy; ``k`` by continuity.
- ``filter``: each output file holds exactly the input lines scoring at
  least the fitted threshold at their distance, in input order.
- ``eval``: tp+fp and tp+fn against the input counts, per-bin rows
  summing to the totals, the unfiltered AP equal in both modes, and, on
  workloads without duplicates, the known-optimal (tp, fp, fn): objects
  sit at least 6 m apart, so a detection within 1 m of a ground-truth
  box is a true positive and every other one a false positive.

Each check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASS = "Car"
BIN_WIDTH = 10.0
MAX_DISTANCE = 60.0
N_BINS = 6
PRE_FILTER = (40.0, 0.3, 0.5)  # cutoff, low threshold, high threshold
SIGMA_FLOOR = 1e-3
DELTA = 60.0
_SAME_OBJECT_M = 1.0


@dataclass(frozen=True)
class Detection:
    line: str  # whitespace-normalised text of the input line
    is_car: bool
    distance: float
    score: float
    near_gt: bool  # within _SAME_OBJECT_M of a ground-truth Car


@dataclass(frozen=True)
class Inputs:
    """What the checks need to know about a workload's input files."""

    detections: dict[str, list[Detection]]  # file name -> detections in file order
    n_gt: int  # Car ground truth, DontCare excluded
    n_det: int  # Car detections
    candidate_pairs: int  # sum over frames of n_gt * n_det


def _ground(tokens: list[str]) -> tuple[float, float]:
    return float(tokens[11]), float(tokens[13])


def read_inputs(gt_dir: Path, det_dir: Path) -> Inputs:
    detections: dict[str, list[Detection]] = {}
    n_gt = n_det = pairs = 0
    for gt_path in sorted(gt_dir.glob("*.txt")):
        centers = []
        for line in gt_path.read_text(encoding="utf-8").splitlines():
            tokens = line.split()
            if tokens and tokens[0] == CLASS:
                centers.append(_ground(tokens))
        det_path = det_dir / gt_path.name
        frame: list[Detection] = []
        if det_path.exists():
            for line in det_path.read_text(encoding="utf-8").splitlines():
                tokens = line.split()
                if not tokens:
                    continue
                x, z = _ground(tokens)
                near = any(math.hypot(x - gx, z - gz) < _SAME_OBJECT_M for gx, gz in centers)
                frame.append(
                    Detection(" ".join(tokens), tokens[0] == CLASS, math.hypot(x, z), float(tokens[15]), near)
                )
        cars = sum(d.is_car for d in frame)
        n_gt += len(centers)
        n_det += cars
        pairs += len(centers) * cars
        detections[gt_path.name] = frame
    return Inputs(detections, n_gt, n_det, pairs)


def threshold(model: dict, distance: float) -> float:
    if distance <= model["delta"]:
        return (model["alpha"] * distance + model["beta"]) * distance + model["gamma"]
    return model["k"]


def kept_by_model(inputs: Inputs, model: dict) -> dict[str, list[Detection]]:
    return {
        name: [d for d in dets if d.score >= threshold(model, d.distance)]
        for name, dets in inputs.detections.items()
    }


def pre_filtered_samples(inputs: Inputs) -> list[tuple[float, float]]:
    cutoff, low, high = PRE_FILTER
    return [
        (d.distance, d.score)
        for dets in inputs.detections.values()
        for d in dets
        if d.is_car and d.score >= (high if d.distance < cutoff else low)
    ]


def expected_bins(samples: list[tuple[float, float]]) -> list[tuple[int, float | None, float | None]]:
    buckets: list[list[float]] = [[] for _ in range(N_BINS)]
    for distance, score in samples:
        if distance < MAX_DISTANCE:
            buckets[min(int(distance // BIN_WIDTH), N_BINS - 1)].append(score)
    out = []
    for scores in buckets:
        if not scores:
            out.append((0, None, None))
            continue
        mean = math.fsum(scores) / len(scores)
        std = math.sqrt(math.fsum((s - mean) ** 2 for s in scores) / len(scores))
        out.append((len(scores), mean, std))
    return out


def _close(a: float | None, b: float | None, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _load_json(path: Path) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(path.read_text(encoding="utf-8")), []
    except (OSError, ValueError) as exc:
        return None, [f"cannot read {path.name}: {exc}"]


def check_stats(out_dir: Path, inputs: Inputs) -> tuple[list[str], object]:
    payload, errors = _load_json(out_dir / "bin_stats.json")
    if payload is None:
        return errors, None
    samples = pre_filtered_samples(inputs)
    if payload.get("n_detections_used") != len(samples):
        errors.append(f"n_detections_used {payload.get('n_detections_used')} != {len(samples)}")
    bins = payload.get("bins", [])
    expected = expected_bins(samples)
    if len(bins) != len(expected):
        errors.append(f"{len(bins)} bins, expected {len(expected)}")
    for row, (count, mean, std) in zip(bins, expected):
        if row.get("count") != count or not _close(row.get("mean"), mean) or not _close(row.get("std"), std):
            errors.append(f"bin {row.get('bin_index')}: {row} != count {count} mean {mean} std {std}")
    fields = [(row.get("count"), row.get("mean"), row.get("std")) for row in bins]
    return errors, fields


def expected_model(inputs: Inputs) -> dict:
    bins = [(i, m, s) for i, (n, m, s) in enumerate(expected_bins(pre_filtered_samples(inputs))) if n]
    x = np.array([(i + 0.5) * BIN_WIDTH for i, _, _ in bins])
    means = np.array([m for _, m, _ in bins])
    sw = 1.0 / np.maximum(np.array([s for _, _, s in bins]), SIGMA_FLOOR)
    coeffs = np.linalg.lstsq(np.stack([x * x, x, np.ones_like(x)], axis=1) * sw[:, None], means * sw, rcond=None)[0]
    alpha, beta, gamma = (float(c) for c in coeffs)
    return {"alpha": alpha, "beta": beta, "gamma": gamma, "delta": DELTA,
            "k": (alpha * DELTA + beta) * DELTA + gamma}


def check_fit(out_dir: Path, inputs: Inputs) -> tuple[list[str], dict | None]:
    model, errors = _load_json(out_dir / "model.json")
    if model is None:
        return errors, None
    expected = expected_model(inputs)
    for key, value in expected.items():
        got = model.get(key)
        if not isinstance(got, (int, float)) or not _close(got, value, rel=1e-6, abs_tol=1e-9):
            errors.append(f"model {key} = {got!r}, expected {value!r}")
    return errors, {key: model.get(key) for key in expected}


def check_filter(out_dir: Path, inputs: Inputs, model: dict) -> tuple[list[str], int]:
    errors: list[str] = []
    kept = kept_by_model(inputs, model)
    produced = {p.name for p in out_dir.glob("*.txt")} if out_dir.is_dir() else set()
    if produced != set(kept):
        errors.append(f"filter wrote {len(produced)} files for {len(kept)} inputs")
    for name in sorted(produced & set(kept)):
        lines = [" ".join(l.split()) for l in (out_dir / name).read_text(encoding="utf-8").splitlines() if l.strip()]
        if lines != [d.line for d in kept[name]]:
            errors.append(f"{name}: {len(lines)} lines kept, expected {len(kept[name])}")
            break
    return errors, sum(len(v) for v in kept.values())


def eval_fields(report: dict) -> dict:
    return {
        "tp": report.get("tp"),
        "fp": report.get("fp"),
        "fn": report.get("fn"),
        "average_precision": report.get("average_precision"),
        "average_precision_filtered": report.get("average_precision_filtered"),
        "per_bin": [
            [row.get(k) for k in ("bin_index", "tp", "fp", "fn", "recall", "precision")]
            for row in report.get("per_bin", [])
        ],
    }


def _oracle(inputs: Inputs, kept: dict[str, list[Detection]] | None) -> tuple[int, int, int]:
    source = inputs.detections if kept is None else kept
    tp = sum(d.near_gt for dets in source.values() for d in dets if d.is_car)
    fp = sum(not d.near_gt for dets in source.values() for d in dets if d.is_car)
    return tp, fp, inputs.n_gt - tp


def check_eval(
    out_dir: Path, inputs: Inputs, model: dict | None, duplicates: int, ap_unfiltered: float | None
) -> tuple[list[str], dict | None]:
    """Gates for one eval report; model is None for --threshold-mode none."""
    report, errors = _load_json(out_dir / "eval_report.json")
    if report is None:
        return errors, None
    fields = eval_fields(report)
    tp, fp, fn = fields["tp"], fields["fp"], fields["fn"]
    if not all(isinstance(v, int) for v in (tp, fp, fn)):
        return errors + [f"non-integer counts {tp!r} {fp!r} {fn!r}"], fields
    kept = None if model is None else kept_by_model(inputs, model)
    n_det = inputs.n_det if kept is None else sum(d.is_car for dets in kept.values() for d in dets)
    if tp + fp != n_det:
        errors.append(f"tp+fp = {tp + fp}, expected {n_det} detections")
    if tp + fn != inputs.n_gt:
        errors.append(f"tp+fn = {tp + fn}, expected {inputs.n_gt} ground-truth objects")
    sums = [sum(row[i] for row in fields["per_bin"]) for i in (1, 2, 3)]
    if sums != [tp, fp, fn]:
        errors.append(f"per-bin sums {sums} != totals {[tp, fp, fn]}")
    if (fields["average_precision_filtered"] is None) != (model is None):
        errors.append("average_precision_filtered present iff a threshold mode is set")
    if ap_unfiltered is not None and not _close(fields["average_precision"], ap_unfiltered):
        errors.append(f"unfiltered AP {fields['average_precision']} != {ap_unfiltered} from eval none")
    if duplicates == 0:
        expected = _oracle(inputs, kept)
        if (tp, fp, fn) != expected:
            errors.append(f"(tp, fp, fn) = {(tp, fp, fn)}, known-optimal {expected}")
    return errors, fields


def compare(got: object, want: object) -> bool:
    """Equality with a relative tolerance of 1e-9 on floats."""
    if isinstance(want, float) or isinstance(got, float):
        return isinstance(got, (int, float)) and isinstance(want, (int, float)) and _close(got, want)
    if isinstance(want, (list, tuple)):
        return isinstance(got, (list, tuple)) and len(got) == len(want) and all(
            compare(g, w) for g, w in zip(got, want)
        )
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            compare(got[k], want[k]) for k in want
        )
    return got == want
