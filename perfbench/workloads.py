"""Workload definitions and set-up: synthetic inputs made from a seed.

Every workload is generated by the program's own ``synth`` subcommand
from a scenario file; ``crowded`` then appends jittered duplicates to
each detection, the way a detector's pre-NMS output looks. The
benchmark seed ``n`` becomes scenario seed ``BASE_SEED + n``, so seed 0
reproduces ``scripts/run_synthetic_pipeline.py``'s scenario.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASE_SEED = 20250121
DEFAULT_SEED = 0

# The scenario of scripts/run_synthetic_pipeline.py, copied so that the
# benchmark's inputs do not change when that script does.
_SCORE_MODEL = {
    "a": -4e-05,
    "b": -0.0075,
    "c": 0.92,
    "noise_std": [0.01, 0.012, 0.015, 0.02, 0.035, 0.05],
}
_BASE_SCENARIO = {
    "objects_per_frame": [2, 5],
    "distance_range": [2.0, 60.0],
    "score_model": _SCORE_MODEL,
    "fp_rate_per_bin": [0.5, 0.4, 0.3, 0.2, 0.15, 0.1],
    "fn_rate_per_bin": [0.02, 0.03, 0.05, 0.08, 0.12, 0.18],
    "bin_spec": {"bin_width": 10.0, "max_distance": 60.0},
}

# Pre-NMS style duplicates appended to every detection in ``crowded``.
DUPLICATES = 3
_DUP_CENTER = 0.6  # meters, uniform in x and z
_DUP_YAW = 0.3  # radians
_DUP_SCORE = (0.5, 0.98)  # multiplier on the source score


@dataclass(frozen=True)
class Workload:
    name: str
    n_frames: int
    objects_per_frame: tuple[int, int]
    duplicates: int
    why: str

    def scenario(self, seed: int, n_frames: int | None = None) -> dict:
        spec = dict(_BASE_SCENARIO)
        spec["seed"] = BASE_SEED + seed
        spec["n_frames"] = self.n_frames if n_frames is None else n_frames
        spec["objects_per_frame"] = list(self.objects_per_frame)
        return spec


# Sizes keep one lap of the five-command chain to 3.5-4 s, so that a
# 50 s run holds 12-14 laps: one command's wall time varies 10-20 % from
# lap to lap on a shared 2-CPU machine, and only a median over many laps
# is steady. crowded fixes 16 cars a frame (the middle of 12-20) so that
# the IoU work varies less from seed to seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kitti-val", 800, (2, 5), 0,
            "the paper's scenario: objects 6 m apart, so per-file parsing and writes weigh most",
        ),
        Workload(
            "crowded", 60, (16, 16), DUPLICATES,
            "16 cars a frame plus 3 pre-NMS duplicates per detection: IoU and matching dominate eval",
        ),
    )
}


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _wrap_angle(angle: float) -> float:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def add_duplicates(det_dir: Path, scenario_seed: int, copies: int) -> None:
    """Append ``copies`` jittered, lower-scored duplicates of every detection.

    Files are processed in name order and draws are taken in a fixed
    order, so the result depends only on the files and the seed.
    """
    rng = np.random.default_rng([scenario_seed, 1])
    for path in sorted(det_dir.glob("*.txt")):
        lines = path.read_text(encoding="utf-8").splitlines()
        out = list(lines)
        for line in lines:
            tokens = line.split()
            x, z = float(tokens[11]), float(tokens[13])
            yaw, score = float(tokens[14]), float(tokens[15])
            for _ in range(copies):
                dx, dz, dyaw = rng.uniform(-1.0, 1.0, size=3)
                factor = rng.uniform(*_DUP_SCORE)
                nx = x + _DUP_CENTER * dx
                nz = z + _DUP_CENTER * dz
                nyaw = _wrap_angle(yaw + _DUP_YAW * dyaw)
                dup = list(tokens)
                dup[3] = _fmt(_wrap_angle(nyaw - math.atan2(nx, nz)))
                dup[11], dup[13] = _fmt(nx), _fmt(nz)
                dup[14] = _fmt(nyaw)
                dup[15] = _fmt(score * factor)
                out.append(" ".join(dup))
        path.write_text("".join(f"{line}\n" for line in out), encoding="utf-8")


def tree_digest(root: Path) -> str:
    """sha256 over the sorted relative paths and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()

