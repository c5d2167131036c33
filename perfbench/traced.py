"""Run one adathresh CLI command with the package's public functions timed.

    python3 perfbench/traced.py --spans OUT.npz [--only NAME ...] -- ARGS...

ARGS are the adathresh command line. Before the command runs, each name
in TARGETS is replaced, in every loaded ``adathresh`` module that holds
it, by a wrapper that records a span (name, start, end, parent) and the
counts of its layer. Spans stay in memory and are written to OUT.npz
once, when the command returns. A target the package no longer has is
skipped and so reports 0 calls. ``--only`` restricts wrapping to the
given span names, to time a layer without the others' overhead. The
exit code is the command's.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _sized(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _path_arg(args, kwargs, name: str, position: int):
    return kwargs[name] if name in kwargs else args[position]


def _count_dirs(counts, args, kwargs, result) -> None:
    for name, position in (("gt_dir", 0), ("det_dir", 1)):
        count_dir(counts, _path_arg(args, kwargs, name, position))


def count_dir(counts, directory) -> None:
    for entry in os.scandir(directory):
        if entry.name.endswith(".txt"):
            counts["kitti_io.files_read"] += 1
            counts["kitti_io.bytes_read"] += entry.stat().st_size


def _count_records(counts, args, kwargs, result) -> None:
    counts["kitti_io.records_parsed"] += _sized(result)


def _count_write(counts, args, kwargs, result) -> None:
    counts["kitti_io.files_written"] += 1
    counts["kitti_io.bytes_written"] += os.path.getsize(_path_arg(args, kwargs, "path", 0))


def _count_iou(counts, args, kwargs, result) -> None:
    if result > 0.0:
        counts["geometry.iou.nonzero"] += 1


def _count_matches(counts, args, kwargs, result) -> None:
    counts["evaluation.matches"] += _sized(getattr(result, "matches", ()))


def _count_apply(counts, args, kwargs, result) -> None:
    counts["threshold.apply.in"] += _sized(_path_arg(args, kwargs, "records", 0))
    counts["threshold.apply.kept"] += _sized(result)


def _count_samples(counts, args, kwargs, result) -> None:
    counts["bin_stats.samples"] += _sized(_path_arg(args, kwargs, "samples", 0))


# (module, public name, span name, count hook)
TARGETS = (
    ("kitti_io", "load_dataset", "kitti_io.load_dataset", _count_dirs),
    ("kitti_io", "parse_label_file", "kitti_io.parse_label_file", _count_records),
    ("kitti_io", "write_label_file", "kitti_io.write_label_file", _count_write),
    ("geometry", "iou_bev", "geometry.iou", _count_iou),
    ("geometry", "iou_3d", "geometry.iou", _count_iou),
    ("evaluation", "evaluate", "evaluation.evaluate", None),
    ("evaluation", "match_frame", "evaluation.match_frame", _count_matches),
    ("evaluation", "average_precision", "evaluation.average_precision", None),
    ("threshold", "fit_quadratic", "threshold.fit_quadratic", None),
    ("threshold", "apply_adaptive", "threshold.apply", _count_apply),
    ("threshold", "apply_single", "threshold.apply", _count_apply),
    ("bin_stats", "compute_bin_stats", "bin_stats.compute_bin_stats", _count_samples),
    ("synthetic", "generate", "synthetic.generate", None),
)


class Tracer:
    """Spans in flat arrays; parent is the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, hook):
        nid = self._id(name)
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            counts=np.array(json.dumps(self.counts)),
        )


def install(tracer: Tracer, only: set[str] | None) -> None:
    """Wrap every target in every loaded adathresh module that holds it."""
    importlib.import_module("adathresh.cli")
    modules = [m for n, m in sorted(sys.modules.items()) if n == "adathresh" or n.startswith("adathresh.")]
    for module_name, attr, span, hook in TARGETS:
        if only is not None and span not in only:
            continue
        try:
            original = getattr(importlib.import_module(f"adathresh.{module_name}"), attr)
        except (ImportError, AttributeError):
            continue
        wrapper = tracer.wrap(span, original, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="output .npz file")
    parser.add_argument("--only", action="append", help="span name to wrap (repeatable)")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then the adathresh arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    tracer = Tracer()
    install(tracer, None if args.only is None else set(args.only))
    from adathresh.cli import main as cli_main

    root = tracer.wrap(f"cli.{command[0]}", cli_main, None)
    code = root(command)
    if command[0] == "filter":
        # filter reads each detection file itself, without load_dataset.
        count_dir(tracer.counts, command[command.index("--det-dir") + 1])
    tracer.save(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
