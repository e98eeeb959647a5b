"""Spans around the calls into each plrefine layer, recorded from outside.

Each traced function is wrapped at every module attribute (or class
attribute, for methods) that holds it, which is where its callers look it
up; nothing inside plrefine is edited. A span is (name, unit, parent, start,
end) plus the counts taken from the call's arguments and result; a
``training.train`` span also counts its optimizer steps, as the calls to
the model's ``with_learnable`` made directly inside it. Spans stay
in memory and are written out once, when the run ends.

A layer's self time is its span's duration minus the durations of its
traced child spans. Per-layer metrics are means per traced unit, except for
``fileio.write_ple``, which only runs during set-up and is reported per
input build.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


def _file_bytes(args: dict, result) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


def _rows(arg: str) -> Callable[[dict, object], dict]:
    def count(args: dict, result) -> dict:
        shape = getattr(args[arg], "shape", (1,))
        return {"rows": shape[0] if len(shape) > 1 else 1}

    return count


def _cells(args: dict, result) -> dict:
    return {"cells": args["images"].shape[0] * args["prototypes"].shape[0]}


def _rows_scanned(args: dict, result) -> dict:
    return {"rows_scanned": args["S"].shape[0] * len(args["class_subset"])}


def _dedup(args: dict, result) -> dict:
    return {"offered": args["pl"].m, "kept": result.m}


def _ids(args: dict, result) -> dict:
    return {"ids": len(args["wanted"])}


def _test_rows(args: dict, result) -> dict:
    return {"rows": args["test"].n}


# (module, attribute, counter). The metric prefix is "<module>.<function>".
LAYERS = (
    ("sweep", "run_sweep", None),
    ("sweep", "run_comparison_scenario", None),
    ("sweep", "load_task", None),
    ("fileio", "read_ple", _file_bytes),
    ("fileio", "write_ple", _file_bytes),
    ("synth", "synth_generate", None),
    ("strategies", "run_strategy", None),
    ("strategies", "wire_paradigm", None),
    ("pseudolabels", "similarity_matrix", _cells),
    ("pseudolabels", "topk_per_class", _rows_scanned),
    ("pseudolabels", "drop_duplicate_assignments", _dedup),
    ("pseudolabels", "pseudolabel_accuracy", None),
    ("core", "EmbeddingSet.rows_for_ids", _ids),
    ("training", "train", None),
    ("probe", "LinearProbe.loss_and_grad", _rows("feats")),
    ("surrogate", "batch_loss_and_grad", _rows("feats")),
    ("surrogate", "image_features", _rows("z")),
    ("surrogate", "class_prototypes", None),
    ("metrics", "evaluate", _test_rows),
)

# Classes whose with_learnable() train() calls once per optimizer step; the
# calls made directly inside a training.train span are its steps.
STEP_METHODS = (("surrogate", "PromptModel"), ("probe", "LinearProbe"))

# Layers reported per input build instead of per unit.
SETUP_LAYERS = ("fileio.write_ple",)

# Reported counts beyond calls and self_s: metric suffix -> unit.
EXTRA_STATS = {
    "pseudolabels.topk_per_class": {"rows_scanned": "count"},
    "pseudolabels.drop_duplicate_assignments": {"kept_ratio": "ratio"},
    "pseudolabels.similarity_matrix": {"cells": "count"},
    "core.rows_for_ids": {"ids": "count"},
    "training.train": {"steps": "count", "rows_per_s": "1/s"},
    "surrogate.batch_loss_and_grad": {"rows": "count"},
    "surrogate.image_features": {"rows": "count"},
    "metrics.evaluate": {"rows": "count"},
    "fileio.read_ple": {"bytes": "B"},
    "fileio.write_ple": {"bytes": "B"},
}


def layer_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.rsplit('.', 1)[-1]}"


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, attribute, _ in LAYERS:
        name = layer_name(module, attribute)
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        for stat, unit in EXTRA_STATS.get(name, {}).items():
            units[f"{name}.{stat}"] = unit
    units["pseudolabels.pl_acc"] = "ratio"
    units["trace.run_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


class Tracer:
    """Records spans while active; wrappers are removed when inactive."""

    def __init__(self) -> None:
        # Each span: [name, unit, parent index, start, end, counts or None].
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._unit: object = None
        self._patches: List[tuple] = []

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack
        params = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, self._unit, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(idx)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter({**dict(zip(params, args)), **kwargs}, result)
            return result

        return traced

    def _install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "plrefine" or n.startswith("plrefine.")]
        for module, attribute, counter in LAYERS:
            owner = importlib.import_module(f"plrefine.{module}")
            owner_name, _, fn_name = attribute.rpartition(".")
            name = layer_name(module, attribute)
            if owner_name:
                cls = getattr(owner, owner_name)
                original = cls.__dict__[fn_name]
                self._patches.append((cls, fn_name, original))
                setattr(cls, fn_name, self._wrap(name, original, counter))
                continue
            original = getattr(owner, fn_name)
            traced = self._wrap(name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, traced)
        for module, cls_name in STEP_METHODS:
            cls = getattr(importlib.import_module(f"plrefine.{module}"), cls_name)
            original = cls.__dict__["with_learnable"]
            self._patches.append((cls, "with_learnable", original))
            setattr(cls, "with_learnable", self._count_step(original))

    def _count_step(self, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "training.train":
                span = spans[stack[-1]]
                span[5] = span[5] or {}
                span[5]["steps"] = span[5].get("steps", 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self, unit: object):
        """Trace the calls made inside the block, tagging spans with ``unit``."""
        self._unit = unit
        self._install()
        try:
            yield
        finally:
            self._remove()
            self._unit = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, unit, parent, start, end, counts in self.spans:
                row = {"name": name, "unit": unit, "parent": parent, "start": start, "end": end}
                if counts:
                    row["counts"] = counts
                fh.write(json.dumps(row) + "\n")

    def layer_metrics(self, n_units: int, n_builds: int) -> Dict[str, float]:
        """calls, self_s and the extra counts of every layer, per unit
        (per input build for SETUP_LAYERS)."""
        child_time = defaultdict(float)
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, (name, unit, _, start, end, counts) in enumerate(self.spans):
            if (unit == "setup") != (name in SETUP_LAYERS):
                continue
            stats = totals[name]
            stats["calls"] += 1
            stats["self_s"] += end - start - child_time[idx]
            stats["span_s"] += end - start
            for key, value in (counts or {}).items():
                stats[key] += value

        rows_trained = totals["surrogate.batch_loss_and_grad"]["rows"] + totals["probe.loss_and_grad"]["rows"]
        train_s = totals["training.train"]["span_s"]
        dedup = totals["pseudolabels.drop_duplicate_assignments"]
        derived = {
            "training.train.rows_per_s": rows_trained / train_s if train_s else 0.0,
            # Nothing offered means nothing was dropped.
            "pseudolabels.drop_duplicate_assignments.kept_ratio": (
                dedup["kept"] / dedup["offered"] if dedup["offered"] else 1.0
            ),
        }
        metrics = {}
        for module, attribute, _ in LAYERS:
            name = layer_name(module, attribute)
            per = n_builds if name in SETUP_LAYERS else n_units
            stats = totals[name]
            for stat in ("calls", "self_s", *EXTRA_STATS.get(name, {})):
                key = f"{name}.{stat}"
                metrics[key] = derived[key] if key in derived else stats[stat] / per
        return metrics
