"""Experiment config: a small, strictly validated JSON schema.

Unknown keys are rejected at every level so a typo ("epochz") fails loudly
instead of silently running defaults. The schema is versioned; bump
SCHEMA_VERSION when the layout changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .core import PARADIGMS
from .strategies import STRATEGIES, default_schedule
from .surrogate import MODALITIES
from .synth import SyntheticSpec
from .training import TrainSchedule

SCHEMA_VERSION = 1

_SCHEDULE_KEYS = {"epochs", "warmup_epochs", "warmup_lr", "peak_lr", "batch_size", "momentum"}
_TASK_KEYS = {"synthetic", "train_path", "test_path"}
_TOP_KEYS = {
    "schema_version",
    "output_dir",
    "task",
    "strategies",
    "paradigms",
    "seeds",
    "K",
    "I",
    "modality",
    "prompt_len",
    "temperature",
    "shots_per_class",
    "schedule",
    "dedup_pseudolabels",
    "init_scale",
    "init_spread",
    "threshold_tau",
    "split_seed",
}
_SYNTH_KEYS = {"C", "d", "labeled_per_class", "unlabeled_per_class", "sigma", "delta", "seed"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and canonicalized experiment description."""

    strategies: tuple
    paradigms: tuple
    seeds: tuple
    synthetic: Optional[SyntheticSpec] = None
    train_path: Optional[str] = None
    test_path: Optional[str] = None
    output_dir: str = "runs"
    K: int = 16
    I: int = 10
    modality: str = "textual"
    prompt_len: Optional[int] = None
    temperature: float = 100.0
    shots_per_class: int = 2
    schedule_overrides: dict = field(default_factory=dict)
    dedup_pseudolabels: bool = False
    init_scale: float = 0.02
    init_spread: str = "std"
    threshold_tau: float = 0.95
    split_seed: int = 0

    def schedule(self) -> TrainSchedule:
        """Schedule with the modality-appropriate peak lr unless overridden."""
        return default_schedule(self.modality, **self.schedule_overrides)

    def echo(self) -> dict:
        """Canonical dict form, embedded into result.json for provenance."""
        task: dict = {}
        if self.synthetic is not None:
            task["synthetic"] = self.synthetic.to_dict()
        else:
            task["train_path"] = self.train_path
            task["test_path"] = self.test_path
        return {
            "schema_version": SCHEMA_VERSION,
            "output_dir": self.output_dir,
            "task": task,
            "strategies": list(self.strategies),
            "paradigms": list(self.paradigms),
            "seeds": list(self.seeds),
            "K": self.K,
            "I": self.I,
            "modality": self.modality,
            "prompt_len": self.prompt_len,
            "temperature": self.temperature,
            "shots_per_class": self.shots_per_class,
            "schedule": dict(sorted(self.schedule_overrides.items())),
            "dedup_pseudolabels": self.dedup_pseudolabels,
            "init_scale": self.init_scale,
            "init_spread": self.init_spread,
            "threshold_tau": self.threshold_tau,
            "split_seed": self.split_seed,
        }


def _reject_unknown(given: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(repr(k) for k in unknown)}")


def _as_str_list(value, what: str, allowed: tuple) -> tuple:
    items = [value] if isinstance(value, str) else list(value)
    out = []
    for item in items:
        canon = str(item).upper()
        if canon not in allowed:
            raise ValueError(f"unknown {what} {item!r}; expected one of {allowed}")
        out.append(canon)
    if not out:
        raise ValueError(f"{what} list must not be empty")
    return tuple(out)


def _int_value(value, key: str) -> int:
    """An integer from JSON as given: bools and floats are rejected, not cast."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def parse_seed_list(value) -> tuple:
    """Seeds as a tuple of distinct non-negative ints (one int is a list of one).

    Items are ints, or decimal strings as the command line passes them.
    """
    items = [value] if isinstance(value, int) else list(value)
    seeds = []
    for s in items:
        s = int(s) if isinstance(s, str) else _int_value(s, "seeds")
        if s < 0:
            raise ValueError("seeds must be non-negative")
        seeds.append(s)
    if not seeds:
        raise ValueError("seeds list must not be empty")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    return tuple(seeds)


def parse_synthetic_spec(raw: dict) -> SyntheticSpec:
    if not isinstance(raw, dict):
        raise ValueError("synthetic spec must be an object")
    _reject_unknown(raw, _SYNTH_KEYS, "synthetic spec")
    return SyntheticSpec(**raw)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object and return the canonical config."""
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"config schema_version must be {SCHEMA_VERSION}, got {version!r}")

    task = raw.get("task")
    if not isinstance(task, dict):
        raise ValueError("config requires a 'task' object")
    _reject_unknown(task, _TASK_KEYS, "task")
    synthetic = None
    train_path = test_path = None
    if "synthetic" in task:
        if "train_path" in task or "test_path" in task:
            raise ValueError("task must be either synthetic or file paths, not both")
        synthetic = parse_synthetic_spec(task["synthetic"])
    else:
        train_path = task.get("train_path")
        test_path = task.get("test_path")
        if not train_path or not test_path:
            raise ValueError("file task needs both 'train_path' and 'test_path'")

    schedule_raw = raw.get("schedule", {})
    if not isinstance(schedule_raw, dict):
        raise ValueError("schedule must be an object")
    _reject_unknown(schedule_raw, _SCHEDULE_KEYS, "schedule")
    schedule_overrides = {k: v for k, v in schedule_raw.items() if v is not None}

    modality = str(raw.get("modality", "textual")).lower()
    if modality not in MODALITIES:
        raise ValueError(f"unknown modality {modality!r}; expected one of {MODALITIES}")
    init_spread = str(raw.get("init_spread", "std"))
    if init_spread not in ("std", "variance"):
        raise ValueError("init_spread must be 'std' or 'variance'")
    dedup = raw.get("dedup_pseudolabels", False)
    if not isinstance(dedup, bool):
        raise ValueError(f"dedup_pseudolabels must be true or false, got {dedup!r}")
    prompt_len = raw.get("prompt_len")

    cfg = ExperimentConfig(
        strategies=_as_str_list(raw.get("strategies", "GRIP"), "strategy", STRATEGIES),
        paradigms=_as_str_list(raw.get("paradigms", "UL"), "paradigm", PARADIGMS),
        seeds=parse_seed_list(raw.get("seeds", [0])),
        synthetic=synthetic,
        train_path=train_path,
        test_path=test_path,
        output_dir=str(raw.get("output_dir", "runs")),
        K=_int_value(raw.get("K", 16), "K"),
        I=_int_value(raw.get("I", 10), "I"),
        modality=modality,
        prompt_len=None if prompt_len is None else _int_value(prompt_len, "prompt_len"),
        temperature=float(raw.get("temperature", 100.0)),
        shots_per_class=_int_value(raw.get("shots_per_class", 2), "shots_per_class"),
        schedule_overrides=schedule_overrides,
        dedup_pseudolabels=dedup,
        init_scale=float(raw.get("init_scale", 0.02)),
        init_spread=init_spread,
        threshold_tau=float(raw.get("threshold_tau", 0.95)),
        split_seed=_int_value(raw.get("split_seed", 0), "split_seed"),
    )
    if cfg.K < 1 or cfg.I < 1:
        raise ValueError("K and I must be at least 1")
    if cfg.prompt_len is not None and cfg.prompt_len < 1:
        raise ValueError(f"prompt_len must be at least 1, got {cfg.prompt_len}")
    if not cfg.temperature > 0:
        raise ValueError(f"temperature must be positive, got {cfg.temperature}")
    if not cfg.init_scale >= 0:
        raise ValueError(f"init_scale must be non-negative, got {cfg.init_scale}")
    if not 0.0 <= cfg.threshold_tau < 1.0:
        raise ValueError("threshold_tau must lie in [0, 1)")
    cfg.schedule()  # validate schedule overrides eagerly
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))
