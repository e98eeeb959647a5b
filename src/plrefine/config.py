"""Experiment config: a small, strictly validated JSON schema.

The frozen dataclasses are the schema. ExperimentConfig's fields, in echo
order, are the top-level keys (``task`` groups the synthetic spec or the two
file paths, ``schedule`` holds the schedule overrides); TrainSchedule's and
SyntheticSpec's fields are the ``schedule`` and ``synthetic`` keys. Defaults
shared with a run are read from StrategyConfig and ParadigmConfig.

One typing rule covers all three objects: a value must have its field's JSON
type, and nothing is cast. An int key takes a JSON integer, never a bool; a
float key takes any finite JSON number, widened to float; a bool key takes
only true or false; a str key only a string. Unknown keys are rejected at
every level so a typo ("epochz") fails loudly instead of silently running
defaults. The parser checks only that shape: the JSON types, the keys, the
schema version, and it folds the case of names. Every value rule belongs to
ExperimentConfig, which checks itself when it is built, so a config read
from JSON and one built in code are refused by the same rule with the same
message, before any task loads. The schema is versioned; bump SCHEMA_VERSION
when the layout changes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from typing import Optional, get_args, get_type_hints

from .core import ParadigmConfig, float_scalar, int_scalar, json_form
from .strategies import StrategyConfig, default_schedule
from .synth import SyntheticSpec
from .training import TrainSchedule

SCHEMA_VERSION = 1

# ExperimentConfig fields that the echo groups under "task".
_TASK_FIELDS = ("synthetic", "train_path", "test_path")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and canonicalized experiment description.

    Field order is the echo's key order; a field's ``key`` metadata names
    its JSON key when that differs from the field name. Construction checks
    every value rule (__post_init__), so no config that a sweep, or
    parse_config reading its echo back, would refuse can be built.
    """

    output_dir: str = "runs"
    synthetic: Optional[SyntheticSpec] = None
    train_path: Optional[str] = None
    test_path: Optional[str] = None
    strategies: tuple = ("GRIP",)
    paradigms: tuple = ("UL",)
    seeds: tuple = (0,)
    K: int = StrategyConfig.K
    I: int = StrategyConfig.I
    modality: str = StrategyConfig.modality
    prompt_len: Optional[int] = StrategyConfig.prompt_len
    temperature: float = StrategyConfig.temperature
    shots_per_class: int = ParadigmConfig.shots_per_class
    schedule_overrides: dict = field(default_factory=dict, metadata={"key": "schedule"})
    dedup_pseudolabels: bool = StrategyConfig.dedup_pseudolabels
    init_scale: float = StrategyConfig.init_scale
    init_spread: str = StrategyConfig.init_spread
    threshold_tau: float = 0.95
    split_seed: int = 0

    def __post_init__(self) -> None:
        if self.synthetic is not None:
            if not isinstance(self.synthetic, SyntheticSpec):
                raise ValueError(f"synthetic must be a SyntheticSpec, got {self.synthetic!r}")
            if self.train_path is not None or self.test_path is not None:
                raise ValueError("task must be either synthetic or file paths, not both")
        elif not self.train_path or not self.test_path:
            raise ValueError("file task needs both 'train_path' and 'test_path'")
        for key, what in (("strategies", "strategy"), ("paradigms", "paradigm"), ("seeds", "seeds")):
            # A string would be split into characters, a number not iterated.
            if not isinstance(getattr(self, key), (list, tuple)):
                raise ValueError(f"{key} must be a list or tuple, got {getattr(self, key)!r}")
            object.__setattr__(self, key, tuple(getattr(self, key)))
            if not getattr(self, key):
                raise ValueError(f"{what} list must not be empty")
        object.__setattr__(self, "seeds", tuple(int_scalar(seed, "seeds") for seed in self.seeds))
        if not self.output_dir:
            raise ValueError("output_dir must not be empty")
        float_scalar(self.threshold_tau, "threshold_tau", 1)
        int_scalar(self.split_seed, "split_seed")
        # Every cell's run settings, so the run configs' own rules (names, K, I,
        # prompt_len, temperature, schedule, shots, ...) fire here, not in a run.
        for strategy in self.strategies:
            for paradigm in self.paradigms:
                self.run_config(strategy, paradigm, self.seeds[0])
        # A name or seed listed twice would run the same cells twice.
        for key in ("strategies", "paradigms", "seeds"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ValueError(f"{key} must be distinct, got {values!r}")
        # result.json embeds the echo, so a value it cannot hold (a Path
        # output_dir, say) fails here, not after every cell has run.
        for key, value in self.echo().items():
            try:
                json.dumps(value)
            except TypeError as exc:
                raise TypeError(f"{key} cannot be written to JSON: {exc}") from None

    def schedule(self) -> TrainSchedule:
        """Schedule with the modality-appropriate peak lr unless overridden."""
        return default_schedule(self.modality, **self.schedule_overrides)

    def run_config(self, strategy: str, paradigm: str, seed: int) -> StrategyConfig:
        """One sweep cell's settings; keys shared with the run configs are
        copied by name."""
        return StrategyConfig(
            strategy,
            ParadigmConfig(paradigm, **self._shared(ParadigmConfig)),
            seed=seed,
            schedule=self.schedule(),
            **self._shared(StrategyConfig),
        )

    def _shared(self, cls) -> dict:
        mine = {f.name for f in fields(self)}
        return {f.name: getattr(self, f.name) for f in fields(cls) if f.name in mine}

    def echo(self) -> dict:
        """Canonical dict form, embedded into result.json for provenance."""
        out: dict = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            value = json_form(getattr(self, f.name))
            if f.name not in _TASK_FIELDS:
                out[f.metadata.get("key", f.name)] = value
            elif value is not None:
                out.setdefault("task", {})[f.name] = value
        return out


_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _typed(key: str, value, hint):
    """value if it has the JSON type of a field hinted ``hint``; never a cast.

    Optional[...] also takes null; a float also takes a JSON integer, widened.
    """
    args = get_args(hint)
    if value is None and type(None) in args:
        return None
    kind = args[0] if args else hint
    if kind is float:
        # Compared exactly, so NaN, infinities and integers beyond the float
        # range all fail here instead of overflowing.
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is kind:
        return value
    raise ValueError(f"{key} must be {_EXPECTED[kind]}, got {value!r}")


def _typed_fields(raw, cls, where: str) -> dict:
    """raw's keys checked against cls's fields: known names, JSON types."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be an object")
    _reject_unknown(raw, {f.name for f in fields(cls)}, where)
    hints = get_type_hints(cls)
    return {key: _typed(key, value, hints[key]) for key, value in raw.items()}


def _reject_unknown(given: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(repr(k) for k in unknown)}")


def _names(value, key: str) -> tuple:
    """One name or a list of names, case-folded."""
    items = [value] if isinstance(value, str) else value
    if not isinstance(items, list) or not all(isinstance(item, str) for item in items):
        raise ValueError(f"{key} must be a string or a list of strings, got {value!r}")
    return tuple(item.upper() for item in items)


def parse_synthetic_spec(raw: dict) -> SyntheticSpec:
    return SyntheticSpec(**_typed_fields(raw, SyntheticSpec, "synthetic spec"))


# Keys whose values are not plain scalars, with their parsers.
_PARSERS = {
    "strategies": lambda v: _names(v, "strategies"),
    "paradigms": lambda v: _names(v, "paradigms"),
    # One seed is a list of one; ExperimentConfig checks each seed.
    "seeds": lambda v: tuple(v) if isinstance(v, list) else (v,),
    "modality": lambda v: _typed("modality", v, str).lower(),
    "schedule": lambda v: dict(sorted(_typed_fields(v, TrainSchedule, "schedule").items())),
}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object and return the canonical config."""
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    keys = {
        f.metadata.get("key", f.name): f.name
        for f in fields(ExperimentConfig)
        if f.name not in _TASK_FIELDS
    }
    _reject_unknown(raw, {"schema_version", "task", *keys}, "config")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"config schema_version must be {SCHEMA_VERSION}, got {version!r}")

    task = raw.get("task")
    if not isinstance(task, dict):
        raise ValueError("config requires a 'task' object")
    _reject_unknown(task, set(_TASK_FIELDS), "task")
    hints = get_type_hints(ExperimentConfig)
    values = {
        name: parse_synthetic_spec(value) if name == "synthetic" else _typed(name, value, hints[name])
        for name, value in task.items()
    }
    for key, name in keys.items():
        if key in raw:
            parse = _PARSERS.get(key)
            values[name] = parse(raw[key]) if parse else _typed(key, raw[key], hints[name])
    return ExperimentConfig(**values)
