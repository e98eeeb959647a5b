"""Experiment config parsing tests: defaults, canonical echo, and the
fail-fast rejection of unknown keys and of values of the wrong JSON type at
every nesting level."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from plrefine.config import ExperimentConfig, parse_config, parse_synthetic_spec
from plrefine.core import ParadigmConfig
from plrefine.metrics import threshold_pseudolabels
from plrefine.strategies import StrategyConfig
from plrefine.synth import SyntheticSpec


def _minimal(**extra):
    raw = {
        "schema_version": 1,
        "task": {"synthetic": {"C": 4, "d": 8, "unlabeled_per_class": 10}},
        "strategies": ["FPL"],
        "paradigms": ["UL"],
        "seeds": [0],
    }
    raw.update(extra)
    return raw


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(_minimal())
        assert cfg.strategies == ("FPL",)
        assert cfg.paradigms == ("UL",)
        assert cfg.seeds == (0,)
        assert cfg.synthetic.C == 4
        assert cfg.K == 16
        assert cfg.I == 10
        assert cfg.modality == "textual"
        assert cfg.temperature == 100.0
        assert cfg.threshold_tau == 0.95
        assert cfg.output_dir == "runs"

    def test_case_insensitive_names(self):
        cfg = parse_config(_minimal(strategies=["grip", "Ifpl"], paradigms=["ssl", "trzsl"]))
        assert cfg.strategies == ("GRIP", "IFPL")
        assert cfg.paradigms == ("SSL", "TRZSL")

    @pytest.mark.parametrize(
        "key,names",
        [
            ("strategies", ["FPL", "FPL"]),
            ("strategies", ["FPL", "fpl"]),
            ("strategies", ["GRIP", "IFPL", "Grip"]),
            ("paradigms", ["UL", "UL"]),
            ("paradigms", ["UL", "ul"]),
            ("paradigms", ["SSL", "TRZSL", "ssl"]),
        ],
    )
    def test_duplicate_names_rejected(self, key, names):
        """A name listed twice, in any case, would run the same cells twice
        and count them as separate seeds."""
        folded = tuple(name.upper() for name in names)
        with pytest.raises(ValueError, match=re.escape(f"{key} must be distinct, got {folded!r}")):
            parse_config(_minimal(**{key: names}))

    def test_output_dir_must_not_be_empty(self):
        with pytest.raises(ValueError, match="output_dir must not be empty"):
            parse_config(_minimal(output_dir=""))

    def test_negative_split_seed_rejected(self):
        """It parsed, and a TRZSL sweep on files then failed inside numpy's
        permutation, naming neither the key nor the config."""
        raw = _minimal(paradigms=["TRZSL"], split_seed=-1)
        raw["task"] = {"train_path": "train.ple", "test_path": "test.ple"}
        with pytest.raises(ValueError, match=re.escape("split_seed must be non-negative, got -1")):
            parse_config(raw)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy 'BOOST'"):
            parse_config(_minimal(strategies=["BOOST"]))

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config(_minimal(learning_rate=0.1))

    def test_unknown_schedule_key(self):
        with pytest.raises(ValueError, match="unknown schedule key"):
            parse_config(_minimal(schedule={"epochs": 10, "lr": 0.1}))

    def test_unknown_task_key(self):
        raw = _minimal()
        raw["task"]["download"] = True
        with pytest.raises(ValueError, match="unknown task key"):
            parse_config(raw)

    def test_unknown_synthetic_key(self):
        raw = _minimal()
        raw["task"]["synthetic"]["classes"] = 4
        with pytest.raises(ValueError, match="unknown synthetic spec key"):
            parse_config(raw)

    def test_schema_version_pinned(self):
        with pytest.raises(ValueError, match="schema_version must be 1"):
            parse_config(_minimal(schema_version=2))
        raw = _minimal()
        del raw["schema_version"]
        with pytest.raises(ValueError, match="schema_version"):
            parse_config(raw)

    def test_task_exclusivity(self):
        raw = _minimal()
        raw["task"]["train_path"] = "x.ple"
        raw["task"]["test_path"] = "y.ple"
        with pytest.raises(ValueError, match="not both"):
            parse_config(raw)
        raw = _minimal()
        raw["task"] = {"train_path": "x.ple"}
        with pytest.raises(ValueError, match="both 'train_path' and 'test_path'"):
            parse_config(raw)
        raw = _minimal()
        raw["task"] = {}
        with pytest.raises(ValueError, match="train_path"):
            parse_config(raw)

    def test_missing_task(self):
        raw = _minimal()
        del raw["task"]
        with pytest.raises(ValueError, match="requires a 'task' object"):
            parse_config(raw)

    def test_seed_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            parse_config(_minimal(seeds=[1, 1]))
        with pytest.raises(ValueError, match="non-negative"):
            parse_config(_minimal(seeds=[-1]))
        with pytest.raises(ValueError, match="not be empty"):
            parse_config(_minimal(seeds=[]))

    def test_schedule_overrides_validated_eagerly(self):
        with pytest.raises(ValueError, match="warmup_epochs must be smaller"):
            parse_config(_minimal(schedule={"epochs": 5, "warmup_epochs": 5}))

    def test_threshold_tau_range(self):
        with pytest.raises(ValueError, match=r"threshold_tau must lie in \[0, 1\)"):
            parse_config(_minimal(threshold_tau=1.0))
        for bad in (True, "0.1", float("nan"), float("inf"), -0.01):
            with pytest.raises(ValueError, match="^threshold_tau must be "):
                parse_config(_minimal(threshold_tau=bad))

    def test_k_and_i_positive(self):
        with pytest.raises(ValueError, match="K must be at least 1"):
            parse_config(_minimal(K=0))
        with pytest.raises(ValueError, match="I must be at least 1"):
            parse_config(_minimal(I=0))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("K", 2.9),
            ("K", True),
            ("I", True),
            ("I", 3.0),
            ("prompt_len", 2.5),
            ("shots_per_class", "2"),
            ("split_seed", False),
        ],
    )
    def test_integer_keys_not_coerced(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            parse_config(_minimal(**{key: value}))

    @pytest.mark.parametrize("seeds", [[True], [0, 1.5], ["3"], [2.0], [0, 2.5]])
    def test_seeds_not_coerced(self, seeds):
        with pytest.raises(ValueError, match="seeds must be an integer"):
            parse_config(_minimal(seeds=seeds))
        with pytest.raises(ValueError, match="seeds must be an integer"):
            ExperimentConfig(synthetic=SyntheticSpec(), seeds=tuple(seeds))

    def test_json_and_library_callers_get_one_message(self):
        """The JSON loader and a caller building the run settings directly
        refuse a float K, or a bool seed, with the same words."""
        message = re.escape("K must be an integer, got 2.5")
        with pytest.raises(ValueError, match=message):
            parse_config(_minimal(K=2.5))
        with pytest.raises(ValueError, match=message):
            StrategyConfig("FPL", ParadigmConfig("UL"), K=2.5)
        message = re.escape("seeds must be an integer, got True")
        with pytest.raises(ValueError, match=message):
            parse_config(_minimal(seeds=[True]))
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(synthetic=SyntheticSpec(), seeds=(True,))
        message = re.escape("must lie in [0, 1), got 1.0")
        with pytest.raises(ValueError, match="threshold_tau " + message):
            parse_config(_minimal(threshold_tau=1.0))
        with pytest.raises(ValueError, match="tau " + message):
            threshold_pseudolabels(np.array([[0.5, 0.5]]), 1.0, np.array([0], dtype=np.uint64))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("temperature", "100", "temperature must be a finite number"),
            ("temperature", True, "temperature must be a finite number"),
            ("temperature", float("inf"), "temperature must be a finite number"),
            ("init_scale", float("inf"), "init_scale must be a finite number"),
            ("init_scale", float("nan"), "init_scale must be a finite number"),
            ("temperature", 10**400, "temperature must be a finite number"),
            ("threshold_tau", "0.5", "threshold_tau must be a finite number"),
            ("output_dir", 5, "output_dir must be a string"),
            ("strategies", {"GRIP": 1}, "strategies must be a string or a list of strings"),
        ],
    )
    def test_top_level_types_not_coerced(self, key, value, message):
        # Through JSON text, as a config file would give it (Infinity included).
        raw = json.loads(json.dumps(_minimal(**{key: value})))
        with pytest.raises(ValueError, match=message):
            parse_config(raw)

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ({"epochs": 2.5}, "epochs must be an integer"),
            ({"epochs": True}, "epochs must be an integer"),
            ({"batch_size": 1.5}, "batch_size must be an integer"),
            ({"peak_lr": "0.1"}, "peak_lr must be a finite number"),
            ({"momentum": "0.9"}, "momentum must be a finite number"),
        ],
    )
    def test_schedule_types_not_coerced(self, schedule, message):
        with pytest.raises(ValueError, match=message):
            parse_config(_minimal(schedule=schedule))

    @pytest.mark.parametrize(
        "synthetic, message",
        [({"C": 4.0}, "C must be an integer"), ({"sigma": "0.6"}, "sigma must be a finite number")],
    )
    def test_synthetic_types_not_coerced(self, synthetic, message):
        raw = _minimal()
        raw["task"]["synthetic"].update(synthetic)
        with pytest.raises(ValueError, match=message):
            parse_config(raw)

    def test_file_task_paths_must_be_strings(self):
        raw = _minimal()
        raw["task"] = {"train_path": 5, "test_path": "b.ple"}
        with pytest.raises(ValueError, match="train_path must be a string"):
            parse_config(raw)

    def test_float_keys_widen_integers(self):
        raw = _minimal(temperature=50, init_scale=0, schedule={"peak_lr": 1})
        raw["task"]["synthetic"]["sigma"] = 1
        cfg = parse_config(raw)
        assert type(cfg.temperature) is float and cfg.temperature == 50.0
        assert type(cfg.init_scale) is float
        assert type(cfg.schedule().peak_lr) is float
        assert type(cfg.synthetic.sigma) is float

    @pytest.mark.parametrize(
        "shots, message",
        [(0, "SSL needs at least one labeled shot"), (-1, "shots_per_class must be non-negative")],
    )
    def test_ssl_shots_checked_at_load(self, shots, message):
        with pytest.raises(ValueError, match=message):
            parse_config(_minimal(paradigms=["UL", "SSL"], shots_per_class=shots))

    def test_zero_shots_fine_without_ssl(self):
        assert parse_config(_minimal(paradigms=["UL", "TRZSL"], shots_per_class=0)).shots_per_class == 0

    @pytest.mark.parametrize("paradigms", [["SL"], ["UL", "sl"]])
    def test_sl_rejected_at_parse(self, paradigms):
        # SL has no unlabeled pool, so no strategy could run its cells.
        with pytest.raises(ValueError, match="paradigms must not include SL: it has no unlabeled pool"):
            parse_config(_minimal(paradigms=paradigms))

    def test_run_config_copies_shared_keys(self):
        raw = _minimal(K=3, I=2, modality="visual", prompt_len=4, temperature=20, shots_per_class=1)
        raw.update(dedup_pseudolabels=True, init_scale=0.5, init_spread="variance", schedule={"epochs": 7})
        cfg = parse_config(raw)
        run = cfg.run_config("GRIP", "SSL", 5)
        assert (run.strategy, run.paradigm.paradigm, run.seed) == ("GRIP", "SSL", 5)
        assert run.paradigm.shots_per_class == 1
        assert (run.K, run.I, run.modality, run.prompt_len) == (3, 2, "visual", 4)
        assert (run.temperature, run.init_scale, run.init_spread) == (20.0, 0.5, "variance")
        assert run.dedup_pseudolabels is True
        assert run.schedule == cfg.schedule() and run.schedule.epochs == 7

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_dedup_must_be_bool(self, value):
        with pytest.raises(ValueError, match="dedup_pseudolabels must be true or false"):
            parse_config(_minimal(dedup_pseudolabels=value))

    @pytest.mark.parametrize("prompt_len", [0, -3])
    def test_prompt_len_positive(self, prompt_len):
        with pytest.raises(ValueError, match="prompt_len must be at least 1"):
            parse_config(_minimal(prompt_len=prompt_len))

    @pytest.mark.parametrize("temperature", [0.0, -5.0])
    def test_temperature_positive(self, temperature):
        with pytest.raises(ValueError, match="temperature must be positive"):
            parse_config(_minimal(temperature=temperature))

    def test_init_scale_non_negative(self):
        with pytest.raises(ValueError, match="init_scale must be non-negative"):
            parse_config(_minimal(init_scale=-0.02, init_spread="variance"))
        assert parse_config(_minimal(init_scale=0.0)).init_scale == 0.0

    def test_bad_modality_and_spread(self):
        with pytest.raises(ValueError, match="unknown modality"):
            parse_config(_minimal(modality="sonic"))
        with pytest.raises(ValueError, match="init_spread"):
            parse_config(_minimal(init_spread="sigma"))

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_config(["not", "an", "object"])


_SPEC = SyntheticSpec(C=4, d=8, unlabeled_per_class=10)


def _built(**extra) -> ExperimentConfig:
    """_minimal's config built in code: a JSON key becomes its field (a
    ``task`` its task fields, ``schedule`` schedule_overrides)."""
    values = {"synthetic": _SPEC, "strategies": ("FPL",), "paradigms": ("UL",), "seeds": (0,)}
    task = extra.pop("task", None)
    if task is not None:
        values["synthetic"] = SyntheticSpec(**task["synthetic"]) if "synthetic" in task else None
        values.update({key: task[key] for key in ("train_path", "test_path") if key in task})
    values.update({"schedule_overrides" if key == "schedule" else key: value for key, value in extra.items()})
    return ExperimentConfig(**values)


class TestCodeBuiltConfig:
    """ExperimentConfig checks itself when it is built, so a config made in
    code meets the rules a JSON config meets, before any task loads."""

    @pytest.mark.parametrize(
        "extra, message",
        [
            # Each of these used to build, and the sweep then trained a cell
            # twice, died in an IndexError, blamed the task, or wrote a
            # result.json whose config echo parse_config refuses.
            ({"seeds": (0, 0)}, "seeds must be distinct, got (0, 0)"),
            ({"strategies": ("FPL", "FPL")}, "strategies must be distinct, got ('FPL', 'FPL')"),
            ({"paradigms": ("UL", "UL")}, "paradigms must be distinct, got ('UL', 'UL')"),
            ({"strategies": ()}, "strategy list must not be empty"),
            ({"paradigms": ()}, "paradigm list must not be empty"),
            ({"seeds": ()}, "seeds list must not be empty"),
            ({"paradigms": ("ul",)}, "unknown paradigm 'ul'"),
            ({"strategies": ("GRIP", "BOOST")}, "unknown strategy 'BOOST'"),
            ({"threshold_tau": 1.5}, "threshold_tau must lie in [0, 1), got 1.5"),
            ({"split_seed": -1}, "split_seed must be non-negative, got -1"),
            ({"seeds": (0, 2.0)}, "seeds must be an integer, got 2.0"),
            ({"output_dir": ""}, "output_dir must not be empty"),
            ({"output_dir": Path("out")}, "output_dir cannot be written to JSON"),
            # No task at all, as ExperimentConfig() has.
            ({"synthetic": None}, "file task needs both 'train_path' and 'test_path'"),
            ({"synthetic": None, "train_path": "a.ple"}, "file task needs both 'train_path' and 'test_path'"),
            ({"train_path": "a.ple", "test_path": "b.ple"}, "task must be either synthetic or file paths, not both"),
            ({"paradigms": ("UL", "SSL"), "shots_per_class": 0}, "SSL needs at least one labeled shot per class"),
            # These used to build and let run_sweep die on a dict, or split a
            # name into characters, or raised Python's bare "not iterable".
            ({"synthetic": {"C": 3, "d": 8}}, "synthetic must be a SyntheticSpec, got {'C': 3, 'd': 8}"),
            ({"seeds": 5}, "seeds must be a list or tuple, got 5"),
            ({"strategies": None}, "strategies must be a list or tuple, got None"),
            ({"strategies": "GRIP"}, "strategies must be a list or tuple, got 'GRIP'"),
            ({"paradigms": "UL"}, "paradigms must be a list or tuple, got 'UL'"),
        ],
    )
    def test_bad_value_named_at_construction(self, extra, message):
        with pytest.raises((ValueError, TypeError), match=re.escape(message)):
            _built(**extra)

    @pytest.mark.parametrize(
        "extra",
        [
            {"strategies": ["FPL", "FPL"]},
            {"strategies": ["BOOST"]},
            {"strategies": []},
            {"paradigms": ["UL", "UL"]},
            {"paradigms": ["UL", "SL"]},
            {"paradigms": ["UL", "SSL"], "shots_per_class": 0},
            {"paradigms": ["UL", "SSL"], "shots_per_class": -1},
            {"seeds": [1, 1]},
            {"seeds": [-1]},
            {"seeds": []},
            {"seeds": [True]},
            {"seeds": [0, 1.5]},
            {"output_dir": ""},
            {"split_seed": -1},
            {"threshold_tau": 1.0},
            {"threshold_tau": -0.01},
            {"K": 0},
            {"K": 2.9},
            {"I": 0},
            {"I": True},
            {"prompt_len": 0},
            {"prompt_len": 2.5},
            {"temperature": 0.0},
            {"temperature": -5.0},
            {"init_scale": -0.02, "init_spread": "variance"},
            {"modality": "sonic"},
            {"init_spread": "sigma"},
            {"schedule": {"epochs": 5, "warmup_epochs": 5}},
            {"task": {"synthetic": {}, "train_path": "x.ple", "test_path": "y.ple"}},
            {"task": {"train_path": "x.ple"}},
            {"task": {}},
        ],
        ids=lambda extra: json.dumps(extra),
    )
    def test_json_and_code_get_one_message(self, extra):
        """Each bad value of this file is refused through parse_config and
        through ExperimentConfig by the one rule, with the one message."""
        with pytest.raises(ValueError) as parsed:
            parse_config(_minimal(**json.loads(json.dumps(extra))))
        with pytest.raises(ValueError) as built:
            _built(**extra)
        assert str(parsed.value) == str(built.value)

    @pytest.mark.parametrize(
        "extra",
        [
            {},
            {"seeds": [3, np.int64(1)], "K": np.int64(4), "temperature": 50, "strategies": ["GRIP", "IFPL"]},
            {"task": {"train_path": "a.ple", "test_path": "b.ple"}, "paradigms": ("TRZSL", "UL"), "split_seed": 2},
            {"schedule": {"warmup_epochs": 1, "epochs": 6}, "modality": "multimodal", "prompt_len": 4},
            {"paradigms": ("SSL",), "shots_per_class": 1, "dedup_pseudolabels": True, "threshold_tau": 0,
             "init_scale": 0.01, "init_spread": "variance", "output_dir": "out"},
        ],
    )
    def test_echo_round_trips(self, extra):
        cfg = _built(**extra)
        assert parse_config(cfg.echo()) == cfg


class TestScheduleResolution:
    def test_modality_peak_lr_defaults(self):
        cfg = parse_config(_minimal(modality="multimodal"))
        assert cfg.schedule().peak_lr == 0.01
        cfg = parse_config(_minimal())
        assert cfg.schedule().peak_lr == 0.1

    def test_overrides_win(self):
        cfg = parse_config(_minimal(schedule={"peak_lr": 0.5, "epochs": 30}))
        s = cfg.schedule()
        assert s.peak_lr == 0.5
        assert s.epochs == 30
        assert s.warmup_epochs == 5


class TestEcho:
    def test_canonical_form_round_trips(self):
        raw = _minimal(temperature=10.0, schedule={"epochs": 50}, seeds=[0, 1])
        cfg = parse_config(raw)
        echoed = cfg.echo()
        assert echoed["schema_version"] == 1
        assert echoed["task"]["synthetic"]["C"] == 4
        assert echoed["seeds"] == [0, 1]
        assert echoed["schedule"] == {"epochs": 50}
        # The echo parses back to an identical config.
        assert parse_config(echoed) == cfg
        # And it is JSON-serializable as-is.
        json.dumps(echoed)

    def test_file_task_echo(self):
        raw = _minimal()
        raw["task"] = {"train_path": "a.ple", "test_path": "b.ple"}
        cfg = parse_config(raw)
        echoed = cfg.echo()
        assert echoed["task"] == {"train_path": "a.ple", "test_path": "b.ple"}


    # Every key set, top-level and schedule keys given out of echo order:
    # the echo must come back in its canonical order regardless.
    _EVERY_KEY = {
        "split_seed": 2,
        "threshold_tau": 0.5,
        "init_spread": "variance",
        "init_scale": 0.01,
        "dedup_pseudolabels": True,
        "schedule": {
            "momentum": 0.8,
            "batch_size": 16,
            "peak_lr": 0.05,
            "warmup_lr": 0.001,
            "warmup_epochs": 1,
            "epochs": 6,
        },
        "shots_per_class": 1,
        "temperature": 50,
        "prompt_len": 4,
        "modality": "multimodal",
        "I": 3,
        "K": 4,
        "seeds": [3, 1],
        "paradigms": ["SSL", "TRZSL"],
        "strategies": ["GRIP", "FPL"],
        "task": {
            "synthetic": {
                "seed": 7,
                "delta": 0.25,
                "sigma": 0.5,
                "unlabeled_per_class": 10,
                "labeled_per_class": 3,
                "d": 8,
                "C": 4,
            }
        },
        "output_dir": "out",
        "schema_version": 1,
    }

    def _every_key_echo(self, task):
        return {
            "schema_version": 1,
            "output_dir": "out",
            "task": task,
            "strategies": ["GRIP", "FPL"],
            "paradigms": ["SSL", "TRZSL"],
            "seeds": [3, 1],
            "K": 4,
            "I": 3,
            "modality": "multimodal",
            "prompt_len": 4,
            "temperature": 50.0,
            "shots_per_class": 1,
            "schedule": {
                "batch_size": 16,
                "epochs": 6,
                "momentum": 0.8,
                "peak_lr": 0.05,
                "warmup_epochs": 1,
                "warmup_lr": 0.001,
            },
            "dedup_pseudolabels": True,
            "init_scale": 0.01,
            "init_spread": "variance",
            "threshold_tau": 0.5,
            "split_seed": 2,
        }

    def test_every_key_echo_pinned(self):
        echoed = parse_config(json.loads(json.dumps(self._EVERY_KEY))).echo()
        synthetic = {
            "C": 4,
            "d": 8,
            "labeled_per_class": 3,
            "unlabeled_per_class": 10,
            "sigma": 0.5,
            "delta": 0.25,
            "seed": 7,
        }
        expected = self._every_key_echo({"synthetic": synthetic})
        assert echoed == expected
        assert list(echoed) == list(expected)
        assert list(echoed["schedule"]) == list(expected["schedule"])
        assert list(echoed["task"]["synthetic"]) == list(synthetic)
        assert json.dumps(echoed) == json.dumps(expected)

    def test_every_key_file_task_echo_pinned(self):
        raw = json.loads(json.dumps(self._EVERY_KEY))
        raw["task"] = {"test_path": "b.ple", "train_path": "a.ple"}
        echoed = parse_config(raw).echo()
        expected = self._every_key_echo({"train_path": "a.ple", "test_path": "b.ple"})
        assert echoed == expected
        assert list(echoed) == list(expected)
        assert list(echoed["task"]) == ["train_path", "test_path"]
        assert json.dumps(echoed) == json.dumps(expected)


class TestReadme:
    def test_config_schema_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"^### Config schema\n+```json\n(.*?)^```", readme, re.M | re.S)
        assert block is not None, "README has no ### Config schema JSON block"
        cfg = parse_config(json.loads(block.group(1)))
        assert parse_config(cfg.echo()) == cfg


class TestParseSyntheticSpec:
    def test_defaults_fill_in(self):
        spec = parse_synthetic_spec({})
        assert spec.C == 10
        assert spec.d == 32

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="synthetic spec"):
            parse_synthetic_spec([1, 2])
