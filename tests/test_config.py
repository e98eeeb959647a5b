"""Experiment config parsing tests: defaults, canonical echo, and the
fail-fast rejection of unknown keys at every nesting level."""

import json

import pytest

from plrefine.config import ExperimentConfig, load_config, parse_config, parse_synthetic_spec


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

    def test_k_and_i_positive(self):
        with pytest.raises(ValueError, match="K and I"):
            parse_config(_minimal(K=0))

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


class TestParseSyntheticSpec:
    def test_defaults_fill_in(self):
        spec = parse_synthetic_spec({})
        assert spec.C == 10
        assert spec.d == 32

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="synthetic spec"):
            parse_synthetic_spec([1, 2])


class TestLoadConfig:
    def test_reads_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_minimal()), encoding="utf-8")
        cfg = load_config(str(path))
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.strategies == ("FPL",)
