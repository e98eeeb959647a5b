"""Command-line interface tests, driven through main(argv).

Every command is exercised end to end in a temp directory: generate a
synthetic dataset pair, inspect it, run a small sweep twice (checking the
determinism contract on result.json), and run the pseudolabel-source
comparison scenario.
"""

import csv
import json

import numpy as np
import pytest

from plrefine.cli import _test_path_for, main
from plrefine.sweep import TRACE_COLUMNS


def _write_config(tmp_path, **extra):
    raw = {
        "schema_version": 1,
        "task": {"synthetic": {"C": 3, "d": 8, "labeled_per_class": 2, "unlabeled_per_class": 8}},
        "strategies": ["FPL"],
        "paradigms": ["UL"],
        "seeds": [0],
        "temperature": 10.0,
        "schedule": {"epochs": 4, "warmup_epochs": 1},
        "output_dir": str(tmp_path / "runs"),
    }
    raw.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def _result_sans_timestamp(path):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("generated_at")
    return json.dumps(payload, sort_keys=True)


class TestGenSynthAndInspect:
    def test_writes_train_and_test_pair(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"C": 4, "d": 8, "unlabeled_per_class": 5}))
        out = tmp_path / "data.ple"
        assert main(["gen-synth", str(spec_path), str(out)]) == 0
        assert out.exists()
        test_path = tmp_path / "data.test.ple"
        assert test_path.exists()
        note = capsys.readouterr().out
        assert "data.ple" in note and "data.test.ple" in note

        assert main(["inspect", str(out)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["n"] == 4 * 7
        assert info["d"] == 8
        assert info["C"] == 4

        assert main(["inspect", str(test_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["n"] == 4 * 2  # 25% of 7 per class, rounded half-up

    def test_companion_path_derivation(self):
        assert _test_path_for("runs/data.ple") == "runs/data.test.ple"
        assert _test_path_for("data") == "data.test.ple"

    def test_gen_synth_deterministic(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"C": 3, "d": 8, "seed": 2, "unlabeled_per_class": 4}))
        a = tmp_path / "a.ple"
        b = tmp_path / "b.ple"
        assert main(["gen-synth", str(spec_path), str(a)]) == 0
        assert main(["gen-synth", str(spec_path), str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRun:
    def test_writes_result_and_traces(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, strategies=["FPL", "GRIP"], I=2)
        assert main(["run", str(cfg_path)]) == 0
        out = tmp_path / "runs"
        assert (out / "result.json").exists()
        with open(out / "result.json", "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["schema_version"] == 1
        assert len(payload["runs"]) == 2
        assert {r["strategy"] for r in payload["runs"]} == {"FPL", "GRIP"}
        for run in payload["runs"]:
            trace = out / f"{run['strategy']}_{run['paradigm']}_seed{run['seed']}" / "trace.csv"
            assert trace.exists()
            with open(trace, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert tuple(rows[0]) == TRACE_COLUMNS
            assert len(rows) == 1 + len(run["records"])
        stdout = capsys.readouterr().out
        assert "result.json" in stdout

    def test_trace_rows_mirror_records(self, tmp_path):
        cfg_path = _write_config(tmp_path, strategies=["GRIP"], I=2)
        assert main(["run", str(cfg_path)]) == 0
        out = tmp_path / "runs"
        with open(out / "result.json", "r", encoding="utf-8") as fh:
            run = json.load(fh)["runs"][0]
        with open(out / "GRIP_UL_seed0" / "trace.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for rec, row in zip(run["records"], rows):
            assert int(row["iteration"]) == rec["iteration"]
            assert int(row["k_used"]) == rec["k_used"]
            assert float(row["test_accuracy"]) == rec["test_accuracy"]
            assert row["seen_accuracy"] == ""  # UL has no partition metrics

    def test_determinism_modulo_timestamp(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["run", str(cfg_path), "--out", str(out_b)]) == 0
        assert _result_sans_timestamp(out_a / "result.json") == _result_sans_timestamp(
            out_b / "result.json"
        )

    def test_seed_override_and_aggregates(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        assert main(["run", str(cfg_path), "--seed-override", "0,1,2"]) == 0
        with open(tmp_path / "runs" / "result.json", "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert [r["seed"] for r in payload["runs"]] == [0, 1, 2]
        agg = payload["aggregates"][0]
        accs = np.array([r["final"]["overall"] for r in payload["runs"]])
        assert agg["n_seeds"] == 3
        assert np.isclose(agg["mean_accuracy"], accs.mean())
        assert np.isclose(agg["std_accuracy"], accs.std(ddof=1))

    def test_single_seed_reports_zero_std(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        assert main(["run", str(cfg_path)]) == 0
        with open(tmp_path / "runs" / "result.json", "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["aggregates"][0]["std_accuracy"] == 0.0

    def test_fpl_warns_when_iterations_configured(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, strategies=["FPL"], I=5)
        assert main(["run", str(cfg_path)]) == 0
        err = capsys.readouterr().err
        assert "I=5 is ignored by FPL" in err

    def test_file_based_task_round_trip(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"C": 3, "d": 8, "unlabeled_per_class": 8}))
        data_path = tmp_path / "data.ple"
        assert main(["gen-synth", str(spec_path), str(data_path)]) == 0
        capsys.readouterr()
        cfg_path = _write_config(tmp_path)
        raw = json.loads(cfg_path.read_text())
        raw["task"] = {
            "train_path": str(data_path),
            "test_path": _test_path_for(str(data_path)),
        }
        raw["paradigms"] = ["UL", "TRZSL"]
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path)]) == 0
        with open(tmp_path / "runs" / "result.json", "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        trzsl = [r for r in payload["runs"] if r["paradigm"] == "TRZSL"]
        assert trzsl and trzsl[0]["final"]["harmonic"] is not None


class TestRobinhood:
    def test_scenario_writes_both_comparisons(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path)
        assert main(["robinhood", str(cfg_path)]) == 0
        out = tmp_path / "runs" / "robinhood.json"
        assert out.exists()
        with open(out, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["threshold_tau"] == 0.95
        assert set(payload["comparisons"]) == {"prompt", "linear_probe"}
        for head in payload["comparisons"].values():
            assert set(head) == {"topk", "threshold"}
            for cell in head.values():
                assert set(cell) >= {"n_pseudolabels", "report", "robin_hood"}
                assert "mean_delta_poor" in cell["robin_hood"]
        assert "robinhood.json" in capsys.readouterr().out


class TestFailurePaths:
    def test_missing_config_is_json_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "error" in payload
        assert payload["type"] == "FileNotFoundError"

    def test_invalid_config_is_json_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"schema_version": 7}))
        assert main(["run", str(cfg_path)]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "schema_version" in payload["error"]
        assert payload["type"] == "ValueError"

    @pytest.mark.parametrize("override,message", [("1,1", "distinct"), ("0,-2", "non-negative")])
    def test_seed_override_is_validated(self, tmp_path, capsys, override, message):
        """A bad --seed-override fails like a bad seeds list, before any run."""
        cfg_path = _write_config(tmp_path)
        assert main(["run", str(cfg_path), "--seed-override", override]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert message in payload["error"]
        assert payload["type"] == "ValueError"
        assert not (tmp_path / "runs").exists()

    def test_inspect_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "junk.ple"
        path.write_bytes(b"garbage")
        assert main(["inspect", str(path)]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "bad magic" in payload["error"]
        assert payload["type"] == "ValueError"

    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()
