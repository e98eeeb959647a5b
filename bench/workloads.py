"""The benchmark's workloads, built from a seed and run through plrefine's
public API.

A workload is prepared once per set-up (inputs generated, ``.ple`` files
written where it reads files), then run unit after unit. One unit is one
serial ``plrefine.run_sweep`` (plus ``plrefine.run_comparison_scenario`` for
``calib``) into the same output directory, emptied before each unit, so
every unit of a run must write the same bytes apart from the
``generated_at`` timestamps.

Every call into plrefine goes through the package attribute at call time, so
the traced run can wrap it there.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
from pathlib import Path
from typing import Dict, List, Optional

import plrefine

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION = ROOT / "tests" / "fixtures" / "calibration.json"
EXPECTED = Path(__file__).resolve().with_name("expected.json")

NAMES = ("calib", "fullscale", "select")

_GENERATED_AT = re.compile(rb'^\s*"generated_at": "[^"]*",?\n', re.MULTILINE)

# Timed units a run makes at least, beyond --seconds. A calib unit takes
# about a second, and unit times on a shared machine swing by up to 2x in
# phases of 5-20 s, so calib needs a window long enough that its fastest unit
# falls in an uncontended phase. Two units keep the long workloads from
# resting on a single sample.
MIN_UNITS = {"calib": 30, "fullscale": 2, "select": 2}

# Shapes that keep every code path of a workload but run in well under a
# second; only the benchmark's own smoke test uses them.
_TOY_SYNTH = {
    "calib": {"C": 4, "d": 8, "labeled_per_class": 2, "unlabeled_per_class": 10},
    "fullscale": {"C": 5, "d": 16, "labeled_per_class": 2, "unlabeled_per_class": 6},
    "select": {"C": 20, "d": 8, "labeled_per_class": 0, "unlabeled_per_class": 5},
}


def _load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _stripped(path: str) -> bytes:
    """File bytes with the generated_at line removed."""
    with open(path, "rb") as fh:
        return _GENERATED_AT.sub(b"", fh.read())


class Workload:
    """One workload at one seed: its config, inputs, unit and output check."""

    def __init__(self, name: str, seed: int, toy: bool, work_dir: str) -> None:
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
        self.name = name
        self.seed = seed
        self.toy = toy
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, "out")
        self.min_units = MIN_UNITS[name]
        self.calibration = _load_json(CALIBRATION) if name == "calib" else None
        expected = _load_json(EXPECTED)
        self.expected_acc = expected["test_acc"][name].get(str(seed))
        self.acc_tolerance = expected["tolerance_points"] / 100.0
        self.raw = self._raw_config()
        self.cfg = plrefine.parse_config(self.raw)

    # -- inputs -----------------------------------------------------------

    def _synthetic_spec(self) -> dict:
        if self.name == "calib":
            # The pinned task at every seed; the seed picks the strategy seed.
            spec = dict(self.calibration["synthetic"])
        elif self.name == "fullscale":
            spec = {"C": 100, "d": 512, "labeled_per_class": 2, "unlabeled_per_class": 50, "seed": self.seed}
        else:
            spec = {"C": 1000, "d": 64, "labeled_per_class": 0, "unlabeled_per_class": 50, "seed": self.seed}
        if self.toy:
            spec.update(_TOY_SYNTH[self.name])
        return spec

    def _raw_config(self) -> dict:
        raw = {"schema_version": 1, "output_dir": self.out_dir}
        if self.name == "calib":
            strat = self.calibration["strategy"]
            raw.update(
                task={"synthetic": self._synthetic_spec()},
                strategies=["FPL", "IFPL", "GRIP"],
                paradigms=[strat["paradigm"]],
                seeds=[strat["seed"] + self.seed],
                K=strat["K"],
                I=strat["I"],
                modality=strat["modality"],
                temperature=strat["temperature"],
                schedule={"epochs": strat["epochs"]},
            )
            if self.toy:
                raw.update(I=2, schedule={"epochs": 2, "warmup_epochs": 1})
        elif self.name == "fullscale":
            raw.update(
                task={"synthetic": self._synthetic_spec()},
                strategies=["GRIP"],
                paradigms=["SSL"],
                seeds=[self.seed],
                I=2,
                modality="multimodal",
                prompt_len=16,
                schedule={"epochs": 1, "warmup_epochs": 0},
            )
        else:
            raw.update(
                task={
                    "train_path": os.path.join(self.work_dir, "train.ple"),
                    "test_path": os.path.join(self.work_dir, "test.ple"),
                },
                strategies=["GRIP"],
                paradigms=["UL"],
                seeds=[self.seed],
                I=2,
                modality="textual",
                dedup_pseudolabels=True,
                schedule={"epochs": 1, "warmup_epochs": 0, "batch_size": 4096},
            )
        return raw

    def prepare(self) -> None:
        """Generate the inputs the program reads; ``select`` writes .ple files."""
        if self.name != "select":
            return
        spec = plrefine.SyntheticSpec(**self._synthetic_spec())
        task = plrefine.synth_generate(spec)
        plrefine.write_ple(self.raw["task"]["train_path"], task.train, task.space)
        plrefine.write_ple(self.raw["task"]["test_path"], task.test, task.space)

    # -- one unit ---------------------------------------------------------

    def clear_outputs(self) -> None:
        """Remove the previous unit's output files, so that a unit's check
        reads only files that unit wrote."""
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def unit(self) -> dict:
        """Run one unit; returns the payloads the API returned."""
        out = {"result": plrefine.run_sweep(self.cfg, jobs=1, out_dir=self.out_dir)}
        if self.name == "calib":
            out["robinhood"] = plrefine.run_comparison_scenario(self.cfg, out_dir=self.out_dir)
        return out

    def output_files(self) -> List[str]:
        files = [os.path.join(self.out_dir, "result.json")]
        if self.name == "calib":
            files.append(os.path.join(self.out_dir, "robinhood.json"))
        for entry in sorted(os.listdir(self.out_dir)):
            trace = os.path.join(self.out_dir, entry, "trace.csv")
            if os.path.isfile(trace):
                files.append(trace)
        return files

    def fingerprint(self) -> Dict[str, bytes]:
        """Bytes of every output file, minus the generated_at timestamps."""
        return {os.path.relpath(p, self.out_dir): _stripped(p) for p in self.output_files()}

    # -- figures read from the outputs ------------------------------------

    @staticmethod
    def test_acc(outputs: dict) -> float:
        """Mean final test accuracy over the unit's sweep cells."""
        runs = outputs["result"]["runs"]
        return sum(r["final"]["overall"] for r in runs) / len(runs)

    @staticmethod
    def pl_acc(outputs: dict) -> float:
        """Mean final-round pseudolabel accuracy over the unit's sweep cells."""
        runs = outputs["result"]["runs"]
        return sum(r["records"][-1]["pseudolabel_accuracy"] for r in runs) / len(runs)

    # -- output check -----------------------------------------------------

    def check(self, outputs: dict) -> List[str]:
        """Problems found in one unit's outputs; empty when they are correct."""
        problems = self._check_structure(outputs)
        if problems or self.toy:
            return problems
        if self.name == "calib" and self.seed == 0:
            problems += self._check_calibration(outputs)
        if self.expected_acc is not None:
            problems += _compare(
                {"test_acc": self.test_acc(outputs)}, {"test_acc": self.expected_acc}, self.acc_tolerance
            )
        return problems

    def _pool_size(self, paradigm: str) -> int:
        spec = self._synthetic_spec()
        n_train = spec["C"] * (spec["labeled_per_class"] + spec["unlabeled_per_class"])
        if paradigm == "SSL":
            return n_train - spec["C"] * self.cfg.shots_per_class
        return n_train

    def _check_structure(self, outputs: dict) -> List[str]:
        """Invariants every seed must satisfy: the cells, the quota schedule,
        pseudolabel counts, accuracy ranges and the aggregates."""
        cfg = self.cfg
        C = self._synthetic_spec()["C"]
        problems = []
        runs = outputs["result"]["runs"]
        want = [(s, p, k) for s in cfg.strategies for p in cfg.paradigms for k in cfg.seeds]
        got = [(r["strategy"], r["paradigm"], r["seed"]) for r in runs]
        if got != want:
            return [f"sweep cells {got} != {want}"]
        for run in runs:
            cell = f"{run['strategy']}/{run['paradigm']}"
            n_pool = self._pool_size(run["paradigm"])
            iterations = 1 if run["strategy"] == "FPL" else cfg.I
            records = run["records"]
            if len(records) != iterations:
                problems.append(f"{cell}: {len(records)} records, expected {iterations}")
                continue
            for rec in records:
                i = rec["iteration"]
                if run["strategy"] == "GRIP":
                    k = plrefine.grip_k(i, cfg.I, n_pool, C)
                else:
                    k = plrefine.effective_k(cfg.K, n_pool, C)
                if rec["k_used"] != k:
                    problems.append(f"{cell} iteration {i}: k_used {rec['k_used']} != {k}")
                full = k * C
                n_ok = 0 < rec["n_pseudo"] <= full if cfg.dedup_pseudolabels else rec["n_pseudo"] == full
                if not n_ok:
                    problems.append(f"{cell} iteration {i}: n_pseudo {rec['n_pseudo']} (quota {full})")
                for key in ("pseudolabel_accuracy", "test_accuracy"):
                    if not 0.0 <= rec[key] <= 1.0:
                        problems.append(f"{cell} iteration {i}: {key} {rec[key]} outside [0, 1]")
            if run["final"]["overall"] != records[-1]["test_accuracy"]:
                problems.append(f"{cell}: final accuracy differs from the last iteration's")
        for agg in outputs["result"]["aggregates"]:
            finals = [
                r["final"]["overall"]
                for r in runs
                if (r["strategy"], r["paradigm"]) == (agg["strategy"], agg["paradigm"])
            ]
            if not math.isclose(agg["mean_accuracy"], sum(finals) / len(finals), rel_tol=1e-12):
                problems.append(f"aggregate {agg['strategy']}/{agg['paradigm']} mean does not match its runs")
        if self.name == "calib":
            problems += self._check_comparison(outputs["robinhood"], C)
        return problems

    def _check_comparison(self, payload: dict, C: int) -> List[str]:
        comparisons = payload["comparisons"]
        if set(comparisons) != {"prompt", "linear_probe"}:
            return [f"comparison heads {sorted(comparisons)}"]
        pool = self._pool_size("SSL")
        k = plrefine.effective_k(self.cfg.K, pool, C)
        problems = []
        for head, modes in comparisons.items():
            if set(modes) != {"topk", "threshold"}:
                problems.append(f"comparison {head}: modes {sorted(modes)}")
                continue
            if modes["topk"]["n_pseudolabels"] != k * C:
                problems.append(f"comparison {head}/topk: {modes['topk']['n_pseudolabels']} pseudolabels, expected {k * C}")
            for mode, cell in modes.items():
                if not 0.0 <= cell["report"]["overall"] <= 1.0:
                    problems.append(f"comparison {head}/{mode}: accuracy outside [0, 1]")
        return problems

    def _check_calibration(self, outputs: dict) -> List[str]:
        """The six pinned values of tests/fixtures/calibration.json."""
        runs = {r["strategy"]: r for r in outputs["result"]["runs"]}
        got = {
            "zero_shot": outputs["robinhood"]["baseline"]["overall"],
            "fpl": runs["FPL"]["final"]["overall"],
            "ifpl": runs["IFPL"]["final"]["overall"],
            "grip": runs["GRIP"]["final"]["overall"],
            "grip_mean_delta_poor": runs["GRIP"]["robin_hood"]["mean_delta_poor"],
            "grip_mean_delta_rich": runs["GRIP"]["robin_hood"]["mean_delta_rich"],
        }
        return _compare(got, self.calibration["values"], self.calibration["tolerance_points"] / 100.0)


def _compare(got: Dict[str, Optional[float]], want: Dict[str, float], tol: float) -> List[str]:
    problems = []
    for key, value in want.items():
        if got[key] is None or abs(got[key] - value) > tol:
            problems.append(f"{key} = {got[key]}, pinned {value} (tolerance {tol})")
    return problems
