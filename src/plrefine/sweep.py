"""Experiment sweep: strategies x paradigms x seeds, plus the comparison
scenario for the redistribution analysis.

Outputs are deterministic: runs execute in config order (or in parallel and
are re-assembled in config order), every RNG is derived from config seeds,
and result.json is byte-identical across repeated invocations except for the
"generated_at" timestamp.
"""

from __future__ import annotations

import csv
import datetime
import json
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import SCHEMA_VERSION, ExperimentConfig
from .core import ClassSpace, ParadigmConfig, Task, make_trzsl_split, paradigm_weights
from .fileio import read_ple
from .metrics import (
    evaluate,
    robin_hood,
    softmax_rows,
    threshold_pseudolabels,
    zero_shot_report,
)
from .probe import init_linear_probe
from .pseudolabels import effective_k, pseudolabel_accuracy, topk_per_class
from .strategies import StrategyConfig, run_strategy, wire_paradigm
from .surrogate import reinit_ctx
from .synth import synth_generate
from .training import train

TRACE_COLUMNS = (
    "iteration",
    "k_used",
    "pseudolabel_accuracy",
    "test_accuracy",
    "seen_accuracy",
    "unseen_accuracy",
)


def load_task(cfg: ExperimentConfig) -> Task:
    """Materialize the task: generate synthetically or read PLE1 files.

    A transductive paradigm needs a class partition; file-based spaces get
    one derived from split_seed (synthetic spaces already carry one).
    """
    if cfg.synthetic is not None:
        task = synth_generate(cfg.synthetic)
    else:
        train_set, space = read_ple(cfg.train_path)
        test_set, test_space = read_ple(cfg.test_path)
        if test_space.C != space.C or test_space.d != space.d:
            raise ValueError("train and test files describe different class spaces")
        task = Task(train=train_set, test=test_set, space=space)
    if "TRZSL" in cfg.paradigms and task.space.partition is None:
        space = ClassSpace(
            task.space.class_names,
            task.space.base_prototypes,
            partition=make_trzsl_split(task.space.C, cfg.split_seed),
        )
        task = Task(train=task.train, test=task.test, space=space)
    return task


def strategy_config(cfg: ExperimentConfig, strategy: str, paradigm: str, seed: int) -> StrategyConfig:
    return StrategyConfig(
        strategy=strategy,
        paradigm=ParadigmConfig(paradigm, shots_per_class=cfg.shots_per_class),
        K=cfg.K,
        I=cfg.I,
        seed=seed,
        modality=cfg.modality,
        prompt_len=cfg.prompt_len,
        temperature=cfg.temperature,
        schedule=cfg.schedule(),
        dedup_pseudolabels=cfg.dedup_pseudolabels,
        init_scale=cfg.init_scale,
        init_spread=cfg.init_spread,
    )


def _run_cell(args: Tuple[ExperimentConfig, str, str, int]) -> dict:
    """One sweep cell, returned as plain dicts so it can cross processes."""
    cfg, strategy, paradigm, seed = args
    task = load_task(cfg)
    result = run_strategy(strategy_config(cfg, strategy, paradigm, seed), task)
    baseline = zero_shot_report(task.test, task.space)
    return {
        "strategy": strategy,
        "paradigm": paradigm,
        "seed": seed,
        "final": result.final_report.to_dict(),
        "robin_hood": robin_hood(baseline, result.final_report).to_dict(),
        "records": [r.to_dict() for r in result.records],
    }


def write_trace_csv(path: str, records: List[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in records:
            writer.writerow(["" if rec[col] is None else rec[col] for col in TRACE_COLUMNS])


def _aggregate(runs: List[dict]) -> List[dict]:
    """Mean and sample std of the final accuracy per (strategy, paradigm).

    Sample std uses ddof=1 and is reported as 0.0 for a single seed.
    Partitioned runs also aggregate the harmonic mean.
    """
    cells: Dict[Tuple[str, str], List[dict]] = {}
    for run in runs:
        cells.setdefault((run["strategy"], run["paradigm"]), []).append(run)
    out = []
    for (strategy, paradigm), members in cells.items():
        accs = np.array([m["final"]["overall"] for m in members], dtype=np.float64)
        entry = {
            "strategy": strategy,
            "paradigm": paradigm,
            "n_seeds": len(members),
            "mean_accuracy": float(accs.mean()),
            "std_accuracy": float(accs.std(ddof=1)) if accs.size > 1 else 0.0,
        }
        harms = [m["final"]["harmonic"] for m in members]
        if all(h is not None for h in harms):
            harms = np.array(harms, dtype=np.float64)
            entry["mean_harmonic"] = float(harms.mean())
            entry["std_harmonic"] = float(harms.std(ddof=1)) if harms.size > 1 else 0.0
        out.append(entry)
    return out


def run_sweep(cfg: ExperimentConfig, jobs: int = 1, out_dir: Optional[str] = None) -> dict:
    """Execute every (strategy, paradigm, seed) cell and write the outputs.

    Writes <out>/<strategy>_<paradigm>_seed<k>/trace.csv per run and a single
    <out>/result.json; returns the result.json payload.
    """
    out = out_dir or cfg.output_dir
    cells = [
        (cfg, strategy, paradigm, seed)
        for strategy in cfg.strategies
        for paradigm in cfg.paradigms
        for seed in cfg.seeds
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(_run_cell, cells))
    else:
        runs = [_run_cell(c) for c in cells]

    os.makedirs(out, exist_ok=True)
    for run in runs:
        run_dir = os.path.join(out, f"{run['strategy']}_{run['paradigm']}_seed{run['seed']}")
        os.makedirs(run_dir, exist_ok=True)
        write_trace_csv(os.path.join(run_dir, "trace.csv"), run["records"])

    payload = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg.echo(),
        "runs": runs,
        "aggregates": _aggregate(runs),
    }
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return payload


def _train_head(head, task: Task, split, pl, seed: int, schedule):
    """Fit one comparison head on labeled shots plus a pseudolabel set."""
    if pl.m == 0:
        # Nothing crossed the threshold; fall back to pure supervised shots.
        weights = (1.0, 0.0)
    else:
        weights = paradigm_weights("SSL", split.labeled.n, pl.m)
    fitted, _ = train(head, task.train, task.space, split.labeled, pl, weights, schedule, seed=seed)
    return fitted


def run_comparison_scenario(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Top-K vs confidence-threshold pseudolabels, prompt vs linear probe.

    All four trainings start from the same shots-per-class labeled subset and
    the same zero-shot scores; each trained head is compared against the
    zero-shot baseline with the poor/rich redistribution report. Writes
    <out>/robinhood.json and returns its payload.
    """
    task = load_task(cfg)
    seed = cfg.seeds[0]
    # One pseudolabeling pass and one training per head, as in an FPL run.
    run_cfg = strategy_config(cfg, "FPL", "SSL", seed)
    split = wire_paradigm(run_cfg.paradigm, task.train, task.space, seed)
    pool_feats = task.train.features[split.pool_rows]
    pool_ids = task.train.ids[split.pool_rows]
    S = pool_feats @ task.space.base_prototypes.T
    probs = softmax_rows(cfg.temperature * S)

    classes = split.pseudolabel_classes
    k = effective_k(cfg.K, int(split.pool_rows.size), len(classes))
    pseudolabel_sets = {
        "topk": topk_per_class(S, k, classes, pool_ids),
        "threshold": threshold_pseudolabels(probs, cfg.threshold_tau, pool_ids),
    }

    truth = {int(i): int(c) for i, c in zip(task.train.ids, task.train.labels)}
    baseline = zero_shot_report(task.test, task.space)
    base = run_cfg.base_prompt(task.space.d)
    comparisons: dict = {}
    for head_name in ("prompt", "linear_probe"):
        comparisons[head_name] = {}
        for mode, pl in pseudolabel_sets.items():
            if head_name == "prompt":
                head = reinit_ctx(base, seed ^ 1, scale=cfg.init_scale, spread=cfg.init_spread)
            else:
                head = init_linear_probe(task.space.C, task.space.d)
            fitted = _train_head(head, task, split, pl, seed ^ 1, run_cfg.resolved_schedule())
            report = evaluate(fitted, task.test, task.space)
            comparisons[head_name][mode] = {
                "n_pseudolabels": pl.m,
                "pseudolabel_accuracy": pseudolabel_accuracy(pl, truth) if pl.m else None,
                "report": report.to_dict(),
                "robin_hood": robin_hood(baseline, report).to_dict(),
            }

    payload = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg.echo(),
        "baseline": baseline.to_dict(),
        "threshold_tau": cfg.threshold_tau,
        "comparisons": comparisons,
    }
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "robinhood.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return payload
