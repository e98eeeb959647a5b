"""Experiment sweep: strategies x paradigms x seeds, plus the comparison
scenario for the redistribution analysis.

The sweep's unit of work is a run, not a cell: when IFPL is swept, FPL's
cell at each paradigm and seed is read off IFPL's run there (FPL is IFPL's
round 1), so that round trains once. Outputs are deterministic: runs
execute in config order (or in stripes of runs across worker processes),
their cells are re-assembled in config order, every RNG is derived from
config seeds, and result.json is byte-identical across repeated invocations
and job counts except for the "generated_at" timestamp.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import functools
import itertools
import json
import multiprocessing
import os
from concurrent import futures
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import SCHEMA_VERSION, ExperimentConfig
from .core import Task, int_scalar, make_trzsl_split
from .fileio import read_named, replacing
from .metrics import (
    EvalReport,
    robin_hood,
    softmax_rows,
    threshold_pseudolabels,
    zero_shot_report,
)
from .probe import init_linear_probe
from .strategies import IterationRecord, run_rounds, run_strategy, select_round, wire_paradigm
from .surrogate import one_blas_thread
from .synth import synth_generate

# Sweep workers are fresh interpreters, not forks: the parent may hold the
# visual-route worker thread and OpenBLAS's threads, and forking a process
# that holds threads is not safe.
ProcessPoolExecutor = functools.partial(futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))

# A trace row is an IterationRecord without its pseudolabel count.
TRACE_COLUMNS = tuple(f.name for f in dataclasses.fields(IterationRecord) if f.name != "n_pseudo")


def load_task(cfg: ExperimentConfig) -> Task:
    """Materialize the task: generate synthetically or read PLE1 files (a
    file that cannot be read is named in the error, with its role).

    The two files must hold the same class space: names, order and
    prototypes. A transductive paradigm needs a class partition; file-based
    spaces get one derived from split_seed (synthetic spaces already carry
    one).
    """
    if cfg.synthetic is not None:
        task = synth_generate(cfg.synthetic)
    else:
        train_set, space = read_named(cfg.train_path, "train file")
        test_set, test_space = read_named(cfg.test_path, "test file")
        if space.class_names != test_space.class_names or not np.array_equal(
            space.base_prototypes, test_space.base_prototypes
        ):
            c = _first_differing_class(space, test_space)
            names = [repr(s.class_names[c]) if c < s.C else "absent" for s in (space, test_space)]
            raise ValueError(
                "train and test files describe different class spaces: they first differ"
                f" at class {c}, {names[0]} in the train file and {names[1]} in the test file"
            )
        task = Task(train=train_set, test=test_set, space=space)
    if "TRZSL" in cfg.paradigms and task.space.partition is None:
        partition = make_trzsl_split(task.space.C, cfg.split_seed)
        task = dataclasses.replace(task, space=dataclasses.replace(task.space, partition=partition))
    return task


def _first_differing_class(space, other) -> int:
    """The first class whose name or prototype differs between two class
    spaces (class 0 when the prototype widths differ), or the smaller class
    count when one space extends the other."""
    if space.d != other.d:
        return 0
    C = min(space.C, other.C)
    differ = np.array(space.class_names[:C], dtype=object) != np.array(other.class_names[:C], dtype=object)
    differ |= (space.base_prototypes[:C] != other.base_prototypes[:C]).any(axis=1)
    return int(np.argmax(differ)) if differ.any() else C


def _prepared(cfg: ExperimentConfig, paradigms: tuple) -> Tuple[Task, EvalReport]:
    """The task and its zero-shot baseline, after checking that each of
    ``paradigms`` can run on the task.

    The config's own rules were checked when it was built (ExperimentConfig);
    this checks what needs the task. Each paradigm's run settings are built
    and its split wired, so a class short of shots_per_class rows, an empty
    unlabeled pool (wire_paradigm refuses it), or (TRZSL) a test set missing
    a partition side fails here, before any training; the error names
    shots_per_class only for SSL, the one paradigm it shapes. The test
    set is scored once: with TRZSL the baseline is the partition-aware
    report that checks it, whose per-class fields are the plain report's.
    """
    task = load_task(cfg)
    for paradigm in paradigms:
        try:
            run_cfg = cfg.run_config(cfg.strategies[0], paradigm, cfg.seeds[0])
            wire_paradigm(run_cfg.paradigm, task.train, task.space, run_cfg.seed)
            if paradigm == "TRZSL":
                baseline = zero_shot_report(task.test, task.space, partition_aware=True)
        except ValueError as exc:
            cause = f"with shots_per_class={cfg.shots_per_class}" if paradigm == "SSL" else "on this task"
            raise ValueError(f"paradigm {paradigm} cannot run {cause}: {exc}") from exc
    # With TRZSL the loop above has set baseline or raised.
    return task, baseline if "TRZSL" in paradigms else zero_shot_report(task.test, task.space)


def _run_cells(cfg: ExperimentConfig, runs: List[Tuple[str, str, int]], out: str) -> List[dict]:
    """Run runs in order on one task and zero-shot baseline, writing the
    trace.csv of each cell a run serves as it finishes; returns the cells'
    plain dicts, which can cross processes.

    A run serves its own cell, and an IFPL run also serves FPL's when FPL is
    swept: FPL's one quota is IFPL's first, so FPL's run is IFPL's round 1,
    bit for bit. Every paradigm of the config is checked first (_prepared),
    so an infeasible one fails before any run.
    """
    task, baseline = _prepared(cfg, cfg.paradigms)
    cells = []
    for strategy, paradigm, seed in runs:
        result = run_strategy(cfg.run_config(strategy, paradigm, seed), task)
        served = [("FPL", 1)] if strategy == "IFPL" and "FPL" in cfg.strategies else []
        for name, rounds in served + [(strategy, len(result.records))]:
            cells.append({
                "strategy": name,
                "paradigm": paradigm,
                "seed": int(seed),
                "final": result.reports[rounds - 1].to_dict(),
                "robin_hood": robin_hood(baseline, result.reports[rounds - 1]).to_dict(),
                "records": [r.to_dict() for r in result.records[:rounds]],
            })
            run_dir = os.path.join(out, f"{name}_{paradigm}_seed{seed}")
            os.makedirs(run_dir, exist_ok=True)
            write_trace_csv(os.path.join(run_dir, "trace.csv"), cells[-1]["records"])
    return cells


def write_trace_csv(path: str, records: List[dict]) -> None:
    with replacing(path, newline="", encoding="utf-8") as fh:
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
        entry = {"strategy": strategy, "paradigm": paradigm, "n_seeds": len(members)}
        for key, name in (("overall", "accuracy"), ("harmonic", "harmonic")):
            values = [m["final"][key] for m in members]
            if None not in values:
                values = np.array(values, dtype=np.float64)
                entry[f"mean_{name}"] = float(values.mean())
                entry[f"std_{name}"] = float(values.std(ddof=1)) if values.size > 1 else 0.0
        out.append(entry)
    return out


def _write_json(out: str, name: str, cfg: ExperimentConfig, body: dict) -> dict:
    """Write <out>/<name>: schema version, timestamp, config echo, then body."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg.echo(),
        **body,
    }
    os.makedirs(out, exist_ok=True)
    with replacing(os.path.join(out, name), encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return payload


def run_sweep(cfg: ExperimentConfig, jobs: int = 1, out_dir: Optional[str] = None) -> dict:
    """Execute every (strategy, paradigm, seed) cell and write the outputs.

    Writes <out>/<strategy>_<paradigm>_seed<k>/trace.csv per cell and a
    single <out>/result.json; returns the result.json payload, whose "runs"
    list the cells in config order. The unit of work is a run, not a cell:
    every cell is a run of its own except FPL's when IFPL is swept, which
    IFPL's run at the same paradigm and seed serves (_run_cells), so a run
    that fails loses every cell it serves. ``jobs`` > 1 runs
    min(jobs, runs) worker processes, each on a stripe of every workers-th
    run and with numpy's OpenBLAS set to one thread as it starts; a serial
    sweep keeps its BLAS threads.
    """
    int_scalar(jobs, "jobs", 1)
    out = out_dir or cfg.output_dir
    cells = list(itertools.product(cfg.strategies, cfg.paradigms, cfg.seeds))
    runs = [cell for cell in cells if cell[0] != "FPL" or "IFPL" not in cfg.strategies]
    workers = min(jobs, len(runs))
    if workers > 1:
        stripes = [runs[w::workers] for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers, initializer=one_blas_thread) as pool:
            parts = list(pool.map(_run_cells, [cfg] * workers, stripes, [out] * workers))
    else:
        parts = [_run_cells(cfg, runs, out)]
    by_cell = {(c["strategy"], c["paradigm"], c["seed"]): c for part in parts for c in part}
    results = [by_cell[strategy, paradigm, int(seed)] for strategy, paradigm, seed in cells]
    return _write_json(out, "result.json", cfg, {"runs": results, "aggregates": _aggregate(results)})


def run_comparison_scenario(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Top-K vs confidence-threshold pseudolabels, prompt vs linear probe.

    Each of the four cells is one round of the round engine (run_rounds)
    from the same shots-per-class labeled subset and the same base prompt,
    as in an FPL run, and each trained head is compared against the
    zero-shot baseline with the poor/rich redistribution report. Every cell
    selects with the base prompt in round 1, so each selection rule runs
    once and its pseudolabels go to both heads. The top-K pseudolabels are
    FPL's round 1 (select_round with the base prompt), and the prompt head
    is FPL's round-1 prompt. The scenario never deduplicates, so the
    prompt/top-K cell is the FPL/SSL run at the first seed with
    dedup_pseudolabels off. The threshold pseudolabels come from the softmax
    of the base prompt's scores of the pool rows, gathered from the train
    set for that one call; select_round scores the same pool block by block,
    and no copy of the pool outlives either. Writes <out>/robinhood.json and
    returns its payload.
    """
    out = out_dir or cfg.output_dir
    task, baseline = _prepared(cfg, ("SSL",))
    run_cfg = cfg.run_config("FPL", "SSL", cfg.seeds[0])
    split = wire_paradigm(run_cfg.paradigm, task.train, task.space, run_cfg.seed)
    base = run_cfg.base_prompt(task.space.d)
    pool = split.pool_rows
    pseudolabels = {
        "topk": select_round(run_cfg, split, task.train, base, task.space, 1),
        # Nothing may cross the threshold; that head trains on the shots alone.
        "threshold": threshold_pseudolabels(
            softmax_rows(base.scores(task.train.features[pool], task.space)), cfg.threshold_tau, task.train.ids[pool]
        ),
    }
    heads = {
        "prompt": functools.partial(run_cfg.fresh_prompt, base),
        "linear_probe": lambda i: init_linear_probe(task.space.C, task.space.d),
    }

    comparisons: dict = {}
    for head_name, new_head in heads.items():
        comparisons[head_name] = {}
        for mode, pl in pseudolabels.items():
            result = run_rounds(run_cfg, task, split, base, 1, lambda model, i, pl=pl: pl, new_head)
            comparisons[head_name][mode] = {
                "n_pseudolabels": result.records[0].n_pseudo,
                "pseudolabel_accuracy": result.records[0].pseudolabel_accuracy,
                "report": result.final_report.to_dict(),
                "robin_hood": robin_hood(baseline, result.final_report).to_dict(),
            }

    return _write_json(out, "robinhood.json", cfg, {
        "baseline": baseline.to_dict(),
        "threshold_tau": cfg.threshold_tau,
        "comparisons": comparisons,
    })
