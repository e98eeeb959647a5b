"""
Dataset files, experiment configs and sweeps
============================================

The artifact side of the package: a little-endian binary format for
embedding sets, a versioned JSON config schema, and a sweep runner that
writes one trace per run plus an aggregate result file. Everything here is
also reachable from the command line (plrefine run / gen-synth / inspect /
robinhood).
"""

import csv
import json
import tempfile
from pathlib import Path

from plrefine import (
    SyntheticSpec,
    inspect_ple,
    parse_config,
    read_ple,
    run_sweep,
    synth_generate,
    write_ple,
)

# Everything the demo writes lives in one temporary directory, removed on exit.
with tempfile.TemporaryDirectory(prefix="plrefine_demo_") as tmp:
    workdir = Path(tmp)

    # Round trip a dataset through the on-disk format. Features are stored as
    # 32-bit floats; label -1 marks an unlabeled row.
    task = synth_generate(SyntheticSpec(C=5, d=16, labeled_per_class=3,
                                        unlabeled_per_class=12, seed=9))
    train_path = workdir / "toy.ple"
    write_ple(str(train_path), task.train, task.space)
    data, space = read_ple(str(train_path))
    print(f"round trip: {data.n} rows, d={data.d}, {space.C} classes")
    print(json.dumps(inspect_ple(str(train_path)), indent=2)[:300], "...\n")

    # A config is a plain JSON object. Unknown keys are rejected and the schema
    # version is pinned, so stale configs fail loudly instead of drifting.
    cfg = parse_config({
        "schema_version": 1,
        "task": {"synthetic": {"C": 5, "d": 16, "labeled_per_class": 3,
                               "unlabeled_per_class": 12, "seed": 9}},
        "strategies": ["FPL", "GRIP"],
        "paradigms": ["UL"],
        "seeds": [0, 1, 2],
        "I": 3,
        "temperature": 10.0,
        "schedule": {"epochs": 20, "warmup_epochs": 2},
        "output_dir": str(workdir / "runs"),
    })

    # The sweep executes every (strategy, paradigm, seed) cell in its own
    # directory and aggregates mean/std accuracy over seeds.
    result = run_sweep(cfg)
    for agg in result["aggregates"]:
        print(f"{agg['strategy']}/{agg['paradigm']}: mean {agg['mean_accuracy']:.3f} "
              f"+/- {agg['std_accuracy']:.3f} over {agg['n_seeds']} seeds")

    # Each run leaves a trace.csv holding the per-iteration quantities.
    trace_path = workdir / "runs" / "GRIP_UL_seed0" / "trace.csv"
    with open(trace_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            print(f"  GRIP seed 0, iter {row['iteration']}: k={row['k_used']}, "
                  f"test acc {float(row['test_accuracy']):.3f}")

    # result.json re-parses and echoes the exact config it came from, so a run
    # is reproducible from its own output directory.
    with open(workdir / "runs" / "result.json", encoding="utf-8") as fh:
        echoed = json.load(fh)["config"]
    print("\nconfig echo matches:", parse_config(echoed) == cfg)
