"""Command-line entry points.

    plrefine run <config.json> [--jobs N] [--out DIR] [--seed-override S,...]
    plrefine gen-synth <spec.json> <out.ple>
    plrefine inspect <file.ple>
    plrefine robinhood <config.json> [--out DIR]

Successful commands exit 0; any failure prints one JSON line
{"error": "...", "type": "<exception class>"} to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import load_config, parse_seed_list, parse_synthetic_spec
from .fileio import inspect_ple, write_ple
from .sweep import run_comparison_scenario, run_sweep
from .synth import synth_generate


def _test_path_for(path: str) -> str:
    """data.ple -> data.test.ple (companion file for the held-out split)."""
    p = Path(path)
    return str(p.with_suffix(".test" + (p.suffix or ".ple")))


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed_override:
        cfg = dataclasses.replace(cfg, seeds=parse_seed_list(args.seed_override.split(",")))
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if "FPL" in cfg.strategies and "I" in raw and cfg.I != 1:
        print(
            f"warning: I={cfg.I} is ignored by FPL (it always runs a single iteration)",
            file=sys.stderr,
        )
    payload = run_sweep(cfg, jobs=args.jobs, out_dir=args.out)
    out = args.out or cfg.output_dir
    print(f"wrote {out}/result.json ({len(payload['runs'])} runs)")
    return 0


def _cmd_gen_synth(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = parse_synthetic_spec(json.load(fh))
    task = synth_generate(spec)
    test_path = _test_path_for(args.out)
    write_ple(args.out, task.train, task.space)
    write_ple(test_path, task.test, task.space)
    print(f"wrote {args.out} (train, n={task.train.n}) and {test_path} (test, n={task.test.n})")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    print(json.dumps(inspect_ple(args.file), indent=2))
    return 0


def _cmd_robinhood(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    run_comparison_scenario(cfg, out_dir=args.out)
    out = args.out or cfg.output_dir
    print(f"wrote {out}/robinhood.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plrefine",
        description="Iterative pseudolabel refinement over frozen embedding spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the sweep described by a config file")
    p_run.add_argument("config")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_run.add_argument("--out", default=None, help="override the config's output_dir")
    p_run.add_argument("--seed-override", default=None, help="comma-separated seed list")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen-synth", help="generate a synthetic dataset pair")
    p_gen.add_argument("spec", help="JSON file with the synthetic spec")
    p_gen.add_argument("out", help="output path; the test split lands next to it")
    p_gen.set_defaults(func=_cmd_gen_synth)

    p_ins = sub.add_parser("inspect", help="summarize a PLE1 file")
    p_ins.add_argument("file")
    p_ins.set_defaults(func=_cmd_inspect)

    p_rh = sub.add_parser(
        "robinhood", help="top-K vs threshold pseudolabels, prompt vs linear probe"
    )
    p_rh.add_argument("config")
    p_rh.add_argument("--out", default=None, help="override the config's output_dir")
    p_rh.set_defaults(func=_cmd_robinhood)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single-line machine-readable failure
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
