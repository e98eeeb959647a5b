"""Fingerprint the output files of the benchmark's workloads.

    python3 tools/fingerprint_outputs.py WORK_DIR [--toy]

Runs one unit of every workload in ``bench/workloads.py`` (calib, fullscale
and select) at seeds 0 and 3, each in its own directory under WORK_DIR, and
prints one JSON object that maps ``<workload>/<seed>/<file>`` to the sha256
of that output file: ``result.json``, ``robinhood.json`` (calib) and every
``trace.csv``. The ``generated_at`` timestamps are removed first, and so is
the unit's directory wherever the config echo names it, so two checkouts that
print the same map wrote the same bytes even from different work dirs.
``--toy`` runs the workloads' toy shapes, which take well under a second.
The sha256 of the printed map (stdout, final newline included) goes to
stderr as ``map sha256 <hex>``, so two checkouts compare by one digest.

The package is imported from ``src/`` next to this directory, so the map
describes the checkout the script sits in. Exit code 0 unless a unit raised.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import NAMES, Workload  # noqa: E402

SEEDS = (0, 3)


def fingerprint(work_dir: str, toy: bool) -> dict:
    """sha256 of each output file of one unit per workload and seed."""
    out = {}
    for name in NAMES:
        for seed in SEEDS:
            unit_dir = os.path.abspath(os.path.join(work_dir, f"{name}-{seed}"))
            os.makedirs(unit_dir, exist_ok=True)
            workload = Workload(name, seed, toy, unit_dir)
            workload.prepare()
            workload.clear_outputs()
            workload.unit()
            for path, data in sorted(workload.fingerprint().items()):
                data = data.replace(unit_dir.encode(), b"WORK_DIR")
                out[f"{name}/{seed}/{Path(path).as_posix()}"] = hashlib.sha256(data).hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("work_dir", help="directory for the inputs and outputs of every unit")
    parser.add_argument("--toy", action="store_true", help="run the workloads' toy shapes")
    args = parser.parse_args(argv)
    text = json.dumps(fingerprint(args.work_dir, args.toy), indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    print(f"map sha256 {hashlib.sha256(text.encode()).hexdigest()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
