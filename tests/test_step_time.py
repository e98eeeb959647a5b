"""tools/step_time.py prints one row of step and loss-call timings per
modality; its toy shape runs as a quick smoke test."""

import subprocess
import sys
from pathlib import Path

from plrefine.surrogate import MODALITIES

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_time.py"


def test_toy_run_prints_one_row_per_modality():
    out = subprocess.run([sys.executable, str(TOOL), "--toy"], capture_output=True, text=True, check=True).stdout
    header, *rows = out.splitlines()
    assert header.split()[:2] == ["shape", "modality"]
    assert [row.split()[1] for row in rows] == list(MODALITIES)
    for row in rows:
        shape, _, step_us, loss_us = row.split()
        assert shape == "toy"
        assert float(step_us) > 0 and float(loss_us) > 0
