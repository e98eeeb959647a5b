"""tools/step_time.py prints one row of step and loss-call timings per
modality and names its BLAS setting; its toy shape runs as a quick smoke
test."""

import subprocess
import sys
from pathlib import Path

from plrefine import surrogate
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


def test_toy_run_names_the_blas_threads_of_a_multimodal_call():
    """stderr holds one line: the count read inside a two-route call, which
    the surrogate holds at 1, or "not found"."""
    err = subprocess.run([sys.executable, str(TOOL), "--toy"], capture_output=True, text=True, check=True).stderr
    expected = "1" if surrogate._openblas_threads() is not None else "not found"
    assert err.splitlines() == [f"OpenBLAS threads inside a multimodal loss call: {expected}"]
