"""Shared fixtures: the pinned calibration values, a small synthetic task
reused across test modules, and numpy's OpenBLAS thread control."""

import json
from pathlib import Path

import pytest

from plrefine import SyntheticSpec, surrogate, synth_generate

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def calibration():
    with open(FIXTURES / "calibration.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def small_task():
    """C=5, d=16 task, small enough for fast end-to-end runs."""
    spec = SyntheticSpec(C=5, d=16, labeled_per_class=3, unlabeled_per_class=12, seed=3)
    return synth_generate(spec)


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS (get, set), with its count set to 2 for the test and
    put back after it; skips where no OpenBLAS is found."""
    threads = surrogate._openblas_threads()
    if threads is None:
        pytest.skip("numpy's OpenBLAS thread control was not found")
    get, put = threads
    original = get()
    put(2)
    yield get, put
    put(original)
