"""tools/fingerprint_outputs.py runs every benchmark workload's toy shapes
and prints the same map of output files to hashes from any work dir, with
the map's own sha256 on stderr; that map matches the golden one in
tests/fixtures/fingerprint_toy.json, so every output byte is gated. The
trained ctx bytes of each toy calib cell match the fixture's ctx_sha256 too,
so a change to the training seed, which the toy outputs' accuracies on tiny
test sets can hide, is gated as well."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fingerprint_outputs.py"
GOLDEN = Path(__file__).resolve().parent / "fixtures" / "fingerprint_toy.json"


def _fingerprint(work_dir, env=None):
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(work_dir), "--toy"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr.splitlines()[-1] == f"map sha256 {hashlib.sha256(proc.stdout.encode()).hexdigest()}"
    return json.loads(proc.stdout)


# Prints {"calib/<seed>/<strategy>": sha256 of the trained ctx bytes} for
# each cell of the toy calib workload, run alone through run_strategy.
# argv: the checkout root, a work dir.
CTX_SCRIPT = """
import hashlib, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
from plrefine.strategies import run_strategy
from plrefine.sweep import load_task
from workloads import Workload
out = {}
for seed in (0, 3):
    cfg = Workload("calib", seed, True, sys.argv[2]).cfg
    task = load_task(cfg)
    for strategy in cfg.strategies:
        model = run_strategy(cfg.run_config(strategy, cfg.paradigms[0], cfg.seeds[0]), task).final_model
        ctx = b"".join(a.tobytes() for a in model.learnable().values())
        out[f"calib/{seed}/{strategy}"] = hashlib.sha256(ctx).hexdigest()
print(json.dumps(out))
"""


def _build() -> dict:
    """numpy and BLAS build, read as bench/run.py's environment() reads them."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = None
    return {"numpy": numpy.__version__, "blas": blas_name, "blas_version": blas_version}


@pytest.fixture(scope="module")
def toy_map(tmp_path_factory):
    return _fingerprint(tmp_path_factory.mktemp("fingerprint") / "a")


def test_toy_fingerprint_covers_every_output_and_ignores_the_work_dir(toy_map, tmp_path):
    assert _fingerprint(tmp_path / "b") == toy_map
    for name in ("calib", "fullscale", "select"):
        for seed in (0, 3):
            assert f"{name}/{seed}/result.json" in toy_map
            assert any(re.fullmatch(rf"{name}/{seed}/[^/]+/trace\.csv", key) for key in toy_map)
    assert "calib/0/robinhood.json" in toy_map and "calib/3/robinhood.json" in toy_map
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in toy_map.values())


def test_toy_fingerprint_matches_the_golden_map(toy_map):
    """Each output file keeps its bytes. The golden map holds only on the
    numpy and BLAS build it was taken on; another build fails, naming both."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    text = json.dumps(golden["map"], indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == golden["toy_map_sha256"]
    taken_on = {key: golden[key] for key in ("numpy", "blas", "blas_version")}
    build = _build()
    assert build == taken_on, f"the golden map was taken on {taken_on}; this build is {build}"
    differ = sorted(k for k in toy_map.keys() | golden["map"].keys() if toy_map.get(k) != golden["map"].get(k))
    assert not differ, f"output bytes differ from the golden map in: {', '.join(differ)}"


def test_toy_fingerprint_is_the_same_at_one_blas_thread(tmp_path):
    default = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    one = {**default, "OPENBLAS_NUM_THREADS": "1"}
    assert _fingerprint(tmp_path / "one", one) == _fingerprint(tmp_path / "default", default)


@pytest.mark.parametrize("blas", ["default", "one-thread"])
def test_trained_ctx_of_each_toy_calib_cell_matches_the_golden_sha(tmp_path, blas):
    """Each toy calib cell trains the same ctx bytes, at numpy's default
    BLAS threads and at one thread, on the build the golden shas were taken on."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    taken_on = {key: golden[key] for key in ("numpy", "blas", "blas_version")}
    assert _build() == taken_on, f"the golden shas were taken on {taken_on}; this build is {_build()}"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas == "one-thread":
        env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", CTX_SCRIPT, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == golden["ctx_sha256"]
