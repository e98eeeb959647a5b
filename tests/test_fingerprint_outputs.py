"""tools/fingerprint_outputs.py runs every benchmark workload's toy shapes
and prints the same map of output files to hashes from any work dir, with
the map's own sha256 on stderr."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fingerprint_outputs.py"


def _fingerprint(work_dir, env=None):
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(work_dir), "--toy"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr.splitlines()[-1] == f"map sha256 {hashlib.sha256(proc.stdout.encode()).hexdigest()}"
    return json.loads(proc.stdout)


def test_toy_fingerprint_covers_every_output_and_ignores_the_work_dir(tmp_path):
    first = _fingerprint(tmp_path / "a")
    assert _fingerprint(tmp_path / "b") == first
    for name in ("calib", "fullscale", "select"):
        for seed in (0, 3):
            assert f"{name}/{seed}/result.json" in first
            assert any(re.fullmatch(rf"{name}/{seed}/[^/]+/trace\.csv", key) for key in first)
    assert "calib/0/robinhood.json" in first and "calib/3/robinhood.json" in first
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in first.values())


def test_toy_fingerprint_is_the_same_at_one_blas_thread(tmp_path):
    default = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    one = {**default, "OPENBLAS_NUM_THREADS": "1"}
    assert _fingerprint(tmp_path / "one", one) == _fingerprint(tmp_path / "default", default)
