"""tools/code_lines.py counts raw and code lines per module: docstrings,
comments and blank lines are not code, a multi-line string is."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring
over two lines."""

# A comment.
import os  # a trailing comment is still code


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring
        over two lines."""
        text = """a string
        over two lines"""
        return (os.sep,
                text)
'''


def _rows(out: str) -> dict:
    rows = {}
    for line in out.splitlines():
        raw, code, name = line.split()
        rows[name] = (int(raw), int(code))
    return rows


def test_counts_per_module_and_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "sample.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "pkg" / "empty.py").write_text("", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    # import, class, def, the string's two lines, return's two lines.
    assert _rows(proc.stdout) == {"pkg/empty.py": (0, 0), "pkg/sample.py": (17, 7), "total": (17, 7)}


def test_default_tree_is_src():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = _rows(proc.stdout)
    assert "plrefine/core.py" in rows
    modules = [counts for name, counts in rows.items() if name != "total"]
    assert rows["total"] == tuple(map(sum, zip(*modules)))
    assert all(0 < code < raw for raw, code in modules)
