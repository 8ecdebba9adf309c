"""scripts/artifact_diff.py: two copies of one tree agree, and a changed digit is named."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "artifact_diff.py"

# a shortened list: one table, one forward run and one backward run
SHORT = ["table-2", "forward-csv20-projection", "backward-csv20-least-squares"]


def _copy_tree(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "scripts"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    return dest


def _load_script():
    spec = importlib.util.spec_from_file_location("artifact_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_copies_are_identical_and_a_planted_digit_is_reported(tmp_path):
    here, there = _copy_tree(tmp_path / "here"), _copy_tree(tmp_path / "there")
    work = tmp_path / "work"
    proc = subprocess.run(
        [sys.executable, str(here / "scripts" / "artifact_diff.py"), "--against", str(there),
         "--work", str(work), "--only", *SHORT],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "artifact_diff: 6 files, 6 identical, 0 differ, 0 in one tree only"
    assert "table-2/out/example2_table.csv: identical" in lines
    assert all(line.endswith(": identical") for line in lines[:-1])
    for name in SHORT:
        assert (work / "this" / name / "run.log").read_text().startswith("exit 0\n")

    # one printed digit changed in row 4 of one artifact
    table = work / "other" / "table-2" / "out" / "example2_table.csv"
    rows = table.read_text().splitlines()
    last = rows[3][-1]
    rows[3] = rows[3][:-1] + ("1" if last != "1" else "2")
    table.write_text("\n".join(rows) + "\n")
    module = _load_script()
    report, counts = module.compare(work / "this", work / "other")
    assert counts == {"files": 6, "identical": 5, "differ": 1, "missing": 0}
    at = report.index(f"table-2/out/example2_table.csv: 1 of {len(rows)} rows differ")
    column = rows[0].split(",")[-1]
    assert report[at + 1].startswith("  row 4 here:  ")
    assert report[at + 2] == f"  row 4 there: {rows[3]}"
    assert report[at + 3].startswith(f"  largest relative change in {column}: ")
    assert report[at + 3].endswith("(row 4)")
