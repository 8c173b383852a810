"""The pipeline benchmark's own reference check, run as a test.

Each workload runs one pass (`--seconds 1`) in a copy of `src/` and
`pipebench/`, so that its work directory stays out of the repository. It
must print that its digest matches the stored reference and end with a
passing result line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["node-sgc", "node-gesn", "graph-gesn"])
def test_workload_matches_stored_reference(workload, tmp_path):
    for part in ("src", "pipebench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil
                        .ignore_patterns("__pycache__", ".pipebench_work"))
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", workload,
         "--seed", "0", "--trace", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "(matches stored reference)" in proc.stdout, proc.stdout
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
