"""A short traced benchmark run: every traced layer is still reached."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_records_run_is_correct():
    # A traced layer that no call reaches makes the run report correct: false.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "records", "--seed", "7",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
