"""Short traced benchmark runs: every traced layer is still reached."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload):
    # A traced layer that no call reaches makes the run report correct: false.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


def test_traced_records_run_is_correct():
    traced_run("records")


def test_traced_catalog_run_tokenizes_only_some_table_lines():
    # the table layer is still reached, and a text or date line is never tokenized
    result = traced_run("catalog")
    assert 0 < result["metrics"]["sexpr.tokenize.calls_per_line"]["value"] < 1
