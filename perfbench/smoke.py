"""Smoke test of the benchmark itself: small runs of every workload.

    python3 perfbench/smoke.py

Checks that
- each workload, untraced and traced, exits 0 and ends with one JSON line
  holding exactly ``correct``, ``attempted``, ``failed`` and ``metrics``;
- the JSON carries every metric BENCHMARK.json lists, with its unit, and
  no operation failed (``fail_frac`` is 0);
- the lines before it name every end-to-end metric of the workload, each
  with a unit;
- the same seed gives byte-identical inputs and another seed does not;
- without the program's sources the benchmark exits non-zero and prints
  no result.

Exits 1 and names the first problem found.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from oracle import fixture_model  # noqa: E402

NAMED = {
    "cli": ("cli_get_ms_p50", "cli_set_ms_p50", "cli_ms_p90"),
    "records": ("get_us_p50", "get_us_p90", "set_us_p50", "set_us_p90", "records_per_s"),
    "catalog": ("schema_load_s", "workspace_import_s", "db_open_s", "commit_ms_p50",
                "restore_s"),
}
EVERY_WORKLOAD = ("setup_s", "fail_frac", "peak_rss_mb")
SECONDS = {"cli": 2, "records": 1, "catalog": 1}


def _expect(ok: bool, message) -> None:
    if not ok:
        raise AssertionError(message)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "11",
                           "--seconds", str(SECONDS.get(workload, 1)),
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _check_run(workload: str, trace: int, spec: dict) -> None:
    proc = _run(workload, trace)
    _expect(proc.returncode == 0,
            f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    _expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], result)
    _expect(result["correct"] is True and result["failed"] == 0,
            f"{workload} trace={trace}: {result['failed']} failed\n{proc.stderr}")
    _expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
            f"attempted = {result['attempted']!r}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    _expect(sorted(got) == sorted(m["name"] for m in wanted),
            f"{workload} trace={trace}: metrics {sorted(got)}")
    for m in wanted:
        value = got[m["name"]]
        _expect(value["unit"] == m["unit"], f"{m['name']}: unit {value['unit']}")
        _expect(isinstance(value["value"], (int, float)), f"{m['name']}: {value}")
    if not trace:
        shown = {}
        for line in lines[:-1]:
            match = re.fullmatch(r"\s+(\S+) (\S+) (\S+)", line)
            if match:
                shown[match[1]] = (float(match[2]), match[3])
        for name in NAMED[workload] + EVERY_WORKLOAD:
            _expect(name in shown, f"{workload}: {name} not printed")
        _expect(shown["fail_frac"] == (0.0, "frac"), shown["fail_frac"])


def _check_inputs() -> None:
    def make(seed):
        rng = random.Random(seed)
        text, model, leaves = gen.fixture_with_extension(rng)
        pool = gen.subjects(rng, model, leaves, 50)
        ops = gen.cli_ops(random.Random(seed), fixture_model(), 50)
        cat = gen.Catalog(random.Random(seed), 60, 20, 12, 2)
        return (text, gen.subjects_file(pool), gen.ops_file(ops), cat.schema_text,
                gen.values_file(cat.fill(), cat.coords))

    _expect(make(5) == make(5), "same seed, different inputs")
    _expect(all(a != b for a, b in zip(make(5), make(6))), "seed does not change inputs")


def _check_without_sources() -> None:
    bare = ROOT / ".perfbench_tmp" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("records", 0, cwd=bare)
        _expect(proc.returncode != 0, "ran without the program's sources")
        _expect(not proc.stdout.strip(), f"printed a result: {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        _check_inputs()
        _check_without_sources()
        # Every workload, including any run by hand only (not in BENCHMARK.json).
        for workload in NAMED:
            for trace in (0, 1):
                _check_run(workload, trace, spec)
                print(f"ok  {workload} trace={trace}")
    except AssertionError as e:
        print(f"FAIL {e}")
        return 1
    print("ok  inputs are seed-deterministic; no sources -> no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
