"""What every workload shares: the run context, the tally of checked
operations, percentiles, and the CLI runner."""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 60


def pct(values: list, q: int) -> float:
    """The q-th percentile (q in 1..99); 0 for an empty sample (a failed run)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[q - 1]


class Tally:
    """Checked operations: how many were attempted and how many came out wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def check(self, ok: bool, what) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what() if callable(what) else what)
        return ok


class Samples:
    """Program time of timed calls, in seconds, by kind.

    Kept in typed arrays of at most ``CAP`` samples a kind. When one fills,
    every other sample is dropped and from then on one call in twice as many
    is kept, so each kind stays an even sample of the whole window. The
    benchmark's own memory then stays the same however many operations a
    run completes, and ``peak_rss_mb`` does not grow with the program's
    speed.
    """

    CAP = 1 << 16

    def __init__(self):
        self.by_kind: dict = {}
        self._stride: dict = {}    # kind -> keep one call in this many
        self._calls: dict = {}     # kind -> calls seen
        self.units = array("d")    # program time of each unit of work

    def add(self, kind: str, seconds: float) -> None:
        calls = self._calls[kind] = self._calls.get(kind, 0) + 1
        samples = self.by_kind.get(kind)
        if samples is None:
            samples = self.by_kind[kind] = array("d")
            self._stride[kind] = 1
        if calls % self._stride[kind]:
            return
        samples.append(seconds)
        if len(samples) >= self.CAP:
            self.by_kind[kind] = samples[::2]
            self._stride[kind] *= 2

    def of(self, *kinds) -> list:
        return [s for k in kinds for s in self.by_kind.get(k, ())]

    def calls(self, kind: str) -> int:
        return self._calls.get(kind, 0)


class Context:
    """One run: where the checkout is, its temporary directory, seed and tracer."""

    def __init__(self, root: Path, tmp: Path, seed: int):
        self.root = root
        self.src = root / "src"
        self.tmp = tmp
        self.seed = seed
        self.tally = Tally()
        self.tracer: tracing.Tracer | None = None
        self.inputs: dict = {}      # file name -> bytes, as written by the last set-up

    def fresh_dir(self, name: str) -> Path:
        path = self.tmp / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def write_input(self, name: str, text: str) -> Path:
        path = self.tmp / name
        path.write_text(text, encoding="utf-8")
        self.inputs[name] = text.encode("utf-8")
        return path

    def cli(self, args: list, *, db: Path, workspace: Path):
        """Run one CLI command to completion. Returns (exit code, stdout, stderr, seconds).

        Untraced, this is ``python -m widgetspace``; traced, the same
        ``cli.main`` runs under ``clishim.py``, which sends its spans back.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["WIDGETSPACE_DB"] = str(db)
        env["WIDGETSPACE_WORKSPACE"] = str(workspace)
        tracer = self.tracer
        if tracer is None:
            argv = [sys.executable, "-m", "widgetspace", *args]
        else:
            spans = self.tmp / "child-spans.json"
            env["PERFBENCH_SPANS"] = str(spans)
            argv = [sys.executable, str(HERE / "clishim.py"), *args]
            span = tracer.begin("cli.run")
            env["PERFBENCH_T0"] = str(time.perf_counter_ns())
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=env, cwd=self.tmp, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.finish(span)
        if tracer is not None:
            data = tracing.load_child(str(spans))
            if data is not None:
                tracer.merge(data, span)
                spans.unlink()
        return proc.returncode, proc.stdout, proc.stderr, seconds

    def no_lock(self, db: Path) -> bool:
        return not (db / "lock").exists()


def verify_cli(ctx: Context, label: str, schema_files: list, db: Path, model,
               reads: list) -> None:
    """Compile ``schema_files`` with the CLI, then ``get`` each (name, locale,
    medium) of ``reads`` from ``db`` and compare with ``model``."""
    from oracle import UNINIT

    workspace = ctx.tmp / f"{label}-workspace.json"
    code, _, err, _ = ctx.cli(["schema", "load", *map(str, schema_files),
                               "--workspace", str(workspace)], db=db, workspace=workspace)
    ctx.tally.check(code == 0, f"{label}: CLI schema load exited {code}: {err!r}")
    for name, locale, medium in reads:
        code, out, err, _ = ctx.cli(["get", "--locale", locale, "--field", name,
                                     "--medium", medium], db=db, workspace=workspace)
        shown = model.get(name, locale, medium)
        expected = ("#uninit" if shown is UNINIT else shown) + "\n"
        ctx.tally.check((code, out) == (0, expected) and ctx.no_lock(db),
                        f"{label}: CLI get {name}@{locale} gave {code} {out!r} {err!r}")


def verify_database(ctx: Context, path: Path, tables: dict, label: str) -> None:
    """Cold-open ``path`` and check it holds exactly ``tables``; then check that
    a dump restored into a fresh directory dumps back byte for byte."""
    from oracle import from_program, render_tables
    from widgetspace.store import Database

    tally = ctx.tally
    expected = {t: rows for t, rows in tables.items() if rows}
    db = Database(path)
    names = db.table_names()
    tally.check(names == sorted(expected),
                lambda: f"{label}: tables {names} != {sorted(expected)}")
    for name in sorted(expected):
        got = {k: from_program(v) for k, v in db.items(name)}
        tally.check(got == expected[name], lambda: f"{label}: table {name} differs on reopen")
    dump = db.dump_text()
    tally.check(dump == render_tables(expected), f"{label}: dump differs from the oracle's")
    if not expected:
        return
    copy = ctx.fresh_dir(f"{path.name}-restored")
    restored = Database(copy)
    restored.restore_text(dump, filename=f"{label}.widgetdump")
    restored.checkpoint()
    tally.check(Database(copy).dump_text() == dump,
                f"{label}: second dump after restore differs from the first")
