"""widgetspace benchmark: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload {cli,records,catalog} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program under test is the checkout's
``src/widgetspace``. Inputs come from ``--seed`` alone. Every answer the
program gives is checked against ``oracle.py``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. The lines before it name every
metric of the workload with its unit.

With ``--trace 1`` the first third of the time runs untraced and the rest
traced, which gives ``trace.overhead_frac``; spans are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

GRACE_S = 30

# The program's set-up is repeated between the window's units, on top of
# the window's length, for about this share of it. setup_s is the median of
# every set-up, so it samples the machine over the whole run: on the shared
# machine the benchmark was built on, speed swung by up to 2x over tens of
# seconds, and set-ups taken in one burst read whatever speed that moment had.
SETUP_SHARE = 0.2


def _spec() -> dict:
    """BENCHMARK.json: the metric names and units the JSON line carries."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _workloads() -> dict:
    from work_catalog import CatalogWorkload
    from work_cli import CliWorkload
    from work_records import RecordsWorkload
    return {w.name: w for w in (CliWorkload, RecordsWorkload, CatalogWorkload)}


class SetUps:
    """The program's set-up, repeated through a run. The units keep what the
    first one built; later ones only measure."""

    def __init__(self, workload):
        self.workload = workload
        self.seconds: list = []   # program time of each set-up
        self.wall = 0.0           # wall time of all of them, untimed work included

    def __call__(self) -> None:
        t0 = time.perf_counter()
        self.seconds.append(self.workload.setup(keep=not self.seconds))
        self.wall += time.perf_counter() - t0


def _window(workload, seconds: float, tracer, setups: SetUps | None = None) -> None:
    """Closed loop: the next unit starts when the previous one has finished.

    Runs past ``seconds`` (by at most ``GRACE_S``) only until every kind of
    sample the report needs has been taken once. A unit that raises counts
    as one failed operation. With ``setups``, the program's set-up also
    runs between units, for about ``SETUP_SHARE`` of the window's length,
    which does not count it.
    """
    start = time.perf_counter()
    samples = workload.samples
    wall0 = setups.wall if setups else 0.0
    while True:
        set_up_s = setups.wall - wall0 if setups else 0.0
        elapsed = time.perf_counter() - start - set_up_s
        complete = samples.units and all(kind in samples.by_kind for kind in workload.needs)
        if elapsed >= seconds + (0 if complete else GRACE_S):
            return
        if setups and set_up_s < SETUP_SHARE * elapsed:
            setups()
            continue
        if tracer is not None:
            tracer.op += 1
        try:
            workload.unit()
        except Exception as e:  # a crash in the program is a wrong answer
            workload.ctx.tally.check(False, f"{workload.name}: unit raised {e!r}")


def _unit_time(samples) -> float:
    return sum(samples.units) / max(len(samples.units), 1)


def run(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> tuple:
    """Returns (context, human-readable lines, metrics for the JSON line)."""
    import harness
    import tracing

    spec = _spec()
    ctx = harness.Context(ROOT, tmp, seed)
    workload = _workloads()[name](ctx)
    workload.prepare()
    setups = SetUps(workload)
    setups()
    digest = hashlib.sha256(b"".join(k.encode() + b"\0" + v
                                     for k, v in sorted(ctx.inputs.items()))).hexdigest()
    lines = [f"perfbench workload={name} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)} inputs_sha256={digest[:16]}",
             f"python={platform.python_version()} nproc={os.cpu_count()} "
             f"machine={platform.machine()}"]

    if not trace:
        _window(workload, seconds, None, setups)
        rss = workload.peak_rss_mb()
        workload.verify()
        named, gated, counts = workload.report()
        s = workload.samples
        gated = {"setup_s": (statistics.median(setups.seconds), "s"), **gated,
                 "peak_rss_mb": (rss, "MB")}
        named = {**named, "setup_s": gated["setup_s"], "peak_rss_mb": gated["peak_rss_mb"],
                 "work_per_s": (1 / (harness.pct(s.units, 50) or 1), "1/s"),
                 "fail_frac": (ctx.tally.failed / max(ctx.tally.attempted, 1), "frac")}
        counts["setup"] = len(setups.seconds)
        lines.append("samples: " + " ".join(f"{k}={v}" for k, v in counts.items()))
        lines += [f"  {k} {v:.6g} {u}" for k, (v, u) in named.items()]
        lines.append("gated:")
        lines += [f"  {k} {v:.6g} {u}" for k, (v, u) in gated.items()]
        metrics = {}
        for m in spec["end_to_end"]:
            value, unit = gated[m["name"]]
            assert unit == m["unit"], (m, unit)
            metrics[m["name"]] = {"value": value, "unit": unit}
        return ctx, lines, metrics

    _window(workload, seconds / 3, None)
    untraced = _unit_time(workload.samples)
    tracer = ctx.tracer = tracing.Tracer()
    tracing.install(tracer)
    workload.samples = harness.Samples()
    workload.setup(keep=True)   # objects built before install may hold unwrapped names
    _window(workload, seconds * 2 / 3, tracer)
    traced = _unit_time(workload.samples)
    workload.verify()
    if workload.in_process:
        empty = tracing.empty_layers(tracer)
        ctx.tally.check(not empty, f"trace: no spans for {', '.join(empty)}")
    metrics = tracing.layer_metrics(tracer, traced / untraced - 1 if untraced else 0.0,
                                    [(m["name"], m["unit"]) for m in spec["per_layer"]])
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{name}-seed{seed}.tsv.gz"
    tracer.write(str(spans))
    lines.append(f"spans: {len(tracer.start)} written to {spans.relative_to(ROOT)}")
    lines += [f"  {k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    return ctx, lines, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "widgetspace" / "__init__.py").is_file():
        print(f"perfbench: no widgetspace sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import widgetspace
    if Path(widgetspace.__file__).resolve().parent != (src / "widgetspace").resolve():
        print(f"perfbench: imported widgetspace from {widgetspace.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    if args.workload not in _workloads():
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        ctx, lines, metrics = run(args.workload, args.seed, args.seconds,
                                  bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    tally = ctx.tally
    for note in tally.notes:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
