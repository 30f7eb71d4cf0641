"""cli: each operation is a fresh ``python -m widgetspace`` process.

This is the cost users feel. Most of it is interpreter start, imports and
the workspace import; every table load is cold and resolution is
negligible. Import-time work shows here; resolver or reader work should not.
"""

from __future__ import annotations

import random
import resource

import gen
from harness import Context, Samples, pct, verify_database
from oracle import UNINIT, dumps, fixture_model

SCRIPT = 4000       # more commands than a run can reach


class CliWorkload:
    name = "cli"
    needs = ("get", "set")  # sample kinds the report reads
    # Program calls happen in CLI children; a short run may not reach every
    # layer (no formatted value read yet), so a traced run does not require it.
    in_process = False

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.samples = Samples()

    def prepare(self) -> None:
        """The command script and the oracle's model, made once per run."""
        from widgetspace.fixtures import FIXTURE_NAMES, fixture_dir

        self.model = fixture_model()
        self.ops = gen.cli_ops(random.Random(self.ctx.seed), self.model, SCRIPT)
        self.ctx.write_input("cli-ops.tsv", gen.ops_file(self.ops))
        self.files = [str(fixture_dir() / name) for name in FIXTURE_NAMES]
        self.next = 0

    def setup(self, keep: bool) -> float:
        """Compile the fixture workspace with a ``schema load`` child; returns
        that command's seconds. With ``keep`` the units go on with this
        workspace and empty databases."""
        ctx = self.ctx
        home = ctx.fresh_dir("cli" if keep else "cli-setup")
        workspace = home / "workspace.json"
        code, out, err, seconds = ctx.cli(
            ["schema", "load", *self.files, "--workspace", str(workspace)],
            db=home / "unused", workspace=workspace)
        ctx.tally.check(code == 0 and out == "locales: 8, widgets: 17\n",
                        f"cli: schema load exited {code}: {out!r} {err!r}")
        if keep:
            self.home, self.workspace = home, workspace
            self.tables = [{} for _ in gen.CLI_LOCALES]  # one database per subject
        return seconds

    def unit(self) -> None:
        kind, subject, locale, name, index, medium, text = self.ops[self.next % len(self.ops)]
        self.next += 1
        model = self.model
        model.tables = self.tables[subject]
        db = self.home / f"subject-{subject}"
        if kind != "show":
            field = f"{name}.{index}" if model.storage(name, locale).index > 1 else name
        if kind == "set":
            args = ["set", "--locale", locale, "--field", field, "--medium", medium, text]
            value, message = model.set(name, locale, medium, text, index)
            expected = (1, "", message + "\n") if message else (0, dumps(value) + "\n", "")
        elif kind == "get":
            args = ["get", "--locale", locale, "--field", field, "--medium", medium]
            shown = model.get(name, locale, medium, index)
            expected = (0, ("#uninit" if shown is UNINIT else shown) + "\n", "")
        else:
            args = ["show", "--locale", locale, "--medium", medium]
            expected = (0, model.show(locale, medium), "")
        code, out, err, seconds = self.ctx.cli(args, db=db, workspace=self.workspace)
        self.samples.add(kind, seconds)
        self.samples.units.append(seconds)
        self.ctx.tally.check((code, out, err) == expected and self.ctx.no_lock(db),
                             lambda: f"cli: {args} gave {(code, out, err)}, "
                                     f"expected {expected}")

    def verify(self) -> None:
        for subject, tables in enumerate(self.tables):
            db = self.home / f"subject-{subject}"
            if db.exists():
                verify_database(self.ctx, db, tables, f"cli subject {subject}")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def report(self) -> tuple:
        """(named metrics, gated metrics, sample counts).

        Metrics map a name to (value, unit).
        """
        s = self.samples
        gets, sets, every = s.of("get"), s.of("set"), s.of("get", "set", "show")
        named = {
            "cli_get_ms_p50": (pct(gets, 50) * 1e3, "ms"),
            "cli_set_ms_p50": (pct(sets, 50) * 1e3, "ms"),
            "cli_ms_p90": (pct(every, 90) * 1e3, "ms"),
        }
        gated = {
            "read_ms_p50": named["cli_get_ms_p50"],
            "write_ms_p50": named["cli_set_ms_p50"],
        }
        counts = {"get": s.calls("get"), "set": s.calls("set"), "show": s.calls("show")}
        return named, gated, counts
