"""records: in-process and warm, over the fixtures plus a deeper locale tree.

Subjects live at the leaves of seeded county/city levels added under each
state, levels that declare no specs, so every lookup walks further. Per
subject: ``parse_and_set`` on every field (a fixed share of inputs is
invalid), one ``checkpoint``, then ``get_and_format`` for every field in
every medium. Resolution, validators, formatters/parsers and the in-memory
store dominate; the database stays loaded, so table parsing does not.
"""

from __future__ import annotations

import random
import resource
import time

import gen
from harness import Context, Samples, pct, verify_cli, verify_database
from oracle import MEDIA, UNINIT, fields_at, from_program

POOL = 2000          # subjects generated per seed; the run cycles through them


def timed(fn, *args):
    """(seconds, result, exception) of one call."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as e:  # the oracle decides whether this was expected
        return time.perf_counter() - t0, None, e
    return time.perf_counter() - t0, result, None


class RecordsWorkload:
    name = "records"
    needs = ("get", "set")  # sample kinds the report reads
    in_process = True       # a traced run must reach every traced layer

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.samples = Samples()

    def prepare(self) -> None:
        """Inputs and the oracle's model, made once per run and never timed."""
        from widgetspace import WidgetCoord
        from widgetspace.fixtures import FIXTURE_NAMES, fixture_dir

        ctx = self.ctx
        rng = random.Random(ctx.seed)
        ext_text, self.model, leaves = gen.fixture_with_extension(rng)
        self.pool = gen.subjects(rng, self.model, leaves, POOL)
        ext = ctx.write_input("records-locales.scm", ext_text)
        ctx.write_input("records-subjects.tsv", gen.subjects_file(self.pool))
        self.files = [fixture_dir() / name for name in FIXTURE_NAMES] + [ext]
        self.coord = WidgetCoord
        self.next = 0

    def setup(self, keep: bool) -> float:
        """Compile the schema files and open an empty database; returns the
        seconds those program calls took. With ``keep`` the units go on with
        what this set-up built; without, they keep their warm state."""
        from widgetspace import Database, WidgetRegistry

        ctx = self.ctx
        dbdir = ctx.fresh_dir("records-db" if keep else "records-db-setup")
        registry = WidgetRegistry()
        t0 = time.perf_counter()
        report = registry.load_schema_files(self.files)
        db = Database(dbdir)
        seconds = time.perf_counter() - t0
        ctx.tally.check((report.locales, report.widgets) == (len(self.model.parents), 17),
                        f"records: schema load reported {report.summary()}")
        if keep:
            self.registry, self.db, self.dbdir = registry, db, dbdir
            self.model.tables = {}
        return seconds

    def unit(self) -> None:
        from widgetspace.errors import ValidationError

        locale, inputs = self.pool[self.next % len(self.pool)]
        self.next += 1
        model, registry, db, coord_of = self.model, self.registry, self.db, self.coord
        # Coordinates are built first so the timed calls hold only program work.
        sets = [(coord_of(name, locale, "ls1100-entry", index), name, index, text)
                for name, index, text in inputs]
        gets = [(coord_of(name, locale, medium, index), name, index, medium)
                for name, index in fields_at(model, locale) for medium in MEDIA]
        check, add = self.ctx.tally.check, self.samples.add
        busy = 0.0
        for coord, name, index, text in sets:
            seconds, value, err = timed(registry.parse_and_set, db, coord, text)
            busy += seconds
            add("set", seconds)
            expected, message = model.set(name, locale, "ls1100-entry", text, index)
            if message is not None:
                ok = isinstance(err, ValidationError) and str(err) == message
            else:
                ok = err is None and from_program(value) == expected
            check(ok, lambda: f"records: set {name}.{index}@{locale} {text!r} gave "
                              f"{err or value!r}, expected {message or expected!r}")
        seconds, _, err = timed(db.checkpoint)
        busy += seconds
        add("checkpoint", seconds)
        check(err is None, lambda: f"records: checkpoint raised {err!r}")
        for coord, name, index, medium in gets:
            seconds, shown, err = timed(registry.get_and_format, db, coord)
            busy += seconds
            add("get", seconds)
            expected = model.get(name, locale, medium, index)
            ok = err is None and (from_program(shown) is UNINIT if expected is UNINIT
                                  else shown == expected)
            check(ok, lambda: f"records: get {coord} gave {err or shown!r}, "
                              f"expected {expected!r}")
        self.samples.units.append(busy)

    def verify(self) -> None:
        """The checkpointed database, then the CLI reading it through a workspace."""
        verify_database(self.ctx, self.dbdir, self.model.tables, "records")
        locale = self.pool[(self.next - 1) % len(self.pool)][0]
        verify_cli(self.ctx, "records", self.files, self.dbdir, self.model,
                   [("subject-name", locale, "ar-arrest"), ("dob", locale, "transmission"),
                    ("name-last", locale, "fbi-criminal-249")])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def report(self) -> tuple:
        s = self.samples
        gets, sets = s.of("get"), s.of("set")
        named = {
            "get_us_p50": (pct(gets, 50) * 1e6, "us"),
            "get_us_p90": (pct(gets, 90) * 1e6, "us"),
            "set_us_p50": (pct(sets, 50) * 1e6, "us"),
            "set_us_p90": (pct(sets, 90) * 1e6, "us"),
            "records_per_s": (len(s.units) / (sum(s.units) or 1), "1/s"),
            "checkpoint_ms_p50": (pct(s.of("checkpoint"), 50) * 1e3, "ms"),
        }
        gated = {
            "read_ms_p50": (pct(gets, 50) * 1e3, "ms"),
            "write_ms_p50": (pct(sets, 50) * 1e3, "ms"),
        }
        counts = {"get": s.calls("get"), "set": s.calls("set"), "record": len(s.units)}
        return named, gated, counts
