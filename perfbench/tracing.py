"""Spans and counters recorded around calls into widgetspace's modules.

``install`` replaces public functions and methods with wrappers that open a
span on entry and close it on exit. A wrapped function is replaced in every
widgetspace module namespace that imported it (``store.dumps`` as well as
``datum.dumps``). Spans live in memory as parallel arrays (name, start,
end, parent, op id) and are written out once the run ends. A span's self
time is its duration minus the time covered by its child spans.

This module imports nothing from widgetspace at import time, so the traced
CLI child can time ``import widgetspace.cli`` after loading it.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from array import array
from collections import Counter

from oracle import dumps, from_program

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.kind = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.ops = array("i")
        self.op = 0                  # id of the workload operation under way
        self.counts: Counter = Counter()
        self.table_parse_depth = 0   # >0 while the store parses table text
        self._stack: list = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> int:
        i = len(self.start)
        self.kind.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(_now())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = _now()
        self._stack.pop()

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def add(self, name: str, start: int, end: int, parent: int) -> int:
        i = len(self.start)
        self.kind.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.ops.append(self.op)
        return i

    # -- moving spans between processes and to disk --

    def to_json(self) -> dict:
        return {"spans": [[self.names[k], s, e, p] for k, s, e, p in
                          zip(self.kind, self.start, self.end, self.parent)],
                "counts": dict(self.counts)}

    def merge(self, data: dict, parent: int) -> None:
        """Adopt a child process's spans under the span ``parent``."""
        base = len(self.start)
        for name, start, end, p in data["spans"]:
            self.add(name, start, end, base + p if p >= 0 else parent)
        self.counts.update(data["counts"])

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for k, s, e, p, o in zip(self.kind, self.start, self.end, self.parent,
                                     self.ops):
                fh.write(f"{self.names[k]}\t{s}\t{e}\t{p}\t{o}\n")


def _wrap(tracer: Tracer, name: str, fn):
    tracer._id(name)
    def wrapper(*args, **kwargs):
        i = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(i)
    wrapper.__wrapped__ = fn
    return wrapper


def _replace_everywhere(original, replacement) -> None:
    for modname, module in list(sys.modules.items()):
        if modname == "widgetspace" or modname.startswith("widgetspace."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class _CountingOs:
    """Stands in for ``os`` inside widgetspace modules; counts fsync calls."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        self._tracer.counts["store.fsyncs"] += 1
        return os.fsync(fd)


def install(tracer: Tracer) -> None:
    """Wrap widgetspace's layer entry points. Call before building registries."""
    import widgetspace.cli  # noqa: F401  (load every module that may hold a name)
    from widgetspace import datum, locales, registry, sexpr, store, textio, validators
    from widgetspace.errors import ValidationError

    counts = tracer.counts

    formatters = _prefixed(textio, "format_")
    parsers = _prefixed(textio, "parse_")
    for module, attr, name in ([(sexpr, "tokenize", "sexpr.tokenize"),
                                (datum, "dumps", "datum.dumps"),
                                (datum, "read_datum", "datum.read_datum")]
                               + [(textio, a, "textio.format") for a in formatters]
                               + [(textio, a, "textio.parse") for a in parsers]):
        original = getattr(module, attr)
        wrapped = _wrap(tracer, name, original)
        if name == "sexpr.tokenize":
            wrapped = _counting_tokenize(tracer, wrapped)
        _replace_everywhere(original, wrapped)

    plain = [(registry.WidgetRegistry, "get_and_format", "registry.get_and_format"),
             (registry.WidgetRegistry, "parse_and_set", "registry.parse_and_set"),
             (registry.WidgetRegistry, "import_state", "registry.import_state"),
             (registry.WidgetRegistry, "load_schema", "registry.load_schema"),
             (registry.WidgetRegistry, "load_schema_files", "registry.load_schema"),
             (store.Database, "get", "store.get"),
             (store.Database, "get_indexed", "store.get"),
             (store.Database, "dump_text", "store.dump_text")]
    plain += [(registry.WidgetRegistry, a, "registry.resolve")
              for a in _prefixed(registry.WidgetRegistry, "resolve_")]
    for cls, attr, name in plain:
        setattr(cls, attr, _wrap(tracer, name, getattr(cls, attr)))

    resolve = locales.LocaleTree.resolve

    def locale_resolve(self, start, probe, *args, **kwargs):
        def counted(loc):
            counts["locales.probes"] += 1
            return probe(loc)
        i = tracer.begin("locales.resolve")
        try:
            return resolve(self, start, counted, *args, **kwargs)
        finally:
            tracer.finish(i)
    locales.LocaleTree.resolve = locale_resolve

    validate = validators.ValidatorRegistry.validate
    validate_id = tracer._id("validators.validate")

    def traced_validate(self, expr, ctx, text):
        parent = tracer.current()
        top = parent < 0 or tracer.kind[parent] != validate_id
        i = tracer.begin("validators.validate")
        try:
            return validate(self, expr, ctx, text)
        except ValidationError:
            if top:
                counts["validators.rejects"] += 1
            raise
        finally:
            tracer.finish(i)
            if top:
                counts["validators.top_calls"] += 1
    validators.ValidatorRegistry.validate = traced_validate

    _install_store(tracer, store)
    for name in ("locales.resolve", "store.put", "store.checkpoint", "store.restore_text",
                 "store.open"):
        tracer._id(name)


def empty_layers(tracer: Tracer) -> list:
    """Span names installed or merged that no call opened: a layer the
    program stopped reaching through the wrapped names, which would
    otherwise report 0."""
    seen = set(tracer.kind)
    return [name for i, name in enumerate(tracer.names) if i not in seen]


def _prefixed(namespace, prefix: str) -> list:
    """Names in ``namespace`` that start with ``prefix``; there must be some,
    or the layer they stand for would silently report nothing."""
    names = [a for a in vars(namespace) if a.startswith(prefix)]
    if not names:
        raise AttributeError(f"{namespace.__name__} has no {prefix}* functions to trace")
    return names


def _counting_tokenize(tracer: Tracer, wrapped):
    counts = tracer.counts

    def tokenize(text):
        counts["sexpr.bytes"] += len(text.encode("utf-8"))
        if tracer.table_parse_depth:
            counts["sexpr.table_calls"] += 1
        return wrapped(text)
    tokenize.__wrapped__ = wrapped
    return tokenize


def _install_store(tracer: Tracer, store) -> None:
    counts = tracer.counts
    db_cls = store.Database
    pending: dict = {}   # (db id, table, key[, index]) -> new datum

    put, put_indexed = db_cls.put, db_cls.put_indexed

    def traced_put(self, table, key, value):
        pending[(id(self), table, key)] = value
        i = tracer.begin("store.put")
        try:
            return put(self, table, key, value)
        finally:
            tracer.finish(i)

    def traced_put_indexed(self, table, key, index, value, max_index):
        pending[(id(self), table, key, index)] = value
        i = tracer.begin("store.put")
        try:
            return put_indexed(self, table, key, index, value, max_index)
        finally:
            tracer.finish(i)

    checkpoint = db_cls.checkpoint

    def traced_checkpoint(self):
        # Measured outside the span: the text of every datum changed since
        # the last checkpoint, in the oracle's spelling.
        mine = [k for k in pending if k[0] == id(self)]
        counts["store.changed_bytes"] += sum(len(dumps(from_program(pending.pop(k))))
                                             for k in mine)
        written = counts["store.written_bytes"]
        i = tracer.begin("store.checkpoint")
        try:
            return checkpoint(self)
        finally:
            tracer.finish(i)
            if counts["store.written_bytes"] > written:
                counts["store.commits"] += 1  # a checkpoint that wrote something

    restore_text = db_cls.restore_text

    def traced_restore_text(self, text, *args, **kwargs):
        for line in text.split("\n"):
            if line.strip():
                counts["store.table_lines"] += 1
                if not line.startswith("(table "):
                    counts["store.changed_bytes"] += len(line) - len(line.split(" ", 1)[0]) - 2
        tracer.table_parse_depth += 1
        i = tracer.begin("store.restore_text")
        try:
            return restore_text(self, text, *args, **kwargs)
        finally:
            tracer.finish(i)
            tracer.table_parse_depth -= 1

    # Cold table loads and file writes go through private helpers; they
    # are the only places the store touches table files. A missing helper
    # raises here rather than leaving the store layers reporting 0.
    load_table = db_cls._load_table

    def traced_load_table(self, name):
        path = self.root / f"{name}.tbl"
        if not path.exists():
            return load_table(self, name)
        counts["store.open_bytes"] += path.stat().st_size
        tracer.table_parse_depth += 1
        i = tracer.begin("store.open")
        try:
            table = load_table(self, name)
        finally:
            tracer.finish(i)
            tracer.table_parse_depth -= 1
        counts["store.table_lines"] += len(table.entries) + 1
        return table

    write_file = db_cls._write_file

    def traced_write_file(self, filename, text):
        counts["store.written_bytes"] += len(text.encode("utf-8"))
        return write_file(self, filename, text)

    db_cls.put, db_cls.put_indexed = traced_put, traced_put_indexed
    db_cls.checkpoint = traced_checkpoint
    db_cls.restore_text = traced_restore_text
    db_cls._load_table = traced_load_table
    db_cls._write_file = traced_write_file
    store.os = _CountingOs(tracer)


# -- per-layer metrics -------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float, wanted: list) -> dict:
    """The per-layer metrics ``wanted`` ((name, unit) pairs, as BENCHMARK.json
    lists them) over every span recorded.

    ``X.ms`` is the mean duration of one call; ``X.self_ms`` is the total
    self time in milliseconds; ``calls`` count spans.
    """
    n = len(tracer.start)
    dur = array("q", (e - s for s, e in zip(tracer.start, tracer.end)))
    covered = array("q", bytes(8 * n))
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            covered[p] += dur[i]
    k = len(tracer.names)
    calls, total, self_ns = [0] * k, [0] * k, [0] * k
    for i, kind in enumerate(tracer.kind):
        calls[kind] += 1
        total[kind] += dur[i]
        self_ns[kind] += dur[i] - covered[i]
    ids = tracer._ids
    fused = {ids.get("registry.get_and_format"), ids.get("registry.parse_and_set")} - {None}
    resolve_id = ids.get("registry.resolve")
    resolve_in_ops = sum(1 for i, kind in enumerate(tracer.kind)
                         if kind == resolve_id and tracer.parent[i] >= 0
                         and tracer.kind[tracer.parent[i]] in fused)

    def count(name):
        return calls[ids[name]] if name in ids else 0

    def mean_ms(name):
        return _ratio(total[ids[name]], calls[ids[name]]) / 1e6 if name in ids else 0.0

    def self_ms(name):
        return self_ns[ids[name]] / 1e6 if name in ids else 0.0

    c = tracer.counts
    open_s = total[ids["store.open"]] / 1e9 if "store.open" in ids else 0.0
    tokenize_s = self_ms("sexpr.tokenize") / 1e3
    values = {
        "cli.interp_ms": mean_ms("cli.interp"),
        "cli.import_ms": mean_ms("cli.import"),
        "cli.main_ms": mean_ms("cli.main"),
        "registry.import_state.ms": mean_ms("registry.import_state"),
        "registry.load_schema.ms": mean_ms("registry.load_schema"),
        "registry.get_and_format.ms": mean_ms("registry.get_and_format"),
        "registry.parse_and_set.ms": mean_ms("registry.parse_and_set"),
        "registry.resolve.calls": count("registry.resolve"),
        "registry.resolve.self_ms": self_ms("registry.resolve"),
        "registry.resolve.calls_per_op": _ratio(
            resolve_in_ops,
            count("registry.get_and_format") + count("registry.parse_and_set")),
        "locales.resolve.calls": count("locales.resolve"),
        "locales.probes_per_resolve": _ratio(c["locales.probes"],
                                             count("locales.resolve")),
        "validators.validate.nodes": count("validators.validate"),
        "validators.validate.self_ms": self_ms("validators.validate"),
        "validators.reject_frac": _ratio(c["validators.rejects"],
                                         c["validators.top_calls"]),
        "textio.format.self_ms": self_ms("textio.format"),
        "textio.parse.self_ms": self_ms("textio.parse"),
        "store.get.self_ms": self_ms("store.get"),
        "store.put.self_ms": self_ms("store.put"),
        "store.open.ms": mean_ms("store.open"),
        "store.open.kib_per_s": _ratio(c["store.open_bytes"] / 1024, open_s),
        "store.checkpoint.ms": mean_ms("store.checkpoint"),
        "store.checkpoint.bytes_per_commit": _ratio(c["store.written_bytes"],
                                                    c["store.commits"]),
        "store.write_amp": _ratio(c["store.written_bytes"], c["store.changed_bytes"]),
        "store.fsyncs_per_commit": _ratio(c["store.fsyncs"], c["store.commits"]),
        "store.dump_text.ms": mean_ms("store.dump_text"),
        "store.restore_text.ms": mean_ms("store.restore_text"),
        "sexpr.tokenize.calls": count("sexpr.tokenize"),
        "sexpr.tokenize.calls_per_line": _ratio(c["sexpr.table_calls"],
                                                c["store.table_lines"]),
        "sexpr.tokenize.self_ms": self_ms("sexpr.tokenize"),
        "sexpr.tokenize.kib_per_s": _ratio(c["sexpr.bytes"] / 1024, tokenize_s),
        "datum.dumps.self_ms": self_ms("datum.dumps"),
        "datum.read_datum.self_ms": self_ms("datum.read_datum"),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in wanted}


def load_child(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None
