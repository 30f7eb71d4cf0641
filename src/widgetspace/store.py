"""Embedded persistent key-value store with typed absence.

A database is a directory; each table is one text file, ``<name>.tbl``.
Reads of absent keys return ``UNINITIALIZED`` rather than failing, and a
stored ``UNINITIALIZED`` is distinguishable from never-written via
``contains_key``. Writes stay in memory until ``checkpoint``, which
replaces each dirty table's file (temp file, fsync, rename) and then
fsyncs the directory once, so a crash can lose recent writes but never
corrupt what a previous checkpoint saved. A database commits one
checkpoint or restore at a time, and each writer's temp file is its own,
so threads that commit to one database never write one file at once; gets
and puts never wait for a commit's I/O.

Table file format: line one is ``(table <name>)``, then one ``(<key>
<datum>)`` pair per line, sorted by key, UTF-8, LF line endings. A table
file or dump is read with one pattern match per line (``_LINE_RE``). A
covered line, a pair under a canonical key that is not all digits whose
value is a string or a date spelled exactly as ``dumps`` writes it, is read
from the match's groups. Every other line is scanned into token spellings
without positions (``sexpr.tokenize``), and its value is read from them by
``datum.read_datum``. The byte offset of a fault is computed only when one
is found. A key spelled as a valid symbol, as the store writes every key,
is taken as it is spelled.

Keys and table names are kept in canonical spelling, so a lookup tries a
plain string as it is spelled and normalizes it only when that misses: a
loaded table is found with one probe of the database's table map, and a
stored key with one probe of the table; a write checks a new key with one
symbol match. Every get and put still takes its table's lock. A write checks
its value (``require_valid``) before it touches a table; that is the one
storability check of a table-backed ``parse_and_set``.

A stored value that is not a sequence and slot 1 of a stored sequence are
one slot, so that a widget whose ``:index`` changed between 1 and more
destroys nothing it stored. This module is the one owner of that rule:
``put`` of such a value where a sequence is stored replaces only its slot 1;
``get_indexed`` reads a stored single value as slot 1 and any slot that no
stored value reaches as ``UNINITIALIZED``; ``put_indexed`` makes a stored
single value slot 1 before it writes another slot, and with one slot stores
a value that is not a sequence, where none is stored, as it is. A
table-backed widget's plan calls ``get_indexed`` and ``put_indexed`` directly.
"""

from __future__ import annotations

import os
import re
import sys
import threading
from pathlib import Path

from .datum import UNINITIALIZED, Datum, SimpleDate, dumps, read_datum, require_valid
from .errors import CorruptTableError, IndexOutOfRangeError, StoreError
from . import sexpr
from .sexpr import (_STRING_BODY, _SYMBOL_RE, SexprError, TokenError, _at, classify,
                    expected, int_text, is_valid_symbol, normalize_symbol, position,
                    read_source, unquote)

_SUFFIX = ".tbl"
_SURROGATE = re.compile("[\ud800-\udfff]")


class _Table:
    __slots__ = ("name", "entries", "dirty", "version", "lock")

    def __init__(self, name: str, entries: dict[str, Datum] | None = None):
        self.name = name
        self.entries: dict[str, Datum] = entries if entries is not None else {}
        self.dirty = False
        self.version = 0
        self.lock = threading.Lock()


def _filename(table: str) -> str:
    """The file of a table: its canonical name, which is a valid symbol, and ``.tbl``."""
    return table + _SUFFIX


def _valid_key(key: str) -> str:
    """Normalized key, rejected unless it can round-trip through a table file.

    For a key that is not already a canonical ``str``; callers accept one that
    is with a single ``_SYMBOL_RE.match``.
    """
    key = _lookup_key(key)
    if not is_valid_symbol(key):
        raise StoreError(f"invalid key {key!r}")
    return key


def _lookup_key(key: str) -> str:
    """Normalized key; StoreError unless ``key`` is a string."""
    if not isinstance(key, str):
        raise StoreError(f"invalid key {key!r}")
    return normalize_symbol(key)


class Database:
    """One directory of table files. Operations are linearizable per table."""

    def __init__(self, root: str | Path):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._tables: dict[str, _Table] = {}
        self._lock = threading.Lock()
        self._commit = threading.Lock()  # held by checkpoint and restore_text

    @property
    def root(self) -> Path:
        return self._root

    def get(self, table: str, key: str) -> Datum:
        """The value stored under (table, key); UNINITIALIZED when absent."""
        t = self._tables.get(table) if type(table) is str else None
        if t is None:
            t = self._table(table)
        lock, entries = t.lock, t.entries
        lock.acquire()
        try:
            if type(key) is not str or key not in entries:
                key = _lookup_key(key)
            return entries.get(key, UNINITIALIZED)
        finally:
            lock.release()

    def contains_key(self, table: str, key: str) -> bool:
        """True iff a value (possibly UNINITIALIZED itself) was stored."""
        t = self._tables.get(table) if type(table) is str else None
        if t is None:
            t = self._table(table)
        lock, entries = t.lock, t.entries
        lock.acquire()
        try:
            return (type(key) is str and key in entries) or _lookup_key(key) in entries
        finally:
            lock.release()

    def put(self, table: str, key: str, value: Datum) -> None:
        """Store ``value`` under (table, key).

        A value that is not a sequence, put where a sequence is stored,
        replaces only the sequence's slot 1: the value of a widget of one slot
        and slot 1 of an indexed widget are one slot, so a write under a changed
        ``:index`` destroys no other slot.
        """
        require_valid(value)
        t = self._tables.get(table) if type(table) is str else None
        if t is None:
            t = self._table(table)
        if type(key) is not str or (key not in t.entries and _SYMBOL_RE.match(key) is None):
            key = _valid_key(key)  # a stored key is canonical: it was checked as it came in
        lock, entries = t.lock, t.entries
        lock.acquire()
        try:
            current = entries.get(key)
            if type(current) is tuple and type(value) is not tuple:
                value = (value,) + current[1:]
            entries[key] = value
            t.dirty = True
            t.version += 1
        finally:
            lock.release()

    def get_indexed(self, table: str, key: str, index: int) -> Datum:
        """Slot ``index`` (1-based) of the value under (table, key): a stored value
        that is not a sequence is slot 1, and a slot none reaches is UNINITIALIZED."""
        if type(index) is not int or index < 1:
            check_index(index)
        t = self._tables.get(table) if type(table) is str else None
        if t is None:
            t = self._table(table)
        lock, entries = t.lock, t.entries
        lock.acquire()
        try:
            if type(key) is not str or key not in entries:
                key = _lookup_key(key)
            value = entries.get(key, UNINITIALIZED)
        finally:
            lock.release()
        if type(value) is tuple:
            return value[index - 1] if index <= len(value) else UNINITIALIZED
        return value if index == 1 else UNINITIALIZED

    def put_indexed(self, table: str, key: str, index: int, value: Datum,
                    max_index: int) -> None:
        """Write slot ``index``, padding with UNINITIALIZED to ``max_index`` slots;
        a stored value that is not a sequence is made slot 1 first. With one
        slot, a value that is not a sequence, written where none is stored, is
        stored as it is, as ``put`` stores it."""
        if type(index) is not int or type(max_index) is not int or not 1 <= index <= max_index:
            if isinstance(max_index, bool) or not isinstance(max_index, int) or max_index < 1:
                raise ValueError(f"max_index must be an integer >= 1, got {_shown(max_index)}")
            check_index(index, max_index)
        require_valid(value)
        t = self._tables.get(table) if type(table) is str else None
        if t is None:
            t = self._table(table)
        if type(key) is not str or (key not in t.entries and _SYMBOL_RE.match(key) is None):
            key = _valid_key(key)  # a stored key is canonical: it was checked as it came in
        lock, entries = t.lock, t.entries
        lock.acquire()
        try:
            current = entries.get(key, UNINITIALIZED)
            if max_index > 1 or type(current) is tuple or type(value) is tuple:
                slots = list(current) if type(current) is tuple else [current]
                slots += [UNINITIALIZED] * (max_index - len(slots))
                slots[index - 1] = value
                value = tuple(slots)
            entries[key] = value
            t.dirty = True
            t.version += 1
        finally:
            lock.release()

    def checkpoint(self) -> None:
        """Flush every dirty table atomically. Dirtiness survives I/O failure.

        A table is marked clean only once the one directory fsync after the
        last rename has made its new file durable.
        """
        with self._commit:
            with self._lock:
                tables = list(self._tables.values())
            written = []
            for t in tables:
                with t.lock:
                    if not t.dirty:
                        continue
                    version = t.version
                    text = _render_table(t.name, t.entries)
                self._write_file(_filename(t.name), text)
                written.append((t, version))
            if not written:
                return
            _fsync_dir(self._root)
            for t, version in written:
                with t.lock:
                    if t.version == version:
                        t.dirty = False

    def table_names(self) -> list[str]:
        """Tables written in memory or on disk, sorted; a file is one only if its
        stem is a canonical name, the one spelling ``_table`` reads it by."""
        names = {p.stem for p in self._root.glob("*" + _SUFFIX) if is_valid_symbol(p.stem)}
        with self._lock:
            names.update(name for name, t in self._tables.items() if t.entries)
        return sorted(names)

    def items(self, table: str) -> list[tuple[str, Datum]]:
        t = self._table(table)
        with t.lock:
            return sorted(t.entries.items())

    def is_empty(self) -> bool:
        """No table in memory and no ``.tbl`` file on disk, named as a table or not."""
        return not self.table_names() and not any(self._root.glob("*" + _SUFFIX))

    def dump_text(self) -> str:
        """The whole database in the table file format, tables sorted by name."""
        return "".join(_render_table(name, dict(self.items(name)))
                       for name in self.table_names())

    def restore_text(self, text: str, filename: str = "<dump>") -> None:
        """Replace the whole database with a dump's tables, durably.

        Parses the whole dump, then writes every dumped table before it unlinks
        the others: a failure leaves each table old or new, none missing. Text
        that no file can hold (a lone surrogate) is corrupt, like a bad line.
        """
        tables = _parse_tables(text, filename)
        bad = _SURROGATE.search(text)
        if bad is not None:
            raise CorruptTableError(f"surrogate {bad.group()!r} is not storable text",
                                    filename=filename, offset=_at(text, bad.start())[0])
        with self._commit:
            with self._lock:
                self._tables = {}  # so that after a failure below, reads go to the disk
            for name, entries in tables.items():
                self._write_file(_filename(name), _render_table(name, entries))
            keep = {_filename(name) for name in tables}
            for path in self._root.glob("*" + _SUFFIX):
                if path.name not in keep:
                    os.unlink(path)
            _fsync_dir(self._root)
            with self._lock:
                self._tables = {name: _Table(name, entries) for name, entries in tables.items()}

    # -- internals -----------------------------------------------------

    def _table(self, name: str) -> _Table:
        """The table ``name``, loaded on first use.

        Tables are keyed by canonical, valid names only. The get and put
        paths first probe ``self._tables`` for a plain ``str`` as spelled and
        come here on a miss; a str subclass is always normalized here first,
        whatever is loaded already.
        """
        if not isinstance(name, str):
            raise StoreError(f"invalid table name {name!r}")
        name = normalize_symbol(name)
        if not is_valid_symbol(name):
            raise StoreError(f"invalid table name {name!r}")
        with self._lock:
            t = self._tables.get(name)
            if t is None:
                t = self._load_table(name)
                self._tables[name] = t
            return t

    def _load_table(self, name: str) -> _Table:
        path = self._root / _filename(name)
        if not path.exists():
            return _Table(name)
        text = read_text(path, path.name)
        tables = _parse_tables(text, path.name)
        if list(tables) != [name]:
            raise CorruptTableError(
                f"file declares table {list(tables)!r}, expected '{name}'",
                filename=path.name, offset=0)
        return _Table(name, tables[name])

    def _write_file(self, filename: str, text: str) -> None:
        _replace(self._root / filename, text)


def check_index(index: int, max_index: int | None = None) -> None:
    """IndexOutOfRangeError unless ``index`` is an int, and not a bool, from 1
    to ``max_index``, or from 1 up where no bound is given."""
    if (isinstance(index, int) and not isinstance(index, bool) and index >= 1
            and (max_index is None or index <= max_index)):
        return
    if max_index is None:
        raise IndexOutOfRangeError(f"index must be an integer >= 1, got {_shown(index)}")
    raise IndexOutOfRangeError(
        f"index {_shown(index, str)} out of range [1, {_shown(max_index, str)}]")


def _shown(value: object, spell=repr) -> str:
    """``spell(value)``, but an integer of any length as its digits (``int_text``)."""
    return int_text(value) if type(value) is int else spell(value)


def read_text(path: str | os.PathLike, filename: str | None = None) -> str:
    """A table file or dump as text, with newlines as ``Path.read_text`` reads them.

    Bytes that are not UTF-8 raise CorruptTableError at the first bad byte's offset.
    """
    try:
        return read_source(path)
    except SexprError as e:
        raise CorruptTableError(str(e), filename=filename or str(path), offset=e.offset) from None


def replace_file(path: str | os.PathLike, text: str) -> None:
    """The one way to replace a file: temp file beside it, fsync, rename, fsync the directory.

    A symlink keeps its link. A target that is this process's standard output
    (``dump /dev/stdout >> log``) or an existing non-regular file (a pipe) is
    written in place.
    """
    if _is_stdout(path):
        sys.stdout.flush()
        with open(1, "w", encoding="utf-8", newline="", closefd=False) as fh:
            fh.write(text)
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return
    _fsync_dir(_replace(path, text).parent)


def _is_stdout(path: str | os.PathLike) -> bool:
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


def _replace(path: str | os.PathLike, text: str) -> Path:
    """Write ``text`` to a temp file beside ``path``, fsync it and rename it over
    the file ``path`` resolves to; the caller fsyncs that file's directory.
    The temp file's name holds the process and thread ids, so no two writers
    share it."""
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def _fsync_dir(directory: Path) -> None:
    """Make the renames and unlinks done in ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _render_table(name: str, entries: dict[str, Datum]) -> str:
    return "".join([f"(table {name})\n"]
                   + [f"({key} {dumps(entries[key])})\n" for key in sorted(entries)])


# One line of table text, up to its newline. A pair as ``dumps`` writes a
# string or a date under a canonical key that is not all digits is covered:
# group 1 is the key, group 2 the string token, or groups 3-5 the date's year,
# month and day. Group 6 is any other line, which is read token by token.
_LINE_RE = re.compile(
    rf'(?:\(((?![0-9]+ )[a-z0-9][a-z0-9_-]*) (?:("{_STRING_BODY}")'
    r"|\(date ([0-9]{1,4}) (1[0-2]|[1-9]) (3[01]|[12][0-9]|[1-9])\))\)|([^\n]*))\n")


def _parse_tables(text: str, filename: str) -> dict[str, dict[str, Datum]]:
    """Parse one or more concatenated table sections. Line-oriented.

    One match of ``_LINE_RE`` per line reads a covered line's value from its
    groups; every other line is read as position-free tokens. A fault is
    placed on its line only once it is found.
    """
    tables: dict[str, dict[str, Datum]] = {}
    current: dict[str, Datum] | None = None

    def corrupt(message: str, at: int = 0) -> CorruptTableError:
        # ``at`` bytes into line ``n``; a fault of the whole line is at its start
        start = len(text) - len(text.split("\n", n)[-1])
        return CorruptTableError(message, filename=filename, offset=_at(text, start)[0] + at)

    for n, (key, string, year, month, day, line) in enumerate(_LINE_RE.findall(text + "\n")):
        if key and current is not None and key not in current:
            if string:
                current[key] = unquote(string)
            else:
                current[key] = SimpleDate(int(year), int(month), int(day))
            continue
        if key:  # a covered line before any header, or a duplicate key: it fails below
            line = text.split("\n", n + 1)[n]
        if line.strip(" \t\r\n"):  # the whitespace the tokenizer skips
            try:
                # sexpr.tokenize is looked up at each call so that it can be wrapped
                tokens = sexpr.tokenize(line)
                # a header has exactly the shape '(table <symbol>)'; any other
                # line, a pair whose key is 'table' too, is read as a pair
                name = None
                if (len(tokens) == 4 and tokens[1] == "table" and tokens[0] == "("
                        and tokens[3] == ")"):
                    # a string or integer never normalizes to a valid symbol
                    name = normalize_symbol(tokens[2])
                    if not is_valid_symbol(name):
                        name = None
                if name is not None:
                    if name in tables:
                        raise corrupt(f"table '{name}' declared twice")
                    current = tables[name] = {}
                else:
                    if current is None:
                        raise corrupt("missing (table ...) header")
                    key, value = _parse_pair(tokens)
                    if key in current:
                        raise corrupt(f"duplicate key '{key}'")
                    current[key] = value
            except SexprError as e:
                raise corrupt(str(e), e.offset) from None
            except TokenError as e:
                raise corrupt(str(e), position(line, e.index)[0]) from None
    return tables


def _parse_pair(tokens: list[str]) -> tuple[str, Datum]:
    if not tokens or tokens[0] != "(":
        raise expected(tokens, 0, "'('")
    if len(tokens) == 1:
        raise expected(tokens, 1, "a key symbol")
    key = tokens[1]
    if _SYMBOL_RE.match(key) is None:  # a valid symbol is already canonical
        key = normalize_symbol(key)
        if not is_valid_symbol(key):  # as a string or an integer never is
            if classify(tokens[1], 1)[0] != "atom":
                raise expected(tokens, 1, "a key symbol")
            raise TokenError(f"invalid key '{key}'", 1)
    value, i = read_datum(tokens, 2)
    if i == len(tokens) or tokens[i] != ")":
        raise expected(tokens, i, "')'")
    if i + 1 < len(tokens):
        raise TokenError("trailing content after entry", i + 1)
    return key, value
