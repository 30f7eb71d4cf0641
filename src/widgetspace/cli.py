"""Command-line surface.

Subcommands: ``schema load``, ``schema lint``, ``locales``, ``set``,
``get``, ``show``, ``gen``, ``dump``, ``restore``. Exit codes: 0 success,
1 validation failure, 2 schema or resolution error, 3 I/O, corruption,
or lock contention, 4 usage error, 5 internal error (a fault of the
program, reported as one line with the exception's type).

``schema load`` compiles sources into a workspace file so later commands
need no schema arguments. The workspace is a pure cache: deleting it and
re-loading the same sources reproduces identical behavior. One process
at a time may touch a database directory, enforced by an ``flock`` on it.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .datum import dumps, is_uninitialized
from .errors import (DatabaseLockedError, MalformedEncodingError, ParseError,
                     ResolutionError, SchemaError, StoreError, ValidationError)
from .registry import WidgetCoord, WidgetRegistry
from .sexpr import TokenError, read_int
from .store import Database, read_text, replace_file

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SCHEMA = 2
EXIT_IO = 3
EXIT_USAGE = 4
EXIT_INTERNAL = 5

ENV_DB = "WIDGETSPACE_DB"
ENV_WORKSPACE = "WIDGETSPACE_WORKSPACE"
DEFAULT_WORKSPACE = "widgetspace.ws"


class _UsageFault(Exception):
    """A post-parse usage problem (missing --db, bad field syntax, ...)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.handler(args)
    except _UsageFault as e:
        _print_error(e)
        return EXIT_USAGE
    except ValidationError as e:
        _print_error(e, prefix="")
        return EXIT_VALIDATION
    except (SchemaError, ParseError) as e:
        _print_error(e)
        return EXIT_SCHEMA
    except (StoreError, MalformedEncodingError, OSError) as e:
        _print_error(e)
        return EXIT_IO
    except Exception as e:  # a fault of the program: one line, never exit 1
        _print_error(f"internal error: {type(e).__name__}: {e}")
        return EXIT_INTERNAL


def _print_error(e: Exception | str, prefix: str = "error: ") -> None:
    """One line on stderr: unprintable characters appear as their escapes."""
    text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(e))
    print(f"{prefix}{text}", file=sys.stderr)


def entry():
    sys.exit(main())


# -- argument plumbing ---------------------------------------------------


def field_spec(text: str):
    """Parse 'name' or 'name.index' into (name, index)."""
    name, sep, idx = text.partition(".")
    if not name:
        raise argparse.ArgumentTypeError(f"empty field name in {text!r}")
    if not sep:
        return name, 1
    if not (idx.isascii() and idx.isdigit()) or int(idx) < 1:
        raise argparse.ArgumentTypeError(
            f"field index must be a positive integer, got {text!r}")
    return name, int(idx)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="widgetspace",
        description="Jurisdiction-aware structured records: define, validate, "
                    "store, and render them.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    schema = sub.add_parser("schema", help="load or lint schema sources")
    schema_sub = schema.add_subparsers(dest="action", required=True, metavar="action")

    load = schema_sub.add_parser("load", help="compile sources into a workspace")
    load.add_argument("files", nargs="+", metavar="FILE")
    load.add_argument("--workspace", help="workspace file to write")
    load.add_argument("--check-only", action="store_true",
                      help="validate and report without writing the workspace")
    load.set_defaults(handler=cmd_schema_load)

    lint = schema_sub.add_parser("lint", help="check sources and surface warnings")
    lint.add_argument("files", nargs="+", metavar="FILE")
    lint.set_defaults(handler=cmd_schema_lint)

    locales = sub.add_parser("locales", help="list the locale tree")
    locales.add_argument("--workspace", help="workspace file to read")
    locales.add_argument("--tree", action="store_true",
                         help="indent children under their parents")
    locales.set_defaults(handler=cmd_locales)

    set_p = sub.add_parser("set", help="validate, parse, and store one field")
    _common_data_flags(set_p, medium=True)
    set_p.add_argument("value", metavar="VALUE")
    set_p.set_defaults(handler=cmd_set)

    get_p = sub.add_parser("get", help="read and format one field")
    _common_data_flags(get_p, medium=True)
    get_p.set_defaults(handler=cmd_get)

    show = sub.add_parser("show", help="render every widget visible at a locale")
    show.add_argument("--workspace", help="workspace file to read")
    show.add_argument("--db", help=f"database directory (default ${ENV_DB})")
    show.add_argument("--locale", required=True)
    show.add_argument("--medium", required=True)
    show.set_defaults(handler=cmd_show)

    gen = sub.add_parser("gen", help="produce seeded random input for a field")
    gen.add_argument("--workspace", help="workspace file to read")
    gen.add_argument("--locale", required=True)
    gen.add_argument("--field", required=True, type=field_spec)
    gen.add_argument("--medium", required=True)
    gen.add_argument("--seed", required=True, type=int)
    gen.set_defaults(handler=cmd_gen)

    dump = sub.add_parser("dump", help="export the whole database to one file")
    dump.add_argument("--db", help=f"database directory (default ${ENV_DB})")
    dump.add_argument("out", metavar="OUT")
    dump.set_defaults(handler=cmd_dump)

    restore = sub.add_parser("restore", help="import a dump into a database")
    restore.add_argument("--db", help=f"database directory (default ${ENV_DB})")
    restore.add_argument("--force", action="store_true",
                         help="replace a non-empty database")
    restore.add_argument("input", metavar="IN")
    restore.set_defaults(handler=cmd_restore)

    return parser


def _common_data_flags(p: argparse.ArgumentParser, *, medium: bool) -> None:
    p.add_argument("--workspace", help="workspace file to read")
    p.add_argument("--db", help=f"database directory (default ${ENV_DB})")
    p.add_argument("--locale", required=True)
    p.add_argument("--field", required=True, type=field_spec,
                   help="field name, optionally with .index (alias.2)")
    if medium:
        p.add_argument("--medium", required=True)


def _workspace_path(args) -> Path:
    if getattr(args, "workspace", None):
        return Path(args.workspace)
    env = os.environ.get(ENV_WORKSPACE)
    return Path(env) if env else Path(DEFAULT_WORKSPACE)


def _db_path(args) -> Path:
    if getattr(args, "db", None):
        return Path(args.db)
    env = os.environ.get(ENV_DB)
    if not env:
        raise _UsageFault(f"no database directory: pass --db or set ${ENV_DB}")
    return Path(env)


def _load_workspace(args) -> WidgetRegistry:
    path = _workspace_path(args)
    if not path.exists():
        raise SchemaError(
            f"no schema workspace at '{path}' (run 'widgetspace schema load' first)")
    try:
        data = _workspace_data(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError, TokenError) as e:
        raise SchemaError(f"workspace '{path}' is unreadable: {e}") from None
    if not isinstance(data, dict) or data.get("version") != 1 or "state" not in data:
        raise SchemaError(f"workspace '{path}' has an unsupported layout")
    registry = WidgetRegistry()
    registry.import_state(data["state"])
    return registry


def _workspace_data(text: str):
    """``text`` decoded as JSON, whatever the interpreter's conversion limit.

    Only an integer past the limit makes ``json.loads`` raise a ``ValueError``
    that is not a ``JSONDecodeError``; then the text is decoded again with
    each integer read by ``sexpr.read_int``.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        return json.loads(text, parse_int=lambda digits: read_int(digits, 0))


def _workspace_json(payload: dict) -> str:
    """``payload`` as workspace JSON, whatever the interpreter's conversion limit.

    Schema text allows integers of up to ``sexpr.MAX_INT_DIGITS`` digits, and
    ``json`` writes them with ``int.__repr__``, so the limit is lifted while
    it writes. The limit is process-wide; a command runs in one thread.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
        return json.dumps(payload, indent=1)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(payload, indent=1)
    finally:
        sys.set_int_max_str_digits(limit)


@contextmanager
def _locked_db(args):
    root = _db_path(args)
    root.mkdir(parents=True, exist_ok=True)
    fd = os.open(root, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise DatabaseLockedError(f"database at '{root}' is in use") from None
        yield Database(root)
    finally:
        os.close(fd)  # releases the lock


# -- command handlers ------------------------------------------------------


def cmd_schema_load(args) -> int:
    """Load the sources, write the workspace, and only then report the load."""
    registry = WidgetRegistry()
    report = registry.load_schema_files(args.files)
    if not args.check_only:
        path = _workspace_path(args)
        payload = {"version": 1,
                   "summary": {"locales": report.locales, "widgets": report.widgets},
                   "state": registry.export_state()}
        replace_file(path, _workspace_json(payload))
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(report.summary())
    return EXIT_OK


def cmd_schema_lint(args) -> int:
    registry = WidgetRegistry()
    report = registry.load_schema_files(args.files)
    print(report.summary())
    for warning in report.warnings:
        print(f"warning: {warning}")
    return EXIT_OK


def cmd_locales(args) -> int:
    registry = _load_workspace(args)
    tree = registry.locales
    if not args.tree:
        for locale in sorted(tree.locales()):
            print(locale)
        return EXIT_OK
    children: dict = {}  # parent (None for the root) -> children in insertion order
    for locale in tree.locales():
        children.setdefault(tree.parent(locale), []).append(locale)
    stack = [(root, 0) for root in children.get(None, [])]
    while stack:  # pre-order, iteratively: a chain may be deeper than the recursion limit
        locale, depth = stack.pop()
        print("  " * depth + locale)
        stack.extend((child, depth + 1) for child in reversed(children.get(locale, [])))
    return EXIT_OK


def cmd_set(args) -> int:
    registry = _load_workspace(args)
    name, index = args.field
    with _locked_db(args) as db:
        coord = WidgetCoord(name=name, locale=args.locale, medium=args.medium,
                            index=index)
        value = registry.parse_and_set(db, coord, args.value)
        db.checkpoint()
    print(dumps(value))
    return EXIT_OK


def cmd_get(args) -> int:
    registry = _load_workspace(args)
    name, index = args.field
    with _locked_db(args) as db:
        coord = WidgetCoord(name=name, locale=args.locale, medium=args.medium,
                            index=index)
        result = registry.get_and_format(db, coord)
    print(dumps(result) if is_uninitialized(result) else result)
    return EXIT_OK


def cmd_show(args) -> int:
    registry = _load_workspace(args)
    with _locked_db(args) as db:
        for name in registry.widget_names_at(args.locale):
            parts = registry.resolve_parts(name, args.locale, args.medium)
            storage = parts.storage
            if storage is None or (storage.table is None and storage.getter is None):
                continue
            label = parts.heading or name
            for index in range(1, storage.max_index + 1):
                coord = WidgetCoord(name=name, locale=args.locale,
                                    medium=args.medium, index=index)
                try:
                    result = registry.get_and_format(db, coord)
                except ResolutionError:
                    break  # no formatter for this medium anywhere in the chain
                shown = dumps(result) if is_uninitialized(result) else result
                tag = f"{label}.{index}" if storage.max_index > 1 else label
                print(f"{tag}: {shown}")
    return EXIT_OK


def cmd_gen(args) -> int:
    registry = _load_workspace(args)
    name, _ = args.field
    print(registry.generate_random(name, args.locale, args.medium, args.seed))
    return EXIT_OK


def cmd_dump(args) -> int:
    with _locked_db(args) as db:
        text = db.dump_text()
    replace_file(args.out, text)
    return EXIT_OK


def cmd_restore(args) -> int:
    text = read_text(args.input)
    with _locked_db(args) as db:
        if not db.is_empty() and not args.force:
            raise StoreError(
                f"database at '{db.root}' is not empty; pass --force to replace it")
        db.restore_text(text, filename=args.input)
    return EXIT_OK
