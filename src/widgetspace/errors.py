"""Exception taxonomy shared across the package.

Three broad families, mirrored by the CLI exit codes: data defects
(ValidationError), schema and resolution defects (SchemaError and its
subclasses), and storage faults (StoreError and friends).
"""

from __future__ import annotations

NO_HANDLER_MESSAGE = "No formatter/parser specified."
NO_STORAGE_MESSAGE = "No storage specified."


class WidgetSpaceError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(WidgetSpaceError):
    """Rejected input text.

    ``value`` is the exact input that was rejected; ``message`` is the
    user-facing report. ``str()`` yields the message alone.
    """

    def __init__(self, value: str, message: str):
        super().__init__(message)
        self.value = value
        self.message = message


class ParseError(WidgetSpaceError):
    """A registered parser was handed text it cannot convert.

    Reaching this after validation passed means the schema's validator
    is weaker than its parser, which is a schema bug, not a user error.
    """


class MalformedEncodingError(WidgetSpaceError):
    """Serialized datum text that does not obey the dump grammar."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class SchemaError(WidgetSpaceError):
    """Base class for schema, registry, and resolution defects; positioned in schema text."""

    def __init__(self, message: str, *, filename: str | None = None,
                 line: int | None = None, col: int | None = None):
        where = _position(filename, line, col)
        super().__init__(where + message if where else message)
        self.filename = filename
        self.line = line
        self.col = col


class SchemaSyntaxError(SchemaError):
    """Schema source text violating the grammar."""


class UnknownValidatorError(SchemaError):
    """A validator expression names a base validator that is not registered."""


class UnresolvedReferenceError(SchemaError):
    """A spec names a formatter, parser, generator, or accessor that is not registered."""


class DuplicateNameError(SchemaError):
    """Re-registration of an existing name without requesting replacement."""


class UnknownLocaleError(SchemaError):
    """A locale symbol that is not present in the tree."""


class UnknownParentError(SchemaError):
    """A locale declaration naming a parent that has not been defined."""


class DuplicateLocaleError(SchemaError):
    """A locale declared twice without requesting replacement."""


class LocaleCycleError(SchemaError):
    """A re-parenting that would make the locale tree cyclic."""


class InvalidSpecError(SchemaError):
    """A structurally invalid definition (bad index bound, second root, ...)."""


class IndexOutOfRangeError(SchemaError):
    """An occurrence index outside [1, max_index]."""


class WrongVariantError(SchemaError):
    """A datum of one variant handed to code expecting another."""


class ResolutionError(SchemaError):
    """Inheritance walk exhausted without an answer.

    ``str()`` is exactly the canonical message; the coordinates that
    failed to resolve ride along in ``context`` for diagnostics.
    """

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.message = message
        self.context = dict(context or {})


class StoreError(WidgetSpaceError):
    """Base class for persistent-store faults."""


class CorruptTableError(StoreError):
    """A table file that fails to parse. Carries file name and byte offset."""

    def __init__(self, message: str, *, filename: str | None = None,
                 offset: int | None = None):
        where = f"{filename}: " if filename else ""
        at = f" (byte {offset})" if offset is not None else ""
        super().__init__(f"{where}{message}{at}")
        self.filename = filename
        self.offset = offset


class DatabaseLockedError(StoreError):
    """Another process holds the database lock."""


def _position(filename: str | None, line: int | None, col: int | None) -> str:
    if line is None:
        return f"{filename}: " if filename else ""
    name = filename or "<schema>"
    if col is None:
        return f"{name}:{line}: "
    return f"{name}:{line}:{col}: "
