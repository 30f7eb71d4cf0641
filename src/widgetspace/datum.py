"""The value universe: storable datum variants, typed absence, and the dump codec.

A datum is one of: the unique ``UNINITIALIZED`` value, text (``str``),
an integer, a ``SimpleDate``, a ``PersonName``, or a tuple of datums.
Values use their natural Python representation and are immutable.

Dump grammar (UTF-8 text, whitespace-insensitive between tokens)::

    datum   := '#uninit' | integer | string | date | name | seq
    integer := '-'? digit+
    string  := '"' chars '"'          with \\" and \\\\ escapes
    date    := '(date' year month day ')'
    name    := '(name' string string string string ')'
    seq     := '[' datum* ']'
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Union

from .errors import MalformedEncodingError
from .sexpr import SexprError, Token, TokenStream


class Uninitialized:
    """The typed absence value. A singleton; compares equal only to itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "#uninit"

    def __reduce__(self):
        return (Uninitialized, ())


UNINITIALIZED = Uninitialized()


@dataclass(frozen=True)
class SimpleDate:
    """A calendar date holding only year/month/day.

    Construction enforces the field ranges (month 1-12, day 1-31); whether
    the combination names a real calendar day is the 'date' validator's
    concern, not the type's.
    """

    year: int
    month: int
    day: int

    def __post_init__(self):
        for field in ("year", "month", "day"):
            v = getattr(self, field)
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"{field} must be an integer, got {v!r}")
        if not 0 <= self.year <= 9999:
            raise ValueError(f"year out of range: {self.year}")
        if not 1 <= self.month <= 12:
            raise ValueError(f"month out of range: {self.month}")
        if not 1 <= self.day <= 31:
            raise ValueError(f"day out of range: {self.day}")


@dataclass(frozen=True)
class PersonName:
    """A structured personal name. Absent parts are empty strings."""

    last: str = ""
    first: str = ""
    middle: str = ""
    suffix: str = ""

    def __post_init__(self):
        for field in ("last", "first", "middle", "suffix"):
            v = getattr(self, field)
            if not isinstance(v, str):
                raise TypeError(f"{field} must be a string, got {v!r}")


Datum = Union[Uninitialized, str, int, SimpleDate, PersonName, tuple]


def is_uninitialized(d) -> bool:
    return isinstance(d, Uninitialized)


def maybe_map(d: Datum, f: Callable) -> Datum:
    """Apply ``f`` to an initialized datum; absence is absorbing."""
    if is_uninitialized(d):
        return UNINITIALIZED
    return f(d)


def maybe_or_default(d: Datum, fallback):
    return fallback if is_uninitialized(d) else d


def require_valid(d: Datum) -> None:
    """Reject values outside the datum universe.

    Text is limited to printable characters plus space so every datum
    survives the line-oriented dump format.
    """
    if isinstance(d, Uninitialized):
        return
    if isinstance(d, bool):
        raise TypeError("booleans are not datum values")
    if isinstance(d, int):
        return
    if isinstance(d, str):
        _require_printable(d)
        return
    if isinstance(d, SimpleDate):
        return
    if isinstance(d, PersonName):
        for part in (d.last, d.first, d.middle, d.suffix):
            _require_printable(part)
        return
    if isinstance(d, tuple):
        for item in d:
            require_valid(item)
        return
    raise TypeError(f"not a datum value: {d!r}")


_UNSTORABLE = re.compile("[\x00-\x1f\x7f\ud800-\udfff]")


def _require_printable(s: str) -> None:
    bad = _UNSTORABLE.search(s)
    if bad is None:
        return
    ch = bad.group()
    if "\ud800" <= ch <= "\udfff":
        raise ValueError(f"surrogate {ch!r} is not storable text")
    raise ValueError(f"control character {ch!r} is not storable text")


def dumps(d: Datum) -> str:
    """Render a datum in the dump grammar. Deterministic."""
    if isinstance(d, Uninitialized):
        return "#uninit"
    if isinstance(d, bool):
        raise TypeError("booleans are not datum values")
    if isinstance(d, int):
        return str(d)
    if isinstance(d, str):
        return _quote(d)
    if isinstance(d, SimpleDate):
        return f"(date {d.year} {d.month} {d.day})"
    if isinstance(d, PersonName):
        parts = " ".join(_quote(p) for p in (d.last, d.first, d.middle, d.suffix))
        return f"(name {parts})"
    if isinstance(d, tuple):
        return "[" + " ".join(dumps(item) for item in d) + "]"
    raise TypeError(f"not a datum value: {d!r}")


def serialize(d: Datum) -> bytes:
    require_valid(d)
    return dumps(d).encode("utf-8")


def loads(text: str) -> Datum:
    """Parse exactly one datum from text."""
    try:
        ts = TokenStream.from_text(text)
        value = read_datum(ts)
        trailing = ts.peek()
        if trailing is not None:
            raise SexprError("trailing content after datum", trailing.offset,
                             trailing.line, trailing.col)
        return value
    except SexprError as e:
        raise MalformedEncodingError(str(e), e.offset) from None


def deserialize(data: bytes | str) -> Datum:
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MalformedEncodingError("invalid UTF-8", e.start) from None
    else:
        text = data
    return loads(text)


def read_datum(ts: TokenStream) -> Datum:
    """Read one datum from a token stream. Raises SexprError on violations."""
    tok = ts.next("a datum")
    if tok.kind == "int":
        return tok.value
    if tok.kind == "string":
        return tok.value
    if tok.kind == "atom":
        if tok.value == "#uninit":
            return UNINITIALIZED
        raise SexprError(f"unknown atom '{tok.value}'", tok.offset, tok.line, tok.col)
    if tok.kind == "[":
        items = []
        while True:
            nxt = ts.peek()
            if nxt is None:
                raise SexprError("unclosed '['", tok.offset, tok.line, tok.col)
            if nxt.kind == "]":
                ts.next()
                return tuple(items)
            items.append(read_datum(ts))
    if tok.kind == "(":
        head = ts.next("'date' or 'name'")
        if head.kind == "atom" and head.value == "date":
            return _read_date(ts)
        if head.kind == "atom" and head.value == "name":
            return _read_name(ts)
        raise SexprError("expected 'date' or 'name'", head.offset, head.line, head.col)
    raise SexprError(f"unexpected '{tok.kind}'", tok.offset, tok.line, tok.col)


def _read_int_in(ts: TokenStream, what: str, lo: int, hi: int) -> int:
    tok = ts.expect("int", f"{what} (integer)")
    if not lo <= tok.value <= hi:
        raise SexprError(f"{what} out of range: {tok.value}", tok.offset, tok.line, tok.col)
    return tok.value


def _read_date(ts: TokenStream) -> SimpleDate:
    year = _read_int_in(ts, "year", 0, 9999)
    month = _read_int_in(ts, "month", 1, 12)
    day = _read_int_in(ts, "day", 1, 31)
    ts.expect(")")
    return SimpleDate(year, month, day)


def _read_name(ts: TokenStream) -> PersonName:
    parts = [ts.expect("string", "a name part (string)").value for _ in range(4)]
    ts.expect(")")
    return PersonName(*parts)


_ESCAPES = str.maketrans({'"': '\\"', "\\": "\\\\"})


def _quote(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'
