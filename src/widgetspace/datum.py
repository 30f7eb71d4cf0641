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
from .sexpr import (_INT_RE, MAX_DEPTH, MAX_INT_DIGITS, SexprError, TokenError, expected,
                    int_text, position, read_int, tokenize, unquote)


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
        if not (type(self.year) is int and type(self.month) is int and type(self.day) is int):
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


class UnstorableError(ValueError):
    """A value of a datum variant that the dump format cannot hold."""


def require_valid(d: Datum, depth: int = 0) -> None:
    """Reject values outside the datum universe.

    Text may hold no C0 control character (U+0000 to U+001F, tab and
    newline among them), no DEL and no lone surrogate; any other character,
    a C1 control such as U+0085 included, is stored. Integers are limited to
    ``MAX_INT_DIGITS`` digits, and sequences nest at most ``MAX_DEPTH``
    deep, so every datum survives the line-oriented dump format and reads
    back. ``depth`` counts the sequences around ``d``. A value of no datum
    variant raises TypeError; one the format cannot hold, UnstorableError.
    """
    if isinstance(d, str):  # the common variants first
        _require_printable(d)
        return
    if isinstance(d, (SimpleDate, Uninitialized)):
        return
    if isinstance(d, bool):
        raise TypeError("booleans are not datum values")
    if isinstance(d, int):
        if not -_INT_BOUND < d < _INT_BOUND:
            raise UnstorableError(
                f"integers of more than {MAX_INT_DIGITS} digits are not storable")
        return
    if isinstance(d, PersonName):
        for part in (d.last, d.first, d.middle, d.suffix):
            _require_printable(part)
        return
    if isinstance(d, tuple):
        if depth == MAX_DEPTH:
            raise UnstorableError(f"sequences nested deeper than {MAX_DEPTH} are not storable")
        for item in d:
            require_valid(item, depth + 1)
        return
    raise TypeError(f"not a datum value: {d!r}")


_INT_BOUND = 10 ** MAX_INT_DIGITS  # the least integer of MAX_INT_DIGITS + 1 digits
_UNSTORABLE = re.compile("[\x00-\x1f\x7f\ud800-\udfff]")


def _require_printable(s: str) -> None:
    if str.isprintable(s):  # then it holds no control character and no surrogate
        return
    bad = _UNSTORABLE.search(s)
    if bad is None:
        return
    ch = bad.group()
    if "\ud800" <= ch <= "\udfff":
        raise UnstorableError(f"surrogate {ch!r} is not storable text")
    raise UnstorableError(f"control character {ch!r} is not storable text")


def dumps(d: Datum) -> str:
    """Render a datum in the dump grammar. Deterministic."""
    if isinstance(d, str):  # the common variants first
        return _quote(d)
    if isinstance(d, SimpleDate):
        return f"(date {d.year} {d.month} {d.day})"
    if isinstance(d, tuple):
        return "[" + " ".join([dumps(item) for item in d]) + "]"
    if isinstance(d, Uninitialized):
        return "#uninit"
    if isinstance(d, bool):
        raise TypeError("booleans are not datum values")
    if isinstance(d, int):
        return int_text(d)
    if isinstance(d, PersonName):
        parts = " ".join(_quote(p) for p in (d.last, d.first, d.middle, d.suffix))
        return f"(name {parts})"
    raise TypeError(f"not a datum value: {d!r}")


def serialize(d: Datum) -> bytes:
    require_valid(d)
    return dumps(d).encode("utf-8")


def loads(text: str) -> Datum:
    """Parse exactly one datum from text."""
    try:
        tokens = tokenize(text)
        value, i = read_datum(tokens, 0)
        if i < len(tokens):
            raise TokenError("trailing content after datum", i)
        return value
    except TokenError as e:
        raise MalformedEncodingError(str(e), position(text, e.index)[0]) from None
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


def read_datum(tokens: list[str], i: int) -> tuple[Datum, int]:
    """The datum that starts at ``tokens[i]`` (spellings from ``sexpr.tokenize``),
    and the index just past it. Raises TokenError at the token at fault."""
    open_seqs = []  # (index of the '[', items so far) of each sequence open here
    while True:
        if i == len(tokens):
            if open_seqs:
                raise TokenError("unclosed '['", open_seqs[-1][0])
            raise expected(tokens, i, "a datum")
        tok = tokens[i]
        first = tok[0]
        if first == '"':
            value = unquote(tok)
            i += 1
        elif first == "(":
            value, i = _read_form(tokens, i + 1)
        elif first == "[":
            if len(open_seqs) == MAX_DEPTH:
                raise TokenError(f"sequences nested deeper than {MAX_DEPTH}", i)
            open_seqs.append((i, []))
            i += 1
            continue
        elif first == "]" and open_seqs:
            value = tuple(open_seqs.pop()[1])
            i += 1
        elif tok == "#uninit":
            value = UNINITIALIZED
            i += 1
        elif _INT_RE.match(tok):
            value = read_int(tok, i)
            i += 1
        elif first in ")]":
            raise TokenError(f"unexpected '{tok}'", i)
        else:
            raise TokenError(f"unknown atom '{tok}'", i)
        if not open_seqs:
            return value, i
        open_seqs[-1][1].append(value)


def _read_form(tokens: list[str], i: int) -> tuple[Datum, int]:
    """A date or name, from its head at ``tokens[i]`` just past the '('."""
    head = tokens[i] if i < len(tokens) else None
    if head == "date":
        y, m, d = tokens[i + 1:i + 4] if len(tokens) > i + 3 else ("", "", "")
        if m in _MONTHS and d in _DAYS and len(y) <= 4 and y.isascii() and y.isdigit():
            value = SimpleDate(int(y), _MONTHS[m], _DAYS[d])
        else:  # any other spelling, and every fault, as _read_int_in reads them
            value = SimpleDate(_read_int_in(tokens, i + 1, "year", 0, 9999),
                               _read_int_in(tokens, i + 2, "month", 1, 12),
                               _read_int_in(tokens, i + 3, "day", 1, 31))
        i += 4
    elif head == "name":
        for j in range(i + 1, i + 5):
            if j == len(tokens) or tokens[j][0] != '"':
                raise expected(tokens, j, "a name part (string)")
        value, i = PersonName(*map(unquote, tokens[i + 1:i + 5])), i + 5
    elif head is None:
        raise expected(tokens, i, "'date' or 'name'")
    else:
        raise TokenError("expected 'date' or 'name'", i)
    if i == len(tokens) or tokens[i] != ")":
        raise expected(tokens, i, "')'")
    return value, i + 1


# The month and day spellings that ``dumps`` writes, and their values.
_MONTHS = {str(n): n for n in range(1, 13)}
_DAYS = {str(n): n for n in range(1, 32)}


def _read_int_in(tokens: list[str], i: int, what: str, lo: int, hi: int) -> int:
    if i == len(tokens) or not _INT_RE.match(tokens[i]):
        raise expected(tokens, i, f"{what} (integer)")
    value = read_int(tokens[i], i)
    if not lo <= value <= hi:
        raise TokenError(f"{what} out of range: {value}", i)
    return value


_ESCAPES = str.maketrans({'"': '\\"', "\\": "\\\\"})


def _quote(s: str) -> str:
    if '"' in s or "\\" in s:
        return '"' + s.translate(_ESCAPES) + '"'
    return '"' + s + '"'
