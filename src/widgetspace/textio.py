"""Formatters and parsers: the boundary between datums and external text.

Formatters map a datum to presentation text; parsers map accepted input
text to a datum. Each side has its own name -> function registry, so the
same symbol (for example ``identity``) may be registered in both without
collision. Names are the ones widget definitions refer to.

A registry keeps its names lowercased, so a plain string is looked up as
it is spelled first and lowered only when that misses (``lowered_key``);
``ValidatorRegistry`` follows the same rule.
"""

from __future__ import annotations

from typing import Callable

from .errors import DuplicateNameError, ParseError, UnresolvedReferenceError, WrongVariantError
from .datum import Datum, PersonName, SimpleDate


def lowered_key(entries: dict, name: str) -> str:
    """The key of ``name`` in ``entries``, a table keyed by lowercased names."""
    return name if type(name) is str and name in entries else name.lower()


class NamedRegistry:
    """A flat, case-insensitive name -> function table."""

    def __init__(self, kind: str):
        self._kind = kind
        self._entries: dict[str, Callable] = {}

    def register(self, name: str, fn: Callable, *, replace: bool = False) -> None:
        """Bind ``name`` to ``fn``; an existing name needs ``replace=True``.

        Invariant: a registry keeps one dict for its whole life and writes each
        registration into it, so a ``locate`` pair sees a replacement at once.
        """
        key = name.lower()
        if key in self._entries and not replace:
            raise DuplicateNameError(f"{self._kind} '{key}' is already registered")
        self._entries[key] = fn

    def get(self, name: str) -> Callable:
        try:
            return self._entries[lowered_key(self._entries, name)]
        except KeyError:
            raise UnresolvedReferenceError(f"unknown {self._kind} '{name}'") from None

    __getitem__ = get

    def locate(self, name: str) -> tuple:
        """``(table, key)`` whose ``table[key]`` is what ``get(name)`` returns at that
        time: this registry's dict and the key ``lowered_key`` finds in it, or,
        for a name not registered, this registry and ``name``."""
        key = lowered_key(self._entries, name)
        return (self._entries, key) if key in self._entries else (self, name)

    def __contains__(self, name: str) -> bool:
        return lowered_key(self._entries, name) in self._entries

    def names(self) -> list[str]:
        return sorted(self._entries)


_ORDINALS = (
    None,
    "first", "second", "third", "fourth", "fifth", "sixth", "seventh",
    "eighth", "ninth", "tenth", "eleventh", "twelfth", "thirteenth",
    "fourteenth", "fifteenth", "sixteenth", "seventeenth", "eighteenth",
    "nineteenth", "twentieth", "twenty-first", "twenty-second",
    "twenty-third", "twenty-fourth", "twenty-fifth", "twenty-sixth",
    "twenty-seventh", "twenty-eighth", "twenty-ninth", "thirtieth",
    "thirty-first",
)

_MONTHS = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)


def _as_date(d: Datum) -> SimpleDate:
    if not isinstance(d, SimpleDate):
        raise WrongVariantError(f"expected a date, got {type(d).__name__}")
    return d


def _as_name(d: Datum) -> PersonName:
    if not isinstance(d, PersonName):
        raise WrongVariantError(f"expected a name, got {type(d).__name__}")
    return d


def _as_text(d: Datum) -> str:
    if not isinstance(d, str):
        raise WrongVariantError(f"expected text, got {type(d).__name__}")
    return d


def format_simple_date_short(d: Datum) -> str:
    """month/day/year without padding, e.g. 7/4/2010."""
    d = _as_date(d)
    return f"{d.month}/{d.day}/{d.year}"


def format_simple_date_long(d: Datum) -> str:
    """Prose form, e.g. 'the fourth of July, 2010'."""
    d = _as_date(d)
    return f"the {_ORDINALS[d.day]} of {_MONTHS[d.month - 1]}, {d.year}"


def format_date_fbi(d: Datum) -> str:
    """YYYYMMDD, zero-padded. Inverse of parse_simple_date_fbi."""
    d = _as_date(d)
    return f"{d.year:04d}{d.month:02d}{d.day:02d}"


def format_date_card(d: Datum) -> str:
    """MM/DD/YYYY, zero-padded, always ten characters wide."""
    d = _as_date(d)
    return f"{d.month:02d}/{d.day:02d}/{d.year:04d}"


def parse_simple_date_fbi(text: str) -> SimpleDate:
    """YYYYMMDD with optional slashes anywhere; exactly eight digits remain."""
    digits = text.replace("/", "")
    if len(digits) != 8 or not digits.isascii() or not digits.isdigit():
        raise ParseError(f"not an 8-digit date: {text!r}")
    try:
        return SimpleDate(int(digits[0:4]), int(digits[4:6]), int(digits[6:8]))
    except ValueError as e:
        raise ParseError(f"{e} in {text!r}") from None


def format_name_last_first(d: Datum) -> str:
    """'Doe, John S' with the middle reduced to an initial; empty parts drop out."""
    d = _as_name(d)
    tail = " ".join(p for p in (d.first, d.middle[:1]) if p)
    return f"{d.last}," + (f" {tail}" if tail else "")


def format_name_first_middle_last(d: Datum) -> str:
    """'John, S, Doe'; an absent middle keeps its slot, as in 'John, , Doe'."""
    d = _as_name(d)
    return f"{d.first}, {d.middle[:1]}, {d.last}"


def format_identity(d: Datum) -> str:
    return _as_text(d)


def parse_identity(text: str) -> str:
    return text


_UPCASE = str.maketrans(
    "abcdefghijklmnopqrstuvwxyz", "ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def format_upcase(d: Datum) -> str:
    """ASCII-uppercased text; other characters pass through untouched."""
    return _as_text(d).translate(_UPCASE)


def default_formatter_registry() -> NamedRegistry:
    r = NamedRegistry("formatter")
    r.register("format-simple-date-short", format_simple_date_short)
    # 'format-date-short' is the spelling widget files historically use;
    # both names bind the same function.
    r.register("format-date-short", format_simple_date_short)
    r.register("format-simple-date-long", format_simple_date_long)
    r.register("format-date-fbi", format_date_fbi)
    r.register("format-date-card", format_date_card)
    r.register("format-name-last-first", format_name_last_first)
    r.register("format-name-first-middle-last", format_name_first_middle_last)
    r.register("identity", format_identity)
    r.register("string-upcase", format_upcase)
    return r


def default_parser_registry() -> NamedRegistry:
    r = NamedRegistry("parser")
    r.register("parse-date-fbi", parse_simple_date_fbi)
    r.register("parse-simple-date-fbi", parse_simple_date_fbi)
    r.register("identity", parse_identity)
    return r
