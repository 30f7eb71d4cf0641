"""Expected outputs, computed without importing widgetspace.

This is an independent model of the documented behaviour: the datum text
form, the built-in validators, parsers and formatters, and per-property
resolution up the locale tree (an exact medium beats the same locale's
``default``, which beats anything further up). The benchmark checks every
answer the program gives against it.

Values are plain Python: ``str``, ``int``, ``Date``, ``Name``, ``tuple``
and the ``UNINIT`` marker. A schema is a ``Model``: a parent map plus
``Spec`` objects keyed by (widget name, locale).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import NamedTuple, Optional


class _Uninit:
    def __repr__(self):
        return "#uninit"


UNINIT = _Uninit()


class Date(NamedTuple):
    year: int
    month: int
    day: int


class Name(NamedTuple):
    last: str
    first: str
    middle: str
    suffix: str


# -- datum text form ----------------------------------------------------------


def quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dumps(value) -> str:
    if value is UNINIT:
        return "#uninit"
    if isinstance(value, Date):
        return f"(date {value.year} {value.month} {value.day})"
    if isinstance(value, Name):
        return "(name " + " ".join(quote(p) for p in value) + ")"
    if isinstance(value, tuple):
        return "[" + " ".join(dumps(v) for v in value) + "]"
    if isinstance(value, str):
        return quote(value)
    if isinstance(value, int):
        return str(value)
    raise TypeError(f"not a value: {value!r}")


def render_tables(tables: dict) -> str:
    """The dump of a whole database: tables sorted by name, keys sorted."""
    out = []
    for name in sorted(tables):
        out.append(f"(table {name})\n")
        for key in sorted(tables[name]):
            out.append(f"({key} {dumps(tables[name][key])})\n")
    return "".join(out)


def from_program(value):
    """Convert a value returned by the program into this module's form."""
    if repr(value) == "#uninit":
        return UNINIT
    if isinstance(value, tuple):
        return tuple(from_program(v) for v in value)
    if isinstance(value, (str, int)):
        return value
    if hasattr(value, "year"):
        return Date(value.year, value.month, value.day)
    if hasattr(value, "suffix"):
        return Name(value.last, value.first, value.middle, value.suffix)
    raise TypeError(f"unexpected value from the program: {value!r}")


# -- validators ----------------------------------------------------------------
#
# An expression is a tuple: ("and", [child, ...]), ("or", [child, ...], msg),
# ("not", child, msg), or a base validator (name, *args).

_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_DIGITS = frozenset("0123456789")
_CHARSETS = {
    "numeric": (_DIGITS, "numeric"),
    "alphabetic": (_LETTERS | {" ", "-"}, "alphabetic"),
    "strictly-alphabetic": (_LETTERS, "alphabetic"),
    "alphanumeric": (_LETTERS | _DIGITS, "alphanumeric"),
}


def _is_date(text: str) -> bool:
    digits = text.replace("/", "")
    if len(digits) != 8 or any(c not in _DIGITS for c in digits):
        return False
    try:
        datetime.date(int(digits[:4]), int(digits[4:6]), int(digits[6:]))
    except ValueError:
        return False
    return True


def check(expr, text: str) -> Optional[str]:
    """The rejection message for ``text``, or None when it is accepted."""
    head = expr[0]
    if head == "and":
        for child in expr[1]:
            message = check(child, text)
            if message is not None:
                return message
        return None
    if head == "or":
        if any(check(child, text) is None for child in expr[1]):
            return None
        return expr[2]
    if head == "not":
        return expr[2] if check(expr[1], text) is None else None
    if head in _CHARSETS:
        allowed, word = _CHARSETS[head]
        for ch in text:
            if ch not in allowed:
                return f"The character '{ch}' is not {word}"
        return None
    if head == "length":
        lo, hi = expr[1], expr[2]
        if len(text) < lo:
            return f"Length must be larger than {lo}"
        if len(text) > hi:
            return f"Length must be smaller than {hi}"
        return None
    if head == "required":
        return None if text.strip(" ") else "Input is required"
    if head == "date":
        return None if _is_date(text) else "Input is not a valid date"
    if head == "always-ok":
        return None
    raise ValueError(f"unknown validator {head!r}")


def vexpr_text(expr) -> str:
    """The schema-language spelling of an expression."""
    head = expr[0]
    if head == "and":
        return "(and " + " ".join(vexpr_text(c) for c in expr[1]) + ")"
    if head == "or":
        return ("(or " + " ".join(vexpr_text(c) for c in expr[1])
                + " " + quote(expr[2]) + ")")
    if head == "not":
        return f"(not {vexpr_text(expr[1])} {quote(expr[2])})"
    if len(expr) == 1:
        return head
    return "(" + " ".join(str(part) for part in expr) + ")"


# -- parsers and formatters ------------------------------------------------------

_ORDINALS = (
    None, "first", "second", "third", "fourth", "fifth", "sixth", "seventh",
    "eighth", "ninth", "tenth", "eleventh", "twelfth", "thirteenth",
    "fourteenth", "fifteenth", "sixteenth", "seventeenth", "eighteenth",
    "nineteenth", "twentieth", "twenty-first", "twenty-second", "twenty-third",
    "twenty-fourth", "twenty-fifth", "twenty-sixth", "twenty-seventh",
    "twenty-eighth", "twenty-ninth", "thirtieth", "thirty-first")
_MONTHS = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")
_UPCASE = str.maketrans("abcdefghijklmnopqrstuvwxyz", "ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _parse_date(text: str) -> Date:
    digits = text.replace("/", "")
    return Date(int(digits[:4]), int(digits[4:6]), int(digits[6:]))


def _last_first(n: Name) -> str:
    tail = " ".join(p for p in (n.first, n.middle[:1]) if p)
    return f"{n.last}," + (f" {tail}" if tail else "")


PARSERS = {
    "identity": lambda text: text,
    "parse-date-fbi": _parse_date,
    "parse-simple-date-fbi": _parse_date,
}

FORMATTERS = {
    "identity": lambda v: v,
    "string-upcase": lambda v: v.translate(_UPCASE),
    "format-date-fbi": lambda d: f"{d.year:04d}{d.month:02d}{d.day:02d}",
    "format-date-card": lambda d: f"{d.month:02d}/{d.day:02d}/{d.year:04d}",
    "format-date-short": lambda d: f"{d.month}/{d.day}/{d.year}",
    "format-simple-date-short": lambda d: f"{d.month}/{d.day}/{d.year}",
    "format-simple-date-long":
        lambda d: f"the {_ORDINALS[d.day]} of {_MONTHS[d.month - 1]}, {d.year}",
    "format-name-last-first": _last_first,
    "format-name-first-middle-last": lambda n: f"{n.first}, {n.middle[:1]}, {n.last}",
}


# -- schema model and resolution ----------------------------------------------------


@dataclass
class Spec:
    """What one locale declares about one widget; absent parts are inherited."""

    table: Optional[str] = None
    index: int = 1
    getter: Optional[str] = None
    inputs: dict = field(default_factory=dict)    # medium -> (parser, vexpr)
    outputs: dict = field(default_factory=dict)   # medium -> formatter
    headings: dict = field(default_factory=dict)  # medium -> text


_NAME_PARTS = ("name-last", "name-first", "name-middle", "name-suffix")


class Model:
    """A schema plus the contents of one database, as the program should see them."""

    def __init__(self, parents: dict, specs: dict):
        self.parents = parents          # locale -> parent locale or None
        self.specs = specs              # (name, locale) -> Spec
        self.tables: dict = {}          # table -> {key: value}

    def ancestry(self, locale: str) -> list:
        chain = []
        while locale is not None:
            chain.append(locale)
            locale = self.parents[locale]
        return chain

    def visible(self, locale: str) -> list:
        """Widget names declared anywhere in the ancestry, sorted."""
        chain = set(self.ancestry(locale))
        return sorted({name for (name, loc) in self.specs if loc in chain})

    def _walk(self, name: str, locale: str, pick):
        for loc in self.ancestry(locale):
            spec = self.specs.get((name, loc))
            if spec is not None:
                found = pick(spec)
                if found:
                    return found
        return None

    def storage(self, name: str, locale: str) -> Optional[Spec]:
        return self._walk(name, locale,
                          lambda s: s if (s.table or s.getter) else None)

    def formatter(self, name: str, locale: str, medium: str) -> Optional[str]:
        return self._walk(name, locale,
                          lambda s: s.outputs.get(medium) or s.outputs.get("default"))

    def input(self, name: str, locale: str, medium: str):
        return self._walk(name, locale,
                          lambda s: s.inputs.get(medium) or s.inputs.get("default"))

    def heading(self, name: str, locale: str, medium: str) -> Optional[str]:
        return self._walk(name, locale,
                          lambda s: s.headings.get(medium) or s.headings.get("default"))

    # -- the database side --

    def stored(self, name: str, locale: str, index: int = 1):
        storage = self.storage(name, locale)
        if storage.getter == "person-name-from-fields":
            parts = [self.tables.get("demographics", {}).get(p, UNINIT)
                     for p in _NAME_PARTS]
            if all(p is UNINIT for p in parts):
                return UNINIT
            return Name(*("" if p is UNINIT else p for p in parts))
        value = self.tables.get(storage.table, {}).get(name, UNINIT)
        if storage.index > 1 and value is not UNINIT:
            return value[index - 1]
        return value

    def set(self, name: str, locale: str, medium: str, text: str, index: int = 1):
        """Apply one input. Returns (accepted value or None, rejection message)."""
        storage = self.storage(name, locale)
        parser, vexpr = self.input(name, locale, medium)
        message = check(vexpr, text)
        if message is not None:
            return None, message
        value = PARSERS[parser](text)
        table = self.tables.setdefault(storage.table, {})
        if storage.index > 1:
            slots = list(table.get(name, (UNINIT,) * storage.index))
            slots[index - 1] = value
            table[name] = tuple(slots)
        else:
            table[name] = value
        return value, None

    def get(self, name: str, locale: str, medium: str, index: int = 1):
        """What get_and_format returns: formatted text, or UNINIT."""
        value = self.stored(name, locale, index)
        if value is UNINIT:
            return UNINIT
        return FORMATTERS[self.formatter(name, locale, medium)](value)

    def show(self, locale: str, medium: str) -> str:
        """The text the CLI's ``show`` prints (every visible readable widget)."""
        lines = []
        for name in self.visible(locale):
            storage = self.storage(name, locale)
            if storage is None or not (storage.table or storage.getter):
                continue
            label = self.heading(name, locale, medium) or name
            for index in range(1, storage.index + 1):
                shown = self.get(name, locale, medium, index)
                shown = "#uninit" if shown is UNINIT else shown
                tag = f"{label}.{index}" if storage.index > 1 else label
                lines.append(f"{tag}: {shown}")
        return "".join(line + "\n" for line in lines)


# -- the bundled fixture schemas, as documented ----------------------------------------

FIXTURE_PARENTS = {
    "common": None,
    "united-states": "common",
    "colorado": "united-states",
    "park-county-co": "colorado",
    "minnesota": "united-states",
    "ramsey-county-mn": "minnesota",
    "arkansas": "united-states",
    "wisconsin": "united-states",
}

MEDIA = ("ls1100-entry", "fbi-criminal-249", "fbi-applicant-258", "transmission",
         "ar-arrest", "ar-supplemental")


def _loose_name(heading: str) -> Spec:
    return Spec(table="demographics", headings={"default": heading},
                inputs={"default": ("identity", ("and", [("alphabetic",), ("length", 0, 30)]))},
                outputs={"default": "identity"})


def _required_name(lo: int, hi: int) -> Spec:
    vexpr = ("and", [("required",), ("alphabetic",), ("length", lo, hi)])
    return Spec(inputs={"ls1100-entry": ("identity", vexpr)})


def _optional_part(hi: int, what: str) -> Spec:
    vexpr = ("or", [("not", ("required",), f"{what} must be absent"),
                    ("and", [("alphabetic",), ("length", 1, hi)])],
             f"{what} must be 1 to {hi} alphabetic characters")
    return Spec(inputs={"ls1100-entry": ("identity", vexpr)})


def fixture_specs() -> dict:
    return {
        ("dob", "common"): Spec(
            table="demographics", headings={"default": "Date of Birth"},
            inputs={"ls1100-entry": ("parse-date-fbi", ("and", [("required",), ("date",)]))},
            outputs={"ls1100-entry": "format-date-fbi",
                     "fbi-criminal-249": "format-date-card",
                     "fbi-applicant-258": "format-date-short",
                     "transmission": "format-date-fbi",
                     "default": "format-date-card"}),
        ("alias", "common"): Spec(
            table="demographics", index=2, headings={"default": "Alias"},
            inputs={"default": ("identity", ("and", [("required",), ("alphabetic",),
                                                     ("length", 1, 20)]))},
            outputs={"default": "identity"}),
        ("name-last", "common"): _loose_name("Last Name"),
        ("name-first", "common"): _loose_name("First Name"),
        ("name-middle", "common"): _loose_name("Middle Name"),
        ("name-suffix", "common"): _loose_name("Suffix"),
        ("subject-name", "common"): Spec(
            getter="person-name-from-fields", headings={"default": "Name"},
            outputs={"default": "format-name-last-first"}),
        ("dob", "arkansas"): Spec(outputs={"ar-arrest": "format-date-short",
                                           "ar-supplemental": "format-date-short"}),
        ("sid", "arkansas"): Spec(
            table="identifiers", headings={"default": "State ID Number"},
            inputs={"ls1100-entry": ("identity", ("and", [("alphanumeric",),
                                                          ("length", 6, 12)]))},
            outputs={"ls1100-entry": "string-upcase", "default": "identity"}),
        ("name-last", "arkansas"): _required_name(1, 20),
        ("name-first", "arkansas"): _required_name(1, 15),
        ("name-suffix", "arkansas"): _optional_part(3, "Suffix"),
        ("subject-name", "arkansas"): Spec(
            outputs={"ar-arrest": "format-name-first-middle-last"}),
        ("name-last", "wisconsin"): _required_name(1, 30),
        ("name-first", "wisconsin"): _required_name(1, 20),
        ("name-middle", "wisconsin"): _optional_part(20, "Middle name"),
        ("name-suffix", "wisconsin"): _optional_part(4, "Suffix"),
    }


def fixture_model(extra_parents: dict | None = None) -> Model:
    parents = dict(FIXTURE_PARENTS)
    parents.update(extra_parents or {})
    return Model(parents, fixture_specs())


def fields_at(model: Model, locale: str) -> list:
    """(name, index) for every readable field at ``locale``, alias slots expanded."""
    out = []
    for name in model.visible(locale):
        storage = model.storage(name, locale)
        if storage is None:
            continue
        out.extend((name, i) for i in range(1, storage.index + 1))
    return out


def settable_at(model: Model, locale: str) -> list:
    """The subset of ``fields_at`` that accepts input (table-backed fields)."""
    return [(n, i) for n, i in fields_at(model, locale)
            if model.storage(n, locale).table is not None]
