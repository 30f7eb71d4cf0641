"""Tokenizer and reader for the package's s-expression surface syntaxes.

The datum dump grammar, the table file format, and the schema language
all share one token alphabet: parens, brackets, double-quoted strings
with ``\\"`` and ``\\\\`` escapes, integers, and bare atoms. ``;`` starts
a comment running to end of line.

One compiled pattern defines the scan. Whitespace is the only text it
never matches, so a search skips it; a comment matches with no group;
every other match's one group is a token's spelling, which fixes the
token's kind and value (``classify``): a bracket is itself, a string
starts with ``"``, and a run of atom characters is an integer if it reads
as one and an atom otherwise. A ``"`` that starts no well-formed string,
or a lone ``\\``, is a fault, diagnosed where it stands.

Every text is scanned without positions. ``tokenize``, for datum text and
the table lines that the store's line pattern does not cover (any but a
string or date entry as ``dumps`` writes it), is one ``findall`` that
returns the spellings (with the comments' empty groups dropped from a text
that holds a ``;``). Schema
text is longer and holds few strings and comments, so ``read_spans`` gets
the same spellings from str methods (``_scan``): ``find`` locates each
string and comment, and each run of text between them is split on
whitespace. It then makes one pass over the spellings that checks their
structure and records where each form ends, so a form, or any item in it,
is just the index of its first token. A reader of spellings raises
``TokenError`` with the index of the token at fault. Only when an error is
raised is it placed: ``position`` searches the pattern again up to that
token, skipping comments, and one helper turns its character index into a
byte offset, line and column, as it does for a lexical fault and for the
first byte that is not UTF-8. The byte offset counts a lone surrogate as
the three bytes that ``surrogatepass`` encodes it to, so text that is not
from a file can still be placed.

Schema forms and datum sequences nest at most ``MAX_DEPTH`` deep, so no
reader of the forms they make can exhaust Python's recursion. Integers
convert to and from text without the interpreter's own limit on such
conversions (``sys.set_int_max_str_digits``); ``MAX_INT_DIGITS`` is the
program's bound.
"""

from __future__ import annotations

import os
import re
from itertools import islice

_INT_RE = re.compile(r"-?[0-9]+\Z")
# all-digit words lex as integers, so they cannot serve as symbols
_SYMBOL_RE = re.compile(r"(?![0-9]+\Z)[a-z0-9][a-z0-9_-]*\Z")

_STRING_BODY = r'[^"\\\x00-\x1f\x7f]*(?:\\["\\][^"\\\x00-\x1f\x7f]*)*'
_STRING_BODY_RE = re.compile(_STRING_BODY)
_STRING_RE = re.compile(f'"{_STRING_BODY}"')
_UNESCAPE_RE = re.compile(r'\\(["\\])')
# The pattern is searched, not anchored: whitespace is the only text that
# no alternative matches, so a search skips it by itself. A comment
# matches without the group, which ``findall`` gives as an empty string;
# a token matches with its spelling, which is never empty. A '"' that
# starts no well-formed string matches alone, and a lone '\' as a run of
# atom characters: both are faults.
_TOKEN_RE = re.compile(rf';[^\n]*|([()\[\]]|"{_STRING_BODY}"|[^ \t\r\n()\[\]";]+|")')
_FAULTS = ('"', "\\")  # the spellings that start no token
_BRACKETS = frozenset("()[]")

# How deep schema forms and datum sequences may nest. ``read_spans``
# refuses a deeper form, so the recursive readers of validator
# expressions never exhaust the stack; ``datum.require_valid`` refuses a
# deeper value and ``datum.read_datum`` a deeper text, so neither a
# stored value nor a corrupt file can exhaust the recursion of ``dumps``.
MAX_DEPTH = 100

# How many digits an integer literal may have: CPython's default limit on
# converting between ``str`` and ``int``, kept as the program's own bound
# whatever the interpreter's limit is. A longer literal is a fault at its
# token, and ``datum.require_valid`` refuses an integer that would dump to
# one, so every integer read or stored converts both ways.
MAX_INT_DIGITS = 4300

# ``read_int`` and ``int_text`` convert an integer of more digits than this
# in pieces of this many: fewer than the least limit that
# ``sys.set_int_max_str_digits`` accepts (640), so each piece converts
# whatever the interpreter's limit is.
_INT_CHUNK = 600
_INT_CHUNK_BOUND = 10 ** _INT_CHUNK


class SexprError(Exception):
    """Lexical or structural fault in s-expression text."""

    def __init__(self, message: str, offset: int, line: int, col: int):
        super().__init__(message)
        self.offset = offset
        self.line = line
        self.col = col


class TokenError(Exception):
    """A fault found by a reader of spellings, at token ``index`` (the
    number of tokens for the end of input); ``position`` places it."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def normalize_symbol(text: str) -> str:
    """Canonical spelling of a symbol: lowercase, every leading ':' dropped, so
    a canonical spelling is its own, and ``x``, ``:X`` and ``::x`` are one."""
    return text.lower().lstrip(":")


def is_valid_symbol(text: str) -> bool:
    return _SYMBOL_RE.match(text) is not None


def read_source(path: str | os.PathLike) -> str:
    """A source file's text, with newlines as ``Path.read_text`` reads them.

    Bytes that are not UTF-8 raise SexprError at the first bad byte: its
    offset in the file, and its line and column in the text before it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        before = _newlines(data[:e.start].decode("utf-8"))
        _, line, col = _at(before, len(before))
        raise SexprError(f"invalid UTF-8: {e.reason}", e.start, line, col) from None
    return _newlines(text)


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


# -- the position-free scan ----------------------------------------------------


def tokenize(text: str) -> list[str]:
    """The spelling of each token of ``text``, without positions.

    A fault raises SexprError at its position, before anything is read.
    """
    tokens = _TOKEN_RE.findall(text)
    if ";" in text:  # there may be comments, which match with an empty group
        tokens = [tok for tok in tokens if tok]
    if '"' in tokens or "\\" in tokens:
        for m in _TOKEN_RE.finditer(text):
            if m.group(1) in _FAULTS:
                raise _fault(text, m.start(1))
    return tokens


def classify(tok: str, i: int = 0) -> tuple[str, object]:
    """The kind (one of ( ) [ ] string int atom) and value of the token spelled
    ``tok``, token ``i`` of its text; see ``read_int`` for a long integer."""
    first = tok[0]
    if first == '"':
        return "string", unquote(tok)
    if first in "()[]":
        return tok, tok
    if first in "-0123456789" and _INT_RE.match(tok):
        return "int", read_int(tok, i)
    return "atom", tok


def read_int(tok: str, i: int) -> int:
    """The value of the integer literal ``tok``, token ``i`` of its text.

    A literal of more than ``MAX_INT_DIGITS`` digits raises TokenError at ``i``.
    """
    digits = len(tok) - (tok[0] == "-")
    if digits > MAX_INT_DIGITS:
        raise TokenError(f"integer literal longer than {MAX_INT_DIGITS} digits", i)
    if digits <= _INT_CHUNK:
        return int(tok)
    value = 0
    for k in range(len(tok) - digits, len(tok), _INT_CHUNK):
        chunk = tok[k:k + _INT_CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if tok[0] == "-" else value


def int_text(n: int) -> str:
    """``str(n)``, for any number of digits, whatever the interpreter's limit."""
    if -_INT_CHUNK_BOUND < n < _INT_CHUNK_BOUND:
        return str(n)
    rest, chunks = abs(n), []
    while rest >= _INT_CHUNK_BOUND:
        rest, low = divmod(rest, _INT_CHUNK_BOUND)
        chunks.append(f"{low:0{_INT_CHUNK}d}")
    chunks.append(str(rest))
    return ("-" if n < 0 else "") + "".join(reversed(chunks))


def unquote(tok: str) -> str:
    """The text of a string token."""
    text = tok[1:-1]
    return _UNESCAPE_RE.sub(r"\1", text) if "\\" in text else text


def describe(tok: str, i: int = 0) -> str:
    """The token spelled ``tok``, token ``i`` of its text, as an error message names it."""
    kind, value = classify(tok, i)
    if kind == "string":
        return "a string"
    if kind == "int":
        return f"integer {int_text(value)}"
    return f"'{tok}'"


def expected(tokens: list[str], i: int, what: str) -> TokenError:
    """The error for ``tokens[i]``, or the end of input, where ``what`` belongs."""
    if i >= len(tokens):
        return TokenError(f"unexpected end of input, expected {what}", i)
    return TokenError(f"expected {what}, found {describe(tokens[i], i)}", i)


def position(text: str, i: int) -> tuple[int, int, int]:
    """(byte offset, line, col) of token ``i`` of ``text``, or of the end of
    input when ``text`` has no token ``i``. Scans ``text`` again: for errors."""
    starts = (m.start(1) for m in _TOKEN_RE.finditer(text) if m.group(1) is not None)
    return _at(text, next(islice(starts, i, None), len(text)))


def _at(text: str, char: int) -> tuple[int, int, int]:
    """(byte offset, line, col) of ``text[char]``; a surrogate counts three bytes."""
    before = text[:char]
    offset = char if before.isascii() else len(before.encode("utf-8", "surrogatepass"))
    return offset, before.count("\n") + 1, char - before.rfind("\n")


def read_spans(text: str) -> tuple[list[str], list[int]]:
    """The spellings of schema-style source and where each of its nodes ends.

    ``ends[i]`` is the index of the ')' that closes a '(' at ``i``, and ``i``
    itself for any other token, so the items of the form at ``i`` start at
    ``i + 1`` and each next one at ``ends[j] + 1``, up to ``ends[i]``.
    The spellings are ``tokenize(text)``'s, and a lexical fault raises as
    it does there. Structural faults raise SexprError at their position, in
    token order: a form nested deeper than ``MAX_DEPTH``, an unbalanced ')'
    or ']', a '[', a token outside any form, an integer literal that is too
    long, and last an unclosed '(' (the innermost).
    """
    tokens = _scan(text)
    try:
        return tokens, _spans(tokens)
    except TokenError as e:
        raise SexprError(str(e), *position(text, e.index)) from None


def _scan(text: str) -> list[str]:
    """``tokenize(text)``, from str methods rather than one match per token.

    ``find`` locates the next '"' and the next ';'. A '"' starts a string
    token, or if no well-formed string follows, a one-character fault; a
    ';' starts a comment that runs to the next newline. In each run of text
    between them, the three other whitespace characters become spaces and
    each bracket is set apart by spaces, so splitting on " " gives the
    run's tokens: every other character belongs to an atom.
    """
    tokens = []
    n = len(text)
    i = 0
    quote = text.find('"') % (n + 1)  # n for none: -1 wraps around to it
    semi = text.find(";") % (n + 1)
    while True:
        j = min(quote, semi)
        if i < j:
            tokens += filter(None, text[i:j].replace("\t", " ").replace("\r", " ")
                             .replace("\n", " ").replace("(", " ( ").replace(")", " ) ")
                             .replace("[", " [ ").replace("]", " ] ").split(" "))
        if j == n:
            break
        if j == quote:
            m = _STRING_RE.match(text, j)
            tokens.append(m.group() if m else '"')
            i = m.end() if m else j + 1
        else:
            i = text.find("\n", j) % (n + 1)
        if quote < i:
            quote = text.find('"', i) % (n + 1)
        if semi < i:
            semi = text.find(";", i) % (n + 1)
    if '"' in tokens or "\\" in tokens:
        tokenize(text)  # raises at the first fault
    return tokens


def _spans(tokens: list[str]) -> list[int]:
    ends = list(range(len(tokens)))
    opened = []  # the index of the '(' of each open form, innermost last
    for i, tok in enumerate(tokens):
        if tok not in _BRACKETS:
            if not opened:
                raise TokenError("expected a parenthesized form at top level", i)
            if len(tok) > MAX_INT_DIGITS and _INT_RE.match(tok):
                read_int(tok, i)  # refuses one of more than MAX_INT_DIGITS digits
        elif tok == "(":
            if len(opened) == MAX_DEPTH:
                raise TokenError(f"forms nested deeper than {MAX_DEPTH}", i)
            opened.append(i)
        elif tok == ")":
            if not opened:
                raise TokenError("unbalanced ')'", i)
            ends[opened.pop()] = i
        elif tok == "]":
            raise TokenError("unbalanced ']'", i)
        else:
            raise TokenError("brackets are not part of this grammar", i)
    if opened:
        raise TokenError("unclosed '('", opened[-1])
    return ends


def _fault(text: str, i: int) -> SexprError:
    """The error for ``text[i]``, which starts no token, at its position."""
    ch = text[i]
    if ch != '"':
        return SexprError(f"unexpected character {ch!r}", *_at(text, i))
    j = _STRING_BODY_RE.match(text, i + 1).end()
    if j == len(text):
        return SexprError("unterminated string", *_at(text, i))
    message = "invalid escape in string" if text[j] == "\\" else "control character in string"
    return SexprError(message, *_at(text, j))
