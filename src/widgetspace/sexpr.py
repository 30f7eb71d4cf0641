"""Tokenizer and reader for the package's s-expression surface syntaxes.

The datum dump grammar, the table file format, and the schema language
all share one token alphabet: parens, brackets, double-quoted strings
with ``\\"`` and ``\\\\`` escapes, integers, and bare atoms. ``;`` starts
a comment running to end of line.

``tokenize`` is one scan of one compiled pattern, a single match per
token. Each match skips the whitespace and comments before its token
and names the token's kind by its group. Tokens carry both a byte offset
(datum diagnostics) and a line/column pair (schema diagnostics). Tokens
never span a newline, so the line and column come from counting
newlines in the skipped text. The byte offset is the character index
when the text is ASCII; otherwise it advances by the UTF-8 length of the
text since the previous token. A character that starts no token (a
malformed string or a lone ``\\``) is diagnosed where it stands.
"""

from __future__ import annotations

import re

_INT_RE = re.compile(r"-?[0-9]+\Z")
_SYMBOL_RE = re.compile(r"[a-z0-9][a-z0-9_-]*\Z")

_ATOM_CHAR = r'[^ \t\r\n()\[\]";]'
_STRING_BODY = r'[^"\\\x00-\x1f\x7f]*(?:\\["\\][^"\\\x00-\x1f\x7f]*)*'
_STRING_BODY_RE = re.compile(_STRING_BODY)
_UNESCAPE_RE = re.compile(r'\\(["\\])')
# Every position matches one alternative after the skipped text, so the
# scan never backtracks into it and consecutive matches tile the text.
_TOKEN_RE = re.compile(rf"""
    [ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*
    (?:(?P<punct>[()\[\]])
      |(?P<string>"{_STRING_BODY}")
      |(?P<int>-?[0-9]+)(?!{_ATOM_CHAR})
      |(?P<atom>[^ \t\r\n()\[\]";\\]{_ATOM_CHAR}*|\\{_ATOM_CHAR}+)
      |(?P<fault>[\s\S])
      |(?P<end>\Z))""", re.VERBOSE)


class SexprError(Exception):
    """Lexical or structural fault in s-expression text."""

    def __init__(self, message: str, offset: int, line: int, col: int):
        super().__init__(message)
        self.offset = offset
        self.line = line
        self.col = col


class Token:
    __slots__ = ("kind", "value", "offset", "line", "col")

    def __init__(self, kind: str, value: object, offset: int, line: int, col: int):
        self.kind = kind  # one of ( ) [ ] string int atom
        self.value = value
        self.offset = offset  # byte offset into the UTF-8 encoding of the source
        self.line = line
        self.col = col

    def __repr__(self):
        return (f"Token({self.kind!r}, {self.value!r}, {self.offset}, "
                f"{self.line}, {self.col})")


class ListNode:
    """A parenthesized form, for grammars read as whole trees."""

    __slots__ = ("items", "offset", "line", "col")

    def __init__(self, items: tuple, offset: int, line: int, col: int):
        self.items = items
        self.offset = offset
        self.line = line
        self.col = col

    def __repr__(self):
        return f"ListNode({self.items!r}, {self.offset}, {self.line}, {self.col})"


def normalize_symbol(text: str) -> str:
    """Canonical spelling of a symbol: lowercase, optional leading ':' dropped."""
    text = text.lower()
    if text.startswith(":"):
        text = text[1:]
    return text


def is_valid_symbol(text: str) -> bool:
    # all-digit words lex as integers, so they cannot serve as symbols
    return bool(_SYMBOL_RE.match(text)) and not _INT_RE.match(text)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    is_ascii = text.isascii()
    line = 1
    line_start = 0  # index of the first character of the current line
    offset = 0
    counted = 0  # index up to which ``offset`` counts bytes
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        skipped = m.start()
        if start != skipped:
            newlines = text.count("\n", skipped, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", skipped, start) + 1
        if is_ascii:
            offset = start
        else:
            offset += len(text[counted:start].encode("utf-8"))
            counted = start
        col = start - line_start + 1
        if kind == "punct":
            kind = value = m.group(kind)
        elif kind == "atom":
            value = m.group(kind)
        elif kind == "string":
            value = m.group(kind)[1:-1]
            if "\\" in value:
                value = _UNESCAPE_RE.sub(r"\1", value)
        elif kind == "int":
            value = int(m.group(kind))
        elif kind == "end":
            break
        else:
            raise _fault(text, start, offset, line, col)
        tokens.append(Token(kind, value, offset, line, col))
    return tokens


def _fault(text: str, i: int, offset: int, line: int, col: int) -> SexprError:
    """The error for ``text[i]``, which starts no token, at its position."""
    ch = text[i]
    if ch != '"':
        return SexprError(f"unexpected character {ch!r}", offset, line, col)
    j = _STRING_BODY_RE.match(text, i + 1).end()
    if j == len(text):
        return SexprError("unterminated string", offset, line, col)
    # strings hold no newline, so text[j] is on the string's line
    message = "invalid escape in string" if text[j] == "\\" else "control character in string"
    return SexprError(message, offset + len(text[i:j].encode("utf-8")), line, col + j - i)


def _end_position(text: str) -> tuple[int, int, int]:
    """(offset, line, col) just past the end of ``text``."""
    return (len(text.encode("utf-8")), text.count("\n") + 1,
            len(text) - text.rfind("\n"))


class TokenStream:
    def __init__(self, tokens: list[Token], text: str):
        """``tokens`` read from ``text``, which places the end of input."""
        self._tokens = tokens
        self._pos = 0
        self._text = text

    @classmethod
    def from_text(cls, text: str) -> "TokenStream":
        return cls(tokenize(text), text)

    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)

    def peek(self) -> Token | None:
        pos = self._pos
        return self._tokens[pos] if pos < len(self._tokens) else None

    def next(self, expected: str = "a token") -> Token:
        pos = self._pos
        if pos >= len(self._tokens):
            raise SexprError(f"unexpected end of input, expected {expected}",
                             *_end_position(self._text))
        self._pos = pos + 1
        return self._tokens[pos]

    def expect(self, kind: str, expected: str | None = None) -> Token:
        pos = self._pos
        if pos < len(self._tokens) and self._tokens[pos].kind == kind:
            self._pos = pos + 1
            return self._tokens[pos]
        what = expected or f"'{kind}'"
        tok = self.next(what)
        raise SexprError(f"expected {what}, found {describe(tok)}",
                         tok.offset, tok.line, tok.col)


def describe(tok: Token) -> str:
    if tok.kind == "string":
        return "a string"
    if tok.kind == "int":
        return f"integer {tok.value}"
    if tok.kind == "atom":
        return f"'{tok.value}'"
    return f"'{tok.kind}'"


def read_forms(text: str) -> list[ListNode]:
    """Read schema-style source as a list of parenthesized top-level forms."""
    ts = TokenStream.from_text(text)
    forms = []
    while not ts.at_end():
        node = _read_node(ts)
        if not isinstance(node, ListNode):
            raise SexprError("expected a parenthesized form at top level",
                             node.offset, node.line, node.col)
        forms.append(node)
    return forms


def _read_node(ts: TokenStream):
    tok = ts.next("a form")
    if tok.kind in (")", "]"):
        raise SexprError(f"unbalanced '{tok.kind}'", tok.offset, tok.line, tok.col)
    if tok.kind == "[":
        raise SexprError("brackets are not part of this grammar",
                         tok.offset, tok.line, tok.col)
    if tok.kind == "(":
        items = []
        while True:
            nxt = ts.peek()
            if nxt is None:
                raise SexprError("unclosed '('", tok.offset, tok.line, tok.col)
            if nxt.kind == ")":
                ts.next()
                return ListNode(tuple(items), tok.offset, tok.line, tok.col)
            items.append(_read_node(ts))
    return tok
