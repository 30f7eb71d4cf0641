"""The s-expression scanner and readers against the implementations they replaced.

The references below are earlier implementations, kept verbatim apart
from their names: the per-character tokenizer, and the table parser,
datum reader and schema reader over positioned tokens; and the schema
reader that built a node tree from spellings, with the form parsers that
walked that tree. On any input, the position-free scan placed by
``position`` must give the reference's tokens and positions, and the table
parser, ``datum.loads`` and ``read_spans`` the same values, or the same
errors at the same positions. The one exception is a schema form nested
deeper than ``MAX_DEPTH``, which only the current reader refuses. A schema
load must build the same registry as one through the tree reader, or raise
the same error at the same place.
"""

import itertools
import re
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import pytest
from hypothesis import given, settings, strategies as st

from widgetspace import (UNINITIALIZED, CorruptTableError, Database, MalformedEncodingError,
                         PersonName, SchemaError, SchemaSyntaxError, SimpleDate, WidgetRegistry)
from widgetspace import datum, fixture_paths, sexpr, store
from widgetspace.compile import (InputBinding, LoadReport, WidgetSpec, install, orphans,
                                 syntax_error)
from widgetspace.datum import Datum
from widgetspace.locales import LocaleTree
from widgetspace.sexpr import (MAX_DEPTH, SexprError, TokenError, is_valid_symbol,
                               normalize_symbol, position, read_int, tokenize, unquote)
from widgetspace.validators import And, Base, Not, Or, ValidatorExpr

# -- the reference ---------------------------------------------------------------

_INT_RE = re.compile(r"-?[0-9]+\Z")
_ATOM_END = set(' \t\r\n()[]";')


@dataclass(frozen=True)
class Token:
    kind: str  # one of ( ) [ ] string int atom
    value: object
    offset: int  # byte offset into the UTF-8 encoding of the source
    line: int
    col: int


def ref_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    offset = 0
    line = 1
    col = 1

    def step(ch: str):
        nonlocal offset, line, col
        offset += len(ch.encode("utf-8"))
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            step(ch)
            i += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                step(text[i])
                i += 1
            continue
        start = (offset, line, col)
        if ch in "()[]":
            tokens.append(Token(ch, ch, *start))
            step(ch)
            i += 1
            continue
        if ch == '"':
            step(ch)
            i += 1
            parts: list[str] = []
            closed = False
            while i < n:
                c = text[i]
                if c == '"':
                    step(c)
                    i += 1
                    closed = True
                    break
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in '"\\':
                        raise SexprError("invalid escape in string", offset, line, col)
                    parts.append(text[i + 1])
                    step(c)
                    step(text[i + 1])
                    i += 2
                    continue
                if c < " " or c == "\x7f":
                    raise SexprError("control character in string", offset, line, col)
                parts.append(c)
                step(c)
                i += 1
            if not closed:
                raise SexprError("unterminated string", *start)
            tokens.append(Token("string", "".join(parts), *start))
            continue
        # bare atom or integer
        j = i
        while j < n and text[j] not in _ATOM_END:
            j += 1
        word = text[i:j]
        if word in ("", "\\"):
            raise SexprError(f"unexpected character {ch!r}", *start)
        for c in word:
            step(c)
        i = j
        if _INT_RE.match(word):
            tokens.append(Token("int", int(word), *start))
        else:
            tokens.append(Token("atom", word, *start))
    return tokens


def ref_describe(tok: Token) -> str:
    if tok.kind == "string":
        return "a string"
    if tok.kind == "int":
        return f"integer {tok.value}"
    if tok.kind == "atom":
        return f"'{tok.value}'"
    return f"'{tok.kind}'"


class RefTokenStream:
    def __init__(self, tokens: list[Token], *, end_offset: int = 0,
                 end_line: int = 1, end_col: int = 1):
        self._tokens = tokens
        self._pos = 0
        self._end = (end_offset, end_line, end_col)

    @classmethod
    def from_text(cls, text: str) -> "RefTokenStream":
        tokens = ref_tokenize(text)
        raw = text.encode("utf-8")
        end_line = text.count("\n") + 1
        last_nl = text.rfind("\n")
        end_col = len(text) - last_nl if last_nl >= 0 else len(text) + 1
        return cls(tokens, end_offset=len(raw), end_line=end_line, end_col=end_col)

    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)

    def peek(self) -> Token | None:
        if self.at_end():
            return None
        return self._tokens[self._pos]

    def next(self, expected: str = "a token") -> Token:
        if self.at_end():
            raise SexprError(f"unexpected end of input, expected {expected}", *self._end)
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def expect(self, kind: str, expected: str | None = None) -> Token:
        what = expected or f"'{kind}'"
        tok = self.next(what)
        if tok.kind != kind:
            raise SexprError(f"expected {what}, found {ref_describe(tok)}",
                             tok.offset, tok.line, tok.col)
        return tok


def ref_loads(text: str) -> Datum:
    """Parse exactly one datum from text."""
    try:
        ts = RefTokenStream.from_text(text)
        value = ref_read_datum(ts)
        trailing = ts.peek()
        if trailing is not None:
            raise SexprError("trailing content after datum", trailing.offset,
                             trailing.line, trailing.col)
        return value
    except SexprError as e:
        raise MalformedEncodingError(str(e), e.offset) from None


def ref_read_datum(ts: RefTokenStream) -> Datum:
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
            items.append(ref_read_datum(ts))
    if tok.kind == "(":
        head = ts.next("'date' or 'name'")
        if head.kind == "atom" and head.value == "date":
            return ref_read_date(ts)
        if head.kind == "atom" and head.value == "name":
            return ref_read_name(ts)
        raise SexprError("expected 'date' or 'name'", head.offset, head.line, head.col)
    raise SexprError(f"unexpected '{tok.kind}'", tok.offset, tok.line, tok.col)


def ref_read_int_in(ts: RefTokenStream, what: str, lo: int, hi: int) -> int:
    tok = ts.expect("int", f"{what} (integer)")
    if not lo <= tok.value <= hi:
        raise SexprError(f"{what} out of range: {tok.value}", tok.offset, tok.line, tok.col)
    return tok.value


def ref_read_date(ts: RefTokenStream) -> SimpleDate:
    year = ref_read_int_in(ts, "year", 0, 9999)
    month = ref_read_int_in(ts, "month", 1, 12)
    day = ref_read_int_in(ts, "day", 1, 31)
    ts.expect(")")
    return SimpleDate(year, month, day)


def ref_read_name(ts: RefTokenStream) -> PersonName:
    parts = [ts.expect("string", "a name part (string)").value for _ in range(4)]
    ts.expect(")")
    return PersonName(*parts)


def ref_parse_tables(text: str, filename: str) -> dict[str, dict[str, Datum]]:
    """Parse one or more concatenated table sections. Line-oriented."""
    tables: dict[str, dict[str, Datum]] = {}
    current: dict[str, Datum] | None = None
    offset = 0
    for line in text.split("\n"):
        if line.strip():
            try:
                name = _ref_parse_header(line)
                if name is not None:
                    if name in tables:
                        raise CorruptTableError(f"table '{name}' declared twice",
                                                filename=filename, offset=offset)
                    current = tables.setdefault(name, {})
                else:
                    if current is None:
                        raise CorruptTableError("missing (table ...) header",
                                                filename=filename, offset=offset)
                    key, value = _ref_parse_pair(line)
                    if key in current:
                        raise CorruptTableError(f"duplicate key '{key}'",
                                                filename=filename, offset=offset)
                    current[key] = value
            except SexprError as e:
                raise CorruptTableError(str(e), filename=filename,
                                        offset=offset + e.offset) from None
        offset += len(line.encode("utf-8")) + 1
    return tables


def _ref_parse_header(line: str) -> str | None:
    """The table name iff the line has exactly the shape '(table <symbol>)'.

    Anything else, including entry pairs whose key happens to be
    'table', falls through to the pair parser.
    """
    ts = RefTokenStream.from_text(line)
    toks = []
    while not ts.at_end():
        toks.append(ts.next())
    if (len(toks) == 4 and toks[0].kind == "(" and toks[3].kind == ")"
            and toks[1].kind == "atom" and toks[1].value == "table"
            and toks[2].kind == "atom"):
        name = normalize_symbol(str(toks[2].value))
        if is_valid_symbol(name):
            return name
    return None


def _ref_parse_pair(line: str) -> tuple[str, Datum]:
    ts = RefTokenStream.from_text(line)
    ts.expect("(")
    key_tok = ts.expect("atom", "a key symbol")
    key = normalize_symbol(str(key_tok.value))
    if not is_valid_symbol(key):
        raise SexprError(f"invalid key '{key}'", key_tok.offset, key_tok.line, key_tok.col)
    value = ref_read_datum(ts)
    ts.expect(")")
    if not ts.at_end():
        tok = ts.peek()
        raise SexprError("trailing content after entry", tok.offset, tok.line, tok.col)
    return key, value


@dataclass(frozen=True)
class RefListNode:
    items: tuple
    offset: int
    line: int
    col: int


def ref_read_forms(text: str) -> list[RefListNode]:
    """Read schema-style source as a list of parenthesized top-level forms."""
    tokens = ref_tokenize(text)
    forms = []
    i = 0
    while i < len(tokens):
        node, i = ref_read_node(tokens, i)
        if not isinstance(node, RefListNode):
            raise SexprError("expected a parenthesized form at top level",
                             node.offset, node.line, node.col)
        forms.append(node)
    return forms


def ref_read_node(tokens: list[Token], i: int):
    """The node that starts at ``tokens[i]``, and the index past it."""
    tok = tokens[i]
    i += 1
    if tok.kind in (")", "]"):
        raise SexprError(f"unbalanced '{tok.kind}'", tok.offset, tok.line, tok.col)
    if tok.kind == "[":
        raise SexprError("brackets are not part of this grammar",
                         tok.offset, tok.line, tok.col)
    if tok.kind == "(":
        items = []
        while True:
            if i == len(tokens):
                raise SexprError("unclosed '('", tok.offset, tok.line, tok.col)
            if tokens[i].kind == ")":
                return RefListNode(tuple(items), tok.offset, tok.line, tok.col), i + 1
            node, i = ref_read_node(tokens, i)
            items.append(node)
    return tok, i


# -- the reference: the tree reader over spellings and its form parsers ----------


class TreeToken:
    """A string, integer or atom of a form; ``position(text, index)`` places it."""

    __slots__ = ("kind", "value", "index")

    def __init__(self, kind: str, value: object, index: int):
        self.kind = kind  # one of string int atom
        self.value = value
        self.index = index  # the token's index in ``tokenize(text)``

    def __repr__(self):
        return f"TreeToken({self.kind!r}, {self.value!r}, {self.index})"


class TreeList:
    """A parenthesized form; ``index`` is its '(' token's, as for a TreeToken."""

    __slots__ = ("items", "index")

    def __init__(self, items: tuple, index: int):
        self.items = items
        self.index = index

    def __repr__(self):
        return f"TreeList({self.items!r}, {self.index})"


def tree_read_forms(text: str) -> list[TreeList]:
    """Read schema-style source as a list of parenthesized top-level forms.

    Forms nest at most ``MAX_DEPTH`` deep. A fault raises SexprError at
    its position.
    """
    tokens = tokenize(text)
    try:
        return _tree_read_forms(tokens)
    except TokenError as e:
        raise SexprError(str(e), *position(text, e.index)) from None


def _tree_read_forms(tokens: list[str]) -> list[TreeList]:
    forms: list[TreeList] = []
    items: list = forms  # the items read so far of the innermost open form
    open_forms = []  # (index of the '(', the enclosing items) of each open form
    for i, tok in enumerate(tokens):
        first = tok[0]
        if first == "(":
            if len(open_forms) == MAX_DEPTH:
                raise TokenError(f"forms nested deeper than {MAX_DEPTH}", i)
            open_forms.append((i, items))
            items = []
        elif first == ")" or first == "]":
            if first == "]" or not open_forms:
                raise TokenError(f"unbalanced '{tok}'", i)
            start, outer = open_forms.pop()
            outer.append(TreeList(tuple(items), start))
            items = outer
        elif first == "[":
            raise TokenError("brackets are not part of this grammar", i)
        elif not open_forms:
            raise TokenError("expected a parenthesized form at top level", i)
        elif first == '"':
            items.append(TreeToken("string", unquote(tok), i))
        elif first in "-0123456789" and _INT_RE.match(tok):
            items.append(TreeToken("int", read_int(tok, i), i))
        else:
            items.append(TreeToken("atom", tok, i))
    if open_forms:
        raise TokenError("unclosed '('", open_forms[-1][0])
    return forms


def tree_head_symbol(form: TreeList) -> str:
    if not form.items or not tree_is_atom(form.items[0]):
        raise TokenError("form must start with a symbol", form.index)
    return normalize_symbol(str(form.items[0].value))


def tree_is_atom(node) -> bool:
    return isinstance(node, TreeToken) and node.kind == "atom"


def tree_require_symbol(node, what: str) -> str:
    if not tree_is_atom(node):
        raise TokenError(f"expected {what} (a symbol)", node.index)
    return normalize_symbol(str(node.value))


def tree_require_literal(node, kind: str, what: str):
    """The value of a ``kind`` token, "string" or "int"."""
    if not (isinstance(node, TreeToken) and node.kind == kind):
        noun = "a string" if kind == "string" else "an integer"
        raise TokenError(f"expected {what} ({noun})", node.index)
    return node.value


def tree_require_list(node, what: str) -> TreeList:
    if not isinstance(node, TreeList):
        raise TokenError(f"expected {what} (a parenthesized list)", node.index)
    return node


def tree_parse_locale_form(form: TreeList) -> tuple[str, Optional[str]]:
    """The locale a locale form names, and its parent (None for 'none')."""
    if len(form.items) != 4:
        raise TokenError("locale form is (locale <name> :parent <name>|none)", form.index)
    child = tree_require_symbol(form.items[1], "a locale name")
    keyword = tree_require_symbol(form.items[2], "':parent'")
    if keyword != "parent" or not str(form.items[2].value).startswith(":"):
        raise TokenError("expected ':parent'", form.items[2].index)
    parent = tree_require_symbol(form.items[3], "a parent locale or 'none'")
    return child, None if parent == "none" else parent


# clause keyword -> the WidgetSpec field it sets
TREE_CLAUSE_PARTS = {
    "index": "max_index", "table": "table", "getter": "getter", "setter": "setter",
    "doc": "doc", "type": "datatype", "generator": "generator",
    "heading": "headings", "input": "inputs", "output": "outputs"}


def tree_parse_widget_form(form: TreeList) -> tuple[WidgetSpec, dict]:
    """The spec a widget form spells, and the node that spelled each part of it.

    The parts are keyed as ``install`` names them: a field name, or
    ``("input", medium)`` and ``("output", medium)`` for the parser and
    formatter names, or the ``id()`` of a base validator.
    """
    if len(form.items) < 3:
        raise TokenError("widget form is (widget <name> <locale> clauses...)", form.index)
    items = form.items
    fields: dict = {"name": tree_require_symbol(items[1], "a widget name"),
                    "locale": tree_require_symbol(items[2], "a locale name")}
    nodes: dict = {"name": items[1], "locale": items[2]}
    i = 3
    while i < len(items):
        node = items[i]
        if not (tree_is_atom(node) and str(node.value).startswith(":")):
            raise TokenError("expected a clause keyword like ':table'", node.index)
        keyword = normalize_symbol(str(node.value))
        part = TREE_CLAUSE_PARTS.get(keyword)
        if part is None:
            raise TokenError(f"unknown clause ':{keyword}'", node.index)
        if part in nodes:  # each clause read records its value's node
            raise TokenError(f"duplicate clause ':{keyword}'", node.index)
        if i + 1 >= len(items):
            raise TokenError(f"clause ':{keyword}' needs a value", node.index)
        value = nodes[part] = items[i + 1]
        i += 2
        if keyword == "index":
            fields[part] = tree_require_literal(value, "int", "an occurrence bound")
        elif keyword == "doc":
            fields[part] = tree_require_literal(value, "string", "documentation text")
        elif keyword == "heading":
            fields[part] = tree_parse_headings(value)
        elif keyword == "input":
            fields[part] = tree_parse_entries(
                value, "input", "(<medium> <parser> <vexpr>)", nodes,
                lambda parser, vexpr: InputBinding(
                    tree_require_symbol(parser, "a parser name"),
                    tree_parse_vexpr(vexpr, nodes)))
        elif keyword == "output":
            fields[part] = tree_parse_entries(
                value, "output", "(<medium> <formatter>)", nodes,
                lambda formatter: tree_require_symbol(formatter, "a formatter name"))
        else:
            fields[part] = tree_require_symbol(value, f"a {keyword} name")
    return WidgetSpec(**fields), nodes


def tree_parse_headings(node) -> dict:
    node = tree_require_list(node, "heading pairs")
    if not node.items or len(node.items) % 2 != 0:
        raise TokenError("heading clause wants (<medium> <text> ...) pairs", node.index)
    headings: dict = {}
    for j in range(0, len(node.items), 2):
        medium = tree_require_symbol(node.items[j], "a medium")
        text = tree_require_literal(node.items[j + 1], "string", "heading text")
        if medium in headings:
            raise TokenError(f"duplicate heading for medium '{medium}'", node.items[j].index)
        headings[medium] = text
    return headings


def tree_parse_entries(node, clause: str, shape: str, nodes: dict, build: Callable) -> dict:
    """The medium map of an ``:input`` or ``:output`` clause, ``((<medium> ...) ...)``.

    Every entry has the slots that ``shape`` spells. ``build`` makes the
    entry's value from the nodes after the medium; the first of them (the
    parser or formatter name) is recorded as ``(clause, medium)``.
    """
    node = tree_require_list(node, f"{clause} entries")
    if not node.items:
        raise TokenError(f"{clause} clause must not be empty", node.index)
    arity = shape.count("<")
    what = f"an {clause} entry {shape}"
    entries: dict = {}
    for entry in node.items:
        entry = tree_require_list(entry, what)
        if len(entry.items) != arity:
            raise TokenError(f"{clause} entry is {shape}", entry.index)
        medium = tree_require_symbol(entry.items[0], "a medium")
        value = build(*entry.items[1:])
        if medium in entries:
            raise TokenError(f"duplicate {clause} entry for medium '{medium}'", entry.index)
        entries[medium] = value
        nodes[(clause, medium)] = entry.items[1]
    return entries


def tree_parse_vexpr(node, nodes: dict) -> ValidatorExpr:
    """Parse one validator expression, recording the node of each base validator.

    Grammar: symbol | (symbol arg...) | (and vexpr...) | (or vexpr... msg)
    | (not vexpr msg). Names and arities are checked by ``install``.
    """
    if tree_is_atom(node):
        expr = Base(normalize_symbol(str(node.value)))
        nodes[id(expr)] = node
        return expr
    node = tree_require_list(node, "a validator expression")
    if not node.items:
        raise TokenError("empty validator expression", node.index)
    head = tree_require_symbol(node.items[0], "a validator or combinator name")
    rest = node.items[1:]
    if head == "and":
        if not rest:
            raise TokenError("'and' needs at least one child", node.index)
        return And(tuple(tree_parse_vexpr(child, nodes) for child in rest))
    if head == "or":
        if len(rest) < 2:
            raise TokenError("'or' needs at least one child and a message", node.index)
        message = tree_require_literal(rest[-1], "string", "the 'or' failure message")
        children = tuple(tree_parse_vexpr(child, nodes) for child in rest[:-1])
        return Or(children, message)
    if head == "not":
        if len(rest) != 2:
            raise TokenError("'not' wants exactly a child and a message", node.index)
        message = tree_require_literal(rest[1], "string", "the 'not' failure message")
        return Not(tree_parse_vexpr(rest[0], nodes), message)
    args = []
    for arg in rest:
        if isinstance(arg, TreeToken) and arg.kind in ("int", "string"):
            args.append(arg.value)
        else:
            raise TokenError("validator arguments must be integers or strings", arg.index)
    expr = Base(head, tuple(args))
    nodes[id(expr)] = node
    return expr


class TreeRegistry(WidgetRegistry):
    """A registry that reads schema text through the tree reader."""

    def _load_sources(self, sources, replace: bool) -> LoadReport:
        """Load ``(filename, text)`` sources into one staged snapshot."""
        n_locales = 0
        n_widgets = 0
        with self._staged() as (tree, specs):
            for filename, text in sources:
                locales, widgets = self._load_source(filename, text, tree, specs, replace)
                n_locales += locales
                n_widgets += widgets
        return LoadReport(n_locales, n_widgets, orphans(tree, specs))

    def _load_source(self, filename: str, text: str, tree: LocaleTree, specs: dict,
                     replace: bool) -> tuple[int, int]:
        """Add one source's forms to a staged snapshot; the locales and widgets it added.

        The one place that positions an error in schema text: the form
        readers raise TokenError at a node's token index, and an error of
        ``tree.add`` or ``install`` is placed at its form or its node. The
        form tree is dropped on return, while the collector is still paused.
        """
        try:
            forms = tree_read_forms(text)
        except SexprError as e:
            raise syntax_error(e, filename) from None

        def place(cls, message: str, index: int) -> SchemaError:
            _, line, col = position(text, index)
            return cls(message, filename=filename, line=line, col=col)

        n_locales = 0
        n_widgets = 0
        for form in forms:
            try:
                head = tree_head_symbol(form)
                if head == "locale":
                    child, parent = tree_parse_locale_form(form)
                    try:
                        tree.add(child, parent, replace=replace)
                    except SchemaError as e:
                        raise place(type(e), str(e), form.index) from None
                    n_locales += 1
                elif head == "widget":
                    spec, nodes = tree_parse_widget_form(form)
                    # the one change: ``install`` now takes token indices
                    install(spec, tree, specs, self.registries,
                            source=(place, {part: n.index for part, n in nodes.items()}))
                    n_widgets += 1
                else:
                    raise TokenError(f"unknown form '{head}'", form.index)
            except TokenError as e:
                raise place(SchemaSyntaxError, str(e), e.index) from None
        return n_locales, n_widgets


# -- the scanners against the reference -----------------------------------------

FRAGMENTS = ["(", ")", "[", "]", '"', "\\", ";", " ", "\t", "\n", "\r\n", "\r",
             "a", "k", "-", "0", "7", "42", "-3", "é", "€", "\U0001d11e",
             "\x00", "\x01", "\x0b", "\x7f", "#uninit", "date", "name", "table",
             ":x", "\\\\", '\\"', "; note é €", '"é"', '"a\\"b\\\\"', '"x"']

sexpr_text = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join),
    st.text(alphabet=st.sampled_from("()[]\";\\ \t\r\n-07aé€\x01\x7f"), max_size=40))


def _tokens(tokenize, text):
    try:
        return [(t.kind, type(t.value), t.value, t.offset, t.line, t.col)
                for t in tokenize(text)]
    except SexprError as e:
        return ("error", str(e), e.offset, e.line, e.col)


def _spellings(text):
    """The position-free scan of ``text``, placed: each token's kind, value and
    position, then the end of input's position; or the error."""
    try:
        tokens = sexpr.tokenize(text)
    except SexprError as e:
        return ("error", str(e), e.offset, e.line, e.col)
    placed = []
    for i, tok in enumerate(tokens):
        kind, value = sexpr.classify(tok)
        placed.append((kind, type(value), value, *sexpr.position(text, i)))
    return placed + [sexpr.position(text, len(tokens))]


@settings(max_examples=1000)
@given(sexpr_text)
def test_position_free_scan_matches_reference(text):
    expected = _tokens(ref_tokenize, text)
    if isinstance(expected, list):
        expected.append(RefTokenStream.from_text(text)._end)
    assert _spellings(text) == expected


DATUM_FRAGMENTS = ["[", "]", "(", ")", "date", "name", "#uninit", "#other", "0", "1", "-2",
                   "007", "12", "13", "31", "32", "9999", "10000", '"a"', '"é€"', '"a\\"b"',
                   '""', '"', "\\", "x", ";", "\n"]
datum_text = st.one_of(
    st.lists(st.sampled_from(DATUM_FRAGMENTS), max_size=25).map(" ".join),
    st.lists(st.sampled_from(DATUM_FRAGMENTS), max_size=25).map("".join),
    st.recursive(st.sampled_from(['#uninit', '-3', '"é"', '(date 2020 2 30)',
                                  '(name "a" "b" "" "d")']),
                 lambda inner: st.lists(inner, max_size=4).map(
                     lambda items: "[" + " ".join(items) + "]"), max_leaves=12),
    sexpr_text)


def _loaded(loads, text):
    try:
        return ("value", loads(text))
    except MalformedEncodingError as e:
        return ("error", str(e), e.offset)


@settings(max_examples=1000)
@given(datum_text)
def test_loads_matches_reference(text):
    assert _loaded(datum.loads, text) == _loaded(ref_loads, text)


TABLE_NAMES = ["t", "u", "T", "table", "a-b", "9", "x y", "é"]
KEYS = ["k", "K", "j", ":k", "table", "a_1", "9", "k-é", "(", '"k"', "KEY", ":key", "::key"]
DATA = ["1", "-2", "007", '"é€"', '"a\\"b"', '"\\\\"', "#uninit", "(date 2020 1 2)",
        "(date 2020 13 2)", "(date 2020 1)", '(name "a" "é" "" "d")', '(name "a")',
        '[1 [2] "x"]', "[1 2", "#other", "(bogus)", "", '"open', '"bad\\q"', "\\",
        "(date 0 1 1)", "(date 9999 12 31)", "(date 10000 1 1)", "(date 2020 0 1)",
        "(date 2020 12 1)", "(date 2020 1 0)", "(date 2020 1 31)", "(date 2020 1 32)",
        "(date 012 012 031)", "(date 0 01 1)", "(date -1 1 1)", "(date -0 1 1)",
        "(date 12345 1 1)", "(date 02020 1 1)", "(date 2020 1 2 3)", "(date 2020 1 x)",
        "(date 2020 1 2", "(date 2020 1 2]", "(date ٢٠٢٠ 1 2)", "(date 2020 ² 2)"]

table_line = st.one_of(
    st.builds("(table {})".format, st.sampled_from(TABLE_NAMES)),
    st.builds("({} {}){}".format, st.sampled_from(KEYS), st.sampled_from(DATA),
              st.sampled_from(["", "", " ", " ; é", " x", ")"])),
    st.sampled_from(["", " ", "\t", "; comment é"]),
    sexpr_text.map(lambda text: text.replace("\n", " ")),
).filter(lambda line: line.strip() or not line.strip(" \t\r\n"))
# The filter drops lines of whitespace that str.strip() removes and the
# tokenizer does not, such as a lone "\x0b": the reference skips them as
# blank, and _parse_tables rejects them (see test_store.py).
table_text = st.lists(table_line, max_size=8).map("\n".join)


def _tables(parse, text):
    try:
        return parse(text, "t.tbl")
    except CorruptTableError as e:
        return ("error", str(e), e.filename, e.offset)


@settings(max_examples=600)
@given(table_text)
def test_parse_tables_matches_reference(text):
    assert _tables(store._parse_tables, text) == _tables(ref_parse_tables, text)


def test_each_entry_parses_like_the_reference():
    # every key with every datum, which the drawn tables above reach only by chance
    for key, data in itertools.product(KEYS, DATA):
        text = f"(table t)\n({key} {data})\n"
        assert _tables(store._parse_tables, text) == _tables(ref_parse_tables, text), text
        assert _loaded(datum.loads, data) == _loaded(ref_loads, data), data


FIXTURE_LINES = [path.read_text(encoding="utf-8").splitlines(keepends=True)
                 for path in fixture_paths()]
SCHEMA_INSERTS = ["(", ")", "[", "]", '"', "\\", ";", " ", "\n", "\r\n", "\r", "é", "€",
                  "\U0001d11e", "\x01", "; note é\n", '"é€"', '"a\\"b"', "-3", "42", ":x",
                  "(and ", "(or ", '"m")', "(widget w root ", "(locale x :parent none)",
                  "(" * MAX_DEPTH, ")" * MAX_DEPTH]


@st.composite
def mutated_fixture(draw):
    """A run of whole lines of a fixture schema with a few splices: a short
    span replaced by one of ``SCHEMA_INSERTS``."""
    lines = draw(st.sampled_from(FIXTURE_LINES))
    start = draw(st.integers(0, len(lines) - 1))
    text = "".join(lines[start:start + draw(st.integers(1, 16))])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(st.sampled_from(SCHEMA_INSERTS)) + text[at + cut:]
    return text


@st.composite
def nested_form(draw):
    """A form nested about ``MAX_DEPTH`` deep, some levels holding atoms."""
    depth = draw(st.integers(MAX_DEPTH - 3, MAX_DEPTH + 3))
    atoms = draw(st.lists(st.sampled_from(["", "and ", "x ", '"é" ', "7 "]),
                          min_size=depth, max_size=depth))
    closers = draw(st.integers(depth - 1, depth + 1))
    return "(widget w root\n" + "(".join(atoms) + "z" + ")" * closers


schema_text = st.one_of(mutated_fixture(), nested_form(), sexpr_text)


@dataclass(frozen=True)
class SpanList:
    items: tuple
    index: int


@dataclass(frozen=True)
class SpanToken:
    kind: str
    value: object
    index: int


def span_forms(text: str) -> list[SpanList]:
    """The forms ``read_spans`` finds in ``text``, as nodes: each list node
    is walked through ``ends``, and each token is classified."""
    tokens, ends = sexpr.read_spans(text)

    def node(i):
        if tokens[i] != "(":
            assert ends[i] == i
            return SpanToken(*sexpr.classify(tokens[i], i), i)
        assert tokens[ends[i]] == ")"
        items = []
        j = i + 1
        while j < ends[i]:
            items.append(node(j))
            j = ends[j] + 1
        assert j == ends[i]
        return SpanList(tuple(items), i)

    forms = []
    i = 0
    while i < len(tokens):
        forms.append(node(i))
        i = ends[i] + 1
    return forms


def _forms(read_forms, text, place):
    """The forms of ``text`` as nested tuples, each node with its kind, value
    and ``place(node)``; or the error with its position."""
    try:
        forms = read_forms(text)
    except SexprError as e:
        return ("error", str(e), e.offset, e.line, e.col)

    def node(n):
        if isinstance(n, (SpanList, RefListNode)):
            return ("(", place(n), [node(item) for item in n.items])
        return (n.kind, type(n.value), n.value, place(n))
    return [node(form) for form in forms]


@settings(max_examples=300, deadline=None)
@given(schema_text)
def test_read_forms_matches_reference(text):
    got = _forms(span_forms, text, lambda n: sexpr.position(text, n.index))
    if got[:2] == ("error", f"forms nested deeper than {MAX_DEPTH}"):
        # the reference reads on; up to the refused '(', it finds only open forms
        opened = text.encode("utf-8")[:got[2]].decode("utf-8")
        assert ref_tokenize(text[len(opened):])[0].kind == "("
        tokens = ref_tokenize(opened)
        assert _forms(ref_read_forms, opened, None)[:2] == ("error", "unclosed '('")
        assert [t.kind for t in tokens].count("(") - [t.kind for t in tokens].count(")") \
            == MAX_DEPTH
        return
    assert got == _forms(ref_read_forms, text, lambda n: (n.offset, n.line, n.col))


WHOLE_FIXTURES = "".join(path.read_text(encoding="utf-8") for path in fixture_paths())


@st.composite
def spliced_fixtures(draw):
    """Every fixture schema, in load order, with a few splices."""
    text = WHOLE_FIXTURES
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(st.sampled_from(SCHEMA_INSERTS)) + text[at + cut:]
    return text


REPEAT_PRELUDE = "(locale root :parent none)\n(locale mid :parent root)\n"
REPEAT_LOCALES = ["root", "mid", "MID", ":root"]
REPEAT_CLAUSES = [
    ":input ((default identity (and required alphabetic (length 1 23))))",
    ":input ((default parse-date-fbi (and required date)) (m1 identity numeric))",
    ':input ((m identity (or (not required "Must be absent")'
    ' (and alphabetic (length 1 28)) "say \\"no\\"")))',
    ":output ((m2 identity) (m3 identity) (default string-upcase))",
    ":output ((default format-simple-date-long))",
    ':heading (default "Field 9" m1 "a\\\\b")',
    ':heading (default "Field 9")',
    ":table t", ":index 2", ':doc "d"', ":generator gen-sid",
]
# (old, new): one small edit to one clause, made at the first ``old``
REPEAT_EDITS = [
    ("default", "DEFAULT"), ("default", ":default"), ("default", "::default"),
    ("identity", "Identity"), ("identity", ":identity"), ("identity", "::identity"),
    ("Field", "FIELD"), ("Field", 'Fi\\"eld'), ("Must", "M\\\\ust"),
    ("required", "ghost"), ("(length 1 23)", "(length 1)"), ("23", '"23"'), ("23", "x"),
    ("alphabetic", "(alphabetic)"), ("m2", "m3"), ("identity", "format-ghost"),
    ("(and", "(and)"), ("date)", "date 1)"), ("9", "9 m1"), (":table t", ":table"),
    (":index 2", ":index 0"), (":index 2", ":index 10001"), ("(m", "(m m"),
    ('"', "'"), ("))", ")"), (" (", " )("), (":output", ":input"), (":input", ":output"),
]


@st.composite
def repeated_clauses(draw):
    """Widget forms that repeat a few clauses, some with a small edit, split
    between two sources."""
    forms = []
    for k in range(draw(st.integers(1, 10))):
        clauses = draw(st.lists(st.sampled_from(REPEAT_CLAUSES), max_size=4,
                                unique_by=lambda clause: clause.split()[0]))
        if clauses and draw(st.integers(0, 5)) == 0:
            at = draw(st.integers(0, len(clauses) - 1))
            old, new = draw(st.sampled_from(REPEAT_EDITS))
            clauses[at] = clauses[at].replace(old, new, 1)
        locale = draw(st.sampled_from(REPEAT_LOCALES))
        forms.append(f"(widget w{k % 4} {locale}\n  " + "\n  ".join(clauses) + ")\n")
    cut = draw(st.integers(0, len(forms)))
    return [REPEAT_PRELUDE + "".join(forms[:cut]), "".join(forms[cut:])]


schema_sources = st.one_of(
    schema_text.map(lambda text: [text]),
    spliced_fixtures().map(lambda text: [text]),
    repeated_clauses())


def _registry(registry_class, texts):
    """What loading ``texts`` as one batch of files builds, or the error."""
    reg = registry_class()
    try:
        report = reg._load_sources([(f"s{k}.scm", text) for k, text in enumerate(texts)],
                                   False)
    except SchemaError as e:
        return ("error", type(e), str(e), e.filename, e.line, e.col)
    return (reg.export_state(), report.locales, report.widgets, report.warnings)


@settings(max_examples=400, deadline=None)
@given(schema_sources)
def test_load_matches_tree_reader(texts):
    assert _registry(WidgetRegistry, texts) == _registry(TreeRegistry, texts)


def test_repeated_clauses_load_like_the_tree_reader():
    # every clause, every edit, and each edit in a later repeat of its clause
    for clause in REPEAT_CLAUSES:
        for old, new in REPEAT_EDITS + [("", "")]:
            edited = clause.replace(old, new, 1)
            texts = [REPEAT_PRELUDE + f"(widget a root {clause})\n(widget b mid :table u)\n",
                     f"(widget c mid {clause})\n(widget d root :index 1 {edited})\n"]
            assert _registry(WidgetRegistry, texts) == _registry(TreeRegistry, texts)


def test_colon_spellings_load_like_the_tree_reader():
    # normalization drops one leading ':', so '::x' and a later ':x' read differently
    for clause in REPEAT_CLAUSES:
        for word in ("default", "identity", "m1", "m2", "required"):
            if word not in clause:
                continue
            for first, second in itertools.product(["", ":", "::"], repeat=2):
                texts = [REPEAT_PRELUDE
                         + f"(widget a root {clause.replace(word, first + word, 1)})\n",
                         f"(widget b mid {clause.replace(word, second + word, 1)})\n"]
                assert _registry(WidgetRegistry, texts) == _registry(TreeRegistry, texts)


# -- the schema scanner against the pattern --------------------------------------

def _scanned(scan, text):
    try:
        return scan(text)
    except SexprError as e:
        return ("error", str(e), e.offset, e.line, e.col)


def _assert_scans_like_tokenize(text):
    """``read_spans`` takes ``tokenize``'s spellings from its own scanner: the
    same tokens, or the same lexical fault at the same place."""
    expected = _scanned(tokenize, text)
    assert _scanned(sexpr._scan, text) == expected
    got = _scanned(lambda t: sexpr.read_spans(t)[0], text)
    if isinstance(expected, list) and isinstance(got, tuple):
        return  # a structural fault, which only read_spans looks for
    assert got == expected


@settings(max_examples=1000, deadline=None)
@given(st.one_of(sexpr_text, schema_text, spliced_fixtures()))
def test_schema_scan_matches_tokenize(text):
    _assert_scans_like_tokenize(text)


@pytest.mark.parametrize("text,spellings", [
    ('; a "quote\n(a "b")', ["(", "a", '"b"', ")"]),                 # '"' in a comment
    ('(a "b;c(d" e)', ["(", "a", '"b;c(d"', "e", ")"]),                # ';' and '(' in a string
    ("(a\x0bb c\xa0d e\u2003f)", ["(", "a\x0bb", "c\xa0d", "e\u2003f", ")"]),  # not whitespace
    ("(a\rb\tc)", ["(", "a", "b", "c", ")"]),                           # a bare '\r'
    ("(a) ; no newline", ["(", "a", ")"]),                              # a comment at the end
    ('(a "b\\"c\\\\" d)', ["(", "a", '"b\\"c\\\\"', "d", ")"]),             # escapes
    ('(a"b"c)', ["(", "a", '"b"', "c", ")"]),                           # a string ends atoms
    ("(a;b\nc)", ["(", "a", "c", ")"]),                                 # a comment ends an atom
    ("", []),
])
def test_scanner_branches(text, spellings):
    assert sexpr._scan(text) == spellings
    _assert_scans_like_tokenize(text)


@pytest.mark.parametrize("text,fault", [
    ('(a "b', ("unterminated string", 3, 1, 4)),
    ('(a "b\x01")', ("control character in string", 5, 1, 6)),
    ("(a \\ b)", ("unexpected character '\\\\'", 3, 1, 4)),
    ('(a \\)\n"', ("unexpected character '\\\\'", 3, 1, 4)),  # the first fault raises
])
def test_scanner_faults(text, fault):
    with pytest.raises(SexprError) as exc:
        sexpr._scan(text)
    assert (str(exc.value), exc.value.offset, exc.value.line, exc.value.col) == fault
    _assert_scans_like_tokenize(text)


# -- pinned behaviour -------------------------------------------------------------

def test_cold_load_tokenizes_each_nonblank_line_once(tmp_path, monkeypatch):
    root = tmp_path / "db"
    root.mkdir()
    text = '(table t)\n(a 1)\n\n(b "é")\n   \n(c [1 2])\n'
    (root / "t.tbl").write_text(text, encoding="utf-8")
    seen = []
    tokenize = sexpr.tokenize

    def counting(line):
        seen.append(line)
        return tokenize(line)

    monkeypatch.setattr(sexpr, "tokenize", counting)
    assert Database(root).get("t", "b") == "é"
    assert seen == ["(table t)", "(a 1)", '(b "é")', "(c [1 2])"]


def test_corrupt_table_offset_counts_bytes(tmp_path):
    root = tmp_path / "db"
    root.mkdir()
    # line 3 starts at byte 19 ('é' is two bytes); 'junk' sits 3 bytes into it
    (root / "t.tbl").write_text('(table t)\n(a "é")\n(b junk)\n', encoding="utf-8")
    with pytest.raises(CorruptTableError) as exc:
        Database(root).get("t", "a")
    assert exc.value.offset == 22
    assert str(exc.value) == "t.tbl: unknown atom 'junk' (byte 22)"


def test_corrupt_table_offset_after_non_ascii_on_the_line(tmp_path):
    root = tmp_path / "db"
    root.mkdir()
    (root / "t.tbl").write_text('(table t)\n(k "é€" junk)\n', encoding="utf-8")
    with pytest.raises(CorruptTableError) as exc:
        Database(root).get("t", "k")
    # byte 10 starts the pair line; 'junk' is 8 characters but 11 bytes in
    assert exc.value.offset == 21
    assert "expected ')', found 'junk'" in str(exc.value)


def test_schema_error_column_counts_characters():
    with pytest.raises(SchemaSyntaxError) as exc:
        WidgetRegistry().load_schema('(locale root :parent none)\n("é€" ]', filename="s.scm")
    assert (exc.value.line, exc.value.col) == (2, 7)
    assert str(exc.value) == "s.scm:2:7: unbalanced ']'"


def test_integer_literal_longer_than_the_limit_is_placed():
    limit = sexpr.MAX_INT_DIGITS
    longest, longer = "-" + "9" * limit, "9" * (limit + 1)
    assert sexpr.classify(longest) == ("int", -(10 ** limit - 1))
    assert sexpr.describe("0" * limit) == "integer 0"
    for call in (sexpr.classify, sexpr.describe):
        with pytest.raises(sexpr.TokenError) as exc:
            call(longer, 7)
        assert (str(exc.value), exc.value.index) == (
            f"integer literal longer than {limit} digits", 7)
    with pytest.raises(SexprError) as exc:
        sexpr.read_spans(f"(a {longest})\n(b\n  {longer})")
    assert (exc.value.offset, exc.value.line, exc.value.col) == (len(longest) + 10, 3, 3)


LONG_INTEGERS = st.one_of(
    st.integers(0, sexpr.MAX_INT_DIGITS - 1).map(lambda n: 10 ** n),
    st.integers(1, sexpr.MAX_INT_DIGITS).map(lambda n: 10 ** n - 1),
    st.integers(-(10 ** sexpr.MAX_INT_DIGITS - 1), 10 ** sexpr.MAX_INT_DIGITS - 1),
    st.builds(lambda digits, sign: sign * int("".join(digits) or "0"),
              st.lists(st.sampled_from(["0", "1", "9"]), max_size=sexpr.MAX_INT_DIGITS),
              st.sampled_from([1, -1])))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int conversion")
@settings(max_examples=200)
@given(LONG_INTEGERS)
def test_integers_convert_under_the_least_interpreter_limit(n):
    text = str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least the interpreter accepts
    try:
        assert sexpr.int_text(n) == text
        assert sexpr.read_int(text, 0) == n
        assert datum.dumps((n,)) == f"[{text}]"
        assert datum.loads(text) == n
    finally:
        sys.set_int_max_str_digits(limit)
