"""The s-expression scanner and readers against the implementations they replaced.

The references below are earlier implementations, kept verbatim apart
from their names: the per-character tokenizer, and the table parser,
datum reader and schema reader over positioned tokens. On any input, the
position-free scan placed by ``position`` must give the reference's
tokens and positions, and the table parser, ``datum.loads`` and
``read_forms`` the same values, or the same errors at the same
positions. The one exception is a schema form nested deeper than
``MAX_DEPTH``, which only the current reader refuses.
"""

import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from widgetspace import (UNINITIALIZED, CorruptTableError, Database, MalformedEncodingError,
                         PersonName, SchemaSyntaxError, SimpleDate, WidgetRegistry)
from widgetspace import datum, fixture_paths, sexpr, store
from widgetspace.datum import Datum
from widgetspace.sexpr import MAX_DEPTH, SexprError, is_valid_symbol, normalize_symbol

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
KEYS = ["k", "K", "j", ":k", "table", "a_1", "9", "k-é", "(", '"k"']
DATA = ["1", "-2", "007", '"é€"', '"a\\"b"', '"\\\\"', "#uninit", "(date 2020 1 2)",
        "(date 2020 13 2)", "(date 2020 1)", '(name "a" "é" "" "d")', '(name "a")',
        '[1 [2] "x"]', "[1 2", "#other", "(bogus)", "", '"open', '"bad\\q"', "\\"]

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


def _forms(read_forms, text, place):
    """The forms of ``text`` as nested tuples, each node with its kind, value
    and ``place(node)``; or the error with its position."""
    try:
        forms = read_forms(text)
    except SexprError as e:
        return ("error", str(e), e.offset, e.line, e.col)

    def node(n):
        if isinstance(n, (sexpr.ListNode, RefListNode)):
            return ("(", place(n), [node(item) for item in n.items])
        return (n.kind, type(n.value), n.value, place(n))
    return [node(form) for form in forms]


@settings(max_examples=300, deadline=None)
@given(schema_text)
def test_read_forms_matches_reference(text):
    got = _forms(sexpr.read_forms, text, lambda n: sexpr.position(text, n.index))
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
        sexpr.read_forms(f"(a {longest})\n(b\n  {longer})")
    assert (exc.value.offset, exc.value.line, exc.value.col) == (len(longest) + 10, 3, 3)
