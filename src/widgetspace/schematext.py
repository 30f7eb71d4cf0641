"""The schema-text reader: the forms of schema source, read into specs.

Schema files are s-expressions::

    (locale <sym> :parent <sym>|none)
    (widget <name> <locale>
      :index <int> :table <sym> :getter <sym> :setter <sym>
      :doc <string> :type <sym> :generator <sym>
      :heading (<medium> <string> ...)
      :input ((<medium> <parser> <vexpr>) ...)
      :output ((<medium> <formatter>) ...))

This module checks syntax only: a widget form's parts go, as spelled, to
the builder (``compile.Build``), and what they mean is checked by
``compile.install``. Each distinct ``:input``, ``:output`` and ``:heading``
clause is read once per load, and the specs that spell it alike share its
parsed bindings. A locale form hands its spellings to ``LocaleTree.add``,
which refuses a locale that begins with ':'.

Only ``compile.load`` imports this module, so a command that reads a
workspace and never a schema does not load it.
"""

from __future__ import annotations

from typing import Callable, Optional

from .compile import Build, InputBinding, WidgetSpec, install, syntax_error
from .errors import SchemaError, SchemaSyntaxError
from .locales import LocaleTree
from .sexpr import (_INT_RE, SexprError, TokenError, classify, normalize_symbol, position,
                    read_spans)
from .validators import And, Base, Not, Or, ValidatorExpr


def load_source(filename: str, text: str, tree: LocaleTree, specs: dict, registries,
                replace: bool, build: Build) -> tuple[int, int]:
    """Add one source's forms to a staged (tree, specs); the locales and widgets it added.

    The one place that positions an error in schema text: the form
    readers raise TokenError at a node's token index, and an error of
    ``tree.add`` or ``install`` is placed at its form or its node.
    """
    try:
        reader = _FormReader(*read_spans(text), build)
    except SexprError as e:
        raise syntax_error(e, filename) from None

    def place(cls, message: str, index: int) -> SchemaError:
        _, line, col = position(text, index)
        return cls(message, filename=filename, line=line, col=col)

    n_locales = 0
    n_widgets = 0
    for form in reader.forms():
        try:
            head = reader.head_symbol(form)
            if head == "locale":
                child, parent = reader.locale_form(form)
                try:
                    tree.add(child, parent, replace=replace)
                except SchemaError as e:
                    raise place(type(e), str(e), form) from None
                n_locales += 1
            elif head == "widget":
                spec, nodes = reader.widget_form(form)
                install(spec, tree, specs, registries, build.checked, (place, nodes))
                n_widgets += 1
            else:
                raise TokenError(f"unknown form '{head}'", form)
        except TokenError as e:
            raise place(SchemaSyntaxError, str(e), e.index) from None
    return n_locales, n_widgets


# clause keyword -> the WidgetSpec field it sets
_CLAUSE_PARTS = {
    "index": "max_index", "table": "table", "getter": "getter", "setter": "setter",
    "doc": "doc", "type": "datatype", "generator": "generator",
    "heading": "headings", "input": "inputs", "output": "outputs"}


class _FormReader:
    """The forms of one schema text, read from its token spellings.

    A node is the index of its first token in the spellings. ``ends[i]`` is
    the last token of the node at ``i`` (``sexpr.read_spans``), so the items
    of a form are walked without a node tree. A fault raises TokenError at
    the node at fault, which ``load_source`` places in the text.
    """

    def __init__(self, tokens: list[str], ends: list[int], build: Build):
        self.tokens = tokens
        self.ends = ends
        self.build = build

    def forms(self):
        """The node of each top-level form, in order."""
        i = 0
        while i < len(self.tokens):
            yield i
            i = self.ends[i] + 1

    def items(self, i: int) -> list[int]:
        """The nodes inside the form at ``i``; none if ``i`` is not a form."""
        ends = self.ends
        end = ends[i]
        items = []
        j = i + 1
        while j < end:
            items.append(j)
            j = ends[j] + 1
        return items

    def is_symbol(self, i: int) -> bool:
        """Whether token ``i`` is an atom, as ``classify`` has it: not a bracket
        or a string by its first character, and not an integer."""
        tok = self.tokens[i]
        first = tok[0]
        return first not in '()[]"' and not (first in "-0123456789" and _INT_RE.match(tok))

    def head_symbol(self, form: int) -> str:
        if self.ends[form] == form + 1 or not self.is_symbol(form + 1):
            raise TokenError("form must start with a symbol", form)
        return normalize_symbol(self.tokens[form + 1])

    def spelling(self, i: int, what: str) -> str:
        if not self.is_symbol(i):
            raise TokenError(f"expected {what} (a symbol)", i)
        return self.tokens[i]

    def symbol(self, i: int, what: str) -> str:
        return self.build.symbol(self.spelling(i, what))

    def literal(self, i: int, kind: str, what: str):
        """The value of a ``kind`` token, "string" or "int"."""
        found, value = classify(self.tokens[i], i)
        if found != kind:
            noun = "a string" if kind == "string" else "an integer"
            raise TokenError(f"expected {what} ({noun})", i)
        return value

    def list_items(self, i: int, what: str) -> list[int]:
        if self.tokens[i] != "(":
            raise TokenError(f"expected {what} (a parenthesized list)", i)
        return self.items(i)

    def locale_form(self, form: int) -> tuple[str, Optional[str]]:
        """The locale a locale form names and its parent (None for 'none'), as spelled."""
        items = self.items(form)
        if len(items) != 4:
            raise TokenError("locale form is (locale <name> :parent <name>|none)", form)
        child = self.spelling(items[1], "a locale name")
        if self.tokens[items[2]] != ":parent":  # any other spelling is checked in full
            keyword = self.symbol(items[2], "':parent'")
            if keyword != "parent" or not self.tokens[items[2]].startswith(":"):
                raise TokenError("expected ':parent'", items[2])
        parent = self.spelling(items[3], "a parent locale or 'none'")
        return child, None if normalize_symbol(parent) == "none" else parent

    def widget_form(self, form: int) -> tuple[WidgetSpec, dict]:
        """The spec a widget form spells, and the node that spelled each part of it.

        The parts are keyed as ``install`` names them: a field name, or
        ``("input", medium)`` and ``("output", medium)`` for the parser and
        formatter names, or the ``id()`` of a base validator. A clause read
        earlier in the load is not read again, and its entries get no
        node: its first reader's spec passed ``install``'s checks of them.
        """
        items = self.items(form)
        if len(items) < 3:
            raise TokenError("widget form is (widget <name> <locale> clauses...)", form)
        parts: dict = {"name": self.spelling(items[1], "a widget name"),
                       "locale": self.spelling(items[2], "a locale name"), "max_index": 1}
        nodes: dict = {"name": items[1], "locale": items[2]}
        k = 3
        while k < len(items):
            node = items[k]
            if not self.tokens[node].startswith(":"):  # so it is a symbol
                raise TokenError("expected a clause keyword like ':table'", node)
            keyword = normalize_symbol(self.tokens[node])
            part = _CLAUSE_PARTS.get(keyword)
            if part is None:
                raise TokenError(f"unknown clause ':{keyword}'", node)
            if part in nodes:  # each clause read records its value's node
                raise TokenError(f"duplicate clause ':{keyword}'", node)
            if k + 1 >= len(items):
                raise TokenError(f"clause ':{keyword}' needs a value", node)
            value = nodes[part] = items[k + 1]
            k += 2
            if keyword == "index":
                parts[part] = self.literal(value, "int", "an occurrence bound")
            elif keyword == "doc":
                parts[part] = self.literal(value, "string", "documentation text")
            elif part in ("headings", "inputs", "outputs"):  # read here, so faults come in order
                parts[part] = self.build.medium_map(
                    part, (part, tuple(self.tokens[value:self.ends[value] + 1])),
                    lambda: getattr(self, part)(value, nodes))
            else:
                parts[part] = self.spelling(value, f"a {keyword} name")
        return self.build.spec(parts), nodes

    # Each clause reader lists the clause's (medium, value) entries as spelled,
    # and records in ``nodes`` the node of each part ``install`` may place an
    # error at.

    def headings(self, i: int, nodes: dict):
        items = self.list_items(i, "heading pairs")
        if not items or len(items) % 2 != 0:
            raise TokenError("heading clause wants (<medium> <text> ...) pairs", i)
        entries: dict = {}  # canonical medium -> (medium, text) as spelled
        for j in range(0, len(items), 2):
            spelling = self.spelling(items[j], "a medium")
            text = self.literal(items[j + 1], "string", "heading text")
            medium = self.build.symbol(spelling)
            if medium in entries:
                raise TokenError(f"duplicate heading for medium '{medium}'", items[j])
            entries[medium] = (spelling, text)
        return entries.values()

    def inputs(self, i: int, nodes: dict):
        return self.entries(i, "input", "(<medium> <parser> <vexpr>)", nodes,
                            lambda parser, vexpr: InputBinding(
                                self.spelling(parser, "a parser name"),
                                self.vexpr(vexpr, nodes)))

    def outputs(self, i: int, nodes: dict):
        return self.entries(i, "output", "(<medium> <formatter>)", nodes,
                            lambda formatter: self.spelling(formatter, "a formatter name"))

    def entries(self, i: int, clause: str, shape: str, nodes: dict, build: Callable):
        """The entries of an ``:input`` or ``:output`` clause, ``((<medium> ...) ...)``.

        Every entry has the slots that ``shape`` spells. ``build`` makes the
        entry's value from the nodes after the medium; the first of them (the
        parser or formatter name) is recorded as ``(clause, medium)``.
        """
        items = self.list_items(i, f"{clause} entries")
        if not items:
            raise TokenError(f"{clause} clause must not be empty", i)
        arity = shape.count("<")
        what = f"an {clause} entry {shape}"
        entries: dict = {}  # canonical medium -> (medium, value) as spelled
        for entry in items:
            slots = self.list_items(entry, what)
            if len(slots) != arity:
                raise TokenError(f"{clause} entry is {shape}", entry)
            spelling = self.spelling(slots[0], "a medium")
            value = build(*slots[1:])
            medium = self.build.symbol(spelling)
            if medium in entries:
                raise TokenError(f"duplicate {clause} entry for medium '{medium}'", entry)
            entries[medium] = (spelling, value)
            nodes[(clause, medium)] = slots[1]
        return entries.values()

    def vexpr(self, i: int, nodes: dict) -> ValidatorExpr:
        """Parse one validator expression, recording the node of each base validator.

        Grammar: symbol | (symbol arg...) | (and vexpr...) | (or vexpr... msg)
        | (not vexpr msg). Names and arities are checked by ``install``.
        """
        if self.is_symbol(i):
            expr = Base(self.build.symbol(self.tokens[i]))
            nodes[id(expr)] = i
            return expr
        items = self.list_items(i, "a validator expression")
        if not items:
            raise TokenError("empty validator expression", i)
        head = self.symbol(items[0], "a validator or combinator name")
        rest = items[1:]
        if head == "and":
            if not rest:
                raise TokenError("'and' needs at least one child", i)
            return And(tuple(self.vexpr(child, nodes) for child in rest))
        if head == "or":
            if len(rest) < 2:
                raise TokenError("'or' needs at least one child and a message", i)
            message = self.literal(rest[-1], "string", "the 'or' failure message")
            children = tuple(self.vexpr(child, nodes) for child in rest[:-1])
            return Or(children, message)
        if head == "not":
            if len(rest) != 2:
                raise TokenError("'not' wants exactly a child and a message", i)
            message = self.literal(rest[1], "string", "the 'not' failure message")
            return Not(self.vexpr(rest[0], nodes), message)
        args = []
        for arg in rest:
            kind, value = classify(self.tokens[arg], arg)
            if kind not in ("int", "string"):
                raise TokenError("validator arguments must be integers or strings", arg)
            args.append(value)
        expr = Base(head, tuple(args))
        nodes[id(expr)] = i
        return expr
