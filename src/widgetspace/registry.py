"""Widget definitions, locale-aware resolution, and the schema language.

A widget is addressed by (name, index, locale, medium). Definitions are
stored per (name, locale) pair and looked up at use time by walking the
locale's ancestry, so a jurisdiction inherits everything it does not
override. Resolution is per property: a locale may override only the
output table, say, and keep its parent's parser, storage, and generator.

For each property carrying a medium map, the probe at one locale tries
the exact medium first and then that locale's ``default`` entry before
moving to the parent. A local default therefore beats an exact match
further up the chain.

Schema files are s-expressions::

    (locale <sym> :parent <sym>|none)
    (widget <name> <locale>
      :index <int> :table <sym> :getter <sym> :setter <sym>
      :doc <string> :type <sym> :generator <sym>
      :heading (<medium> <string> ...)
      :input ((<medium> <parser> <vexpr>) ...)
      :output ((<medium> <formatter>) ...))

A load is all-or-nothing: any error leaves the registry untouched.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Callable, Optional

from . import accessors, generators
from .datum import UNINITIALIZED, Datum, Uninitialized, is_uninitialized, require_valid
from .errors import (IndexOutOfRangeError, InvalidSpecError, NO_HANDLER_MESSAGE,
                     NO_STORAGE_MESSAGE, ResolutionError, SchemaError, SchemaSyntaxError,
                     UnknownLocaleError, UnresolvedReferenceError, ValidationError)
from .locales import LocaleTree
from .sexpr import (ListNode, SexprError, Token, is_valid_symbol, normalize_symbol,
                    read_forms)
from .textio import NamedRegistry, default_formatter_registry, default_parser_registry
from .validators import (And, Base, Not, Or, ValidatorContext, ValidatorExpr,
                         ValidatorRegistry, default_validator_registry)


@dataclass(frozen=True)
class WidgetCoord:
    """A point in widget space: field name, locale, medium, occurrence index."""

    name: str
    locale: str
    medium: str
    index: int = 1


@dataclass(frozen=True)
class InputBinding:
    """How one medium's input is handled: validate, then parse."""

    parser: str
    validator: ValidatorExpr


@dataclass(frozen=True)
class WidgetSpec:
    """Everything declared about one widget name at one locale.

    All parts are optional; whatever is absent here is inherited from
    ancestor locales at resolution time.
    """

    name: str
    locale: str
    max_index: int = 1
    table: Optional[str] = None
    getter: Optional[str] = None
    setter: Optional[str] = None
    inputs: dict = field(default_factory=dict)    # medium -> InputBinding
    outputs: dict = field(default_factory=dict)   # medium -> formatter name
    headings: dict = field(default_factory=dict)  # medium -> display text
    doc: Optional[str] = None
    datatype: Optional[str] = None
    generator: Optional[str] = None

    def declares_storage(self) -> bool:
        return bool(self.table or self.getter or self.setter)


@dataclass
class ResolvedStorage:
    """Accessors and capacity contributed by the nearest storage-declaring spec."""

    getter: Optional[Callable]
    setter: Optional[Callable]
    max_index: int
    locale: str


@dataclass
class Registries:
    """The pluggable function tables a widget registry resolves names against."""

    validators: ValidatorRegistry
    formatters: NamedRegistry
    parsers: NamedRegistry
    generators: NamedRegistry
    getters: NamedRegistry
    setters: NamedRegistry


def standard_registries() -> Registries:
    """All built-in validators, formatters, parsers, generators, and accessors."""
    return Registries(
        validators=default_validator_registry(),
        formatters=default_formatter_registry(),
        parsers=default_parser_registry(),
        generators=generators.default_generator_registry(),
        getters=accessors.default_getter_registry(),
        setters=accessors.default_setter_registry(),
    )


@dataclass
class LoadReport:
    locales: int
    widgets: int
    warnings: list

    def summary(self) -> str:
        return f"locales: {self.locales}, widgets: {self.widgets}"


class WidgetRegistry:
    """The (name, locale) -> WidgetSpec map plus everything needed to use it.

    The locale tree and the spec map are published together as one
    ``(tree, specs)`` snapshot that a single assignment replaces. Readers
    take no lock and read the snapshot once per call, so they never see a
    tree from one load with specs from another. Writers edit a private
    copy under the writer lock and publish it only when they succeed.
    """

    def __init__(self):
        self.registries = standard_registries()
        self._snapshot: tuple[LocaleTree, dict[tuple[str, str], WidgetSpec]] = (
            LocaleTree(), {})
        self._lock = threading.Lock()

    @property
    def locales(self) -> LocaleTree:
        """The locale tree of the published snapshot."""
        return self._snapshot[0]

    @contextmanager
    def _staged(self):
        """A copy of the snapshot to edit; published if the block succeeds."""
        with self._lock:
            tree, specs = self._snapshot
            staged = (tree.copy(), dict(specs))
            yield staged
            self._snapshot = staged

    # -- definition ------------------------------------------------------

    def define_widget(self, spec: WidgetSpec) -> None:
        """Install a spec, replacing any prior spec for the same (name, locale)."""
        with self._staged() as (tree, specs):
            self._install(spec, tree, specs)

    def spec_at(self, name: str, locale: str) -> Optional[WidgetSpec]:
        return self._snapshot[1].get((normalize_symbol(name), normalize_symbol(locale)))

    def widget_names_at(self, locale: str) -> list[str]:
        """Names with a spec anywhere in the locale's ancestry, sorted."""
        tree, specs = self._snapshot
        chain = set(tree.ancestry(locale))
        return sorted({name for (name, loc) in specs if loc in chain})

    def _install(self, spec: WidgetSpec, tree: LocaleTree, specs: dict) -> None:
        """Check ``spec`` against ``tree`` and the registries, then add it to ``specs``."""
        spec = _normalized(spec)
        if not is_valid_symbol(spec.name):
            raise InvalidSpecError(f"invalid widget name '{spec.name}'")
        if spec.locale not in tree:
            raise UnknownLocaleError(f"unknown locale '{spec.locale}'")
        if not isinstance(spec.max_index, int) or spec.max_index < 1:
            raise InvalidSpecError(f"max_index must be >= 1, got {spec.max_index!r}")
        if spec.table is not None and not is_valid_symbol(spec.table):
            raise InvalidSpecError(f"invalid table name '{spec.table}'")
        if spec.getter is not None and spec.getter not in self.registries.getters:
            raise UnresolvedReferenceError(f"unknown getter '{spec.getter}'")
        if spec.setter is not None and spec.setter not in self.registries.setters:
            raise UnresolvedReferenceError(f"unknown setter '{spec.setter}'")
        if spec.generator is not None and spec.generator not in self.registries.generators:
            raise UnresolvedReferenceError(f"unknown generator '{spec.generator}'")
        for medium, binding in spec.inputs.items():
            if binding.parser not in self.registries.parsers:
                raise UnresolvedReferenceError(f"unknown parser '{binding.parser}'")
            self.registries.validators.check_expr(binding.validator)
        for medium, formatter in spec.outputs.items():
            if formatter not in self.registries.formatters:
                raise UnresolvedReferenceError(f"unknown formatter '{formatter}'")
        specs[(spec.name, spec.locale)] = spec

    # -- resolution --------------------------------------------------------

    def resolve_formatter(self, name: str, locale: str, medium: str) -> str:
        """The formatter name for (name, locale, medium), nearest locale first."""
        return _resolve(self._snapshot, _OUTPUTS, name, locale, medium, "output")

    def resolve_parser(self, name: str, locale: str, medium: str) -> InputBinding:
        """The (parser, validator) pair for (name, locale, medium)."""
        return _resolve(self._snapshot, _INPUTS, name, locale, medium, "input")

    def resolve_storage(self, name: str, locale: str) -> ResolvedStorage:
        """Accessors from the nearest ancestor spec that declares storage."""
        spec = _resolve(self._snapshot, _storage_of, name, locale, None, "storage",
                        NO_STORAGE_MESSAGE)
        getter, setter = _table_accessors(spec.table, spec.max_index)
        if spec.getter is not None:
            getter = self.registries.getters.get(spec.getter)
        if spec.setter is not None:
            setter = self.registries.setters.get(spec.setter)
        return ResolvedStorage(getter, setter, spec.max_index, spec.locale)

    def resolve_heading(self, name: str, locale: str, medium: str) -> Optional[str]:
        """The display heading, or None when no ancestor declares one."""
        try:
            return _resolve(self._snapshot, _HEADINGS, name, locale, medium, "heading")
        except ResolutionError:
            return None

    def resolve_generator(self, name: str, locale: str) -> str:
        return _resolve(self._snapshot, _GENERATOR, name, locale, None, "generator")

    # -- fused operations ---------------------------------------------------

    def get_and_format(self, db, coord: WidgetCoord) -> str | Uninitialized:
        """Read the datum at ``coord`` and format it for the medium.

        An unset field returns the UNINITIALIZED marker without invoking
        any formatter.
        """
        storage = self.resolve_storage(coord.name, coord.locale)
        _check_index(coord.index, storage.max_index)
        if storage.getter is None:
            raise ResolutionError(NO_STORAGE_MESSAGE, {"name": coord.name,
                                                       "locale": coord.locale,
                                                       "missing": "getter"})
        value = storage.getter(db, normalize_symbol(coord.name), coord.index,
                               normalize_symbol(coord.locale))
        if is_uninitialized(value):
            return UNINITIALIZED
        formatter = self.registries.formatters.get(
            self.resolve_formatter(coord.name, coord.locale, coord.medium))
        return formatter(value)

    def parse_and_set(self, db, coord: WidgetCoord, text: str) -> Datum:
        """Validate ``text``, parse it, and store the result at ``coord``.

        Validation failure propagates before anything touches the
        database, so a failed set leaves the store bit-identical. A parsed
        value the store cannot hold fails the same way, as a ValidationError.
        """
        storage = self.resolve_storage(coord.name, coord.locale)
        _check_index(coord.index, storage.max_index)
        if storage.setter is None:
            raise ResolutionError(NO_STORAGE_MESSAGE, {"name": coord.name,
                                                       "locale": coord.locale,
                                                       "missing": "setter"})
        binding = self.resolve_parser(coord.name, coord.locale, coord.medium)
        ctx = ValidatorContext(normalize_symbol(coord.name),
                               normalize_symbol(coord.locale),
                               normalize_symbol(coord.medium))
        self.registries.validators.validate(binding.validator, ctx, text)
        value = self.registries.parsers.get(binding.parser)(text)
        try:
            require_valid(value)
        except ValueError as e:
            raise ValidationError(text, str(e)) from None
        storage.setter(db, ctx.name, coord.index, ctx.locale, value)
        return value

    def generate_random(self, name: str, locale: str, medium: str, seed: int) -> str:
        """Deterministic-in-seed input text from the widget's generator."""
        generator = self.registries.generators.get(
            self.resolve_generator(name, locale))
        rng = random.Random(seed)
        ctx = ValidatorContext(normalize_symbol(name), normalize_symbol(locale),
                               normalize_symbol(medium))
        return generator(rng, ctx)

    # -- schema loading -------------------------------------------------------

    def load_schema(self, source: str, *, filename: str = "<schema>",
                    replace: bool = False) -> LoadReport:
        return self._load_sources([(filename, source)], replace)

    def load_schema_files(self, paths, *, replace: bool = False) -> LoadReport:
        sources = [(str(p), Path(p).read_text(encoding="utf-8")) for p in paths]
        return self._load_sources(sources, replace)

    def _load_sources(self, sources, replace: bool) -> LoadReport:
        n_locales = 0
        n_widgets = 0
        with self._staged() as (tree, specs):
            for filename, text in sources:
                try:
                    forms = read_forms(text)
                except SexprError as e:
                    raise SchemaSyntaxError(str(e), filename=filename,
                                            line=e.line, col=e.col) from None
                for form in forms:
                    head = _head_symbol(form, filename)
                    if head == "locale":
                        _apply_locale_form(form, tree, filename, replace)
                        n_locales += 1
                    elif head == "widget":
                        spec = _parse_widget_form(form, filename, tree, self.registries)
                        specs[(spec.name, spec.locale)] = spec
                        n_widgets += 1
                    else:
                        raise _positioned(SchemaSyntaxError,
                                          f"unknown form '{head}'", filename, form)
        warnings = []
        for (name, locale) in specs:
            try:
                _resolve((tree, specs), _storage_of, name, locale, None, "storage")
            except ResolutionError:
                warnings.append(
                    f"widget '{name}' at '{locale}' has no storage anywhere in its ancestry")
        return LoadReport(n_locales, n_widgets, warnings)

    # -- state export (schema workspace support) -----------------------------

    def export_state(self) -> dict:
        """A JSON-ready snapshot of locales and specs, in definition order."""
        tree, specs = self._snapshot
        return {
            "locales": [[loc, tree.parent(loc)] for loc in tree.locales()],
            "widgets": [_spec_to_obj(spec) for spec in specs.values()],
        }

    def import_state(self, state: dict) -> None:
        """Add an exported state, re-checking references; all-or-nothing, like a load."""
        try:
            pairs = list(state["locales"])
            widgets = list(state["widgets"])
        except (KeyError, TypeError) as e:
            raise SchemaError(f"malformed registry state: {e}") from None
        with self._staged() as (tree, specs):
            try:
                for child, parent in pairs:
                    tree.add(child, parent)
            except (ValueError, TypeError, AttributeError) as e:
                raise SchemaError(f"malformed registry state: {e}") from None
            for obj in widgets:
                self._install(_spec_from_obj(obj), tree, specs)


_OUTPUTS = attrgetter("outputs")
_INPUTS = attrgetter("inputs")
_HEADINGS = attrgetter("headings")
_GENERATOR = attrgetter("generator")


def _storage_of(spec: WidgetSpec) -> Optional[WidgetSpec]:
    """``spec`` if it declares storage, else None: what a storage walk seeks."""
    return spec if spec.declares_storage() else None


def _resolve(snapshot: tuple[LocaleTree, dict], pick: Callable, name: str, locale: str,
             medium: Optional[str], direction: str, message: str = NO_HANDLER_MESSAGE):
    """The nearest non-None ``pick(spec)`` of widget ``name`` up ``locale``'s ancestry.

    With a medium, ``pick`` returns a medium map, and each locale tries the
    exact medium and then its own ``default`` before its parent is probed.
    """
    tree, specs = snapshot
    name = normalize_symbol(name)
    context = {"name": name, "locale": locale, "direction": direction}
    if medium is not None:
        medium = normalize_symbol(medium)
        context["medium"] = medium

    def probe(loc: str):
        spec = specs.get((name, loc))
        if spec is None:
            return None
        value = pick(spec)
        if medium is None:
            return value
        return value.get(medium) or value.get("default")

    return tree.resolve(locale, probe, message=message, context=context)


def _check_index(index: int, max_index: int) -> None:
    if not isinstance(index, int) or not 1 <= index <= max_index:
        raise IndexOutOfRangeError(f"index {index} out of range [1, {max_index}]")


def _table_accessors(table: Optional[str], max_index: int):
    if table is None:
        return None, None
    if max_index == 1:
        def getter(db, name, index, locale):
            return db.get(table, name)

        def setter(db, name, index, locale, value):
            db.put(table, name, value)
    else:
        def getter(db, name, index, locale):
            return db.get_indexed(table, name, index)

        def setter(db, name, index, locale, value):
            db.put_indexed(table, name, index, value, max_index)
    return getter, setter


def _normalized(spec: WidgetSpec) -> WidgetSpec:
    def sym(v):
        return normalize_symbol(v) if v is not None else None

    return WidgetSpec(
        name=normalize_symbol(spec.name),
        locale=normalize_symbol(spec.locale),
        max_index=spec.max_index,
        table=sym(spec.table),
        getter=sym(spec.getter),
        setter=sym(spec.setter),
        inputs={normalize_symbol(m): InputBinding(normalize_symbol(b.parser), b.validator)
                for m, b in spec.inputs.items()},
        outputs={normalize_symbol(m): normalize_symbol(f)
                 for m, f in spec.outputs.items()},
        headings={normalize_symbol(m): t for m, t in spec.headings.items()},
        doc=spec.doc,
        datatype=sym(spec.datatype),
        generator=sym(spec.generator),
    )


# -- schema form parsing ------------------------------------------------------


def _positioned(cls, message: str, filename: str, node) -> SchemaError:
    line = getattr(node, "line", None)
    col = getattr(node, "col", None)
    if cls is SchemaSyntaxError:
        return SchemaSyntaxError(message, filename=filename, line=line, col=col)
    err = cls(f"{filename}:{line}:{col}: {message}")
    err.filename = filename
    err.line = line
    err.col = col
    return err


def _head_symbol(form: ListNode, filename: str) -> str:
    if not form.items or not _is_atom(form.items[0]):
        raise _positioned(SchemaSyntaxError, "form must start with a symbol",
                          filename, form)
    return normalize_symbol(str(form.items[0].value))


def _is_atom(node) -> bool:
    return isinstance(node, Token) and node.kind == "atom"


def _require_symbol(node, what: str, filename: str) -> str:
    if not _is_atom(node):
        raise _positioned(SchemaSyntaxError, f"expected {what} (a symbol)",
                          filename, node)
    return normalize_symbol(str(node.value))


def _require_string(node, what: str, filename: str) -> str:
    if not (isinstance(node, Token) and node.kind == "string"):
        raise _positioned(SchemaSyntaxError, f"expected {what} (a string)",
                          filename, node)
    return node.value


def _require_int(node, what: str, filename: str) -> int:
    if not (isinstance(node, Token) and node.kind == "int"):
        raise _positioned(SchemaSyntaxError, f"expected {what} (an integer)",
                          filename, node)
    return node.value


def _require_list(node, what: str, filename: str) -> ListNode:
    if not isinstance(node, ListNode):
        raise _positioned(SchemaSyntaxError, f"expected {what} (a parenthesized list)",
                          filename, node)
    return node


def _apply_locale_form(form: ListNode, tree: LocaleTree, filename: str,
                       replace: bool) -> None:
    if len(form.items) != 4:
        raise _positioned(SchemaSyntaxError,
                          "locale form is (locale <name> :parent <name>|none)",
                          filename, form)
    child = _require_symbol(form.items[1], "a locale name", filename)
    keyword = _require_symbol(form.items[2], "':parent'", filename)
    if keyword != "parent" or not str(form.items[2].value).startswith(":"):
        raise _positioned(SchemaSyntaxError, "expected ':parent'",
                          filename, form.items[2])
    parent = _require_symbol(form.items[3], "a parent locale or 'none'", filename)
    try:
        tree.add(child, None if parent == "none" else parent, replace=replace)
    except SchemaError as e:
        raise _positioned(type(e), str(e), filename, form) from None


_WIDGET_KEYWORDS = frozenset((
    "index", "table", "getter", "setter", "doc", "type", "generator",
    "heading", "input", "output"))


def _parse_widget_form(form: ListNode, filename: str, tree: LocaleTree,
                       registries: Registries) -> WidgetSpec:
    if len(form.items) < 3:
        raise _positioned(SchemaSyntaxError,
                          "widget form is (widget <name> <locale> clauses...)",
                          filename, form)
    name = _require_symbol(form.items[1], "a widget name", filename)
    locale = _require_symbol(form.items[2], "a locale name", filename)
    if locale not in tree:
        raise _positioned(UnknownLocaleError, f"unknown locale '{locale}'",
                          filename, form.items[2])

    fields: dict = {"name": name, "locale": locale}
    seen: set[str] = set()
    items = form.items
    i = 3
    while i < len(items):
        node = items[i]
        if not (_is_atom(node) and str(node.value).startswith(":")):
            raise _positioned(SchemaSyntaxError, "expected a clause keyword like ':table'",
                              filename, node)
        keyword = normalize_symbol(str(node.value))
        if keyword not in _WIDGET_KEYWORDS:
            raise _positioned(SchemaSyntaxError, f"unknown clause ':{keyword}'",
                              filename, node)
        if keyword in seen:
            raise _positioned(SchemaSyntaxError, f"duplicate clause ':{keyword}'",
                              filename, node)
        seen.add(keyword)
        if i + 1 >= len(items):
            raise _positioned(SchemaSyntaxError, f"clause ':{keyword}' needs a value",
                              filename, node)
        value = items[i + 1]
        i += 2
        if keyword == "index":
            fields["max_index"] = _require_int(value, "an occurrence bound", filename)
            if fields["max_index"] < 1:
                raise _positioned(InvalidSpecError,
                                  f"max_index must be >= 1, got {fields['max_index']}",
                                  filename, value)
        elif keyword == "table":
            fields["table"] = _require_symbol(value, "a table name", filename)
        elif keyword == "getter":
            fields["getter"] = _check_ref(
                _require_symbol(value, "a getter name", filename),
                registries.getters, "getter", filename, value)
        elif keyword == "setter":
            fields["setter"] = _check_ref(
                _require_symbol(value, "a setter name", filename),
                registries.setters, "setter", filename, value)
        elif keyword == "doc":
            fields["doc"] = _require_string(value, "documentation text", filename)
        elif keyword == "type":
            fields["datatype"] = _require_symbol(value, "a type name", filename)
        elif keyword == "generator":
            fields["generator"] = _check_ref(
                _require_symbol(value, "a generator name", filename),
                registries.generators, "generator", filename, value)
        elif keyword == "heading":
            fields["headings"] = _parse_headings(
                _require_list(value, "heading pairs", filename), filename)
        elif keyword == "input":
            fields["inputs"] = _parse_inputs(
                _require_list(value, "input entries", filename), filename, registries)
        elif keyword == "output":
            fields["outputs"] = _parse_outputs(
                _require_list(value, "output entries", filename), filename, registries)
    return WidgetSpec(**fields)


def _check_ref(name: str, registry: NamedRegistry, kind: str, filename: str,
               node) -> str:
    if name not in registry:
        raise _positioned(UnresolvedReferenceError, f"unknown {kind} '{name}'",
                          filename, node)
    return name


def _parse_headings(node: ListNode, filename: str) -> dict:
    if not node.items or len(node.items) % 2 != 0:
        raise _positioned(SchemaSyntaxError,
                          "heading clause wants (<medium> <text> ...) pairs",
                          filename, node)
    headings: dict = {}
    for j in range(0, len(node.items), 2):
        medium = _require_symbol(node.items[j], "a medium", filename)
        text = _require_string(node.items[j + 1], "heading text", filename)
        if medium in headings:
            raise _positioned(SchemaSyntaxError,
                              f"duplicate heading for medium '{medium}'",
                              filename, node.items[j])
        headings[medium] = text
    return headings


def _parse_inputs(node: ListNode, filename: str, registries: Registries) -> dict:
    inputs: dict = {}
    if not node.items:
        raise _positioned(SchemaSyntaxError, "input clause must not be empty",
                          filename, node)
    for entry in node.items:
        entry = _require_list(entry, "an input entry (<medium> <parser> <vexpr>)",
                              filename)
        if len(entry.items) != 3:
            raise _positioned(SchemaSyntaxError,
                              "input entry is (<medium> <parser> <vexpr>)",
                              filename, entry)
        medium = _require_symbol(entry.items[0], "a medium", filename)
        parser = _check_ref(_require_symbol(entry.items[1], "a parser name", filename),
                            registries.parsers, "parser", filename,
                            entry.items[1])
        vexpr = _parse_vexpr(entry.items[2], filename, registries.validators)
        if medium in inputs:
            raise _positioned(SchemaSyntaxError,
                              f"duplicate input entry for medium '{medium}'",
                              filename, entry)
        inputs[medium] = InputBinding(parser, vexpr)
    return inputs


def _parse_outputs(node: ListNode, filename: str, registries: Registries) -> dict:
    outputs: dict = {}
    if not node.items:
        raise _positioned(SchemaSyntaxError, "output clause must not be empty",
                          filename, node)
    for entry in node.items:
        entry = _require_list(entry, "an output entry (<medium> <formatter>)",
                              filename)
        if len(entry.items) != 2:
            raise _positioned(SchemaSyntaxError,
                              "output entry is (<medium> <formatter>)",
                              filename, entry)
        medium = _require_symbol(entry.items[0], "a medium", filename)
        formatter = _check_ref(
            _require_symbol(entry.items[1], "a formatter name", filename),
            registries.formatters, "formatter", filename, entry.items[1])
        if medium in outputs:
            raise _positioned(SchemaSyntaxError,
                              f"duplicate output entry for medium '{medium}'",
                              filename, entry)
        outputs[medium] = formatter
    return outputs


def _parse_vexpr(node, filename: str, validators: ValidatorRegistry) -> ValidatorExpr:
    """Parse and check one validator expression.

    Grammar: symbol | (symbol arg...) | (and vexpr...) | (or vexpr... msg)
    | (not vexpr msg). Unknown names and bad arities fail here, at load.
    """
    if _is_atom(node):
        expr = Base(normalize_symbol(str(node.value)))
        _check_base(expr, validators, filename, node)
        return expr
    node = _require_list(node, "a validator expression", filename)
    if not node.items:
        raise _positioned(SchemaSyntaxError, "empty validator expression",
                          filename, node)
    head = _require_symbol(node.items[0], "a validator or combinator name", filename)
    rest = node.items[1:]
    if head == "and":
        if not rest:
            raise _positioned(SchemaSyntaxError, "'and' needs at least one child",
                              filename, node)
        return And(tuple(_parse_vexpr(child, filename, validators) for child in rest))
    if head == "or":
        if len(rest) < 2:
            raise _positioned(SchemaSyntaxError,
                              "'or' needs at least one child and a message",
                              filename, node)
        message = _require_string(rest[-1], "the 'or' failure message", filename)
        children = tuple(_parse_vexpr(child, filename, validators)
                         for child in rest[:-1])
        return Or(children, message)
    if head == "not":
        if len(rest) != 2:
            raise _positioned(SchemaSyntaxError,
                              "'not' wants exactly a child and a message",
                              filename, node)
        message = _require_string(rest[1], "the 'not' failure message", filename)
        return Not(_parse_vexpr(rest[0], filename, validators), message)
    args = []
    for arg in rest:
        if isinstance(arg, Token) and arg.kind in ("int", "string"):
            args.append(arg.value)
        else:
            raise _positioned(SchemaSyntaxError,
                              "validator arguments must be integers or strings",
                              filename, arg)
    expr = Base(head, tuple(args))
    _check_base(expr, validators, filename, node)
    return expr


def _check_base(expr: Base, validators: ValidatorRegistry, filename: str,
                node) -> None:
    try:
        validators.check_expr(expr)
    except SchemaError as e:
        raise _positioned(type(e), str(e), filename, node) from None


# -- state serialization ------------------------------------------------------


def _vexpr_to_obj(expr: ValidatorExpr):
    if isinstance(expr, Base):
        return ["base", expr.name, list(expr.args)]
    if isinstance(expr, And):
        return ["and", [_vexpr_to_obj(c) for c in expr.children]]
    if isinstance(expr, Or):
        return ["or", [_vexpr_to_obj(c) for c in expr.children], expr.message]
    if isinstance(expr, Not):
        return ["not", _vexpr_to_obj(expr.child), expr.message]
    raise TypeError(f"not a validator expression: {expr!r}")


def _vexpr_from_obj(obj) -> ValidatorExpr:
    try:
        tag = obj[0]
        if tag == "base":
            return Base(obj[1], tuple(obj[2]))
        if tag == "and":
            return And(tuple(_vexpr_from_obj(c) for c in obj[1]))
        if tag == "or":
            return Or(tuple(_vexpr_from_obj(c) for c in obj[1]), obj[2])
        if tag == "not":
            return Not(_vexpr_from_obj(obj[1]), obj[2])
    except (IndexError, TypeError, ValueError) as e:
        raise SchemaError(f"malformed validator expression: {e}") from None
    raise SchemaError(f"malformed validator expression: {obj!r}")


def _spec_to_obj(spec: WidgetSpec) -> dict:
    return {
        "name": spec.name,
        "locale": spec.locale,
        "max_index": spec.max_index,
        "table": spec.table,
        "getter": spec.getter,
        "setter": spec.setter,
        "inputs": {m: [b.parser, _vexpr_to_obj(b.validator)]
                   for m, b in spec.inputs.items()},
        "outputs": dict(spec.outputs),
        "headings": dict(spec.headings),
        "doc": spec.doc,
        "datatype": spec.datatype,
        "generator": spec.generator,
    }


def _spec_from_obj(obj: dict) -> WidgetSpec:
    try:
        return WidgetSpec(
            name=obj["name"],
            locale=obj["locale"],
            max_index=obj["max_index"],
            table=obj.get("table"),
            getter=obj.get("getter"),
            setter=obj.get("setter"),
            inputs={m: InputBinding(pair[0], _vexpr_from_obj(pair[1]))
                    for m, pair in obj.get("inputs", {}).items()},
            outputs=dict(obj.get("outputs", {})),
            headings=dict(obj.get("headings", {})),
            doc=obj.get("doc"),
            datatype=obj.get("datatype"),
            generator=obj.get("generator"),
        )
    except (KeyError, TypeError) as e:
        raise SchemaError(f"malformed widget spec: {e}") from None
