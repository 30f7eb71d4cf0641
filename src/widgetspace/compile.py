"""The schema compiler: widget specs from schema text, a workspace's state, or code.

Three readers feed one builder. ``load`` reads schema text through
``schematext``, which it imports on first use, so a command that only
reads a workspace never loads it. ``import_state`` reads the state that
``export_state`` writes into a workspace, and ``define`` takes a
``WidgetSpec`` made in code. Each reader hands the parts it read to one
builder, ``Build.spec``: its symbols as spelled, and its medium maps
through ``Build.medium_map``. The builder normalizes each symbol through
the build's memo (``normalize_symbol`` lowers it and drops every leading
':', so every reader reads a canonical symbol as itself) and builds each
distinct medium map once per build: the specs of one build share each
distinct map, and ``install`` checks it once. ``install`` is the one
check of what a spec means, whichever reader made it.

Nothing here publishes: ``WidgetRegistry`` hands each build a staged
locale tree and spec map, and publishes them if the build succeeds, so a
build is all-or-nothing.
"""

from __future__ import annotations

import marshal
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Optional

from .errors import (InvalidSpecError, SchemaError, SchemaSyntaxError, UnknownLocaleError,
                     UnresolvedReferenceError)
from .locales import LocaleTree
from .sexpr import SexprError, int_text, is_valid_symbol, normalize_symbol, read_source
from .validators import And, Base, Not, Or, ValidatorExpr, bases

# The largest ``:index`` bound a widget may declare. The first write to an
# indexed field stores all of its slots, so the bound must be one that fits.
MAX_INDEX = 10_000


@dataclass(frozen=True)
class InputBinding:
    """How one medium's input is handled: validate, then parse."""

    parser: str
    validator: ValidatorExpr


@dataclass(frozen=True, slots=True)
class WidgetSpec:
    """Everything declared about one widget name at one locale.

    All parts are optional; whatever is absent here is inherited from
    ancestor locales at resolution time. A registry's specs share their
    equal medium maps, so like the spec they are read-only.
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
class LoadReport:
    locales: int
    widgets: int
    warnings: list

    def summary(self) -> str:
        return f"locales: {self.locales}, widgets: {self.widgets}"


# -- the builder -----------------------------------------------------------------


class Build:
    """One build's memo, and the builder of every spec the build makes.

    A load, an import or a ``define`` makes one inside ``_staged`` and drops
    it before the collector resumes. ``media`` maps the key of each medium
    map built so far to the map: ``(part, spellings)`` for a clause of
    schema text, ``(part, marshal bytes)`` for an exported value, and
    ``()`` for the empty map of every part a spec does not declare.
    ``checked`` is the ``checked`` of ``install`` for the whole build, and
    ``symbols`` maps each symbol spelling met to its interned canonical
    spelling.
    """

    def __init__(self):
        self.media: dict[tuple, dict] = {(): {}}
        self.checked: dict[int, dict] = {}
        self.symbols: dict[str, str] = {}

    def symbol(self, text: str) -> str:
        """``normalize_symbol(text)``, as one string object per canonical spelling."""
        if type(text) is not str:  # normalized, or refused, as it would be without the memo
            return normalize_symbol(text)
        canonical = self.symbols.get(text)
        if canonical is None:
            canonical = self.symbols[text] = sys.intern(normalize_symbol(text))
        return canonical

    def medium_map(self, part: str, key, read: Callable) -> dict:
        """The ``inputs``, ``outputs`` or ``headings`` map whose entries
        ``read()`` lists as spelled, as ``(medium, value)`` pairs (an input's
        value an ``InputBinding``), with its symbols normalized.

        Built once per ``key`` in this build, or every time where ``key`` is
        None. The specs of one build share the map of a key, so it must not
        be changed.
        """
        entries = self.media.get(key)
        if entries is not None:
            return entries
        sym = self.symbol
        if part == "inputs":
            entries = {sym(m): InputBinding(sym(b.parser), b.validator) for m, b in read()}
        elif part == "outputs":
            entries = {sym(m): sym(f) for m, f in read()}
        else:
            entries = {sym(m): text for m, text in read()}
        if key is not None:
            self.media[key] = entries
        return entries

    def spec(self, parts: Mapping, media: Optional[Callable] = None) -> WidgetSpec:
        """The spec of ``parts``, which maps each ``WidgetSpec`` field a reader
        read to its value as spelled; ``name``, ``locale`` and ``max_index``
        are required. ``media(part, value)`` gives the ``key`` and ``read`` of
        ``medium_map`` for the value of each medium map part; without
        ``media``, those values are maps ``medium_map`` made. A part
        ``parts`` lacks gets the build's one empty map.

        If a symbol is not a string, every part is kept as spelled and
        nothing is memoized, so that ``install`` reports the first fault of
        the spec as it was given.
        """
        try:
            return _spec(parts, media, self.symbol, self.medium_map)
        except AttributeError:  # a symbol is not a string
            return _spec(parts, media, lambda symbol: symbol,
                         lambda part, key, read: dict(read()))


_MEDIA = ("inputs", "outputs", "headings")
_SYMBOLS = ("table", "getter", "setter", "datatype", "generator")


def _spec(parts: Mapping, media: Optional[Callable], sym: Callable,
          medium_map: Callable) -> WidgetSpec:
    values = {"name": sym(parts["name"]), "locale": sym(parts["locale"]),
              "max_index": parts["max_index"], "doc": parts.get("doc")}
    for part in _MEDIA:
        if part not in parts:
            values[part] = medium_map(part, (), tuple)
        elif media is None:
            values[part] = parts[part]
        else:
            values[part] = medium_map(part, *media(part, parts[part]))
    for part in _SYMBOLS:
        value = parts.get(part)
        if value is not None:
            values[part] = sym(value)
    return WidgetSpec(**values)


# -- the checker ----------------------------------------------------------------


def install(spec: WidgetSpec, tree: LocaleTree, specs: dict, registries,
            checked: Optional[dict] = None,
            source: Optional[tuple[Callable, dict]] = None) -> None:
    """Check a normalized ``spec`` against ``tree`` and ``registries``, then add it.

    The one check of a spec's meaning and types, whatever its source. For
    a spec read from schema text, ``source`` is ``(place, nodes)``: the
    token index of the node that spelled each part, and
    ``place(cls, message, index)``, which makes an error positioned at a
    token of that text. ``checked`` maps the ``id`` of each medium map
    already checked in this build to the map; this call skips those and
    adds the ones it checks.
    """
    regs = registries
    if checked is None:
        checked = {}
    if not (isinstance(spec.name, str) and is_valid_symbol(spec.name)):
        raise _placed(InvalidSpecError(f"invalid widget name '{spec.name}'"),
                      source, "name")
    if not (isinstance(spec.locale, str) and spec.locale in tree):
        raise _placed(UnknownLocaleError(f"unknown locale '{spec.locale}'"),
                      source, "locale")
    if isinstance(spec.max_index, bool) or not isinstance(spec.max_index, int):
        raise InvalidSpecError(f"max_index must be an integer, got {spec.max_index!r}")
    if spec.max_index < 1:
        raise _placed(InvalidSpecError(
            f"max_index must be >= 1, got {int_text(spec.max_index)}"), source, "max_index")
    if spec.max_index > MAX_INDEX:
        raise _placed(InvalidSpecError(
            f"max_index must be at most {MAX_INDEX}, got {int_text(spec.max_index)}"),
            source, "max_index")
    if spec.table is not None and not (isinstance(spec.table, str)
                                       and is_valid_symbol(spec.table)):
        raise _placed(InvalidSpecError(f"invalid table name '{spec.table}'"),
                      source, "table")
    for part, registry in (("getter", regs.getters), ("setter", regs.setters),
                           ("generator", regs.generators)):
        ref = getattr(spec, part)
        if ref is not None and not (isinstance(ref, str) and ref in registry):
            raise _placed(UnresolvedReferenceError(f"unknown {part} '{ref}'"),
                          source, part)
    if spec.datatype is not None:
        _check_str(spec.datatype, "datatype")
    if spec.doc is not None:
        _check_str(spec.doc, "doc")
    for medium, binding in _unchecked(spec.inputs, checked):
        _check_str(medium, "medium")
        if not (isinstance(binding.parser, str) and binding.parser in regs.parsers):
            raise _placed(UnresolvedReferenceError(f"unknown parser '{binding.parser}'"),
                          source, ("input", medium))
        for base in bases(binding.validator):
            try:
                regs.validators.check_base(base)
            except SchemaError as e:
                raise _placed(e, source, id(base)) from None
    for medium, formatter in _unchecked(spec.outputs, checked):
        _check_str(medium, "medium")
        if not (isinstance(formatter, str) and formatter in regs.formatters):
            raise _placed(UnresolvedReferenceError(f"unknown formatter '{formatter}'"),
                          source, ("output", medium))
    for medium, text in _unchecked(spec.headings, checked):
        _check_str(medium, "medium")
        _check_str(text, "heading text")
    specs[(spec.name, spec.locale)] = spec


def _unchecked(media: dict, checked: dict):
    """The entries of a medium map, or none if this build has checked it.

    The map counts as checked from here on: a fault in it ends the build.
    """
    if checked.get(id(media)) is media:
        return ()
    checked[id(media)] = media
    return media.items()


def _check_str(value, what: str) -> None:
    if not isinstance(value, str):
        raise InvalidSpecError(f"{what} must be a string, got {value!r}")


def _placed(err: SchemaError, source: Optional[tuple[Callable, dict]], part) -> SchemaError:
    """``err``, positioned at the node that spelled ``part`` if the spec came from text."""
    if source is None:
        return err
    place, nodes = source
    return place(type(err), str(err), nodes[part])


def orphans(tree: LocaleTree, specs: dict) -> list[str]:
    """A warning for each spec with no storage at or above its locale, in spec order.

    Each (name, locale) is probed at most once: a walk stops at the first
    pair whose answer an earlier walk recorded.
    """
    stored: dict[tuple[str, str], bool] = {}  # storage declared at or above
    warnings = []
    for (name, locale) in specs:
        walked = []
        loc = locale
        while loc is not None and (name, loc) not in stored:
            spec = specs.get((name, loc))
            if spec is not None and spec.declares_storage():
                stored[(name, loc)] = True
                break
            walked.append(loc)
            loc = tree.parent(loc)
        found = loc is not None and stored[(name, loc)]
        for loc in walked:
            stored[(name, loc)] = found
        if not found:
            warnings.append(
                f"widget '{name}' at '{locale}' has no storage anywhere in its ancestry")
    return warnings


# -- the readers ----------------------------------------------------------------


def define(spec: WidgetSpec, tree: LocaleTree, specs: dict, registries) -> None:
    """Build ``spec``, given in code, and install it into a staged (tree, specs)."""
    parts = {f.name: getattr(spec, f.name) for f in fields(spec)}
    built = Build().spec(parts, lambda part, value: (
        None, (value if part == "inputs" else dict(value)).items))
    install(built, tree, specs, registries)


def syntax_error(e: SexprError, filename: str) -> SchemaSyntaxError:
    return SchemaSyntaxError(str(e), filename=filename, line=e.line, col=e.col)


def read_sources(paths) -> list[tuple[str, str]]:
    """The ``(filename, text)`` of each schema file, for ``load``."""
    sources = []
    for path in paths:
        try:
            sources.append((str(path), read_source(path)))
        except SexprError as e:
            raise syntax_error(e, str(path)) from None
    return sources


def load(sources, tree: LocaleTree, specs: dict, registries, replace: bool) -> LoadReport:
    """Add the forms of ``(filename, text)`` sources to a staged (tree, specs)."""
    from .schematext import load_source  # only a load reads schema text

    n_locales = 0
    n_widgets = 0
    build = Build()
    for filename, text in sources:
        locales, widgets = load_source(filename, text, tree, specs, registries, replace, build)
        n_locales += locales
        n_widgets += widgets
    return LoadReport(n_locales, n_widgets, orphans(tree, specs))


# -- workspace state ------------------------------------------------------------


def export_state(tree: LocaleTree, specs: dict) -> dict:
    """A JSON-ready form of (tree, specs), in definition order."""
    return {
        "locales": [[loc, tree.parent(loc)] for loc in tree.locales()],
        "widgets": [_spec_to_obj(spec) for spec in specs.values()],
    }


def import_state(state: dict, tree: LocaleTree, specs: dict, registries) -> None:
    """Add an exported state to a staged (tree, specs), re-checking references.

    As in a load, each distinct ``inputs``, ``outputs`` and ``headings``
    value is built and checked once, and the specs that repeat it share
    its map.
    """
    try:
        widgets = list(state["widgets"])
        for child, parent in state["locales"]:
            tree.add(child, parent)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"malformed registry state: {e}") from None
    build = Build()
    for obj in widgets:
        try:
            spec = build.spec(obj, _exported_media)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"malformed widget spec: {e}") from None
        install(spec, tree, specs, registries, build.checked)


def _exported_media(part: str, value) -> tuple:
    """The ``media`` of ``Build.spec`` for an exported map, keyed by its part
    and its ``marshal`` bytes: equal bytes decode to equal values of the
    same types, so a hit is never false, and format 2 writes no
    back-references, so the bytes do not depend on reference counts. A value
    marshal refuses (a subclass of ``str`` or ``int``, say) is not memoized."""
    try:
        key = (part, marshal.dumps(value, 2))
    except ValueError:
        key = None
    if part != "inputs":
        return key, lambda: dict(value).items()
    return key, lambda: ((m, InputBinding(pair[0], _vexpr_from_obj(pair[1])))
                         for m, pair in value.items())


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
    """The validator an exported object describes; ``import_state`` reports faults."""
    tag = obj[0]
    if tag == "base":
        return Base(obj[1], tuple(obj[2]))
    if tag == "and":
        return And(tuple(_vexpr_from_obj(c) for c in obj[1]))
    if tag == "or":
        return Or(tuple(_vexpr_from_obj(c) for c in obj[1]), obj[2])
    if tag == "not":
        return Not(_vexpr_from_obj(obj[1]), obj[2])
    raise SchemaError(f"malformed validator expression: {obj!r}")


def _spec_to_obj(spec: WidgetSpec) -> dict:
    return {
        "name": spec.name,
        "locale": spec.locale,
        "max_index": spec.max_index,
        "table": spec.table,
        "getter": spec.getter,
        "setter": spec.setter,
        "inputs": {m: [b.parser, _vexpr_to_obj(b.validator)] for m, b in spec.inputs.items()},
        "outputs": dict(spec.outputs),
        "headings": dict(spec.headings),
        "doc": spec.doc,
        "datatype": spec.datatype,
        "generator": spec.generator,
    }
