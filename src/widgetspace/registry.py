"""Widget definitions, locale-aware resolution, and the schema language.

A widget is addressed by (name, index, locale, medium). Definitions are
stored per (name, locale) pair and looked up at use time by walking the
locale's ancestry, so a jurisdiction inherits everything it does not
override. Resolution is per property: a locale may override only the
output table, say, and keep its parent's parser, storage, and generator.

One walk, ``resolve_parts``, finds every property of a (name, locale, medium),
each at the nearest locale that declares it, and each ``resolve_*`` picks one.
A locale tries the exact medium and then its own ``default`` entry before the
walk moves to its parent, so a local default beats an exact match further up.
The fused ``get_and_format`` and ``parse_and_set`` keep one plan per
coordinate, made by that walk on first use and memoized with the published
snapshot, so a load that publishes a new snapshot drops them all.

Schema files are s-expressions::

    (locale <sym> :parent <sym>|none)
    (widget <name> <locale>
      :index <int> :table <sym> :getter <sym> :setter <sym>
      :doc <string> :type <sym> :generator <sym>
      :heading (<medium> <string> ...)
      :input ((<medium> <parser> <vexpr>) ...)
      :output ((<medium> <formatter>) ...))

A symbol is normalized once, where it enters, and never again: ``normalize_symbol``
drops one leading ':'. Plans resolve from the caller's spelling, the locale form
hands its spellings to ``LocaleTree.add``, and no locale may begin with ':'.

A load is all-or-nothing: any error leaves the registry untouched. Within
one load, each distinct ``:input``, ``:output`` and ``:heading`` clause is
parsed once, and specs that spell it alike share its parsed bindings. An
import of an exported state does the same for each distinct ``inputs`` map.
Both keep one string object per symbol spelling.
"""

from __future__ import annotations

import gc
import marshal
import random
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from . import accessors, generators
from .datum import (UNINITIALIZED, Datum, Uninitialized, UnstorableError, is_uninitialized,
                    require_valid)
from .errors import (IndexOutOfRangeError, InvalidSpecError, NO_HANDLER_MESSAGE,
                     NO_STORAGE_MESSAGE, ResolutionError, SchemaError, SchemaSyntaxError,
                     UnknownLocaleError, UnresolvedReferenceError, ValidationError)
from .locales import LocaleTree
from .sexpr import (SexprError, TokenError, classify, int_text, is_valid_symbol,
                    normalize_symbol, position, read_source, read_spans)
from .textio import NamedRegistry, default_formatter_registry, default_parser_registry
from .validators import (And, Base, Not, Or, ValidatorContext, ValidatorExpr,
                         ValidatorRegistry, bases, default_validator_registry)

# The largest ``:index`` bound a widget may declare. The first write to an
# indexed field stores all of its slots, so the bound must be one that fits.
MAX_INDEX = 10_000


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


class ResolvedParts(NamedTuple):
    """Each property of one (name, locale, medium), from the nearest locale that
    declares it, or None; storage and generator are the same for every medium."""

    storage: Optional[WidgetSpec]  # the nearest spec that declares storage
    formatter: Optional[str]
    binding: Optional[InputBinding]
    heading: Optional[str]
    generator: Optional[str]


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
    ``(tree, specs, plans)`` snapshot that a single assignment replaces.
    Readers take no lock and read the snapshot once per call, so they never
    see a tree from one load with specs from another. Writers edit a private
    copy under the writer lock and publish it, with an empty plan memo, only
    when they succeed. The published tree is never mutated in place, since the
    plans made from it would go stale: ``locales.add`` publishes a new
    snapshot too.
    """

    def __init__(self):
        self.registries = standard_registries()
        self._snapshot: tuple[LocaleTree, dict[tuple[str, str], WidgetSpec], _Plans] = (
            LocaleTree(), {}, _Plans())
        self._lock = threading.Lock()

    @property
    def locales(self) -> LocaleTree:
        """The locale tree of the published snapshot; its ``add`` publishes a new one."""
        return _PublishedTree(self)

    @contextmanager
    def _staged(self):
        """A copy of the snapshot to edit; published if the block succeeds.

        The block runs with the cyclic collector paused (``_collector_paused``).
        """
        with self._lock, _collector_paused():
            tree, specs, _ = self._snapshot
            staged = (tree.copy(), dict(specs))
            yield staged
            self._snapshot = (*staged, _Plans())

    # -- definition ------------------------------------------------------

    def define_widget(self, spec: WidgetSpec) -> None:
        """Install a spec, replacing any prior spec for the same (name, locale)."""
        with self._staged() as (tree, specs):
            self._install(_normalized(spec), tree, specs)

    def spec_at(self, name: str, locale: str) -> Optional[WidgetSpec]:
        return self._snapshot[1].get((normalize_symbol(name), normalize_symbol(locale)))

    def widget_names_at(self, locale: str) -> list[str]:
        """Names with a spec anywhere in the locale's ancestry, sorted."""
        tree, specs, _ = self._snapshot
        chain = set(tree.ancestry(locale))
        return sorted({name for (name, loc) in specs if loc in chain})

    def _install(self, spec: WidgetSpec, tree: LocaleTree, specs: dict,
                 source: Optional[tuple[Callable, dict]] = None,
                 checked: Optional[dict] = None) -> None:
        """Check a normalized ``spec`` against ``tree`` and the registries, then add it.

        The one check of a spec's meaning and types, whatever its source. For
        a spec read from schema text, ``source`` is ``(place, nodes)``: the
        token index of the node that spelled each part, and
        ``place(cls, message, index)``, which makes an error positioned at a
        token of that text. ``checked`` maps the ``id`` of each input binding
        already checked in this build to the binding; this call skips those
        and adds the ones it checks.
        """
        regs = self.registries
        if checked is None:
            checked = {}
        if not (isinstance(spec.name, str) and is_valid_symbol(spec.name)):
            raise _placed(InvalidSpecError(f"invalid widget name '{spec.name}'"),
                          source, "name")
        if not (isinstance(spec.locale, str) and not spec.locale.startswith(":")
                and spec.locale in tree):
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
        for medium, binding in spec.inputs.items():
            _check_str(medium, "medium")
            if checked.get(id(binding)) is binding:
                continue
            if not (isinstance(binding.parser, str) and binding.parser in regs.parsers):
                raise _placed(UnresolvedReferenceError(f"unknown parser '{binding.parser}'"),
                              source, ("input", medium))
            for base in bases(binding.validator):
                try:
                    regs.validators.check_base(base)
                except SchemaError as e:
                    raise _placed(e, source, id(base)) from None
            checked[id(binding)] = binding
        for medium, formatter in spec.outputs.items():
            _check_str(medium, "medium")
            if not (isinstance(formatter, str) and formatter in regs.formatters):
                raise _placed(UnresolvedReferenceError(f"unknown formatter '{formatter}'"),
                              source, ("output", medium))
        for medium, text in spec.headings.items():
            _check_str(medium, "medium")
            _check_str(text, "heading text")
        specs[(spec.name, spec.locale)] = spec

    # -- resolution --------------------------------------------------------

    def resolve_parts(self, name: str, locale: str, medium: str) -> ResolvedParts:
        """Every property of (name, locale, medium), from one walk up ``locale``'s
        ancestry that stops once every part is found, or at the root."""
        tree, specs, _ = self._snapshot
        name, medium = normalize_symbol(name), normalize_symbol(medium)
        found = [None] * 5  # in ResolvedParts order

        def probe(loc: str) -> Optional[ResolvedParts]:
            spec = specs.get((name, loc))
            if spec is not None:
                declared = (spec if spec.declares_storage() else None,
                            _at(spec.outputs, medium), _at(spec.inputs, medium),
                            _at(spec.headings, medium), spec.generator)
                found[:] = [old if old is not None else new
                            for old, new in zip(found, declared)]
            if tree._parents[loc] is not None and None in found:
                return None  # the parent may declare what is still missing
            return ResolvedParts(*found)

        return tree.resolve(locale, probe)

    def resolve_formatter(self, name: str, locale: str, medium: str) -> str:
        """The formatter name for (name, locale, medium), nearest locale first."""
        return _found(self.resolve_parts(name, locale, medium).formatter,
                      "output", name, locale, medium)

    def resolve_parser(self, name: str, locale: str, medium: str) -> InputBinding:
        """The (parser, validator) pair for (name, locale, medium)."""
        return _found(self.resolve_parts(name, locale, medium).binding,
                      "input", name, locale, medium)

    def resolve_storage(self, name: str, locale: str) -> ResolvedStorage:
        """Accessors from the nearest ancestor spec that declares storage."""
        spec = _found(self.resolve_parts(name, locale, "default").storage,
                      "storage", name, locale)
        getter, setter = _table_accessors(spec.table, spec.max_index)
        if spec.getter is not None:
            getter = self.registries.getters.get(spec.getter)
        if spec.setter is not None:
            setter = self.registries.setters.get(spec.setter)
        return ResolvedStorage(getter, setter, spec.max_index, spec.locale)

    def resolve_heading(self, name: str, locale: str, medium: str) -> Optional[str]:
        """The display heading, or None when no ancestor declares one."""
        return self.resolve_parts(name, locale, medium).heading

    def resolve_generator(self, name: str, locale: str) -> str:
        return _found(self.resolve_parts(name, locale, "default").generator,
                      "generator", name, locale)

    # -- fused operations ---------------------------------------------------

    def get_and_format(self, db, coord: WidgetCoord) -> str | Uninitialized:
        """Read the datum at ``coord`` and format it for the medium.

        An unset field returns the UNINITIALIZED marker without invoking
        any formatter.
        """
        max_index, getter, _, formatter, _, ctx = self._plan(coord)
        _check_index(coord.index, max_index)
        if getter is None:
            raise ResolutionError(NO_STORAGE_MESSAGE, {"name": ctx.name, "locale": ctx.locale,
                                                       "missing": "getter"})
        if isinstance(getter, str):
            getter = self.registries.getters.get(getter)
        value = getter(db, ctx.name, coord.index, ctx.locale)
        if is_uninitialized(value):
            return UNINITIALIZED
        if formatter is None:  # raises here, as it did before plans
            formatter = self.resolve_formatter(coord.name, coord.locale, coord.medium)
        return self.registries.formatters.get(formatter)(value)

    def parse_and_set(self, db, coord: WidgetCoord, text: str) -> Datum:
        """Validate ``text``, parse it, and store the result at ``coord``.

        Validation failure propagates before anything touches the
        database, so a failed set leaves the store bit-identical. A parsed
        value the store cannot hold fails the same way, as a ValidationError:
        a table's ``put`` checks it before it touches the table, and a setter
        registered by name is handed only a value that passed that check.
        """
        max_index, _, setter, _, binding, ctx = self._plan(coord)
        _check_index(coord.index, max_index)
        if setter is None:
            raise ResolutionError(NO_STORAGE_MESSAGE, {"name": ctx.name, "locale": ctx.locale,
                                                       "missing": "setter"})
        if binding is None:  # raises here, as it did before plans
            binding = self.resolve_parser(coord.name, coord.locale, coord.medium)
        self.registries.validators.validate(binding.validator, ctx, text)
        value = self.registries.parsers.get(binding.parser)(text)
        try:
            if isinstance(setter, str):  # a registered setter gets only a storable value
                require_valid(value)
            else:  # a table accessor's put checks the value before it touches the table
                setter(db, ctx.name, coord.index, ctx.locale, value)
                return value
        except UnstorableError as e:
            raise ValidationError(text, str(e)) from None
        self.registries.setters.get(setter)(db, ctx.name, coord.index, ctx.locale, value)
        return value

    def _plan(self, coord: WidgetCoord) -> tuple:
        """``(max_index, getter, setter, formatter, binding, ctx)`` for ``coord``.

        The getter and setter are table accessors, or the names of
        registered ones; the formatter and binding are None where no
        ancestor declares one. Names are looked up at each use, so
        re-registering a function takes effect at once.
        """
        return (self._snapshot[2].get((coord.name, coord.locale, coord.medium))
                or self._new_plan(coord))

    def _new_plan(self, coord: WidgetCoord) -> tuple:
        """Make ``coord``'s plan from one ``resolve_parts`` walk and memoize it.

        Plans are keyed by canonical spelling, and a medium that no spec
        declares uses the ``default`` plan, so the memo stays bounded by
        the schema. The walk gets the caller's own spelling to normalize; an
        undeclared medium resolves as ``default`` does. A walk that finds no
        storage raises and memoizes nothing.
        """
        name, locale, medium = (_canonical(coord.name), _canonical(coord.locale),
                                _canonical(coord.medium))
        while True:
            snapshot = self._snapshot
            plans = snapshot[2]
            if plans.media is None:
                plans.media = frozenset(m for spec in snapshot[1].values()
                                        for m in (*spec.inputs, *spec.outputs))
            key = (name, locale, medium if medium in plans.media else "default")
            plan = plans.get(key)
            if plan is None:
                parts = self.resolve_parts(coord.name, coord.locale, coord.medium)
                spec = _found(parts.storage, "storage", coord.name, coord.locale)
                get, put = _table_accessors(spec.table, spec.max_index)
                plan = (spec.max_index, spec.getter or get, spec.setter or put,
                        parts.formatter, parts.binding, ValidatorContext(*key))
                if self._snapshot is not snapshot:
                    continue  # a load published meanwhile: plan against the new snapshot
                plans[key] = plan
            if key[2] != medium:  # the default plan, seen from the caller's medium
                plan = plan[:5] + (ValidatorContext(name, locale, medium),)
            return plan

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
        sources = []
        for path in paths:
            try:
                sources.append((str(path), read_source(path)))
            except SexprError as e:
                raise _syntax_error(e, str(path)) from None
        return self._load_sources(sources, replace)

    def _load_sources(self, sources, replace: bool) -> LoadReport:
        """Load ``(filename, text)`` sources into one staged snapshot."""
        n_locales = 0
        n_widgets = 0
        with self._staged() as (tree, specs):
            shared = _Shared()
            for filename, text in sources:
                locales, widgets = self._load_source(filename, text, tree, specs, replace,
                                                     shared)
                n_locales += locales
                n_widgets += widgets
            del shared  # the memo lives for one load, and goes before the collector resumes
        return LoadReport(n_locales, n_widgets, _orphans(tree, specs))

    def _load_source(self, filename: str, text: str, tree: LocaleTree, specs: dict,
                     replace: bool, shared: _Shared) -> tuple[int, int]:
        """Add one source's forms to a staged snapshot; the locales and widgets it added.

        The one place that positions an error in schema text: the form
        readers raise TokenError at a node's token index, and an error of
        ``tree.add`` or ``_install`` is placed at its form or its node.
        """
        try:
            reader = _FormReader(*read_spans(text), shared)
        except SexprError as e:
            raise _syntax_error(e, filename) from None

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
                    self._install(spec, tree, specs, (place, nodes), shared.checked)
                    n_widgets += 1
                else:
                    raise TokenError(f"unknown form '{head}'", form)
            except TokenError as e:
                raise place(SchemaSyntaxError, str(e), e.index) from None
        return n_locales, n_widgets

    # -- state export (schema workspace support) -----------------------------

    def export_state(self) -> dict:
        """A JSON-ready snapshot of locales and specs, in definition order."""
        tree, specs, _ = self._snapshot
        return {
            "locales": [[loc, tree.parent(loc)] for loc in tree.locales()],
            "widgets": [_spec_to_obj(spec) for spec in specs.values()],
        }

    def import_state(self, state: dict) -> None:
        """Add an exported state, re-checking references; all-or-nothing, like a load.

        As in a load, each distinct ``inputs`` map is built and checked once,
        and the specs that repeat it share its bindings.
        """
        with self._staged() as (tree, specs):
            try:
                widgets = list(state["widgets"])
                for child, parent in state["locales"]:
                    tree.add(child, parent)
            except (AttributeError, KeyError, TypeError, ValueError) as e:
                raise SchemaError(f"malformed registry state: {e}") from None
            shared = _Shared()
            for obj in widgets:
                self._install(_spec_from_obj(obj, shared), tree, specs, checked=shared.checked)
            del shared  # as in a load


_collector_lock = threading.Lock()  # makes each save-and-disable one step


@contextmanager
def _collector_paused():
    """Run the block with Python's cyclic garbage collector disabled.

    A snapshot build allocates tens of thousands of long-lived containers
    and makes no reference cycles, so a collection during it reclaims
    nothing; on a 3000-widget schema the allocations alone set off a few
    full collections per build. Reference counting still frees what the
    block drops. The collector is enabled again afterwards only if it was
    enabled before, so it is enabled once every overlapping build has
    ended, whatever the thread interleaving, unless a caller enables or
    disables ``gc`` itself while a build runs.
    """
    with _collector_lock:
        enabled = gc.isenabled()
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            with _collector_lock:
                gc.enable()


class _PublishedTree(LocaleTree):
    """A published snapshot's tree, read as it is. ``add`` edits a staged copy
    and publishes it, so no plan outlives the tree it was made from."""

    def __init__(self, registry: WidgetRegistry):
        self._registry = registry
        self._parents = registry._snapshot[0]._parents

    def add(self, child: str, parent: Optional[str] = None, *, replace: bool = False) -> None:
        with self._registry._staged() as (tree, _):
            tree.add(child, parent, replace=replace)
        self._parents = self._registry._snapshot[0]._parents


class _Plans(dict):
    """One snapshot's memo: (name, locale, medium) -> plan, filled on first use."""

    media: Optional[frozenset] = None  # every medium some spec declares, once asked


def _orphans(tree: LocaleTree, specs: dict) -> list[str]:
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


def _at(entries: dict, medium: str):
    """The entry for ``medium``, or if that is absent or empty the ``default`` one."""
    return entries.get(medium) or entries.get("default")


def _found(part, direction: str, name: str, locale: str, medium: Optional[str] = None):
    """``part``, or if a walk found none, a ResolutionError naming the canonical coordinate."""
    if part is not None:
        return part
    context = {"name": normalize_symbol(name), "locale": normalize_symbol(locale),
               "direction": direction}
    if medium is not None:
        context["medium"] = normalize_symbol(medium)
    raise ResolutionError(NO_STORAGE_MESSAGE if direction == "storage" else NO_HANDLER_MESSAGE,
                          context)


def _check_index(index: int, max_index: int) -> None:
    if not isinstance(index, int) or not 1 <= index <= max_index:
        raise IndexOutOfRangeError(f"index {index} out of range [1, {max_index}]")


def _canonical(symbol: str) -> str:
    """``normalize_symbol(symbol)``, as the caller's own string when already canonical."""
    text = normalize_symbol(symbol)
    return symbol if text == symbol else text


@lru_cache(maxsize=256)  # one shared pair per (table, max_index), not one per plan
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
    """``spec`` with its symbols in canonical spelling; unchanged if one is not a string."""
    try:
        return _spec_of(vars(spec), normalize_symbol, lambda inputs: {
            normalize_symbol(m): InputBinding(normalize_symbol(b.parser), b.validator)
            for m, b in inputs.items()})
    except AttributeError:  # a symbol is not a string, which _install rejects
        return spec


def _check_str(value, what: str) -> None:
    if not isinstance(value, str):
        raise InvalidSpecError(f"{what} must be a string, got {value!r}")


def _placed(err: SchemaError, source: Optional[tuple[Callable, dict]], part) -> SchemaError:
    """``err``, positioned at the node that spelled ``part`` if the spec came from text."""
    if source is None:
        return err
    place, nodes = source
    return place(type(err), str(err), nodes[part])


# -- schema form parsing ------------------------------------------------------
# Syntax only: what a parsed spec means is checked by WidgetRegistry._install.
# A node is the index of its first token in ``tokenize(text)``. A fault
# raises TokenError at the node at fault, which ``_load_source`` places in
# the text.


def _syntax_error(e: SexprError, filename: str) -> SchemaSyntaxError:
    return SchemaSyntaxError(str(e), filename=filename, line=e.line, col=e.col)


class _Shared:
    """One build's memo, so that the specs it builds share their equal parts.

    A load or an import makes one inside ``_staged`` and drops it before
    the collector resumes. ``clauses`` maps ``(part, spellings)`` of each
    ``:input``, ``:output`` and ``:heading`` clause of schema text to
    ``(entries, parts)``: its medium map, and the offset from its first
    token of each part ``_install`` may place an error at. ``inputs`` maps
    the ``marshal`` bytes of each exported ``inputs`` value to its medium
    map. ``checked`` is the ``checked`` of ``_install`` for the whole build,
    and ``symbols`` maps each symbol spelling met to its interned canonical
    spelling.
    """

    def __init__(self):
        self.clauses: dict[tuple, tuple[dict, tuple]] = {}
        self.inputs: dict[bytes, dict] = {}
        self.checked: dict[int, InputBinding] = {}
        self.symbols: dict[str, str] = {}

    def symbol(self, text: str) -> str:
        """``normalize_symbol(text)``, as one string object per canonical spelling."""
        if type(text) is not str:  # normalized, or refused, as it would be without the memo
            return normalize_symbol(text)
        canonical = self.symbols.get(text)
        if canonical is None:
            canonical = self.symbols[text] = sys.intern(normalize_symbol(text))
        return canonical

    def inputs_of(self, value) -> dict:
        """A copy of the medium map an exported ``inputs`` value describes, built once.

        Equal ``marshal`` bytes decode to equal values of the same types, so a
        hit is never false; format 2 writes no back-references, so the bytes do
        not depend on reference counts. A value marshal refuses (a subclass of
        ``str`` or ``int``, say) is built afresh.
        """
        try:
            key = marshal.dumps(value, 2)
        except ValueError:
            return _inputs_of(value, self.symbol)
        entries = self.inputs.get(key)
        if entries is None:
            entries = self.inputs[key] = _inputs_of(value, self.symbol)
        return dict(entries)


# clause keyword -> the WidgetSpec field it sets
_CLAUSE_PARTS = {
    "index": "max_index", "table": "table", "getter": "getter", "setter": "setter",
    "doc": "doc", "type": "datatype", "generator": "generator",
    "heading": "headings", "input": "inputs", "output": "outputs"}


class _FormReader:
    """The forms of one schema text, read from its token spellings.

    ``ends[i]`` is the last token of the node at ``i`` (``sexpr.read_spans``),
    so the items of a form are walked without a node tree.
    """

    def __init__(self, tokens: list[str], ends: list[int], shared: _Shared):
        self.tokens = tokens
        self.ends = ends
        self.shared = shared

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
        return classify(self.tokens[i], i)[0] == "atom"

    def head_symbol(self, form: int) -> str:
        if self.ends[form] == form + 1 or not self.is_symbol(form + 1):
            raise TokenError("form must start with a symbol", form)
        return normalize_symbol(self.tokens[form + 1])

    def spelling(self, i: int, what: str) -> str:
        if not self.is_symbol(i):
            raise TokenError(f"expected {what} (a symbol)", i)
        return self.tokens[i]

    def symbol(self, i: int, what: str) -> str:
        return self.shared.symbol(self.spelling(i, what))

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
        keyword = self.symbol(items[2], "':parent'")
        if keyword != "parent" or not self.tokens[items[2]].startswith(":"):
            raise TokenError("expected ':parent'", items[2])
        parent = self.spelling(items[3], "a parent locale or 'none'")
        return child, None if normalize_symbol(parent) == "none" else parent

    def widget_form(self, form: int) -> tuple[WidgetSpec, dict]:
        """The spec a widget form spells, and the node that spelled each part of it.

        The parts are keyed as ``_install`` names them: a field name, or
        ``("input", medium)`` and ``("output", medium)`` for the parser and
        formatter names, or the ``id()`` of a base validator.
        """
        items = self.items(form)
        if len(items) < 3:
            raise TokenError("widget form is (widget <name> <locale> clauses...)", form)
        fields: dict = {"name": self.symbol(items[1], "a widget name"),
                        "locale": self.symbol(items[2], "a locale name")}
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
                fields[part] = self.literal(value, "int", "an occurrence bound")
            elif keyword == "doc":
                fields[part] = self.literal(value, "string", "documentation text")
            elif part in ("headings", "inputs", "outputs"):
                fields[part] = self.clause(part, value, nodes)
            else:
                fields[part] = self.symbol(value, f"a {keyword} name")
        return WidgetSpec(**fields), nodes

    def clause(self, part: str, i: int, nodes: dict) -> dict:
        """A copy of the medium map of the clause for ``part`` whose value is at
        ``i``, read by the method named ``part`` once per load and spelling;
        ``nodes`` gets the node of each of its parts."""
        key = (part, tuple(self.tokens[i:self.ends[i] + 1]))
        memo = self.shared.clauses.get(key)
        if memo is None:
            found: dict = {}
            entries = getattr(self, part)(i, found)
            memo = self.shared.clauses[key] = (
                entries, tuple((part, j - i) for part, j in found.items()))
        entries, parts = memo
        for part, offset in parts:
            nodes[part] = i + offset
        return dict(entries)

    def headings(self, i: int, nodes: dict) -> dict:
        items = self.list_items(i, "heading pairs")
        if not items or len(items) % 2 != 0:
            raise TokenError("heading clause wants (<medium> <text> ...) pairs", i)
        headings: dict = {}
        for j in range(0, len(items), 2):
            medium = self.symbol(items[j], "a medium")
            text = self.literal(items[j + 1], "string", "heading text")
            if medium in headings:
                raise TokenError(f"duplicate heading for medium '{medium}'", items[j])
            headings[medium] = text
        return headings

    def inputs(self, i: int, nodes: dict) -> dict:
        return self.entries(i, "input", "(<medium> <parser> <vexpr>)", nodes,
                            lambda parser, vexpr: InputBinding(
                                self.symbol(parser, "a parser name"),
                                self.vexpr(vexpr, nodes)))

    def outputs(self, i: int, nodes: dict) -> dict:
        return self.entries(i, "output", "(<medium> <formatter>)", nodes,
                            lambda formatter: self.symbol(formatter, "a formatter name"))

    def entries(self, i: int, clause: str, shape: str, nodes: dict, build: Callable) -> dict:
        """The medium map of an ``:input`` or ``:output`` clause, ``((<medium> ...) ...)``.

        Every entry has the slots that ``shape`` spells. ``build`` makes the
        entry's value from the nodes after the medium; the first of them (the
        parser or formatter name) is recorded as ``(clause, medium)``.
        """
        items = self.list_items(i, f"{clause} entries")
        if not items:
            raise TokenError(f"{clause} clause must not be empty", i)
        arity = shape.count("<")
        what = f"an {clause} entry {shape}"
        entries: dict = {}
        for entry in items:
            slots = self.list_items(entry, what)
            if len(slots) != arity:
                raise TokenError(f"{clause} entry is {shape}", entry)
            medium = self.symbol(slots[0], "a medium")
            value = build(*slots[1:])
            if medium in entries:
                raise TokenError(f"duplicate {clause} entry for medium '{medium}'", entry)
            entries[medium] = value
            nodes[(clause, medium)] = slots[1]
        return entries

    def vexpr(self, i: int, nodes: dict) -> ValidatorExpr:
        """Parse one validator expression, recording the node of each base validator.

        Grammar: symbol | (symbol arg...) | (and vexpr...) | (or vexpr... msg)
        | (not vexpr msg). Names and arities are checked by ``_install``.
        """
        if self.is_symbol(i):
            expr = Base(normalize_symbol(self.tokens[i]))
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
    """The validator an exported object describes; ``_spec_from_obj`` reports faults."""
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


def _exported(symbol: Optional[str]) -> Optional[str]:
    """A canonical ``symbol`` as a workspace spells it, so that ``import_state``
    reads it back as itself: ``normalize_symbol`` drops one leading ':', so
    one that begins with ':' gets one more."""
    return ":" + symbol if symbol is not None and symbol.startswith(":") else symbol


def _spec_to_obj(spec: WidgetSpec) -> dict:
    # widget and table names are valid symbols, and no locale begins with ':'
    return {
        "name": spec.name,
        "locale": spec.locale,
        "max_index": spec.max_index,
        "table": spec.table,
        "getter": _exported(spec.getter),
        "setter": _exported(spec.setter),
        "inputs": {_exported(m): [_exported(b.parser), _vexpr_to_obj(b.validator)]
                   for m, b in spec.inputs.items()},
        "outputs": {_exported(m): _exported(f) for m, f in spec.outputs.items()},
        "headings": {_exported(m): t for m, t in spec.headings.items()},
        "doc": spec.doc,
        "datatype": _exported(spec.datatype),
        "generator": _exported(spec.generator),
    }


def _spec_from_obj(obj: dict, shared: _Shared) -> WidgetSpec:
    """The normalized spec an exported object describes; ``_install`` checks it.

    Its symbols and its ``inputs`` map come from the build's ``shared``
    memo. A symbol that is not a string leaves every symbol as it is, as
    ``_normalized`` does, so that ``_install`` reports the same fault; that
    spec is built afresh, for the memo holds only normalized parts.
    """
    try:
        try:
            return _spec_of(obj, shared.symbol, shared.inputs_of)
        except AttributeError:  # a symbol is not a string
            return _spec_of(obj, _as_is, lambda value: _inputs_of(value, _as_is))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"malformed widget spec: {e}") from None


def _as_is(symbol):
    return symbol


def _spec_of(obj: dict, sym: Callable, inputs_of: Callable) -> WidgetSpec:
    """The spec ``obj`` describes, with ``sym`` applied to each symbol in it
    and its ``inputs`` value built by ``inputs_of``."""
    def opt(key):
        value = obj.get(key)
        return None if value is None else sym(value)

    return WidgetSpec(
        name=sym(obj["name"]),
        locale=sym(obj["locale"]),
        max_index=obj["max_index"],
        table=opt("table"),
        getter=opt("getter"),
        setter=opt("setter"),
        inputs=inputs_of(obj.get("inputs", {})),
        outputs={sym(m): sym(f) for m, f in dict(obj.get("outputs", {})).items()},
        headings={sym(m): t for m, t in dict(obj.get("headings", {})).items()},
        doc=obj.get("doc"),
        datatype=opt("datatype"),
        generator=opt("generator"),
    )


def _inputs_of(value, sym: Callable) -> dict:
    """The medium map an exported ``inputs`` value describes, with ``sym``
    applied to each symbol in it."""
    return {sym(m): InputBinding(sym(pair[0]), _vexpr_from_obj(pair[1]))
            for m, pair in value.items()}
