"""The runtime: widget specs published as snapshots, resolved, and used.

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

Specs come from the compiler (``compile``): ``load_schema``,
``import_state`` and ``define_widget`` each hand it a staged copy of the
snapshot and publish the copy only if the whole build succeeds, so a load
is all-or-nothing. Every symbol a spec holds is canonical, so plans
resolve from the caller's spelling by normalizing it once.
"""

from __future__ import annotations

import gc
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import accessors, compile, generators
from .compile import MAX_INDEX, InputBinding, LoadReport, WidgetSpec  # noqa: F401 (re-exported)
from .datum import UNINITIALIZED, Datum, Uninitialized, UnstorableError, require_valid
from .errors import (NO_HANDLER_MESSAGE, NO_STORAGE_MESSAGE, ResolutionError,
                     ValidationError)
from .locales import LocaleTree
from .sexpr import normalize_symbol
from .store import check_index
from .textio import NamedRegistry, default_formatter_registry, default_parser_registry
from .validators import ValidatorContext, ValidatorRegistry, default_validator_registry


@dataclass(frozen=True)
class WidgetCoord:
    """A point in widget space: field name, locale, medium, occurrence index."""

    name: str
    locale: str
    medium: str
    index: int = 1


class ResolvedParts(NamedTuple):
    """Each property of one (name, locale, medium), from the nearest locale that
    declares it, or None; storage and generator are the same for every medium."""

    storage: Optional[WidgetSpec]  # the nearest spec that declares storage
    formatter: Optional[str]
    binding: Optional[InputBinding]
    heading: Optional[str]
    generator: Optional[str]


@dataclass(frozen=True)
class Registries:
    """The pluggable function tables a widget registry resolves names against.

    Frozen, since a plan holds these tables: to swap one, assign a new
    ``Registries`` to ``WidgetRegistry.registries``, which drops every plan.
    Registering into a table needs neither, as a plan sees it at once.
    """

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


class WidgetRegistry:
    """The (name, locale) -> WidgetSpec map plus everything needed to use it.

    The locale tree and the spec map are published together as one
    ``(tree, specs, plans)`` snapshot that a single assignment replaces.
    Readers take no lock and read the snapshot once per call, so they never
    see a tree from one load with specs from another. Writers edit a private
    copy under the writer lock and publish it, with an empty plan memo, only
    when they succeed. The published tree is never mutated in place, since the
    plans made from it would go stale: ``locales.add`` publishes a new
    snapshot too. Assigning ``registries`` publishes an empty plan memo as
    well, since each plan holds the tables it calls through.
    """

    def __init__(self):
        self._registries = standard_registries()
        self._snapshot: tuple[LocaleTree, dict[tuple[str, str], WidgetSpec], _Plans] = (
            LocaleTree(), {}, _Plans())
        self._lock = threading.Lock()

    @property
    def registries(self) -> Registries:
        """The function tables; assigning new ones publishes an empty plan memo."""
        return self._registries

    @registries.setter
    def registries(self, registries: Registries) -> None:
        with self._lock:  # the tables first: a plan made from the new snapshot uses them
            self._registries = registries
            tree, specs, _ = self._snapshot
            self._snapshot = (tree, specs, _Plans())

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
            compile.define(spec, tree, specs, self.registries)

    def spec_at(self, name: str, locale: str) -> Optional[WidgetSpec]:
        return self._snapshot[1].get((normalize_symbol(name), normalize_symbol(locale)))

    def widget_names_at(self, locale: str) -> list[str]:
        """Names with a spec anywhere in the locale's ancestry, sorted."""
        tree, specs, _ = self._snapshot
        chain = set(tree.ancestry(locale))
        return sorted({name for (name, loc) in specs if loc in chain})

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

    def resolve_storage(self, name: str, locale: str) -> WidgetSpec:
        """The nearest ancestor spec that declares storage: its ``table``,
        ``getter`` and ``setter`` names, ``max_index`` and ``locale``."""
        return _found(self.resolve_parts(name, locale, "default").storage,
                      "storage", name, locale)

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
        max_index, getters, getter, formatters, formatter, _, _, _, _, _, _, ctx = (
            self._snapshot[2].get((coord.name, coord.locale, coord.medium))
            or self._new_plan(coord))
        index = coord.index
        if type(index) is not int or not 1 <= index <= max_index:
            check_index(index, max_index)
        if getter is None:
            raise ResolutionError(NO_STORAGE_MESSAGE, {"name": ctx.name, "locale": ctx.locale,
                                                       "missing": "getter"})
        value = (db.get_indexed(getter, ctx.name, index) if getters is None
                 else getters[getter](db, ctx.name, index, ctx.locale))
        if value is UNINITIALIZED:
            return UNINITIALIZED
        if formatter is None:
            _found(None, "output", coord.name, coord.locale, coord.medium)
        return formatters[formatter](value)

    def parse_and_set(self, db, coord: WidgetCoord, text: str) -> Datum:
        """Validate ``text``, parse it, and store the result at ``coord``.

        Validation failure propagates before anything touches the
        database, so a failed set leaves the store bit-identical. A parsed
        value the store cannot hold fails the same way, as a ValidationError:
        a table's ``put`` checks it before it touches the table, and a setter
        registered by name is handed only a value that passed that check.
        """
        max_index, _, _, _, _, setters, setter, parsers, parser, validators, validator, ctx = (
            self._snapshot[2].get((coord.name, coord.locale, coord.medium))
            or self._new_plan(coord))
        index = coord.index
        if type(index) is not int or not 1 <= index <= max_index:
            check_index(index, max_index)
        if setter is None:
            raise ResolutionError(NO_STORAGE_MESSAGE, {"name": ctx.name, "locale": ctx.locale,
                                                       "missing": "setter"})
        if parser is None:
            _found(None, "input", coord.name, coord.locale, coord.medium)
        validators.validate(validator, ctx, text)
        value = parsers[parser](text)
        try:
            if setters is None:  # the table's put_indexed checks the value before it writes
                db.put_indexed(setter, ctx.name, index, value, max_index)
                return value
            require_valid(value)  # a registered setter gets only a storable value
        except UnstorableError as e:
            raise ValidationError(text, str(e)) from None
        setters[setter](db, ctx.name, index, ctx.locale, value)
        return value

    def _new_plan(self, coord: WidgetCoord) -> tuple:
        """Make ``coord``'s plan from one ``resolve_parts`` walk and memoize it.

        A plan is ``(max_index, getters, getter, formatters, formatter,
        setters, setter, parsers, parser, validators, validator, ctx)``: it
        holds every table its calls go through, so a warm call reads nothing
        else of ``registries``. Each named function is a table and its key
        there (``NamedRegistry.locate``), found once per plan; a call
        subscripts the table, and a registration writes into that same
        table, so it takes effect at the next call. A table-backed accessor
        is the table's name, with None for its function table: the call goes
        to ``Database.get_indexed`` or ``put_indexed`` itself. A part no
        ancestor declares is None with its table, and the fused operation
        that needs it raises from the plan. The fused operations probe the
        memo with the caller's spelling and come here on a miss.

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
                regs = self.registries  # read after the snapshot, which its setter publishes
                parts = self.resolve_parts(coord.name, coord.locale, coord.medium)
                spec = _found(parts.storage, "storage", coord.name, coord.locale)
                binding = parts.binding
                plan = (spec.max_index, *_located(regs.getters, spec.getter, spec.table),
                        *_located(regs.formatters, parts.formatter),
                        *_located(regs.setters, spec.setter, spec.table),
                        *_located(regs.parsers, binding and binding.parser),
                        regs.validators, binding and binding.validator,
                        ValidatorContext(*key))
                if self._snapshot is not snapshot:
                    continue  # a load published meanwhile: plan against the new snapshot
                plans[key] = plan
            if key[2] != medium:  # the default plan, seen from the caller's medium
                plan = plan[:-1] + (ValidatorContext(name, locale, medium),)
            return plan

    def generate_random(self, name: str, locale: str, medium: str, seed: int) -> str:
        """Deterministic-in-seed input text from the widget's generator."""
        generator = self.registries.generators.get(
            self.resolve_generator(name, locale))
        rng = random.Random(seed)
        ctx = ValidatorContext(normalize_symbol(name), normalize_symbol(locale),
                               normalize_symbol(medium))
        return generator(rng, ctx)

    # -- building ------------------------------------------------------------

    def load_schema(self, source: str, *, filename: str = "<schema>",
                    replace: bool = False) -> LoadReport:
        return self._load_sources([(filename, source)], replace)

    def load_schema_files(self, paths, *, replace: bool = False) -> LoadReport:
        return self._load_sources(compile.read_sources(paths), replace)

    def _load_sources(self, sources, replace: bool) -> LoadReport:
        """Load ``(filename, text)`` sources into one staged snapshot."""
        with self._staged() as (tree, specs):
            return compile.load(sources, tree, specs, self.registries, replace)

    def export_state(self) -> dict:
        """A JSON-ready snapshot of locales and specs, in definition order."""
        tree, specs, _ = self._snapshot
        return compile.export_state(tree, specs)

    def import_state(self, state: dict) -> None:
        """Add an exported state, re-checking references; all-or-nothing, like a load."""
        with self._staged() as (tree, specs):
            compile.import_state(state, tree, specs, self.registries)


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


def _located(registry: NamedRegistry, name: Optional[str], fallback=None) -> tuple:
    """``registry.locate(name)``, or ``(None, fallback)`` where there is no name."""
    return (None, fallback) if name is None else registry.locate(name)


def _canonical(symbol: str) -> str:
    """``normalize_symbol(symbol)``, as the caller's own string when already canonical."""
    text = normalize_symbol(symbol)
    return symbol if text == symbol else text
