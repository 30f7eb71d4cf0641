"""Jurisdiction-aware structured records.

Fields live in a widget space addressed by (name, index, locale, medium).
Schemas declare, per locale, how each field is validated, parsed,
formatted, and stored; locales inherit everything they do not override.
"""

from .datum import (UNINITIALIZED, Datum, PersonName, SimpleDate, Uninitialized,
                    deserialize, dumps, is_uninitialized, loads, maybe_map,
                    maybe_or_default, require_valid, serialize)
from .errors import (CorruptTableError, DatabaseLockedError, DuplicateLocaleError,
                     DuplicateNameError, IndexOutOfRangeError, InvalidSpecError,
                     LocaleCycleError, MalformedEncodingError, NO_HANDLER_MESSAGE,
                     NO_STORAGE_MESSAGE, ParseError, ResolutionError, SchemaError, SchemaSyntaxError,
                     StoreError, UnknownLocaleError, UnknownParentError,
                     UnknownValidatorError, UnresolvedReferenceError,
                     ValidationError, WidgetSpaceError, WrongVariantError)
from .fixtures import fixture_dir, fixture_paths, load_fixture_registry
from .locales import LocaleTree
from .registry import (InputBinding, LoadReport, Registries, ResolvedParts, ResolvedStorage,
                       WidgetCoord, WidgetRegistry, WidgetSpec, standard_registries)
from .store import Database
from .textio import NamedRegistry
from .validators import (And, Base, Not, Or, ValidatorContext, ValidatorExpr,
                         ValidatorRegistry, default_validator_registry,
                         expand_template)

__version__ = "0.1.0"

__all__ = [
    "UNINITIALIZED", "Datum", "PersonName", "SimpleDate", "Uninitialized",
    "deserialize", "dumps", "is_uninitialized", "loads", "maybe_map",
    "maybe_or_default", "require_valid", "serialize",
    "CorruptTableError", "DatabaseLockedError", "DuplicateLocaleError",
    "DuplicateNameError", "IndexOutOfRangeError", "InvalidSpecError",
    "LocaleCycleError", "MalformedEncodingError", "NO_HANDLER_MESSAGE",
    "NO_STORAGE_MESSAGE",
    "ParseError", "ResolutionError", "SchemaError", "SchemaSyntaxError",
    "StoreError", "UnknownLocaleError", "UnknownParentError",
    "UnknownValidatorError", "UnresolvedReferenceError", "ValidationError",
    "WidgetSpaceError", "WrongVariantError",
    "fixture_dir", "fixture_paths", "load_fixture_registry",
    "LocaleTree",
    "InputBinding", "LoadReport", "Registries", "ResolvedParts", "ResolvedStorage",
    "WidgetCoord", "WidgetRegistry", "WidgetSpec", "standard_registries",
    "Database",
    "NamedRegistry",
    "And", "Base", "Not", "Or", "ValidatorContext", "ValidatorExpr",
    "ValidatorRegistry", "default_validator_registry", "expand_template",
]
