"""Widget registry: definition checks, per-property resolution, fused operations."""

import copy
import dataclasses
import gc
import json
import random
import sys
import tempfile
import threading
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Callable, Optional

import pytest
from hypothesis import given, settings, strategies as st

from widgetspace import (
    UNINITIALIZED, Base, CorruptTableError, Database, IndexOutOfRangeError, InputBinding,
    InvalidSpecError, LocaleTree, NamedRegistry, NO_HANDLER_MESSAGE, NO_STORAGE_MESSAGE,
    PersonName, ResolutionError, ResolvedParts, SchemaError, SchemaSyntaxError,
    SimpleDate, UnknownLocaleError,
    UnknownParentError, UnknownValidatorError, UnresolvedReferenceError, ValidationError,
    ValidatorContext, WidgetCoord, WidgetRegistry, WidgetSpec, WrongVariantError, accessors,
    load_fixture_registry, standard_registries,
)
from widgetspace.compile import install
from widgetspace.registry import MAX_INDEX
from widgetspace.sexpr import int_text, normalize_symbol
from widgetspace.validators import And, Not, Or, ValidatorExpr, ValidatorRegistry

from conftest import Shouting


def tiny_registry():
    """root -> mid -> leaf, no widgets yet."""
    reg = WidgetRegistry()
    reg.load_schema("(locale root :parent none)"
                    "(locale mid :parent root)"
                    "(locale leaf :parent mid)")
    return reg


class TestDefineWidget:
    def test_unknown_locale(self):
        reg = tiny_registry()
        with pytest.raises(UnknownLocaleError):
            reg.define_widget(WidgetSpec(name="w", locale="atlantis"))

    def test_invalid_names(self):
        reg = tiny_registry()
        with pytest.raises(InvalidSpecError):
            reg.define_widget(WidgetSpec(name="bad name", locale="root"))
        with pytest.raises(InvalidSpecError):
            reg.define_widget(WidgetSpec(name="w", locale="root", max_index=0))
        with pytest.raises(InvalidSpecError):
            reg.define_widget(WidgetSpec(name="w", locale="root", table="no/good"))

    def test_index_bound(self):
        reg = tiny_registry()
        reg.define_widget(WidgetSpec(name="w", locale="root", table="t", max_index=MAX_INDEX))
        assert reg.resolve_storage("w", "leaf").max_index == MAX_INDEX
        for bound in (MAX_INDEX + 1, 10_000_000_000_000):
            with pytest.raises(InvalidSpecError, match=f"max_index must be at most {MAX_INDEX}"):
                reg.define_widget(WidgetSpec(name="v", locale="root", table="t",
                                             max_index=bound))
        assert reg.spec_at("v", "root") is None

    def test_unknown_references(self):
        reg = tiny_registry()
        for kwargs in ({"getter": "ghost"}, {"setter": "ghost"},
                       {"generator": "ghost"}):
            with pytest.raises(UnresolvedReferenceError):
                reg.define_widget(WidgetSpec(name="w", locale="root", **kwargs))

    def test_unknown_formatter_in_outputs(self):
        reg = tiny_registry()
        with pytest.raises(UnresolvedReferenceError):
            reg.define_widget(WidgetSpec(
                name="w", locale="root", outputs={"default": "format-missing"}))

    def test_bad_validator_rejected(self):
        from widgetspace import Base, InputBinding, UnknownValidatorError
        reg = tiny_registry()
        with pytest.raises(UnknownValidatorError):
            reg.define_widget(WidgetSpec(
                name="w", locale="root",
                inputs={"default": InputBinding("identity", Base("ghost"))}))
        with pytest.raises(InvalidSpecError):
            reg.define_widget(WidgetSpec(
                name="w", locale="root",
                inputs={"default": InputBinding("identity", Base("length", (1,)))}))

    def test_replaces_whole_pair(self):
        reg = tiny_registry()
        reg.define_widget(WidgetSpec(
            name="w", locale="root", table="t",
            outputs={"a": "format-date-fbi", "default": "identity"}))
        reg.define_widget(WidgetSpec(
            name="w", locale="root", table="t",
            outputs={"b": "format-date-card"}))
        assert reg.resolve_formatter("w", "root", "b") == "format-date-card"
        # the old spec's media are gone, not merged
        with pytest.raises(ResolutionError):
            reg.resolve_formatter("w", "root", "a")

    def test_symbols_normalized(self):
        reg = tiny_registry()
        reg.define_widget(WidgetSpec(
            name=":SID", locale="Root", outputs={"M1": "Identity"}))
        assert reg.spec_at("sid", "root") is not None
        assert reg.resolve_formatter("sid", "root", "m1") == "identity"


class TestResolutionFixtures:
    """Goldens against the bundled jurisdiction schemas."""

    def test_formatter_local_exact(self, registry):
        assert registry.resolve_formatter("dob", "arkansas", "ar-arrest") == \
            "format-date-short"
        assert registry.resolve_formatter("sid", "arkansas", "ls1100-entry") == \
            "string-upcase"

    def test_formatter_inherited_exact(self, registry):
        # arkansas declares no transmission output and no default, so the
        # exact match two levels up wins
        assert registry.resolve_formatter("dob", "arkansas", "transmission") == \
            "format-date-fbi"

    def test_formatter_inherited_default(self, registry):
        assert registry.resolve_formatter("dob", "arkansas", "postcard") == \
            "format-date-card"
        assert registry.resolve_formatter("sid", "arkansas", "transmission") == \
            "identity"

    def test_formatter_chain_exhausted(self, registry):
        with pytest.raises(ResolutionError) as exc:
            registry.resolve_formatter("sid", "wisconsin", "ls1100-entry")
        assert str(exc.value) == NO_HANDLER_MESSAGE

    def test_parser_local_override(self, registry):
        binding = registry.resolve_parser("name-last", "wisconsin", "ls1100-entry")
        assert binding.parser == "identity"

    def test_parser_inherited_from_root(self, registry):
        binding = registry.resolve_parser("dob", "park-county-co", "ls1100-entry")
        assert binding.parser == "parse-date-fbi"

    def test_parser_chain_exhausted(self, registry):
        with pytest.raises(ResolutionError) as exc:
            registry.resolve_parser("sid", "arkansas", "transmission")
        assert str(exc.value) == NO_HANDLER_MESSAGE

    def test_heading(self, registry):
        assert registry.resolve_heading("dob", "ramsey-county-mn", "anything") == \
            "Date of Birth"
        assert registry.resolve_heading("sid", "arkansas", "x") == "State ID Number"

    def test_heading_absent_is_none(self, registry):
        assert registry.resolve_heading("sid", "wisconsin", "x") is None

    def test_generator(self, registry):
        assert registry.resolve_generator("sid", "arkansas") == "gen-sid"
        assert registry.resolve_generator("name-last", "wisconsin") == "gen-name-last"

    def test_generator_absent(self, registry):
        with pytest.raises(ResolutionError):
            registry.resolve_generator("subject-name", "arkansas")

    def test_storage_nearest_declarer(self, registry):
        s = registry.resolve_storage("sid", "arkansas")
        assert (s.locale, s.max_index) == ("arkansas", 1)
        # arkansas's dob spec declares no storage, so common's table applies
        s = registry.resolve_storage("dob", "arkansas")
        assert (s.locale, s.max_index) == ("common", 1)

    def test_storage_indexed_capacity(self, registry):
        assert registry.resolve_storage("alias", "wisconsin").max_index == 2

    def test_storage_missing(self, registry):
        with pytest.raises(ResolutionError) as exc:
            registry.resolve_storage("sid", "minnesota")
        assert str(exc.value) == NO_STORAGE_MESSAGE

    def test_getter_only_widget(self, registry):
        s = registry.resolve_storage("subject-name", "arkansas")
        assert (s.table, s.getter, s.setter) == (None, "person-name-from-fields", None)
        assert s.locale == "common"

    def test_widget_names_at(self, registry):
        assert registry.widget_names_at("arkansas") == [
            "alias", "dob", "name-first", "name-last", "name-middle",
            "name-suffix", "sid", "subject-name"]
        assert "sid" not in registry.widget_names_at("minnesota")


class TestDefaultBeatsAncestorExact:
    """A locale-local default wins over an exact medium match at a parent."""

    def build(self):
        reg = tiny_registry()
        reg.load_schema("""
            (widget w root
              :table t
              :input ((m identity numeric)
                      (default identity alphabetic))
              :output ((m format-date-fbi) (default format-date-card)))
            (widget w mid
              :input ((default identity alphanumeric))
              :output ((default format-date-short)))
        """)
        return reg

    def test_output_side(self):
        reg = self.build()
        assert reg.resolve_formatter("w", "mid", "m") == "format-date-short"
        assert reg.resolve_formatter("w", "leaf", "m") == "format-date-short"
        assert reg.resolve_formatter("w", "root", "m") == "format-date-fbi"

    def test_input_side(self):
        reg = self.build()
        binding = reg.resolve_parser("w", "mid", "m")
        ctx_text = "ab12"  # alphanumeric passes, numeric would not
        from widgetspace import ValidatorContext
        reg.registries.validators.validate(
            binding.validator, ValidatorContext("w", "mid", "m"), ctx_text)

    def test_local_exact_still_beats_local_default(self):
        reg = self.build()
        reg.load_schema("(widget w mid :output ((m identity) (default format-date-short)))")
        assert reg.resolve_formatter("w", "mid", "m") == "identity"


class TestGetAndFormat:
    def test_unset_returns_marker_without_formatting(self, tmp_path):
        reg = tiny_registry()
        calls = []

        def counting(d):
            calls.append(d)
            return "x"

        reg.registries.formatters.register("counting", counting)
        reg.define_widget(WidgetSpec(name="w", locale="root", table="t",
                                     outputs={"default": "counting"}))
        db = Database(tmp_path / "db")
        out = reg.get_and_format(db, WidgetCoord("w", "leaf", "m"))
        assert out is UNINITIALIZED
        assert calls == []

    def test_unset_beats_missing_formatter(self, tmp_path):
        # the absence marker comes back even where formatting would fail
        reg = tiny_registry()
        reg.define_widget(WidgetSpec(name="w", locale="root", table="t"))
        db = Database(tmp_path / "db")
        assert reg.get_and_format(db, WidgetCoord("w", "root", "m")) is UNINITIALIZED

    def test_set_value_formats(self, registry, db):
        registry.parse_and_set(db, WidgetCoord("dob", "arkansas", "ls1100-entry"),
                               "20100704")
        assert registry.get_and_format(
            db, WidgetCoord("dob", "arkansas", "ar-arrest")) == "7/4/2010"

    def test_set_value_missing_formatter_raises(self, tmp_path):
        reg = tiny_registry()
        reg.load_schema("(widget w root :table t"
                        " :input ((default identity always-ok)))")
        db = Database(tmp_path / "db")
        reg.parse_and_set(db, WidgetCoord("w", "root", "m"), "v")
        with pytest.raises(ResolutionError) as exc:
            reg.get_and_format(db, WidgetCoord("w", "root", "m"))
        assert str(exc.value) == NO_HANDLER_MESSAGE

    def test_index_out_of_range(self, registry, db):
        with pytest.raises(IndexOutOfRangeError):
            registry.get_and_format(db, WidgetCoord("dob", "arkansas", "x", index=2))

    def test_composed_getter(self, registry, db):
        at = WidgetCoord("name-last", "wisconsin", "ls1100-entry")
        registry.parse_and_set(db, at, "Doe")
        registry.parse_and_set(
            db, WidgetCoord("name-first", "wisconsin", "ls1100-entry"), "John")
        out = registry.get_and_format(
            db, WidgetCoord("subject-name", "wisconsin", "report"))
        assert out == "Doe, John"


class TestParseAndSet:
    def test_returns_parsed_datum(self, registry, db):
        value = registry.parse_and_set(
            db, WidgetCoord("dob", "arkansas", "ls1100-entry"), "20100704")
        assert value == SimpleDate(2010, 7, 4)
        assert db.get("demographics", "dob") == SimpleDate(2010, 7, 4)

    def test_validation_failure_raises_exact_message(self, registry, db):
        with pytest.raises(ValidationError) as exc:
            registry.parse_and_set(
                db, WidgetCoord("sid", "arkansas", "ls1100-entry"), "ab!12")
        assert exc.value.message == "The character '!' is not alphanumeric"
        assert exc.value.value == "ab!12"

    def test_failure_leaves_database_byte_identical(self, registry, tmp_path):
        db = Database(tmp_path / "db")
        registry.parse_and_set(
            db, WidgetCoord("sid", "arkansas", "ls1100-entry"), "ab12cd")
        db.checkpoint()
        table_file = tmp_path / "db" / "identifiers.tbl"
        before = table_file.read_bytes()
        before_dump = db.dump_text()

        with pytest.raises(ValidationError):
            registry.parse_and_set(
                db, WidgetCoord("sid", "arkansas", "ls1100-entry"), "nope!")
        db.checkpoint()
        assert table_file.read_bytes() == before
        assert db.dump_text() == before_dump

    def test_no_setter_raises_storage_message(self, registry, db):
        with pytest.raises(ResolutionError) as exc:
            registry.parse_and_set(
                db, WidgetCoord("subject-name", "arkansas", "x"), "Doe")
        assert str(exc.value) == NO_STORAGE_MESSAGE

    def test_indexed_slots(self, registry, db):
        registry.parse_and_set(
            db, WidgetCoord("alias", "arkansas", "m", index=2), "Smith")
        assert db.get("demographics", "alias") == (UNINITIALIZED, "Smith")
        with pytest.raises(IndexOutOfRangeError):
            registry.parse_and_set(
                db, WidgetCoord("alias", "arkansas", "m", index=3), "X")

    def test_a_bool_index_is_refused(self, registry, db):
        for name, text in (("dob", "20100704"), ("alias", "SMITH")):
            for index in (True, False):
                at = WidgetCoord(name, "arkansas", "ls1100-entry", index)
                with pytest.raises(IndexOutOfRangeError, match=rf"^index {index} out of range"):
                    registry.parse_and_set(db, at, text)
                with pytest.raises(IndexOutOfRangeError, match=rf"^index {index} out of range"):
                    registry.get_and_format(db, at)
        assert db.is_empty()

    def test_an_index_of_any_length_is_refused(self, registry, db):
        huge = 10 ** 5000  # more digits than the interpreter's str(int) limit
        at = WidgetCoord("alias", "arkansas", "ls1100-entry", huge)
        message = rf"^index {int_text(huge)} out of range \[1, 2\]$"
        with pytest.raises(IndexOutOfRangeError, match=message):
            registry.get_and_format(db, at)
        with pytest.raises(IndexOutOfRangeError, match=message):
            registry.parse_and_set(db, at, "SMITH")
        assert db.is_empty()

    def test_validator_sees_coordinate_context(self, tmp_path):
        reg = tiny_registry()
        seen = []

        def probe(ctx, args, text):
            seen.append(ctx)

        reg.registries.validators.register("ctx-probe", 0, 0, probe)
        reg.load_schema("(widget w root :table t"
                        " :input ((m identity ctx-probe)))")
        db = Database(tmp_path / "db")
        reg.parse_and_set(db, WidgetCoord("w", "leaf", "m", index=1), "v")
        assert seen[0].name == "w"
        assert seen[0].locale == "leaf"
        assert seen[0].medium == "m"
        assert not hasattr(seen[0], "index")

    def test_unstorable_text_is_a_validation_error(self, tmp_path):
        reg = tiny_registry()
        reg.load_schema("(widget note root :table t"
                        " :input ((m identity always-ok)))")
        db = Database(tmp_path / "db")
        with pytest.raises(ValidationError) as exc:
            reg.parse_and_set(db, WidgetCoord("note", "leaf", "m"), "a\tb")
        assert exc.value.value == "a\tb"
        assert db.is_empty()

    def test_integer_too_long_to_store_is_a_validation_error(self, tmp_path):
        reg = tiny_registry()
        reg.registries.parsers.register("googolplex-ish", lambda text: 10 ** 5000)
        reg.load_schema("(widget n root :table t"
                        " :input ((m googolplex-ish always-ok)))")
        db = Database(tmp_path / "db")
        with pytest.raises(ValidationError) as exc:
            reg.parse_and_set(db, WidgetCoord("n", "leaf", "m"), "big")
        assert exc.value.value == "big"
        assert str(exc.value) == "integers of more than 4300 digits are not storable"
        assert db.is_empty()

    def test_setter_side_storage_resolution(self, registry, db):
        # storage comes from common, parser from wisconsin, via one call
        registry.parse_and_set(
            db, WidgetCoord("name-middle", "wisconsin", "ls1100-entry"), "")
        assert db.contains_key("demographics", "name-middle")
        assert db.get("demographics", "name-middle") == ""


class TestOneStorabilityCheck:
    """A table-backed write is checked once, by the store, before it touches a
    table; a setter registered by name is checked before it is called. Either
    way a value the store cannot hold fails as a ValidationError."""

    SCHEMA = ("(widget note root :table t :input ((m identity always-ok)))"
              "(widget notes root :table t :index 3 :input ((m identity always-ok)))"
              "(widget big root :table t :input ((m googolplex-ish always-ok)))"
              "(widget bigs root :table t :index 2 :input ((m googolplex-ish always-ok)))"
              "(widget yes root :table t :input ((m truth always-ok)))"
              "(widget yeses root :table t :index 2 :input ((m truth always-ok)))")

    def _registry(self):
        reg = tiny_registry()
        reg.registries.parsers.register("googolplex-ish", lambda text: 10 ** 5000)
        reg.registries.parsers.register("truth", lambda text: True)
        reg.load_schema(self.SCHEMA)
        return reg

    @staticmethod
    def _failure(reg, db, coord, text):
        """The ValidationError that ``parse_and_set`` raises, as a comparable tuple."""
        with pytest.raises(ValidationError) as exc:
            reg.parse_and_set(db, coord, text)
        e = exc.value
        assert e.__cause__ is None and e.__suppress_context__
        return type(e), e.value, e.message, str(e)

    @pytest.mark.parametrize("scalar,indexed,text,message", [
        ("note", "notes", "a\tb", "control character '\\t' is not storable text"),
        ("big", "bigs", "big", "integers of more than 4300 digits are not storable")])
    def test_an_indexed_write_fails_as_a_scalar_one(self, tmp_path, scalar, indexed, text,
                                                     message):
        reg = self._registry()
        db = Database(tmp_path / "db")
        reg.parse_and_set(db, WidgetCoord("note", "leaf", "m"), "kept")
        reg.parse_and_set(db, WidgetCoord("notes", "leaf", "m", index=2), "kept")
        db.checkpoint()
        table = tmp_path / "db" / "t.tbl"
        before = (db.dump_text(), table.read_bytes())
        outcomes = [self._failure(reg, db, WidgetCoord(name, "leaf", "m", index=index), text)
                    for name, index in ((scalar, 1), (indexed, 2), (indexed, 1))]
        assert outcomes == [(ValidationError, text, message, message)] * 3
        db.checkpoint()
        assert (db.dump_text(), table.read_bytes()) == before

    def test_a_fresh_indexed_key_stays_absent(self, tmp_path):
        reg = self._registry()
        db = Database(tmp_path / "db")
        self._failure(reg, db, WidgetCoord("notes", "leaf", "m", index=1), "a\nb")
        assert not db.contains_key("t", "notes")
        assert db.is_empty()

    def test_a_named_setter_sees_only_storable_values(self, tmp_path):
        reg = tiny_registry()
        calls = []
        reg.registries.getters.register("g", lambda db, name, index, locale: UNINITIALIZED)
        reg.registries.setters.register(
            "spy", lambda db, name, index, locale, value: calls.append(value))
        reg.registries.parsers.register("googolplex-ish", lambda text: 10 ** 5000)
        reg.registries.parsers.register("truth", lambda text: True)
        reg.load_schema("(widget w root :getter g :setter spy :input ((m identity always-ok)))"
                        "(widget n root :getter g :setter spy"
                        " :input ((m googolplex-ish always-ok)))"
                        "(widget y root :getter g :setter spy :input ((m truth always-ok)))")
        db = Database(tmp_path / "db")
        assert self._failure(reg, db, WidgetCoord("w", "leaf", "m"), "a\x7fb")[2] == \
            "control character '\\x7f' is not storable text"
        assert self._failure(reg, db, WidgetCoord("w", "leaf", "m"), "\ud800")[2] == \
            "surrogate '\\ud800' is not storable text"
        assert self._failure(reg, db, WidgetCoord("n", "leaf", "m"), "big")[2] == \
            "integers of more than 4300 digits are not storable"
        with pytest.raises(TypeError, match="^booleans are not datum values$"):
            reg.parse_and_set(db, WidgetCoord("y", "leaf", "m"), "yes")
        assert calls == []
        reg.parse_and_set(db, WidgetCoord("w", "leaf", "m"), "ok")
        assert calls == ["ok"]

    @pytest.mark.parametrize("name,index", [("yes", 1), ("yeses", 2)])
    def test_a_boolean_is_still_a_type_error(self, tmp_path, name, index):
        reg = self._registry()
        db = Database(tmp_path / "db")
        with pytest.raises(TypeError) as exc:
            reg.parse_and_set(db, WidgetCoord(name, "leaf", "m", index=index), "yes")
        assert str(exc.value) == "booleans are not datum values"
        assert not isinstance(exc.value, ValidationError)
        assert db.is_empty()

    @pytest.mark.parametrize("name,index", [("note", 1), ("notes", 2)])
    def test_a_corrupt_table_met_by_a_cold_write_is_corrupt(self, tmp_path, name, index):
        reg = self._registry()
        root = tmp_path / "db"
        root.mkdir()
        (root / "t.tbl").write_text("(table t)\n(k 1\n")
        with pytest.raises(CorruptTableError):
            reg.parse_and_set(Database(root), WidgetCoord(name, "leaf", "m", index=index), "ok")
        # an unstorable value is refused before the table is loaded
        outcome = self._failure(reg, Database(root),
                                WidgetCoord(name, "leaf", "m", index=index), "a\tb")
        assert outcome[0] is ValidationError
        assert (root / "t.tbl").read_text() == "(table t)\n(k 1\n"


class TestCanonicalFirstValidation:
    def test_base_spellings(self):
        validators = standard_registries().validators
        ctx = ValidatorContext("w", "root", "m")
        for name in ("required", "Required", "REQUIRED"):
            assert name in validators
            validators.validate(Base(name), ctx, "x")
            with pytest.raises(ValidationError) as exc:
                validators.validate(Base(name), ctx, " ")
            assert (exc.value.value, exc.value.message) == (" ", "Input is required")
        for name in ("Nope", Shouting("required")):
            assert name not in validators
            with pytest.raises(UnknownValidatorError) as exc:
                validators.validate(Base(name), ctx, "x")
            assert str(exc.value) == f"unknown validator '{name}'"

    def test_arity_changed_after_a_load_is_checked_at_the_call(self, tmp_path):
        reg = tiny_registry()
        reg.load_schema("(widget w root :table t :input ((m identity (length 1 5))))")
        db = Database(tmp_path / "db")
        at = WidgetCoord("w", "leaf", "m")
        reg.parse_and_set(db, at, "abc")
        reg.registries.validators.register("length", 1, 1, lambda c, a, t: None, replace=True)
        with pytest.raises(InvalidSpecError) as exc:
            reg.parse_and_set(db, at, "abcd")
        assert str(exc.value) == "validator 'length' takes 1 argument, got 2"
        assert db.get("t", "w") == "abc"


class TestGenerateRandom:
    def test_deterministic_in_seed(self, registry):
        a = registry.generate_random("sid", "arkansas", "ls1100-entry", seed=99)
        b = registry.generate_random("sid", "arkansas", "ls1100-entry", seed=99)
        assert a == b

    def test_seeds_vary_output(self, registry):
        outputs = {registry.generate_random("sid", "arkansas", "ls1100-entry", seed=s)
                   for s in range(30)}
        assert len(outputs) > 1

    def test_generated_text_passes_own_validator(self, registry):
        from widgetspace import ValidatorContext
        binding = registry.resolve_parser("sid", "arkansas", "ls1100-entry")
        for seed in range(50):
            text = registry.generate_random("sid", "arkansas", "ls1100-entry", seed)
            registry.registries.validators.validate(
                binding.validator,
                ValidatorContext("sid", "arkansas", "ls1100-entry"), text)

    def test_missing_generator(self, registry):
        with pytest.raises(ResolutionError):
            registry.generate_random("subject-name", "arkansas", "x", seed=1)


class TestResolutionOracle:
    """Randomized registries against a brute-force ancestry walk."""

    MEDIA = ["m1", "m2", "m3", "default"]
    FORMATTERS = ["identity", "format-date-fbi", "format-date-card",
                  "format-date-short", "string-upcase"]

    def _random_registry(self, rng):
        reg = WidgetRegistry()
        names = [f"loc{i}" for i in range(rng.randint(1, 30))]
        reg.locales.add(names[0])
        for name in names[1:]:
            reg.locales.add(name, rng.choice(reg.locales.locales()))
        table = {}
        for loc in names:
            if rng.random() < 0.5:
                continue
            outputs = {m: rng.choice(self.FORMATTERS)
                       for m in self.MEDIA if rng.random() < 0.4}
            table[loc] = outputs
            reg.define_widget(WidgetSpec(name="w", locale=loc, outputs=outputs))
        return reg, names, table

    def _oracle(self, reg, table, start, medium):
        for loc in reg.locales.ancestry(start):
            outputs = table.get(loc)
            if outputs is None:
                continue
            hit = outputs.get(medium) or outputs.get("default")
            if hit is not None:
                return hit
        return None

    def test_matches_oracle(self):
        rng = random.Random(1100)
        checked = 0
        for trial in range(150):
            reg, names, table = self._random_registry(rng)
            for _ in range(20):
                start = rng.choice(names)
                medium = rng.choice(self.MEDIA[:3] + ["m9"])
                expected = self._oracle(reg, table, start, medium)
                if expected is None:
                    with pytest.raises(ResolutionError):
                        reg.resolve_formatter("w", start, medium)
                else:
                    assert reg.resolve_formatter("w", start, medium) == expected
                checked += 1
        assert checked == 3000


def ref_resolve(reg, pick: Callable, name: str, locale: str, medium, direction: str,
                message: str = NO_HANDLER_MESSAGE):
    """The per-property walk the ``resolve_*`` methods each made before
    ``resolve_parts``, as it was but for one change: the context spells the
    locale canonically, as it spells the name and the medium."""
    tree, specs, _ = reg._snapshot
    name = normalize_symbol(name)
    context = {"name": name, "locale": normalize_symbol(locale), "direction": direction}
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


def ref_resolve_storage(reg, name: str, locale: str) -> WidgetSpec:
    return ref_resolve(reg, lambda spec: spec if spec.declares_storage() else None,
                       name, locale, None, "storage", NO_STORAGE_MESSAGE)


def ref_resolve_heading(reg, name: str, locale: str, medium: str):
    try:
        return ref_resolve(reg, attrgetter("headings"), name, locale, medium, "heading")
    except ResolutionError:
        return None


# resolve_* method -> (reference walk, whether it takes a medium)
REFERENCE_WALKS = {
    "resolve_formatter": (lambda reg, name, locale, medium: ref_resolve(
        reg, attrgetter("outputs"), name, locale, medium, "output"), True),
    "resolve_parser": (lambda reg, name, locale, medium: ref_resolve(
        reg, attrgetter("inputs"), name, locale, medium, "input"), True),
    "resolve_storage": (ref_resolve_storage, False),
    "resolve_heading": (ref_resolve_heading, True),
    "resolve_generator": (lambda reg, name, locale: ref_resolve(
        reg, attrgetter("generator"), name, locale, None, "generator"), False),
}

WALK_MEDIA = ["m1", "m2", "default"]
HEADING_ONLY = "h"  # a medium only a heading declares
STORAGE = [{}, {"table": "t"}, {"table": "t", "max_index": 2},
           {"getter": "person-name-from-fields"}, {"setter": "person-name-to-fields"}]


@st.composite
def _walk_cases(draw) -> tuple:
    """A registry with a locale tree up to 8 deep, random specs of ``w`` and
    ``v`` along it, and coordinates to resolve, some of them unknown."""
    reg = WidgetRegistry()
    locales = [f"loc{i}" for i in range(draw(st.integers(1, 8)))]
    reg.locales.add(locales[0])
    for i, loc in enumerate(locales[1:], 1):
        reg.locales.add(loc, locales[draw(st.integers(0, i - 1))])

    def medium_map(media, values):
        return draw(st.dictionaries(st.sampled_from(media), values, max_size=len(media)))

    for name in ("w", "v"):
        for loc in locales:
            if draw(st.booleans()):
                reg.define_widget(WidgetSpec(
                    name=name, locale=loc, **draw(st.sampled_from(STORAGE)),
                    outputs=medium_map(WALK_MEDIA, st.sampled_from(["identity", "string-upcase"])),
                    inputs=medium_map(WALK_MEDIA, st.sampled_from(
                        [InputBinding("identity", Base("always-ok")),
                         InputBinding("identity", Base("alphabetic"))])),
                    headings=medium_map(WALK_MEDIA + [HEADING_ONLY],
                                        st.sampled_from(["", "Heading", "Other"])),
                    generator=draw(st.sampled_from([None, "gen-sid", "gen-name-last"]))))
    coords = draw(st.lists(st.tuples(
        st.sampled_from(["w", "W", ":v", "ghost"]),
        st.sampled_from(locales + [locales[-1].upper(), ":" + locales[-1], "nowhere"]),
        st.sampled_from(WALK_MEDIA + [HEADING_ONLY, "m9", "M1", "::m2"])), min_size=1, max_size=8))
    return reg, coords


def _resolution(call) -> tuple:
    try:
        return "ok", call()
    except SchemaError as e:
        return type(e), str(e), getattr(e, "context", None)


class TestOneWalk:
    """Every ``resolve_*`` picks its part from one ``resolve_parts`` walk."""

    @settings(max_examples=300, deadline=None)
    @given(_walk_cases())
    def test_each_pick_matches_its_own_walk(self, case):
        reg, coords = case
        for name, locale, medium in coords:
            for method, (reference, takes_medium) in REFERENCE_WALKS.items():
                args = (name, locale, medium) if takes_medium else (name, locale)
                assert (_resolution(lambda: getattr(reg, method)(*args))
                        == _resolution(lambda: reference(reg, *args))), (
                    method, args, reg.export_state())

    def _counting(self, monkeypatch) -> dict:
        """Counts of ``resolve_parts`` calls, tree walks and locales probed."""
        counts = {"parts": 0, "walks": 0, "probes": 0}
        resolve, resolve_parts = LocaleTree.resolve, WidgetRegistry.resolve_parts

        def counted_parts(registry, *args):
            counts["parts"] += 1
            return resolve_parts(registry, *args)

        def counted_walk(tree, start, probe, **kwargs):
            counts["walks"] += 1

            def counted_probe(loc):
                counts["probes"] += 1
                return probe(loc)
            return resolve(tree, start, counted_probe, **kwargs)

        monkeypatch.setattr(WidgetRegistry, "resolve_parts", counted_parts)
        monkeypatch.setattr(LocaleTree, "resolve", counted_walk)
        return counts

    def test_a_plan_is_one_walk(self, tmp_path, monkeypatch):
        reg = tiny_registry()
        reg.load_schema('(widget w root :table t :heading (default "W") :output ((m identity)))'
                        "(widget w mid :input ((m identity required)))")
        counts = self._counting(monkeypatch)
        db = Database(tmp_path / "db")
        at = WidgetCoord("w", "leaf", "m")
        assert reg.parse_and_set(db, at, "x") == "x"
        assert counts == {"parts": 1, "walks": 1, "probes": 3}
        assert reg.get_and_format(db, at) == "x"
        assert counts == {"parts": 1, "walks": 1, "probes": 3}

    def test_the_walk_stops_once_every_part_is_found(self, monkeypatch):
        reg = tiny_registry()
        reg.load_schema('(widget w leaf :table t :heading (m "W") :output ((m identity))'
                        " :input ((default identity required)) :generator gen-sid)"
                        "(widget w root :table u)")
        counts = self._counting(monkeypatch)
        parts = reg.resolve_parts("W", ":Leaf", "M")
        assert parts == ResolvedParts(reg.spec_at("w", "leaf"), "identity",
                                      InputBinding("identity", Base("required")), "W", "gen-sid")
        assert counts == {"parts": 1, "walks": 1, "probes": 1}
        assert reg.resolve_parts("w", "leaf", "other").heading is None
        assert counts == {"parts": 2, "walks": 2, "probes": 4}

    def test_contexts_spell_the_coordinate_canonically(self, tmp_path):
        reg = tiny_registry()
        reg.load_schema("(widget w root :table t) (widget v root :setter person-name-to-fields)")
        failures = [
            (lambda: reg.resolve_formatter("W", "LEAF", "Q"),
             {"name": "w", "locale": "leaf", "direction": "output", "medium": "q"}),
            (lambda: reg.resolve_parser("W", "Leaf", "::Q"),
             {"name": "w", "locale": "leaf", "direction": "input", "medium": ":q"}),
            (lambda: reg.resolve_generator("W", ":Leaf"),
             {"name": "w", "locale": "leaf", "direction": "generator"}),
            (lambda: reg.resolve_storage("X", ":Leaf"),
             {"name": "x", "locale": "leaf", "direction": "storage"}),
            (lambda: reg.get_and_format(Database(tmp_path / "db"), WidgetCoord("V", "LEAF", "M")),
             {"name": "v", "locale": "leaf", "missing": "getter"}),
            (lambda: reg.parse_and_set(Database(tmp_path / "db"), WidgetCoord("X", "Leaf", "M"),
                                       "a"),
             {"name": "x", "locale": "leaf", "direction": "storage"}),
        ]
        for call, context in failures:
            with pytest.raises(ResolutionError) as e:
                call()
            assert e.value.context == context

    def test_a_planned_coordinate_with_no_handler_fails_without_a_walk(self, tmp_path,
                                                                      monkeypatch):
        reg = tiny_registry()
        reg.load_schema("(widget w root :table t) (widget v root :table t :output ((m identity)))")
        db = Database(tmp_path / "db")
        db.put("t", "w", "x")
        spellings = [("W", "LEAF", "Q"), ("w", "leaf", "m"), ("W", ":Leaf", "::Q"),
                     ("w", "Mid", "DEFAULT")]
        expected = {s: (_resolution(lambda: reg.resolve_formatter(*s)),
                        _resolution(lambda: reg.resolve_parser(*s))) for s in spellings}
        for s in spellings:  # the first call at each spelling makes or finds its plan
            assert expected[s][0][0] is expected[s][1][0] is ResolutionError
            _resolution(lambda: reg.get_and_format(db, WidgetCoord(*s)))
        counts = self._counting(monkeypatch)
        for s in spellings:
            at = WidgetCoord(*s)
            for _ in range(5):
                assert _resolution(lambda: reg.get_and_format(db, at)) == expected[s][0]
                assert _resolution(lambda: reg.parse_and_set(db, at, "y")) == expected[s][1]
        assert counts == {"parts": 0, "walks": 0, "probes": 0}
        assert db.get("t", "w") == "x"


class TestStateRoundTrip:
    def test_export_import_preserves_behavior(self, registry, tmp_path):
        state = registry.export_state()
        clone = WidgetRegistry()
        clone.import_state(state)

        assert clone.locales.locales() == registry.locales.locales()
        assert clone.resolve_formatter("dob", "arkansas", "ar-arrest") == \
            "format-date-short"
        assert clone.resolve_formatter("sid", "arkansas", "transmission") == \
            "identity"
        binding = clone.resolve_parser("name-suffix", "wisconsin", "ls1100-entry")
        from widgetspace import ValidatorContext
        with pytest.raises(ValidationError) as exc:
            clone.registries.validators.validate(
                binding.validator,
                ValidatorContext("name-suffix", "wisconsin", "ls1100-entry"),
                "JUNIO")
        assert exc.value.message == "Suffix must be 1 to 4 alphabetic characters"

    def test_export_import_export_is_identity(self, registry):
        state = registry.export_state()
        clone = WidgetRegistry()
        clone.import_state(state)
        assert clone.export_state() == state

    def test_import_revalidates(self):
        from widgetspace import SchemaError
        reg = WidgetRegistry()
        with pytest.raises(SchemaError):
            reg.import_state({"locales": "nope"})

    @pytest.mark.parametrize("pairs", [[["a"]], [["a", None, "b"]], [5], [[1, None]]])
    def test_import_malformed_locale_pair(self, pairs):
        from widgetspace import SchemaError
        reg = WidgetRegistry()
        with pytest.raises(SchemaError, match="malformed registry state"):
            reg.import_state({"locales": pairs, "widgets": []})
        assert reg.locales.locales() == []

    @pytest.mark.parametrize("parts,message", [
        ({"name": "Dob", "table": "T"}, None),
        ({"table": 7}, "invalid table name '7'"),
        ({"name": 5}, "invalid widget name '5'"),
        ({"outputs": {"M": 3}}, "unknown formatter '3'"),
        ({"inputs": {"M": [5, ["base", "numeric", []]]}}, "unknown parser '5'"),
        # one symbol that is not a string leaves the others unnormalized
        ({"name": "Dob", "generator": 7}, "invalid widget name 'Dob'"),
        ({"locale": 1, "table": "T"}, "unknown locale '1'"),
    ])
    def test_import_normalizes_symbols_unless_one_is_not_a_string(self, parts, message):
        obj = {"name": "dob", "locale": "root", "max_index": 1, "table": "t",
               "outputs": {"m": "identity"}, **parts}
        reg = WidgetRegistry()
        state = {"locales": [["root", None]], "widgets": [obj]}
        if message is None:
            reg.import_state(state)
            assert reg.export_state()["widgets"][0]["name"] == "dob"
            assert reg.spec_at("dob", "root").table == "t"
        else:
            with pytest.raises(SchemaError) as exc:
                reg.import_state(state)
            assert str(exc.value) == message

    def test_import_checks_the_index_bound(self, registry):
        state = registry.export_state()
        state["widgets"].append(dict(state["widgets"][0], name="huge",
                                     max_index=10_000_000_000_000))
        clone = WidgetRegistry()
        with pytest.raises(InvalidSpecError, match=f"max_index must be at most {MAX_INDEX}"):
            clone.import_state(state)
        assert clone.export_state() == {"locales": [], "widgets": []}

    def test_import_is_all_or_nothing(self, registry):
        before = registry.export_state()
        sid = next(obj for obj in before["widgets"] if obj["name"] == "sid")
        good = dict(sid, locale="extra")
        bad = dict(good, name="bad", outputs={"default": "no-such-formatter"})
        state = {"locales": [["extra", "arkansas"]], "widgets": [good, bad]}
        with pytest.raises(UnresolvedReferenceError):
            registry.import_state(state)
        assert registry.export_state() == before
        assert "extra" not in registry.locales


class TestReloadWhileReading:
    """A load publishes its locales and its specs as one snapshot."""

    BASE = ("(locale root :parent none)"
            "(widget w root :table t :output ((default identity)))")
    EXTENSION = ("(locale new :parent root)"
                 "(widget w new :output ((default string-upcase)))")

    def _answers_during_load(self, answer=None) -> set:
        """What a reader resolving w at 'new' saw while the extension loaded.

        ``answer(reg)`` is the reader's call; by default it resolves w's formatter.
        """
        reg = WidgetRegistry()
        reg.load_schema(self.BASE)
        if answer is None:
            def answer(reg):
                return reg.resolve_formatter("w", "new", "m")
        answers, unexpected = set(), []
        started, done = threading.Event(), threading.Event()

        def read():
            while not done.is_set():
                try:
                    answers.add(answer(reg))
                except UnknownLocaleError:
                    answers.add(None)
                except Exception as e:
                    unexpected.append(e)
                    return
                finally:
                    started.set()

        reader = threading.Thread(target=read)
        reader.start()
        assert started.wait(timeout=10)
        reg.load_schema(self.EXTENSION)
        done.set()
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert unexpected == []
        assert answers
        return answers

    def test_reader_never_sees_new_locales_with_old_specs(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            seen = set().union(*(self._answers_during_load() for _ in range(300)))
        finally:
            sys.setswitchinterval(interval)
        # Before the load 'new' is unknown (None); after it, 'new' upcases.
        # Old specs over the new tree would answer root's 'identity'.
        assert seen <= {None, "string-upcase"}

    def test_fused_reader_never_sees_new_locales_with_old_specs(self):
        with tempfile.TemporaryDirectory() as root:
            db = Database(root)
            db.put("t", "w", "x")

            def get(reg):
                return reg.get_and_format(db, WidgetCoord("w", "new", "m"))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                seen = set().union(*(self._answers_during_load(get) for _ in range(300)))
            finally:
                sys.setswitchinterval(interval)
        # A plan made from the old specs over the new tree would answer 'x'.
        assert seen <= {None, "X"}


class TestPlanMemo:
    """Fused operations memoize one plan per coordinate and snapshot."""

    DECLARED = ["m1", "m2", "default"]
    CALLED = ["m1", "M2", "default", "m9"]  # m9: no spec declares it
    FORMATTERS = ["identity", "string-upcase"]
    VALIDATORS = ["always-ok", "alphabetic", "numeric", "(length 1 3)"]
    TEXTS = ["abc", "123", "AbCdE"]

    def _random_schema(self, rng) -> tuple[str, list]:
        locales = [f"loc{i}" for i in range(rng.randint(1, 8))]
        forms = [f"(locale {locales[0]} :parent none)"]
        forms += [f"(locale {loc} :parent {rng.choice(locales[:i])})"
                  for i, loc in enumerate(locales[1:], 1)]
        for name in ("w", "v"):
            for loc in locales:
                clauses = []
                if rng.random() < 0.4:
                    clauses.append(f":table t{rng.randint(1, 2)} :index {rng.randint(1, 2)}")
                outputs = [f"({m} {rng.choice(self.FORMATTERS)})"
                           for m in self.DECLARED if rng.random() < 0.3]
                if outputs:
                    clauses.append(f":output ({' '.join(outputs)})")
                inputs = [f"({m} identity {rng.choice(self.VALIDATORS)})"
                          for m in self.DECLARED if rng.random() < 0.3]
                if inputs:
                    clauses.append(f":input ({' '.join(inputs)})")
                if clauses and rng.random() < 0.7:
                    forms.append(f"(widget {name} {loc} {' '.join(clauses)})")
        return "\n".join(forms), locales

    @staticmethod
    def _outcome(call):
        try:
            return "ok", call()
        except Exception as e:
            return type(e).__name__, str(e)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_fused_operations_match_an_empty_memo(self, rng):
        schema, locales = self._random_schema(rng)
        reg = WidgetRegistry()
        reg.load_schema(schema)
        ops = [(rng.choice(["get", "set"]), WidgetCoord(
                    rng.choice(["w", "v", "W"]), rng.choice(locales + ["LOC0", "nowhere"]),
                    rng.choice(self.CALLED), rng.randint(1, 3)), rng.choice(self.TEXTS))
               for _ in range(30)]
        with tempfile.TemporaryDirectory() as root:
            warm_db, fresh_db = Database(f"{root}/warm"), Database(f"{root}/fresh")
            for _ in range(2):  # first use, then repeated use of every plan
                for op, coord, text in ops:
                    fresh = WidgetRegistry()
                    fresh.import_state(reg.export_state())
                    outcomes = [self._outcome(
                        (lambda: r.get_and_format(db, coord)) if op == "get"
                        else (lambda: r.parse_and_set(db, coord, text)))
                        for r, db in ((reg, warm_db), (fresh, fresh_db))]
                    assert outcomes[0] == outcomes[1], (schema, op, coord, text)
        for name, locale, medium in reg._snapshot[2]:
            assert name in ("w", "v") and locale in locales and medium in self.DECLARED

    def _stored_widget(self, tmp_path, formatters=(), **parts):
        reg = tiny_registry()
        for name, fn in formatters:
            reg.registries.formatters.register(name, fn)
        reg.define_widget(WidgetSpec(name="w", locale="root", table="t", **parts))
        db = Database(tmp_path / "db")
        db.put("t", "w", "v")
        return reg, db

    def test_reregistered_formatter_takes_effect(self, tmp_path):
        reg, db = self._stored_widget(tmp_path, [("shout", lambda value: value + "!")],
                                      outputs={"default": "shout"})
        at = WidgetCoord("w", "leaf", "m")
        assert reg.get_and_format(db, at) == "v!"
        reg.registries.formatters.register("shout", lambda value: value + "!!", replace=True)
        assert reg.get_and_format(db, at) == "v!!"

    def test_reregistered_accessors_take_effect(self, tmp_path):
        reg = tiny_registry()
        getters, setters = reg.registries.getters, reg.registries.setters
        getters.register("g", lambda db, name, index, locale: "first")
        setters.register("s", lambda db, name, index, locale, value: db.put("t", "s1", value))
        binding = InputBinding("identity", Base("always-ok"))
        reg.define_widget(WidgetSpec(name="w", locale="root", getter="g", setter="s",
                                     inputs={"default": binding}, outputs={"default": "identity"}))
        db = Database(tmp_path / "db")
        at = WidgetCoord("w", "leaf", "m")
        reg.parse_and_set(db, at, "a")
        assert reg.get_and_format(db, at) == "first"
        getters.register("g", lambda db, name, index, locale: "second", replace=True)
        setters.register("s", lambda db, name, index, locale, value: db.put("t", "s2", value),
                         replace=True)
        reg.parse_and_set(db, at, "b")
        assert reg.get_and_format(db, at) == "second"
        assert (db.get("t", "s1"), db.get("t", "s2")) == ("a", "b")

    def test_define_widget_at_ancestor_replaces_plan(self, tmp_path):
        reg, db = self._stored_widget(tmp_path, outputs={"default": "identity"})
        at = WidgetCoord("w", "leaf", "m")
        assert reg.get_and_format(db, at) == "v"
        reg.define_widget(WidgetSpec(name="w", locale="mid",
                                     outputs={"default": "string-upcase"}))
        assert reg.get_and_format(db, at) == "V"

    def test_undeclared_medium_and_spelling_add_no_plan(self, tmp_path):
        reg, db = self._stored_widget(
            tmp_path, outputs={"m": "string-upcase", "default": "identity"})
        memo = reg._snapshot[2]
        assert reg.get_and_format(db, WidgetCoord("w", "leaf", "m")) == "V"
        assert reg.get_and_format(db, WidgetCoord("w", "leaf", "default")) == "v"
        assert sorted(memo) == [("w", "leaf", "default"), ("w", "leaf", "m")]
        assert reg.get_and_format(db, WidgetCoord("W", "Leaf", ":M")) == "V"
        assert reg.get_and_format(db, WidgetCoord("w", "leaf", "zz")) == "v"
        assert reg.get_and_format(db, WidgetCoord("w", "LEAF", "Zz")) == "v"
        assert len(memo) == 2 and reg._snapshot[2] is memo

    def test_validator_sees_callers_medium(self, tmp_path):
        reg = tiny_registry()
        seen = []
        reg.registries.validators.register(
            "ctx-probe", 0, 0, lambda ctx, args, text: seen.append(ctx.medium))
        reg.load_schema("(widget w root :table t :input ((default identity ctx-probe)))")
        db = Database(tmp_path / "db")
        for medium in ("default", "m9", "M9", "default"):
            reg.parse_and_set(db, WidgetCoord("w", "leaf", medium), "v")
        assert seen == ["default", "m9", "m9", "default"]
        assert list(reg._snapshot[2]) == [("w", "leaf", "default")]

    def test_failed_storage_walk_is_not_memoized(self, tmp_path):
        reg = tiny_registry()
        reg.load_schema("(widget w root :output ((default identity)))")
        db = Database(tmp_path / "db")
        for coord in (WidgetCoord("w", "leaf", "m"), WidgetCoord("ghost", "leaf", "m"),
                      WidgetCoord("w", "atlantis", "m")):
            with pytest.raises((ResolutionError, UnknownLocaleError)):
                reg.get_and_format(db, coord)
        assert len(reg._snapshot[2]) == 0

    def test_an_in_place_locale_change_drops_the_plans(self, tmp_path):
        reg = WidgetRegistry()
        reg.load_schema("(locale root :parent none) (locale a :parent root)"
                        "(locale b :parent root) (locale x :parent a)"
                        "(widget w root :table t :input ((default identity always-ok))"
                        " :output ((default identity)))"
                        "(widget w a :output ((default string-upcase)))")
        db = Database(tmp_path / "db")
        at = WidgetCoord("w", "x", "default")
        reg.parse_and_set(db, at, "hello")
        assert reg.get_and_format(db, at) == "HELLO"
        tree = reg.locales
        tree.add("x", "b", replace=True)
        assert reg.resolve_formatter("w", "x", "default") == "identity"
        assert reg.get_and_format(db, at) == "hello"
        assert tree.parent("x") == "b" and reg.locales.parent("x") == "b"
        with pytest.raises(UnknownParentError):  # a refused add publishes nothing
            reg.locales.add("y", "nowhere")
        assert "y" not in reg.locales and reg.get_and_format(db, at) == "hello"


class TestWriteAccessors:
    """Named storage accessors on the write path."""

    @staticmethod
    def _named(text):
        last, _, rest = text.partition(", ")
        first, _, middle = rest.partition(" ")
        return PersonName(last, first, middle)

    def _registry(self):
        reg = tiny_registry()
        reg.registries.parsers.register("last-first", self._named)
        reg.load_schema("(widget full-name root :getter person-name-from-fields"
                        " :setter person-name-to-fields"
                        " :input ((default last-first always-ok) (raw identity always-ok))"
                        " :output ((default format-name-first-middle-last)))")
        return reg

    def test_person_name_to_fields_writes_the_four_rows(self, tmp_path):
        reg, db = self._registry(), Database(tmp_path / "db")
        at = WidgetCoord("full-name", "leaf", "default")
        assert reg.parse_and_set(db, at, "Doe, Jane Q") == PersonName("Doe", "Jane", "Q")
        assert db.items("demographics") == [("name-first", "Jane"), ("name-last", "Doe"),
                                            ("name-middle", "Q"), ("name-suffix", "")]
        assert reg.get_and_format(db, at) == "Jane, Q, Doe"

    def test_person_name_to_fields_refuses_another_variant(self, tmp_path):
        reg, db = self._registry(), Database(tmp_path / "db")
        with pytest.raises(WrongVariantError) as exc:
            reg.parse_and_set(db, WidgetCoord("full-name", "leaf", "raw"), "Doe")
        assert str(exc.value) == "expected a name, got str"
        assert db.is_empty()

    def test_resolve_storage_names_the_registered_accessors(self):
        reg = self._registry()
        storage = reg.resolve_storage("full-name", "leaf")
        assert reg.registries.setters.get(storage.setter) is accessors.person_name_setter
        assert reg.registries.getters.get(storage.getter) is accessors.person_name_getter
        assert (storage.table, storage.max_index, storage.locale) == (None, 1, "root")


class TestPlanTables:
    """A plan holds the tables its calls go through and the key of each name there."""

    SCHEMA = ("(widget w root :table t :input ((default p v)) :output ((default f)))"
              "(widget n root :getter g :setter s :input ((default p v)) :output ((default f)))")

    def _registry(self, tmp_path):
        reg = tiny_registry()
        regs = reg.registries
        regs.formatters.register("f", lambda value: f"<{value}>")
        regs.parsers.register("p", lambda text: text)
        regs.getters.register("g", lambda db, name, index, locale: db.get("t", "n1"))
        regs.setters.register("s", lambda db, name, index, locale, value: db.put("t", "n1", value))
        regs.validators.register("v", 0, 0, lambda ctx, args, text: None)
        reg.load_schema(self.SCHEMA)
        return reg, Database(tmp_path / "db")

    @pytest.mark.parametrize("part", ["formatter", "parser", "getter", "setter", "validator"])
    def test_a_replacement_takes_effect_at_the_next_call(self, tmp_path, part):
        reg, db = self._registry(tmp_path)
        regs = reg.registries
        for name in ("w", "n"):
            at = WidgetCoord(name, "leaf", "default")
            assert reg.parse_and_set(db, at, "a") == "a"
            assert reg.get_and_format(db, at) == "<a>"
        plans = reg._snapshot[2]
        if part == "formatter":
            regs.formatters.register("f", lambda value: f"[{value}]", replace=True)
        elif part == "parser":
            regs.parsers.register("p", str.upper, replace=True)
        elif part == "getter":
            regs.getters.register("g", lambda db, name, index, locale: "got", replace=True)
        elif part == "setter":
            regs.setters.register("s", lambda db, name, index, locale, value: db.put(
                "t", "n1", value + "!"), replace=True)
        else:
            regs.validators.register("v", 0, 0, _refuse, replace=True)
        expected = {"formatter": ("[b]", "[b]"), "parser": ("<B>", "<B>"),
                    "getter": ("<b>", "<got>"), "setter": ("<b>", "<b!>"),
                    "validator": (ValidationError, ValidationError)}[part]
        for name, shown in zip(("w", "n"), expected):
            at = WidgetCoord(name, "leaf", "default")
            if shown is ValidationError:
                with pytest.raises(ValidationError, match="^refused$"):
                    reg.parse_and_set(db, at, "b")
            else:
                reg.parse_and_set(db, at, "b")
                assert reg.get_and_format(db, at) == shown
        assert reg._snapshot[2] is plans and len(plans) == 2  # no plan was made again

    def test_non_canonical_names_are_found_by_key(self, tmp_path):
        # a Shouting spelling imports as 'IDENTITY', which the tables hold as 'identity'
        state = {"locales": [["root", None]], "widgets": [{
            "name": "w", "locale": "root", "max_index": 1, "table": "t",
            "inputs": {"default": [Shouting("identity"), ["base", "always-ok", []]]},
            "outputs": {"default": Shouting("identity")}}]}
        reg = WidgetRegistry()
        reg.import_state(state)
        spec = reg.spec_at("w", "root")
        assert (spec.inputs["default"].parser, spec.outputs["default"]) == ("IDENTITY", "IDENTITY")
        db = Database(tmp_path / "db")
        at = WidgetCoord("w", "root", "default")
        for text in ("abc", "def"):
            assert reg.parse_and_set(db, at, text) == text
            assert reg.get_and_format(db, at) == text

    def test_warm_calls_look_no_name_up(self, tmp_path, monkeypatch):
        reg, db = self._registry(tmp_path)
        calls = []
        get = NamedRegistry.get

        def counting(registry, name):
            calls.append(name)
            return get(registry, name)

        at = [WidgetCoord(name, "leaf", "default") for name in ("w", "n")]
        for coord in at:  # cold: each plan is made
            reg.parse_and_set(db, coord, "a")
            reg.get_and_format(db, coord)
        monkeypatch.setattr(NamedRegistry, "get", counting)
        for coord in at:
            assert reg.parse_and_set(db, coord, "b") == "b"
            assert reg.get_and_format(db, coord) == "<b>"
        assert calls == []

    def test_registries_are_swapped_whole(self, tmp_path):
        reg, db = self._registry(tmp_path)
        at = WidgetCoord("w", "leaf", "default")
        reg.parse_and_set(db, at, "a")
        assert reg.get_and_format(db, at) == "<a>"
        with pytest.raises(dataclasses.FrozenInstanceError):
            reg.registries.formatters = standard_registries().formatters
        swapped = dataclasses.replace(reg.registries, formatters=NamedRegistry("formatter"))
        reg.registries = swapped
        assert reg.registries is swapped and len(reg._snapshot[2]) == 0
        # a name the new table lacks raises as a lookup by name would, until registered
        with pytest.raises(UnresolvedReferenceError, match="^unknown formatter 'f'$"):
            reg.get_and_format(db, at)
        swapped.formatters.register("f", lambda value: f"{{{value}}}")
        assert reg.get_and_format(db, at) == "{a}"


def _refuse(ctx, args, text):
    raise ValidationError(text, "refused")


class TestGrownIndex:
    """A slot within the bound that a sequence stored under a smaller ``:index``
    does not reach reads as unset."""

    SCHEMA = ("(locale root :parent none)"
              "(widget alias root :table t :index {}"
              " :input ((default identity always-ok)) :output ((default identity)))")

    def test_a_grown_bound_reads_its_new_slots_as_unset(self, tmp_path):
        db = Database(tmp_path / "db")
        small, grown = WidgetRegistry(), WidgetRegistry()
        small.load_schema(self.SCHEMA.format(2))
        grown.load_schema(self.SCHEMA.format(3))
        small.parse_and_set(db, WidgetCoord("alias", "root", "default", 1), "Smith")
        shown = [grown.get_and_format(db, WidgetCoord("alias", "root", "default", i))
                 for i in (1, 2, 3)]
        assert shown == ["Smith", UNINITIALIZED, UNINITIALIZED]
        with pytest.raises(IndexOutOfRangeError, match=r"^index 4 out of range \[1, 3\]$"):
            grown.get_and_format(db, WidgetCoord("alias", "root", "default", 4))
        assert db.get_indexed("t", "alias", 3) is UNINITIALIZED  # as get_and_format reads it
        grown.parse_and_set(db, WidgetCoord("alias", "root", "default", 3), "Jones")
        assert db.get("t", "alias") == ("Smith", UNINITIALIZED, "Jones")


@lru_cache(maxsize=None)
def _alias_registry(bound: int) -> WidgetRegistry:
    reg = WidgetRegistry()
    reg.load_schema(TestGrownIndex.SCHEMA.format(bound))
    return reg


def _alias(index: int) -> WidgetCoord:
    return WidgetCoord("alias", "root", "default", index)


INDEX_OPS = st.lists(st.one_of(
    st.tuples(st.just("reload"), st.integers(1, 4)),
    st.tuples(st.just("set"), st.integers(1, 4), st.sampled_from(["Smith", "Jones", "Brown"])),
    st.tuples(st.just("get"), st.integers(1, 4)),
    st.tuples(st.just("reopen"))), max_size=30)


class TestChangedIndex:
    """The value of a widget of one slot and slot 1 of an indexed widget are one
    slot, so a reload that changes ``:index`` leaves every stored slot readable,
    and no write destroys one."""

    def test_more_slots_read_and_write_a_stored_value_as_slot_1(self, tmp_path):
        db = Database(tmp_path / "db")
        one, three = _alias_registry(1), _alias_registry(3)
        one.parse_and_set(db, _alias(1), "Smith")
        assert db.get("t", "alias") == "Smith"
        assert [three.get_and_format(db, _alias(i)) for i in (1, 2, 3)] == [
            "Smith", UNINITIALIZED, UNINITIALIZED]
        three.parse_and_set(db, _alias(3), "Jones")
        assert db.get("t", "alias") == ("Smith", UNINITIALIZED, "Jones")
        assert one.get_and_format(db, _alias(1)) == "Smith"

    def test_a_sequence_value_of_one_slot_is_kept_whole(self, tmp_path):
        db = Database(tmp_path / "db")
        one = WidgetRegistry()
        one.registries.parsers.register("pair", lambda text: (text, text))
        one.load_schema(TestGrownIndex.SCHEMA.format(1).replace("identity always-ok",
                                                                "pair always-ok"))
        one.parse_and_set(db, _alias(1), "a")
        assert db.get("t", "alias") == (("a", "a"),)
        _alias_registry(2).parse_and_set(db, _alias(2), "Jones")
        one.parse_and_set(db, _alias(1), "b")
        assert db.get("t", "alias") == (("b", "b"), "Jones")
        assert db.get_indexed("t", "alias", 1) == ("b", "b")

    @settings(max_examples=300, deadline=None)
    @given(INDEX_OPS)
    def test_each_slot_reads_its_last_write(self, ops):
        widest = _alias_registry(4)
        with tempfile.TemporaryDirectory() as root:
            db, bound, slots = Database(root), 2, {}
            for op in ops:
                if op[0] == "reload":
                    bound = op[1]
                elif op[0] == "reopen":
                    db.checkpoint()
                    db = Database(root)
                elif op[0] == "set":
                    index = (op[1] - 1) % bound + 1
                    _alias_registry(bound).parse_and_set(db, _alias(index), op[2])
                    slots[index] = op[2]
                else:
                    index = (op[1] - 1) % bound + 1
                    assert _alias_registry(bound).get_and_format(db, _alias(index)) == \
                        slots.get(index, UNINITIALIZED)
                # no write changed another slot
                assert [widest.get_and_format(db, _alias(i)) for i in range(1, 5)] == \
                    [slots.get(i, UNINITIALIZED) for i in range(1, 5)]


SLOT_OPS = st.lists(st.one_of(
    st.tuples(st.just("reload"), st.integers(1, 4)),
    st.tuples(st.just("set"), st.integers(0, 5), st.sampled_from(["Smith", "Jones"]),
              st.booleans()),
    st.tuples(st.just("get"), st.integers(1, 4)),
    st.tuples(st.just("reopen"))), max_size=30)


@lru_cache(maxsize=None)
def _slot_registry(bound: int, pairs: bool) -> WidgetRegistry:
    """``alias`` with ``bound`` slots, shown as stored; with ``pairs``, its parser
    makes a sequence."""
    reg = WidgetRegistry()
    reg.registries.parsers.register("pair", lambda text: (text, text))
    reg.registries.formatters.register("as-stored", lambda value: value)
    reg.load_schema(f"(locale root :parent none)(widget alias root :table t :index {bound}"
                    f" :input ((default {'pair' if pairs else 'identity'} always-ok))"
                    " :output ((default as-stored)))")
    return reg


def _error(call) -> Optional[tuple]:
    """``(class, message)`` of what ``call`` raises, or None."""
    try:
        call()
    except SchemaError as e:
        return type(e), str(e)
    return None


class TestTableBackedPlans:
    """A table-backed plan calls ``Database.get_indexed`` and ``put_indexed``
    itself, with the ``table`` and ``max_index`` that ``resolve_storage`` names."""

    def test_a_one_slot_put_refuses_an_index_past_its_bound(self, registry, db):
        registry.parse_and_set(db, WidgetCoord("dob", "arkansas", "ls1100-entry"), "20100704")
        storage = registry.resolve_storage("dob", "arkansas")
        assert (storage.table, storage.max_index) == ("demographics", 1)
        with pytest.raises(IndexOutOfRangeError, match=r"^index 7 out of range \[1, 1\]$"):
            db.put_indexed(storage.table, "dob", 7, "B", storage.max_index)
        assert db.get("demographics", "dob") == SimpleDate(2010, 7, 4)

    @pytest.mark.parametrize("name, index, text", [("dob", 1, "20100704"), ("alias", 2, "SMITH")])
    def test_a_warm_call_makes_one_database_call(self, registry, db, monkeypatch,
                                                 name, index, text):
        at = WidgetCoord(name, "arkansas", "ls1100-entry", index)
        registry.parse_and_set(db, at, text)  # cold: the plan is made and the table loaded
        registry.get_and_format(db, at)
        calls = []
        for attr, method in vars(Database).items():
            if callable(method) and not attr.startswith("_"):
                def counted(*args, attr=attr, method=method, **kwargs):
                    calls.append(attr)
                    return method(*args, **kwargs)
                monkeypatch.setattr(Database, attr, counted)
        registry.parse_and_set(db, at, text)
        assert calls == ["put_indexed"]
        registry.get_and_format(db, at)
        assert calls == ["put_indexed", "get_indexed"]

    @settings(max_examples=300, deadline=None)
    @given(SLOT_OPS)
    def test_direct_store_calls_match_the_fused_operations(self, ops):
        with tempfile.TemporaryDirectory() as root:
            fused, direct, bound = Database(Path(root, "f")), Database(Path(root, "d")), 1
            for op in ops:
                if op[0] == "reload":
                    bound = op[1]
                elif op[0] == "reopen":
                    fused.checkpoint()
                    direct.checkpoint()
                    fused, direct = Database(fused.root), Database(direct.root)
                elif op[0] == "set":
                    _, index, text, pairs = op
                    reg = _slot_registry(bound, pairs)
                    s = reg.resolve_storage("alias", "root")
                    value = (text, text) if pairs else text
                    assert (_error(lambda: reg.parse_and_set(fused, _alias(index), text))
                            == _error(lambda: direct.put_indexed(s.table, "alias", index,
                                                                 value, s.max_index)))
                else:
                    index, reg = (op[1] - 1) % bound + 1, _slot_registry(bound, False)
                    s = reg.resolve_storage("alias", "root")
                    assert (reg.get_and_format(fused, _alias(index))
                            == direct.get_indexed(s.table, "alias", index))
                assert fused.dump_text() == direct.dump_text()


def _large_schema(widgets: int = 3000) -> str:
    """One locale and ``widgets`` stored widgets, each with an input and an output."""
    return "(locale root :parent none)\n" + "".join(
        f"(widget w{i} root :table t :doc \"widget {i}\""
        f" :input ((m identity (and always-ok (length 1 9))))"
        f" :output ((default identity)))\n" for i in range(widgets))


class TestCollectorPause:
    """A snapshot build runs with Python's cyclic collector paused, and leaves
    the collector as it found it."""

    @staticmethod
    def _collections_while_building(reg, build) -> list[int]:
        """The generation of each collection that starts after ``build()`` is
        called and before it publishes its snapshot."""
        old = reg._snapshot
        started = []

        def watch(phase, info):
            if phase == "start" and reg._snapshot is old:
                started.append(info["generation"])

        assert gc.isenabled()
        gc.collect()  # zero the allocation counts, so that only the build's count
        gc.callbacks.append(watch)
        try:
            build()
        finally:
            gc.callbacks.remove(watch)
        assert reg._snapshot is not old
        return started

    def test_no_collection_during_a_build(self):
        reg = WidgetRegistry()
        text = _large_schema()
        assert self._collections_while_building(reg, lambda: reg.load_schema(text)) == []
        state = reg.export_state()
        assert len(state["widgets"]) == 3000
        clone = WidgetRegistry()
        assert self._collections_while_building(
            clone, lambda: clone.import_state(state)) == []
        assert clone.export_state() == state

    def test_enabled_after_success_and_failure(self):
        reg = WidgetRegistry()
        reg.load_schema(_large_schema(50))
        assert gc.isenabled()
        bad = _large_schema(50).replace("(widget w30 root", "(widget w30 root :index x", 1)
        with pytest.raises(SchemaSyntaxError, match="expected an occurrence bound"):
            WidgetRegistry().load_schema(bad, filename="s.scm")
        assert gc.isenabled()
        state = reg.export_state()
        state["widgets"].append(dict(state["widgets"][0], max_index=0))
        with pytest.raises(SchemaError):
            WidgetRegistry().import_state(state)
        assert gc.isenabled()
        with pytest.raises(SchemaError):
            WidgetRegistry().import_state({"locales": [["root", None]], "widgets": [7]})
        assert gc.isenabled()

    def test_callers_choice_survives(self):
        gc.disable()
        try:
            WidgetRegistry().load_schema(_large_schema(50))
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestSharedClauses:
    """Within one load, a clause spelled alike by many widgets is parsed and
    checked once, and its bindings are shared; nothing outlives the load."""

    CLAUSE = ":input ((m identity (and required (length 1 9) (not numeric \"digits\"))))"
    BASES = 3  # required, length, numeric

    def _schema(self, widgets=200):
        return "(locale root :parent none)\n" + "".join(
            f"(widget w{i} root :table t {self.CLAUSE})\n" for i in range(widgets))

    def _counting_checks(self, monkeypatch):
        checked = []
        check_base = ValidatorRegistry.check_base

        def counting(registry, base):
            checked.append(base)
            return check_base(registry, base)

        monkeypatch.setattr(ValidatorRegistry, "check_base", counting)
        return checked

    def test_one_parse_and_one_check_per_distinct_clause(self, monkeypatch):
        checked = self._counting_checks(monkeypatch)
        reg = WidgetRegistry()
        assert reg.load_schema(self._schema()).widgets == 200
        assert [base.name for base in checked] == ["required", "length", "numeric"]
        specs = [reg.spec_at(f"w{i}", "root") for i in range(200)]
        binding = specs[0].inputs["m"]
        assert all(spec.inputs["m"] is binding for spec in specs)
        assert len({id(spec.inputs) for spec in specs}) == 200  # each spec its own map

    def test_a_second_load_does_not_reuse_the_memo(self, monkeypatch):
        checked = self._counting_checks(monkeypatch)
        first, second = WidgetRegistry(), WidgetRegistry()
        first.load_schema(self._schema())
        second.load_schema(self._schema())
        assert len(checked) == 2 * self.BASES
        assert first.spec_at("w0", "root").inputs["m"] is not \
            second.spec_at("w0", "root").inputs["m"]
        second.load_schema("(widget extra root :table t " + self.CLAUSE + ")")
        assert len(checked) == 3 * self.BASES
        assert second.spec_at("extra", "root").inputs["m"] is not \
            second.spec_at("w0", "root").inputs["m"]

    def test_a_repeat_with_a_bad_reference_is_placed_at_the_repeat(self):
        text = (self._schema(3) + "(widget late root :table t\n  "
                + self.CLAUSE.replace("numeric", "ghost") + ")\n")
        with pytest.raises(SchemaError) as exc:
            WidgetRegistry().load_schema(text, filename="s.scm")
        assert str(exc.value) == "s.scm:6:55: unknown validator 'ghost'"


def _shared_import_state(inputs, widgets=200) -> dict:
    """``widgets`` widgets at one locale that all repeat ``inputs``, as a
    workspace file holds them: each widget's parts are objects of its own."""
    return json.loads(json.dumps({"locales": [["root", None]], "widgets": [
        {"name": f"w{i}", "locale": "root", "max_index": 1, "table": "t", "inputs": inputs}
        for i in range(widgets)]}))


def _counting_checks(monkeypatch) -> list:
    """The base validators ``check_base`` is called on, from now on."""
    checked = []
    check_base = ValidatorRegistry.check_base

    def counting(registry, base):
        checked.append(base)
        return check_base(registry, base)

    monkeypatch.setattr(ValidatorRegistry, "check_base", counting)
    return checked


class TestSharedImport:
    """Within one import, an ``inputs`` map repeated by many widgets is built
    and checked once, and its bindings are shared; nothing outlives the import."""

    INPUTS = {"m": ["identity", ["and", [["base", "required", []],
                                         ["base", "length", [1, 9]],
                                         ["not", ["base", "numeric", []], "digits"]]]]}
    BASES = 3  # required, length, numeric

    def test_one_build_and_one_check_per_distinct_map(self, monkeypatch):
        checked = _counting_checks(monkeypatch)
        reg = WidgetRegistry()
        reg.import_state(_shared_import_state(self.INPUTS))
        assert [base.name for base in checked] == ["required", "length", "numeric"]
        specs = [reg.spec_at(f"w{i}", "root") for i in range(200)]
        binding = specs[0].inputs["m"]
        assert all(spec.inputs["m"] is binding for spec in specs)
        assert len({id(spec.inputs) for spec in specs}) == 200  # each spec its own map
        assert all(spec.locale is specs[0].locale for spec in specs)
        assert all(spec.table is specs[0].table for spec in specs)

    def test_a_second_import_shares_nothing_with_the_first(self, monkeypatch):
        checked = _counting_checks(monkeypatch)
        first, second = WidgetRegistry(), WidgetRegistry()
        first.import_state(_shared_import_state(self.INPUTS))
        second.import_state(_shared_import_state(self.INPUTS))
        assert len(checked) == 2 * self.BASES
        assert first.spec_at("w0", "root").inputs["m"] is not \
            second.spec_at("w0", "root").inputs["m"]
        second.import_state({"locales": [], "widgets": [
            {"name": "extra", "locale": "root", "max_index": 1, "table": "t",
             "inputs": self.INPUTS}]})
        assert len(checked) == 3 * self.BASES
        assert second.spec_at("extra", "root").inputs["m"] is not \
            second.spec_at("w0", "root").inputs["m"]

    def test_a_live_import_does_not_change_the_keys_of_the_next(self, monkeypatch):
        checked = _counting_checks(monkeypatch)
        state = _shared_import_state(self.INPUTS)  # its strings are objects of their own
        first = WidgetRegistry()
        first.import_state(state)
        assert len(checked) == self.BASES
        second = WidgetRegistry()
        second.import_state(state)  # while ``first`` holds strings of widget 0's map
        assert len(checked) == 2 * self.BASES
        assert first.export_state() == second.export_state()

    def test_every_spelling_of_a_symbol_is_one_string(self):
        spellings = ["root", "ROOT", ":root", ":Root"]
        state = {"locales": [["root", None]], "widgets": [
            {"name": f"w{i}", "locale": spelling, "max_index": 1, "table": "t"}
            for i, spelling in enumerate(spellings)]}
        imported, loaded = WidgetRegistry(), WidgetRegistry()
        imported.import_state(state)
        loaded.load_schema("(locale root :parent none)\n" + "".join(
            f"(widget w{i} {spelling} :table t)\n" for i, spelling in enumerate(spellings)))
        for reg in (imported, loaded):
            specs = [reg.spec_at(f"w{i}", "root") for i in range(len(spellings))]
            assert all(spec.locale is specs[0].locale for spec in specs)

    def test_a_spec_with_a_non_string_symbol_is_built_afresh(self):
        inputs = {"M": [":identity", ["base", "required", []]]}
        state = _shared_import_state(inputs, widgets=3)
        reg = WidgetRegistry()
        reg.import_state(state)
        assert reg.spec_at("w1", "root").inputs == {
            "m": InputBinding("identity", Base("required"))}
        state["widgets"][2]["outputs"] = {"default": 7}  # so no symbol of w2 is normalized
        with pytest.raises(UnresolvedReferenceError, match="^unknown parser ':identity'$"):
            WidgetRegistry().import_state(state)

    @pytest.mark.parametrize("spelling,parser", [
        (Shouting("identity"), "IDENTITY"), (type("Plain", (str,), {})("Identity"), "identity"),
        (Shouting("no-such-parser"), None)])
    def test_a_value_marshal_refuses_imports_as_the_reference_does(self, spelling, parser):
        state = _shared_import_state(self.INPUTS, widgets=3)
        state["widgets"][1]["inputs"]["m"][0] = spelling
        error, message, exported = _import_outcome(WidgetRegistry, state)
        assert (error, message, exported) == _import_outcome(ReferenceRegistry, state)
        if parser is None:
            assert (error, message) == (UnresolvedReferenceError,
                                        "unknown parser 'NO-SUCH-PARSER'")
        else:
            assert error is None
            assert [w["inputs"]["m"][0] for w in exported["widgets"]] == \
                ["identity", parser, "identity"]


class TestDoubleColonSpellings:
    """``normalize_symbol`` drops one leading ':', so ``::html`` reads as
    ``:html`` while a later ``:html`` still reads as ``html``, in one build."""

    SCHEMA = ("(locale root :parent none)\n"
              "(widget w1 root :table t :output ((::html identity)))\n"
              "(widget w2 root :table t :output ((:html identity)))\n"
              '(widget w3 root :table t :heading (::identity "x") :input ((m :identity required)))\n')

    def _check(self, reg):
        assert reg.spec_at("w1", "root").outputs == {":html": "identity"}
        assert reg.spec_at("w2", "root").outputs == {"html": "identity"}
        w3 = reg.spec_at("w3", "root")
        assert (w3.headings, w3.inputs["m"].parser) == ({":identity": "x"}, "identity")

    def test_load(self):
        reg = WidgetRegistry()
        reg.load_schema(self.SCHEMA)
        self._check(reg)

    def test_import(self):
        state = {"locales": [["root", None]], "widgets": [
            {"name": "w1", "locale": "root", "max_index": 1, "table": "t",
             "outputs": {"::html": "identity"}},
            {"name": "w2", "locale": "root", "max_index": 1, "table": "t",
             "outputs": {":html": "identity"}},
            {"name": "w3", "locale": "root", "max_index": 1, "table": "t",
             "headings": {"::identity": "x"},
             "inputs": {"m": [":identity", ["base", "required", []]]}}]}
        reg = WidgetRegistry()
        reg.import_state(copy.deepcopy(state))
        self._check(reg)
        assert _import_outcome(WidgetRegistry, state) == _import_outcome(ReferenceRegistry, state)


class TestNormalizedOnce:
    """A symbol is normalized once, where it enters the program; a canonical
    symbol the registry holds is never normalized again, so ``::x`` names one
    thing whichever path reads it."""

    def test_a_double_colon_medium_plan_memoizes_its_formatter_and_binding(
            self, tmp_path, monkeypatch):
        reg = tiny_registry()
        reg.load_schema("(widget w root :table t :input ((::html identity required))"
                        " :output ((::html string-upcase)))")
        calls = []
        resolve_parts = WidgetRegistry.resolve_parts

        def counting(registry, *args):
            calls.append(args)
            return resolve_parts(registry, *args)

        monkeypatch.setattr(WidgetRegistry, "resolve_parts", counting)
        db = Database(tmp_path / "db")
        at = WidgetCoord("w", "leaf", "::html")
        for text in ("a", "b", "c"):
            assert reg.parse_and_set(db, at, text) == text
            assert reg.get_and_format(db, at) == text.upper()
        plan = reg._snapshot[2][("w", "leaf", ":html")]
        assert (plan[4], plan[8], plan[10]) == ("string-upcase", "identity", Base("required"))
        assert len(calls) == 1

    def test_a_double_colon_locale_form_is_refused_at_the_form(self):
        reg = tiny_registry()
        with pytest.raises(InvalidSpecError) as e:
            reg.load_schema("(locale y :parent root)\n  (locale ::x :parent root)\n",
                            filename="s.scm")
        assert (e.value.filename, e.value.line, e.value.col) == ("s.scm", 2, 3)
        assert str(e.value).endswith("locale symbol '::x' begins with more than one ':'")
        assert "x" not in reg.locales

    def test_a_double_colon_widget_locale_is_unknown_at_the_locale_node(self):
        reg = tiny_registry()
        with pytest.raises(UnknownLocaleError) as e:
            reg.load_schema("(locale x :parent root)\n(widget w ::x :table t)\n",
                            filename="s.scm")
        assert (e.value.filename, e.value.line, e.value.col) == ("s.scm", 2, 11)
        assert str(e.value).endswith("unknown locale ':x'")

    def test_define_widget_and_import_refuse_a_double_colon_locale(self):
        reg = tiny_registry()
        with pytest.raises(UnknownLocaleError, match="^unknown locale ':mid'$"):
            reg.define_widget(WidgetSpec(name="w", locale="::mid", table="t"))
        state = reg.export_state()
        state["widgets"] = [{"name": "w", "locale": "::mid", "max_index": 1, "table": "t"}]
        with pytest.raises(UnknownLocaleError, match="^unknown locale ':mid'$"):
            WidgetRegistry().import_state(state)
        state = {"locales": [["root", None], ["::x", "root"]], "widgets": []}
        with pytest.raises(InvalidSpecError, match="^locale symbol '::x' begins"):
            WidgetRegistry().import_state(state)


# -- the unshared import, kept as the reference for the shared one ---------------


class ReferenceRegistry(WidgetRegistry):
    """A registry that imports an exported state without the per-import memo."""

    def import_state(self, state: dict) -> None:
        """Add an exported state, re-checking references; all-or-nothing, like a load."""
        with self._staged() as (tree, specs):
            try:
                widgets = list(state["widgets"])
                for child, parent in state["locales"]:
                    tree.add(child, parent)
            except (AttributeError, KeyError, TypeError, ValueError) as e:
                raise SchemaError(f"malformed registry state: {e}") from None
            for obj in widgets:
                install(ref_spec_from_obj(obj), tree, specs, self.registries)


def ref_vexpr_from_obj(obj) -> ValidatorExpr:
    """The validator an exported object describes; ``_spec_from_obj`` reports faults."""
    tag = obj[0]
    if tag == "base":
        return Base(obj[1], tuple(obj[2]))
    if tag == "and":
        return And(tuple(ref_vexpr_from_obj(c) for c in obj[1]))
    if tag == "or":
        return Or(tuple(ref_vexpr_from_obj(c) for c in obj[1]), obj[2])
    if tag == "not":
        return Not(ref_vexpr_from_obj(obj[1]), obj[2])
    raise SchemaError(f"malformed validator expression: {obj!r}")


def ref_spec_from_obj(obj: dict) -> WidgetSpec:
    """The normalized spec an exported object describes; ``install`` checks it.

    A symbol that is not a string leaves every symbol as it is, as the
    compiler's builder does, so that ``install`` reports the same fault.
    """
    try:
        try:
            return ref_spec_of(obj, normalize_symbol)
        except AttributeError:  # a symbol is not a string
            return ref_spec_of(obj, lambda symbol: symbol)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"malformed widget spec: {e}") from None


def ref_spec_of(obj: dict, sym: Callable) -> WidgetSpec:
    """The spec ``obj`` describes, with ``sym`` applied to each symbol in it."""
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
        inputs={sym(m): InputBinding(sym(pair[0]), ref_vexpr_from_obj(pair[1]))
                for m, pair in obj.get("inputs", {}).items()},
        outputs={sym(m): sym(f) for m, f in dict(obj.get("outputs", {})).items()},
        headings={sym(m): t for m, t in dict(obj.get("headings", {})).items()},
        doc=obj.get("doc"),
        datatype=opt("datatype"),
        generator=opt("generator"),
    )


def _import_outcome(cls, state) -> tuple:
    """``(error class or None, message, exported state)`` of importing a copy
    of ``state`` into a new ``cls`` registry."""
    reg = cls()
    try:
        reg.import_state(copy.deepcopy(state))
    except Exception as e:
        return type(e), str(e), reg.export_state()
    return None, "", reg.export_state()


# -- the shared import against the reference --------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@lru_cache(maxsize=None)
def _exported_workspaces() -> tuple[str, ...]:
    """The JSON of the fixture workspace and of a small generated catalog."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
    finally:
        sys.path.remove(str(PERFBENCH))
    catalog = WidgetRegistry()
    catalog.load_schema(gen.Catalog(random.Random(12), 60, 30, 13, 2).schema_text)
    return tuple(json.dumps(reg.export_state())
                 for reg in (load_fixture_registry()[0], catalog))


def _bases_in(vexpr) -> list:
    """The ``["base", name, args]`` lists of an exported validator, outermost first."""
    if not isinstance(vexpr, list) or not vexpr:
        return []
    if vexpr[0] == "base":
        return [vexpr]
    children = vexpr[1:2] if vexpr[0] == "not" else vexpr[1] if len(vexpr) > 1 else []
    return [base for child in children for base in _bases_in(child)]


def _swaps(arg) -> list:
    """Values of other types that could stand where the validator argument ``arg`` is."""
    if isinstance(arg, str):
        return [len(arg), True, 1.0, Shouting(arg)]
    return [str(arg), float(arg), not arg, int(arg) + 1, Shouting(int(arg))]


def _well_formed(inputs) -> bool:
    """Whether an exported ``inputs`` map still has the shape ``_edited_inputs`` edits."""
    return isinstance(inputs, dict) and bool(inputs) and all(
        isinstance(pair, list) and len(pair) == 2 and isinstance(pair[1], list)
        for pair in inputs.values())


@st.composite
def _edited_inputs(draw, inputs: dict) -> dict:
    """``inputs``, an exported ``inputs`` map, with one part changed."""
    if not _well_formed(inputs):
        return inputs
    inputs = copy.deepcopy(inputs)
    medium = draw(st.sampled_from(list(inputs)))
    pair = inputs[medium]
    bases = _bases_in(pair[1])
    # A ':' prefix is the spelling that only normalization makes valid, so it
    # is drawn most often; normalization drops only one of two.
    kind = draw(st.sampled_from(["case", "colon", "colons", "shout", "swap", "shape", "arity",
                                 "unknown"]))
    if kind in ("case", "colon", "colons", "shout"):
        spell = {"case": str.upper, "colon": lambda s: ":" + s, "colons": lambda s: "::" + s,
                 "shout": Shouting}[kind]
        where = draw(st.sampled_from(["medium", "parser"] + ["validator"] * bool(bases)))
        if where == "medium":
            return {spell(m) if m == medium else m: p for m, p in inputs.items()}
        if where == "parser":
            pair[0] = spell(pair[0])
        else:
            base = draw(st.sampled_from(bases))
            base[1] = spell(base[1])
    elif kind == "swap" and any(base[2] for base in bases):
        args = draw(st.sampled_from([base[2] for base in bases if base[2]]))
        k = draw(st.integers(0, len(args) - 1))
        args[k] = draw(st.sampled_from(_swaps(args[k])))
    elif kind == "shape":  # a list where a dict was, or a dict where a list was
        changes = [lambda: [[m, p] for m, p in inputs.items()],
                   lambda: {**inputs, medium: dict(enumerate(pair))},
                   lambda: {**inputs, medium: [pair[0], dict(enumerate(pair[1]))]}]
        return draw(st.sampled_from(changes))()
    elif kind == "arity":
        changes = [lambda: pair.pop(), lambda: pair.append("extra"),
                   lambda: pair[1].pop(), lambda: pair[1].append([])]
        if bases:
            changes.append(lambda: draw(st.sampled_from(bases))[2].append(1))
        draw(st.sampled_from(changes))()
    else:
        if bases and draw(st.booleans()):
            draw(st.sampled_from(bases))[1] = "no-such-validator"
        else:
            pair[0] = "no-such-parser"
    return inputs


def _one_colon_less(value):
    """A copy of ``value`` with one ':' dropped from each plain string that starts '::'."""
    if isinstance(value, dict):
        return {_one_colon_less(k): _one_colon_less(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_one_colon_less(v) for v in value]
    if type(value) is str and value.startswith("::"):
        return value[1:]
    return value


@st.composite
def _shared_import_cases(draw) -> dict:
    """An exported state in which a few later widgets repeat one edited
    ``inputs`` map, and one of them may have a symbol that is not a string."""
    state = json.loads(draw(st.sampled_from(range(2)).map(
        lambda k: _exported_workspaces()[k])))
    widgets = state["widgets"]
    source = draw(st.sampled_from([k for k, w in enumerate(widgets) if w["inputs"]]))
    edited = widgets[source]["inputs"]
    for _ in range(draw(st.integers(1, 2))):
        edited = draw(_edited_inputs(edited))
    targets = sorted(set(draw(st.lists(st.integers(source, len(widgets) - 1),
                                       min_size=2, max_size=4))))
    colons = isinstance(edited, dict) and bool(edited) and draw(st.integers(0, 3)) == 0
    if colons:  # a medium spelled '::m' in the repeats, which normalization reads as ':m'
        medium = draw(st.sampled_from(list(edited)))
        edited = {"::" + m if m == medium else m: p for m, p in edited.items()}
    for k in targets:
        widgets[k]["inputs"] = copy.deepcopy(edited)
    if colons:  # and ':m' in the last, which normalization reads as 'm'
        widgets[targets[-1]]["inputs"] = _one_colon_less(edited)
    if len(targets) > 1 and draw(st.booleans()):
        odd = widgets[draw(st.sampled_from(targets[1:]))]
        part = draw(st.sampled_from(["name", "generator", "outputs", "outputs"]))
        odd[part] = {"default": 7} if part == "outputs" else 7
    return state


@settings(max_examples=300, deadline=None)
@given(_shared_import_cases())
def test_shared_import_matches_reference(state):
    assert _import_outcome(WidgetRegistry, state) == _import_outcome(ReferenceRegistry, state)
