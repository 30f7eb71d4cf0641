"""Schema language: load reports, positioned errors, all-or-nothing commits."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from widgetspace import (
    DuplicateLocaleError, InvalidSpecError, ResolutionError, SchemaError,
    SchemaSyntaxError, UnknownLocaleError, UnknownParentError, UnknownValidatorError,
    UnresolvedReferenceError, ValidationError, WidgetCoord, WidgetRegistry, fixture_paths,
)
from widgetspace.registry import MAX_INDEX
from widgetspace.sexpr import MAX_DEPTH

PRELUDE = "(locale root :parent none)\n(locale mid :parent root)\n"


def load(source, **kwargs):
    reg = WidgetRegistry()
    report = reg.load_schema(source, **kwargs)
    return reg, report


class TestLoadReport:
    def test_fixture_counts(self):
        reg = WidgetRegistry()
        report = reg.load_schema_files(fixture_paths())
        assert report.summary() == "locales: 8, widgets: 17"
        assert report.warnings == []

    def test_two_file_counts(self):
        reg = WidgetRegistry()
        report = reg.load_schema_files(fixture_paths()[:2])
        assert report.summary() == "locales: 8, widgets: 13"

    def test_incremental_loads_accumulate(self):
        reg = WidgetRegistry()
        reg.load_schema(PRELUDE)
        report = reg.load_schema("(widget w root :table t"
                                 " :output ((default identity)))")
        assert (report.locales, report.widgets) == (0, 1)
        assert reg.resolve_formatter("w", "mid", "x") == "identity"

    def test_orphan_storage_warning(self):
        _, report = load(PRELUDE + "(widget floating root"
                                   " :output ((default identity)))")
        assert len(report.warnings) == 1
        assert "floating" in report.warnings[0]
        assert "storage" in report.warnings[0]

    def test_orphans_in_one_chain_warn_in_spec_order(self):
        _, report = load(PRELUDE + """
            (locale leaf :parent mid)
            (widget floating leaf :output ((default identity)))
            (widget floating root :output ((default identity)))
            (widget kept mid :table t)
            (widget kept leaf :output ((default identity)))
            (widget kept root :output ((default identity)))
        """)
        assert report.warnings == [
            f"widget '{name}' at '{locale}' has no storage anywhere in its ancestry"
            for name, locale in [("floating", "leaf"), ("floating", "root"), ("kept", "root")]]


class TestAllOrNothing:
    BAD_TAIL = PRELUDE + """
        (widget good root :table t :output ((default identity)))
        (widget bad root :output ((default format-ghost)))
    """

    def test_failed_load_leaves_registry_empty(self):
        reg = WidgetRegistry()
        with pytest.raises(UnresolvedReferenceError):
            reg.load_schema(self.BAD_TAIL)
        assert len(reg.locales) == 0
        assert reg.spec_at("good", "root") is None

    def test_failed_load_preserves_prior_state(self):
        reg = WidgetRegistry()
        reg.load_schema(PRELUDE + "(widget w root :table t"
                                  " :output ((default identity)))")
        with pytest.raises(SchemaSyntaxError):
            reg.load_schema("(widget w root :color blue)")
        assert reg.resolve_formatter("w", "root", "x") == "identity"

    def test_error_in_second_file_discards_first(self, tmp_path):
        a = tmp_path / "a.scm"
        b = tmp_path / "b.scm"
        a.write_text(PRELUDE)
        b.write_text("(locale broken :parent ghost)")
        reg = WidgetRegistry()
        with pytest.raises(UnknownParentError):
            reg.load_schema_files([a, b])
        assert len(reg.locales) == 0


class TestPositionedErrors:
    def test_syntax_error_carries_position(self):
        with pytest.raises(SchemaSyntaxError) as exc:
            load("(locale root :parent none", filename="broken.scm")
        e = exc.value
        assert e.filename == "broken.scm"
        assert (e.line, e.col) == (1, 1)
        assert "broken.scm:1:1" in str(e)

    def test_unknown_validator_positioned(self):
        source = PRELUDE + (
            "(widget w root\n"
            "  :table t\n"
            "  :input ((m identity ghost)))\n")
        with pytest.raises(UnknownValidatorError) as exc:
            load(source, filename="s.scm")
        e = exc.value
        assert e.filename == "s.scm"
        assert e.line == 5
        assert e.col == 23
        assert str(e).startswith("s.scm:5:23: ")

    def test_bad_arity_positioned(self):
        with pytest.raises(InvalidSpecError) as exc:
            load(PRELUDE + "(widget w root :table t"
                           " :input ((m identity (length 3))))")
        assert "takes 2 arguments, got 1" in str(exc.value)
        assert exc.value.line is not None

    def test_unknown_parent_positioned(self):
        with pytest.raises(UnknownParentError) as exc:
            load("(locale root :parent none)\n(locale x :parent ghost)",
                 filename="tree.scm")
        assert str(exc.value).startswith("tree.scm:2:1: ")

    def test_unknown_formatter_positioned(self):
        with pytest.raises(UnresolvedReferenceError) as exc:
            load(PRELUDE + "(widget w root :output ((m format-ghost)))")
        assert "unknown formatter 'format-ghost'" in str(exc.value)


class TestFormErrors:
    @pytest.mark.parametrize("source,fragment", [
        ("(wombat x)", "unknown form"),
        ("42", "parenthesized form"),
        ("(locale)", "locale form is"),
        ("(locale x :mother none)", "':parent'"),
        ("(widget w)", "widget form is"),
        (PRELUDE + "(widget w ghost-locale :table t)", "unknown locale"),
        (PRELUDE + "(widget w root table t)", "clause keyword"),
        (PRELUDE + "(widget w root :color blue)", "unknown clause"),
        (PRELUDE + "(widget w root :table t :table u)", "duplicate clause"),
        (PRELUDE + "(widget w root :table)", "needs a value"),
        (PRELUDE + "(widget w root :index one)", "an integer"),
        (PRELUDE + "(widget w root :index 0)", "max_index"),
        (PRELUDE + "(widget w root :doc undocumented)", "a string"),
        (PRELUDE + "(widget w root :input ())", "must not be empty"),
        (PRELUDE + "(widget w root :output ())", "must not be empty"),
        (PRELUDE + "(widget w root :input ((m identity)))", "input entry is"),
        (PRELUDE + "(widget w root :output ((m identity extra)))", "output entry is"),
        (PRELUDE + "(widget w root :input ((m identity numeric)"
                   " (m identity numeric)))", "duplicate input"),
        (PRELUDE + "(widget w root :output ((m identity) (m identity)))",
         "duplicate output"),
        (PRELUDE + "(widget w root :heading (m))", "heading clause"),
        (PRELUDE + "(widget w root :heading (m \"A\" m \"B\"))", "duplicate heading"),
        (PRELUDE + "(widget w root :input ((m parse-ghost numeric)))",
         "unknown parser"),
        (PRELUDE + "(widget w root :getter ghost)", "unknown getter"),
    ])
    def test_rejected(self, source, fragment):
        with pytest.raises(Exception) as exc:
            load(source)
        assert fragment in str(exc.value)

    def test_duplicate_locale(self):
        with pytest.raises(DuplicateLocaleError):
            load("(locale root :parent none)(locale root :parent none)")

    def test_forward_locale_reference_rejected(self):
        # forms apply in order, so a widget cannot name a locale that is
        # only declared later in the load
        with pytest.raises(UnknownLocaleError):
            load("(widget w root :table t)(locale root :parent none)")


class TestIndexBound:
    def test_largest_bound_loads(self):
        reg, _ = load(PRELUDE + f"(widget w root :table t :index {MAX_INDEX})")
        assert reg.resolve_storage("w", "mid").max_index == MAX_INDEX

    def test_larger_bound_is_placed_at_its_value(self):
        reg = WidgetRegistry()
        reg.load_schema(PRELUDE)
        with pytest.raises(InvalidSpecError) as exc:
            reg.load_schema(f"(widget w root :table t\n  :index {MAX_INDEX + 1})",
                            filename="s.scm")
        assert str(exc.value) == (f"s.scm:2:10: max_index must be at most {MAX_INDEX},"
                                  f" got {MAX_INDEX + 1}")
        assert reg.spec_at("w", "root") is None


class TestVexprForms:
    def test_or_needs_trailing_message(self):
        with pytest.raises(SchemaSyntaxError) as exc:
            load(PRELUDE + "(widget w root :table t"
                           " :input ((m identity (or alphabetic))))")
        assert "'or' needs" in str(exc.value)

    def test_or_message_must_be_string(self):
        with pytest.raises(SchemaSyntaxError) as exc:
            load(PRELUDE + "(widget w root :table t"
                           " :input ((m identity (or alphabetic numeric))))")
        assert "failure message" in str(exc.value)

    def test_not_wants_child_and_message(self):
        with pytest.raises(SchemaSyntaxError):
            load(PRELUDE + "(widget w root :table t"
                           " :input ((m identity (not required))))")

    def test_and_needs_children(self):
        with pytest.raises(SchemaSyntaxError):
            load(PRELUDE + "(widget w root :table t"
                           " :input ((m identity (and))))")

    def test_empty_vexpr(self):
        with pytest.raises(SchemaSyntaxError):
            load(PRELUDE + "(widget w root :table t :input ((m identity ())))")

    def test_validator_args_must_be_literals(self):
        with pytest.raises(SchemaSyntaxError) as exc:
            load(PRELUDE + "(widget w root :table t"
                           " :input ((m identity (length three 7))))")
        assert "integers or strings" in str(exc.value)

    def test_nested_expression_accepted(self):
        reg, _ = load(PRELUDE + """
            (widget w root :table t
              :input ((m identity
                       (or (not required "must be absent")
                           (and alphabetic (length 1 4))
                           "bad value"))))
        """)
        binding = reg.resolve_parser("w", "mid", "m")
        from widgetspace import Not, Or
        assert isinstance(binding.validator, Or)
        assert isinstance(binding.validator.children[0], Not)
        assert binding.validator.message == "bad value"


class TestNestingDepth:
    """Forms nest at most MAX_DEPTH deep: a widget form, its ``:input`` list
    and an entry leave MAX_DEPTH - 3 levels to the validator."""

    @staticmethod
    def _schema(levels):
        vexpr = "(and " * levels + "numeric" + ")" * levels
        return PRELUDE + f"(widget w root :table t\n  :input ((m identity {vexpr})))"

    def test_deepest_validator_loads_and_round_trips(self, db):
        reg, _ = load(self._schema(MAX_DEPTH - 3))
        _round_trip(reg)
        coord = WidgetCoord("w", "mid", "m")
        assert reg.parse_and_set(db, coord, "12") == "12"
        with pytest.raises(ValidationError):
            reg.parse_and_set(db, coord, "x")

    def test_one_level_deeper_rejected_at_the_first_form_too_deep(self):
        with pytest.raises(SchemaSyntaxError) as exc:
            load(self._schema(MAX_DEPTH - 2), filename="s.scm")
        # line 4 is "  :input ((m identity (and (and ...": the last '(and' is too deep
        col = len("  :input ((m identity ") + 5 * (MAX_DEPTH - 3) + 1
        assert str(exc.value) == f"s.scm:4:{col}: forms nested deeper than {MAX_DEPTH}"


class TestSurfaceDetails:
    def test_comments_and_blank_lines(self):
        reg, report = load(
            ";; the whole tree\n"
            "(locale root :parent none) ; trailing note\n"
            "\n"
            ";; widgets\n"
            "(widget w root :table t :output ((default identity)))\n")
        assert (report.locales, report.widgets) == (1, 1)

    def test_case_insensitive_symbols(self):
        reg, _ = load("(LOCALE Root :PARENT None)\n"
                      "(Widget W ROOT :Table T :Output ((M Identity)))")
        assert reg.resolve_formatter("w", "root", "m") == "identity"

    def test_docstring_and_type_retained(self):
        reg, _ = load(PRELUDE + '(widget w root :table t :type date'
                                ' :doc "What it means.")')
        spec = reg.spec_at("w", "root")
        assert spec.doc == "What it means."
        assert spec.datatype == "date"

    def test_heading_map(self):
        reg, _ = load(PRELUDE + '(widget w root :table t'
                                ' :heading (default "Value" card "Printed As"))')
        assert reg.resolve_heading("w", "mid", "card") == "Printed As"
        assert reg.resolve_heading("w", "mid", "other") == "Value"

    def test_fixture_reload_with_replace(self):
        reg = WidgetRegistry()
        reg.load_schema_files(fixture_paths())
        report = reg.load_schema_files(fixture_paths(), replace=True)
        assert report.summary() == "locales: 8, widgets: 17"
        assert reg.resolve_formatter("dob", "arkansas", "ar-arrest") == \
            "format-date-short"

    def test_fixture_reload_without_replace_rejected(self):
        reg = WidgetRegistry()
        reg.load_schema_files(fixture_paths())
        with pytest.raises(DuplicateLocaleError):
            reg.load_schema_files(fixture_paths())
        # and the failed second load changed nothing
        assert len(reg.locales) == 8


def _round_trip(registry):
    """Export ``registry`` through JSON, import it afresh, and export it again."""
    state = json.loads(json.dumps(registry.export_state()))
    clone = WidgetRegistry()
    clone.import_state(state)
    assert clone.export_state() == state


def _clause(keyword, values):
    return st.sampled_from(values).map(f":{keyword} {{}}".format)


widget_clause = st.one_of(
    _clause("table", ["t", "T", "a_b", "t.x", "9"]),
    _clause("index", ["1", "3", "0"]),
    _clause("getter", ["person-name-from-fields", "ghost"]),
    _clause("setter", ["person-name-to-fields", "ghost.x"]),
    _clause("generator", ["gen-date-fbi", "ghost"]),
    _clause("type", ["date", "a.b", "::date"]),
    _clause("doc", ['"Some text."', "undocumented"]),
    _clause("heading", ['(m "M" default "D")', "(m)", '(::m "M")']),
    _clause("output", ["((m identity) (n format-date-fbi))", "((m ghost))", "()",
                       "((::m identity) (:n identity))"]),
    _clause("input", ["((m identity numeric))", "((m parse-ghost numeric))",
                      "((::m identity numeric))",
                      '((m identity (or (length 1 3) (not required "absent") "bad")))',
                      "((m identity (length 3)))", "((m identity ghost))"]),
)
widget_form = st.builds(
    "(widget {} {} {})".format,
    st.sampled_from(["w", "W", ":v", "x-1", "a.b", "12"]),
    st.sampled_from(["root", "mid", "ghost", "::mid"]),
    st.lists(widget_clause, max_size=4).map(" ".join))


class TestWorkspaceRoundTrip:
    """Whatever schema text loads, its workspace imports; what fails, fails at load."""

    def test_fixtures(self):
        registry = WidgetRegistry()
        registry.load_schema_files(fixture_paths())
        _round_trip(registry)

    @pytest.mark.parametrize("form,message", [
        ("(widget a.b root :table t)", "s.scm:3:9: invalid widget name 'a.b'"),
        ("(widget w root :table t.x)", "s.scm:3:23: invalid table name 't.x'"),
    ])
    def test_names_that_cannot_round_trip_rejected_at_load(self, form, message):
        with pytest.raises(InvalidSpecError) as exc:
            load(PRELUDE + form, filename="s.scm")
        assert str(exc.value) == message
        assert (exc.value.filename, exc.value.line) == ("s.scm", 3)

    def test_double_colon_symbols(self):
        # normalization drops one leading ':', so '::html' loads as ':html'
        registry, _ = load(PRELUDE + "(widget w mid :table t :type ::date"
                           " :output ((::html identity)) :heading (::card \"C\")"
                           " :input ((::html identity required)))\n"
                           "(widget v root :table t :output ((:html identity)))")
        state = json.loads(json.dumps(registry.export_state()))
        clone = WidgetRegistry()
        clone.import_state(state)
        assert clone.export_state() == registry.export_state()
        spec = clone.spec_at("w", "mid")
        assert (spec.datatype, spec.outputs) == (":date", {":html": "identity"})
        assert (list(spec.inputs), spec.headings) == ([":html"], {":card": "C"})
        assert clone.spec_at("v", "root").outputs == {"html": "identity"}

    @settings(max_examples=300)
    @given(st.lists(widget_form, min_size=1, max_size=3))
    def test_any_loaded_schema(self, forms):
        registry = WidgetRegistry()
        try:
            registry.load_schema(PRELUDE + "\n".join(forms), filename="s.scm")
        except SchemaError as e:
            assert (e.filename, type(e.line), type(e.col)) == ("s.scm", int, int), str(e)
            return
        _round_trip(registry)
