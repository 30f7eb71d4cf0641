"""The compiler's three readers build one registry.

A registry loaded from schema text is built again by an import of its
exported JSON and by ``define_widget`` of each of its specs in order; a
registry defined in code, by the first two. Each rebuild must export the
same state and answer every coordinate alike.
"""

import json

from hypothesis import given, settings, strategies as st

from widgetspace import SchemaError, WidgetCoord, WidgetRegistry

from test_registry import _walk_cases
from test_sexpr import repeated_clauses, schema_text, spliced_fixtures


class FakeDb:
    """A database in which every key of every table holds its own address."""

    def get(self, table, key):
        return f"{table}/{key}"


def _outcome(call):
    try:
        return "ok", call()
    except Exception as e:
        return type(e).__name__, str(e)


def _rebuilt(reg: WidgetRegistry, *, defined: bool) -> list:
    """``reg`` built again from its exported JSON, and if ``defined``, by
    ``define_widget`` of each of its specs, in order, into a registry with
    its locales."""
    state = reg.export_state()
    imported = WidgetRegistry()
    imported.import_state(json.loads(json.dumps(state)))
    if not defined:
        return [imported]
    redefined = WidgetRegistry()
    for child, parent in state["locales"]:
        redefined.add_locale(child, parent)
    for widget in state["widgets"]:
        redefined.define_widget(reg.spec_at(widget["name"], widget["locale"]))
    return [imported, redefined]


def _assert_one_registry(reg: WidgetRegistry, coords):
    state = reg.export_state()
    # define_widget normalizes what it is given, so a canonical symbol that
    # begins with ':' (exported as '::x') would lose that ':'
    defined = '"::' not in json.dumps(state)
    db = FakeDb()
    for other in _rebuilt(reg, defined=defined):
        assert other.export_state() == state
        for name, locale, medium in coords:
            assert _outcome(lambda: other.resolve_parts(name, locale, medium)) == \
                _outcome(lambda: reg.resolve_parts(name, locale, medium))
            coord = WidgetCoord(name, locale, medium)
            assert _outcome(lambda: other.get_and_format(db, coord)) == \
                _outcome(lambda: reg.get_and_format(db, coord))


# repeated_clauses loads more often than the others, whose splices mostly break the text
@settings(max_examples=200, deadline=None)
@given(text=st.one_of(spliced_fixtures(), schema_text, repeated_clauses().map("".join)),
       data=st.data())
def test_loaded_text_imports_and_defines_alike(text, data):
    reg = WidgetRegistry()
    try:
        reg.load_schema(text)
    except SchemaError:
        return
    state = reg.export_state()
    names = [w["name"] for w in state["widgets"]] + ["ghost"]
    locales = [loc for loc, _ in state["locales"]] + ["nowhere"]
    media = [m for w in state["widgets"] for part in ("inputs", "outputs", "headings")
             for m in w[part]] + ["default", "m9"]
    coords = data.draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(locales),
                                          st.sampled_from(media)), max_size=8))
    _assert_one_registry(reg, coords)


@settings(max_examples=150, deadline=None)
@given(_walk_cases())
def test_defined_registry_imports_and_defines_alike(case):
    reg, coords = case
    _assert_one_registry(reg, coords)
