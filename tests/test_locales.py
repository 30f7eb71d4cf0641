"""Locale tree: structure rules, ancestry walks, and the shared resolve()."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from widgetspace import (
    DuplicateLocaleError, InvalidSpecError, LocaleCycleError, LocaleTree,
    NO_HANDLER_MESSAGE, ResolutionError, SchemaError, UnknownLocaleError, UnknownParentError,
)
from widgetspace.sexpr import normalize_symbol


def sample_tree():
    t = LocaleTree()
    t.add("common")
    t.add("united-states", "common")
    t.add("colorado", "united-states")
    t.add("park-county-co", "colorado")
    t.add("minnesota", "united-states")
    t.add("ramsey-county-mn", "minnesota")
    t.add("arkansas", "united-states")
    t.add("wisconsin", "united-states")
    return t


class TestStructure:
    def test_single_root(self):
        t = sample_tree()
        assert t.root == "common"
        with pytest.raises(InvalidSpecError):
            t.add("other-root")

    def test_duplicate_rejected(self):
        t = sample_tree()
        with pytest.raises(DuplicateLocaleError):
            t.add("colorado", "common")

    def test_unknown_parent_rejected(self):
        t = sample_tree()
        with pytest.raises(UnknownParentError):
            t.add("utopia", "atlantis")

    def test_self_parent_rejected(self):
        t = sample_tree()
        with pytest.raises(LocaleCycleError):
            t.add("colorado", "colorado", replace=True)

    def test_new_locale_cannot_name_itself_as_parent(self):
        t = sample_tree()
        with pytest.raises(UnknownParentError):
            t.add("zzz", "zzz")

    def test_empty_symbol_rejected(self):
        with pytest.raises(InvalidSpecError):
            LocaleTree().add("")

    def test_contains_and_len(self):
        t = sample_tree()
        assert "colorado" in t
        assert "atlantis" not in t
        assert len(t) == 8

    def test_symbols_normalized(self):
        t = LocaleTree()
        t.add("Common")
        t.add(":Arkansas", "COMMON")
        assert t.locales() == ["common", "arkansas"]
        assert t.parent(":ARKANSAS") == "common"
        assert "Arkansas" in t

    def test_parent_and_children(self):
        t = sample_tree()
        assert t.parent("common") is None
        assert t.parent("ramsey-county-mn") == "minnesota"
        assert t.children("united-states") == ["colorado", "minnesota",
                                               "arkansas", "wisconsin"]
        assert t.children("park-county-co") == []
        with pytest.raises(UnknownLocaleError):
            t.parent("atlantis")
        with pytest.raises(UnknownLocaleError):
            t.children("atlantis")

    def test_locales_keep_insertion_order(self):
        t = sample_tree()
        assert t.locales() == [
            "common", "united-states", "colorado", "park-county-co",
            "minnesota", "ramsey-county-mn", "arkansas", "wisconsin"]


class TestReparent:
    def test_replace_moves_subtree(self):
        t = sample_tree()
        t.add("park-county-co", "minnesota", replace=True)
        assert t.parent("park-county-co") == "minnesota"
        assert t.ancestry("park-county-co") == [
            "park-county-co", "minnesota", "united-states", "common"]

    def test_cycle_via_descendant_rejected(self):
        t = sample_tree()
        with pytest.raises(LocaleCycleError):
            t.add("united-states", "park-county-co", replace=True)
        # tree unchanged on failure
        assert t.parent("united-states") == "common"

    def test_root_cannot_be_reparented(self):
        t = sample_tree()
        with pytest.raises(InvalidSpecError):
            t.add("common", "colorado", replace=True)


@pytest.mark.parametrize("args, kwargs, error", [
    (("colorado", "common"), {}, DuplicateLocaleError),
    (("utopia", "atlantis"), {}, UnknownParentError),
    (("united-states", "park-county-co"), {"replace": True}, LocaleCycleError),
    (("colorado", "colorado"), {"replace": True}, LocaleCycleError),
    (("other-root",), {}, InvalidSpecError),
    (("common", "colorado"), {"replace": True}, InvalidSpecError),
])
def test_rejected_add_leaves_tree_unchanged(args, kwargs, error):
    t = sample_tree()
    before = {loc: t.parent(loc) for loc in t.locales()}
    with pytest.raises(error):
        t.add(*args, **kwargs)
    assert len(t) == len(before)
    assert {loc: t.parent(loc) for loc in t.locales()} == before


class TestAncestry:
    def test_chain_golden(self):
        t = sample_tree()
        assert t.ancestry("park-county-co") == [
            "park-county-co", "colorado", "united-states", "common"]

    def test_root_chain(self):
        assert sample_tree().ancestry("common") == ["common"]

    def test_unknown_locale(self):
        with pytest.raises(UnknownLocaleError):
            sample_tree().ancestry("atlantis")


class TestResolve:
    def test_finds_nearest(self):
        t = sample_tree()
        values = {"united-states": "us-value", "common": "base-value"}
        assert t.resolve("park-county-co", values.get) == "us-value"

    def test_local_beats_ancestor(self):
        t = sample_tree()
        values = {"colorado": "local", "common": "base"}
        assert t.resolve("colorado", values.get) == "local"

    def test_exhausted_chain_message(self):
        t = sample_tree()
        with pytest.raises(ResolutionError) as exc:
            t.resolve("park-county-co", lambda loc: None)
        assert str(exc.value) == NO_HANDLER_MESSAGE
        assert str(exc.value) == "No formatter/parser specified."

    def test_custom_message_and_context(self):
        t = sample_tree()
        with pytest.raises(ResolutionError) as exc:
            t.resolve("colorado", lambda loc: None,
                      message="No storage specified.",
                      context={"name": "sid"})
        assert str(exc.value) == "No storage specified."
        assert exc.value.context == {"name": "sid"}

    def test_probes_each_ancestor_once_in_order(self):
        t = sample_tree()
        seen = []

        def probe(loc):
            seen.append(loc)
            return None

        with pytest.raises(ResolutionError):
            t.resolve("ramsey-county-mn", probe)
        assert seen == ["ramsey-county-mn", "minnesota", "united-states", "common"]

    def test_falsy_probe_results_are_hits(self):
        t = sample_tree()
        assert t.resolve("colorado", {"colorado": ""}.get) == ""
        assert t.resolve("colorado", {"colorado": 0}.get) == 0

    def test_randomized_against_ancestry_oracle(self):
        """resolve() equals 'first ancestor with an entry' on random trees."""
        rng = random.Random(20100704)
        for trial in range(200):
            t = LocaleTree()
            names = [f"loc{i}" for i in range(rng.randint(1, 50))]
            t.add(names[0])
            for name in names[1:]:
                t.add(name, rng.choice(t.locales()))
            table = {name: f"v-{name}" for name in names if rng.random() < 0.3}
            start = rng.choice(names)
            expected = next(
                (table[a] for a in t.ancestry(start) if a in table), None)
            if expected is None:
                with pytest.raises(ResolutionError):
                    t.resolve(start, table.get)
            else:
                assert t.resolve(start, table.get) == expected


class TestCopyAdopt:
    def test_copy_is_independent(self):
        t = sample_tree()
        c = t.copy()
        c.add("nova-scotia", "common")
        assert "nova-scotia" in c
        assert "nova-scotia" not in t


SPELLINGS = ["x", "X", ":x", "::x", "::X", "y", ":Y", "::y"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SPELLINGS), st.sampled_from(["root", *SPELLINGS])),
                max_size=8))
def test_every_locale_is_found_by_its_own_key(adds):
    """A key of the tree is canonical, so every lookup of it finds it."""
    t = LocaleTree()
    t.add("root")
    for child, parent in adds:
        try:
            t.add(child, parent)
        except SchemaError:  # a duplicate, an unknown parent, or a spelling '::x'
            pass
    for locale in t.locales():
        assert normalize_symbol(locale) == locale
        assert t.parent(locale) in (None, *t.locales())
        assert t.ancestry(locale)[0] == locale


def test_a_locale_spelled_with_two_colons_is_refused():
    t = sample_tree()
    for spelling in ("::x", "::Colorado"):
        with pytest.raises(InvalidSpecError, match="begins with more than one ':'"):
            t.add(spelling, "common")
    assert ":colorado" not in t.locales() and len(t) == 8
