"""Formatter/parser goldens, independently constructed oracles, round-trips."""

import calendar
import re

import pytest
from hypothesis import given, strategies as st

from widgetspace import ParseError, PersonName, SimpleDate, WrongVariantError
from widgetspace.textio import (
    default_formatter_registry, default_parser_registry, format_date_card,
    format_date_fbi, format_name_first_middle_last, format_name_last_first,
    format_simple_date_long, format_simple_date_short, format_upcase,
    parse_simple_date_fbi,
)

from conftest import Shouting

D = SimpleDate(2010, 7, 4)

dates = st.builds(
    SimpleDate,
    year=st.integers(1900, 2100),
    month=st.integers(1, 12),
    day=st.integers(1, 28),  # independent of month length; 29-31 covered elsewhere
)


def _ordinal(n):
    """English ordinal built compositionally, not copied from the implementation."""
    special = {1: "first", 2: "second", 3: "third", 5: "fifth", 8: "eighth",
               9: "ninth", 12: "twelfth", 20: "twentieth", 30: "thirtieth"}
    if n in special:
        return special[n]
    if n > 20:
        tens, unit = divmod(n, 10)
        return {2: "twenty", 3: "thirty"}[tens] + "-" + _ordinal(unit)
    card = {4: "four", 6: "six", 7: "seven", 10: "ten", 11: "eleven",
            13: "thirteen", 14: "fourteen", 15: "fifteen", 16: "sixteen",
            17: "seventeen", 18: "eighteen", 19: "nineteen"}[n]
    return card + "th"


class TestDateFormatters:
    def test_short_golden(self):
        assert format_simple_date_short(D) == "7/4/2010"

    def test_short_never_pads(self):
        assert format_simple_date_short(SimpleDate(2001, 1, 9)) == "1/9/2001"
        assert format_simple_date_short(SimpleDate(2010, 12, 25)) == "12/25/2010"

    def test_long_golden(self):
        assert format_simple_date_long(D) == "the fourth of July, 2010"

    def test_long_more_goldens(self):
        assert format_simple_date_long(SimpleDate(1999, 1, 1)) == \
            "the first of January, 1999"
        assert format_simple_date_long(SimpleDate(2024, 2, 29)) == \
            "the twenty-ninth of February, 2024"
        assert format_simple_date_long(SimpleDate(2000, 12, 31)) == \
            "the thirty-first of December, 2000"

    @pytest.mark.parametrize("day", range(1, 32))
    def test_long_days_match_constructed_ordinals(self, day):
        text = format_simple_date_long(SimpleDate(2020, 1, day))
        assert text == f"the {_ordinal(day)} of January, 2020"

    @pytest.mark.parametrize("month", range(1, 13))
    def test_long_months_match_stdlib_names(self, month):
        text = format_simple_date_long(SimpleDate(2020, month, 10))
        assert text == f"the tenth of {calendar.month_name[month]}, 2020"

    def test_fbi_golden(self):
        assert format_date_fbi(D) == "20100704"

    def test_fbi_zero_pads(self):
        assert format_date_fbi(SimpleDate(50, 1, 1)) == "00500101"

    def test_card_golden(self):
        assert format_date_card(D) == "07/04/2010"

    @given(dates)
    def test_card_is_ten_chars(self, d):
        assert len(format_date_card(d)) == 10

    @given(dates)
    def test_card_against_inverse_parser(self, d):
        m = re.fullmatch(r"(\d{2})/(\d{2})/(\d{4})", format_date_card(d))
        assert m is not None
        assert SimpleDate(int(m.group(3)), int(m.group(1)), int(m.group(2))) == d


class TestFbiParser:
    def test_plain_and_slashed(self):
        assert parse_simple_date_fbi("20100704") == D
        assert parse_simple_date_fbi("2010/07/04") == D

    def test_slashes_anywhere(self):
        assert parse_simple_date_fbi("2/0/1/0/0/7/0/4") == D

    @pytest.mark.parametrize("bad", [
        "2010-07-04", "201007", "2010070", "201007045", "2010070a",
        "٢0100704",  # non-ASCII digit
        "",
    ])
    def test_rejects_shape(self, bad):
        with pytest.raises(ParseError):
            parse_simple_date_fbi(bad)

    def test_rejects_field_ranges(self):
        with pytest.raises(ParseError):
            parse_simple_date_fbi("20101304")
        with pytest.raises(ParseError):
            parse_simple_date_fbi("20100700")

    @given(dates)
    def test_inverts_fbi_format(self, d):
        assert parse_simple_date_fbi(format_date_fbi(d)) == d

    @given(dates, st.sets(st.integers(0, 8)))
    def test_slash_insertion_is_noise(self, d, cuts):
        digits = format_date_fbi(d)
        text = ""
        for i, ch in enumerate(digits):
            if i in cuts:
                text += "/"
            text += ch
        if 8 in cuts:
            text += "/"
        assert parse_simple_date_fbi(text) == d


class TestNameFormatters:
    def test_last_first_golden(self):
        assert format_name_last_first(PersonName("Doe", "John", "S", "")) == \
            "Doe, John S"

    def test_last_first_middle_reduced_to_initial(self):
        assert format_name_last_first(PersonName("Doe", "John", "Quincy", "")) == \
            "Doe, John Q"

    def test_last_first_empty_middle(self):
        assert format_name_last_first(PersonName("Doe", "John", "", "")) == \
            "Doe, John"

    def test_last_first_empty_first(self):
        assert format_name_last_first(PersonName("Doe", "", "Q", "")) == "Doe, Q"

    def test_last_first_all_empty(self):
        assert format_name_last_first(PersonName()) == ","

    def test_first_middle_last_golden(self):
        assert format_name_first_middle_last(PersonName("Doe", "John", "S", "")) == \
            "John, S, Doe"

    def test_first_middle_last_keeps_empty_slot(self):
        assert format_name_first_middle_last(PersonName("Doe", "John", "", "")) == \
            "John, , Doe"

    def test_suffix_never_rendered(self):
        full = PersonName("Doe", "John", "S", "JR")
        assert "JR" not in format_name_last_first(full)
        assert "JR" not in format_name_first_middle_last(full)


class TestTextFormatters:
    def test_upcase_ascii(self):
        assert format_upcase("ab12cd") == "AB12CD"

    def test_upcase_leaves_non_ascii(self):
        assert format_upcase("héllo") == "HéLLO"

    def test_identity_round_trip(self):
        fmt = default_formatter_registry().get("identity")
        parse = default_parser_registry().get("identity")
        assert parse(fmt("ab12cd")) == "ab12cd"


class TestVariantGuards:
    def test_date_formatter_rejects_text(self):
        with pytest.raises(WrongVariantError):
            format_date_fbi("20100704")

    def test_name_formatter_rejects_date(self):
        with pytest.raises(WrongVariantError):
            format_name_last_first(D)

    def test_text_formatter_rejects_date(self):
        with pytest.raises(WrongVariantError):
            format_upcase(D)


class TestRegistries:
    def test_formatter_names_resolve(self):
        reg = default_formatter_registry()
        for name in ("format-simple-date-short", "format-date-short",
                     "format-simple-date-long", "format-date-fbi",
                     "format-date-card", "format-name-last-first",
                     "format-name-first-middle-last", "identity", "string-upcase"):
            assert callable(reg.get(name))

    def test_parser_names_resolve(self):
        reg = default_parser_registry()
        for name in ("parse-date-fbi", "parse-simple-date-fbi", "identity"):
            assert callable(reg.get(name))

    def test_short_names_are_aliases(self):
        reg = default_formatter_registry()
        assert reg.get("format-date-short") is reg.get("format-simple-date-short")
        preg = default_parser_registry()
        assert preg.get("parse-date-fbi") is preg.get("parse-simple-date-fbi")

    def test_lookup_case_insensitive(self):
        reg = default_formatter_registry()
        assert reg.get("Format-Date-FBI") is format_date_fbi

    def test_unknown_name(self):
        from widgetspace import UnresolvedReferenceError
        with pytest.raises(UnresolvedReferenceError):
            default_formatter_registry().get("format-missing")

    def test_duplicate_and_replace(self):
        from widgetspace import DuplicateNameError, NamedRegistry
        reg = NamedRegistry("formatter")
        reg.register("f", lambda d: "x")
        with pytest.raises(DuplicateNameError):
            reg.register("f", lambda d: "y")
        reg.register("f", lambda d: "y", replace=True)
        assert reg.get("f")(None) == "y"

    def test_same_name_allowed_across_sides(self):
        fmt = default_formatter_registry().get("identity")
        parse = default_parser_registry().get("identity")
        assert fmt is not parse


class TestNameSpellings:
    """A lowercase name is looked up as spelled; any other spelling is
    lowered first, and the outcome is the same either way."""

    def test_case_spellings(self):
        from widgetspace.textio import format_identity
        formatters = default_formatter_registry()
        for name in ("identity", "IDENTITY", "Identity"):
            assert formatters.get(name) is format_identity
            assert name in formatters

    def test_spellings_that_miss(self):
        from widgetspace import UnresolvedReferenceError
        formatters = default_formatter_registry()
        for name in (":identity", Shouting("identity"), "identity "):
            assert name not in formatters
            with pytest.raises(UnresolvedReferenceError) as exc:
                formatters.get(name)
            assert str(exc.value) == f"unknown formatter '{name}'"
