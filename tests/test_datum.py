"""Value universe: construction rules, absence helpers, and the dump codec."""

import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from widgetspace import (
    UNINITIALIZED, MalformedEncodingError, PersonName, SimpleDate, Uninitialized,
    deserialize, dumps, is_uninitialized, loads, maybe_map, maybe_or_default,
    require_valid, serialize,
)
from widgetspace import sexpr
from widgetspace.datum import MAX_DEPTH, Datum, _quote
from widgetspace.sexpr import int_text

storable_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, exclude_characters="\x7f",
                           exclude_categories=("Cs",)))

leaf = st.one_of(
    st.just(UNINITIALIZED),
    st.integers(min_value=-10**12, max_value=10**12),
    storable_text,
    st.builds(SimpleDate,
              year=st.integers(0, 9999),
              month=st.integers(1, 12),
              day=st.integers(1, 31)),
    st.builds(PersonName, last=storable_text, first=storable_text,
              middle=storable_text, suffix=storable_text),
)

datums = st.recursive(
    leaf, lambda inner: st.lists(inner, max_size=5).map(tuple), max_leaves=20)


class TestUninitialized:
    def test_singleton(self):
        assert Uninitialized() is UNINITIALIZED
        assert Uninitialized() is Uninitialized()

    def test_repr(self):
        assert repr(UNINITIALIZED) == "#uninit"

    def test_survives_pickle(self):
        assert pickle.loads(pickle.dumps(UNINITIALIZED)) is UNINITIALIZED

    def test_is_uninitialized(self):
        assert is_uninitialized(UNINITIALIZED)
        assert not is_uninitialized(0)
        assert not is_uninitialized("")
        assert not is_uninitialized(())


class TestMaybeHelpers:
    def test_map_absorbs_absence(self):
        assert maybe_map(UNINITIALIZED, str.upper) is UNINITIALIZED

    def test_map_applies(self):
        assert maybe_map("ab", str.upper) == "AB"

    def test_or_default(self):
        assert maybe_or_default(UNINITIALIZED, 7) == 7
        assert maybe_or_default(3, 7) == 3
        assert maybe_or_default("", 7) == ""


class TestConstruction:
    def test_date_field_ranges(self):
        SimpleDate(0, 1, 1)
        SimpleDate(9999, 12, 31)
        with pytest.raises(ValueError):
            SimpleDate(10000, 1, 1)
        with pytest.raises(ValueError):
            SimpleDate(-1, 1, 1)
        with pytest.raises(ValueError):
            SimpleDate(2010, 0, 1)
        with pytest.raises(ValueError):
            SimpleDate(2010, 13, 1)
        with pytest.raises(ValueError):
            SimpleDate(2010, 1, 0)
        with pytest.raises(ValueError):
            SimpleDate(2010, 1, 32)

    def test_date_rejects_non_int(self):
        with pytest.raises(TypeError):
            SimpleDate("2010", 7, 4)
        with pytest.raises(TypeError):
            SimpleDate(2010, True, 4)

    @pytest.mark.parametrize("bad", [True, 2.0, "2"], ids=["bool", "float", "str"])
    @pytest.mark.parametrize("field", ["year", "month", "day"])
    def test_date_field_type_errors(self, field, bad):
        fields = {"year": 2010, "month": 7, "day": 4, field: bad}
        with pytest.raises(TypeError) as exc:
            SimpleDate(**fields)
        assert str(exc.value) == f"{field} must be an integer, got {bad!r}"

    def test_date_names_the_first_field_of_the_wrong_type(self):
        with pytest.raises(TypeError, match=r"^year must be an integer, got 2\.0$"):
            SimpleDate(2.0, "7", True)

    def test_date_accepts_an_int_subclass(self):
        d = SimpleDate(Count(2010), Count(7), Count(4))
        assert d == SimpleDate(2010, 7, 4)
        assert dumps(d) == "(date 2010 7 4)"
        with pytest.raises(ValueError, match="^month out of range: 13$"):
            SimpleDate(Count(2010), Count(13), Count(4))

    def test_date_is_frozen(self):
        d = SimpleDate(2010, 7, 4)
        with pytest.raises(Exception):
            d.year = 2011

    def test_name_defaults_empty(self):
        n = PersonName()
        assert (n.last, n.first, n.middle, n.suffix) == ("", "", "", "")

    def test_name_rejects_non_str(self):
        with pytest.raises(TypeError):
            PersonName(last=3)


class TestRequireValid:
    def test_accepts_each_variant(self):
        for d in (UNINITIALIZED, 0, -17, "hello", SimpleDate(2010, 7, 4),
                  PersonName("Doe"), (), (1, "a", UNINITIALIZED)):
            require_valid(d)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            require_valid(True)

    def test_rejects_control_chars(self):
        with pytest.raises(ValueError):
            require_valid("a\nb")
        with pytest.raises(ValueError):
            require_valid("a\x7fb")
        with pytest.raises(ValueError):
            require_valid(PersonName(last="a\tb"))

    def test_rejects_lone_surrogates(self):
        with pytest.raises(ValueError):
            require_valid("a\ud800b")

    @given(st.text(alphabet=st.characters(max_codepoint=0xE000,
                                          exclude_categories=())))
    def test_text_check_matches_per_character_rule(self, text):
        expected = None
        for ch in text:
            if ch < " " or ch == "\x7f":
                expected = f"control character {ch!r} is not storable text"
                break
            if "\ud800" <= ch <= "\udfff":
                expected = f"surrogate {ch!r} is not storable text"
                break
        try:
            require_valid(text)
            got = None
        except ValueError as e:
            got = str(e)
        assert got == expected

    def test_rejects_foreign_types(self):
        with pytest.raises(TypeError):
            require_valid(1.5)
        with pytest.raises(TypeError):
            require_valid([1, 2])
        with pytest.raises(TypeError):
            require_valid((1, [2]))


DUMP_GOLDENS = [
    (UNINITIALIZED, "#uninit"),
    (0, "0"),
    (-42, "-42"),
    ("", '""'),
    ("ab12cd", '"ab12cd"'),
    ('say "hi"', '"say \\"hi\\""'),
    ("back\\slash", '"back\\\\slash"'),
    (SimpleDate(2010, 7, 4), "(date 2010 7 4)"),
    (PersonName("Doe", "John", "S", ""), '(name "Doe" "John" "S" "")'),
    ((), "[]"),
    ((1, "a"), '[1 "a"]'),
    ((UNINITIALIZED, (SimpleDate(1999, 1, 2),)), "[#uninit [(date 1999 1 2)]]"),
]


class TestDumps:
    @pytest.mark.parametrize("value,text", DUMP_GOLDENS)
    def test_goldens(self, value, text):
        assert dumps(value) == text

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            dumps(False)

    def test_serialize_is_utf8(self):
        assert serialize("héllo") == '"héllo"'.encode("utf-8")

    def test_serialize_validates(self):
        with pytest.raises(ValueError):
            serialize("a\nb")


def ref_dumps(d: Datum) -> str:
    """``datum.dumps`` as it was before it tested ``str``, ``SimpleDate`` and
    ``tuple`` first; kept verbatim apart from its name."""
    if isinstance(d, Uninitialized):
        return "#uninit"
    if isinstance(d, bool):
        raise TypeError("booleans are not datum values")
    if isinstance(d, int):
        return int_text(d)
    if isinstance(d, str):
        return _quote(d)
    if isinstance(d, SimpleDate):
        return f"(date {d.year} {d.month} {d.day})"
    if isinstance(d, PersonName):
        parts = " ".join(_quote(p) for p in (d.last, d.first, d.middle, d.suffix))
        return f"(name {parts})"
    if isinstance(d, tuple):
        return "[" + " ".join(ref_dumps(item) for item in d) + "]"
    raise TypeError(f"not a datum value: {d!r}")


class Text(str):
    pass


class Count(int):
    pass


class Day(SimpleDate):
    pass


class Items(tuple):
    pass


# every datum variant, subclasses of the types ``dumps`` tests first, and
# values it refuses, at any depth of sequence
dumpable = st.recursive(
    st.one_of(leaf, st.booleans(), st.floats(allow_nan=False), storable_text.map(Text),
              st.integers().map(Count), st.integers(10 ** 700, 10 ** 800),
              st.builds(Day, year=st.integers(0, 9999), month=st.integers(1, 12),
                        day=st.integers(1, 31))),
    lambda inner: st.one_of(st.lists(inner, max_size=4).map(tuple),
                            st.lists(inner, max_size=4).map(Items)),
    max_leaves=16)


def _dumped(dumps, value):
    try:
        return ("text", dumps(value))
    except TypeError as e:
        return ("error", str(e))


@settings(max_examples=500)
@given(dumpable)
@example(True)
@example((1, (False,)))
@example(Items((Text('a"b'), Count(3), Day(2010, 7, 4))))
def test_dumps_matches_reference(value):
    assert _dumped(dumps, value) == _dumped(ref_dumps, value)


def ref_quote(s: str) -> str:
    """``datum._quote`` as it was before it skipped text with nothing to escape."""
    return '"' + s.translate(str.maketrans({'"': '\\"', "\\": "\\\\"})) + '"'


@settings(max_examples=500)
@given(st.one_of(storable_text, st.text(alphabet='ab "\\'), storable_text.map(Text)))
@example('"')
@example("\\")
@example("")
def test_quote_matches_reference(text):
    assert _quote(text) == ref_quote(text)
    assert type(_quote(text)) is str
    assert loads(_quote(text)) == text


class TestLoads:
    @pytest.mark.parametrize("value,text", DUMP_GOLDENS)
    def test_goldens_invert(self, value, text):
        assert loads(text) == value

    def test_whitespace_insensitive(self):
        assert loads("  ( date  2010   7 4 )  ") == SimpleDate(2010, 7, 4)
        assert loads("[ 1  2 ]") == (1, 2)

    def test_trailing_content_rejected(self):
        with pytest.raises(MalformedEncodingError):
            loads("1 2")

    def test_unterminated_string(self):
        with pytest.raises(MalformedEncodingError):
            loads('"abc')

    def test_unknown_escape(self):
        with pytest.raises(MalformedEncodingError):
            loads(r'"a\nb"')

    def test_unknown_atom(self):
        with pytest.raises(MalformedEncodingError):
            loads("#nil")

    def test_unclosed_seq(self):
        with pytest.raises(MalformedEncodingError):
            loads("[1 2")

    def test_bad_compound_head(self):
        with pytest.raises(MalformedEncodingError):
            loads("(point 1 2)")

    def test_date_arity(self):
        with pytest.raises(MalformedEncodingError):
            loads("(date 2010 7)")
        with pytest.raises(MalformedEncodingError):
            loads("(date 2010 7 4 5)")

    def test_name_requires_strings(self):
        with pytest.raises(MalformedEncodingError):
            loads('(name "Doe" "John" 3 "")')

    def test_error_carries_byte_offset(self):
        with pytest.raises(MalformedEncodingError) as exc:
            loads("(date 2010 13 4)")
        assert exc.value.offset == 11

    def test_offset_counts_utf8_bytes(self):
        # the é is two bytes, so the stray token begins at byte 9, not 8
        with pytest.raises(MalformedEncodingError) as exc:
            loads('"héllo" x')
        assert exc.value.offset == 9

    def test_deserialize_bytes(self):
        assert deserialize(b'"ab"') == "ab"

    def test_deserialize_invalid_utf8(self):
        with pytest.raises(MalformedEncodingError) as exc:
            deserialize(b'"a\xffb"')
        assert exc.value.offset == 2

    # a lone surrogate counts the three bytes that ``surrogatepass`` encodes it to
    @pytest.mark.parametrize("text,message", [
        ("\ud800 1", "unknown atom '\ud800' (byte 0)"),
        ("[1 \ud800] 2", "unknown atom '\ud800' (byte 3)"),
        ('"\ud800" x', "trailing content after datum (byte 6)"),
        ('\ud800 "', "unterminated string (byte 4)"),
    ])
    @pytest.mark.parametrize("read", [loads, deserialize])
    def test_lone_surrogate_is_malformed_at_a_byte_offset(self, read, text, message):
        with pytest.raises(MalformedEncodingError) as exc:
            read(text)
        assert str(exc.value) == message


def nested(depth: int, leaf=()):
    value = leaf
    for _ in range(depth - 1):
        value = (value,)
    return value


class TestNestingDepth:
    def test_deepest_storable_value_reads_back(self):
        value = nested(MAX_DEPTH, (1,))
        require_valid(value)
        assert dumps(value) == "[" * MAX_DEPTH + "1" + "]" * MAX_DEPTH
        assert loads(dumps(value)) == value

    def test_deeper_value_is_not_storable(self):
        with pytest.raises(ValueError, match=f"nested deeper than {MAX_DEPTH}"):
            require_valid(nested(MAX_DEPTH + 1))
        with pytest.raises(ValueError):
            serialize(nested(5000))

    def test_deeper_text_is_malformed_at_the_first_bracket_too_deep(self):
        with pytest.raises(MalformedEncodingError) as exc:
            loads(" " + "[" * 5000 + "]" * 5000)
        assert exc.value.offset == MAX_DEPTH + 1
        assert str(exc.value) == (f"sequences nested deeper than {MAX_DEPTH} "
                                  f"(byte {MAX_DEPTH + 1})")


class TestIntegerLength:
    """Integers have at most ``sexpr.MAX_INT_DIGITS`` digits, stored or read."""

    def test_longest_integer_reads_back(self):
        for value in (10 ** 4300 - 1, -(10 ** 4300 - 1)):
            require_valid(value)
            assert loads(dumps(value)) == value

    def test_longer_integer_is_not_storable(self):
        limit = sexpr.MAX_INT_DIGITS
        for value in (10 ** limit, -10 ** limit, 10 ** 5000):
            with pytest.raises(ValueError, match=f"more than {limit} digits are not storable"):
                require_valid(value)
            with pytest.raises(ValueError):
                serialize(value)
        with pytest.raises(ValueError):
            require_valid((1, (2,), (10 ** limit,)))

    @pytest.mark.parametrize("text,offset", [
        ("9" * 5000, 0),
        ("[1 -" + "0" * 4301 + "]", 3),
        ("(date " + "1" * 4301 + " 1 1)", 6),
        ("(date 2000 1 1 " + "9" * 4301 + ")", 15),  # where ')' belongs
    ], ids=["integer", "in-sequence", "year", "for-paren"])
    @pytest.mark.parametrize("read", [loads, deserialize])
    def test_longer_literal_is_malformed_at_its_byte_offset(self, read, text, offset):
        with pytest.raises(MalformedEncodingError) as exc:
            read(text)
        assert str(exc.value) == (f"integer literal longer than {sexpr.MAX_INT_DIGITS} "
                                  f"digits (byte {offset})")


class TestRoundTrip:
    @given(datums)
    def test_loads_inverts_dumps(self, d):
        require_valid(d)
        assert loads(dumps(d)) == d

    @given(datums)
    def test_serialize_deserialize(self, d):
        assert deserialize(serialize(d)) == d
