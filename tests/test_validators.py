"""Combinator algebra semantics and the built-in base validators.

The fixed message strings checked here are wire-format: downstream
systems match on them byte for byte, so they are pinned exactly.
"""

import datetime
import gc
import string
import weakref

import pytest
from hypothesis import given, strategies as st

from widgetspace import (
    And, Base, Database, DuplicateNameError, InvalidSpecError, Not, Or,
    UnknownValidatorError, ValidationError, ValidatorContext, WidgetCoord, WidgetRegistry,
    default_validator_registry, expand_template, validators,
)
from widgetspace.textio import lowered_key
from widgetspace.validators import _arity_text, validation_error

CTX = ValidatorContext(name="sid", locale="arkansas", medium="ls1100-entry")


@pytest.fixture
def reg():
    return default_validator_registry()


def failure(reg, expr, text, ctx=CTX):
    with pytest.raises(ValidationError) as exc:
        reg.validate(expr, ctx, text)
    return exc.value


class TestExpandTemplate:
    def test_a_and_d_directives(self):
        assert expand_template("The character '~A' is not numeric", "x") == \
            "The character 'x' is not numeric"
        assert expand_template("Length must be larger than ~D", 3) == \
            "Length must be larger than 3"

    def test_positional_order(self):
        assert expand_template("~A then ~D", "a", 2) == "a then 2"

    def test_case_insensitive_directives(self):
        assert expand_template("~a ~d", 1, 2) == "1 2"

    def test_literal_tilde_passthrough(self):
        assert expand_template("~x~", 9) == "~x~"

    def test_missing_argument(self):
        with pytest.raises(ValueError):
            expand_template("~A ~A", "only-one")


class TestBuiltinMessages:
    def test_numeric(self, reg):
        reg.validate(Base("numeric"), CTX, "0123456789")
        reg.validate(Base("numeric"), CTX, "")
        err = failure(reg, Base("numeric"), "12a4")
        assert err.message == "The character 'a' is not numeric"
        assert err.value == "12a4"

    def test_numeric_reports_first_offender(self, reg):
        err = failure(reg, Base("numeric"), "1x2y")
        assert err.message == "The character 'x' is not numeric"

    def test_length_bounds(self, reg):
        expr = Base("length", (3, 7))
        reg.validate(expr, CTX, "abc")
        reg.validate(expr, CTX, "abcdefg")
        assert failure(reg, expr, "ab").message == "Length must be larger than 3"
        assert failure(reg, expr, "abcdefgh").message == "Length must be smaller than 7"

    def test_length_rejects_non_int_args(self, reg):
        with pytest.raises(InvalidSpecError):
            reg.validate(Base("length", ("3", "7")), CTX, "abcd")

    def test_alphabetic_allows_space_and_hyphen(self, reg):
        reg.validate(Base("alphabetic"), CTX, "Mary-Jane OHara")
        err = failure(reg, Base("alphabetic"), "OH4RA")
        assert err.message == "The character '4' is not alphabetic"

    def test_strictly_alphabetic_rejects_space_and_hyphen(self, reg):
        reg.validate(Base("strictly-alphabetic"), CTX, "OHara")
        err = failure(reg, Base("strictly-alphabetic"), "Mary Jane")
        assert err.message == "The character ' ' is not alphabetic"
        err = failure(reg, Base("strictly-alphabetic"), "Mary-Jane")
        assert err.message == "The character '-' is not alphabetic"

    def test_alphanumeric(self, reg):
        reg.validate(Base("alphanumeric"), CTX, "ab12cd")
        err = failure(reg, Base("alphanumeric"), "ab 12")
        assert err.message == "The character ' ' is not alphanumeric"

    def test_required(self, reg):
        reg.validate(Base("required"), CTX, "x")
        assert failure(reg, Base("required"), "").message == "Input is required"
        assert failure(reg, Base("required"), "   ").message == "Input is required"

    def test_required_trims_spaces_only(self, reg):
        # a tab is content, not padding
        reg.validate(Base("required"), CTX, "\t")

    def test_date_accepts_both_shapes(self, reg):
        reg.validate(Base("date"), CTX, "20100704")
        reg.validate(Base("date"), CTX, "2010/07/04")

    @pytest.mark.parametrize("bad", [
        "2010-07-04", "201007", "2010070", "201007045", "2010070a",
        "20101304", "20100230", "20100732", "00000101", "",
    ])
    def test_date_rejections(self, reg, bad):
        assert failure(reg, Base("date"), bad).message == "Input is not a valid date"

    def test_date_leap_years(self, reg):
        reg.validate(Base("date"), CTX, "20000229")
        assert failure(reg, Base("date"), "19000229").message == "Input is not a valid date"

    def test_always_ok(self, reg):
        reg.validate(Base("always-ok"), CTX, "")
        reg.validate(Base("always-ok"), CTX, "anything !@#")


class TestCombinators:
    def test_and_passes_when_all_pass(self, reg):
        reg.validate(And((Base("alphanumeric"), Base("length", (3, 7)))), CTX, "abcd")

    def test_and_fails_fast_with_child_message(self, reg):
        seen = []

        def probe(ctx, args, text):
            seen.append(text)

        reg.register("probe", 0, 0, probe)
        expr = And((Base("numeric"), Base("probe")))
        err = failure(reg, expr, "abc")
        assert err.message == "The character 'a' is not numeric"
        assert seen == []  # the second child never ran

    def test_or_passes_on_first_success(self, reg):
        expr = Or((Base("alphabetic"), Base("numeric")), "must be letters or digits")
        reg.validate(expr, CTX, "abc")
        reg.validate(expr, CTX, "123")

    def test_or_suppresses_child_messages(self, reg):
        expr = Or((Base("alphabetic"), Base("numeric")), "must be letters or digits")
        err = failure(reg, expr, "ab1")
        assert err.message == "must be letters or digits"
        assert err.value == "ab1"

    def test_not_inverts(self, reg):
        expr = Not(Base("required"), "Middle name must be absent")
        reg.validate(expr, CTX, "")
        err = failure(reg, expr, "Q")
        assert err.message == "Middle name must be absent"

    def test_nested_composition(self, reg):
        expr = And((
            Base("required"),
            Or((And((Base("numeric"), Base("length", (4, 4)))),
                Base("strictly-alphabetic")), "PIN or word"),
        ))
        reg.validate(expr, CTX, "1234")
        reg.validate(expr, CTX, "word")
        assert failure(reg, expr, "12").message == "PIN or word"
        assert failure(reg, expr, "").message == "Input is required"

    def test_empty_and_rejected(self):
        with pytest.raises(ValueError):
            And(())

    def test_or_requires_message(self):
        with pytest.raises(ValueError):
            Or((Base("numeric"),), "")
        with pytest.raises(ValueError):
            Or((), "msg")

    def test_not_requires_message(self):
        with pytest.raises(ValueError):
            Not(Base("numeric"), "")


class TestComposedFixture:
    """The canonical composed rule: 3-7 chars, all letters or all digits."""

    EXPR = And((Base("length", (3, 7)),
                Or((Base("alphabetic"), Base("numeric")),
                   "Input must be alphabetic or numeric.")))

    CASES = [
        ("abcd", None),
        ("1234567", None),
        ("ab", "Length must be larger than 3"),
        ("abc1", "Input must be alphabetic or numeric."),
    ]

    @pytest.mark.parametrize("text,message", CASES)
    def test_case(self, reg, text, message):
        if message is None:
            reg.validate(self.EXPR, CTX, text)
        else:
            assert failure(reg, self.EXPR, text).message == message


class TestRegistry:
    def test_unknown_name(self, reg):
        with pytest.raises(UnknownValidatorError):
            reg.validate(Base("no-such"), CTX, "x")
        with pytest.raises(UnknownValidatorError):
            reg.check_expr(Base("no-such"))

    def test_arity_checked_at_load_time(self, reg):
        with pytest.raises(InvalidSpecError):
            reg.check_expr(Base("length", (3,)))
        with pytest.raises(InvalidSpecError):
            reg.check_expr(Base("numeric", (1,)))
        reg.check_expr(Base("length", (3, 7)))

    def test_check_expr_recurses(self, reg):
        bad = And((Base("numeric"), Or((Base("ghost"),), "m")))
        with pytest.raises(UnknownValidatorError):
            reg.check_expr(bad)

    def test_names_case_insensitive(self, reg):
        reg.validate(Base("NUMERIC"), CTX, "123")
        assert "Numeric" in reg

    def test_duplicate_registration_rejected(self, reg):
        with pytest.raises(DuplicateNameError):
            reg.register("numeric", 0, 0, lambda c, a, t: None)

    def test_hot_patch_with_replace(self, reg):
        reg.register("numeric", 0, 0, lambda c, a, t: None, replace=True)
        reg.validate(Base("numeric"), CTX, "not digits at all")

    def test_hot_patch_arity_is_checked_at_validate(self, reg):
        expr = Base("length", (1, 5))
        reg.check_expr(expr)
        reg.register("length", 1, 1, lambda c, a, t: None, replace=True)
        with pytest.raises(InvalidSpecError):
            reg.validate(expr, CTX, "abc")

    def test_invalid_arity_range(self, reg):
        with pytest.raises(ValueError):
            reg.register("broken", 2, 1, lambda c, a, t: None)

    def test_context_reaches_impl(self, reg):
        seen = {}

        def probe(ctx, args, text):
            seen["ctx"] = ctx

        reg.register("ctx-probe", 0, 0, probe)
        reg.validate(Base("ctx-probe"), CTX, "x")
        assert seen["ctx"] is CTX
        assert not hasattr(seen["ctx"], "index")

    def test_non_expression_rejected(self, reg):
        with pytest.raises(TypeError):
            reg.validate("numeric", CTX, "x")


# --- algebra oracle ----------------------------------------------------------

_LETTER_SET = set(string.ascii_letters)
_DIGIT_SET = set(string.digits)


def _oracle(expr, text):
    """Independent pass/fail evaluation of an expression tree."""
    if isinstance(expr, Base):
        if expr.name == "numeric":
            return all(c in _DIGIT_SET for c in text)
        if expr.name == "alphabetic":
            return all(c in _LETTER_SET or c in " -" for c in text)
        if expr.name == "alphanumeric":
            return all(c in _LETTER_SET or c in _DIGIT_SET for c in text)
        if expr.name == "strictly-alphabetic":
            return all(c in _LETTER_SET for c in text)
        if expr.name == "required":
            return text.strip(" ") != ""
        if expr.name == "length":
            lo, hi = expr.args
            return lo <= len(text) <= hi
        raise AssertionError(expr.name)
    if isinstance(expr, And):
        return all(_oracle(c, text) for c in expr.children)
    if isinstance(expr, Or):
        return any(_oracle(c, text) for c in expr.children)
    if isinstance(expr, Not):
        return not _oracle(expr.child, text)
    raise AssertionError(expr)


_base_exprs = st.one_of(
    st.sampled_from([Base("numeric"), Base("alphabetic"), Base("alphanumeric"),
                     Base("strictly-alphabetic"), Base("required")]),
    st.tuples(st.integers(0, 5), st.integers(0, 5)).map(
        lambda b: Base("length", (min(b), max(b)))),
)

_exprs = st.recursive(
    _base_exprs,
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda cs: And(tuple(cs))),
        st.lists(inner, min_size=1, max_size=3).map(
            lambda cs: Or(tuple(cs), "composite rule failed")),
        inner.map(lambda c: Not(c, "negation failed")),
    ),
    max_leaves=8,
)

_texts = st.text(alphabet="ab1 -\t", max_size=8)


class TestAlgebraProperties:
    @given(_exprs, _texts)
    def test_matches_boolean_oracle(self, expr, text):
        reg = default_validator_registry()
        should_pass = _oracle(expr, text)
        if should_pass:
            reg.validate(expr, CTX, text)
        else:
            with pytest.raises(ValidationError):
                reg.validate(expr, CTX, text)

    @given(_exprs, _exprs, _texts)
    def test_and_is_conjunction(self, a, b, text):
        reg = default_validator_registry()
        combined = And((a, b))
        assert _oracle(combined, text) == (_oracle(a, text) and _oracle(b, text))
        try:
            reg.validate(combined, CTX, text)
            passed = True
        except ValidationError:
            passed = False
        assert passed == _oracle(combined, text)

    @given(_exprs, _texts)
    def test_double_negation(self, a, text):
        reg = default_validator_registry()
        outer = Not(Not(a, "inner"), "outer")
        try:
            reg.validate(outer, CTX, text)
            passed = True
        except ValidationError as e:
            passed = False
            assert e.message == "outer"
        assert passed == _oracle(a, text)

    @given(_exprs, _exprs, _texts)
    def test_de_morgan(self, a, b, text):
        reg = default_validator_registry()
        lhs = Not(Or((a, b), "either"), "neither")
        rhs = And((Not(a, "not-a"), Not(b, "not-b")))

        def passes(expr):
            try:
                reg.validate(expr, CTX, text)
                return True
            except ValidationError:
                return False

        assert passes(lhs) == passes(rhs)


# --- the compiled evaluator against the interpreter it replaced ---------------

def reference_validate(reg, expr, ctx, text):
    """The recursive interpreter ``validate`` was before it compiled: every
    call looks each base up and checks its arity."""
    if isinstance(expr, Base):
        entries = reg._entries
        try:
            lo, hi, impl = entries[lowered_key(entries, expr.name)]
        except KeyError:
            raise UnknownValidatorError(f"unknown validator '{expr.name}'") from None
        n = len(expr.args)
        if not lo <= n <= hi:
            raise InvalidSpecError(
                f"validator '{expr.name}' takes {_arity_text(lo, hi)}, got {n}")
        impl(ctx, expr.args, text)
    elif isinstance(expr, And):
        for child in expr.children:
            reference_validate(reg, child, ctx, text)
    elif isinstance(expr, Or):
        for child in expr.children:
            try:
                reference_validate(reg, child, ctx, text)
                return
            except ValidationError:
                continue
        raise ValidationError(text, expr.message)
    elif isinstance(expr, Not):
        try:
            reference_validate(reg, expr.child, ctx, text)
        except ValidationError:
            return
        raise ValidationError(text, expr.message)
    else:
        raise TypeError(f"not a validator expression: {expr!r}")


def outcome(evaluate, *args):
    """``("ok",)``, or the class, text and rejected value of what ``evaluate`` raised."""
    try:
        evaluate(*args)
        return ("ok",)
    except Exception as e:
        return (type(e), str(e), getattr(e, "value", None))


def _flex(ctx, args, text):
    if text.startswith("-"):
        validation_error(text, "flex refuses ~A", text)


# Leaves include an unknown name, a wrong arity, a non-expression and "flex",
# whose arity the test changes between two evaluations.
_any_leaves = st.one_of(
    _base_exprs,
    st.sampled_from([Base("date"), Base("always-ok"), Base("ghost"), Base("numeric", (1,)),
                     Base("flex"), Base("flex", (1,)), Base("FLEX"), "numeric", None]),
)

_any_exprs = st.recursive(
    _any_leaves,
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda cs: And(tuple(cs))),
        st.lists(inner, min_size=1, max_size=3).map(lambda cs: Or(tuple(cs), "any failed")),
        inner.map(lambda c: Not(c, "negation failed")),
    ),
    max_leaves=8,
)

# Non-ASCII digits and letters that str.isdigit/isalpha/isalnum accept.
_TRICKY_TEXTS = ["", "20100704", "2010/07/04", "20100230", "-x", "2010٠٧04", "2010070²",
                 "١٢", "Émile", "\u212a", "ab\n", "Mary-Jane O Hara", "ab12"]

_any_texts = st.one_of(st.text(alphabet="aZ19 -/\té٣", max_size=10), st.text(max_size=10),
                       st.sampled_from(_TRICKY_TEXTS))


class TestCompiledEvaluator:
    @given(_any_exprs, st.lists(_any_texts, min_size=1, max_size=3))
    def test_matches_the_reference_interpreter(self, expr, texts):
        reg = default_validator_registry()
        reg.register("flex", 0, 0, _flex)
        for arity in ((0, 0), (1, 1), (0, 1)):
            reg.register("flex", *arity, _flex, replace=True)
            for text in texts:  # the first evaluation compiles, the rest reuse it
                assert outcome(reg.validate, expr, CTX, text) == \
                    outcome(reference_validate, reg, expr, CTX, text), (expr, arity, text)

    @pytest.mark.parametrize("expr", [
        Or((Base("always-ok"), Base("ghost")), "m"),
        Or((Base("always-ok"), Base("length", (1,))), "m"),
        Or((Base("always-ok"), "not an expression"), "m"),
        Not(Not(Base("always-ok"), "inner"), "outer"),
    ])
    def test_an_unreached_failing_branch_raises_nothing(self, reg, expr):
        for _ in range(2):
            reg.validate(expr, CTX, "x")

    def test_a_reached_failing_branch_raises_each_time(self, reg):
        expr = And((Base("always-ok"), Base("length", (1,))))
        for _ in range(2):
            with pytest.raises(InvalidSpecError) as exc:
                reg.validate(expr, CTX, "x")
            assert str(exc.value) == "validator 'length' takes 2 arguments, got 1"
        with pytest.raises(ValidationError):  # the earlier child still runs first
            reg.validate(And((Base("numeric"), Base("ghost"))), CTX, "x")

    def test_a_warm_evaluation_looks_nothing_up(self, reg, monkeypatch):
        lookups = []
        resolve = validators._resolve
        monkeypatch.setattr(validators, "_resolve",
                            lambda *args: lookups.append(args[1]) or resolve(*args))
        expr = And((Base("required"), Or((Base("numeric"), Base("length", (1, 3))), "m")))
        reg.validate(expr, CTX, "12")
        assert lookups == ["required", "numeric", "length"]
        for text in ("12", "abc", "1234"):
            outcome(reg.validate, expr, CTX, text)
        assert len(lookups) == 3
        reg.register("spare", 0, 0, _flex)  # a new generation compiles again
        reg.validate(expr, CTX, "12")
        assert len(lookups) == 6

    def test_an_evaluated_expression_dies_with_its_last_reference(self, reg):
        expr = And((Base("required"), Base("numeric")))
        reg.validate(expr, CTX, "1")
        dead = weakref.ref(expr)
        del expr  # freed at once: nothing refers to it, and it is in no cycle
        assert dead() is None

    def test_a_non_expression_is_never_memoized(self, reg):
        class Other:
            def __repr__(self):
                return "other"

        other = Other()
        for expr, shown in (("numeric", "'numeric'"), (other, "other")):
            for _ in range(2):
                with pytest.raises(TypeError, match=f"^not a validator expression: {shown}$"):
                    reg.validate(expr, CTX, "x")
        assert vars(other) == {}


class TestCompiledWrites:
    SCHEMA = ("(locale root :parent none) (locale leaf :parent root)"
              "(widget w root :table t"
              " :input ((default identity (and required (or numeric (length 1 3) \"m\"))))"
              " :output ((default identity)))")

    def test_one_validate_per_write(self, tmp_path, monkeypatch):
        reg = WidgetRegistry()
        reg.load_schema(self.SCHEMA)
        registry = reg.registries.validators
        calls = []
        validate = registry.validate
        monkeypatch.setattr(registry, "validate",
                            lambda *args: calls.append(args[2]) or validate(*args))
        db = Database(tmp_path / "db")
        for text in ("12", "abc", "1234", "7"):
            outcome(reg.parse_and_set, db, WidgetCoord("w", "leaf", "default"), text)
        assert calls == ["12", "abc", "1234", "7"]
        assert db.get("t", "w") == "7"

    def test_reloads_leave_no_expression_of_a_dropped_snapshot(self, tmp_path):
        reg = WidgetRegistry()
        db = Database(tmp_path / "db")
        evaluated = []  # a weak reference to each snapshot's validator of w
        for bound in range(1, 30):
            reg.load_schema(self.SCHEMA.replace("(length 1 3)", f"(length 1 {bound})"),
                            replace=True)
            reg.parse_and_set(db, WidgetCoord("w", "leaf", "default"), "12")
            evaluated.append(weakref.ref(reg.resolve_parser("w", "leaf", "default").validator))
        gc.collect()
        assert [ref() is not None for ref in evaluated] == [False] * 28 + [True]


# --- the sped-up base validators against the loops they replaced ---------------

def _reference_numeric(ctx, args, text):
    for ch in text:
        if ch not in _DIGIT_SET:
            validation_error(text, "The character '~A' is not numeric", ch)


def _reference_alphabetic(ctx, args, text):
    for ch in text:
        if ch not in _LETTER_SET | {" ", "-"}:
            validation_error(text, "The character '~A' is not alphabetic", ch)


def _reference_strictly_alphabetic(ctx, args, text):
    for ch in text:
        if ch not in _LETTER_SET:
            validation_error(text, "The character '~A' is not alphabetic", ch)


def _reference_alphanumeric(ctx, args, text):
    for ch in text:
        if ch not in _LETTER_SET | _DIGIT_SET:
            validation_error(text, "The character '~A' is not alphanumeric", ch)


def _reference_date(ctx, args, text):
    digits_only = text.replace("/", "")
    if len(digits_only) != 8 or any(ch not in _DIGIT_SET for ch in digits_only):
        validation_error(text, "Input is not a valid date")
    try:
        datetime.date(int(digits_only[0:4]), int(digits_only[4:6]), int(digits_only[6:8]))
    except ValueError:
        validation_error(text, "Input is not a valid date")


class TestFastBaseValidators:
    REFERENCES = {"numeric": _reference_numeric, "alphabetic": _reference_alphabetic,
                  "strictly-alphabetic": _reference_strictly_alphabetic,
                  "alphanumeric": _reference_alphanumeric, "date": _reference_date}

    @given(st.sampled_from(sorted(REFERENCES)), _any_texts)
    def test_same_outcome_and_message_as_the_loop(self, name, text):
        reg = default_validator_registry()
        assert outcome(reg.validate, Base(name), CTX, text) == \
            outcome(self.REFERENCES[name], CTX, (), text)

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_same_outcome_on_texts_a_c_level_test_could_misjudge(self, name):
        reg = default_validator_registry()
        for text in _TRICKY_TEXTS:
            assert outcome(reg.validate, Base(name), CTX, text) == \
                outcome(self.REFERENCES[name], CTX, (), text), text
