"""Validator combinator algebra and the built-in base validators.

A validator expression is a tree: base validators at the leaves, ``And``,
``Or``, and ``Not`` above them. Evaluation reports failure by raising
:class:`ValidationError`; ``Or`` suppresses its children's errors and
signals its own message, ``Not`` inverts its child.

A registry evaluates an expression by compiling it, once per expression
object and registry generation, into a tree of ``(function, data)`` nodes:
each base is looked up and its arity checked when it is compiled, not at
each call. The root node is kept on the expression itself, tagged with the
generation, so it lives exactly as long as its expression. ``register``
starts a new generation, so a re-registration takes effect at the next
evaluation. A base whose name or arity does not check out compiles to a
node that raises that error when evaluation reaches it.

Validators see the input text and a (name, locale, medium) context. The
context deliberately has no occurrence index: rules may vary by
jurisdiction and by usage, never by which occurrence is being checked.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from string import ascii_letters, digits
from typing import Callable, Union

from .errors import (DuplicateNameError, InvalidSpecError, UnknownValidatorError,
                     ValidationError)
from .sexpr import int_text
from .textio import lowered_key


@dataclass(frozen=True, slots=True)
class ValidatorContext:
    """Where an input came from. No index on purpose: rules are index-blind."""

    name: str
    locale: str
    medium: str


@dataclass(frozen=True)
class Base:
    """A reference to a registered base validator, with its arguments."""

    name: str
    args: tuple = ()


@dataclass(frozen=True)
class And:
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValueError("'and' needs at least one child")


@dataclass(frozen=True)
class Or:
    children: tuple
    message: str

    def __post_init__(self):
        if not self.children:
            raise ValueError("'or' needs at least one child")
        if not isinstance(self.message, str) or not self.message:
            raise ValueError("'or' requires a non-empty message")


@dataclass(frozen=True)
class Not:
    child: "ValidatorExpr"
    message: str

    def __post_init__(self):
        if not isinstance(self.message, str) or not self.message:
            raise ValueError("'not' requires a non-empty message")


ValidatorExpr = Union[Base, And, Or, Not]


def bases(expr: ValidatorExpr):
    """The base validators at the leaves of ``expr``, left to right."""
    if isinstance(expr, Base):
        yield expr
    elif isinstance(expr, (And, Or)):
        for child in expr.children:
            yield from bases(child)
    elif isinstance(expr, Not):
        yield from bases(expr.child)
    else:
        raise TypeError(f"not a validator expression: {expr!r}")


def expand_template(template: str, *args) -> str:
    """Minimal positional template substitution: ~A and ~D insert the next argument.

    An integer is written in full, whatever the interpreter's conversion limit.
    """
    out: list[str] = []
    values = iter(args)
    i = 0
    while i < len(template):
        ch = template[i]
        if ch == "~" and i + 1 < len(template) and template[i + 1] in "AaDd":
            try:
                value = next(values)
            except StopIteration:
                raise ValueError(f"template {template!r} needs more arguments") from None
            out.append(int_text(value) if isinstance(value, int) else str(value))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def validation_error(value: str, template: str, *args):
    """Signal a validation failure with a templated message."""
    raise ValidationError(value, expand_template(template, *args))


BaseImpl = Callable[[ValidatorContext, tuple, str], None]


class ValidatorRegistry:
    """Name -> base validator table with arity bounds.

    Names are case-insensitive. Re-registration requires ``replace=True``
    (hot patching); otherwise duplicates are rejected.
    """

    def __init__(self):
        self._entries: dict[str, tuple[int, int, BaseImpl]] = {}
        self._generation = object()  # the tag of every node compiled since the last register

    def register(self, name: str, min_args: int, max_args: int, impl: BaseImpl,
                 *, replace: bool = False) -> None:
        if not (isinstance(min_args, int) and isinstance(max_args, int)
                and 0 <= min_args <= max_args):
            raise ValueError(f"invalid arity range [{min_args}, {max_args}]")
        key = name.lower()
        if key in self._entries and not replace:
            raise DuplicateNameError(f"validator '{key}' is already registered")
        self._entries[key] = (min_args, max_args, impl)
        self._generation = object()  # a new generation: compile again at the next call

    def __contains__(self, name: str) -> bool:
        return lowered_key(self._entries, name) in self._entries

    def names(self) -> list[str]:
        return sorted(self._entries)

    def check_base(self, base: Base) -> None:
        """Load-time check: a registered name, literal arguments, a count in range."""
        if not isinstance(base.name, str):
            raise InvalidSpecError(f"validator name must be a string, got {base.name!r}")
        for arg in base.args:
            if isinstance(arg, bool) or not isinstance(arg, (int, str)):
                raise InvalidSpecError(
                    f"validator arguments must be integers or strings, got {arg!r}")
        _resolve(self._entries, base.name, base.args)

    def check_expr(self, expr: ValidatorExpr) -> None:
        """``check_base`` for every base validator in ``expr``."""
        for base in bases(expr):
            self.check_base(base)

    def validate(self, expr: ValidatorExpr, ctx: ValidatorContext, text: str) -> None:
        """Evaluate ``expr`` against ``text``; raise ValidationError on failure.

        ``And`` stops at the first failing child. ``Or`` succeeds on the
        first passing child and otherwise reports its own message,
        discarding the children's. Arity is checked again when ``expr`` is
        first evaluated after any registration, because
        ``register(..., replace=True)`` may change it after a load.
        """
        try:
            generation, fn, data = expr._compiled
        except AttributeError:  # never compiled, or not an expression
            generation = None
        if generation is not self._generation:
            fn, data = self._compile_root(expr)
        fn(ctx, data, text)

    def _compile_root(self, expr) -> tuple:
        """Compile ``expr`` and keep the node in its ``__dict__``, as
        ``functools.cached_property`` does on a frozen dataclass, tagged with the
        generation read first: a register meanwhile leaves a stale tag."""
        generation = self._generation
        node = _compile(self._entries, expr)
        if isinstance(expr, (Base, And, Or, Not)):
            expr.__dict__["_compiled"] = (generation, *node)
        return node


def _resolve(entries: dict, name: str, args: tuple) -> BaseImpl:
    """The implementation of base ``name``, once its name and arity check out."""
    try:
        lo, hi, impl = entries[lowered_key(entries, name)]
    except KeyError:
        raise UnknownValidatorError(f"unknown validator '{name}'") from None
    n = len(args)
    if not lo <= n <= hi:
        raise InvalidSpecError(f"validator '{name}' takes {_arity_text(lo, hi)}, got {n}")
    return impl


def _compile(entries: dict, expr) -> tuple:
    """``expr`` as a node ``(fn, data)``, evaluated as ``fn(ctx, data, text)``.

    A base compiles to its implementation and arguments, so evaluating it
    adds no call. A node holds names, arguments and messages, never an
    expression.
    """
    if isinstance(expr, Base):
        name, args = expr.name, expr.args
        try:
            return _resolve(entries, name, args), args
        except Exception:  # not raised here: evaluation that reaches the node repeats it
            return _unresolved, (entries, name, args)
    if isinstance(expr, And):
        return _all, tuple(_compile(entries, child) for child in expr.children)
    if isinstance(expr, Or):
        return _any, (tuple(_compile(entries, child) for child in expr.children), expr.message)
    if isinstance(expr, Not):
        return _none, (_compile(entries, expr.child), expr.message)
    return _not_an_expression, f"not a validator expression: {expr!r}"


def _all(ctx, nodes, text):
    for fn, data in nodes:
        fn(ctx, data, text)


def _any(ctx, nodes_and_message, text):
    nodes, message = nodes_and_message
    for fn, data in nodes:
        try:
            fn(ctx, data, text)
            return
        except ValidationError:
            continue
    raise ValidationError(text, message)


def _none(ctx, node_and_message, text):
    (fn, data), message = node_and_message
    try:
        fn(ctx, data, text)
    except ValidationError:
        return
    raise ValidationError(text, message)


def _unresolved(ctx, lookup, text):
    _resolve(*lookup)


def _not_an_expression(ctx, message, text):
    raise TypeError(message)


def _arity_text(lo: int, hi: int) -> str:
    if lo == hi:
        return f"{lo} argument{'s' if lo != 1 else ''}"
    return f"{lo} to {hi} arguments"


# --- built-in base validators ----------------------------------------------

_DIGITS = set(digits)
_LETTERS = set(ascii_letters)
_ALPHABETIC = _LETTERS | {" ", "-"}
_ALPHANUMERIC = _LETTERS | _DIGITS
_ALPHABETIC_RE = re.compile(r"[A-Za-z \-]*")


def _numeric(ctx, args, text):
    if not (text.isascii() and text.isdigit()):   # the loop only names the culprit
        for ch in text:
            if ch not in _DIGITS:
                validation_error(text, "The character '~A' is not numeric", ch)


def _length(ctx, args, text):
    lo, hi = args
    if not isinstance(lo, int) or not isinstance(hi, int):
        raise InvalidSpecError("'length' arguments must be integers")
    if len(text) < lo:
        validation_error(text, "Length must be larger than ~D", lo)
    if len(text) > hi:
        validation_error(text, "Length must be smaller than ~D", hi)


def _alphabetic(ctx, args, text):
    if not _ALPHABETIC_RE.fullmatch(text):
        for ch in text:
            if ch not in _ALPHABETIC:
                validation_error(text, "The character '~A' is not alphabetic", ch)


def _strictly_alphabetic(ctx, args, text):
    if not (text.isascii() and text.isalpha()):
        for ch in text:
            if ch not in _LETTERS:
                validation_error(text, "The character '~A' is not alphabetic", ch)


def _alphanumeric(ctx, args, text):
    if not (text.isascii() and text.isalnum()):
        for ch in text:
            if ch not in _ALPHANUMERIC:
                validation_error(text, "The character '~A' is not alphanumeric", ch)


def _required(ctx, args, text):
    if not text.strip(" "):
        validation_error(text, "Input is required")


def _date(ctx, args, text):
    digits_only = text.replace("/", "")
    if len(digits_only) != 8 or not (digits_only.isascii() and digits_only.isdigit()):
        validation_error(text, "Input is not a valid date")
    year = int(digits_only[0:4])
    month = int(digits_only[4:6])
    day = int(digits_only[6:8])
    try:
        datetime.date(year, month, day)
    except ValueError:
        validation_error(text, "Input is not a valid date")


def _always_ok(ctx, args, text):
    pass


def default_validator_registry() -> ValidatorRegistry:
    r = ValidatorRegistry()
    r.register("numeric", 0, 0, _numeric)
    r.register("length", 2, 2, _length)
    r.register("alphabetic", 0, 0, _alphabetic)
    r.register("strictly-alphabetic", 0, 0, _strictly_alphabetic)
    r.register("alphanumeric", 0, 0, _alphanumeric)
    r.register("required", 0, 0, _required)
    r.register("date", 0, 0, _date)
    r.register("always-ok", 0, 0, _always_ok)
    return r
