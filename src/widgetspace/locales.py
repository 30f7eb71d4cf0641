"""Jurisdiction inheritance: a single-rooted tree of locale symbols.

Every locale except the root has exactly one parent; lookups that miss at
a locale retry at its parent, so children only state where they differ.
``resolve`` is the one walk everybody shares: it probes each ancestor in
order, nearest first, and fails with the canonical message when the chain
is exhausted.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, TypeVar

from .errors import (DuplicateLocaleError, InvalidSpecError, LocaleCycleError,
                     NO_HANDLER_MESSAGE, ResolutionError, UnknownLocaleError,
                     UnknownParentError)
from .sexpr import normalize_symbol

T = TypeVar("T")


class LocaleTree:
    """Parent-pointer tree. Symbols are case-insensitive, stored lowercase.

    Each method normalizes a locale as its caller spells it, once; a key
    is canonical, so normalizing it again leaves it as it is.

    ``add`` checks everything before it changes anything, so a rejected
    add leaves the tree as it was. It then sets one key of the parent map
    in place. Nothing takes a lock, so a tree that others share must not be
    mutated: the registry adds locales to a private staged copy, under its
    writer lock, and publishes the copy whole.
    """

    def __init__(self):
        self._parents: dict[str, Optional[str]] = {}

    def add(self, child: str, parent: Optional[str] = None, *, replace: bool = False) -> None:
        """Insert a locale under ``parent`` (None declares the root).

        Parents must already exist. With ``replace=True`` an existing
        locale may be re-parented; the move is rejected if it would
        create a cycle.
        """
        child = normalize_symbol(child)
        parent = normalize_symbol(parent) if parent is not None else None
        if not child:
            raise InvalidSpecError("locale symbol must be non-empty")
        parents = self._parents
        if child in parents and not replace:
            raise DuplicateLocaleError(f"locale '{child}' is already defined")
        if parent is None:
            root = _root_of(parents)
            if root is not None and root != child:
                raise InvalidSpecError(
                    f"tree already has root '{root}'; cannot add second root '{child}'")
        else:
            if parent not in parents:
                raise UnknownParentError(f"unknown parent locale '{parent}'")
            if parent == child:
                raise LocaleCycleError(f"locale '{child}' cannot be its own parent")
            if child in parents:
                if parents[child] is None:
                    raise InvalidSpecError(f"root locale '{child}' cannot be re-parented")
                cur = parent
                while cur is not None:
                    if cur == child:
                        raise LocaleCycleError(
                            f"re-parenting '{child}' under '{parent}' creates a cycle")
                    cur = parents[cur]
        parents[child] = parent

    def __contains__(self, locale: str) -> bool:
        return normalize_symbol(locale) in self._parents

    def __len__(self) -> int:
        return len(self._parents)

    @property
    def root(self) -> Optional[str]:
        return _root_of(self._parents)

    def locales(self) -> list[str]:
        """All locales in insertion order."""
        return list(self._parents)

    def _known(self, locale: str) -> str:
        """The canonical spelling of ``locale``, which must be in the tree."""
        locale = normalize_symbol(locale)
        if locale not in self._parents:
            raise UnknownLocaleError(f"unknown locale '{locale}'")
        return locale

    def parent(self, locale: str) -> Optional[str]:
        return self._parents[self._known(locale)]

    def children(self, locale: str) -> list[str]:
        locale = self._known(locale)
        return [child for child, p in self._parents.items() if p == locale]

    def ancestry(self, locale: str) -> list[str]:
        """The chain from ``locale`` up to and including the root."""
        parents = self._parents
        locale = self._known(locale)
        chain = []
        cur: Optional[str] = locale
        while cur is not None:
            chain.append(cur)
            cur = parents[cur]
        return chain

    def resolve(self, start: str, probe: Callable[[str], Optional[T]], *,
                message: str = NO_HANDLER_MESSAGE,
                context: dict | None = None) -> T:
        """Walk the ancestry of ``start`` and return the first non-None probe result.

        Exhausting the chain raises a ResolutionError whose text is
        exactly the canonical message.
        """
        for locale in self.ancestry(start):
            result = probe(locale)
            if result is not None:
                return result
        raise ResolutionError(message, context)

    def copy(self) -> "LocaleTree":
        clone = LocaleTree()
        clone._parents = dict(self._parents)
        return clone


def _root_of(parents: dict[str, Optional[str]]) -> Optional[str]:
    for locale, parent in parents.items():
        if parent is None:
            return locale
    return None
