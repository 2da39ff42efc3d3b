"""The one string-keyed registry behind every named plug-in point.

Performance backends, shard schedulers, queue disciplines and analytic
queueing models are all chosen by a short name — in spec JSON, CLI flags
and code.  :class:`Registry` is the mapping they share, so an unknown name
fails the same way everywhere: a :class:`~repro.exceptions.ValidationError`
reading ``unknown <kind> <name>; available: (...)``.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Generic, TypeVar

from .exceptions import ValidationError

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Named entries of one ``kind``, in registration order.

    ``entries`` seeds the registry from objects carrying a ``name``.
    """

    def __init__(self, kind: str, entries: Iterable[T] = ()) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}
        for entry in entries:
            self.add(entry.name, entry)  # type: ignore[attr-defined]

    def add(self, name: str, entry: T) -> None:
        """Register ``entry`` under ``name``; a taken name is an error."""
        if name in self._entries:
            raise ValidationError(f"{self.kind} name {name!r} is already registered")
        self._entries[name] = entry

    def remove(self, name: str) -> None:
        self.get(name)
        del self._entries[name]

    def get(self, name: str) -> T:
        try:
            return self._entries[name]
        except KeyError:
            raise ValidationError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)
