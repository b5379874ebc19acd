"""Attributes computed on first read."""

from __future__ import annotations

from typing import Any, Callable


class once_property:
    """``functools.cached_property`` whose first readers all see one value.

    A non-data descriptor: the value lands in the instance ``__dict__``
    and every later read finds it there without calling ``__get__``.
    Threads racing into the first read may each compute, but
    ``dict.setdefault`` keeps exactly one result and hands it to all of
    them, on every CPython (``cached_property`` took a class-wide lock up
    to 3.11 and guarantees nothing since), so identity checks against the
    cached object hold however it was first reached.
    """

    def __init__(self, func: Callable[[Any], Any]) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.func(obj))
