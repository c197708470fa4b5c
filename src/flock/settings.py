"""Engine and process settings: one table, one check, every source.

Each setting in :data:`_TABLE` has one environment variable,
``FLOCK_<NAME>``; the three engine settings (:class:`Settings`) can also
be changed at runtime with ``SET flock.<name> = <int>``. Both sources go
through :func:`check`, so a bad value is the same
:class:`~flock.errors.BindError`, naming where it came from, whichever
way it arrives. An unset or empty variable means the default.

An engine reads its environment once, when it is constructed (a worker
process inherits the variables of the process that spawned it); ``SET``
changes only the engine it runs on. ``proc`` picks the transport of the
sharded and replicated tiers and ``proc_timeout`` bounds each worker
reply in seconds; both are read when a tier or worker is opened.
"""

from __future__ import annotations

import math
import os

from flock.errors import BindError


def _switch(value) -> bool:
    return value in (0, 1)


#: name -> (default, parse for a variable's text, accepts, what it must be)
_TABLE = {
    "encodings": (1, int, _switch, "0 or 1"),
    "indexes": (1, int, _switch, "0 or 1"),
    "memory_budget": (0, int, lambda v: v >= 0, "an integer >= 0 (bytes)"),
    "proc": (0, int, _switch, "0 or 1"),
    "proc_timeout": (
        120.0, float, lambda v: 0 < v < math.inf, "a number of seconds > 0"
    ),
}


def check(name: str, raw: str | int, source: str):
    """The value of setting *name* given *raw*, or a BindError naming
    *source*. *raw* is a variable's text (blank means the default) or the
    integer of a ``SET`` statement."""
    default, parse, accepts, what = _TABLE[name]
    value = raw
    if isinstance(raw, str):
        if not raw.strip():
            return default
        try:
            value = parse(raw)
        except ValueError:
            value = None
    if value is None or not accepts(value):
        raise BindError(f"{source} must be {what}, got {raw!r}")
    return value


def env(name: str):
    """Setting *name* from its ``FLOCK_*`` environment variable."""
    variable = "FLOCK_" + name.upper()
    return check(name, os.environ.get(variable, ""), variable)


class Settings:
    """One engine's values of the settings ``SET flock.*`` may change.

    Shared by a :class:`~flock.db.engine.Database`, its catalog and every
    table, so hot paths read a plain attribute and a ``SET`` reaches all
    of them at once.
    """

    __slots__ = ("encodings", "indexes", "memory_budget")

    def __init__(self) -> None:
        self.encodings = env("encodings")
        self.indexes = env("indexes")
        self.memory_budget = env("memory_budget")

    def set(self, name: str, value: int) -> None:
        """Apply ``SET <name> = <value>``; *name* is the dotted name."""
        key = name.removeprefix("flock.")
        if key == name or key not in self.__slots__:
            raise BindError(f"unknown setting {name!r}")
        setattr(self, key, check(key, value, f"SET {name}"))
