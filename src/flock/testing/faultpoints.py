"""Deterministic fault-point injection.

Production code sprinkles ``faultpoints.reach("wal.pre_fsync")`` calls at the
moments where a crash is interesting; they are no-ops unless a test arms the
point. Armed points either raise :class:`~flock.errors.FaultInjected`
(``action="error"``) or kill the process without any Python-level cleanup
(``action="crash"``, via ``os._exit``) — the latter is the honest simulation
of a power loss or SIGKILL: whatever already reached the OS survives,
everything buffered in the process dies with it.

Points can be armed programmatically (:func:`set_fault`) or from the
environment, which is how the crash-recovery stress test controls its child
process::

    FLOCK_FAULTPOINTS="wal.pre_fsync=crash:3,checkpoint.mid_write=error"

arms ``wal.pre_fsync`` to crash on its 3rd hit and ``checkpoint.mid_write``
to raise on its 1st.

A third action, ``sleep``, delays instead of failing — the tool concurrency
stress tests use it to stretch race windows (e.g. holding an index rebuild
open while writers commit). The optional third field of the env form is the
delay in milliseconds: ``index.pre_rebuild=sleep:1:5`` sleeps 5 ms from the
1st hit onward.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from flock.errors import FaultInjected

#: Exit status used by ``action="crash"`` — 128+9, the shell's encoding of
#: SIGKILL, so parents cannot tell an injected crash from a real kill -9.
CRASH_EXIT_CODE = 137

#: Every point the engine currently calls :func:`reach` on, for discoverability
#: and for tests that want to iterate "crash at each point in turn".
KNOWN_POINTS = (
    "wal.pre_fsync",
    "wal.mid_record",
    "wal.post_fsync_pre_apply",
    "wal.pre_ack",
    "checkpoint.mid_write",
    "checkpoint.pre_swap",
    "checkpoint.post_swap",
    "index.pre_rebuild",
    "index.post_rebuild",
    "index.pre_advance",
)

_ENV_VAR = "FLOCK_FAULTPOINTS"


@dataclass
class _Fault:
    action: str  # "error" | "crash" | "sleep"
    after: int  # fire on the Nth hit (1 = first)
    hits: int = 0
    delay_ms: float = 1.0  # "sleep" only


_lock = threading.Lock()
_faults: dict[str, _Fault] = {}
_env_loaded = False


def _parse_env(spec: str) -> dict[str, _Fault]:
    faults: dict[str, _Fault] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, rhs = part.partition("=")
        action, _, rest = rhs.partition(":")
        after, _, delay = rest.partition(":")
        action = action or "error"
        if action not in ("error", "crash", "sleep"):
            raise ValueError(f"unknown fault action {action!r} in {part!r}")
        faults[name.strip()] = _Fault(
            action=action,
            after=int(after or 1),
            delay_ms=float(delay or 1.0),
        )
    return faults


def _ensure_env_loaded() -> None:
    global _env_loaded
    if _env_loaded:
        return
    _env_loaded = True
    spec = os.environ.get(_ENV_VAR, "")
    if spec:
        _faults.update(_parse_env(spec))


def set_fault(
    name: str,
    action: str = "error",
    after: int = 1,
    delay_ms: float = 1.0,
) -> None:
    """Arm *name* to fire (raise, crash or sleep) from its *after*-th hit."""
    if action not in ("error", "crash", "sleep"):
        raise ValueError(f"unknown fault action {action!r}")
    if after < 1:
        raise ValueError("after must be >= 1")
    with _lock:
        _ensure_env_loaded()
        _faults[name] = _Fault(action=action, after=after, delay_ms=delay_ms)


def clear(name: str | None = None) -> None:
    """Disarm one point, or every point (and forget the env spec) if None."""
    global _env_loaded
    with _lock:
        if name is None:
            _faults.clear()
            _env_loaded = True  # don't silently re-arm from the environment
        else:
            _faults.pop(name, None)


def armed(name: str) -> bool:
    """True iff *name* is armed and its next hit will fire."""
    with _lock:
        _ensure_env_loaded()
        fault = _faults.get(name)
        return fault is not None and fault.hits + 1 >= fault.after


def hit_count(name: str) -> int:
    with _lock:
        fault = _faults.get(name)
        return fault.hits if fault else 0


def reach(name: str) -> None:
    """Mark that execution reached *name*; fire if a test armed it.

    A no-op (one dict lookup) when the point is not armed, so production
    paths call this unconditionally.
    """
    with _lock:
        _ensure_env_loaded()
        fault = _faults.get(name)
        if fault is None:
            return
        fault.hits += 1
        if fault.hits < fault.after:
            return
        action = fault.action
        delay_ms = fault.delay_ms
    if action == "crash":
        # os._exit skips atexit handlers, finally blocks and buffered-file
        # flushes — the process dies as abruptly as under SIGKILL, which is
        # exactly what crash-recovery tests must simulate.
        os._exit(CRASH_EXIT_CODE)
    if action == "sleep":
        # Outside the lock: a delay must widen *caller* race windows, not
        # serialize every other faultpoint check behind it.
        import time

        time.sleep(delay_ms / 1000.0)
        return
    raise FaultInjected(name)
