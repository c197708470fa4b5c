"""flock.proc — the runtime that hosts every shard and follower replica.

One op table hosts each shard engine (and each follower replica), reached
through one of two transports with the same surface:

- :mod:`flock.proc.worker` — the op table (``_build`` + ``_dispatch``)
  and the worker-process entry point (``python -m flock.proc.worker``)
  hosting a durable shard engine, a shard-with-replicas
  :class:`~flock.cluster.FlockCluster`, or a snapshot-booted follower;
- :mod:`flock.proc.supervisor` — the two handles: ``InProcessHandle``
  calls the op table directly in this process; ``WorkerHandle`` spawns a
  worker and speaks framed RPC with deadlines, EOF/heartbeat death
  detection and kill-on-hang;
- :mod:`flock.proc.framing` — the worker wire format: length-prefixed,
  CRC-framed pickle over a Unix socketpair (CRC verified before any
  payload is deserialized; corruption raises typed
  :class:`~flock.errors.ProtocolError`);
- :mod:`flock.proc.facade` — the ``database`` / ``registry`` / ``server``
  attributes tests and tools reach through, on both transports.

The transport seam is a single flag: ``flock.connect(path, shards=N,
process=True)`` (or ``replicas=N``), defaulting from the ``proc`` setting
(the ``FLOCK_PROC`` environment variable: empty, 0 or 1, anything else a
BindError; see :mod:`flock.settings`) so the whole test suite can run
process-backed without edits. Worker processes escape this process's
GIL; the in-process transport is the only one on hosts without POSIX
sockets and keeps the unit suite fast. Routing, broadcast, bring-up and
merge code is shared.
"""

from __future__ import annotations

import os

from flock import settings
from flock.errors import (  # noqa: F401  (re-exported tier errors)
    ProcError,
    ProtocolError,
    WorkerCrashError,
    WorkerTimeoutError,
)

__all__ = [
    "ProcError",
    "ProtocolError",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "proc_available",
    "proc_enabled",
]


def proc_available() -> bool:
    """True when this platform can run the worker-process backend.

    The runtime needs Unix-domain socketpairs and ``pass_fds`` — i.e. any
    POSIX host. On anything else every handle is in-process.
    """
    import socket

    return os.name == "posix" and hasattr(socket, "AF_UNIX")


def proc_enabled(explicit: bool | None = None) -> bool:
    """Resolve the transport seam: explicit flag first, then the ``proc``
    setting (``FLOCK_PROC``, empty, 0 or 1; see :mod:`flock.settings`).

    ``explicit`` is the ``process=`` keyword a caller passed (None means
    "not specified"); the environment default lets CI run the entire
    existing suite process-backed (``FLOCK_PROC=1``) without touching a
    single test.
    """
    if not proc_available():
        return False
    if explicit is not None:
        return bool(explicit)
    return bool(settings.env("proc"))
