"""Follower replicas: a forwarder loop over the handle that hosts one.

A :class:`FollowerReplica` is the parent-side half of one follower. Its
engine, registry and read-only :class:`~flock.serving.FlockServer` are
built by the ``replica`` role of :mod:`flock.proc.worker` from a frozen
snapshot of the primary, behind a handle — in this process or in a worker
process (see :mod:`flock.proc.supervisor`). ``database``/``registry``/
``server`` are the facades of :mod:`flock.proc.facade` on both transports.

The forwarder thread drains a :class:`~flock.cluster.hub.Subscription`
in commit order and ships each record as one ``apply`` op; the worker
applies it under the follower's statement write lock with the audit and
query-log entries stripped (see ``_apply_replicated``). This side keeps
the catch-up contract — ``applied_lsn``/``wait_for``, the ``pause``/
``resume`` lag injectors, ``healthy``/``lag`` routing inputs and
``status()`` — and an idle heartbeat: a follower with no records to
forward still pings its handle every few seconds, so a SIGKILLed worker
is routed around even on an idle tier.

Any apply or transport failure sets ``error`` (the attribute tests poke to
simulate a dead follower): the follower stops applying — serving a
diverged snapshot would be worse than serving a stale one — the router
skips it and ``promote()`` ignores it.
"""

from __future__ import annotations

import threading
import time

from flock.cluster.hub import ReplicationHub, Subscription
from flock.errors import WorkerCrashError
from flock.observability import metrics
from flock.proc.facade import (
    RemoteDatabaseFacade,
    RemoteRegistryFacade,
    RemoteServerFacade,
)

#: Idle polls (at the 0.1 s subscription timeout) between heartbeats.
_HEARTBEAT_POLLS = 50


class FollowerReplica:
    """One follower: a hosted snapshot engine + server, fed by a forwarder."""

    def __init__(self, name: str, handle, subscription: Subscription,
                 hub: ReplicationHub):
        self.name = name
        self.handle = handle
        self.pid = handle.pid
        self.database = RemoteDatabaseFacade(handle)
        self.registry = RemoteRegistryFacade(handle)
        self.server = RemoteServerFacade(handle)
        self.subscription = subscription
        self.hub = hub
        #: Replication LSN of the last record applied here.
        self.applied_lsn = 0
        #: Set when applying or the transport failed; see module docstring.
        self.error: BaseException | None = None
        self._cond = threading.Condition()
        # Cleared by pause() to inject replication lag (tests, staleness
        # experiments); the loop blocks before applying the next record.
        self._resume = threading.Event()
        self._resume.set()
        self._stop = False
        self._thread = threading.Thread(
            target=self._forward_loop,
            name=f"flock-replica-{name}",
            daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        return self.error is None and not self._stop

    @property
    def lag(self) -> int:
        """Records published but not yet applied here (staleness bound)."""
        return max(0, self.hub.lsn - self.applied_lsn)

    def wait_for(self, lsn: int, timeout: float | None = None) -> bool:
        """Block until this replica applied *lsn* (True) or timed out."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self.applied_lsn < lsn:
                if self.error is not None or self._stop:
                    return False
                if deadline is None:
                    self._cond.wait(0.5)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    # ------------------------------------------------------------------
    # Lag injection
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Suspend applying (records queue up; the replica goes stale)."""
        self._resume.clear()

    def resume(self) -> None:
        self._resume.set()

    # ------------------------------------------------------------------
    # The forwarder
    # ------------------------------------------------------------------
    def _forward_loop(self) -> None:
        registry = metrics()
        idle = 0
        while not self._stop:
            item = self.subscription.next(timeout=0.1)
            if item is None:
                if self.subscription.closed and self.subscription.pending == 0:
                    return
                idle += 1
                if idle >= _HEARTBEAT_POLLS:
                    idle = 0
                    if not self._heartbeat():
                        return
                continue
            idle = 0
            lsn, record = item
            while not self._resume.wait(timeout=0.1):
                if self._stop:
                    return
            try:
                self.handle.request("apply", record=record)
            except BaseException as exc:
                self._fail(exc)
                registry.counter("replication.apply_errors").inc()
                return
            with self._cond:
                self.applied_lsn = lsn
                self._cond.notify_all()
            registry.counter("replication.records_applied").inc()
            registry.gauge(f"replication.lag.{self.name}").set(self.lag)

    def _heartbeat(self) -> bool:
        """True if the handle still answers; on failure set ``error``."""
        if self.handle.healthy and self.handle.ping():
            return True
        self._fail(WorkerCrashError(
            f"follower {self.name}: worker pid {self.pid} stopped "
            f"answering heartbeats"
        ))
        metrics().counter("replication.worker_deaths").inc()
        return False

    def _fail(self, exc: BaseException) -> None:
        self.error = exc
        with self._cond:
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def stop(self, drain: bool = True, timeout: float | None = 5.0) -> None:
        """Stop forwarding, then close the handle (server drained, engine
        closed)."""
        try:
            if drain and self.error is None:
                self.subscription.close()
                self._resume.set()
                self._thread.join(timeout)
            self._stop = True
            self._resume.set()
            self.subscription.close()
            if self._thread.is_alive():
                self._thread.join(timeout)
            with self._cond:
                self._cond.notify_all()
        finally:
            self.handle.close()

    def status(self) -> dict:
        return {
            "name": self.name,
            "backend": self.handle.backend,
            "pid": self.pid,
            "applied_lsn": self.applied_lsn,
            "lag": self.lag,
            "healthy": self.healthy,
            "pending": self.subscription.pending,
            "error": None if self.error is None else repr(self.error),
        }
