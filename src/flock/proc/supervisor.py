"""Parent side of the worker runtime: the two transports of one op table.

Every shard and follower is hosted by the op table in
:mod:`flock.proc.worker` (``_build`` + ``_dispatch``), reached through one
of two handles with the same surface — ``request``, ``call``, ``ping``,
``healthy``, ``pid``, ``close``:

- :class:`WorkerHandle` spawns a worker process and speaks framed RPC to
  it: the config on argv and the socket fd passed down, a boot handshake
  that re-raises worker-side bring-up errors in the parent, heartbeat
  pings, and kill-on-hang so an unresponsive worker fails fast instead of
  stalling the caller (and the CI job) forever. :class:`Channel` is its
  transport half — request/response over one framed socket, serialized by
  a lock, with a per-request deadline; any transport fault (corrupt
  frame, EOF, deadline) marks it unhealthy, so a desynced or silent
  stream is never reused.
- :class:`InProcessHandle` builds the same stack in this process and
  calls the dispatcher directly: no framing, no pickling, no lock.

Worker-side errors travel back pickled and are re-raised here with their
original class, so ``ConstraintError`` from a shard engine three processes
away still reads like ``ConstraintError`` to the router and the oracles.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
from typing import Any

from flock import settings
from flock.errors import (
    ProcError,
    ProtocolError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from flock.proc.framing import recv_message, send_message
from flock.proc.worker import _build, _close, _dispatch

def request_timeout() -> float:
    """The per-request deadline in seconds: the ``proc_timeout`` setting
    (``FLOCK_PROC_TIMEOUT``, default 120; see :mod:`flock.settings`). A
    checkpoint or a scatter block fits comfortably, a hung worker does
    not; CI lanes shrink it so hangs fail fast."""
    return settings.env("proc_timeout")


class Channel:
    """Framed request/response over one socket, one in flight at a time.

    Exists separately from :class:`WorkerHandle` so the protocol-corruption
    battery can drive the exact runtime path against a scripted peer: every
    fault the wire can show — typed error replies, corrupt frames, EOF,
    silence — is classified here.
    """

    def __init__(self, sock: socket.socket, *, timeout: float | None = None,
                 label: str = "worker"):
        self.sock = sock
        self.label = label
        self.timeout = request_timeout() if timeout is None else timeout
        self.healthy = True
        self._lock = threading.RLock()
        self.sock.settimeout(self.timeout)

    def request(self, op: str, *, _timeout: float | None = None,
                **payload: Any) -> Any:
        payload["op"] = op
        with self._lock:
            if not self.healthy:
                raise WorkerCrashError(
                    f"{self.label}: channel is down (previous failure); "
                    f"reopen the cluster to recover"
                )
            if _timeout is not None:
                self.sock.settimeout(_timeout)
            try:
                send_message(self.sock, payload)
                reply = recv_message(self.sock)
            except ProcError:
                self._mark_down()
                raise
            finally:
                if _timeout is not None:
                    try:
                        self.sock.settimeout(self.timeout)
                    except OSError:
                        pass
        if (
            not isinstance(reply, tuple)
            or len(reply) != 2
            or reply[0] not in ("ok", "err")
        ):
            self._mark_down()
            raise ProtocolError(
                f"{self.label}: malformed reply {type(reply).__name__}; "
                f"stream is untrusted"
            )
        status, value = reply
        if status == "err":
            raise value
        return value

    def _mark_down(self) -> None:
        self.healthy = False

    def close(self) -> None:
        self.healthy = False
        try:
            self.sock.close()
        except OSError:
            pass


def _child_env() -> dict:
    """The worker's environment: inherit everything (``FLOCK_FAULTPOINTS``
    rides along, which is how crash tests arm points inside workers), make
    sure the flock package is importable, and pin ``FLOCK_PROC=0`` so a
    worker hosting a replica tier never recursively forks its own fleet.
    """
    env = dict(os.environ)
    import flock

    package_root = str(os.path.dirname(os.path.dirname(
        os.path.abspath(flock.__file__)
    )))
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    env["FLOCK_PROC"] = "0"
    return env


class _Handle:
    """What both transports share: the label and the generic ``call``.

    Subclasses name their ``backend`` (``"process"`` or ``"thread"``), which
    follower ``status()`` and shard ``stats()`` report.
    """

    def __init__(self, config: dict):
        self.config = config
        self.label = (
            f"flock-proc[{config.get('role', '?')}:"
            f"{config.get('name') or config.get('path', '?')}]"
        )

    def call(self, target: str, path: str, args: list | None = None,
             kwargs: dict | None = None, *, invoke: bool = True,
             attr: str | None = None) -> Any:
        """Invoke ``<target>.<path>(*args, **kwargs)`` inside the worker.

        The generic escape hatch behind the remote facades: *target* is
        one of the worker's hosted objects (``db``, ``registry``,
        ``server``, ``cluster``), *path* a dotted attribute chain,
        ``invoke=False`` reads the attribute instead of calling it, and
        ``attr`` plucks one attribute off the result (so e.g. a remote
        ``catalog.table(name).row_count`` ships one int, not one table).
        """
        return self.request(
            "call", target=target, path=path, args=args or [],
            kwargs=kwargs or {}, invoke=invoke, attr=attr,
        )


class WorkerHandle(_Handle):
    """One spawned worker process plus its RPC channel.

    The boot handshake is part of the contract: the worker runs its whole
    bring-up (recovery replay, snapshot load) before sending one
    ``("ok", {"pid": ...})`` frame — or an ``("err", exc)`` frame whose
    exception re-raises here, so a corrupt shard directory fails the
    *open*, exactly like an :class:`InProcessHandle` whose build raised.
    """

    backend = "process"

    def __init__(self, config: dict, *, timeout: float | None = None,
                 boot_timeout: float | None = None):
        super().__init__(config)
        # Checked before the spawn, so a bad FLOCK_PROC_TIMEOUT leaves no
        # orphaned worker behind.
        timeout = request_timeout() if timeout is None else timeout
        parent_sock, child_sock = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_STREAM
        )
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "flock.proc.worker",
                    "--fd",
                    str(child_sock.fileno()),
                    "--config",
                    json.dumps(config),
                ],
                pass_fds=(child_sock.fileno(),),
                env=_child_env(),
                stdin=subprocess.DEVNULL,
            )
        finally:
            child_sock.close()
        self.channel = Channel(parent_sock, timeout=timeout,
                               label=self.label)
        self._closed = False
        try:
            hello = self.channel.request(
                "hello",
                _timeout=boot_timeout or max(self.channel.timeout, 120.0),
            )
        except BaseException:
            self.kill()
            raise
        self.pid = hello["pid"]

    # -- liveness ------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    @property
    def healthy(self) -> bool:
        return self.channel.healthy and not self._closed and self.alive

    def ping(self, timeout: float = 5.0) -> bool:
        """Heartbeat: True iff the worker answered within *timeout*."""
        try:
            return self.request("ping", _timeout=timeout) == "pong"
        except ProcError:
            return False

    # -- RPC -----------------------------------------------------------
    def request(self, op: str, *, _timeout: float | None = None,
                **payload: Any) -> Any:
        if self._closed:
            raise WorkerCrashError(f"{self.label}: worker is closed")
        try:
            return self.channel.request(op, _timeout=_timeout, **payload)
        except WorkerTimeoutError:
            # The hung-worker guard: a worker past its deadline is killed,
            # not retried — its WAL already holds everything it
            # acknowledged, and a reopen recovers it.
            self.kill()
            raise
        except (WorkerCrashError, ProtocolError) as exc:
            code = self.proc.poll()
            self.kill()
            if code is not None and not isinstance(exc, ProtocolError):
                raise WorkerCrashError(
                    f"{self.label}: worker pid {self.proc.pid} exited "
                    f"with status {code} under op {op!r}"
                ) from exc
            raise

    # -- lifecycle -----------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Graceful stop: the worker closes its engine (WAL flushed,
        final checkpoint) and exits; falls back to SIGKILL. Never raises —
        close paths must tolerate already-dead workers.
        """
        if self._closed:
            return
        try:
            if self.channel.healthy and self.alive:
                try:
                    self.channel.request("close", _timeout=timeout)
                except ProcError:
                    pass
        finally:
            self._closed = True
            self.channel.close()
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.kill()

    def kill(self) -> None:
        """Immediate SIGKILL + reap; the channel is poisoned."""
        self.channel.healthy = False
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGKILL)
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else f"exit={self.proc.poll()}"
        return f"<WorkerHandle {self.label} pid={self.proc.pid} {state}>"


class InProcessHandle(_Handle):
    """The worker's op table hosted in this process.

    ``request`` calls :func:`flock.proc.worker._dispatch` on a stack that
    :func:`~flock.proc.worker._build` built here: no framing, no pickling
    and no per-handle lock, so concurrent scatter calls on one shard stay
    concurrent. Results and exceptions are the live objects. This is the
    only transport where :func:`flock.proc.proc_available` is false, and
    the default everywhere else.
    """

    backend = "thread"

    def __init__(self, config: dict):
        super().__init__(config)
        self._state = _build(config)
        self.pid = os.getpid()
        self._closed = False

    @property
    def healthy(self) -> bool:
        return not self._closed

    def ping(self, timeout: float = 5.0) -> bool:
        return self.healthy

    def request(self, op: str, *, _timeout: float | None = None,
                **payload: Any) -> Any:
        if self._closed:
            raise WorkerCrashError(f"{self.label}: handle is closed")
        return _dispatch(self._state, op, payload)

    def close(self, timeout: float = 10.0) -> None:
        if self._closed:
            return
        self._closed = True
        _close(self._state)


def open_handle(config: dict, process: bool) -> _Handle:
    """One shard or follower: in a worker process, or in this one."""
    return WorkerHandle(config) if process else InProcessHandle(config)
