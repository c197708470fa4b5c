"""The unified client API: one ``flock.connect()`` for every topology.

The package grew three entry points as it grew layers — ``create_database``
(embedded, in-memory), ``open_session`` (embedded, durable) and the serving
and cluster constructors. ``connect`` folds them into one call returning a
uniform :class:`Client`:

    import flock

    flock.connect()                           # embedded, in-memory
    flock.connect("churn.db")                 # embedded, durable (WAL)
    flock.connect("churn.db", serving=True)   # one serving node
    flock.connect("churn.db", replicas=4)     # replicated read-scaling tier

Every mode gives the same surface: ``execute()`` returning a
:class:`~flock.db.result.QueryResult`, ``submit()`` returning a future,
context-manager shutdown, and ``.db`` / ``.registry`` / ``.session`` for
the layers underneath.

``create_database`` and ``open_session`` remain as thin compatibility shims
over the session builders here; new code should call ``connect``.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

from flock.db.result import QueryResult
from flock.errors import FlockError, ReplicationError


# ----------------------------------------------------------------------
# Session builders (the former create_database / open_session bodies)
# ----------------------------------------------------------------------
def _stack(cross_optimizer):
    from flock.db.optimizer.rules import Optimizer
    from flock.inference.optimizer import CrossOptimizer
    from flock.inference.predict import DefaultScorer
    from flock.registry import ModelRegistry

    if cross_optimizer is None:
        cross_optimizer = CrossOptimizer()
    registry = ModelRegistry()
    optimizer = Optimizer(extra_rules=cross_optimizer.rules())
    return cross_optimizer, registry, DefaultScorer(), optimizer


def memory_session(cross_optimizer=None):
    """An in-memory :class:`flock.FlockSession` (registry + scorer wired)."""
    import flock
    from flock.db import Database

    cross_optimizer, registry, scorer, optimizer = _stack(cross_optimizer)
    database = Database(
        model_store=registry,
        scorer=scorer,
        optimizer=optimizer,
    )
    database.cross_optimizer = cross_optimizer
    registry.bind_database(database)
    return flock.FlockSession(database, registry, cross_optimizer)


def durable_session(
    path,
    cross_optimizer=None,
    *,
    sync_mode: str = "commit",
    group_window_ms: float = 1.0,
    checkpoint_bytes: int | None = None,
):
    """A durable :class:`flock.FlockSession` over *path* (WAL + recovery)."""
    import flock
    from flock.db import Database

    cross_optimizer, registry, scorer, optimizer = _stack(cross_optimizer)
    database = Database.open(
        path,
        model_store=registry,
        scorer=scorer,
        optimizer=optimizer,
        sync_mode=sync_mode,
        group_window_ms=group_window_ms,
        checkpoint_bytes=checkpoint_bytes,
    )
    database.cross_optimizer = cross_optimizer
    return flock.FlockSession(database, registry, cross_optimizer)


# ----------------------------------------------------------------------
# The uniform client
# ----------------------------------------------------------------------
class _ImmediateFuture:
    """Embedded mode's ``submit``: already-resolved, same future surface."""

    def __init__(self, result=None, error: BaseException | None = None):
        self._result = result
        self._error = error

    def done(self) -> bool:
        return True

    def result(self, timeout: float | None = None):
        if self._error is not None:
            raise self._error
        return self._result


class Client:
    """One execution surface over embedded, serving and cluster topologies.

    Built by :func:`connect`; ``mode`` is ``"embedded"``, ``"serving"`` or
    ``"cluster"``. Whatever the topology, ``execute`` takes ``(sql,
    params)`` and returns a :class:`~flock.db.result.QueryResult`, and
    closing the client (or leaving its ``with`` block) shuts the whole
    stack down — servers drained, WAL flushed.
    """

    def __init__(self, mode, session, server=None, cluster=None,
                 user: str = "admin"):
        self.mode = mode
        self.session = session
        self.server = server
        self.cluster = cluster
        self.user = user
        self._lock = threading.Lock()
        self._closed = False

    # -- the layers underneath -----------------------------------------
    @property
    def db(self):
        """The engine (for cluster mode: the *primary*'s engine)."""
        return self.session.db

    @property
    def database(self):
        return self.session.db

    @property
    def registry(self):
        return self.session.registry

    @property
    def cross_optimizer(self):
        return self.session.cross_optimizer

    # -- execution ------------------------------------------------------
    def execute(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Execute one statement (routed per topology), return its result."""
        self._check_open()
        if self.cluster is not None:
            return self.cluster.execute(sql, params, user=self.user,
                                        timeout=timeout)
        if self.server is not None:
            return self.server.execute(sql, params, user=self.user,
                                       timeout=timeout)
        return self.db.execute(sql, params, user=self.user)

    def submit(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        timeout: float | None = None,
    ):
        """Asynchronous ``execute``; embedded mode resolves immediately."""
        self._check_open()
        if self.cluster is not None:
            return self.cluster.submit(sql, params, user=self.user,
                                       timeout=timeout)
        if self.server is not None:
            return self.server.submit(sql, params, user=self.user,
                                      timeout=timeout)
        try:
            return _ImmediateFuture(result=self.db.execute(
                sql, params, user=self.user
            ))
        except FlockError as exc:
            return _ImmediateFuture(error=exc)

    def executemany(
        self, sql: str, seq_of_params, timeout: float | None = None
    ) -> QueryResult:
        """Bulk-bind path, routed like ``execute``.

        Cluster topologies get their own implementation — the sharded
        router scatters the whole batch in one pass, and the replication
        tier binds on the primary so the batch still ships to followers —
        otherwise this is the engine's single-parse fast path.
        """
        self._check_open()
        if self.cluster is not None:
            return self.cluster.executemany(sql, seq_of_params,
                                            user=self.user)
        return self.db.executemany(sql, seq_of_params, user=self.user)

    def for_user(self, user: str) -> "Client":
        """The same stack, executing as *user* (shares lifecycle)."""
        return Client(self.mode, self.session, self.server, self.cluster,
                      user=user)

    # -- observability --------------------------------------------------
    def stats(self) -> dict:
        self._check_open()
        if self.cluster is not None:
            return self.cluster.stats()
        if self.server is not None:
            return self.server.stats()
        return {
            "statements": len(self.db.query_log),
            "committed": self.db.transactions.committed_count,
        }

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self.cluster is not None:
            self.cluster.close()
            return
        if self.server is not None:
            self.server.shutdown(drain=True)
        self.db.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise FlockError("client is closed")

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        where = "memory" if self.db.wal is None else self.db.wal.directory
        return f"<flock.Client mode={self.mode} path={where}>"


def connect(
    path=None,
    *,
    shards: int = 0,
    replicas: int = 0,
    serving: bool = False,
    cross_optimizer=None,
    sync_mode: str = "commit",
    group_window_ms: float = 1.0,
    checkpoint_bytes: int | None = None,
    max_staleness: int | None = None,
    workers: int = 4,
    replica_workers: int = 1,
    max_batch_size: int = 32,
    batch_wait_ms: float = 1.0,
    max_pending: int = 256,
    default_timeout_s: float = 30.0,
    process: bool | None = None,
    user: str = "admin",
) -> Client:
    """Open a Flock stack and return a uniform :class:`Client`.

    - ``connect()`` — embedded in-memory engine (the old
      ``create_database``);
    - ``connect(path)`` — embedded durable engine with WAL + crash
      recovery (the old ``open_session``);
    - ``connect(path, serving=True)`` — one serving node: plan cache,
      micro-batching, admission control in front of the engine;
    - ``connect(path, replicas=N)`` — the replicated tier: a durable
      primary shipping WAL records to N follower replicas, reads fanned
      across them within ``max_staleness`` replicated records;
    - ``connect(path, shards=N)`` — the sharded tier: keyed tables
      hash-partitioned across N durable engines, point statements routed
      to one shard, everything else scatter-gathered bit-identically to a
      single engine. Composes with ``replicas=M`` — every shard then
      carries its own replicated read tier.

    ``replicas >= 1`` and ``shards >= 1`` require a *path*: WAL shipping
    and shard partitions both need durable directories.

    ``process`` selects the transport for the sharded and replicated
    tiers: ``True`` hosts each shard engine (or follower replica) in its
    own worker process over a CRC-framed wire (see :mod:`flock.proc`),
    ``False`` hosts it in this process, and ``None`` (the default)
    follows the ``FLOCK_PROC`` environment variable. Routing, broadcast
    and merge semantics are identical on both transports.

    Engine settings (columnar encodings, index access paths, the
    operator memory budget) come from the ``FLOCK_*`` environment
    variables, which every engine of the stack reads when it opens —
    worker processes inherit them — and from ``SET flock.*`` at runtime;
    see :mod:`flock.settings`. A sharded client's ``SET`` reaches the
    coordinator and every shard; a replicated client's reaches the
    primary only, and followers keep their environment's values.
    """
    if shards:
        if path is None:
            from flock.errors import ShardError

            raise ShardError(
                "connect(shards=N) needs a database directory: every "
                "shard keeps its own write-ahead log"
            )
        from flock.shard import ShardedCluster

        sharded = ShardedCluster(
            path,
            shards=shards,
            replicas=replicas,
            cross_optimizer=cross_optimizer,
            sync_mode=sync_mode,
            group_window_ms=group_window_ms,
            checkpoint_bytes=checkpoint_bytes,
            max_staleness=max_staleness,
            process=process,
        )
        return Client("sharded", sharded.session, cluster=sharded, user=user)

    if replicas:
        if path is None:
            raise ReplicationError(
                "connect(replicas=N) needs a database directory: the "
                "replicated tier ships the primary's write-ahead log"
            )
        from flock.cluster import FlockCluster

        cluster = FlockCluster(
            path,
            replicas=replicas,
            cross_optimizer=cross_optimizer,
            sync_mode=sync_mode,
            group_window_ms=group_window_ms,
            checkpoint_bytes=checkpoint_bytes,
            max_staleness=max_staleness,
            workers=workers,
            replica_workers=replica_workers,
            max_batch_size=max_batch_size,
            batch_wait_ms=batch_wait_ms,
            max_pending=max_pending,
            default_timeout_s=default_timeout_s,
            process=process,
        )
        return Client("cluster", cluster.session, cluster=cluster, user=user)

    if path is None:
        session = memory_session(cross_optimizer)
    else:
        session = durable_session(
            path,
            cross_optimizer,
            sync_mode=sync_mode,
            group_window_ms=group_window_ms,
            checkpoint_bytes=checkpoint_bytes,
        )
    if not serving:
        return Client("embedded", session, user=user)

    from flock.serving import FlockServer

    server = FlockServer(
        session,
        workers=workers,
        max_batch_size=max_batch_size,
        batch_wait_ms=batch_wait_ms,
        max_pending=max_pending,
        default_timeout_s=default_timeout_s,
    )
    return Client("serving", session, server=server, user=user)
