"""The facades a shard or follower exposes, on both transports.

The routers — and a decade of tests — reach *through* a shard or follower
into ``.database`` / ``.registry`` / ``.server`` attributes: scatter
inserts call ``shard.database.executemany``, recovery checks walk
``shard.database.catalog`` and verify the audit hash chain, checkpoint
drills call ``shard.database.checkpoint``. Every one of those paths
is a facade over the shard's or follower's handle
(:mod:`flock.proc.supervisor`): each call is one op of the worker op
table, dispatched directly in this process or as one framed RPC to a
worker process, and worker-side exceptions re-raise here with their
original class.

Most methods ride the generic ``call`` op (dotted attribute path resolved
by the op table); the hot paths — execute, executemany, head snapshots —
have dedicated ops so the op table can scrub and lock correctly around
them.
"""

from __future__ import annotations

from typing import Any, Sequence


def rebuild_version(payload: tuple):
    """A router-side :class:`~flock.db.storage.TableVersion` from a shard.

    The op table ships ``(version_id, schema, columns, operation)`` —
    never the live version object, whose lazily-built caches (zone maps,
    delta chains) are process-local state. Rebuilding through the constructor
    gives the merge path a fresh version on either transport.
    """
    from flock.db.storage import TableVersion

    version_id, schema, columns, operation = payload
    return TableVersion(version_id, schema, columns, operation)


class RemoteTable:
    """``database.catalog.table(name)`` for a hosted engine."""

    def __init__(self, handle, name: str):
        self._handle = handle
        self.name = name

    @property
    def row_count(self) -> int:
        return self._handle.call(
            "db", "catalog.table", [self.name], attr="row_count"
        )

    @property
    def head_version(self):
        shipped = self._handle.request("head_versions", names=[self.name])
        _stamp, payload = shipped[self.name.lower()]
        return rebuild_version(payload)


class RemoteCatalog:
    """The catalog read surface, one RPC per lookup."""

    def __init__(self, handle):
        self._handle = handle

    def table(self, name: str) -> RemoteTable:
        return RemoteTable(self._handle, name)

    def table_names(self) -> list[str]:
        return self._handle.call("db", "catalog.table_names")

    def view_names(self) -> list[str]:
        return self._handle.call("db", "catalog.view_names")

    def has_table(self, name: str) -> bool:
        return self._handle.call("db", "catalog.has_table", [name])

    def has_view(self, name: str) -> bool:
        return self._handle.call("db", "catalog.has_view", [name])

    def schema(self, name: str):
        return self._handle.call("db", "catalog.schema", [name])

    def index_defs(self) -> list:
        return self._handle.call("db", "catalog.index_defs")

    def view(self, name: str):
        return self._handle.call("db", "catalog.view", [name])


class RemoteAuditLog:
    def __init__(self, handle):
        self._handle = handle

    def verify_chain(self) -> bool:
        return self._handle.call("db", "audit.log.verify_chain")

    @property
    def last_sequence(self) -> int:
        return self._handle.call(
            "db", "audit.log.last_sequence", invoke=False
        )


class RemoteAudit:
    def __init__(self, handle):
        self.log = RemoteAuditLog(handle)


class RemoteDatabaseFacade:
    """The ``.database`` attribute of a shard or follower.

    Execution goes through the hosted engine — statement locks, WAL,
    audit chain and all — so a facade ``execute`` is the engine's
    ``execute`` plus one dispatch (and, on a worker, one process hop).
    """

    def __init__(self, handle):
        self._handle = handle
        self.catalog = RemoteCatalog(handle)
        self.audit = RemoteAudit(handle)

    def execute(self, sql: str, params: Sequence[Any] | None = None,
                user: str = "admin", **_ignored: Any):
        return self._handle.request(
            "db_execute", sql=sql,
            params=None if params is None else list(params), user=user,
        )

    def executemany(self, sql: str, seq_of_params, user: str = "admin"):
        return self._handle.request(
            "db_executemany", sql=sql,
            rows=[list(p) for p in seq_of_params], user=user,
        )

    @property
    def settings(self):
        """The hosted engine's :class:`flock.settings.Settings` (a copy
        over the process transport)."""
        return self._handle.call("db", "settings", invoke=False)

    def checkpoint(self) -> None:
        self._handle.call("db", "checkpoint")


class RemoteRegistryFacade:
    """The ``.registry`` attribute of a shard or follower.

    Model graphs pickle by reference to the flock library modules, so
    deploys cross the boundary the same way replicated deploy records
    already do.
    """

    def __init__(self, handle):
        self._handle = handle

    def deploy_many(self, models, **kwargs):
        return self._handle.request(
            "deploy_many", models=list(models), kwargs=kwargs
        )

    def deploy(self, name, graph, **kwargs):
        return self.deploy_many([(name, graph)], **kwargs)[0]

    def __getattr__(self, item):
        handle = self.__dict__["_handle"]

        def _invoke(*args, **kwargs):
            return handle.call("registry", item, list(args), kwargs)

        _invoke.__name__ = item
        return _invoke


class RemoteServerFacade:
    """The ``.server`` attribute of a follower replica.

    Read routing lands here: the cluster router picks a follower and calls
    ``server.submit``. The request runs on the follower's read-only
    :class:`~flock.serving.FlockServer` (admission control, read-only
    enforcement), and since the reply is already complete when the op
    returns, ``submit`` hands back an immediately-resolved future.
    """

    def __init__(self, handle):
        self._handle = handle

    def execute(self, sql: str, params: Sequence[Any] | None = None,
                user: str = "admin", timeout: float | None = None):
        return self._handle.request(
            "server_execute", sql=sql,
            params=None if params is None else list(params),
            user=user, timeout=timeout,
        )

    def submit(self, sql: str, params: Sequence[Any] | None = None,
               user: str = "admin", timeout: float | None = None):
        from flock.client import _ImmediateFuture
        from flock.errors import FlockError

        try:
            return _ImmediateFuture(
                result=self.execute(sql, params, user, timeout)
            )
        except FlockError as exc:
            return _ImmediateFuture(error=exc)

    def stats(self) -> dict:
        return self._handle.call("server", "stats")

    @property
    def _served(self) -> int:
        return self._handle.call("server", "_served", invoke=False)


class RemoteClusterFacade:
    """The ``.cluster`` attribute of a shard whose handle hosts a full
    :class:`~flock.cluster.FlockCluster` (shards composed with replicas).

    Routed statements use the shard's own ``execute`` op; what the shard
    router needs from the hosted cluster itself is follower catch-up.
    """

    def __init__(self, handle):
        self._handle = handle

    def wait_for_catchup(self, timeout: float | None = 10.0) -> bool:
        return self._handle.request(
            "wait_for_catchup", timeout=timeout,
            _timeout=None if timeout is None else timeout + 30.0,
        )
