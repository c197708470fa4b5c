"""The cluster: primary + N followers + a router + failover.

:class:`FlockCluster` is the read-scaling serving tier the paper's
"millions of users" story needs: one durable primary takes every write and
DDL, streams each committed WAL record to N follower replicas (see
:mod:`flock.cluster.hub`; each follower is hosted in this process or in a
worker process, see :mod:`flock.cluster.replica`), and a router fans
read-only statements — point PREDICTs and SELECTs — across the followers
round-robin, bounded by per-replica staleness measured in replication
LSNs.

Bootstrap freezes the primary (statement write lock + commit lock), takes
one :func:`~flock.db.persist.save_database` snapshot, and subscribes every
follower *inside the freeze* — so the snapshot plus the stream is gap-free
by construction. Failover (:meth:`FlockCluster.promote`) selects the
most-caught-up follower, then re-opens the durable directory through the
same ``Database.open`` recovery machinery a crash restart would use: the
promoted state is the recovered committed prefix, never a follower's
unverified memory.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
import threading
from pathlib import Path
from typing import Any, Sequence

from flock.cluster.hub import ReplicationHub
from flock.cluster.replica import FollowerReplica
from flock.db.engine import is_read_only
from flock.db.persist import save_database
from flock.errors import FailoverError, FlockError, ReplicationError
from flock.observability import metrics
from flock.serving.server import FlockServer, ServingFuture


class PromotionReport(dict):
    """What :meth:`FlockCluster.promote` did (dict for easy rendering)."""


class FlockCluster:
    """A replicated serving tier over one durable database directory.

    The cluster owns everything: the primary session (opened through the
    normal recovery machinery), its serving front-end, the replication hub
    and the followers. ``execute``/``submit`` route statements; writes and
    DDL go to the primary, read-only statements round-robin across healthy
    followers within ``max_staleness`` replicated records (None = any
    follower, 0 = only fully caught-up ones), falling back to the primary
    when no follower qualifies.
    """

    def __init__(
        self,
        path,
        *,
        replicas: int = 2,
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
    ):
        if path is None:
            raise ReplicationError(
                "a cluster needs a durable primary: WAL shipping starts "
                "from a database directory, not from memory"
            )
        if replicas < 1:
            raise ReplicationError("a cluster needs at least one replica")
        self.path = Path(path)
        self.replicas = replicas
        self.max_staleness = max_staleness
        self._cross_optimizer = cross_optimizer
        self._open_kwargs = dict(
            sync_mode=sync_mode,
            group_window_ms=group_window_ms,
            checkpoint_bytes=checkpoint_bytes,
        )
        self._server_kwargs = dict(
            max_batch_size=max_batch_size,
            batch_wait_ms=batch_wait_ms,
            max_pending=max_pending,
            default_timeout_s=default_timeout_s,
        )
        self._workers = workers
        self._replica_workers = replica_workers
        from flock.proc import proc_enabled

        # The transport seam. A custom cross-optimizer is a live object the
        # JSON worker config cannot carry; such clusters host followers in
        # process (followers must plan with the same rules as the primary).
        self._process = proc_enabled(process) and cross_optimizer is None
        #: Bumped on every promotion; stale clients can detect a failover.
        self.epoch = 1
        self._rr = itertools.count()
        self._lock = threading.Lock()
        self._closed = False
        self.followers: list[FollowerReplica] = []
        self._open_primary()
        self._bootstrap_followers()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _open_primary(self) -> None:
        from flock.client import durable_session

        self.session = durable_session(
            self.path,
            self._cross_optimizer,
            **self._open_kwargs,
        )
        self.database = self.session.db
        self.registry = self.session.registry
        self.primary = FlockServer(
            self.session, workers=self._workers, **self._server_kwargs
        )

    def _bootstrap_followers(self) -> None:
        """Snapshot-and-subscribe under one freeze; build followers after.

        The freeze (statement write lock + commit lock, the same pair a
        checkpoint takes) guarantees no commit lands between the snapshot
        and the subscriptions — the follower's first streamed record is
        exactly the first commit after its snapshot.
        """
        database = self.database
        self.hub = ReplicationHub()
        snapshot_dir = Path(tempfile.mkdtemp(prefix="flock-replica-seed-"))
        try:
            subscriptions = []
            with database.statement_lock.write_locked():
                with database.transactions._commit_lock:
                    save_database(database, snapshot_dir)
                    for index in range(self.replicas):
                        subscriptions.append(
                            self.hub.subscribe(f"replica-{index}")
                        )
                    database.transactions.replication = self.hub
            self.followers = [
                self._build_follower(snapshot_dir, subscription)
                for subscription in subscriptions
            ]
        finally:
            shutil.rmtree(snapshot_dir, ignore_errors=True)
        metrics().gauge("replication.followers").set(len(self.followers))

    def _build_follower(self, snapshot_dir, subscription) -> FollowerReplica:
        # The handle loads the snapshot while it is built — before
        # _bootstrap_followers deletes the snapshot directory — and then
        # applies the records the follower forwards.
        from flock.proc.supervisor import open_handle

        config = {
            "role": "replica",
            "name": subscription.name,
            "path": str(snapshot_dir),
            "replica_workers": self._replica_workers,
            "server_kwargs": dict(self._server_kwargs),
        }
        if self._cross_optimizer is not None:
            config["cross_optimizer"] = self._cross_optimizer
        return FollowerReplica(
            subscription.name,
            open_handle(config, self._process),
            subscription,
            self.hub,
        )

    @property
    def backend(self) -> str:
        return "process" if self._process else "thread"

    # ------------------------------------------------------------------
    # The router
    # ------------------------------------------------------------------
    def submit(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        user: str = "admin",
        timeout: float | None = None,
    ) -> ServingFuture:
        """Route one statement: reads to a follower, writes to the primary."""
        return self._route(sql).submit(sql, params, user, timeout)

    def execute(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        user: str = "admin",
        timeout: float | None = None,
    ):
        return self.submit(sql, params, user, timeout).result()

    def executemany(self, sql: str, seq_of_params, user: str = "admin"):
        """Bulk-bind writes on the primary engine.

        Goes straight to the primary's single-parse fast path — never a
        follower, since ``executemany`` statements stage writes. The
        resulting commits publish through the replication hub like any
        other, so the batch still ships to every follower.
        """
        return self.database.executemany(sql, seq_of_params, user=user)

    def _route(self, sql: str) -> FlockServer:
        """The server this statement should run on.

        Classification reuses the primary engine's plan cache (parse once
        for the router *and* the primary's own execution); unparseable
        statements go to the primary, whose execution raises the parse
        error in context.
        """
        registry = metrics()
        try:
            statement = self.database.plan_cache.lookup(sql).statement
        except FlockError:
            statement = None
        if statement is None or not is_read_only(statement):
            registry.counter("replication.route.primary").inc()
            return self.primary
        follower = self._pick_follower()
        if follower is None:
            # Every follower is unhealthy or beyond the staleness bound:
            # the primary always has the freshest data.
            registry.counter("replication.route.fallback_primary").inc()
            return self.primary
        registry.counter("replication.route.follower").inc()
        registry.counter(f"replication.route.{follower.name}").inc()
        return follower.server

    def _pick_follower(self) -> FollowerReplica | None:
        followers = self.followers
        if not followers:
            return None
        start = next(self._rr)
        bound = self.max_staleness
        for offset in range(len(followers)):
            follower = followers[(start + offset) % len(followers)]
            if not follower.healthy:
                continue
            if bound is not None and follower.lag > bound:
                continue
            return follower
        return None

    def connect(self, user: str = "admin") -> "ClusterClient":
        return ClusterClient(self, user)

    # ------------------------------------------------------------------
    # Replication status
    # ------------------------------------------------------------------
    def wait_for_catchup(self, timeout: float | None = 10.0) -> bool:
        """Block until every healthy follower applied the full stream."""
        target = self.hub.lsn
        return all(
            follower.wait_for(target, timeout)
            for follower in self.followers
            if follower.healthy
        )

    def stats(self) -> dict:
        return {
            "epoch": self.epoch,
            "backend": self.backend,
            "replication_lsn": self.hub.lsn,
            "wal_lsn": (
                None if self.database.wal is None else self.database.wal.lsn
            ),
            "max_staleness": self.max_staleness,
            "primary": self.primary.stats(),
            "followers": [f.status() for f in self.followers],
            "follower_served": sum(f.server._served for f in self.followers),
        }

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def promote(self, drain_timeout: float = 5.0) -> PromotionReport:
        """Promote after primary failure: recover the directory, rebuild.

        Selects the most-caught-up follower (the promotion *candidate* —
        with in-process replicas its applied state is a committed prefix,
        so it is the right node to keep serving reads while the new primary
        recovers), closes the old tier, and re-opens the durable directory
        through ``Database.open``'s recovery machinery. The recovered
        committed prefix is authoritative: acknowledged transactions are in
        the WAL by definition, so promotion can never lose one.
        """
        with self._lock:
            if self._closed:
                raise FailoverError("cluster is closed")
            if not self.followers:
                raise FailoverError("no follower to promote")
            # Let followers drain what the primary already shipped.
            target = self.hub.lsn
            for follower in self.followers:
                if follower.healthy:
                    follower.wait_for(target, drain_timeout)
            candidate = max(
                (f for f in self.followers if f.healthy),
                key=lambda f: f.applied_lsn,
                default=None,
            )
            if candidate is None:
                raise FailoverError(
                    "every follower is unhealthy; recover the directory "
                    "directly with flock.connect / Database.open"
                )
            promoted = {
                "name": candidate.name,
                "applied_lsn": candidate.applied_lsn,
            }
            self._teardown(drain_primary=False)
            self.epoch += 1
            self._open_primary()
            self._bootstrap_followers()
            recovery = self.database.wal.last_recovery
            metrics().counter("replication.promotions").inc()
            return PromotionReport(
                promoted=promoted,
                epoch=self.epoch,
                recovery=None if recovery is None else recovery.as_dict(),
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _teardown(self, drain_primary: bool) -> None:
        # Detach the hub first so late commits cannot hit a closed hub.
        self.database.transactions.replication = None
        try:
            self.primary.shutdown(drain=drain_primary)
        except Exception:
            # A poisoned WAL fails the drain checkpoint; the log already
            # holds every acknowledged commit, so recovery is unaffected.
            pass
        self.hub.close()
        for follower in self.followers:
            follower.stop(drain=True)
        self.followers = []
        self.database.close()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._teardown(drain_primary=True)

    def __enter__(self) -> "FlockCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ClusterClient:
    """Blocking per-user client routed through a :class:`FlockCluster`."""

    def __init__(self, cluster: FlockCluster, user: str = "admin"):
        self.cluster = cluster
        self.user = user

    def execute(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        timeout: float | None = None,
    ):
        return self.cluster.execute(sql, params, user=self.user,
                                    timeout=timeout)

    def submit(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        timeout: float | None = None,
    ) -> ServingFuture:
        return self.cluster.submit(sql, params, user=self.user,
                                   timeout=timeout)
