"""Scatter-gather reads over a sharded cluster, bit-identical to one engine.

The merge discipline: every sharded table carries a hidden ``_flock_seq``
column assigned by the router from one per-table monotonic counter, in the
order rows were presented by the client. Concatenating the per-shard
snapshots and sorting by that sequence therefore reconstructs *exactly* the
row order a single engine would hold — after which the coordinator's own
binder, optimizer and executor produce bit-identical results.

The coordinator engine is an in-memory :class:`~flock.db.Database` whose
catalog mirrors the user-visible schema but whose tables stay empty; merged
snapshots are served to the executor through a custom execution context
instead of being loaded into coordinator tables, so concurrent scattered
reads never contend on coordinator storage.
"""

from __future__ import annotations

import threading

import numpy as np

from flock.db.result import QueryResult
from flock.db.sql import ast_nodes as ast
from flock.db.storage import TableVersion
from flock.db.vector import Batch

#: Hidden global-sequence column appended to every sharded table. The
#: router assigns it; SELECT never sees it (see flock.db.binder).
SEQ_COLUMN = "_flock_seq"


class GatherCache:
    """The coordinator's merged snapshot of each sharded table a scatter
    has read, keyed by the per-shard head stamps it was merged from.

    One merged copy per table and no per-shard parts: that is the whole
    memory bound. Concurrent scattered reads share it; each matches its
    replies against the entries its requests were built from, so a refill
    by another read can never pair one gather's stamps with another's
    data. Every DDL broadcast, shard restart and close drops it whole.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[str, tuple[tuple, TableVersion]] = {}
        self._counts = {"tables_shipped": 0, "tables_reused": 0}

    def entries(self, names) -> dict:
        """``{name: (stamps, merged) or None}`` for *names*."""
        with self._lock:
            return {name: self._entries.get(name) for name in names}

    def record(self, fresh: dict, reused: int) -> None:
        """Store one gather's newly merged entries and count its tables."""
        with self._lock:
            self._entries.update(fresh)
            self._counts["tables_shipped"] += len(fresh)
            self._counts["tables_reused"] += reused

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return dict(self._counts)


def gather_versions(cluster, names) -> dict:
    """One merged :class:`TableVersion` per table in *names*.

    Per shard, all heads are read under a single acquisition of that
    shard's statement read lock, so each shard contributes one internally
    consistent snapshot; cross-shard consistency comes from the cluster's
    operation lock held by the caller (writes are excluded while any
    scattered read is gathering).

    Each request carries the stamps of the cached merge, and a shard ships
    a table only when its head stamp differs. A table no shard shipped is
    served from the cache; a table some shard shipped is merged afresh,
    after its parts are fetched from the shards that answered "unchanged".
    """
    wanted = list(dict.fromkeys(n.lower() for n in names))
    cache = cluster.gather_cache
    cached = cache.entries(wanted)
    replies = [
        shard.head_versions(wanted, {
            name: entry[0][index]
            for name, entry in cached.items()
            if entry is not None
        })
        for index, shard in enumerate(cluster.shards)
    ]
    stale = [
        name for name in wanted
        if any(reply[name][1] is not None for reply in replies)
    ]
    if stale and not _refetch(cluster, stale, replies):
        # A shard moved between the two rounds, so it was written outside
        # the cluster's lock: take every head again in one round.
        replies = [shard.head_versions(wanted) for shard in cluster.shards]
        stale = wanted
    fresh = {
        name: (
            tuple(reply[name][0] for reply in replies),
            _merge(cluster, name, [reply[name][1] for reply in replies]),
        )
        for name in stale
    }
    cache.record(fresh, len(wanted) - len(fresh))
    return {
        name: (fresh.get(name) or cached[name])[1] for name in wanted
    }


def _refetch(cluster, stale: list[str], replies: list[dict]) -> bool:
    """Fill in the parts of *stale* tables that shards answered
    "unchanged" for, in *replies*; False when a shard's stamp is no longer
    the one its first reply gave.

    The caller holds the cluster's operation lock, so no routed write can
    land between the two rounds; the stamp check catches one that did not
    go through the router.
    """
    for shard, reply in zip(cluster.shards, replies):
        missing = [name for name in stale if reply[name][1] is None]
        if not missing:
            continue
        again = shard.head_versions(missing)
        for name in missing:
            if again[name][0] != reply[name][0]:
                return False
            reply[name] = again[name]
    return True


def _merge(cluster, name: str, parts: list[TableVersion]) -> TableVersion:
    coordinator_schema = cluster.coordinator.catalog.schema(name)
    if not coordinator_schema.primary_key_indexes:
        # Tables without a primary key have no shard key: their rows are
        # pinned to shard 0 and carry no sequence column, so shard 0's
        # snapshot *is* the single-engine state.
        return parts[0]
    n_visible = len(coordinator_schema.columns)
    sequences = np.concatenate([p.columns[n_visible].values for p in parts])
    order = np.argsort(sequences, kind="stable")
    merged = []
    for position in range(n_visible):
        vector = parts[0].columns[position]
        for part in parts[1:]:
            vector = vector.concat(part.columns[position])
        merged.append(vector.take(order))
    return TableVersion(-1, coordinator_schema, merged, "SHARD-MERGE")


class _MergedContext:
    """Execution context serving merged snapshots to the executor.

    Deliberately has no ``index_lookup``: coordinator index metadata
    describes per-shard buckets, not the merged snapshot, so index access
    paths degrade to scans here (the lookup contract allows any superset;
    absence is the safe superset). ``table_version`` is provided, so
    zone-map pruning still works — zones are built lazily from the merged
    columns themselves.
    """

    def __init__(self, database, versions: dict):
        self.database = database
        self.versions = versions

    def table_batch(self, table_name: str) -> Batch:
        return self.versions[table_name.lower()].batch()

    def table_version(self, table_name: str) -> TableVersion:
        return self.versions[table_name.lower()]

    def score(self, node, inputs):
        return self.database.scorer.score(
            node, inputs, self.database.model_store
        )


def run_scatter(cluster, entry, params, user) -> QueryResult:
    """Execute a read-only statement across every shard and merge.

    *entry* is the statement's :class:`~flock.db.plancache.CachedPlan` in
    the coordinator's plan cache. The coordinator's own read path runs —
    its prepared plan, bound, privilege-checked and optimized once while
    current — over merged snapshots instead of its empty tables. Wrapped
    in the coordinator's per-statement observability envelope so scattered
    reads appear in its query log, audit trail and metrics exactly like
    local ones.
    """
    coordinator = cluster.coordinator

    def runner() -> QueryResult:
        return _run(cluster, coordinator, entry, params, user)

    with coordinator.statement_lock.read_locked():
        return coordinator._observed_statement(
            entry.sql, user, entry.statement_type, runner
        )


def _run(cluster, coordinator, entry, params, user) -> QueryResult:
    params = None if params is None else list(params)
    # Rows come from the shards: the coordinator's own transaction only
    # serves the prepared plan's version check.
    txn = coordinator.transactions.begin(user)
    try:
        prepared = coordinator._prepared_plan(entry, user, txn, params)
    finally:
        coordinator.transactions.rollback(txn)
    context = _MergedContext(
        coordinator, gather_versions(cluster, prepared.reads[0])
    )
    if isinstance(entry.statement, ast.Explain):
        return coordinator._execute_explain(
            entry.statement, prepared, user, context
        )
    return coordinator._execute_select(prepared, user, context)
