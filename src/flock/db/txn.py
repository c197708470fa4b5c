"""Transactions: atomic multi-table commits with rollback.

Writes build *staged* table versions that only this transaction sees; commit
publishes every staged version atomically under a global commit lock, with
first-updater-wins conflict detection against the base version each table was
read at. This is what lets multiple deployed models be "updated
transactionally" (§4.1: models are first-class data, so a model rollout is
just a multi-table transaction).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Callable

from flock.db.catalog import Catalog
from flock.db.storage import TableVersion
from flock.errors import TransactionError

_txn_ids = itertools.count(1)


class ReadWriteLock:
    """A writer-preference readers-writer lock with same-thread reentrancy.

    The engine takes the *read* side for SELECT/PREDICT statements (many can
    run concurrently, each against its own MVCC snapshot) and the *write*
    side for DML/DDL (execution and commit happen under one exclusive
    section, so a reader can never observe a half-published multi-table
    commit). Writer preference keeps a steady stream of point queries from
    starving deployments and loads.

    Reentrancy rules: a thread holding the write lock may re-acquire either
    side (statement handlers and commit hooks nest); a thread holding only a
    read lock may re-acquire the read side but must not upgrade to write —
    upgrades deadlock under concurrency, so they raise immediately.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: int | None = None
        self._write_depth = 0
        self._waiting_writers = 0
        self._local = threading.local()

    def _read_depth(self) -> int:
        return getattr(self._local, "read_depth", 0)

    def acquire_read(self) -> None:
        me = threading.get_ident()
        if self._writer == me or self._read_depth() > 0:
            # Nested under our own write or read section: already safe.
            self._local.read_depth = self._read_depth() + 1
            return
        with self._cond:
            while self._writer is not None or self._waiting_writers:
                self._cond.wait()
            self._readers += 1
        self._local.read_depth = 1
        self._local.counted = True

    def release_read(self) -> None:
        depth = self._read_depth()
        if depth <= 0:
            raise RuntimeError("release_read without a matching acquire_read")
        self._local.read_depth = depth - 1
        if depth == 1 and getattr(self._local, "counted", False):
            self._local.counted = False
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    def acquire_write(self) -> None:
        me = threading.get_ident()
        if self._writer == me:
            self._write_depth += 1
            return
        if self._read_depth() > 0:
            raise RuntimeError(
                "cannot upgrade a read lock to a write lock"
            )
        with self._cond:
            self._waiting_writers += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
                self._writer = me
                self._write_depth = 1
            finally:
                self._waiting_writers -= 1

    def release_write(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError(
                    "release_write by a thread that does not hold the lock"
                )
            self._write_depth -= 1
            if self._write_depth == 0:
                self._writer = None
                self._cond.notify_all()

    @contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class Transaction:
    """One transaction's private view: staged versions over base snapshots."""

    def __init__(self, manager: "TransactionManager", user: str):
        self.txn_id = next(_txn_ids)
        self.user = user
        self.active = True
        self._manager = manager
        self._staged: dict[str, TableVersion] = {}
        self._base_version_ids: dict[str, int] = {}
        # Ordered log of every staged version, including intermediate ones a
        # later statement in the same transaction superseded in _staged.
        # The WAL records these, so replay re-applies the same sequence of
        # logical deltas instead of one opaque final state per table.
        self._effects: list[tuple[str, TableVersion]] = []
        self._on_commit: list[Callable[[], None]] = []
        self._on_rollback: list[Callable[[], None]] = []

    # -- reads ----------------------------------------------------------
    def visible_version(self, table_name: str) -> TableVersion:
        """The version this transaction sees (its own writes, else head)."""
        self._check_active()
        key = table_name.lower()
        if key in self._staged:
            return self._staged[key]
        return self._manager.catalog.table(table_name).head_version

    # -- writes ---------------------------------------------------------
    def stage(self, table_name: str, version: TableVersion) -> None:
        """Record a staged version for *table_name* (visible only to us)."""
        self._check_active()
        key = table_name.lower()
        if key not in self._base_version_ids:
            head = self._manager.catalog.table(table_name).head_version
            self._base_version_ids[key] = head.version_id
        self._staged[key] = version
        self._effects.append((key, version))

    def on_commit(self, callback: Callable[[], None]) -> None:
        """Run *callback* after a successful commit (used by the policy
        engine and the provenance catalog to piggyback on atomicity)."""
        self._on_commit.append(callback)

    def on_rollback(self, callback: Callable[[], None]) -> None:
        self._on_rollback.append(callback)

    # -- lifecycle --------------------------------------------------------
    def commit(self) -> None:
        self._manager.commit(self)

    def rollback(self) -> None:
        self._manager.rollback(self)

    @property
    def has_writes(self) -> bool:
        return bool(self._staged)

    def _check_active(self) -> None:
        if not self.active:
            raise TransactionError(
                f"transaction {self.txn_id} is no longer active"
            )


class TransactionManager:
    """Begins, commits and rolls back transactions against a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._commit_lock = threading.Lock()
        self.committed_count = 0
        self.aborted_count = 0
        # Set by flock.db.wal when the database is durable; None keeps the
        # engine purely in-memory with zero overhead on this path.
        self.wal = None
        # Set by flock.cluster when follower replicas are attached: every
        # committed record is streamed to the hub *after* it publishes, so
        # a follower can never apply a commit the primary rolled back.
        self.replication = None

    def begin(self, user: str = "admin") -> Transaction:
        return Transaction(self, user)

    def commit(self, txn: Transaction) -> None:
        txn._check_active()
        wal = self.wal
        hub = self.replication
        lsn = None
        record = None
        with self._commit_lock:
            # Validate: no table we wrote moved under us since we based on it.
            for key, base_id in txn._base_version_ids.items():
                head = self.catalog.table(key).head_version
                if head.version_id != base_id:
                    txn.active = False
                    self.aborted_count += 1
                    for callback in txn._on_rollback:
                        callback()
                    raise TransactionError(
                        f"write conflict on table {key!r}: head moved from "
                        f"version {base_id} to {head.version_id}"
                    )
            if wal is not None and txn._effects:
                # Log before publish: in "commit" mode this appends *and*
                # fsyncs, so the record is durable before anything becomes
                # visible; in "group" mode it only appends, and the fsync
                # happens in wait_durable below before the commit call
                # returns (acknowledgement), which the log's prefix-flush
                # property makes safe.
                try:
                    lsn, record = wal.log_commit(txn)
                except Exception:
                    txn.active = False
                    self.aborted_count += 1
                    for callback in txn._on_rollback:
                        callback()
                    raise
            elif hub is not None and txn._effects:
                # Replication without a WAL (in-memory primary): encode the
                # identical record the log would have carried.
                from flock.db.wal import encode_commit_record

                record = encode_commit_record(txn)
            for key, staged in txn._staged.items():
                table = self.catalog.table(key)
                prev_head_id = table.head_version.version_id
                table.publish(staged)
                # Keep hash indexes current across the commit when every
                # effect in the transaction's ordered per-table chain is an
                # INSERT or an UPDATE that leaves the indexed column alone;
                # otherwise indexes go stale and rebuild lazily on their
                # next lookup.
                table.maintain_indexes(
                    prev_head_id,
                    [v for k, v in txn._effects if k == key],
                )
            txn.active = False
            self.committed_count += 1
            if hub is not None and record is not None:
                # Ship the record only after every staged version published:
                # if the append/fsync above had failed, the transaction
                # rolled back and no follower ever saw it. Publishing under
                # the commit lock preserves commit order on the stream.
                hub.publish(record)
        if wal is not None and lsn is not None:
            wal.wait_durable(lsn)
        for callback in txn._on_commit:
            callback()

    def rollback(self, txn: Transaction) -> None:
        if not txn.active:
            return
        txn.active = False
        self.aborted_count += 1
        for callback in txn._on_rollback:
            callback()
