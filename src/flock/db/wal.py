"""Write-ahead logging, checkpointing and crash recovery.

The paper folds ML state into the DBMS precisely to inherit its enterprise
guarantees — "security, fault-tolerance, auditing". This module supplies the
fault-tolerance half: every commit (DML, DDL, model deployment) is logged
before it is acknowledged, so a database directory survives process death
and recovers to exactly the committed prefix.

Log format
----------
``wal.log`` starts with a fixed header::

    magic "FLKWAL1\\x00" | u32 format version | u64 generation

followed by CRC32-framed records::

    u32 payload length | u32 crc32(payload) | payload (compact JSON, UTF-8)

Two record types: ``commit`` (ordered logical per-table deltas of one
transaction, captured at ``Table.build_*`` time) and ``ddl`` (catalog and
security mutations). Both piggyback the audit records and query-log entries
accumulated since the previous record, so the hash-chained audit trail is
exactly-once durable without a second log.

Durability modes
----------------
``sync_mode="commit"`` (default) appends *and* fsyncs before the commit
publishes — classic WAL. ``"group"`` appends under the commit lock but
batches fsyncs across concurrent committers (a short leader-elected window);
the publish happens before the fsync, which is safe because acknowledgement
still waits for it and fsync durability is prefix-closed. ``"off"`` trades
durability of the tail for speed (the log is still written, never synced).

Any append/fsync failure *poisons* the log: the failed transaction rolls
back and every later commit raises :class:`DurabilityError` until the
database is reopened — an unloggable commit is never acknowledged.

Checkpoints
-----------
A checkpoint freezes the engine (statement write lock + commit lock),
snapshots it with :func:`flock.db.persist.save_database` into
``checkpoint.new`` (fsynced), atomically swaps it in, then resets the log
under a new generation stamped into the snapshot manifest. A log whose
generation does not match the checkpoint's is entirely contained in the
checkpoint and is discarded at recovery.

Recovery
--------
:func:`open_database` repairs interrupted checkpoint swaps, loads the
newest checkpoint, replays the committed WAL suffix record by record
(re-entering the same constraint checks the original execution ran), stops
at the first torn or corrupt frame — truncating the tail and *reporting* it
rather than raising — and attaches a live log for new writes.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import threading
import time
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from flock.db.audit import AuditRecord
from flock.db.engine import Database, QueryLogEntry
from flock.db.persist import (
    _dump_audit_record,
    _dump_qlog_entry,
    _fsync_dir,
    dump_values,
    load_database,
    load_values,
    save_database,
)
from flock.db.schema import Column, TableSchema
from flock.db.storage import Table, TableVersion
from flock.db.types import DataType
from flock.db.vector import ColumnVector
from flock.errors import DurabilityError, RecoveryError
from flock.testing import faultpoints

WAL_MAGIC = b"FLKWAL1\x00"
WAL_FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIQ")  # magic, format version, generation
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)

#: Default auto-checkpoint threshold: log payload bytes since last checkpoint.
DEFAULT_CHECKPOINT_BYTES = 64 * 1024 * 1024


@dataclass
class RecoveryReport:
    """What :func:`open_database` found and did — never an exception for
    expected crash damage (torn tails are the *normal* post-crash state)."""

    directory: str
    checkpoint_loaded: bool = False
    generation: int = 1
    records_scanned: int = 0
    commits_replayed: int = 0
    ddl_replayed: int = 0
    audit_records_restored: int = 0
    discarded_bytes: int = 0
    tail_status: str = "missing"  # missing|clean|torn|corrupt|stale_generation
    replay_ms: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


class WriteAheadLog:
    """The live log attached to a durable :class:`Database`.

    Created by :func:`open_database` after recovery; not meant to be
    constructed against a database with unlogged committed state.
    """

    def __init__(
        self,
        directory: str | Path,
        database: Database,
        *,
        sync_mode: str = "commit",
        group_window_ms: float = 1.0,
        checkpoint_bytes: int | None = DEFAULT_CHECKPOINT_BYTES,
        generation: int = 1,
    ):
        if sync_mode not in ("commit", "group", "off"):
            raise DurabilityError(f"unknown WAL sync mode {sync_mode!r}")
        self.directory = Path(directory)
        self.database = database
        self.sync_mode = sync_mode
        self.group_window_ms = group_window_ms
        self.checkpoint_bytes = checkpoint_bytes
        self.path = self.directory / "wal.log"
        self.last_recovery: RecoveryReport | None = None

        self._append_lock = threading.Lock()
        self._poisoned: BaseException | None = None
        # Group-commit state: LSNs are per-process append ordinals; the
        # leader fsyncs everything appended so far and advances _durable_lsn.
        self._group_cond = threading.Condition()
        self._fsync_leader = False
        self._next_lsn = 1
        self._durable_lsn = 0
        # Watermarks for piggybacked durability of the audit/query logs.
        self._audit_seq = 0
        self._qlog_pos = 0

        if self.path.exists() and self.path.stat().st_size >= _HEADER.size:
            self._file = open(self.path, "r+b")
            magic, version, generation = _read_header(self._file)
            self.generation = generation
            self._file.seek(0, os.SEEK_END)
            self._size = self._file.tell()
        else:
            self._file = open(self.path, "w+b")
            self.generation = generation
            self._file.write(
                _HEADER.pack(WAL_MAGIC, WAL_FORMAT_VERSION, generation)
            )
            self._file.flush()
            os.fsync(self._file.fileno())
            self._size = _HEADER.size

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def log_commit(self, txn) -> tuple[int, dict]:
        """Log one transaction's effects; called under the commit lock,
        *before* any staged version is published.

        Returns ``(lsn, payload)``: the append ordinal and the exact record
        written (including piggybacked audit/query-log entries), so the
        commit path can ship the same record to follower replicas once the
        staged versions publish (see :mod:`flock.cluster`)."""
        payload = encode_commit_record(txn)
        lsn = self._append(payload)
        self._metric("wal.commit_records")
        if self.sync_mode == "commit":
            self._fsync()
            faultpoints.reach("wal.post_fsync_pre_apply")
        return lsn, payload

    def log_ddl(self, op: dict) -> None:
        """Log a catalog/security mutation (applied by the caller)."""
        self._append({"t": "ddl", "op": op})
        self._metric("wal.ddl_records")
        # DDL is rare: sync it immediately even in group mode (which also
        # hardens any commit records appended before it).
        if self.sync_mode != "off":
            self._fsync()

    def wait_durable(self, lsn: int) -> None:
        """Block until *lsn* is fsynced — the acknowledgement barrier."""
        if self.sync_mode == "group":
            self._group_fsync(lsn)
        faultpoints.reach("wal.pre_ack")

    def _append(self, payload: dict) -> int:
        with self._append_lock:
            self._check_poison()
            # Audit records and query-log entries accumulated since the
            # previous record ride along; captured under the append lock so
            # every entry lands in exactly one record, in log order.
            audit = self.database.audit.log.records_after(self._audit_seq)
            qlog = self.database.query_log[self._qlog_pos :]
            if audit:
                payload["audit"] = [_dump_audit_record(r) for r in audit]
            if qlog:
                payload["qlog"] = [_dump_qlog_entry(e) for e in qlog]
            data = json.dumps(payload, separators=(",", ":")).encode()
            frame = _FRAME.pack(len(data), zlib.crc32(data)) + data
            try:
                if faultpoints.armed("wal.mid_record"):
                    # Flush the first half before firing, so a crash leaves
                    # a genuinely torn frame on disk for recovery to face.
                    half = len(frame) // 2
                    self._file.write(frame[:half])
                    self._file.flush()
                    faultpoints.reach("wal.mid_record")
                    self._file.write(frame[half:])
                else:
                    self._file.write(frame)
                self._file.flush()
            except BaseException as exc:
                self._poison(exc)
                raise
            if audit:
                self._audit_seq = audit[-1].sequence
            self._qlog_pos += len(qlog)
            self._size += len(frame)
            lsn = self._next_lsn
            self._next_lsn += 1
        registry = self._metrics()
        registry.counter("wal.appends").inc()
        registry.counter("wal.bytes_written").inc(len(frame))
        return lsn

    def _fsync(self) -> None:
        start_ns = time.perf_counter_ns()
        try:
            faultpoints.reach("wal.pre_fsync")
            os.fsync(self._file.fileno())
        except BaseException as exc:
            # The record may already be on disk (or half of it in the page
            # cache): memory and log can no longer be proven to agree, so no
            # further commit may be acknowledged against this log.
            self._poison(exc)
            raise
        registry = self._metrics()
        registry.counter("wal.fsyncs").inc()
        registry.histogram("wal.fsync_ms").observe(
            (time.perf_counter_ns() - start_ns) / 1e6
        )

    def _group_fsync(self, lsn: int) -> None:
        while True:
            with self._group_cond:
                while True:
                    if self._durable_lsn >= lsn:
                        return
                    self._check_poison()
                    if not self._fsync_leader:
                        self._fsync_leader = True
                        break
                    self._group_cond.wait(timeout=0.1)
            # We are the leader: give concurrent committers a short window
            # to append, then fsync once for everyone.
            try:
                if self.group_window_ms > 0:
                    time.sleep(self.group_window_ms / 1000.0)
                with self._append_lock:
                    self._check_poison()
                    target = self._next_lsn - 1
                    self._fsync()
                with self._group_cond:
                    self._durable_lsn = max(self._durable_lsn, target)
            finally:
                with self._group_cond:
                    self._fsync_leader = False
                    self._group_cond.notify_all()

    def _poison(self, exc: BaseException) -> None:
        if self._poisoned is None:
            self._poisoned = exc
            self._metric("wal.poisoned")

    def _check_poison(self) -> None:
        if self._poisoned is not None:
            raise DurabilityError(
                f"write-ahead log at {self.path} is poisoned by an earlier "
                f"failure ({self._poisoned!r}); reopen the database to "
                f"recover"
            )

    @property
    def poisoned(self) -> bool:
        return self._poisoned is not None

    @property
    def lsn(self) -> int:
        """Append ordinal of the last record written (0 = none yet).

        LSNs are per-process monotonic — checkpoints truncate the log file
        but never rewind the counter — which makes them usable as
        replication positions: a follower's ``applied_lsn`` compares
        directly against the primary's ``lsn`` for lag."""
        return self._next_lsn - 1

    @property
    def durable_lsn(self) -> int:
        """Highest LSN known fsynced (only tracked in ``group`` mode;
        ``commit`` mode fsyncs inline so every appended LSN is durable)."""
        if self.sync_mode == "commit":
            return self.lsn
        return self._durable_lsn

    @property
    def log_bytes(self) -> int:
        """Bytes of record data in the current log (excluding the header)."""
        return self._size - _HEADER.size

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Snapshot the database and truncate the log under a new generation.

        Freezes the engine: the statement write lock keeps statements (and
        their audit records) out, the commit lock keeps registry
        deployments — which commit without taking the statement lock — out.
        """
        database = self.database
        start_ns = time.perf_counter_ns()
        with database.statement_lock.write_locked():
            with database.transactions._commit_lock:
                self._check_poison()
                new_generation = self.generation + 1
                staging = self.directory / "checkpoint.new"
                current = self.directory / "checkpoint"
                old = self.directory / "checkpoint.old"
                if staging.exists():
                    shutil.rmtree(staging)
                save_database(
                    database,
                    staging,
                    wal_generation=new_generation,
                    durable=True,
                )
                faultpoints.reach("checkpoint.pre_swap")
                # Swap: from here on the new snapshot is the recovery base.
                if old.exists():
                    shutil.rmtree(old)
                if current.exists():
                    current.rename(old)
                staging.rename(current)
                _fsync_dir(self.directory)
                try:
                    faultpoints.reach("checkpoint.post_swap")
                    self._reset_log(new_generation)
                except BaseException as exc:
                    # The snapshot expects generation N+1 but the log still
                    # carries N: one more acknowledged commit would land in
                    # a log recovery is obliged to discard. Refuse them all.
                    self._poison(exc)
                    raise
                if old.exists():
                    shutil.rmtree(old)
        registry = self._metrics()
        registry.counter("checkpoint.count").inc()
        registry.histogram("checkpoint.ms").observe(
            (time.perf_counter_ns() - start_ns) / 1e6
        )

    def _reset_log(self, new_generation: int) -> None:
        with self._append_lock:
            self._file.seek(0)
            self._file.truncate(0)
            self._file.write(
                _HEADER.pack(WAL_MAGIC, WAL_FORMAT_VERSION, new_generation)
            )
            self._file.flush()
            os.fsync(self._file.fileno())
            self._size = _HEADER.size
            self.generation = new_generation
            # The snapshot holds the full audit trail and query log.
            self._audit_seq = self.database.audit.log.last_sequence
            self._qlog_pos = len(self.database.query_log)

    def maybe_checkpoint(self) -> bool:
        """Checkpoint iff the log outgrew ``checkpoint_bytes``; called by
        the engine after statement-level commits (never from the registry
        deploy path, whose lock ordering must stay checkpoint-free)."""
        if not self.checkpoint_bytes or self._poisoned is not None:
            return False
        if self.log_bytes < self.checkpoint_bytes:
            return False
        self.checkpoint()
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._poisoned is None and not self._file.closed:
            # Read-only statements leave audit records that nothing
            # piggybacks until the next write; a clean close preserves them
            # with an effect-free flush record. (A crash can still lose
            # trailing *read* audits — never a write or its audit.)
            try:
                if (
                    self.database.audit.log.last_sequence > self._audit_seq
                    or len(self.database.query_log) > self._qlog_pos
                ):
                    self._append({"t": "flush"})
                    self._fsync()
            except Exception:
                pass
        with self._append_lock:
            if self._file.closed:
                return
            if self._poisoned is None:
                try:
                    self._file.flush()
                    os.fsync(self._file.fileno())
                except OSError:
                    pass
            self._file.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _metrics():
        from flock import observability as obs

        return obs.metrics()

    def _metric(self, name: str) -> None:
        self._metrics().counter(name).inc()


# ----------------------------------------------------------------------
# Effect encoding (live) / decoding (replay)
# ----------------------------------------------------------------------
def encode_commit_record(txn) -> dict:
    """One transaction's effects as a WAL ``commit`` record payload.

    This is the unit of WAL shipping: the same dict is CRC-framed into the
    durable log *and* streamed to follower replicas, which apply it through
    :func:`apply_record` — the identical code path crash recovery replays.
    """
    effects = [
        [key, *(_encode_effect(version))]
        for key, version in txn._effects
    ]
    payload: dict[str, Any] = {
        "t": "commit",
        "txn": txn.txn_id,
        "user": txn.user,
        "effects": effects,
    }
    return payload


def _encode_effect(version: TableVersion) -> tuple[str, dict]:
    delta = version.delta
    if delta is None:
        # Version built outside the normal write path: log it whole.
        return "REPLACE", {
            "op": version.operation,
            "cols": [dump_values(c) for c in version.columns],
        }
    kind = delta[0]
    if kind == "INSERT":
        return "INSERT", {"cols": [dump_values(v) for v in delta[1]]}
    if kind == "DELETE":
        keep_mask = delta[1]
        return "DELETE", {
            "n": int(len(keep_mask)),
            "drop": np.nonzero(~keep_mask)[0].tolist(),
        }
    if kind == "UPDATE":
        row_mask, assignments = delta[1], delta[2]
        return "UPDATE", {
            "n": int(len(row_mask)),
            "rows": np.nonzero(row_mask)[0].tolist(),
            "cols": {
                str(i): dump_values(vec) for i, vec in assignments.items()
            },
        }
    if kind == "TRUNCATE":
        return "TRUNCATE", {}
    raise DurabilityError(f"unloggable table delta {kind!r}")


def _replay_effect(
    table: Table, base: TableVersion, kind: str, data: dict
) -> TableVersion:
    schema = table.schema
    if kind == "INSERT":
        fresh = [
            ColumnVector.from_values(col.dtype, load_values(values))
            for col, values in zip(schema.columns, data["cols"])
        ]
        return table.build_append(fresh, base=base)
    if kind == "DELETE":
        keep = np.ones(data["n"], dtype=bool)
        keep[data["drop"]] = False
        return table.build_delete(keep, base=base)
    if kind == "UPDATE":
        mask = np.zeros(data["n"], dtype=bool)
        mask[data["rows"]] = True
        assignments = {
            int(i): ColumnVector.from_values(
                schema.columns[int(i)].dtype, load_values(values)
            )
            for i, values in data["cols"].items()
        }
        return table.build_update(mask, assignments, base=base)
    if kind == "TRUNCATE":
        return table.build_truncate(base=base)
    if kind == "REPLACE":
        columns = [
            ColumnVector.from_values(col.dtype, load_values(values))
            for col, values in zip(schema.columns, data["cols"])
        ]
        return table._staged(columns, data["op"], base)
    raise RecoveryError(f"unknown WAL effect kind {kind!r}")


# ----------------------------------------------------------------------
# Log scanning
# ----------------------------------------------------------------------
def _read_header(fh) -> tuple[bytes, int, int]:
    fh.seek(0)
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise DurabilityError("WAL file too short for its header")
    magic, version, generation = _HEADER.unpack(raw)
    if magic != WAL_MAGIC:
        raise DurabilityError(f"not a flock WAL file (magic {magic!r})")
    if version != WAL_FORMAT_VERSION:
        raise DurabilityError(f"unsupported WAL format version {version}")
    return magic, version, generation


def _scan_log(path: Path) -> tuple[int, list[dict], int, str, int]:
    """Scan ``wal.log`` → (generation, records, valid_end, tail, discarded).

    Stops at the first incomplete or CRC-failed frame; everything after the
    last valid record is the discarded tail. A header that cannot be parsed
    classifies the whole file as corrupt (zero records survive).
    """
    data = path.read_bytes()
    size = len(data)
    if size < _HEADER.size:
        return 0, [], 0, "corrupt", size
    magic, version, generation = _HEADER.unpack(data[: _HEADER.size])
    if magic != WAL_MAGIC or version != WAL_FORMAT_VERSION:
        return 0, [], 0, "corrupt", size
    records: list[dict] = []
    offset = _HEADER.size
    tail = "clean"
    while True:
        if offset == size:
            break
        if offset + _FRAME.size > size:
            tail = "torn"
            break
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > size:
            tail = "torn"
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            tail = "corrupt"
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            tail = "corrupt"
            break
        records.append(record)
        offset = end
    return generation, records, offset, tail, size - offset


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
def open_database(
    path: str | Path,
    *,
    model_store=None,
    scorer=None,
    optimizer=None,
    sync_mode: str = "commit",
    group_window_ms: float = 1.0,
    checkpoint_bytes: int | None = DEFAULT_CHECKPOINT_BYTES,
) -> Database:
    """Open (or create) a durable database directory and recover it.

    Loads the newest checkpoint, replays the committed WAL suffix, truncates
    any torn/corrupt tail, attaches a live :class:`WriteAheadLog`, and hangs
    the :class:`RecoveryReport` on ``database.wal.last_recovery``.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    report = RecoveryReport(directory=str(root))
    start_ns = time.perf_counter_ns()

    _repair_checkpoint_dirs(root)

    # ---- recovery base: newest checkpoint, else a legacy flat snapshot,
    # ---- else a fresh database.
    checkpoint_dir = root / "checkpoint"
    generation = 1
    if (checkpoint_dir / "manifest.json").exists():
        database = load_database(
            checkpoint_dir,
            model_store=model_store,
            scorer=scorer,
            optimizer=optimizer,
        )
        manifest = json.loads((checkpoint_dir / "manifest.json").read_text())
        generation = int(manifest.get("wal_generation", 1))
        report.checkpoint_loaded = True
    elif (root / "manifest.json").exists():
        # A directory written by persist.save_database (e.g. the shell's
        # ``.save``) opens as the seed of a durable database.
        database = load_database(
            root,
            model_store=model_store,
            scorer=scorer,
            optimizer=optimizer,
        )
        report.checkpoint_loaded = True
    else:
        database = Database(
            model_store=model_store,
            scorer=scorer,
            optimizer=optimizer,
        )
    report.generation = generation

    # The registry's system table is created by bind_database outside any
    # logged statement, so it must exist before deploy commits replay.
    if model_store is not None and hasattr(model_store, "bind_database"):
        model_store.bind_database(database)

    # ---- replay the committed suffix.
    wal_path = root / "wal.log"
    if wal_path.exists():
        log_generation, records, valid_end, tail, discarded = _scan_log(
            wal_path
        )
        if log_generation == 0:
            # The header itself is unreadable: nothing in the file can be
            # trusted, so the whole log is discarded as corrupt.
            report.tail_status = "corrupt"
            report.discarded_bytes = discarded
            wal_path.unlink()
        elif log_generation != generation:
            # An interrupted checkpoint swapped the snapshot in but died
            # before resetting the log: every record predates the snapshot.
            report.tail_status = "stale_generation"
            report.discarded_bytes = wal_path.stat().st_size - _HEADER.size
            wal_path.unlink()
        else:
            report.tail_status = tail
            report.discarded_bytes = discarded
            report.records_scanned = len(records)
            audit_before = database.audit.log.last_sequence
            for index, record in enumerate(records):
                try:
                    apply_record(database, record)
                except RecoveryError:
                    raise
                except Exception as exc:
                    raise RecoveryError(
                        f"WAL record {index + 1} of {len(records)} failed "
                        f"to replay: {exc}"
                    ) from exc
                if record.get("t") == "commit":
                    report.commits_replayed += 1
                elif record.get("t") == "ddl":
                    report.ddl_replayed += 1
            report.audit_records_restored = (
                database.audit.log.last_sequence - audit_before
            )
            if discarded:
                with open(wal_path, "r+b") as fh:
                    fh.truncate(valid_end)
                    fh.flush()
                    os.fsync(fh.fileno())

    if model_store is not None and hasattr(model_store, "load_from_database"):
        model_store.load_from_database(database)

    report.replay_ms = (time.perf_counter_ns() - start_ns) / 1e6

    wal = WriteAheadLog(
        root,
        database,
        sync_mode=sync_mode,
        group_window_ms=group_window_ms,
        checkpoint_bytes=checkpoint_bytes,
        generation=generation,
    )
    wal._audit_seq = database.audit.log.last_sequence
    wal._qlog_pos = len(database.query_log)
    wal.last_recovery = report
    database.wal = wal
    database.transactions.wal = wal
    database.bump_invalidation_epoch()

    registry = WriteAheadLog._metrics()
    registry.counter("wal.recoveries").inc()
    registry.counter("wal.replay_records").inc(report.records_scanned)
    return database


def _repair_checkpoint_dirs(root: Path) -> None:
    """Undo whatever an interrupted checkpoint left behind.

    ``checkpoint.new`` is always garbage (the swap renames it away before
    anything else depends on it). ``checkpoint.old`` is the previous
    snapshot: restore it only if the swap died after moving the current one
    aside — once a ``checkpoint`` directory exists, old is deletable.
    """
    staging = root / "checkpoint.new"
    if staging.exists():
        shutil.rmtree(staging)
    old = root / "checkpoint.old"
    if old.exists():
        if (root / "checkpoint").exists():
            shutil.rmtree(old)
        else:
            old.rename(root / "checkpoint")


def apply_record(database: Database, record: dict) -> None:
    """Apply one WAL record to *database* — the single replay entry point.

    Used by crash recovery (:func:`open_database`) and by follower replicas
    (:mod:`flock.cluster`), so a streamed record takes exactly the path a
    recovered one would: same constraint checks, same commit machinery.
    """
    kind = record.get("t")
    if kind == "commit":
        txn = database.transactions.begin(record.get("user", "admin"))
        for name, effect_kind, data in record["effects"]:
            table = database.catalog.table(name)
            base = txn.visible_version(name)
            txn.stage(name, _replay_effect(table, base, effect_kind, data))
        database.transactions.commit(txn)
    elif kind == "ddl":
        _apply_ddl(database, record["op"])
    elif kind == "flush":
        pass  # effect-free carrier for piggybacked audit/qlog entries
    else:
        raise RecoveryError(f"unknown WAL record type {kind!r}")
    if record.get("audit"):
        database.audit.log.restore(
            [AuditRecord(**r) for r in record["audit"]]
        )
    if record.get("qlog"):
        database.query_log.extend(
            QueryLogEntry(**e) for e in record["qlog"]
        )


def _apply_ddl(database: Database, op: dict) -> None:
    kind = op["kind"]
    if kind == "create_table":
        schema = TableSchema.of(
            op["name"],
            [
                Column(
                    c["name"],
                    DataType(c["dtype"]),
                    nullable=c["nullable"],
                    primary_key=c["primary_key"],
                    hidden=c.get("hidden", False),
                )
                for c in op["columns"]
            ],
        )
        database.catalog.create_table(schema)
        if op.get("owner"):
            database.security.grant("ALL", op["name"], op["owner"])
    elif kind == "drop_table":
        database.catalog.drop_table(op["name"], if_exists=True)
    elif kind == "create_view":
        from flock.db.sql.parser import parse_statement

        database.catalog.create_view(op["name"], parse_statement(op["sql"]))
        if op.get("owner"):
            database.security.grant("ALL", op["name"], op["owner"])
    elif kind == "drop_view":
        database.catalog.drop_view(op["name"], if_exists=True)
    elif kind == "create_index":
        # Idempotent: a checkpoint taken after the CREATE INDEX already
        # restored the definition; replaying the record is then a no-op.
        database.catalog.create_index(
            op["name"], op["table"], op["column"], if_not_exists=True
        )
    elif kind == "drop_index":
        database.catalog.drop_index(op["name"], if_exists=True)
    elif kind == "create_user":
        database.security.create_user(op["name"])
    elif kind == "create_role":
        database.security.create_role(op["name"])
    elif kind == "grant":
        database.security.grant(
            op["privilege"], op.get("object"), op["principal"]
        )
    elif kind == "revoke":
        database.security.revoke(
            op["privilege"], op.get("object"), op["principal"]
        )
    else:
        raise RecoveryError(f"unknown WAL DDL kind {kind!r}")
