"""Database persistence: snapshot to disk and restore.

The paper calls for "data abstractions backed by query, lineage-tracking and
storage technology that can cover heterogeneous, versioned, and *durable*
data" (§4.2). This module makes a :class:`~flock.db.Database` durable: the
snapshot covers every table's **full version history** (temporal fidelity —
historical versions restore scan-identical), views (as re-parseable SQL),
principals and grants, the hash-chained audit log (which still verifies
after restore) and the query log (so lazy provenance capture works across
restarts). Deployed models ride along inside the ``flock_models`` table's
MODEL-typed column.

Format: a directory with one ``manifest.json`` plus one JSON file per table.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any

import numpy as np

from flock.db.audit import AuditRecord
from flock.db.engine import Database, QueryLogEntry
from flock.db.schema import Column, TableSchema
from flock.db.storage import TableVersion
from flock.db.types import DataType
from flock.db.vector import ColumnVector
from flock.errors import FlockError
from flock.testing import faultpoints

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def save_database(
    database: Database,
    path: str | Path,
    *,
    wal_generation: int | None = None,
    durable: bool = False,
) -> None:
    """Snapshot *database* into the directory *path* (created if needed).

    ``wal_generation`` stamps the snapshot with the write-ahead-log
    generation that starts *after* it (see :mod:`flock.db.wal`); ``durable``
    fsyncs every file and the directory, which checkpointing requires before
    it may truncate the log.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)

    table_names = database.catalog.table_names()
    manifest: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "tables": table_names,
        "views": {
            name: str(database.catalog.view(name))
            for name in database.catalog.view_names()
        },
        "indexes": [
            {"name": d.name, "table": d.table, "column": d.column}
            for d in database.catalog.index_defs()
        ],
        "principals": dump_principals(database),
        "audit": [_dump_audit_record(r) for r in database.audit.log],
        "query_log": [_dump_qlog_entry(e) for e in database.query_log],
    }
    if wal_generation is not None:
        manifest["wal_generation"] = wal_generation
    _write_json(root / "manifest.json", manifest, durable)

    faultpoints.reach("checkpoint.mid_write")

    for name in table_names:
        table = database.catalog.table(name)
        payload = {
            "schema": [
                {
                    "name": c.name,
                    "dtype": c.dtype.value,
                    "nullable": c.nullable,
                    "primary_key": c.primary_key,
                    "hidden": c.hidden,
                }
                for c in table.schema.columns
            ],
            "versions": [
                _dump_version(v) for v in table.versions()
            ],
        }
        _write_json(root / f"table_{name.lower()}.json", payload, durable)

    if durable:
        _fsync_dir(root)


def _write_json(path: Path, obj: Any, durable: bool) -> None:
    data = json.dumps(obj)
    if not durable:
        path.write_text(data)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def dump_values(vector: ColumnVector) -> list:
    """One column's values as JSON-safe Python objects (NULL as None).

    Built from :meth:`ColumnVector.stored_values`; the non-finite float
    markers are patched in by position afterwards.
    """
    # One decode of an encoded vector, shared by both passes below.
    plain = ColumnVector(vector.dtype, vector.values, vector.nulls)
    values = plain.stored_values()
    physical = plain.values
    if physical.dtype == object:
        # Opaque payloads may hold numpy scalars or non-finite floats.
        values = [v if type(v) is str else _dump_object(v) for v in values]
    elif physical.dtype.kind == "f" and not np.isfinite(physical).all():
        for i in np.flatnonzero(~np.isfinite(physical) & ~plain.nulls).tolist():
            values[i] = {"__float__": repr(values[i])}
    return values


def _dump_object(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        # float() first: repr(np.float64(nan)) spells the type out.
        return {"__float__": repr(float(value))}
    if hasattr(value, "item"):
        return value.item()
    return value


def load_values(values: list) -> list:
    """Invert :func:`dump_values` (decode non-finite float markers)."""
    return [
        float(v["__float__"]) if isinstance(v, dict) and "__float__" in v
        else v
        for v in values
    ]


def _dump_version(version: TableVersion) -> dict:
    return {
        "version_id": version.version_id,
        "operation": version.operation,
        "columns": [dump_values(vector) for vector in version.columns],
    }


def dump_principals(database: Database) -> list[dict]:
    out = []
    for key, principal in database.security._principals.items():
        out.append(
            {
                "name": principal.name,
                "is_role": principal.is_role,
                "roles": sorted(principal.roles),
                "grants": {
                    obj: sorted(privs)
                    for obj, privs in principal.grants.items()
                },
            }
        )
    return out


def _dump_audit_record(record: AuditRecord) -> dict:
    return {
        "sequence": record.sequence,
        "timestamp": record.timestamp,
        "user": record.user,
        "action": record.action,
        "object_name": record.object_name,
        "detail": record.detail,
        "success": record.success,
        "previous_digest": record.previous_digest,
        "digest": record.digest,
    }


def _dump_qlog_entry(entry: QueryLogEntry) -> dict:
    return {
        "sql": entry.sql,
        "user": entry.user,
        "timestamp": entry.timestamp,
        "statement_type": entry.statement_type,
        "success": entry.success,
        "duration_ms": entry.duration_ms,
    }


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def load_database(
    path: str | Path,
    model_store=None,
    scorer=None,
    optimizer=None,
) -> Database:
    """Restore a snapshot into a fresh :class:`Database`."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise FlockError(f"no database snapshot at {root}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != FORMAT_VERSION:
        raise FlockError(
            f"unsupported snapshot format {manifest.get('format_version')!r}"
        )

    database = Database(
        model_store=model_store,
        scorer=scorer,
        optimizer=optimizer,
    )

    for name in manifest["tables"]:
        payload = json.loads((root / f"table_{name.lower()}.json").read_text())
        schema = TableSchema.of(
            name,
            [
                Column(
                    c["name"],
                    DataType(c["dtype"]),
                    nullable=c["nullable"],
                    primary_key=c["primary_key"],
                    hidden=c.get("hidden", False),
                )
                for c in payload["schema"]
            ],
        )
        table = database.catalog.create_table(schema)
        # Replace the implicit empty history with the stored one.
        versions = [
            _load_version(schema, v) for v in payload["versions"]
        ]
        if versions and database.encodings_enabled():
            # Encoded chunks survive round-trips: the head version (the one
            # scans read) comes back encoded; historical versions stay
            # plain — they are read rarely and decode bit-identically
            # either way.
            from flock.db.encoding import encode_columns

            head = versions[-1]
            head.columns = tuple(encode_columns(head.columns, True))
        table._versions = versions
        table._head = len(versions) - 1

    from flock.db.sql.parser import parse_statement

    for view_name, view_sql in manifest["views"].items():
        database.catalog.create_view(view_name, parse_statement(view_sql))

    # Secondary-index definitions (snapshots from before the field lack
    # it). Bucket contents are not persisted — the first lookup rebuilds
    # them lazily against the restored head version.
    for d in manifest.get("indexes", []):
        database.catalog.create_index(
            d["name"], d["table"], d["column"], if_not_exists=True
        )

    load_principals(database, manifest["principals"])

    database.audit.log._records = [
        AuditRecord(**r) for r in manifest["audit"]
    ]
    if manifest["audit"]:
        import itertools

        database.audit.log._sequence = itertools.count(
            manifest["audit"][-1]["sequence"] + 1
        )

    database.query_log = [
        QueryLogEntry(**e) for e in manifest["query_log"]
    ]
    return database


def _load_version(schema: TableSchema, payload: dict) -> TableVersion:
    vectors = []
    for column, values in zip(schema.columns, payload["columns"]):
        # DATE columns hold day numbers, which from_values takes as they are.
        vectors.append(
            ColumnVector.from_values(column.dtype, load_values(values))
        )
    return TableVersion(
        payload["version_id"], schema, vectors, payload["operation"]
    )


def load_principals(database: Database, payloads: list[dict]) -> None:
    security = database.security
    for p in payloads:
        if p["name"] == "admin":
            continue
        if p["is_role"]:
            security.create_role(p["name"])
        else:
            security.create_user(p["name"])
    for p in payloads:
        principal = security.principal(p["name"])
        principal.roles = set(p["roles"])
        principal.grants = {
            obj: set(privs) for obj, privs in p["grants"].items()
        }
