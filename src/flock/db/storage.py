"""Versioned, in-memory columnar table storage.

Every write (INSERT/UPDATE/DELETE) produces a new immutable
:class:`TableVersion`, and the full version chain is retained. This matches
the paper's temporal provenance model (§4.2 C1: "an INSERT to a table results
in a new version of the table in the provenance data model") and is what the
SQL provenance module records against.

Statistics (:class:`ColumnStats`, :class:`TableStats`) feed both the
cost-based optimizer and the inference layer's "model compression exploiting
input data statistics" (§4.1). They are per column and on demand: a
version's :class:`TableStats` summarises a column on its first request and
caches it, so a statement pays only for the columns it asks about. A
single-column primary key is distinct by definition, so its summary needs
no sort or hash — only null/min/max. Likewise an INSERT whose key index
reflects its base checks only the fresh keys
(:meth:`Table._fresh_keys_clear`), not the whole version.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from flock.db.encoding import (
    BitPackedVector,
    DictionaryVector,
    EncodedVector,
    encode_vector,
)
from flock.db.exec import grouping
from flock.db.index import HashIndex, IndexDef
from flock.db.schema import TableSchema
from flock.db.types import DataType
from flock.db.vector import Batch, ColumnVector
from flock.errors import CatalogError, ConstraintError, ExecutionError
from flock.observability.metrics import metrics
from flock.settings import Settings


def _pow2_crossed(before: int, after: int) -> bool:
    """True when the row count crossed a power-of-two boundary."""
    floor_before = 1 << (before.bit_length() - 1) if before else 0
    floor_after = 1 << (after.bit_length() - 1) if after else 0
    return floor_before != floor_after


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics for one column of one table version."""

    null_count: int
    distinct_count: int
    min_value: Any = None
    max_value: Any = None

    @classmethod
    def from_vector(
        cls, vector: ColumnVector, unique: bool = False
    ) -> "ColumnStats":
        """Summarise one column.

        ``unique=True`` promises the present values are pairwise distinct (a
        single-column primary key): the distinct count is then the present
        count, and no branch sorts or hashes. FLOAT keys holding NaN take
        the exact count, which folds every NaN into one.
        """
        # Encoded fast paths: the dictionary / packed payload already *is*
        # the distinct/min/max summary (modulo codes orphaned by deletes,
        # hence the np.unique over used codes, not the dictionary length).
        if isinstance(vector, DictionaryVector):
            codes = vector.codes
            null_count = int((codes < 0).sum())
            present = codes[codes >= 0]
            if len(present) == 0:
                return cls(null_count=null_count, distinct_count=0)
            return cls(
                null_count,
                len(present) if unique else len(np.unique(present)),
                vector.dictionary[present.min()],
                vector.dictionary[present.max()],
            )
        if isinstance(vector, BitPackedVector):
            null_mask = vector.null_mask
            null_count = int(null_mask.sum())
            present = vector.packed[~null_mask]
            if len(present) == 0:
                return cls(null_count=null_count, distinct_count=0)
            return cls(
                null_count,
                len(present) if unique else len(np.unique(present)),
                int(present.min()) + vector.offset,
                int(present.max()) + vector.offset,
            )
        if isinstance(vector, EncodedVector):
            vector = vector.materialize()
        null_count = int(vector.nulls.sum())
        present = vector.values[~vector.nulls]
        if len(present) == 0:
            return cls(null_count=null_count, distinct_count=0)
        if vector.dtype.numpy_dtype == np.dtype(object):
            values = present.tolist()
            try:
                distinct = len(values) if unique else len(set(values))
            except TypeError:
                # Unhashable payloads (MODEL columns hold dict artifacts):
                # treat every present value as distinct.
                distinct = len(values)
            if vector.dtype is DataType.TEXT:
                return cls(null_count, distinct, min(values), max(values))
            return cls(null_count, distinct)
        lo, hi = present.min(), present.max()
        if unique and not (vector.dtype is DataType.FLOAT and np.isnan(lo)):
            distinct = len(present)
        else:
            distinct = len(np.unique(present))
        return cls(null_count, distinct, lo.item(), hi.item())


class TableStats:
    """Row count plus per-column statistics for one table version.

    Each column is summarised on its first :meth:`column` request and
    cached here. Threads may race to fill one column; both compute the same
    value and the first one stored is kept.
    """

    __slots__ = ("row_count", "_schema", "_vectors", "_columns")

    def __init__(self, schema: TableSchema, vectors: Sequence[ColumnVector]):
        self.row_count = len(vectors[0]) if vectors else 0
        self._schema = schema
        self._vectors = vectors
        self._columns: dict[str, ColumnStats] = {}

    def column(self, name: str) -> ColumnStats | None:
        key = name.lower()
        found = self._columns.get(key)
        if found is not None:
            return found
        try:
            position = self._schema.index_of(name)
        except CatalogError:
            return None
        computed = ColumnStats.from_vector(
            self._vectors[position],
            unique=self._schema.primary_key_indexes == [position],
        )
        metrics().counter("stats.columns_computed").inc()
        return self._columns.setdefault(key, computed)


#: Version stamps: a random per-process token in the high bits plus a
#: counter in the low ones, so no two versions share one — across
#: processes, DROP/CREATE and recovery, where ``version_id``\s repeat.
_STAMPS = itertools.count(int.from_bytes(os.urandom(8), "big") << 64)


class TableVersion:
    """An immutable snapshot of a table's contents."""

    __slots__ = (
        "version_id", "columns", "operation", "_stats", "schema", "delta",
        "zone_cache", "zone_base", "stamp",
    )

    def __init__(
        self,
        version_id: int,
        schema: TableSchema,
        columns: Sequence[ColumnVector],
        operation: str,
    ):
        self.version_id = version_id
        self.schema = schema
        self.columns = tuple(columns)
        self.operation = operation
        self._stats: TableStats | None = None
        # Logical change relative to the base version, set by the build_*
        # methods and consumed by the write-ahead log; None for versions
        # built outside the normal write path (restore, replay seeds).
        self.delta: tuple | None = None
        # Lazily built per-column zone maps (flock.db.index.zones_for) and,
        # for INSERT versions, the base version whose zone prefix can be
        # reused (the first base.row_count rows are the same arrays).
        self.zone_cache: dict | None = None
        self.zone_base: "TableVersion | None" = None
        # Identity for caches outside this process: the scatter gather
        # asks a shard whether a table's head is still the one it merged.
        self.stamp = next(_STAMPS)

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def batch(self) -> Batch:
        return Batch(self.schema.column_names, list(self.columns))

    def stats(self) -> TableStats:
        """Per-version statistics; each column is computed on first use."""
        stats = self._stats
        if stats is None:
            stats = self._stats = TableStats(self.schema, self.columns)
        return stats


class Table:
    """A named table with a full version history.

    All mutation methods return the new :class:`TableVersion`; the caller
    (the transaction manager) decides when a version becomes the visible
    head, enabling atomic multi-table commits and rollback.
    """

    def __init__(
        self, schema: TableSchema, settings: Settings | None = None
    ):
        self.schema = schema
        # Shared with the owning catalog so SET flock.encodings takes
        # effect on the next staged version of every table at once.
        self.settings = settings if settings is not None else Settings()
        self._lock = threading.RLock()
        empty = [ColumnVector.empty(c.dtype) for c in schema.columns]
        self._versions: list[TableVersion] = [
            TableVersion(0, schema, empty, "CREATE")
        ]
        self._head = 0
        # Hash indexes over single columns, keyed by lower-cased index name.
        # A single-column primary key gets an automatic index (auto=True)
        # that lives outside the CREATE/DROP INDEX namespace.
        self._indexes: dict[str, "HashIndex"] = {}
        pk = schema.primary_key_indexes
        if len(pk) == 1:
            column = schema.columns[pk[0]]
            defn = IndexDef(
                name=f"{schema.name.lower()}_pkey",
                table=schema.name.lower(),
                column=column.name,
                auto=True,
            )
            self._indexes[defn.name] = HashIndex(defn, pk[0], column.dtype)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def head_version(self) -> TableVersion:
        with self._lock:
            return self._versions[self._head]

    @property
    def version_count(self) -> int:
        with self._lock:
            return len(self._versions)

    def version(self, version_id: int) -> TableVersion:
        with self._lock:
            for v in self._versions:
                if v.version_id == version_id:
                    return v
        raise ExecutionError(
            f"table {self.name!r} has no version {version_id}"
        )

    def versions(self) -> list[TableVersion]:
        with self._lock:
            return list(self._versions)

    @property
    def row_count(self) -> int:
        return self.head_version.row_count

    def scan(self, version_id: int | None = None) -> Batch:
        """The table contents as one Batch (head or a historical version)."""
        version = (
            self.head_version if version_id is None else self.version(version_id)
        )
        return version.batch()

    def stats(self) -> TableStats:
        return self.head_version.stats()

    # ------------------------------------------------------------------
    # Write side — builds staged versions; `publish` makes one visible.
    # ------------------------------------------------------------------
    def build_insert(
        self, rows: Iterable[Sequence[Any]], base: TableVersion | None = None
    ) -> TableVersion:
        """A staged new version with *rows* appended to *base* (default head)."""
        base = base or self.head_version
        rows = list(rows)
        width = len(self.schema)
        for row in rows:
            if len(row) != width:
                raise ExecutionError(
                    f"INSERT row has {len(row)} values, table {self.name!r} "
                    f"has {width} columns"
                )
        fresh = [
            ColumnVector.from_values(col.dtype, [row[i] for row in rows])
            for i, col in enumerate(self.schema.columns)
        ]
        return self.build_append(fresh, base)

    def build_append(
        self,
        fresh: Sequence[ColumnVector],
        base: TableVersion | None = None,
    ) -> TableVersion:
        """A staged INSERT version appending pre-built column vectors.

        Split out of :meth:`build_insert` so WAL replay — which logs the
        appended vectors, not the source rows — re-enters the same
        constraint checks the original execution ran.
        """
        base = base or self.head_version
        new_columns = []
        for i, col in enumerate(self.schema.columns):
            if not col.nullable and fresh[i].has_nulls():
                raise ConstraintError(
                    f"NULL in NOT NULL column {col.name!r} of {self.name!r}"
                )
            new_columns.append(base.columns[i].concat(fresh[i]))
        if not self._fresh_keys_clear(fresh, base):
            self._check_primary_key(new_columns)
        staged = self._staged(new_columns, "INSERT", base)
        staged.delta = ("INSERT", tuple(fresh))
        staged.zone_base = base
        return staged

    def build_delete(
        self, keep_mask: np.ndarray, base: TableVersion | None = None
    ) -> TableVersion:
        """A staged version keeping only rows where *keep_mask* is True."""
        base = base or self.head_version
        new_columns = [c.filter(keep_mask) for c in base.columns]
        staged = self._staged(new_columns, "DELETE", base)
        staged.delta = ("DELETE", keep_mask)
        return staged

    def build_update(
        self,
        row_mask: np.ndarray,
        assignments: dict[int, ColumnVector],
        base: TableVersion | None = None,
    ) -> TableVersion:
        """A staged version with columns replaced where *row_mask* is True.

        ``assignments`` maps column index to a vector of *len(row_mask.sum())*
        replacement values.
        """
        base = base or self.head_version
        new_columns = []
        for i, (col, vec) in enumerate(zip(self.schema.columns, base.columns)):
            if i not in assignments:
                new_columns.append(vec)
                continue
            replacement = assignments[i]
            values = vec.values.copy()
            nulls = vec.nulls.copy()
            values[row_mask] = replacement.values
            nulls[row_mask] = replacement.nulls
            updated = ColumnVector(col.dtype, values, nulls)
            if not col.nullable and updated.has_nulls():
                raise ConstraintError(
                    f"NULL in NOT NULL column {col.name!r} of {self.name!r}"
                )
            new_columns.append(updated)
        # The base already holds unique keys at fixed row positions, so
        # only an UPDATE that writes a key column can break them.
        if not assignments.keys().isdisjoint(self.schema.primary_key_indexes):
            self._check_primary_key(new_columns)
        staged = self._staged(new_columns, "UPDATE", base)
        staged.delta = ("UPDATE", row_mask, assignments)
        return staged

    def build_truncate(self, base: TableVersion | None = None) -> TableVersion:
        base = base or self.head_version
        empty = [ColumnVector.empty(c.dtype) for c in self.schema.columns]
        staged = self._staged(empty, "TRUNCATE", base)
        staged.delta = ("TRUNCATE",)
        return staged

    def publish(self, staged: TableVersion) -> None:
        """Make a staged version the visible head (called at commit)."""
        with self._lock:
            self._versions.append(staged)
            self._head = len(self._versions) - 1

    # ------------------------------------------------------------------
    # Hash indexes
    # ------------------------------------------------------------------
    def create_index(self, defn: "IndexDef") -> "HashIndex":
        """Attach a hash index over one column (validated by the catalog)."""
        position = self.schema.index_of(defn.column)
        dtype = self.schema.columns[position].dtype
        with self._lock:
            idx = HashIndex(defn, position, dtype)
            self._indexes[defn.name.lower()] = idx
            return idx

    def drop_index(self, name: str) -> None:
        with self._lock:
            self._indexes.pop(name.lower(), None)

    def index(self, name: str) -> "HashIndex | None":
        with self._lock:
            return self._indexes.get(name.lower())

    def indexes(self) -> list["HashIndex"]:
        with self._lock:
            return list(self._indexes.values())

    def index_on_column(self, column_position: int) -> "HashIndex | None":
        """The first index over *column_position*, if any (for planning)."""
        with self._lock:
            for idx in self._indexes.values():
                if idx.column_position == column_position:
                    return idx
        return None

    def maintain_indexes(
        self, prev_head_id: int, effects: Sequence[TableVersion]
    ) -> None:
        """Advance indexes across a just-published commit when possible.

        *effects* is the ordered chain of staged versions this table saw in
        the committing transaction (not just the final one — intermediate
        versions of a multi-statement transaction carry the per-statement
        deltas). Indexes advance across INSERTs and UPDATEs that leave their
        column alone (:meth:`HashIndex.advance`); the rest are left stale,
        and the next lookup rebuilds them against the new head.
        """
        for idx in self.indexes():
            idx.advance(prev_head_id, effects)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _staged(
        self,
        columns: Sequence[ColumnVector],
        operation: str,
        base: TableVersion,
    ) -> TableVersion:
        with self._lock:
            next_id = self._versions[-1].version_id + 1
        columns = self._encode_staged(columns, base)
        return TableVersion(next_id, self.schema, columns, operation)

    def _encode_staged(
        self, columns: Sequence[ColumnVector], base: TableVersion
    ) -> list[ColumnVector]:
        """Apply (or strip) column encodings for a staged version.

        Probing a plain column for encodability costs O(n log n), so plain
        columns are only re-probed when the row count crosses a power-of-two
        boundary — amortized O(log n) probes over a table's life. Columns
        that are already encoded (the concat fast paths keep appends
        encoded) or whose base was encoded (UPDATE decodes to mutate) are
        always re-encoded. With encodings off, every new version is forced
        back to plain vectors.
        """
        if not self.settings.encodings:
            return [
                c.materialize() if isinstance(c, EncodedVector) else c
                for c in columns
            ]
        base_columns = base.columns if base is not None else ()
        out: list[ColumnVector] = []
        for i, column in enumerate(columns):
            if isinstance(column, EncodedVector):
                out.append(column)
                continue
            base_vec = base_columns[i] if i < len(base_columns) else None
            if isinstance(base_vec, EncodedVector) or _pow2_crossed(
                0 if base_vec is None else len(base_vec), len(column)
            ):
                out.append(encode_vector(column))
            else:
                out.append(column)
        return out

    def _fresh_keys_clear(
        self, fresh: Sequence[ColumnVector], base: TableVersion
    ) -> bool:
        """The primary-key check over the appended rows alone.

        True when the single-column key of *fresh* holds no NULL, no repeat
        and no key of *base*, judged against the automatic key index, which
        must reflect exactly *base* and *base* be the visible head. False
        means "not shown" and the caller runs the full check, which also
        words every error. The index is never rebuilt here, and WAL replay
        never builds it, so recovery keeps the full check.
        """
        pk = self.schema.primary_key_indexes
        if len(pk) != 1 or base is not self.head_version:
            return False
        index = self.index(f"{self.schema.name.lower()}_pkey")
        # An unbuilt or stale index fails here before the keys are copied
        # out; excludes() checks the version again under the index lock.
        if (
            index is None
            or not index.defn.auto
            or index.version_id != base.version_id
        ):
            return False
        keys = fresh[pk[0]]
        if keys.has_nulls():
            return False
        values = keys.values.tolist()
        distinct = set(values)
        if len(distinct) != len(values) or not index.excludes(base, distinct):
            return False
        metrics().counter("pkey.delta_checks").inc()
        return True

    def _check_primary_key(self, columns: Sequence[ColumnVector]) -> None:
        """Reject NULL or duplicate keys in a whole version with one
        :func:`~flock.db.exec.grouping.key_codes` pass: a duplicate exists
        exactly when there are fewer distinct keys than rows. The error
        names the first violating row in row order."""
        keys = [columns[i] for i in self.schema.primary_key_indexes]
        if not keys:
            return
        metrics().counter("pkey.full_checks").inc()
        keyed = grouping.key_codes(keys)
        n = len(keyed.codes)
        if len(keyed.first_rows) == n and not any(k.has_nulls() for k in keys):
            return
        rows = np.arange(n, dtype=np.int64)
        violating = keyed.null_any | (keyed.first_rows[keyed.codes] != rows)
        row = int(np.argmax(violating))
        if keyed.null_any[row]:
            raise ConstraintError(
                f"NULL in primary key of table {self.name!r}"
            )
        key = grouping.key_tuples(keys, rows[row : row + 1])[0]
        raise ConstraintError(
            f"duplicate primary key {key!r} in table {self.name!r}"
        )
