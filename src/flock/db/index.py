"""Hash indexes and zone maps.

Two access-path accelerators over the versioned columnar storage:

:class:`HashIndex` maps column values to ascending row positions of one
specific :class:`~flock.db.storage.TableVersion`. MVCC correctness comes from
exact version matching: a lookup is answered only for the version the index
was built against. When the visible head has moved, the index either advances
itself across the committed deltas (INSERTs append to the buckets; UPDATEs
that leave the indexed column alone change nothing in them) or is rebuilt
lazily on the next lookup — both under the statement lock regime, where the
head cannot move while any statement is in flight. A lookup against
any *other* version (e.g. a transaction reading its own staged writes)
returns ``None`` and the executor falls back to the full scan, which is
always correct because the optimizer keeps the original filter above the
index lookup (the index only has to return a superset of the matching rows —
it returns exactly the equality matches).

Zone maps (:class:`ColumnZones`) are min/max/present-count summaries per
fixed-size row range (``ZONE_ROWS``); a scan drops every zone whose
summary rules the predicate out before the filter sees a row. They are
computed lazily per version and cached on the version; INSERT versions
reuse the full-zone prefix of their base version (the first ``base.row_count``
rows are bitwise the same columns), so append-heavy workloads pay only for
the tail.

Both structures are advisory: dropping them, disabling them
(``SET flock.indexes = 0`` / ``FLOCK_INDEXES=0``) or racing them stale can
only ever route a query back to the plain scan path, never change results.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from flock.db.exec import grouping
from flock.db.types import DataType
from flock.db.vector import ColumnVector
from flock.observability.metrics import metrics
from flock.testing import faultpoints

#: Rows per zone: coarse enough that a summary costs little to build and
#: check, fine enough that a selective range prunes most of a table.
ZONE_ROWS = 8192

#: Comparison operators zone maps understand (plus "in" for IN-lists).
ZONE_OPS = ("=", "<", "<=", ">", ">=", "in")


@dataclass(frozen=True)
class IndexDef:
    """Catalog entry for one hash index: a name over one column of one table.

    ``auto`` marks the implicit primary-key index, which exists outside the
    CREATE/DROP INDEX namespace and follows the table's lifetime.
    """

    name: str
    table: str
    column: str
    auto: bool = False


class HashIndex:
    """Value -> ascending-row-ids map for one column of one table version."""

    def __init__(self, defn: IndexDef, column_position: int, dtype: DataType):
        self.defn = defn
        self.column_position = column_position
        self.dtype = dtype
        self._lock = threading.Lock()
        # The version this index reflects; -1 = never built.
        self.version_id = -1
        self._row_count = 0
        self._buckets: dict[Any, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def lookup(self, version, probes: Sequence[Any]) -> np.ndarray | None:
        """Ascending unique row positions in *version* matching any probe.

        *version* must be the table's visible head (the caller checks);
        stale indexes rebuild here, under the index lock, so concurrent
        readers of the same head race at most one rebuild.
        NULL probes match nothing, mirroring SQL equality semantics.
        """
        with self._lock:
            if self.version_id != version.version_id:
                faultpoints.reach("index.pre_rebuild")
                self._rebuild(version)
                metrics().counter("index.rebuilds").inc()
            hits = [
                self._buckets.get(_probe_key(p))
                for p in probes
                if p is not None
            ]
        hits = [h for h in hits if h is not None]
        metrics().counter("index.lookups").inc()
        if not hits:
            return np.empty(0, dtype=np.int64)
        if len(hits) == 1:
            return hits[0]
        return np.unique(np.concatenate(hits))

    def excludes(self, version, keys: set) -> bool:
        """True when the index reflects exactly *version* and none of the
        physical *keys* is a bucket key; never rebuilds. Python set
        semantics match the key kernel's: ``0.0 == -0.0``, every NaN
        distinct."""
        with self._lock:
            return (
                self.version_id == version.version_id
                and self._row_count == version.row_count
                and self._buckets.keys().isdisjoint(keys)
            )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def advance(self, prev_version_id: int, effects: Sequence[Any]) -> bool:
        """Advance the index across a commit's ordered per-table *effects*.

        Only a chain starting exactly at the version the index reflects,
        made of effects that cannot move an existing entry, applies
        incrementally: INSERTs (fresh rows append at the tail, ids from the
        old row count on) and UPDATEs that do not assign the indexed column
        (values and row positions are unchanged: a no-op on the buckets).
        Anything else (DELETE, TRUNCATE, REPLACE, an UPDATE of the indexed
        column) leaves the index stale for the next lookup to rebuild.
        Returns True when the index advanced.
        """
        with self._lock:
            if self.version_id != prev_version_id:
                return False
            for staged in effects:
                kind = staged.delta[0] if staged.delta else None
                if kind != "INSERT" and (
                    kind != "UPDATE" or self.column_position in staged.delta[2]
                ):
                    return False
            faultpoints.reach("index.pre_advance")
            for staged in effects:
                if staged.delta[0] == "INSERT":
                    self._append(staged.delta[1][self.column_position])
                self.version_id = staged.version_id
            metrics().counter("index.advances").inc()
            return True

    def _append(self, fresh: ColumnVector) -> None:
        # Appended ids are all larger than existing ones, so concatenating
        # onto an existing bucket keeps it ascending.
        start = self._row_count
        for key, ids in _build_buckets(fresh).items():
            ids = ids + start
            existing = self._buckets.get(key)
            self._buckets[key] = (
                ids if existing is None else np.concatenate([existing, ids])
            )
        self._row_count += len(fresh)

    def _rebuild(self, version) -> None:
        vector = version.columns[self.column_position]
        self._buckets = _build_buckets(vector)
        self._row_count = len(vector)
        self.version_id = version.version_id
        faultpoints.reach("index.post_rebuild")


def _probe_key(value: Any) -> Any:
    """Normalize a probe literal to the bucket-key domain.

    Buckets are keyed by physical values (int/float/str/bool — DATE is its
    int day number). Python hashing already unifies 1, 1.0 and True, which
    matches numpy's ``==`` semantics on mixed numeric comparisons, so the
    only normalization needed is unwrapping numpy scalars.
    """
    if isinstance(value, np.generic):
        return value.item()
    return value


def _build_buckets(vector: ColumnVector) -> dict[Any, np.ndarray]:
    """Ascending row positions per (non-null) value, by the key kernel."""
    keyed = grouping.key_codes([vector])
    keys = vector.take(keyed.first_rows)
    return {
        key: rows
        for key, null, rows in zip(
            keys.values.tolist(),
            keys.nulls.tolist(),
            grouping.group_rows(keyed),
        )
        if not null
    }


# ----------------------------------------------------------------------
# Zone maps
# ----------------------------------------------------------------------
class ColumnZones:
    """Min/max/present-count per fixed ZONE_ROWS range of one column."""

    __slots__ = ("zone_rows", "row_count", "mins", "maxs", "present")

    def __init__(
        self,
        zone_rows: int,
        row_count: int,
        mins: np.ndarray,
        maxs: np.ndarray,
        present: np.ndarray,
    ):
        self.zone_rows = zone_rows
        self.row_count = row_count
        self.mins = mins
        self.maxs = maxs
        self.present = present

    @property
    def zone_count(self) -> int:
        return len(self.present)


def zone_eligible(dtype: DataType) -> bool:
    """Zone maps cover the totally ordered fixed-width types."""
    return dtype in (DataType.INTEGER, DataType.FLOAT, DataType.DATE)


def _sentinels(vector: ColumnVector) -> tuple[Any, Any]:
    if vector.dtype is DataType.FLOAT:
        return np.inf, -np.inf
    info = np.iinfo(np.int64)
    return info.max, info.min


def _compute_zones(vector: ColumnVector, start_zone: int) -> tuple:
    """Per-zone (mins, maxs, present) arrays from zone *start_zone* on."""
    lo = start_zone * ZONE_ROWS
    values = vector.values[lo:]
    nulls = vector.nulls[lo:]
    n = len(values)
    starts = np.arange(0, n, ZONE_ROWS)
    if n == 0:
        empty = np.empty(0, dtype=values.dtype)
        return empty, empty.copy(), np.empty(0, dtype=np.int64)
    hi_sent, lo_sent = _sentinels(vector)
    masked = values.copy()
    masked[nulls] = hi_sent
    mins = np.minimum.reduceat(masked, starts)
    masked[nulls] = lo_sent
    # Rows already overwritten with hi_sent that are NOT null must be
    # restored before the max pass.
    masked[~nulls] = values[~nulls]
    maxs = np.maximum.reduceat(masked, starts)
    present = np.add.reduceat((~nulls).astype(np.int64), starts)
    return mins, maxs, present


def zones_for(version, column_position: int) -> ColumnZones | None:
    """The (cached) zone maps of one column of *version*.

    INSERT versions reuse the full-zone prefix of their base version when
    the base already has zones built — the first ``base.row_count`` rows of
    the column are the same arrays, so only the tail is summarized.
    """
    vector = version.columns[column_position]
    if not zone_eligible(vector.dtype):
        return None
    cache = version.zone_cache
    if cache is None:
        cache = version.zone_cache = {}
    zones = cache.get(column_position)
    if zones is not None:
        return zones
    base = version.zone_base
    base_zones = None
    if base is not None and base.zone_cache:
        base_zones = base.zone_cache.get(column_position)
    if base_zones is not None and base_zones.row_count == base.row_count:
        full = base.row_count // ZONE_ROWS
        mins, maxs, present = _compute_zones(vector, full)
        zones = ColumnZones(
            ZONE_ROWS,
            len(vector),
            np.concatenate([base_zones.mins[:full], mins]),
            np.concatenate([base_zones.maxs[:full], maxs]),
            np.concatenate([base_zones.present[:full], present]),
        )
    else:
        mins, maxs, present = _compute_zones(vector, 0)
        zones = ColumnZones(ZONE_ROWS, len(vector), mins, maxs, present)
    cache[column_position] = zones
    return zones


def zone_keep_mask(zones: ColumnZones, op: str, value: Any) -> np.ndarray:
    """Boolean keep-mask over zones for ``column <op> value``.

    Conservative: a zone is dropped only when *no* row in it can satisfy
    the predicate. All-null zones never satisfy a comparison. A NULL
    literal satisfies nothing, dropping every zone.
    """
    n = zones.zone_count
    if op == "in":
        items = [v for v in value if v is not None]
        if not items:
            return np.zeros(n, dtype=bool)
        keep = np.zeros(n, dtype=bool)
        for item in items:
            keep |= (zones.mins <= item) & (item <= zones.maxs)
    elif value is None:
        return np.zeros(n, dtype=bool)
    elif op == "=":
        keep = (zones.mins <= value) & (value <= zones.maxs)
    elif op == "<":
        keep = zones.mins < value
    elif op == "<=":
        keep = zones.mins <= value
    elif op == ">":
        keep = zones.maxs > value
    elif op == ">=":
        keep = zones.maxs >= value
    else:  # pragma: no cover - optimizer only emits ZONE_OPS
        return np.ones(n, dtype=bool)
    return keep & (zones.present > 0)


def prune_row_mask(
    version, predicates: Sequence[tuple[int, str, Any]]
) -> tuple[np.ndarray | None, int, int]:
    """Combined row keep-mask for ANDed zone *predicates* over *version*.

    Returns ``(row_mask_or_None, zones_pruned, zones_total)``; the mask is
    None when nothing can be pruned (so callers skip the filter copy).
    """
    keep: np.ndarray | None = None
    total = 0
    for column_position, op, value in predicates:
        zones = zones_for(version, column_position)
        if zones is None:
            continue
        total = zones.zone_count
        mask = zone_keep_mask(zones, op, value)
        keep = mask if keep is None else (keep & mask)
    if keep is None:
        return None, 0, total
    pruned = int(total - int(keep.sum()))
    if pruned == 0:
        return None, 0, total
    metrics().counter("index.zones_pruned").inc(pruned)
    row_mask = np.repeat(keep, ZONE_ROWS)[: version.row_count]
    return row_mask, pruned, total
