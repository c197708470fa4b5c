"""flock.shard — hash-sharded tables behind ``flock.connect(shards=N)``.

One :class:`ShardedCluster` coordinates N per-shard engines, each a full
durable :class:`~flock.db.Database` (own WAL and checkpoint directory,
indexes, zone maps) — or, with ``replicas=M``, a full
:class:`~flock.cluster.FlockCluster` so every shard also gets a replicated
read tier.

Placement: rows of a table with a PRIMARY KEY hash on the key —
``crc32(repr(key)) % N`` over canonicalized key values, so INSERT routing
and SELECT shard-key extraction always agree. Tables without a primary key
have no shard key; their rows are pinned to shard 0. Every table (and every
model, view, index and principal) exists on *every* shard plus the
in-memory coordinator engine: DDL and security statements broadcast, so
shard catalogs never diverge and any shard can plan any statement.

Routing:

- point reads/writes whose WHERE pins every primary-key column by
  equality (or a single-column ``IN`` hashing to one shard) run on that
  shard alone;
- every other read scatters to all shards and merges through
  :mod:`flock.shard.merge`, whose hidden global-sequence discipline keeps
  results bit-identical to a single-engine run;
- multi-shard INSERTs scatter rows by key and compensate (delete the
  inserted sequence numbers) if any shard fails, so a failed scatter never
  leaves partial rows behind;
- DDL runs two-phase: the coordinator validates and applies first (a
  failure touches nothing), then every shard applies; a shard failure
  rolls the creates back everywhere.

Out of scope, by design (raises :class:`~flock.errors.ShardError`):
explicit transactions (statements autocommit) and UPDATEs that assign to
a primary-key column (rows would have to move between shards).
"""

from __future__ import annotations

import itertools
import json
import threading
import zlib
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from flock.db.binder import bind_insert_values, insert_select_columns
from flock.db.engine import is_read_only
from flock.db.persist import load_principals
from flock.db.plancache import CachedPlan, parameter_rows
from flock.db.result import QueryResult
from flock.db.schema import Column, TableSchema
from flock.db.sql import ast_nodes as ast
from flock.db.sql.parser import parse_statement
from flock.db.txn import ReadWriteLock
from flock.db.types import DataType, date_to_days
from flock.db.vector import ColumnVector
from flock.errors import FlockError, ShardError
from flock.proc.facade import (
    RemoteClusterFacade,
    RemoteDatabaseFacade,
    RemoteRegistryFacade,
    rebuild_version,
)
from flock.proc.supervisor import open_handle
from flock.shard.merge import SEQ_COLUMN, GatherCache, run_scatter

#: Cartesian-product cap for multi-valued pinned keys (IN lists): beyond
#: this a scatter is cheaper than routing per key.
_MAX_PINNED_KEYS = 64


# ----------------------------------------------------------------------
# Shard-key hashing
# ----------------------------------------------------------------------
def shard_of(key: tuple, n_shards: int) -> int:
    """The shard owning *key* (a tuple of canonicalized key values)."""
    return zlib.crc32(repr(key).encode("utf-8")) % n_shards


def canonical_key_value(column: Column, value: Any) -> Any:
    """One key value in canonical Python form, so equal keys hash equal.

    DATE strings become day numbers, exactly as storage holds them, and
    numeric spellings collapse — ``5``, ``5.0`` and ``numpy.int64(5)`` in
    a WHERE literal must land on the shard an INSERT stored the key on
    (INSERT keys come from the bound columns' ``stored_values()``, which
    is already this form).
    """
    if column.dtype is DataType.DATE and isinstance(value, str):
        value = date_to_days(value)
    if value is None:
        return None
    if column.dtype in (DataType.INTEGER, DataType.DATE):
        return int(value)
    if column.dtype is DataType.FLOAT:
        return float(value)
    if column.dtype is DataType.BOOLEAN:
        return bool(value)
    if column.dtype is DataType.TEXT:
        return str(value)
    return value


# ----------------------------------------------------------------------
# Shard-key extraction (sits next to the read/write classification)
# ----------------------------------------------------------------------
def _constant_value(
    expr: ast.Expr, params: Sequence[Any] | None
) -> tuple[bool, Any]:
    if isinstance(expr, ast.Literal):
        return True, expr.value
    if isinstance(expr, ast.Parameter):
        if params is not None and expr.index < len(params):
            return True, params[expr.index]
    return False, None


def _match_pin(
    schema: TableSchema, expr: ast.Expr, params: Sequence[Any] | None
) -> tuple[int | None, list[Any]]:
    """``(column position, candidate values)`` pinned by one conjunct."""
    if isinstance(expr, ast.BinaryOp) and expr.op == "=":
        for column_side, value_side in (
            (expr.left, expr.right),
            (expr.right, expr.left),
        ):
            if not isinstance(column_side, ast.ColumnRef):
                continue
            known, value = _constant_value(value_side, params)
            if known and schema.has_column(column_side.name):
                return schema.index_of(column_side.name), [value]
    if (
        isinstance(expr, ast.InList)
        and not expr.negated
        and isinstance(expr.operand, ast.ColumnRef)
        and schema.has_column(expr.operand.name)
    ):
        values = []
        for item in expr.items:
            known, value = _constant_value(item, params)
            if not known:
                return None, []
            values.append(value)
        if values:
            return schema.index_of(expr.operand.name), values
    return None, []


def pinned_keys(
    schema: TableSchema,
    where: ast.Expr | None,
    params: Sequence[Any] | None,
) -> list[tuple] | None:
    """Every key the WHERE clause restricts the statement to, or None.

    Keys are pinned only by *top-level AND conjuncts* — a disjunction over
    the key never pins. Multi-valued pins (IN lists) are allowed on a
    single conjunct; the cartesian product is capped, past which the
    caller falls back to scatter/broadcast.
    """
    key_positions = schema.primary_key_indexes
    if where is None or not key_positions:
        return None
    pinned: dict[int, list[Any]] = {}
    for conjunct in ast.conjuncts(where):
        position, values = _match_pin(schema, conjunct, params)
        if position is not None and position not in pinned:
            pinned[position] = values
    if not set(key_positions) <= set(pinned):
        return None
    candidates = [pinned[p] for p in key_positions]
    total = 1
    for values in candidates:
        total *= len(values)
    if total > _MAX_PINNED_KEYS:
        return None
    keys = []
    for combo in itertools.product(*candidates):
        keys.append(
            tuple(
                canonical_key_value(schema.columns[p], value)
                for p, value in zip(key_positions, combo)
            )
        )
    return keys


def _has_subquery(statement: ast.Select) -> bool:
    """Whether any clause holds an IN (SELECT ...), EXISTS or scalar
    subquery."""
    subquery_nodes = (ast.InQuery, ast.Exists, ast.ScalarSubquery)
    return any(
        isinstance(node, subquery_nodes)
        for _, expr in statement.clauses()
        for node in expr.walk()
    )


# ----------------------------------------------------------------------
# One shard
# ----------------------------------------------------------------------
class _Shard:
    """One hash partition behind a handle (see :mod:`flock.proc.supervisor`).

    The worker op table builds the shard's stack — a durable engine, or a
    full :class:`~flock.cluster.FlockCluster` when the shard carries
    replicas — in this process or in a worker process. On both transports
    ``database``/``registry``/``cluster`` are the facades of
    :mod:`flock.proc.facade`: ``database`` is always the shard's *primary*
    engine (the scatter paths write and snapshot there), while ``execute``
    routes through the shard's replication router when replicas are
    attached, so single-shard reads still fan across its followers.
    """

    def __init__(self, index: int, path: Path, handle):
        self.index = index
        self.path = path
        self.handle = handle
        self.database = RemoteDatabaseFacade(handle)
        self.registry = RemoteRegistryFacade(handle)
        self.cluster = (
            RemoteClusterFacade(handle)
            if handle.config.get("replicas")
            else None
        )

    @property
    def pid(self) -> int:
        return self.handle.pid

    @property
    def healthy(self) -> bool:
        return self.handle.healthy

    def execute(self, sql, params=None, user="admin") -> QueryResult:
        return self.handle.request(
            "execute", sql=sql,
            params=None if params is None else list(params), user=user,
        )

    def head_versions(self, names, known=None) -> dict:
        """``{name: (stamp, version)}`` for *names*, taken under one
        acquisition of the shard's statement read lock (the merge path's
        gather contract). ``version`` is None where the stamp equals
        ``known[name]``: that head was not shipped."""
        shipped = self.handle.request(
            "head_versions", names=list(names), known=known or {}
        )
        return {
            name: (stamp, rebuild_version(payload) if payload else None)
            for name, (stamp, payload) in shipped.items()
        }

    def set_fault(self, name: str, action: str = "error", after: int = 1,
                  delay_ms: float = 1.0) -> None:
        """Arm a faultpoint where this shard runs (test control)."""
        self.handle.request(
            "set_fault", name=name, action=action, after=after,
            delay_ms=delay_ms,
        )

    def close(self) -> None:
        self.handle.close()


# ----------------------------------------------------------------------
# The registry facade: deploys broadcast, reads hit the coordinator
# ----------------------------------------------------------------------
class ShardRegistry:
    """Model registry over a sharded cluster.

    Deploys broadcast to the coordinator and every shard (so any shard can
    score single-shard PREDICT queries and the coordinator can score
    scattered ones); version numbering is deterministic, so all registries
    assign the same versions. Everything else delegates to the
    coordinator's registry.
    """

    def __init__(self, cluster: "ShardedCluster"):
        self._cluster = cluster

    def deploy(self, name, graph, **kwargs):
        return self.deploy_many([(name, graph)], **kwargs)[0]

    def deploy_many(self, models, **kwargs):
        cluster = self._cluster
        with cluster._ops.write_locked():
            versions = cluster._coordinator_registry.deploy_many(
                models, **kwargs
            )
            for shard in cluster.shards:
                shard.registry.deploy_many(models, **kwargs)
        return versions

    def __getattr__(self, item):
        return getattr(self._cluster._coordinator_registry, item)


# ----------------------------------------------------------------------
# The cluster
# ----------------------------------------------------------------------
class ShardedCluster:
    """N hash shards behind one ``execute()`` — see the module docstring."""

    def __init__(
        self,
        path,
        *,
        shards: int = 2,
        replicas: int = 0,
        cross_optimizer=None,
        sync_mode: str = "commit",
        group_window_ms: float = 1.0,
        checkpoint_bytes: int | None = None,
        max_staleness: int | None = None,
        process: bool | None = None,
    ):
        if path is None:
            raise ShardError(
                "ShardedCluster needs a database directory: every shard "
                "keeps its own write-ahead log"
            )
        if shards < 1:
            raise ShardError(f"shards must be >= 1, got {shards}")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.n_shards = shards
        self.replicas = replicas
        self._open_kwargs = dict(
            sync_mode=sync_mode,
            group_window_ms=group_window_ms,
            checkpoint_bytes=checkpoint_bytes,
        )
        self._max_staleness = max_staleness
        from flock.proc import proc_enabled

        #: The transport seam: explicit ``process=`` wins, else FLOCK_PROC.
        self._process = proc_enabled(process)
        self._check_manifest()

        import flock
        from flock.client import memory_session

        coordinator_session = memory_session(cross_optimizer)
        self.coordinator = coordinator_session.db
        self._coordinator_registry = coordinator_session.registry
        self.cross_optimizer = coordinator_session.cross_optimizer

        self.shards = [self._open_shard(i) for i in range(shards)]

        # Writes and DDL exclusive, scattered reads shared: a gather must
        # never observe shard A before and shard B after one scatter write.
        # Always acquired before any engine lock, so ordering is acyclic.
        self._ops = ReadWriteLock()
        self._seq_lock = threading.Lock()
        self._next_seq: dict[str, int] = {}
        self._routes_lock = threading.Lock()
        self._routes = {"single": 0, "scatter": 0, "broadcast": 0, "ddl": 0}
        #: Merged snapshots scattered reads reuse until a shard's head moves.
        self.gather_cache = GatherCache()
        self._closed = False

        self.registry = ShardRegistry(self)
        self.session = flock.FlockSession(
            self.coordinator, self.registry, self.cross_optimizer
        )
        # One catalog summary per shard drives the whole bring-up; shard
        # 0's also carries the model rows the coordinator registry needs.
        summaries = [
            shard.handle.request("catalog_summary", model_rows=index == 0)
            for index, shard in enumerate(self.shards)
        ]
        self._reconcile_shards(summaries)
        self._mirror_catalog(summaries[0])
        self._recover_sequences(summaries)

    @property
    def backend(self) -> str:
        return "process" if self._process else "thread"

    # -- bring-up ------------------------------------------------------
    def _check_manifest(self) -> None:
        manifest = self.path / "shards.json"
        if manifest.exists():
            recorded = json.loads(manifest.read_text()).get("shards")
            if recorded != self.n_shards:
                raise ShardError(
                    f"{self.path} was created with shards={recorded}; "
                    f"reopening with shards={self.n_shards} would strand "
                    f"rows on missing shards"
                )
        else:
            manifest.write_text(json.dumps({"shards": self.n_shards}))

    def _open_shard(self, index: int) -> _Shard:
        shard_path = self.path / f"shard-{index}"
        config = {
            "role": "shard",
            "name": f"shard-{index}",
            "path": str(shard_path),
            "open_kwargs": dict(self._open_kwargs),
            "replicas": self.replicas,
            "max_staleness": self._max_staleness,
        }
        return _Shard(index, shard_path, open_handle(config, self._process))

    def _reconcile_shards(self, summaries: list[dict]) -> None:
        """Resume any DDL or deploy broadcast a crash cut short mid-fleet.

        Broadcasts apply to shard 0 first, then 1..N-1 in order, so after
        a crash shard 0 always holds the longest-applied prefix. Replaying
        the missing tail onto the lagging shards — through their engines,
        so the repair itself is WAL-logged — restores the broadcast
        invariant (tables, views, indexes, model deploys) before the
        coordinator mirrors shard 0's catalog.
        """
        source = summaries[0]
        src_tables, src_views = source["tables"], source["views"]
        src_indexes = {d.name: d for d in source["indexes"]}
        for shard, have in zip(self.shards[1:], summaries[1:]):
            db = shard.database
            # Drops first (views before the tables they may reference):
            # an interrupted DROP broadcast resumes forward.
            for name in set(have["views"]) - set(src_views):
                db.execute(f"DROP VIEW IF EXISTS {name}")
            for name in set(have["tables"]) - set(src_tables):
                db.execute(f"DROP TABLE IF EXISTS {name}")
            for name in sorted(set(src_tables) - set(have["tables"])):
                columns = [
                    ast.ColumnDef(
                        c.name,
                        str(c.dtype),
                        nullable=c.nullable,
                        primary_key=c.primary_key,
                        hidden=c.hidden,
                    )
                    for c in src_tables[name].columns
                ]
                db.execute(str(ast.CreateTable(name, columns)))
            for name in sorted(set(src_views) - set(have["views"])):
                db.execute(f"CREATE VIEW {name} AS {src_views[name]}")
            # Re-read: the table drops and creates above moved indexes.
            indexes = {d.name for d in db.catalog.index_defs()}
            for name in indexes - set(src_indexes):
                db.execute(f"DROP INDEX IF EXISTS {name}")
            for name in sorted(set(src_indexes) - indexes):
                defn = src_indexes[name]
                db.execute(
                    f"CREATE INDEX {name} ON {defn.table} ({defn.column})"
                )
            for model, numbers in source["models"].items():
                known = set(have["models"].get(model, ()))
                # Missing versions are always a suffix (deploys broadcast
                # in shard order), so redeploying in version order keeps
                # the deterministic numbering aligned.
                for number in numbers:
                    if number in known:
                        continue
                    version = self.shards[0].registry.version(model, number)
                    shard.registry.deploy(
                        model,
                        version.graph,
                        user=version.created_by,
                        description=version.description,
                        metrics=dict(version.metrics),
                        training_run_id=version.training_run_id,
                    )

    def _mirror_catalog(self, source: dict) -> None:
        """Rebuild the coordinator's catalog from shard 0 on reopen.

        The coordinator is in-memory (it holds no rows, so there is
        nothing to make durable); its schema authority is reconstructed
        from shard 0, whose catalog is — by the broadcast invariant —
        identical to every other shard's, minus the hidden sequence
        column.
        """
        coordinator = self.coordinator
        for name, schema in source["tables"].items():
            if coordinator.catalog.has_table(name):
                continue  # flock_models, pre-bound by the registry
            coordinator.catalog.create_table(
                TableSchema.of(
                    name,
                    [
                        Column(
                            c.name,
                            c.dtype,
                            nullable=c.nullable,
                            primary_key=c.primary_key,
                        )
                        for c in schema.visible_columns
                    ],
                )
            )
        for view_name, text in source["views"].items():
            if not coordinator.catalog.has_view(view_name):
                coordinator.catalog.create_view(
                    view_name, parse_statement(text)
                )
        for defn in source["indexes"]:
            if defn.column.lower() == SEQ_COLUMN:
                continue
            coordinator.catalog.create_index(
                defn.name, defn.table, defn.column, if_not_exists=True
            )
        # Principals and grants, exactly as persist restores them.
        load_principals(coordinator, source["principals"])
        self._coordinator_registry.load_rows(source.get("model_rows", ()))

    def _recover_sequences(self, summaries: list[dict]) -> None:
        """Next global sequence per table: max over shards, plus one."""
        for name in self.coordinator.catalog.table_names():
            schema = self.coordinator.catalog.schema(name)
            if not schema.primary_key_indexes:
                continue
            self._next_seq[name.lower()] = max(
                summary["next_sequence"].get(name.lower(), 0)
                for summary in summaries
            )

    def _take_sequences(self, table_name: str, count: int) -> int:
        with self._seq_lock:
            start = self._next_seq.setdefault(table_name.lower(), 0)
            self._next_seq[table_name.lower()] = start + count
        return start

    def _count_route(self, kind: str) -> None:
        with self._routes_lock:
            self._routes[kind] += 1

    # -- the execution surface -----------------------------------------
    def execute(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        user: str = "admin",
        timeout: float | None = None,
    ) -> QueryResult:
        self._check_open()
        # The coordinator's plan cache parses the statement once (and
        # prepares a scattered read's plan once); parameters are checked
        # before routing so every shard sees only well-bound statements.
        entry = self.coordinator.plan_cache.lookup(sql)
        entry.check_params(params)
        statement = entry.statement
        if isinstance(statement, (ast.Begin, ast.Commit, ast.Rollback)):
            raise ShardError(
                "explicit transactions are not supported through the shard "
                "router; statements autocommit"
            )
        if is_read_only(statement):
            return self._execute_read(entry, params, user)
        if isinstance(statement, ast.Insert):
            with self._ops.write_locked():
                return self._execute_insert(statement, [params], user)
        if isinstance(statement, (ast.Update, ast.Delete)):
            with self._ops.write_locked():
                return self._execute_update_delete(
                    statement, sql, params, user
                )
        with self._ops.write_locked():
            return self._broadcast_ddl(statement, sql, params, user)

    def submit(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        user: str = "admin",
        timeout: float | None = None,
    ):
        from flock.client import _ImmediateFuture

        try:
            return _ImmediateFuture(
                result=self.execute(sql, params, user=user)
            )
        except FlockError as exc:
            return _ImmediateFuture(error=exc)

    def executemany(
        self, sql: str, seq_of_params, user: str = "admin"
    ) -> QueryResult:
        """Bulk-bind scatter: one executemany per shard, one route pass."""
        self._check_open()
        entry = self.coordinator.plan_cache.lookup(sql)
        statement = entry.statement
        rows_params = parameter_rows(seq_of_params)
        if not rows_params:
            return QueryResult("INSERT", affected_rows=0)
        if isinstance(statement, ast.Insert) and statement.select is None:
            entry.check_param_rows(rows_params)
            with self._ops.write_locked():
                return self._execute_insert(statement, rows_params, user)
        total = 0
        statement_type = "INSERT"
        for row_params in rows_params:
            result = self.execute(sql, row_params, user=user)
            statement_type = result.statement_type
            total += result.affected_rows
        return QueryResult(statement_type, affected_rows=total)

    # -- reads ---------------------------------------------------------
    def _execute_read(self, entry: CachedPlan, params, user) -> QueryResult:
        target = self._single_shard_target(entry.statement, params)
        if target is not None:
            self._count_route("single")
            return self.shards[target].execute(entry.sql, params, user)
        self._count_route("scatter")
        with self._ops.read_locked():
            return run_scatter(self, entry, params, user)

    def _single_shard_target(self, statement, params) -> int | None:
        """The one shard that can answer *statement* alone, or None.

        Routing must be a *sound under-approximation*: answering on one
        shard is only legal when every matching row provably lives there
        — single plain-table FROM, no subqueries, and either a keyless
        (shard-0-pinned) table or a WHERE that pins the whole key to one
        shard. Equal keys co-locate, and within a shard the hidden
        sequence order is the global order restricted to that shard's
        rows, so even LIMIT without ORDER BY stays bit-identical.
        """
        if not isinstance(statement, ast.Select):
            return None
        if getattr(statement, "ctes", None):
            return None
        if not isinstance(statement.from_clause, ast.TableRef):
            return None
        name = statement.from_clause.name
        catalog = self.coordinator.catalog
        if catalog.has_view(name) or not catalog.has_table(name):
            return None
        if _has_subquery(statement):
            return None
        schema = catalog.schema(name)
        if not schema.primary_key_indexes:
            return 0
        keys = pinned_keys(schema, statement.where, params)
        if keys is None:
            return None
        owners = {shard_of(key, self.n_shards) for key in keys}
        if len(owners) == 1:
            return owners.pop()
        return None

    # -- INSERT --------------------------------------------------------
    def _execute_insert(self, statement, param_rows, user) -> QueryResult:
        """Bind the rows on the coordinator, then scatter them."""
        # Coordinator privileges mirror the shards'; checking here keeps
        # denials from reaching any shard.
        self.coordinator.security.check(user, "INSERT", statement.table)
        if statement.select is not None:
            select_result = self._execute_read(
                CachedPlan(
                    str(statement.select), statement.select,
                    len(param_rows[0] or ()),
                ),
                param_rows[0],
                user,
            )
            columns = insert_select_columns(
                self.coordinator, statement, select_result.batch
            )
        else:
            columns = bind_insert_values(
                self.coordinator, statement, param_rows
            )
        return self._scatter_rows(statement.table, columns, user)

    def _scatter_rows(self, name, columns, user) -> QueryResult:
        """Route bound full-width columns by key hash and insert the rows
        shard by shard. The INSERT counts as a ``single`` route when every
        row lands on one shard (a keyless table's always do), else as a
        ``scatter``."""
        n = len(columns[0])
        if not n:
            return QueryResult("INSERT", affected_rows=0)
        schema = self.coordinator.catalog.schema(name)
        column_names = [c.name for c in schema.columns]
        key_positions = schema.primary_key_indexes
        if not key_positions:
            self._count_route("single")
            self.shards[0].database.executemany(
                _insert_sql(name, column_names), _rows_of(columns), user=user
            )
            return QueryResult("INSERT", affected_rows=n)

        start = self._take_sequences(name, n)
        # Stored values are already canonical (DATE as day numbers, every
        # number in its column's Python type), so the key tuples are the
        # ones canonical_key_value gives a WHERE literal.
        keys = zip(*(columns[p].stored_values() for p in key_positions))
        owners = np.fromiter(
            (shard_of(key, self.n_shards) for key in keys),
            dtype=np.int64, count=n,
        )
        groups: dict[int, np.ndarray] = {
            int(owner): np.flatnonzero(owners == owner)
            for owner in np.unique(owners)
        }
        self._count_route("single" if len(groups) == 1 else "scatter")

        insert_sql = _insert_sql(name, column_names + [SEQ_COLUMN])
        applied: list[tuple[int, list[int]]] = []
        applied_lock = threading.Lock()
        failures: list[FlockError] = []

        def _apply(owner: int, picks: np.ndarray) -> None:
            sequences = (picks + start).tolist()
            shard_rows = _rows_of(
                [column.take(picks) for column in columns], sequences
            )
            try:
                self.shards[owner].database.executemany(
                    insert_sql, shard_rows, user=user
                )
            except FlockError as exc:
                failures.append(exc)
                return
            with applied_lock:
                applied.append((owner, sequences))

        if len(groups) == 1:
            owner, picks = next(iter(groups.items()))
            _apply(owner, picks)
        else:
            # Per-shard appends run concurrently: the router's exclusive
            # ops lock already serializes whole statements, each worker
            # owns exactly one shard engine, and commit fsyncs hit N
            # independent write-ahead logs — this is where sharded write
            # throughput actually scales.
            workers = [
                threading.Thread(target=_apply, args=(owner, groups[owner]))
                for owner in sorted(groups)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        if failures:
            # Compensate: a failed scatter must leave no partial rows.
            # The hidden sequence numbers identify exactly the rows this
            # statement created (they are addressable in WHERE even
            # though SELECT never sees them).
            for owner, sequences in applied:
                in_list = ", ".join(str(s) for s in sequences)
                self.shards[owner].database.execute(
                    f"DELETE FROM {name} WHERE {SEQ_COLUMN} IN ({in_list})",
                    user="admin",
                )
            raise failures[0]
        return QueryResult("INSERT", affected_rows=n)

    # -- UPDATE / DELETE -----------------------------------------------
    def _execute_update_delete(
        self, statement, sql, params, user
    ) -> QueryResult:
        name = statement.table
        schema = self.coordinator.catalog.schema(name)
        key_positions = set(schema.primary_key_indexes)
        if isinstance(statement, ast.Update) and key_positions:
            key_names = {
                schema.columns[p].name.lower() for p in key_positions
            }
            for column_name, _ in statement.assignments:
                if column_name.lower() in key_names:
                    raise ShardError(
                        f"UPDATE may not assign to primary-key column "
                        f"{column_name!r} on a sharded table (rows would "
                        f"migrate between shards); DELETE and re-INSERT "
                        f"instead"
                    )
        if not key_positions:
            self._count_route("single")
            return self.shards[0].execute(sql, params, user)
        keys = pinned_keys(schema, statement.where, params)
        if keys is not None:
            owners = {shard_of(key, self.n_shards) for key in keys}
            if len(owners) == 1:
                self._count_route("single")
                return self.shards[owners.pop()].execute(
                    sql, params, user
                )
        self._count_route("broadcast")
        statement_type = (
            "UPDATE" if isinstance(statement, ast.Update) else "DELETE"
        )
        affected = 0
        for shard in self.shards:
            result = shard.execute(sql, params, user)
            affected += result.affected_rows
        return QueryResult(statement_type, affected_rows=affected)

    # -- DDL / security / settings -------------------------------------
    def _broadcast_ddl(self, statement, sql, params, user) -> QueryResult:
        """Two-phase broadcast: validate-and-apply on the coordinator,
        then apply on every shard, undoing creates on failure.

        Phase 1 runs the statement on the coordinator, which performs the
        full validation the shards would (parse and bind errors, duplicate
        names, privileges) — a failure here touches no shard. Phase 2
        applies shard by shard; shards are deterministic copies of the
        coordinator's catalog, so a divergent outcome means a shard-local
        fault, and the applied prefix is rolled back with the statement's
        inverse so no two shards disagree about the schema.
        """
        self._count_route("ddl")
        self.gather_cache.clear()
        result = self.coordinator.execute(sql, params, user=user)
        shard_sql = sql
        if isinstance(statement, ast.CreateTable):
            shard_sql = self._augment_create_table(statement)
        applied: list[_Shard] = []
        try:
            for shard in self.shards:
                shard.execute(shard_sql, params, user)
                applied.append(shard)
        except FlockError as exc:
            inverse = _inverse_ddl(statement)
            try:
                if inverse is not None:
                    for shard in applied:
                        shard.execute(inverse, None, "admin")
                    self.coordinator.execute(inverse, user="admin")
            except FlockError:
                raise ShardError(
                    f"DDL broadcast failed on shard {len(applied)} and its "
                    f"undo also failed; shard catalogs may be divergent: "
                    f"{exc}"
                ) from exc
            if inverse is None:
                raise ShardError(
                    f"DDL broadcast failed on shard {len(applied)} with no "
                    f"inverse to roll back; shard catalogs may be "
                    f"divergent: {exc}"
                ) from exc
            raise
        if isinstance(statement, ast.CreateTable):
            with self._seq_lock:
                self._next_seq.setdefault(statement.name.lower(), 0)
        if isinstance(statement, ast.DropTable):
            with self._seq_lock:
                self._next_seq.pop(statement.name.lower(), None)
        return result

    def _augment_create_table(self, statement: ast.CreateTable) -> str:
        """The shard-side DDL: keyed tables grow the sequence column."""
        if not any(c.primary_key for c in statement.columns):
            return str(statement)
        augmented = ast.CreateTable(
            statement.name,
            list(statement.columns)
            + [
                ast.ColumnDef(
                    SEQ_COLUMN,
                    "BIGINT",
                    nullable=False,
                    primary_key=False,
                    hidden=True,
                )
            ],
            statement.if_not_exists,
        )
        return str(augmented)

    # -- lifecycle ------------------------------------------------------
    def restart_shard(self, index: int) -> None:
        """Crash-recover one shard through ``Database.open``.

        The old handle is closed (a worker that was already SIGKILLed is
        tolerated) and a fresh one re-opens the directory, running the
        same recovery wherever the shard is hosted."""
        with self._ops.write_locked():
            self.gather_cache.clear()
            self.shards[index].close()
            self.shards[index] = self._open_shard(index)

    def wait_for_catchup(self, timeout: float | None = 10.0) -> bool:
        """With replicas: block until every shard's followers caught up."""
        return all(
            shard.cluster.wait_for_catchup(timeout)
            for shard in self.shards
            if shard.cluster is not None
        )

    def stats(self) -> dict:
        with self._routes_lock:
            routes = dict(self._routes)
        per_shard = []
        for shard in self.shards:
            database = shard.database
            per_shard.append(
                {
                    "path": str(shard.path),
                    "backend": shard.handle.backend,
                    "pid": shard.pid,
                    "rows": {
                        name: database.catalog.table(name).row_count
                        for name in database.catalog.table_names()
                    },
                }
            )
        return {
            "shards": self.n_shards,
            "replicas": self.replicas,
            "backend": self.backend,
            "routes": routes,
            "gather": self.gather_cache.stats(),
            "next_sequence": dict(self._next_seq),
            "per_shard": per_shard,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.gather_cache.clear()
        for shard in self.shards:
            shard.close()
        self.coordinator.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ShardError("sharded cluster is closed")

    def __enter__(self) -> "ShardedCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<flock.shard.ShardedCluster path={self.path} "
            f"shards={self.n_shards} replicas={self.replicas}>"
        )


def _rows_of(columns: Sequence[ColumnVector], *extra: list) -> list[tuple]:
    """Rows of stored values a shard re-binds (DATE as day numbers)."""
    return list(zip(*(c.stored_values() for c in columns), *extra))


def _insert_sql(table: str, column_names: list[str]) -> str:
    """A one-row INSERT that names every column and binds each to a ``?``."""
    placeholders = ", ".join("?" for _ in column_names)
    return (
        f"INSERT INTO {table} ({', '.join(column_names)}) "
        f"VALUES ({placeholders})"
    )


def _inverse_ddl(statement: ast.Statement) -> str | None:
    """The statement that undoes *statement* on an applied shard."""
    if isinstance(statement, ast.CreateTable):
        return f"DROP TABLE IF EXISTS {statement.name}"
    if isinstance(statement, ast.CreateView):
        return f"DROP VIEW IF EXISTS {statement.name}"
    if isinstance(statement, ast.CreateIndex):
        return f"DROP INDEX IF EXISTS {statement.name}"
    return None
