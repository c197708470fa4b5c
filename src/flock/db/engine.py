"""The database engine facade.

:class:`Database` wires the catalog, parser, binder, optimizer, executor,
transaction manager, security manager, audit log and (optionally) a model
store + scorer into one object. :class:`Connection` is a per-user session
with explicit transaction control.

The engine keeps a query log (every statement, with user and timestamp) —
the input to the *lazy* SQL provenance capture mode (§4.2).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Protocol, Sequence

import numpy as np

from flock.db.binder import (
    Binder,
    ModelSignature,
    Scope,
    ScopeEntry,
    bind_insert_values,
    insert_select_columns,
)
from flock.db.catalog import Catalog
from flock.db.exec.executor import Executor, render_analyzed_plan
from flock.db.expr import truthy_mask
from flock.db.optimizer.rules import Optimizer
from flock.db.plan import PlanNode, PredictNode, ScanNode
from flock.db.plancache import (
    CachedPlan,
    PlanCache,
    PreparedPlan,
    parameter_rows,
)
from flock.db.result import QueryResult, QueryStats
from flock.db.schema import Column, TableSchema
from flock.db.security import SecurityManager, model_object
from flock.db.sql import ast_nodes as ast
from flock.db.storage import TableVersion
from flock.db.txn import ReadWriteLock, Transaction, TransactionManager
from flock.db.types import SQL_TYPE_ALIASES, DataType
from flock.db.vector import Batch, ColumnVector
from flock.errors import (
    BindError,
    CatalogError,
    FlockError,
    InferenceError,
    SecurityError,
)
from flock.settings import Settings


class ModelStore(Protocol):
    """What the engine needs from a model registry."""

    def has_model(self, name: str) -> bool: ...

    def signature(self, name: str) -> ModelSignature: ...

    def scoring_artifact(self, name: str) -> Any: ...


class Scorer(Protocol):
    """Executes PredictNode operators (provided by flock.inference)."""

    def score(
        self, node: PredictNode, inputs: Batch, store: ModelStore
    ) -> list[ColumnVector]: ...


@dataclass(frozen=True)
class QueryLogEntry:
    """One statement in the engine's query log (lazy provenance input).

    ``duration_ms`` defaults to 0.0 so entries restored from manifests
    persisted before the field existed keep loading.
    """

    sql: str
    user: str
    timestamp: float
    statement_type: str
    success: bool
    duration_ms: float = 0.0


class Database:
    """An in-memory SQL engine with governance built in."""

    def __init__(
        self,
        model_store: ModelStore | None = None,
        scorer: Scorer | None = None,
        optimizer: Optimizer | None = None,
    ):
        # Engine settings (flock.settings), read from the environment once
        # here. Shared with every table through the catalog, so SET
        # flock.encodings takes effect on the next staged version anywhere.
        self.settings = Settings()
        self.catalog = Catalog(self.settings)
        self.transactions = TransactionManager(self.catalog)
        self.security = SecurityManager()
        self.audit = AuditLogProxy()
        self._optimizer = optimizer or Optimizer()
        self.model_store = model_store
        self._scorer = scorer
        # Statement-level concurrency control: SELECT/PREDICT take the read
        # side (concurrent, each on its own snapshot), DML/DDL the write
        # side (execution + commit under one exclusive section, so readers
        # never see a half-published multi-table commit).
        self.statement_lock = ReadWriteLock()
        # Monotonic counter bumped by DDL and by model (re-)deployment;
        # the plan cache compares it to decide whether a prepared plan is
        # still valid.
        self._invalidation_epoch = 0
        self._epoch_lock = threading.Lock()
        self.plan_cache = PlanCache()
        self.query_log: list[QueryLogEntry] = []
        # Span trees of the most recent traced statements (newest last).
        self.recent_traces: deque = deque(maxlen=32)
        # The SQL×ML cross-optimizer, when one is wired in (see
        # flock.create_database); declared here so it is part of the API
        # rather than an ad-hoc attribute.
        self.cross_optimizer = None
        # The write-ahead log, when this database is durable (attached by
        # flock.db.wal.open_database / Database.open). None means purely
        # in-memory: the whole durability path costs one None check.
        self.wal = None
        self._spill_dir: str | None = None

    # ------------------------------------------------------------------
    # Durability (see flock.db.wal)
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path,
        *,
        model_store: ModelStore | None = None,
        scorer: "Scorer | None" = None,
        optimizer: Optimizer | None = None,
        sync_mode: str = "commit",
        group_window_ms: float = 1.0,
        checkpoint_bytes: int | None = None,
    ) -> "Database":
        """Open (or create) a durable database directory with crash recovery.

        Loads the newest checkpoint, replays the committed WAL suffix and
        attaches a live log; the recovery details are on
        ``database.wal.last_recovery``. ``checkpoint_bytes`` sets the
        auto-checkpoint threshold (None keeps the WAL default, 0 disables
        auto-checkpointing).
        """
        from flock.db import wal as wal_module

        kwargs = dict(
            model_store=model_store,
            scorer=scorer,
            optimizer=optimizer,
            sync_mode=sync_mode,
            group_window_ms=group_window_ms,
        )
        if checkpoint_bytes is not None:
            kwargs["checkpoint_bytes"] = checkpoint_bytes
        return wal_module.open_database(path, **kwargs)

    def checkpoint(self) -> None:
        """Snapshot to disk and truncate the WAL (durable databases only)."""
        if self.wal is None:
            raise FlockError(
                "checkpoint() requires a durable database (Database.open)"
            )
        self.wal.checkpoint()

    def maybe_auto_checkpoint(self) -> None:
        """Checkpoint if the WAL outgrew its threshold; no-op in memory."""
        if self.wal is not None:
            self.wal.maybe_checkpoint()

    def close(self) -> None:
        """Detach and close the WAL (flushes; does not checkpoint)."""
        if self.wal is not None:
            self.wal.close()
            self.wal = None
            self.transactions.wal = None
        if self._spill_dir is not None:
            import shutil

            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None

    # ------------------------------------------------------------------
    # Columnar encodings + memory budget (see flock.db.encoding / spill)
    # ------------------------------------------------------------------
    def encodings_enabled(self) -> bool:
        return bool(self.settings.encodings)

    @property
    def memory_budget(self) -> int | None:
        """Bytes a blocking operator may hold before it spills (None:
        unbounded); the ``memory_budget`` setting."""
        return self.settings.memory_budget or None

    def spill_directory(self) -> str:
        """Where blocking operators spill: under the database directory
        for durable databases, a private temp directory otherwise."""
        if self.wal is not None:
            path = self.wal.directory / "spill"
            path.mkdir(exist_ok=True)
            return str(path)
        if self._spill_dir is None:
            import tempfile

            self._spill_dir = tempfile.mkdtemp(prefix="flock-spill-")
        return self._spill_dir

    def _log_ddl(self, op: dict) -> None:
        """Log a catalog/security mutation that just became visible."""
        if self.wal is not None:
            self.wal.log_ddl(op)
        hub = self.transactions.replication
        if hub is not None:
            # DDL executes under the exclusive statement lock, so this
            # publish is ordered against every commit-path publish.
            hub.publish({"t": "ddl", "op": op})

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def connect(self, user: str = "admin") -> "Connection":
        if user != "admin" and not self.security.has_principal(user):
            raise SecurityError(f"unknown user {user!r}")
        return Connection(self, user)

    def execute(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        user: str = "admin",
    ) -> QueryResult:
        """One-shot execution with autocommit (admin by default).

        ``params`` binds ``?`` placeholders positionally, so callers never
        interpolate values into SQL text.
        """
        return self.connect(user).execute(sql, params)

    def explain(
        self,
        sql: str,
        user: str = "admin",
        analyze: bool = False,
        params: Sequence[Any] | None = None,
    ) -> str:
        """The optimized logical plan of a SELECT, as text.

        With ``analyze=True`` (or an ``EXPLAIN ANALYZE`` statement) the plan
        is also executed and every node is annotated with actual row counts
        and wall time.  Routed through the single statement entry point, so
        it is privilege-checked, audited and traced like any other
        statement.
        """
        text = sql.strip().rstrip(";")
        statement = self.plan_cache.lookup(text).statement
        if isinstance(statement, ast.Explain):
            statement = statement.query
        elif analyze:
            text = f"EXPLAIN ANALYZE {text}"
        else:
            text = f"EXPLAIN {text}"
        if not isinstance(statement, (ast.Select, ast.SetOperation)):
            raise BindError("EXPLAIN supports SELECT statements only")
        result = self.connect(user).execute(text, params)
        return "\n".join(row[0] for row in result.rows())

    def explain_analyze(
        self,
        sql: str,
        user: str = "admin",
        params: Sequence[Any] | None = None,
    ) -> str:
        """``EXPLAIN ANALYZE``: the plan annotated with measured execution."""
        return self.explain(sql, user=user, analyze=True, params=params)

    @property
    def last_trace(self):
        """Span tree of the most recently traced statement (or None)."""
        if not self.recent_traces:
            return None
        return self.recent_traces[-1]

    # ------------------------------------------------------------------
    # Plan-cache invalidation
    # ------------------------------------------------------------------
    @property
    def invalidation_epoch(self) -> int:
        """Changes whenever something a plan is derived from changes,
        other than table data.

        DDL, index DDL, model (re-)deployment, a new monitor, the
        ``flock.indexes`` / ``flock.encodings`` settings and assigning
        :attr:`optimizer` bump it. :mod:`flock.db.plancache` stamps every
        prepared plan with this value — and with the version of each table
        the plan reads, which covers data — and re-prepares the plan when
        either moved, so no change needs callback plumbing.
        """
        return self._invalidation_epoch

    def bump_invalidation_epoch(self) -> None:
        with self._epoch_lock:
            self._invalidation_epoch += 1

    @property
    def optimizer(self) -> Optimizer:
        return self._optimizer

    @optimizer.setter
    def optimizer(self, optimizer: Optimizer) -> None:
        # Every prepared plan is the old optimizer's output.
        self._optimizer = optimizer
        self.bump_invalidation_epoch()

    # ------------------------------------------------------------------
    # Binder context
    # ------------------------------------------------------------------
    def resolve_table(self, name: str) -> TableSchema:
        return self.catalog.schema(name)

    def resolve_view(self, name: str):
        if self.catalog.has_view(name):
            return self.catalog.view(name)
        return None

    def resolve_model(self, name: str) -> ModelSignature:
        if self.model_store is None or not self.model_store.has_model(name):
            raise BindError(f"unknown model {name!r}")
        return self.model_store.signature(name)

    # OptimizerContext
    def table_row_count(self, table_name: str) -> int:
        try:
            return self.catalog.table(table_name).row_count
        except CatalogError:
            return 1000

    def model_artifact(self, model_name: str) -> Any:
        if self.model_store is None:
            raise InferenceError("no model store attached to this database")
        return self.model_store.scoring_artifact(model_name)

    def table_stats(self, table_name: str):
        return self.catalog.table(table_name).stats()

    def indexes_enabled(self) -> bool:
        """Whether the optimizer may choose index/zone-map access paths."""
        return bool(self.settings.indexes)

    def index_for(self, table_name: str, column_position: int) -> str | None:
        """Name of a hash index over ``table_name[column_position]``, if any."""
        try:
            table = self.catalog.table(table_name)
        except CatalogError:
            return None
        idx = table.index_on_column(column_position)
        return None if idx is None else idx.defn.name

    # ------------------------------------------------------------------
    # Scoring hookup
    # ------------------------------------------------------------------
    @property
    def scorer(self) -> Scorer:
        if self._scorer is None:
            from flock.inference.predict import DefaultScorer

            self._scorer = DefaultScorer()
        return self._scorer

    @scorer.setter
    def scorer(self, value: Scorer) -> None:
        self._scorer = value

    # ------------------------------------------------------------------
    # Statement execution (called by Connection)
    # ------------------------------------------------------------------
    def _run_statement(
        self,
        entry: CachedPlan,
        user: str,
        txn: Transaction,
        params: list[Any] | None = None,
        param_rows: list[list[Any]] | None = None,
    ) -> QueryResult:
        """The single entry point every statement execution goes through.

        Query-log entries, audit records, metrics and the statement trace
        span are all emitted exactly once per statement here, whether the
        caller is ``Database.execute``, ``Connection.execute``,
        ``Database.executemany``, ``Database.explain`` or the serving
        layer. *param_rows* replaces *params* when an ``INSERT ... VALUES``
        binds a batch of parameter rows (``executemany``).
        """
        return self._observed_statement(
            entry.sql,
            user,
            entry.statement_type,
            lambda: self._dispatch(entry, user, txn, params, param_rows),
        )

    def _observed_statement(
        self,
        sql: str,
        user: str,
        statement_type: str,
        runner: Callable[[], QueryResult],
    ) -> QueryResult:
        """Run *runner* with the per-statement trace/metrics/log envelope."""
        from flock import observability as obs

        started = time.time()
        start_ns = time.perf_counter_ns()
        trace = None
        try:
            with obs.get_tracer().span(
                "db.statement",
                {"statement": statement_type, "user": user},
            ) as span:
                if obs.enabled():
                    trace = span
                result = runner()
                span.set_attribute("rows", result.row_count)
        except FlockError:
            duration_ms = (time.perf_counter_ns() - start_ns) / 1e6
            self._record_statement(
                sql, user, started, statement_type, False, duration_ms, trace
            )
            raise
        duration_ms = (time.perf_counter_ns() - start_ns) / 1e6
        result.stats = QueryStats(
            statement_type, duration_ms, result.row_count, trace
        )
        self._record_statement(
            sql, user, started, statement_type, True, duration_ms, trace
        )
        return result

    # ------------------------------------------------------------------
    # Statements that arrive as a tree or a plan, not as SQL text
    # ------------------------------------------------------------------
    def run_select_ast(
        self,
        statement: ast.Statement,
        sql: str,
        user: str = "admin",
        params: list[Any] | None = None,
    ) -> QueryResult:
        """Execute an already-parsed read-only statement under a snapshot.

        The serving layer's coalesced micro-batches execute their combined
        ``IN``-list statement here (*sql* labels it in the query log).
        Takes the shared side of the statement lock, so any number of
        these run concurrently with each other.
        """
        if not is_read_only(statement):
            raise BindError(
                "run_select_ast supports read-only statements only"
            )
        entry = CachedPlan(sql, statement, len(params or ()))
        with self.statement_lock.read_locked():
            txn = self.transactions.begin(user)
            try:
                return self._run_statement(entry, user, txn, params)
            finally:
                self.transactions.rollback(txn)

    def execute_plan(
        self,
        plan: PlanNode,
        *,
        sql: str,
        user: str = "admin",
        reads: tuple[list[str], list[str]] = ([], []),
        privileges: Sequence[tuple[str, str]] = (),
    ) -> QueryResult:
        """Execute a read-only plan the caller bound and optimized itself.

        Privileges are checked and reads audited exactly as for a prepared
        plan from the plan cache, so running a plan can never widen what a
        user sees; keeping the plan current is the caller's business.
        """
        prepared = PreparedPlan(plan, reads, list(privileges))

        def runner() -> QueryResult:
            self._check_privileges(prepared.privileges, user)
            txn = self.transactions.begin(user)
            try:
                return self._execute_select(
                    prepared, user, _EngineExecutionContext(self, txn)
                )
            finally:
                self.transactions.rollback(txn)

        with self.statement_lock.read_locked():
            return self._observed_statement(sql, user, "SELECT", runner)

    def executemany(
        self,
        sql: str,
        seq_of_params: Iterable[Sequence[Any]],
        user: str = "admin",
    ) -> QueryResult:
        """Bind once, re-bind parameters per row — the bulk-load fast path.

        For any ``INSERT ... VALUES`` (one template row or several) the
        statement is parsed and its template bound once, every parameter
        row is bound into it, and all rows are staged and committed as a
        single table version (one commit, one audit record) instead of one
        per parameter row. Any other statement falls back to per-row
        execution.
        """
        entry = self.plan_cache.lookup(sql)
        statement = entry.statement
        rows_params = parameter_rows(seq_of_params)
        if not rows_params:
            return QueryResult("INSERT", affected_rows=0)
        connection = self.connect(user)
        if isinstance(statement, ast.Insert) and statement.select is None:
            entry.check_param_rows(rows_params)
            return connection._autocommit_write(entry, None, rows_params)
        total = 0
        last: QueryResult | None = None
        for params in rows_params:
            last = connection.execute(sql, params)
            total += last.affected_rows
        assert last is not None
        return QueryResult(last.statement_type, affected_rows=total)

    def _record_statement(
        self,
        sql: str,
        user: str,
        started: float,
        statement_type: str,
        success: bool,
        duration_ms: float,
        trace,
    ) -> None:
        from flock import observability as obs

        self.query_log.append(
            QueryLogEntry(
                sql, user, started, statement_type, success, duration_ms
            )
        )
        if trace is not None:
            self.recent_traces.append(trace)
        registry = obs.metrics()
        registry.counter("db.statements").inc()
        registry.counter(f"db.statements.{statement_type.lower()}").inc()
        if not success:
            registry.counter("db.statement_errors").inc()
        registry.histogram("db.statement_ms").observe(duration_ms)

    def _dispatch(
        self,
        entry: CachedPlan,
        user: str,
        txn: Transaction,
        params: list[Any] | None = None,
        param_rows: list[list[Any]] | None = None,
    ) -> QueryResult:
        statement = entry.statement
        if is_read_only(statement):
            prepared = self._prepared_plan(entry, user, txn, params)
            context = _EngineExecutionContext(self, txn)
            if isinstance(statement, ast.Explain):
                return self._execute_explain(
                    statement, prepared, user, context
                )
            return self._execute_select(prepared, user, context)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(
                statement, user, txn,
                [params] if param_rows is None else param_rows,
            )
        if isinstance(statement, ast.Update):
            return self._execute_update(statement, user, txn, params)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement, user, txn, params)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement, user)
        if isinstance(statement, ast.DropTable):
            return self._execute_drop_table(statement, user)
        if isinstance(statement, ast.CreateView):
            return self._execute_create_view(statement, user)
        if isinstance(statement, ast.DropView):
            return self._execute_drop_view(statement, user)
        if isinstance(statement, ast.CreateIndex):
            return self._execute_create_index(statement, user)
        if isinstance(statement, ast.DropIndex):
            return self._execute_drop_index(statement, user)
        if isinstance(statement, ast.CreateUser):
            return self._execute_security(statement, user)
        if isinstance(statement, ast.CreateRole):
            return self._execute_security(statement, user)
        if isinstance(statement, (ast.Grant, ast.Revoke)):
            return self._execute_security(statement, user)
        if isinstance(statement, ast.SetOption):
            return self._execute_set_option(statement, user)
        raise BindError(
            f"statement {type(statement).__name__} must be executed through "
            f"a Connection (BEGIN/COMMIT/ROLLBACK)"
        )

    # -- SELECT -----------------------------------------------------------
    def _prepared_plan(
        self,
        entry: CachedPlan,
        user: str,
        txn: Transaction,
        params: list[Any] | None = None,
    ) -> PreparedPlan:
        """The plan a read-only statement runs, privilege-checked for
        *user*: the entry's prepared plan while it is current for *txn*
        (see :mod:`flock.db.plancache`), else a fresh one — kept on the
        entry when the statement is a parameterless SELECT / set
        operation. An EXPLAIN gets its query's plan."""
        prepared = self.plan_cache.current(
            entry, self.invalidation_epoch, txn
        )
        if prepared is not None:
            self._check_privileges(prepared.privileges, user)
            return prepared
        query = entry.statement
        if isinstance(query, ast.Explain):
            query = query.query
        prepared = self._prepare(query, params, user)
        if entry.preparable:
            entry.prepared = prepared
        return prepared

    def _prepare(
        self,
        query: ast.Statement,
        params: list[Any] | None,
        user: str,
    ) -> PreparedPlan:
        """Bind, privilege-check and optimize one query."""
        from flock import observability as obs

        tracer = obs.get_tracer()
        epoch = self.invalidation_epoch
        with tracer.span("db.bind"):
            bound = Binder(self, params).bind_query(query)
        # Privileges (and the audit trail) are decided on the *bound* plan:
        # optimizations such as UDF inlining may erase PredictNodes, and an
        # optimizer rewrite must never widen what a user can do.
        privileges = plan_privileges(bound)
        self._check_privileges(privileges, user)
        reads = _collect_reads(bound)
        # Stamped before optimizing: a commit landing in between leaves an
        # older stamp, which only makes the plan look stale.
        versions = {
            name: self.catalog.table(name).head_version.version_id
            for name in reads[0]
        }
        with tracer.span("db.optimize"):
            plan = self.optimizer.optimize(bound, self)
        return PreparedPlan(plan, reads, privileges, epoch, versions)

    # The read paths run over an execution context: the engine's snapshot
    # of a transaction, or the shard coordinator's merged one.
    def _execute_explain(
        self, statement: ast.Explain, prepared: PreparedPlan, user: str,
        context,
    ) -> QueryResult:
        plan = prepared.plan
        if statement.analyze:
            executor = Executor(context, collect_stats=True)
            start_ns = time.perf_counter_ns()
            batch = executor.run(plan)
            total_ms = (time.perf_counter_ns() - start_ns) / 1e6
            lines = render_analyzed_plan(plan, executor.node_stats).splitlines()
            lines.append(
                f"Execution: {total_ms:.3f} ms, {batch.num_rows} row(s)"
            )
            # ANALYZE reads real data, so it leaves the same audit trail a
            # SELECT would.
            self._audit_reads(prepared.reads, user)
        else:
            lines = plan.explain().splitlines()
        batch = Batch(
            ["plan"],
            [ColumnVector.from_values(DataType.TEXT, lines)],
        )
        return QueryResult("EXPLAIN", batch=batch)

    def _execute_select(
        self, prepared: PreparedPlan, user: str, context
    ) -> QueryResult:
        batch = Executor(context).run(prepared.plan)
        self._audit_reads(prepared.reads, user)
        return QueryResult("SELECT", batch=batch)

    def _audit_reads(self, reads: tuple[list[str], list[str]], user: str) -> None:
        tables, models = reads
        for table_name in tables:
            self.audit.log.record(user, "SELECT", table_name)
        for model_name in models:
            self.audit.log.record(user, "PREDICT", model_object(model_name))

    def _check_privileges(
        self, privileges: Sequence[tuple[str, str]], user: str
    ) -> None:
        for action, object_name in privileges:
            self.security.check(user, action, object_name)

    # -- INSERT -----------------------------------------------------------
    def _execute_insert(
        self, statement: ast.Insert, user: str, txn: Transaction,
        param_rows: list[list[Any] | None],
    ) -> QueryResult:
        self.security.check(user, "INSERT", statement.table)
        table = self.catalog.table(statement.table)
        if statement.select is not None:
            select_result = self._execute_select(
                self._prepare(statement.select, param_rows[0], user),
                user,
                _EngineExecutionContext(self, txn),
            )
            columns = insert_select_columns(
                self, statement, select_result.batch
            )
        else:
            columns = bind_insert_values(self, statement, param_rows)
        base = txn.visible_version(statement.table)
        staged = table.build_append(columns, base=base)
        txn.stage(statement.table, staged)
        rows = len(columns[0])
        self.audit.log.record(
            user, "INSERT", statement.table, detail=f"{rows} rows"
        )
        return QueryResult("INSERT", affected_rows=rows)

    # -- UPDATE -----------------------------------------------------------
    def _execute_update(
        self, statement: ast.Update, user: str, txn: Transaction,
        params: list[Any] | None = None,
    ) -> QueryResult:
        self.security.check(user, "UPDATE", statement.table)
        table = self.catalog.table(statement.table)
        schema = table.schema
        version = txn.visible_version(statement.table)
        batch = version.batch()
        scope = Scope(
            [
                ScopeEntry(schema.name, c.name, c.dtype)
                for c in schema.columns
            ]
        )
        binder = Binder(self, params)
        if statement.where is not None:
            predicate = binder._bind_boolean(statement.where, scope)
            mask = truthy_mask(predicate.evaluate(batch))
        else:
            mask = np.ones(batch.num_rows, dtype=bool)

        assignments: dict[int, ColumnVector] = {}
        for column_name, expr in statement.assignments:
            position = schema.index_of(column_name)
            bound = binder._bind_expr(expr, scope)
            target_dtype = schema.columns[position].dtype
            if bound.dtype is not target_dtype:
                from flock.db.expr import BoundCast

                bound = BoundCast(bound, target_dtype)
            values = bound.evaluate(batch)
            assignments[position] = values.filter(mask)

        staged = table.build_update(mask, assignments, base=version)
        txn.stage(statement.table, staged)
        affected = int(mask.sum())
        self.audit.log.record(
            user, "UPDATE", statement.table, detail=f"{affected} rows"
        )
        return QueryResult("UPDATE", affected_rows=affected)

    # -- DELETE -----------------------------------------------------------
    def _execute_delete(
        self, statement: ast.Delete, user: str, txn: Transaction,
        params: list[Any] | None = None,
    ) -> QueryResult:
        self.security.check(user, "DELETE", statement.table)
        table = self.catalog.table(statement.table)
        schema = table.schema
        version = txn.visible_version(statement.table)
        batch = version.batch()
        if statement.where is not None:
            scope = Scope(
                [
                    ScopeEntry(schema.name, c.name, c.dtype)
                    for c in schema.columns
                ]
            )
            binder = Binder(self, params)
            predicate = binder._bind_boolean(statement.where, scope)
            drop = truthy_mask(predicate.evaluate(batch))
        else:
            drop = np.ones(batch.num_rows, dtype=bool)
        staged = table.build_delete(~drop, base=version)
        txn.stage(statement.table, staged)
        affected = int(drop.sum())
        self.audit.log.record(
            user, "DELETE", statement.table, detail=f"{affected} rows"
        )
        return QueryResult("DELETE", affected_rows=affected)

    # -- DDL ---------------------------------------------------------------
    def _execute_create_table(
        self, statement: ast.CreateTable, user: str
    ) -> QueryResult:
        columns = []
        for definition in statement.columns:
            try:
                dtype = SQL_TYPE_ALIASES[definition.type_name.upper()]
            except KeyError:
                raise BindError(
                    f"unknown column type {definition.type_name!r}"
                ) from None
            columns.append(
                Column(
                    definition.name,
                    dtype,
                    nullable=definition.nullable,
                    primary_key=definition.primary_key,
                    hidden=definition.hidden,
                )
            )
        schema = TableSchema.of(statement.name, columns)
        created = self.catalog.create_table(
            schema, if_not_exists=statement.if_not_exists
        )
        if created.schema is schema and user != "admin":
            # The creator owns the table.
            self.security.grant("ALL", statement.name, user)
        self.audit.log.record(user, "CREATE_TABLE", statement.name)
        if created.schema is schema:
            self._log_ddl(
                {
                    "kind": "create_table",
                    "name": statement.name,
                    "columns": [
                        {
                            "name": c.name,
                            "dtype": c.dtype.value,
                            "nullable": c.nullable,
                            "primary_key": c.primary_key,
                            "hidden": c.hidden,
                        }
                        for c in schema.columns
                    ],
                    "owner": user if user != "admin" else None,
                }
            )
        self.bump_invalidation_epoch()
        return QueryResult("CREATE_TABLE", detail=statement.name)

    def _execute_drop_table(
        self, statement: ast.DropTable, user: str
    ) -> QueryResult:
        if user != "admin":
            self.security.check(user, "ALL", statement.name)
        dropped = self.catalog.drop_table(
            statement.name, if_exists=statement.if_exists
        )
        self.audit.log.record(
            user, "DROP_TABLE", statement.name, success=dropped
        )
        if dropped:
            self._log_ddl({"kind": "drop_table", "name": statement.name})
            self.bump_invalidation_epoch()
        return QueryResult("DROP_TABLE", affected_rows=int(dropped))

    def _execute_create_view(
        self, statement: ast.CreateView, user: str
    ) -> QueryResult:
        # Validate the definition now (names, types, and the *creator's*
        # privileges on everything underneath — definer semantics).
        bound = Binder(self).bind_query(statement.query)
        self._check_privileges(plan_privileges(bound), user)
        self.catalog.create_view(statement.name, statement.query)
        if user != "admin":
            self.security.grant("ALL", statement.name, user)
        self.audit.log.record(user, "CREATE_VIEW", statement.name)
        self._log_ddl(
            {
                "kind": "create_view",
                "name": statement.name,
                "sql": str(statement.query),
                "owner": user if user != "admin" else None,
            }
        )
        self.bump_invalidation_epoch()
        return QueryResult("CREATE_VIEW", detail=statement.name)

    def _execute_drop_view(
        self, statement: ast.DropView, user: str
    ) -> QueryResult:
        if user != "admin":
            self.security.check(user, "ALL", statement.name)
        dropped = self.catalog.drop_view(
            statement.name, if_exists=statement.if_exists
        )
        self.audit.log.record(
            user, "DROP_VIEW", statement.name, success=dropped
        )
        if dropped:
            self._log_ddl({"kind": "drop_view", "name": statement.name})
            self.bump_invalidation_epoch()
        return QueryResult("DROP_VIEW", affected_rows=int(dropped))

    def _execute_create_index(
        self, statement: ast.CreateIndex, user: str
    ) -> QueryResult:
        # Creating an index changes access paths for everyone reading the
        # table, so it is gated on table ownership like DROP TABLE.
        if user != "admin":
            self.security.check(user, "ALL", statement.table)
        self.catalog.create_index(
            statement.name, statement.table, statement.column
        )
        self.audit.log.record(
            user,
            "CREATE_INDEX",
            statement.name,
            detail=f"{statement.table}({statement.column})",
        )
        self._log_ddl(
            {
                "kind": "create_index",
                "name": statement.name,
                "table": statement.table,
                "column": statement.column,
            }
        )
        self.bump_invalidation_epoch()
        return QueryResult("CREATE_INDEX", detail=statement.name)

    def _execute_drop_index(
        self, statement: ast.DropIndex, user: str
    ) -> QueryResult:
        if user != "admin":
            raise SecurityError("only admin may drop indexes")
        dropped = self.catalog.drop_index(
            statement.name, if_exists=statement.if_exists
        )
        self.audit.log.record(
            user, "DROP_INDEX", statement.name, success=dropped
        )
        if dropped:
            self._log_ddl({"kind": "drop_index", "name": statement.name})
            self.bump_invalidation_epoch()
        return QueryResult("DROP_INDEX", affected_rows=int(dropped))

    # -- engine settings ----------------------------------------------------
    def _execute_set_option(
        self, statement: ast.SetOption, user: str
    ) -> QueryResult:
        """``SET flock.indexes = 0`` and friends (see :mod:`flock.settings`).

        Settings affect every session, so only admin may change them. The
        statement runs under the exclusive statement lock (it is classed
        with DDL in ``_mutates_shared_state``), so no reader is mid-plan
        while a setting flips.
        """
        if user != "admin":
            raise SecurityError("only admin may change engine settings")
        name, value = statement.name.lower(), statement.value
        self.settings.set(name, value)
        # Cached serving plans may embed access paths or encodings chosen
        # under the old value.
        self.bump_invalidation_epoch()
        self.audit.log.record(user, "SET", name, detail=str(value))
        return QueryResult("SET", detail=f"{name} = {value}")

    # -- security statements ------------------------------------------------
    def _execute_security(
        self, statement: ast.Statement, user: str
    ) -> QueryResult:
        if user != "admin":
            raise SecurityError("only admin may manage principals and grants")
        if isinstance(statement, ast.CreateUser):
            self.security.create_user(statement.name)
            self.audit.log.record(user, "CREATE_USER", statement.name)
            self._log_ddl({"kind": "create_user", "name": statement.name})
            return QueryResult("CREATE_USER", detail=statement.name)
        if isinstance(statement, ast.CreateRole):
            self.security.create_role(statement.name)
            self.audit.log.record(user, "CREATE_ROLE", statement.name)
            self._log_ddl({"kind": "create_role", "name": statement.name})
            return QueryResult("CREATE_ROLE", detail=statement.name)
        if isinstance(statement, ast.Grant):
            self.security.grant(
                statement.privilege, statement.object_name, statement.principal
            )
            self.audit.log.record(
                user,
                "GRANT",
                statement.object_name or statement.privilege,
                detail=f"{statement.privilege} to {statement.principal}",
            )
            self._log_ddl(
                {
                    "kind": "grant",
                    "privilege": statement.privilege,
                    "object": statement.object_name,
                    "principal": statement.principal,
                }
            )
            return QueryResult("GRANT")
        assert isinstance(statement, ast.Revoke)
        self.security.revoke(
            statement.privilege, statement.object_name, statement.principal
        )
        self.audit.log.record(
            user,
            "REVOKE",
            statement.object_name or statement.privilege,
            detail=f"{statement.privilege} from {statement.principal}",
        )
        self._log_ddl(
            {
                "kind": "revoke",
                "privilege": statement.privilege,
                "object": statement.object_name,
                "principal": statement.principal,
            }
        )
        return QueryResult("REVOKE")


def plan_privileges(bound: PlanNode) -> list[tuple[str, str]]:
    """The (action, object) checks a bound plan needs, in plan order."""
    checks: list[tuple[str, str]] = []
    for node in bound.walk():
        if isinstance(node, ScanNode):
            # Definer semantics: a view is the grant boundary.
            checks.append(("SELECT", node.via_view or node.table_name))
        elif isinstance(node, PredictNode):
            checks.append(("PREDICT", model_object(node.model_name)))
    return list(dict.fromkeys(checks))


def _collect_reads(bound: PlanNode) -> tuple[list[str], list[str]]:
    """(table names, model names) a bound plan reads, for audit records."""
    tables = sorted(
        {n.table_name for n in bound.walk() if isinstance(n, ScanNode)}
    )
    models = sorted(
        {n.model_name for n in bound.walk() if isinstance(n, PredictNode)}
    )
    return tables, models


#: Statement types that never stage a write: they run under the shared side
#: of the statement lock against an MVCC snapshot. The cluster router uses
#: this classification to fan such statements out to follower replicas.
READ_ONLY_STATEMENTS = (ast.Select, ast.SetOperation, ast.Explain)


def is_read_only(statement: ast.Statement) -> bool:
    """Whether *statement* can safely execute on a follower replica."""
    return isinstance(statement, READ_ONLY_STATEMENTS)


_SHARED_STATE_STATEMENTS = (
    ast.CreateTable,
    ast.DropTable,
    ast.CreateView,
    ast.DropView,
    ast.CreateIndex,
    ast.DropIndex,
    ast.CreateUser,
    ast.CreateRole,
    ast.Grant,
    ast.Revoke,
    ast.SetOption,
)


def _mutates_shared_state(statement: ast.Statement) -> bool:
    """DDL/security mutate engine-shared structures at execution time."""
    return isinstance(statement, _SHARED_STATE_STATEMENTS)


class AuditLogProxy:
    """Holds the audit log; kept separate so engines can share one."""

    def __init__(self) -> None:
        from flock.db.audit import AuditLog

        self.log = AuditLog()


class Connection:
    """A per-user session: statement execution + transaction control."""

    def __init__(self, database: Database, user: str):
        self.database = database
        self.user = user
        self._txn: Transaction | None = None

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None and self._txn.active

    def execute(
        self, sql: str, params: Sequence[Any] | None = None
    ) -> QueryResult:
        """Execute one statement; ``params`` bind ``?`` placeholders.

        Statements run under the engine's readers-writer statement lock:
        read-only statements share it (concurrent SELECT/PREDICT, each on
        its own snapshot), write statements hold it exclusively across
        execution *and* commit so no reader ever observes a half-published
        multi-table commit.
        """
        entry = self.database.plan_cache.lookup(sql)
        statement = entry.statement
        bound_params = None if params is None else list(params)
        entry.check_params(bound_params)
        lock = self.database.statement_lock
        if isinstance(statement, ast.Begin):
            return self._begin()
        if isinstance(statement, ast.Commit):
            # Commit publishes staged versions: exclusive.
            with lock.write_locked():
                return self._commit()
        if isinstance(statement, ast.Rollback):
            return self._rollback()

        if self.in_transaction:
            assert self._txn is not None
            # DML inside an explicit transaction only stages versions
            # private to this transaction, so it can share the lock with
            # readers; DDL and security statements mutate shared engine
            # structures immediately and need exclusivity.
            guard = (
                lock.write_locked()
                if _mutates_shared_state(statement)
                else lock.read_locked()
            )
            with guard:
                return self.database._run_statement(
                    entry, self.user, self._txn, bound_params
                )

        if is_read_only(statement):
            # Read-only autocommit: snapshot, run, release — never commits.
            with lock.read_locked():
                txn = self.database.transactions.begin(self.user)
                try:
                    return self.database._run_statement(
                        entry, self.user, txn, bound_params
                    )
                finally:
                    self.database.transactions.rollback(txn)

        return self._autocommit_write(entry, bound_params)

    def _autocommit_write(
        self,
        entry: CachedPlan,
        params: list[Any] | None,
        param_rows: list[list[Any]] | None = None,
    ) -> QueryResult:
        """Run a write statement in its own transaction and commit it.

        Executed and committed under the exclusive lock. Write conflicts (a
        commit from an explicit transaction landed first) retry against
        the new head — single statements are trivially serializable.
        ``Database.executemany`` commits its whole batch through here.
        """
        from flock.errors import TransactionError

        with self.database.statement_lock.write_locked():
            attempts = 0
            while True:
                txn = self.database.transactions.begin(self.user)
                try:
                    result = self.database._run_statement(
                        entry, self.user, txn, params, param_rows
                    )
                except FlockError:
                    self.database.transactions.rollback(txn)
                    raise
                if not txn.has_writes:
                    self.database.transactions.rollback(txn)
                    return result
                try:
                    self.database.transactions.commit(txn)
                    self.database.maybe_auto_checkpoint()
                    return result
                except TransactionError:
                    attempts += 1
                    if attempts >= 10:
                        raise

    def execute_script(self, sql: str) -> list[QueryResult]:
        """Execute a ';'-separated script, returning per-statement results."""
        from flock.db.sql.parser import split_statements

        return [self.execute(text) for text in split_statements(sql)]

    # -- explicit transactions ----------------------------------------------
    def _begin(self) -> QueryResult:
        if self.in_transaction:
            raise BindError("already in a transaction")
        self._txn = self.database.transactions.begin(self.user)
        return QueryResult("BEGIN")

    def _commit(self) -> QueryResult:
        if not self.in_transaction:
            raise BindError("no transaction in progress")
        assert self._txn is not None
        self.database.transactions.commit(self._txn)
        self._txn = None
        self.database.maybe_auto_checkpoint()
        return QueryResult("COMMIT")

    def _rollback(self) -> QueryResult:
        if not self.in_transaction:
            raise BindError("no transaction in progress")
        assert self._txn is not None
        self.database.transactions.rollback(self._txn)
        self._txn = None
        return QueryResult("ROLLBACK")


class _EngineExecutionContext:
    """ExecutionContext backed by an engine + transaction snapshot."""

    def __init__(self, database: Database, txn: Transaction):
        self.database = database
        self.txn = txn

    @property
    def memory_budget(self) -> int | None:
        return self.database.memory_budget

    def spill_directory(self) -> str:
        return self.database.spill_directory()

    def table_batch(self, table_name: str) -> Batch:
        version: TableVersion = self.txn.visible_version(table_name)
        return version.batch()

    def table_version(self, table_name: str) -> TableVersion:
        """The snapshot version zone-map pruning should run against."""
        return self.txn.visible_version(table_name)

    def index_lookup(
        self, table_name: str, index_name: str, key_values
    ) -> np.ndarray | None:
        """Row ids matching *key_values* via a hash index, or None.

        Returns None (caller falls back to a full scan; the Filter above
        still applies the predicate) when the index was dropped after the
        plan was cached, or when this transaction reads its own staged
        version — indexes only ever reflect published table heads.
        """
        try:
            table = self.database.catalog.table(table_name)
        except CatalogError:
            return None
        idx = table.index(index_name)
        if idx is None:
            return None
        version = self.txn.visible_version(table_name)
        if version is not table.head_version:
            return None
        return idx.lookup(version, key_values)

    def score(self, node: PredictNode, inputs: Batch) -> list[ColumnVector]:
        if self.database.model_store is None:
            raise InferenceError("no model store attached to this database")
        return self.database.scorer.score(
            node, inputs, self.database.model_store
        )
