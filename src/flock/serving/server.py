"""The concurrent prediction server: micro-batching over one engine.

:class:`FlockServer` owns a :class:`~flock.db.Database` (usually via a
:class:`~flock.FlockSession`) and serves many concurrent clients. The
mechanisms are the ones the paper argues a DBMS provides for free once
inference lives inside the engine:

- **plan reuse** — every statement goes through the engine's own plan
  cache (:mod:`flock.db.plancache`: parse once, and for parameterless
  SELECTs bind and optimize once too), exactly as direct execution does;
- **dynamic micro-batching** — concurrent parameterized point queries
  (``... WHERE col = ?``) with the same SQL text are coalesced into one
  ``col IN (...)`` statement, scored vectorized in a single PREDICT, and
  scattered back per request (Figure 4's "batch beats per-row" applied to
  serving);
- **admission control** — a bounded in-flight window with typed
  :class:`~flock.errors.ServerOverloadedError` rejections, per-request
  deadlines, and graceful drain on shutdown;
- **observability** — queue wait, batch size, plan-cache hit rate and
  latency percentiles in the process :mod:`flock.observability` registry.

Requests return :class:`ServingFuture` handles; :class:`FlockClient` is the
thin blocking in-process client over them.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from flock.db import functions as fn
from flock.db.engine import Database, is_read_only
from flock.db.plancache import CachedPlan
from flock.db.result import QueryResult
from flock.db.sql import ast_nodes as ast
from flock.db.vector import Batch
from flock.errors import (
    FlockError,
    ReadOnlyReplicaError,
    ServerClosedError,
    ServerOverloadedError,
    ServerTimeoutError,
)
from flock.observability import metrics


# ----------------------------------------------------------------------
# Point-query analysis and batch rewriting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PointQueryShape:
    """A batchable point query: single table, ``WHERE key_column = ?``."""

    table: str
    key_column: str
    key_qualifier: str | None


BATCH_KEY_ALIAS = "__flock_batch_key"


def analyze_point_query(
    statement: ast.Statement, parameter_count: int
) -> PointQueryShape | None:
    """Recognize ``SELECT ... FROM t WHERE col = ?`` shapes.

    Only statements whose result is a pure per-row function of the matched
    rows qualify: no aggregates, grouping, ordering, limits or DISTINCT —
    those change meaning when point queries are coalesced into one IN-list
    statement.
    """
    if parameter_count != 1 or not isinstance(statement, ast.Select):
        return None
    if (
        statement.group_by
        or statement.having is not None
        or statement.order_by
        or statement.distinct
        or statement.limit is not None
        or statement.offset is not None
        or getattr(statement, "ctes", None)
    ):
        return None
    if not isinstance(statement.from_clause, ast.TableRef):
        return None
    where = statement.where
    if not (isinstance(where, ast.BinaryOp) and where.op == "="):
        return None
    left, right = where.left, where.right
    if isinstance(left, ast.Parameter) and isinstance(right, ast.ColumnRef):
        left, right = right, left
    if not (
        isinstance(left, ast.ColumnRef) and isinstance(right, ast.Parameter)
    ):
        return None
    for item in statement.items:
        for node in item.expr.walk():
            if isinstance(node, ast.FunctionCall) and fn.is_aggregate(
                node.name
            ):
                return None
            if isinstance(
                node,
                (
                    ast.InQuery,
                    ast.Parameter,
                    ast.Exists,
                    ast.ScalarSubquery,
                    ast.WindowFunction,
                ),
            ):
                return None
    return PointQueryShape(
        table=statement.from_clause.name,
        key_column=left.name,
        key_qualifier=left.table,
    )


def build_batch_statement(
    statement: ast.Select, shape: PointQueryShape, n_keys: int
) -> ast.Select:
    """The coalesced form: ``WHERE col IN (?, ..., ?)`` + the scatter key.

    The original select list is preserved verbatim; one extra projection of
    the key column (aliased ``__flock_batch_key``) is appended so results
    can be scattered back to the originating requests by key value.
    """
    key_ref = ast.ColumnRef(shape.key_column, shape.key_qualifier)
    items = list(statement.items) + [
        ast.SelectItem(key_ref, alias=BATCH_KEY_ALIAS)
    ]
    where = ast.InList(
        operand=ast.ColumnRef(shape.key_column, shape.key_qualifier),
        items=[ast.Parameter(i) for i in range(n_keys)],
    )
    return ast.Select(
        items=items,
        from_clause=statement.from_clause,
        where=where,
    )


class _Request:
    """One submitted statement on its way through the server."""

    __slots__ = (
        "sql", "params", "user", "deadline", "submitted",
        "event", "result", "error",
    )

    def __init__(
        self,
        sql: str,
        params: list[Any] | None,
        user: str,
        deadline: float | None,
    ):
        self.sql = sql
        self.params = params
        self.user = user
        self.deadline = deadline
        self.submitted = time.perf_counter()
        self.event = threading.Event()
        self.result: QueryResult | None = None
        self.error: BaseException | None = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


class ServingFuture:
    """Handle to an in-flight request; resolves to a QueryResult."""

    def __init__(self, request: _Request):
        self._request = request

    def done(self) -> bool:
        return self._request.event.is_set()

    def result(self, timeout: float | None = None) -> QueryResult:
        """Block until the request completes; raises what execution raised.

        Waits at most until the request's own deadline (if any), then the
        optional *timeout* on top — whichever comes first.
        """
        request = self._request
        wait: float | None = timeout
        if request.deadline is not None:
            remaining = max(0.0, request.deadline - time.perf_counter())
            wait = remaining if wait is None else min(wait, remaining)
        if not request.event.wait(wait):
            raise ServerTimeoutError(
                f"request did not complete within its deadline: "
                f"{request.sql[:80]!r}"
            )
        if request.error is not None:
            raise request.error
        assert request.result is not None
        return request.result


class _PendingBatch:
    """Requests with the same (sql, user) awaiting coalesced execution.

    A lone request that cannot be coalesced travels as a batch without a
    key or shape.
    """

    __slots__ = (
        "key", "statement", "shape", "requests", "created", "closed", "full",
    )

    def __init__(
        self,
        key: tuple[str, str] | None = None,
        statement: ast.Select | None = None,
        shape: PointQueryShape | None = None,
    ):
        self.key = key
        self.statement = statement
        self.shape = shape
        self.requests: list[_Request] = []
        self.created = time.perf_counter()
        self.closed = False
        self.full = threading.Event()


_SHUTDOWN = None


class FlockServer:
    """Serves many concurrent clients against one Flock engine.

    ``session`` may be a :class:`flock.FlockSession` or a bare
    :class:`~flock.db.Database`. Statements execute with the same semantics
    as :meth:`Database.execute`; what the server adds is concurrency,
    plan reuse, micro-batching and admission control.
    """

    def __init__(
        self,
        session,
        *,
        workers: int = 4,
        max_batch_size: int = 32,
        batch_wait_ms: float = 1.0,
        max_pending: int = 256,
        default_timeout_s: float = 30.0,
        auto_start: bool = True,
        read_only: bool = False,
    ):
        self.database: Database = getattr(session, "db", session)
        if workers < 1:
            raise ValueError("FlockServer needs at least one worker")
        self.workers = workers
        # Follower replicas serve snapshot reads only: any statement that
        # could stage a write is rejected at admission (flock.cluster).
        self.read_only = read_only
        self.max_batch_size = max(1, max_batch_size)
        self.batch_wait_s = max(0.0, batch_wait_ms) / 1e3
        self.max_pending = max_pending
        self.default_timeout_s = default_timeout_s

        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._pending: dict[tuple[str, str], _PendingBatch] = {}
        self._lock = threading.Lock()
        self._inflight = 0
        self._closed = False
        self._discard = False
        self._threads: list[threading.Thread] = []
        # Served/batched tallies for stats(), kept separately from the
        # process-wide metrics registry so concurrent servers don't mix.
        self._served = 0
        self._batched = 0
        self._batches = 0
        self._rejected = 0
        self._timeouts = 0
        if auto_start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._threads:
            return
        self._closed = False
        self._discard = False
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"flock-serve-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the server; with ``drain=True`` finish in-flight requests.

        New submissions are rejected immediately with
        :class:`ServerClosedError`. With ``drain=False`` queued requests
        fail with the same error instead of executing. A drained shutdown
        of a durable database also checkpoints it, so a clean restart
        recovers from the snapshot instead of replaying the whole log.
        """
        self._closed = True
        if not drain:
            self._discard = True
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
        if drain and getattr(self.database, "wal", None) is not None:
            if not self.database.wal.poisoned:
                self.database.checkpoint()

    def __enter__(self) -> "FlockServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        user: str = "admin",
        timeout: float | None = None,
    ) -> ServingFuture:
        """Enqueue one statement; returns a future resolving to its result."""
        if self._closed:
            raise ServerClosedError("server is shut down")
        try:
            entry = self.database.plan_cache.lookup(sql)
        except FlockError:
            # Unparseable: execution reports the parse error through the
            # request's future.
            entry = None
        if self.read_only:
            self._check_read_only(entry)
        registry = metrics()
        with self._lock:
            if self._inflight >= self.max_pending:
                self._rejected += 1
                registry.counter("serving.rejected_overload").inc()
                raise ServerOverloadedError(
                    f"request queue is full ({self.max_pending} in flight)"
                )
            self._inflight += 1
        registry.counter("serving.requests").inc()
        registry.gauge("serving.queue_depth").set(self._inflight)

        deadline = None
        timeout = self.default_timeout_s if timeout is None else timeout
        if timeout is not None and timeout > 0:
            deadline = time.perf_counter() + timeout
        request = _Request(
            sql, None if params is None else list(params), user, deadline
        )
        shape = None
        if entry is not None and len(request.params or ()) == 1:
            shape = analyze_point_query(
                entry.statement, entry.parameter_count
            )
        if shape is not None:
            self._enqueue_batchable(
                request, entry.statement, shape, (sql, user)
            )
        else:
            batch = _PendingBatch()
            batch.requests.append(request)
            batch.closed = True
            self._queue.put(batch)
        return ServingFuture(request)

    def execute(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        user: str = "admin",
        timeout: float | None = None,
    ) -> QueryResult:
        """Submit and block for the result (the one-call convenience)."""
        return self.submit(sql, params, user, timeout).result()

    def connect(self, user: str = "admin") -> "FlockClient":
        """A thin per-user in-process client bound to this server."""
        return FlockClient(self, user)

    def _check_read_only(self, entry: CachedPlan | None) -> None:
        """Reject writes/DDL at admission on a read-only (replica) server.

        An unparseable statement passes through: it cannot stage a write,
        and direct execution surfaces the parse error with full context.
        """
        if entry is not None and not is_read_only(entry.statement):
            metrics().counter("serving.rejected_read_only").inc()
            raise ReadOnlyReplicaError(
                f"{entry.statement_type} rejected: this "
                f"server is a read-only follower replica; route writes to "
                f"the primary"
            )

    def stats(self) -> dict:
        """Serving summary: throughput inputs, batching and cache behavior."""
        registry = metrics()
        latency = registry.histogram("serving.latency_ms").snapshot()
        return {
            "served": self._served,
            "batches": self._batches,
            "batched_requests": self._batched,
            "mean_batch_size": (
                self._batched / self._batches if self._batches else 0.0
            ),
            "rejected": self._rejected,
            "timeouts": self._timeouts,
            "plan_cache_entries": len(self.database.plan_cache),
            "plan_cache_hit_rate": self.database.plan_cache.hit_rate,
            "latency_ms": {
                k: latency[k] for k in ("p50", "p95", "p99", "mean")
            },
        }

    # ------------------------------------------------------------------
    # Batching internals
    # ------------------------------------------------------------------
    def _enqueue_batchable(
        self,
        request: _Request,
        statement: ast.Select,
        shape: PointQueryShape,
        key: tuple[str, str],
    ) -> None:
        enqueue = False
        with self._lock:
            batch = self._pending.get(key)
            if (
                batch is None
                or batch.closed
                or len(batch.requests) >= self.max_batch_size
            ):
                batch = _PendingBatch(key, statement, shape)
                self._pending[key] = batch
                enqueue = True
            batch.requests.append(request)
            if len(batch.requests) >= self.max_batch_size:
                batch.closed = True
                if self._pending.get(key) is batch:
                    del self._pending[key]
                batch.full.set()
        if enqueue:
            self._queue.put(batch)

    def _worker_loop(self) -> None:
        while True:
            batch = self._queue.get()
            if batch is _SHUTDOWN:
                return
            try:
                self._run_batch(batch)
            except BaseException as unexpected:  # pragma: no cover - safety
                for request in batch.requests:
                    if not request.event.is_set():
                        self._finish(request, error=unexpected)

    def _close_batch(self, batch: _PendingBatch) -> None:
        if batch.closed:
            return
        # Dynamic coalescing window: wait out the remainder, or until full.
        remaining = batch.created + self.batch_wait_s - time.perf_counter()
        if remaining > 0 and not self._discard:
            batch.full.wait(remaining)
        with self._lock:
            batch.closed = True
            if batch.key is not None and self._pending.get(batch.key) is batch:
                del self._pending[batch.key]

    def _run_batch(self, batch: _PendingBatch) -> None:
        registry = metrics()
        self._close_batch(batch)
        now = time.perf_counter()
        live: list[_Request] = []
        for request in batch.requests:
            if self._discard:
                self._finish(
                    request, error=ServerClosedError("server is shut down")
                )
            elif request.expired(now):
                self._timeouts += 1
                registry.counter("serving.timeouts").inc()
                self._finish(
                    request,
                    error=ServerTimeoutError(
                        "request timed out waiting in the serving queue"
                    ),
                )
            else:
                registry.histogram("serving.queue_wait_ms").observe(
                    (now - request.submitted) * 1e3
                )
                live.append(request)
        if not live:
            return
        self._batches += 1
        registry.counter("serving.batches").inc()
        registry.histogram("serving.batch_size").observe(len(live))
        if batch.shape is not None and len(live) > 1:
            try:
                self._execute_coalesced(batch, live)
                self._batched += len(live)
                return
            except FlockError:
                # Fall back to per-request execution; individual statements
                # then produce their own (per-request) errors or results.
                pass
        for request in live:
            if not request.event.is_set():
                self._execute_single(request)

    def _execute_single(self, request: _Request) -> None:
        try:
            result = self.database.execute(
                request.sql, request.params, user=request.user
            )
        except BaseException as exc:
            self._finish(request, error=exc)
        else:
            self._finish(request, result=result)

    def _execute_coalesced(
        self, batch: _PendingBatch, live: list[_Request]
    ) -> None:
        """One IN-list statement for the whole batch, scattered per request.

        Requests with a NULL key run individually — the engine rejects
        ``col = NULL`` comparisons at bind time, and a coalesced batch must
        surface exactly the error direct execution would.
        """
        runnable: list[_Request] = []
        keys: list[Any] = []
        seen: dict[Any, int] = {}
        for request in live:
            value = request.params[0]  # type: ignore[index]
            if value is None:
                self._execute_single(request)
                continue
            runnable.append(request)
            if value not in seen:
                seen[value] = len(keys)
                keys.append(value)
        if not runnable:
            return
        if len(runnable) == 1 or len(keys) == 0:
            for request in runnable:
                self._execute_single(request)
            return
        statement = build_batch_statement(
            batch.statement, batch.shape, len(keys)
        )
        combined = self.database.run_select_ast(
            statement,
            f"{runnable[0].sql} /* coalesced x{len(runnable)} */",
            user=runnable[0].user,
            params=keys,
        )
        data = combined.batch
        assert data is not None and data.names[-1] == BATCH_KEY_ALIAS
        key_values = data.columns[-1].to_pylist()
        names = list(data.names[:-1])
        columns = data.columns[:-1]
        for request in runnable:
            value = request.params[0]  # type: ignore[index]
            mask = np.fromiter(
                (k == value for k in key_values),
                dtype=bool,
                count=len(key_values),
            )
            scattered = Batch(names, [c.filter(mask) for c in columns])
            result = QueryResult("SELECT", batch=scattered)
            result.stats = combined.stats
            self._finish(request, result=result)

    def _finish(
        self,
        request: _Request,
        result: QueryResult | None = None,
        error: BaseException | None = None,
    ) -> None:
        request.result = result
        request.error = error
        registry = metrics()
        registry.histogram("serving.latency_ms").observe(
            (time.perf_counter() - request.submitted) * 1e3
        )
        registry.counter(
            "serving.responses.error" if error is not None
            else "serving.responses.ok"
        ).inc()
        with self._lock:
            self._inflight -= 1
            self._served += 1
        registry.gauge("serving.queue_depth").set(self._inflight)
        request.event.set()


class FlockClient:
    """Blocking per-user client for an in-process :class:`FlockServer`."""

    def __init__(self, server: FlockServer, user: str = "admin"):
        self.server = server
        self.user = user

    def execute(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        return self.server.execute(sql, params, user=self.user,
                                   timeout=timeout)

    def submit(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        timeout: float | None = None,
    ) -> ServingFuture:
        return self.server.submit(sql, params, user=self.user,
                                  timeout=timeout)
