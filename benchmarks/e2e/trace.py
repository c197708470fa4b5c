"""Outside-in tracing: spans around flock's public layer boundaries,
recorded from this directory only. Nothing under ``src/`` changes; spans
inside the program are a later issue.

``Tracer.install()`` replaces each boundary in ``BOUNDARIES`` (a public
function or method, at the module or class attribute its callers look it
up through) with a wrapper that records one span per call: layer, start,
end, parent span and the operation the generator thread was running.
A layer's *self* time is its spans' duration minus what their child spans
cover; counts that exist only at a boundary (RPC bytes, rows shipped to
the coordinator) are taken there too. Every other count comes from
flock's own ``observability.metrics()`` registry, diffed over the window.

Only the traced run installs this; end-to-end runs never import it.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager

#: (module, attribute path, layer). Layer names are flock module names.
BOUNDARIES = [
    ("flock.serving.server", "FlockServer.submit", "serving"),
    ("flock.db.engine", "Connection.execute", "db.engine"),
    ("flock.db.engine", "Database.execute_plan", "db.engine"),
    ("flock.db.engine", "Database.run_select_ast", "db.engine"),
    ("flock.db.engine", "Database.executemany", "db.engine"),
    ("flock.db.sql.parser", "Parser.parse", "db.sql"),
    ("flock.db.binder", "Binder.bind_query", "db.binder"),
    ("flock.db.optimizer.rules", "Optimizer.optimize", "db.optimizer"),
    ("flock.db.exec.executor", "Executor.run", "db.exec"),
    ("flock.db.index", "HashIndex.lookup", "db.index"),
    ("flock.inference.predict", "DefaultScorer.score", "inference"),
    ("flock.mlgraph.runtime", "GraphRuntime.run", "mlgraph"),
    ("flock.db.storage", "Table.build_insert", "db.storage"),
    ("flock.db.storage", "Table.build_append", "db.storage"),
    ("flock.db.storage", "Table.build_update", "db.storage"),
    ("flock.db.storage", "Table.build_delete", "db.storage"),
    ("flock.db.storage", "Table.maintain_indexes", "db.index"),
    ("flock.db.txn", "TransactionManager.commit", "db.txn"),
    ("flock.db.wal", "WriteAheadLog.log_commit", "db.wal"),
    ("flock.db.wal", "WriteAheadLog.wait_durable", "db.wal"),
    ("flock.db.wal", "WriteAheadLog.checkpoint", "db.wal"),
    ("flock.db.wal", "open_database", "db.wal"),
    # run_scatter and the framed send/recv are wrapped where their callers
    # bound them (router and supervisor import them by name).
    ("flock.shard.router", "run_scatter", "shard"),
    ("flock.shard.merge", "gather_versions", "shard"),
    ("flock.proc.supervisor", "send_message", "proc"),
    ("flock.proc.supervisor", "recv_message", "proc"),
]
LAYERS = sorted({layer for _, _, layer in BOUNDARIES})


class Tracer:
    def __init__(self) -> None:
        #: [layer, boundary, start, end, parent span or None, statement id,
        #: child seconds]; kept in memory, written out by ``dump`` at exit.
        self.spans: list[list] = []
        #: Counts taken at a boundary (RPC bytes, rows shipped).
        self.counts: Counter = Counter()
        #: Change in flock's metrics registry, summed over the sweeps.
        self.registry: Counter = Counter()
        #: The operation the generator thread is running: its ordinal, 0
        #: while predict.serving keeps many in flight, None between
        #: operations — when nothing is recorded, so the harness's own
        #: checks and reloads never count as a layer's time.
        self.statement: int | None = None
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------
    def install(self) -> None:
        for module_name, path, layer in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *holders, attribute = path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            self._replace(owner, attribute, self._span_wrapper(
                getattr(owner, attribute), layer, path,
                self._rows_shipped if attribute == "gather_versions" else None,
            ))
        framing = importlib.import_module("flock.proc.framing")
        self._replace(framing, "send_frame", self._count_sent(
            framing.send_frame))
        self._replace(framing, "recv_frame", self._count_received(
            framing.recv_frame))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _replace(self, owner, attribute: str, wrapper) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def _span_wrapper(self, function, layer: str, boundary: str,
                      on_result=None):
        spans, local = self.spans, self._local

        def traced(*args, **kwargs):
            statement = self.statement
            if statement is None:
                return function(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [layer, boundary, time.perf_counter(), 0.0,
                    stack[-1] if stack else None, statement, 0.0]
            spans.append(span)
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = time.perf_counter()
                if span[4] is not None:
                    span[4][6] += span[3] - span[2]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _rows_shipped(self, versions: dict) -> None:
        self.counts["shard.gathers"] += 1
        self.counts["shard.rows_shipped"] += sum(
            version.row_count for version in versions.values()
        )

    def _count_sent(self, send_frame):
        def counted(sock, payload):
            self.counts["proc.rpc_calls"] += 1
            self.counts["proc.rpc_bytes_out"] += len(payload)
            return send_frame(sock, payload)
        return counted

    def _count_received(self, recv_frame):
        def counted(sock, **kwargs):
            payload = recv_frame(sock, **kwargs)
            if payload is not None:
                self.counts["proc.rpc_bytes_in"] += len(payload)
            return payload
        return counted

    @contextmanager
    def registry_window(self):
        """Adds the registry's change across the block to ``registry``."""
        before = registry_totals()
        yield
        for name, total in registry_totals().items():
            self.registry[name] += total - before.get(name, 0.0)

    # -- reading --------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Per layer: span duration minus child coverage, summed."""
        out = dict.fromkeys(LAYERS, 0.0)
        for layer, _, start, end, _parent, _statement, children in self.spans:
            out[layer] += (end - start) - children
        return out

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def inclusive_seconds(self, boundary: str) -> float:
        """Total duration, children included, of one boundary's spans."""
        return sum(s[3] - s[2] for s in self.spans if s[1] == boundary)

    def dump(self, path) -> None:
        """One row per span, parents by row id (-1: no wrapped caller)."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [i, ids.get(id(parent), -1), layer, boundary, start, end,
             statement]
            for i, (layer, boundary, start, end, parent, statement, _children)
            in enumerate(self.spans)
        ]
        with open(path, "w") as out:
            json.dump({
                "columns": ["id", "parent", "layer", "boundary", "start_s",
                            "end_s", "statement"],
                "spans": rows,
            }, out)


def registry_totals() -> dict[str, float]:
    """Flat totals of flock's metrics registry: a counter's value, a
    histogram's observation count (``name.count``) and sum (``name.sum``)."""
    from flock import observability

    totals: dict[str, float] = {}
    for name, snap in observability.metrics().snapshot().items():
        if snap["type"] == "histogram":
            totals[name + ".count"] = snap["count"]
            totals[name + ".sum"] = snap["sum"]
        else:
            totals[name] = snap["value"]
    return totals


# ----------------------------------------------------------------------
# The per-layer metrics of BENCHMARK.json
# ----------------------------------------------------------------------
#: name -> (unit, better). ``statement_ms`` is the mean latency of the
#: traced window's successful operations, as the generator measured it.
#: Every ``*.share`` is time as a percentage of it (multiply to get
#: milliseconds per operation): a layer's self time, or a time flock's
#: registry recorded. ``unattributed.share`` is what no layer's self time
#: covers: time under no wrapped boundary and, on predict.serving, the
#: time a request waits its turn. Counts are per successful operation, so
#: windows of different length compare. A layer that a workload does not
#: touch reports 0 — the prediction README.md writes down for it.
PER_LAYER = {
    "statement_ms": ("ms", "lower"),
    **{f"{layer}.share": ("%", "lower") for layer in LAYERS},
    "unattributed.share": ("%", "lower"),
    "trace_overhead": ("%", "lower"),
    "db.exec.operators": ("count", "lower"),
    "db.exec.morsels": ("count", "lower"),
    "db.exec.spill_bytes": ("bytes", "lower"),
    "inference.score.share": ("%", "lower"),
    "inference.batches": ("count", "lower"),
    "inference.rows_scored": ("count", "lower"),
    "inference.code_rows_saved": ("count", "higher"),
    "inference.xopt_applications": ("count", "higher"),
    "inference.rows_scored_per_result_row": ("ratio", "lower"),
    "mlgraph.runs": ("count", "lower"),
    "mlgraph.node_executions": ("count", "lower"),
    "serving.mean_batch_size": ("count", "higher"),
    "serving.queue_wait.share": ("%", "lower"),
    "serving.plan_cache_hit_rate": ("ratio", "higher"),
    "serving.rejected": ("count", "lower"),
    "serving.timeouts": ("count", "lower"),
    "shard.gather.share": ("%", "lower"),
    "shard.rows_shipped": ("count", "lower"),
    "shard.routes_single": ("count", "higher"),
    "shard.routes_scatter": ("count", "lower"),
    "shard.routes_broadcast": ("count", "lower"),
    "proc.rpc_calls": ("count", "lower"),
    "proc.rpc_bytes_out": ("bytes", "lower"),
    "proc.rpc_bytes_in": ("bytes", "lower"),
    "db.wal.appends": ("count", "lower"),
    "db.wal.fsyncs": ("count", "lower"),
    "db.wal.fsync.share": ("%", "lower"),
    "db.wal.bytes_written": ("bytes", "lower"),
    "db.wal.replay_records": ("count", "lower"),
    "db.wal.checkpoints": ("count", "lower"),
    "db.wal.bytes_per_user_byte": ("ratio", "lower"),
    "db.wal.disk_bytes_after_close": ("bytes", "lower"),
    "db.index.lookups": ("count", "lower"),
    "db.index.advances": ("count", "higher"),
    "db.index.rebuilds": ("count", "lower"),
    "db.index.fallbacks": ("count", "lower"),
    "db.index.lookups_without_rebuild": ("ratio", "higher"),
}


def layer_metrics(tracer: Tracer, routes_delta: dict, traced,
                  plain_geomean_ms: float, traced_geomean_ms: float,
                  disk_bytes: int) -> dict[str, float]:
    """Values for every name in PER_LAYER from one traced window.

    *traced* is the window's ``Samples``; *routes_delta* the change in the
    sharded client's route counts across it (empty elsewhere).
    """
    latencies = [x for v in traced.by_shape.values() for x in v]
    ops, wall = len(latencies), sum(latencies)
    self_seconds = tracer.self_seconds()
    attributed = sum(self_seconds.values())
    delta = lambda name: tracer.registry[name]
    ratio = lambda top, bottom: top / bottom if bottom else 0.0
    scored = delta("predict.batch_rows.sum")
    lookups = delta("index.lookups")
    cache_lookups = (delta("serving.plan_cache.hits")
                     + delta("serving.plan_cache.misses"))
    share = lambda seconds: 100.0 * seconds / wall
    values = {
        "statement_ms": wall * 1e3 / ops,
        **{f"{layer}.share": share(seconds)
           for layer, seconds in self_seconds.items()},
        "unattributed.share": share(wall - attributed),
        "trace_overhead":
            100.0 * (traced_geomean_ms / plain_geomean_ms - 1.0),
        "db.exec.operators": delta("exec.operators") / ops,
        "db.exec.morsels": delta("parallel.morsels") / ops,
        "db.exec.spill_bytes": delta("spill.bytes_written") / ops,
        "inference.score.share": share(delta("predict.score_ms.sum") / 1e3),
        "inference.batches": delta("predict.batches") / ops,
        "inference.rows_scored": scored / ops,
        "inference.code_rows_saved": delta("predict.code_rows_saved") / ops,
        "inference.xopt_applications": delta("xopt.applications") / ops,
        "inference.rows_scored_per_result_row":
            ratio(scored, traced.result_rows),
        "mlgraph.runs": delta("mlgraph.runs") / ops,
        "mlgraph.node_executions": delta("mlgraph.node_executions") / ops,
        "serving.mean_batch_size": ratio(
            delta("serving.batch_size.sum"), delta("serving.batch_size.count")
        ),
        "serving.queue_wait.share":
            share(delta("serving.queue_wait_ms.sum") / 1e3),
        "serving.plan_cache_hit_rate": ratio(
            delta("serving.plan_cache.hits"), cache_lookups
        ),
        "serving.rejected": delta("serving.rejected_overload"),
        "serving.timeouts": delta("serving.timeouts"),
        "shard.gather.share":
            share(tracer.inclusive_seconds("gather_versions")),
        "shard.rows_shipped": tracer.counts["shard.rows_shipped"] / ops,
        "shard.routes_single": routes_delta.get("single", 0) / ops,
        "shard.routes_scatter": routes_delta.get("scatter", 0) / ops,
        "shard.routes_broadcast": routes_delta.get("broadcast", 0) / ops,
        "proc.rpc_calls": tracer.counts["proc.rpc_calls"] / ops,
        "proc.rpc_bytes_out": tracer.counts["proc.rpc_bytes_out"] / ops,
        "proc.rpc_bytes_in": tracer.counts["proc.rpc_bytes_in"] / ops,
        "db.wal.appends": delta("wal.appends") / ops,
        "db.wal.fsyncs": delta("wal.fsyncs") / ops,
        "db.wal.fsync.share": share(delta("wal.fsync_ms.sum") / 1e3),
        "db.wal.bytes_written": delta("wal.bytes_written") / ops,
        "db.wal.replay_records": delta("wal.replay_records") / ops,
        "db.wal.checkpoints": delta("checkpoint.count") / ops,
        "db.wal.bytes_per_user_byte": ratio(
            delta("wal.bytes_written"), traced.user_bytes
        ),
        "db.wal.disk_bytes_after_close": float(disk_bytes),
        "db.index.lookups": lookups / ops,
        "db.index.advances": delta("index.advances") / ops,
        "db.index.rebuilds": delta("index.rebuilds") / ops,
        "db.index.fallbacks": delta("index.fallbacks") / ops,
        "db.index.lookups_without_rebuild": ratio(
            lookups - delta("index.rebuilds"), lookups
        ),
    }
    return values
