"""The reference graph runtime (the ONNX Runtime stand-in).

Two execution regimes, shared op implementations:

- ``batch``: one vectorized pass over the whole feed — the regime of
  standalone ONNX Runtime and of in-DBMS batch scoring;
- ``per_row``: rows are fed one at a time — the regime of row-oriented
  Python UDF scoring, whose per-call dispatch overhead is exactly what
  Figure 4's SONNX/SONNX-ext columns eliminate.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from flock.errors import GraphError
from flock.mlgraph.graph import Graph, Node
from flock.mlgraph.ops import BoundOp, bind


@dataclass
class RuntimeStats:
    """Counters for introspection and benchmarking."""

    runs: int = 0
    rows: int = 0
    node_executions: int = 0
    per_op: dict[str, int] = field(default_factory=dict)

    def note(self, op_type: str) -> None:
        self.node_executions += 1
        self.per_op[op_type] = self.per_op.get(op_type, 0) + 1

    def merge(self, other: "RuntimeStats") -> None:
        self.runs += other.runs
        self.rows += other.rows
        self.node_executions += other.node_executions
        for op_type, count in other.per_op.items():
            self.per_op[op_type] = self.per_op.get(op_type, 0) + count


class GraphRuntime:
    """Executes model graphs against named input feeds.

    One runtime instance is shared by every concurrent PREDICT under the
    serving layer, so per-run counters accumulate into a run-local
    :class:`RuntimeStats` and merge into :attr:`stats` under a lock only
    when the run completes.
    """

    def __init__(self) -> None:
        self.stats = RuntimeStats()
        self._stats_lock = threading.Lock()
        # Execution plan per graph object: the topological order, each node
        # bound to its operator with compiled attributes (a tree ensemble's
        # flat arrays). Batch PREDICTs and every served statement run the
        # same graph again and again; re-deriving the order or
        # re-reading the trees per run would be pure overhead. Keyed by
        # id() with a weakref guard against id reuse after collection; the
        # plan is built under the lock, so a graph compiles once even when
        # threads first run it together.
        self._plan_cache: dict[int, tuple[object, list]] = {}
        self._plan_lock = threading.Lock()

    def _plan(self, graph: Graph) -> list[tuple[Node, BoundOp]]:
        key = id(graph)
        with self._plan_lock:
            entry = self._plan_cache.get(key)
            if entry is not None and entry[0]() is graph:
                return entry[1]
            plan = [
                (node, bind(node.op_type, node.attrs))
                for node in graph.toposorted()
            ]
            try:
                ref = weakref.ref(graph)
            except TypeError:  # graph type without weakref support
                return plan
            if len(self._plan_cache) > 256:  # bound a long-lived runtime
                self._plan_cache.clear()
            self._plan_cache[key] = (ref, plan)
        return plan

    def run(
        self,
        graph: Graph,
        feeds: dict[str, np.ndarray],
        mode: str = "batch",
    ) -> dict[str, np.ndarray]:
        """Execute *graph* and return its named outputs.

        Every feed must be a 1-D array of the same length (one value per
        row); outputs are 1-D arrays (or 2-D for matrix-valued outputs).
        """
        missing = [n for n in graph.input_names if n not in feeds]
        if missing:
            raise GraphError(f"missing graph inputs: {missing}")
        lengths = {len(np.asarray(feeds[n])) for n in graph.input_names}
        if len(lengths) > 1:
            raise GraphError(f"ragged input feeds: lengths {sorted(lengths)}")
        n_rows = lengths.pop() if lengths else 0

        from flock.observability import get_tracer, metrics

        local = RuntimeStats()
        with get_tracer().span(
            "mlgraph.run",
            {"mode": mode, "graph": getattr(graph, "name", "?")},
        ) as span:
            if mode == "batch":
                result = self._run_batch(graph, feeds, local)
            elif mode == "per_row":
                result = self._run_per_row(graph, feeds, n_rows, local)
            else:
                raise GraphError(f"unknown execution mode {mode!r}")
            span.set_attribute("rows", n_rows)
        local.runs = 1
        local.rows = n_rows
        with self._stats_lock:
            self.stats.merge(local)
        registry = metrics()
        registry.counter("mlgraph.runs").inc()
        registry.counter("mlgraph.node_executions").inc(
            local.node_executions
        )
        registry.histogram("mlgraph.run_rows").observe(n_rows)
        return result

    # ------------------------------------------------------------------
    def _run_batch(
        self, graph: Graph, feeds: dict[str, np.ndarray],
        stats: RuntimeStats,
    ) -> dict[str, np.ndarray]:
        tensors: dict[str, np.ndarray] = {
            name: np.asarray(feeds[name]) for name in graph.input_names
        }
        for node, run in self._plan(graph):
            outputs = run([tensors[name] for name in node.inputs])
            if len(outputs) != len(node.outputs):
                raise GraphError(
                    f"operator {node.op_type} produced {len(outputs)} outputs, "
                    f"expected {len(node.outputs)}"
                )
            for name, value in zip(node.outputs, outputs):
                tensors[name] = value
            stats.note(node.op_type)
        return {name: tensors[name] for name in graph.output_names}

    def _run_per_row(
        self, graph: Graph, feeds: dict[str, np.ndarray], n_rows: int,
        stats: RuntimeStats,
    ) -> dict[str, np.ndarray]:
        collected: dict[str, list] = {name: [] for name in graph.output_names}
        arrays = {name: np.asarray(feeds[name]) for name in graph.input_names}
        for i in range(n_rows):
            row_feed = {name: arrays[name][i : i + 1] for name in arrays}
            row_out = self._run_batch(graph, row_feed, stats)
            for name, value in row_out.items():
                collected[name].append(value)
        out: dict[str, np.ndarray] = {}
        for name, chunks in collected.items():
            if chunks:
                out[name] = np.concatenate(chunks)
            else:
                out[name] = np.empty(0)
        return out
