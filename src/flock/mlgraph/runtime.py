"""The reference graph runtime (the ONNX Runtime stand-in).

One execution regime: one vectorized pass over the whole feed, the regime
of standalone ONNX Runtime and of in-DBMS batch scoring. A row scored
alone is a one-row feed through the same pass and gets the same bits as
inside a larger batch; an operator that picks a cheaper kernel for few
rows (the tree scorer's scalar walk) decides on the row count it is given.
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
        # Per graph object: the topological order with each node bound to
        # its operator and compiled attributes (a tree ensemble's flat
        # arrays), and per requested output set the plan, those bound
        # nodes the outputs depend on. Batch PREDICTs and every served
        # statement run the same graph again and again; re-deriving the
        # order or re-reading the trees per run would be pure overhead.
        # Keyed by id() with a weakref guard against id reuse after
        # collection; built under the lock, so a graph compiles once even
        # when threads first run it together.
        self._plan_cache: dict[int, tuple[object, list, dict]] = {}
        self._plan_lock = threading.Lock()

    def _plan(
        self, graph: Graph, outputs: tuple[str, ...]
    ) -> list[tuple[Node, BoundOp]]:
        key = id(graph)
        with self._plan_lock:
            entry = self._plan_cache.get(key)
            if entry is None or entry[0]() is not graph:
                bound = [
                    (node, bind(node.op_type, node.attrs))
                    for node in graph.toposorted()
                ]
                try:
                    ref = weakref.ref(graph)
                except TypeError:  # graph type without weakref support
                    return _needed(bound, outputs)
                if len(self._plan_cache) > 256:  # bound a long-lived runtime
                    self._plan_cache.clear()
                entry = self._plan_cache[key] = (ref, bound, {})
            plans = entry[2]
            if outputs not in plans:
                plans[outputs] = _needed(entry[1], outputs)
            return plans[outputs]

    def run(
        self,
        graph: Graph,
        feeds: dict[str, np.ndarray],
        outputs: list[str] | None = None,
    ) -> dict[str, np.ndarray]:
        """Execute *graph* and return its named outputs.

        Every feed must be a 1-D array of the same length (one value per
        row); outputs are 1-D arrays (or 2-D for matrix-valued outputs).
        *outputs* names the graph outputs wanted (default: all of them);
        only the nodes they depend on run.
        """
        missing = [n for n in graph.input_names if n not in feeds]
        if missing:
            raise GraphError(f"missing graph inputs: {missing}")
        wanted = tuple(graph.output_names if outputs is None else outputs)
        unknown = [n for n in wanted if n not in graph.output_names]
        if unknown:
            raise GraphError(f"not outputs of graph {graph.name!r}: {unknown}")
        lengths = {len(np.asarray(feeds[n])) for n in graph.input_names}
        if len(lengths) > 1:
            raise GraphError(f"ragged input feeds: lengths {sorted(lengths)}")
        n_rows = lengths.pop() if lengths else 0

        from flock.observability import get_tracer, metrics

        local = RuntimeStats()
        with get_tracer().span(
            "mlgraph.run", {"graph": getattr(graph, "name", "?")}
        ) as span:
            tensors: dict[str, np.ndarray] = {
                name: np.asarray(feeds[name]) for name in graph.input_names
            }
            for node, op in self._plan(graph, wanted):
                values = op([tensors[name] for name in node.inputs])
                if len(values) != len(node.outputs):
                    raise GraphError(
                        f"operator {node.op_type} produced {len(values)} "
                        f"outputs, expected {len(node.outputs)}"
                    )
                tensors.update(zip(node.outputs, values))
                local.note(node.op_type)
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
        return {name: tensors[name] for name in wanted}


def _needed(
    bound: list[tuple[Node, BoundOp]], outputs: tuple[str, ...]
) -> list[tuple[Node, BoundOp]]:
    """The bound nodes *outputs* depend on, in their topological order."""
    needed = set(outputs)
    kept = []
    for node, run in reversed(bound):
        if needed.intersection(node.outputs):
            kept.append((node, run))
            needed.update(node.inputs)
    return kept[::-1]
