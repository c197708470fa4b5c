"""The SQL×ML cross-optimizer (§4.1).

Plugs into the relational optimizer as an extra rule pass and applies, per
PredictNode:

1. **model compression** from stored data statistics (tree-branch folding,
   weight thresholding);
2. **input-column pruning** from model sparsity (narrows the node's reads so
   the later projection-pruning pass shrinks the scans);
3. **UDF inlining + predicate push-up**: small models become SQL expressions
   and the node disappears; a pushdown re-run then moves predicates over
   predictions into the scans;
4. **physical strategy selection**: vectorized batch vs per-row UDF scoring
   by estimated cardinality.

Every decision is recorded in :attr:`CrossOptimizer.last_report` so tests,
examples and the ablation benchmarks can observe what fired.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field as dataclass_field

from flock.db.expr import BoundColumn, BoundLiteral
from flock.db.optimizer.cost import estimate_rows
from flock.db.optimizer.rules import apply_pushdown
from flock.db.plan import JoinNode, PlanNode, PredictNode, ProjectNode
from flock.db.types import DataType
from flock.inference.compression import compress_graph
from flock.inference.ir import column_origin
from flock.inference.predict import PreparedModel, _strip_prefix
from flock.inference.pruning import prune_predict_inputs
from flock.inference.selection import choose_strategy
from flock.inference.udf import DEFAULT_MAX_EXPR_NODES, inline_graph


@dataclass
class CrossOptimizer:
    """Configurable cross-optimization pass; see module docstring."""

    enable_compression: bool = True
    enable_pruning: bool = True
    enable_inlining: bool = True
    enable_strategy_selection: bool = True
    weight_tolerance: float = 1e-9
    max_inline_nodes: int = DEFAULT_MAX_EXPR_NODES
    # When a MonitorHub is attached, monitored models are not inlined:
    # inlining erases the Predict operator, and with it the scorer hook the
    # monitor listens on. Trading a constant-factor speedup for observability
    # is the right default for governed deployments.
    monitor_hub: object | None = None
    # Compression cache: (model graph identity, observed ranges) →
    # (compressed graph, stats, inline budgets the graph failed). Table
    # statistics are cached per storage version, so the key is stable
    # until either the model or the data changes — re-deploys and writes
    # invalidate naturally. Guarded by _cache_lock: concurrent readers
    # share one optimizer instance.
    _compression_cache: dict = dataclass_field(default_factory=dict)
    _cache_lock: threading.Lock = dataclass_field(
        default_factory=threading.Lock, repr=False
    )
    # Decision log storage. last_report is thread-local: concurrent
    # optimizations (one per serving worker) each see only their own
    # statement's decisions, matching what single-threaded callers always
    # observed.
    _report_local: threading.local = dataclass_field(
        default_factory=threading.local, repr=False
    )

    @property
    def last_report(self) -> list[str]:
        """Decisions made by this thread's most recent optimization."""
        report = getattr(self._report_local, "report", None)
        if report is None:
            report = self._report_local.report = []
        return report

    @last_report.setter
    def last_report(self, value: list[str]) -> None:
        self._report_local.report = list(value)

    def rules(self):
        """Rule callables for :class:`flock.db.optimizer.rules.Optimizer`."""
        return [self.apply]

    # ------------------------------------------------------------------
    def apply(self, plan: PlanNode, context) -> PlanNode:
        self.last_report = []
        if not any(isinstance(n, PredictNode) for n in plan.walk()):
            return plan
        from flock.observability import get_tracer, metrics

        with get_tracer().span("xopt.apply") as span:
            with get_tracer().span("xopt.prepare"):
                self._prepare_all(plan, context)
            if self.enable_inlining:
                with get_tracer().span("xopt.inline"):
                    plan = self._inline_pass(plan)
                    plan = apply_pushdown(plan)
            if self.enable_strategy_selection:
                with get_tracer().span("xopt.strategy"):
                    self._select_strategies(plan, context)
            span.set_attribute("rules_applied", len(self.last_report))
        registry = metrics()
        registry.counter("xopt.applications").inc()
        registry.counter("xopt.decisions").inc(len(self.last_report))
        return plan

    # -- preparation: compression + pruning -------------------------------
    def _prepare_all(self, plan: PlanNode, context) -> None:
        for node in plan.walk():
            if not isinstance(node, PredictNode):
                continue
            graph = context.model_artifact(node.model_name)
            inline_rejected: set[int] = set()
            if self.enable_compression:
                ranges = self._input_ranges(node, graph, context)
                cache_key = (
                    node.model_name.lower(),
                    id(graph),
                    tuple(sorted(ranges.items())),
                )
                with self._cache_lock:
                    cached = self._compression_cache.get(cache_key)
                if cached is None:
                    cached = (
                        *compress_graph(graph, ranges, self.weight_tolerance),
                        set(),
                    )
                    with self._cache_lock:
                        if len(self._compression_cache) > 256:
                            self._compression_cache.clear()
                        self._compression_cache[cache_key] = cached
                graph, stats, inline_rejected = cached
                folded = stats["tree_nodes_before"] - stats["tree_nodes_after"]
                if folded or stats["weights_zeroed"]:
                    self.last_report.append(
                        f"{node.model_name}: compressed "
                        f"({folded} tree nodes folded, "
                        f"{stats['weights_zeroed']} weights zeroed)"
                    )
            if self.enable_pruning:
                prepared = prune_predict_inputs(
                    node, graph, self.weight_tolerance
                )
                self.last_report.extend(
                    f"{node.model_name}: {note}" for note in prepared.notes
                )
            else:
                prepared = PreparedModel(graph, list(graph.input_names))
            prepared.inline_rejected = inline_rejected
            node.compiled = prepared

    def _input_ranges(
        self, node: PredictNode, graph, context
    ) -> dict[str, tuple[float, float]]:
        ranges: dict[str, tuple[float, float]] = {}
        for input_name, column_index in zip(
            graph.input_names, node.input_indexes
        ):
            origin = column_origin(node.child, column_index)
            if origin is None:
                continue
            table_name, column_name = origin
            try:
                stats = context.table_stats(table_name)
            except Exception:  # engine without stats support
                continue
            column_stats = stats.column(column_name)
            if column_stats is None:
                continue
            lo, hi = column_stats.min_value, column_stats.max_value
            if isinstance(lo, (int, float)) and isinstance(hi, (int, float)):
                ranges[input_name] = (float(lo), float(hi))
        return ranges

    # -- inlining ----------------------------------------------------------
    def _inline_pass(self, plan: PlanNode) -> PlanNode:
        if isinstance(plan, JoinNode):
            plan.left = self._inline_pass(plan.left)
            plan.right = self._inline_pass(plan.right)
        elif plan.children():
            plan.child = self._inline_pass(plan.children()[0])  # type: ignore[attr-defined]
        if not isinstance(plan, PredictNode):
            return plan

        if self.monitor_hub is not None and getattr(
            self.monitor_hub, "has_monitor", lambda name: False
        )(plan.model_name):
            self.last_report.append(
                f"{plan.model_name}: inlining skipped (model is monitored)"
            )
            return plan

        prepared = plan.compiled
        assert isinstance(prepared, PreparedModel)
        if self.max_inline_nodes in prepared.inline_rejected:
            return plan
        input_exprs: dict[str, object] = {}
        for input_name, column_index in zip(
            prepared.active_inputs, plan.input_indexes
        ):
            child_field = plan.child.fields[column_index]
            input_exprs[input_name] = BoundColumn(
                column_index, child_field.dtype, child_field.name
            )
        for input_name, value in prepared.constant_fill.items():
            input_exprs[input_name] = BoundLiteral(DataType.FLOAT, value)

        compiled = inline_graph(
            prepared.graph, input_exprs, self.max_inline_nodes
        )
        if compiled is None:
            # Whether a graph inlines depends only on the graph and the
            # budget, so a cached compressed graph is never tried again.
            prepared.inline_rejected.add(self.max_inline_nodes)
            return plan

        passthrough = [
            BoundColumn(i, f.dtype, f.name)
            for i, f in enumerate(plan.child.fields)
        ]
        names = [f.name for f in plan.child.fields]
        output_exprs = []
        for output_field in plan.output_fields:
            expr = compiled.get(_strip_prefix(output_field.name))
            if expr is None:
                return plan
            output_exprs.append(expr)
            names.append(output_field.name)
        self.last_report.append(
            f"{plan.model_name}: inlined into SQL expressions"
        )
        return ProjectNode(plan.child, passthrough + output_exprs, names)

    # -- strategy selection ---------------------------------------------
    def _select_strategies(self, plan: PlanNode, context) -> None:
        for node in plan.walk():
            if not isinstance(node, PredictNode):
                continue
            prepared = node.compiled
            graph = (
                prepared.graph
                if isinstance(prepared, PreparedModel)
                else context.model_artifact(node.model_name)
            )
            rows = estimate_rows(node.child, context.table_row_count)
            if not math.isfinite(rows):
                rows = 1e9
            node.strategy = choose_strategy(rows, graph)
            self.last_report.append(
                f"{node.model_name}: strategy={node.strategy} "
                f"(est. {rows:.0f} rows)"
            )
