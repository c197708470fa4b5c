"""A vectorized, materializing plan executor.

Each node is evaluated bottom-up into a :class:`~flock.db.vector.Batch`.
Tables are materialized in memory, so full materialization per operator is
the appropriate regime (it is also what keeps the vectorized-vs-per-row
comparison in the Figure 4 benchmark honest: both regimes share this
executor and differ only in the Predict operator's strategy).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from flock.db import index as index_module
from flock.db.encoding import EncodedVector
from flock.db.exec import aggregate, grouping
from flock.db.exec import spill as spill_module
from flock.db.expr import BoundExpr, truthy_mask
from flock.db.plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    IndexLookupNode,
    JoinNode,
    LimitNode,
    PlanNode,
    PredictNode,
    ProjectNode,
    ScanNode,
    SetOpNode,
    SortNode,
    WindowNode,
)
from flock.db.types import DataType
from flock.db.vector import Batch, ColumnVector, concat_columns
from flock.errors import ExecutionError
from flock.observability import get_tracer, metrics


#: EXPLAIN ANALYZE ``spill=`` tag of each ``spill.<kind>`` counter.
_SPILL_LABELS = {"aggregates": "agg", "joins": "join"}


class ExecutionContext(Protocol):
    """Runtime services a plan needs: table snapshots and model scoring."""

    def table_batch(self, table_name: str) -> Batch: ...

    def score(self, node: PredictNode, inputs: Batch) -> list[ColumnVector]: ...


@dataclass
class NodeStats:
    """Per-plan-node runtime stats collected for EXPLAIN ANALYZE.

    ``wall_ns`` is inclusive (the node plus everything under it), which is
    what the nested EXPLAIN ANALYZE tree reads naturally as.
    """

    rows_out: int = 0
    wall_ns: int = 0
    calls: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def wall_ms(self) -> float:
        return self.wall_ns / 1e6


def render_analyzed_plan(plan: PlanNode, stats: dict[int, NodeStats]) -> str:
    """The plan tree with per-node row counts and wall time annotations.

    Mirrors :meth:`PlanNode.explain`; ``stats`` is keyed by ``id(node)``
    (as collected by ``Executor(collect_stats=True)``).
    """
    lines: list[str] = []

    def visit(node: PlanNode, indent: int) -> None:
        line = "  " * indent + node.describe()
        node_stats = stats.get(id(node))
        if node_stats is not None:
            parts = []
            child_stats = [stats.get(id(c)) for c in node.children()]
            if child_stats and all(cs is not None for cs in child_stats):
                rows_in = sum(cs.rows_out for cs in child_stats)
                parts.append(f"rows_in={rows_in}")
            parts.append(f"rows={node_stats.rows_out}")
            parts.append(f"time={node_stats.wall_ms:.3f}ms")
            parts.extend(f"{k}={v}" for k, v in node_stats.extras.items())
            line += "  [" + " ".join(parts) + "]"
        lines.append(line)
        for child in node.children():
            visit(child, indent + 1)

    visit(plan, 0)
    return "\n".join(lines)


class Executor:
    """Evaluates logical plans against an :class:`ExecutionContext`.

    With ``collect_stats=True`` every operator execution is recorded into
    :attr:`node_stats` (keyed by ``id(plan_node)``) — the data source for
    ``EXPLAIN ANALYZE``. Trace spans are always emitted (one per operator
    node) unless tracing is globally disabled.
    """

    def __init__(self, context: ExecutionContext, collect_stats: bool = False):
        self.context = context
        self.collect_stats = collect_stats
        self.node_stats: dict[int, NodeStats] = {}

    def run(self, plan: PlanNode) -> Batch:
        batch = self._execute(plan)
        if batch.names != plan.field_names():
            batch = Batch(plan.field_names(), batch.columns)
        return batch

    # ------------------------------------------------------------------
    def _execute(self, plan: PlanNode) -> Batch:
        op_name = type(plan).__name__
        with get_tracer().span(f"exec.{op_name}") as span:
            start_ns = time.perf_counter_ns()
            batch = self._execute_node(plan)
            elapsed_ns = time.perf_counter_ns() - start_ns
            span.set_attribute("rows_out", batch.num_rows)
            if isinstance(plan, PredictNode):
                span.set_attribute("strategy", plan.strategy or "batch")
            if self.collect_stats:
                node_stats = self.node_stats.setdefault(id(plan), NodeStats())
                node_stats.calls += 1
                node_stats.rows_out += batch.num_rows
                node_stats.wall_ns += elapsed_ns
                if isinstance(plan, PredictNode):
                    node_stats.extras["strategy"] = plan.strategy or "batch"
        metrics().counter("exec.operators").inc()
        return batch

    def _execute_node(self, plan: PlanNode) -> Batch:
        if isinstance(plan, ScanNode):
            return self._scan(plan)
        if isinstance(plan, FilterNode):
            return self._filter(plan)
        if isinstance(plan, ProjectNode):
            return self._project(plan)
        if isinstance(plan, PredictNode):
            return self._predict(plan)
        if isinstance(plan, JoinNode):
            return self._join(plan)
        if isinstance(plan, AggregateNode):
            return self._aggregate(plan)
        if isinstance(plan, SortNode):
            return self._sort(plan)
        if isinstance(plan, LimitNode):
            return self._limit(plan)
        if isinstance(plan, DistinctNode):
            return self._distinct(plan)
        if isinstance(plan, SetOpNode):
            return self._set_op(plan)
        if isinstance(plan, WindowNode):
            return self._window(plan)
        raise ExecutionError(f"cannot execute plan node {type(plan).__name__}")

    def _scan(self, node: ScanNode) -> Batch:
        """Materialize a scan's input: index lookup, zone pruning or full.

        Both accelerations are advisory supersets — the filter above
        re-checks the full predicate — so any fallback (a context without
        index services, a snapshot the index cannot serve) silently
        degrades to the plain full scan.
        """
        base = self.context.table_batch(node.table_name)
        extras: dict = {}
        selected = [base.columns[i] for i in node.column_indexes]
        if isinstance(node, IndexLookupNode):
            lookup = getattr(self.context, "index_lookup", None)
            row_ids = (
                lookup(node.table_name, node.index_name, node.key_values)
                if lookup is not None
                else None
            )
            if row_ids is not None:
                selected = [c.take(row_ids) for c in selected]
                extras["index"] = node.index_name
            else:
                extras["index"] = f"{node.index_name}(fallback)"
                metrics().counter("index.fallbacks").inc()
        elif node.zone_predicates:
            version_of = getattr(self.context, "table_version", None)
            if version_of is not None:
                version = version_of(node.table_name)
                row_mask, pruned, _total = index_module.prune_row_mask(
                    version, node.zone_predicates
                )
                if row_mask is not None:
                    selected = [c.filter(row_mask) for c in selected]
                extras["morsels_pruned"] = pruned
        if self.collect_stats:
            encodings = sorted(
                {c.encoding for c in selected if isinstance(c, EncodedVector)}
            )
            if encodings:
                extras["enc"] = ",".join(encodings)
        if extras and self.collect_stats:
            stats = self.node_stats.setdefault(id(node), NodeStats())
            stats.extras.update(extras)
        return Batch([f.name for f in node.fields], selected)

    def _filter(self, node: FilterNode) -> Batch:
        child = self._execute(node.child)
        return child.filter(truthy_mask(node.predicate.evaluate(child)))

    def _project(self, node: ProjectNode) -> Batch:
        child = self._execute(node.child)
        columns = [e.evaluate(child) for e in node.exprs]
        return Batch([f.name for f in node.fields], columns)

    def _predict(self, node: PredictNode) -> Batch:
        child = self._execute(node.child)
        inputs = Batch(
            [child.names[i] for i in node.input_indexes],
            [child.columns[i] for i in node.input_indexes],
        )
        outputs = self.context.score(node, inputs)
        return child.with_columns([f.name for f in node.output_fields], outputs)

    # -- joins -----------------------------------------------------------
    def _join(self, node: JoinNode) -> Batch:
        left = self._execute(node.left)
        right = self._execute(node.right)
        if node.join_type in ("SEMI", "ANTI"):
            matched = self._matched_left_rows(node, left, right)
            if node.join_type == "SEMI":
                return left.filter(matched)
            return left.filter(~matched)
        if node.join_type == "CROSS" and node.condition is None:
            return self._cross(left, right)
        left_keys, right_keys, residual = _split_join_condition(
            node, left.num_columns
        )
        if left_keys:
            return self._hash_join(
                node, left, right, left_keys, right_keys, residual
            )
        return self._nested_loop(node, left, right, node.condition)

    def _matched_left_rows(
        self, node: JoinNode, left: Batch, right: Batch
    ) -> np.ndarray:
        """Which left rows have ≥1 right match under the join condition.

        The SEMI/ANTI work-horse: the output is a boolean mask in left row
        order, so the join preserves left order deterministically.
        """
        matched = np.zeros(left.num_rows, dtype=bool)
        if node.condition is None:
            if right.num_rows > 0:
                matched[:] = True
            return matched
        left_keys, right_keys, residual = _split_join_condition(
            node, left.num_columns
        )
        if left_keys:
            left_idx, right_idx, match_counts = grouping.equi_match(
                [e.evaluate(left) for e in left_keys],
                [e.evaluate(right) for e in right_keys],
            )
            if residual is None:
                return match_counts > 0
            combined = _combine(left, right, left_idx, right_idx)
            mask = truthy_mask(residual.evaluate(combined))
            matched[left_idx[mask]] = True
            return matched
        combined = self._cross(left, right)
        mask = truthy_mask(node.condition.evaluate(combined))
        left_rep = np.repeat(np.arange(left.num_rows), right.num_rows)
        matched[left_rep[mask]] = True
        return matched

    def _cross(self, left: Batch, right: Batch) -> Batch:
        left_idx = np.repeat(np.arange(left.num_rows), right.num_rows)
        right_idx = np.tile(np.arange(right.num_rows), left.num_rows)
        combined = left.take(left_idx)
        right_taken = right.take(right_idx)
        return combined.with_columns(right_taken.names, right_taken.columns)

    def _hash_join(
        self,
        node: JoinNode,
        left: Batch,
        right: Batch,
        left_keys: list[BoundExpr],
        right_keys: list[BoundExpr],
        residual: BoundExpr | None,
    ) -> Batch:
        """INNER/LEFT equi-join, one key partition at a time.

        Equal keys share a partition, so partitions join independently;
        each reports its pairs with global row positions, and ordering the
        pieces by ``(left row, right row)`` is exactly the pair order one
        build-then-probe pass emits. LEFT padding appends the unmatched
        left rows (NULL-key rows included) ascending, then the rows whose
        every match failed the residual. A join with a residual always
        runs as one partition: the residual is applied to the merged pairs.
        """
        want_left = node.join_type == "LEFT"

        def join_partition(left_part, right_part):
            (lsub, lrows), (rsub, rrows) = left_part, right_part
            lidx, ridx, counts = grouping.equi_match(
                [e.evaluate(lsub) for e in left_keys],
                [e.evaluate(rsub) for e in right_keys],
            )
            unmatched = lrows[counts == 0] if want_left else lrows[:0]
            pairs = _combine(lsub, rsub, lidx, ridx)
            return pairs, lrows[lidx], rrows[ridx], unmatched

        pairs, left_rows, right_rows, unmatched = zip(
            *self._map_partitions(
                node,
                "joins",
                [left, right],
                [left_keys, right_keys],
                join_partition,
                splittable=residual is None,
            )
        )
        combined = Batch.concat_all(pairs)
        left_rows = np.concatenate(left_rows)
        unmatched = np.sort(np.concatenate(unmatched))
        if len(pairs) > 1:
            order = np.lexsort((np.concatenate(right_rows), left_rows))
            combined, left_rows = combined.take(order), left_rows[order]

        if residual is not None:
            mask = truthy_mask(residual.evaluate(combined))
            combined = combined.filter(mask)
            if want_left:
                # Rows whose every match failed the residual revert to
                # unmatched, after the rows that never matched at all.
                paired = np.zeros(left.num_rows, dtype=bool)
                paired[left_rows] = True
                paired[left_rows[mask]] = False
                unmatched = np.concatenate([unmatched, np.nonzero(paired)[0]])
        if len(unmatched):
            combined = combined.concat(_left_padding(left, right, unmatched))
        return combined

    def _map_partitions(
        self,
        node: PlanNode,
        kind: str,
        inputs: list[Batch],
        key_exprs: list[list[BoundExpr]],
        work,
        splittable: bool = True,
    ) -> list:
        """``work`` applied to each key partition of *inputs*; its results.

        ``work`` receives one ``(batch, global row positions)`` pair per
        input. Under the memory budget there is one partition — the inputs
        themselves, untouched. Over it, rows are partitioned by
        ``key code % partitions`` (equal keys stay together, across inputs
        too), each partition is written to the spill directory with its
        columns still encoded, and partitions are read back one at a time.
        The global positions let the caller restore serial output order,
        which is what keeps spilled execution bit-identical. *inputs* is
        emptied once spilled, so a caller that drops its own references
        leaves the files as the only copy.
        """
        budget = getattr(self.context, "memory_budget", None)
        spill_dir = getattr(self.context, "spill_directory", None)
        total = 0
        if (
            budget
            and spill_dir is not None
            and splittable
            and inputs[0].num_rows > 1
            and inputs[-1].num_rows > 0
        ):
            total = sum(spill_module.batch_nbytes(b) for b in inputs)
        if total <= (budget or 0):
            whole = [(b, np.arange(b.num_rows, dtype=np.int64)) for b in inputs]
            return [work(*whole)]
        partitions = spill_module.partition_count(total, budget)
        keyed = grouping.key_codes(
            *[
                [e.evaluate(b) for e in exprs]
                for b, exprs in zip(inputs, key_exprs)
            ]
        )
        part_ids = np.split(
            keyed.codes % partitions,
            np.cumsum([b.num_rows for b in inputs])[:-1],
        )
        with spill_module.SpillManager(spill_dir()) as manager:
            files = []
            for p in range(partitions):
                row_sets = [np.nonzero(ids == p)[0] for ids in part_ids]
                if len(row_sets[0]):  # nothing to emit without first-input rows
                    files.append(
                        [
                            manager.spill(b.take(rows), rows)
                            for b, rows in zip(inputs, row_sets)
                        ]
                    )
            inputs.clear()
            results = [
                work(*[manager.load(path) for path in paths]) for paths in files
            ]
        metrics().counter(f"spill.{kind}").inc()
        if self.collect_stats:
            stats = self.node_stats.setdefault(id(node), NodeStats())
            stats.extras["spill"] = f"{_SPILL_LABELS[kind]}:{len(files)}"
        return results

    def _nested_loop(
        self, node: JoinNode, left: Batch, right: Batch, condition: BoundExpr | None
    ) -> Batch:
        combined = self._cross(left, right)
        if condition is None:
            return combined
        mask = truthy_mask(condition.evaluate(combined))
        result = combined.filter(mask)
        if node.join_type == "LEFT":
            matched = set(
                np.repeat(np.arange(left.num_rows), right.num_rows)[mask].tolist()
            )
            unmatched = [i for i in range(left.num_rows) if i not in matched]
            if unmatched:
                pad = _left_padding(left, right, np.array(unmatched))
                result = result.concat(pad)
        return result

    # -- aggregation -------------------------------------------------------
    def _aggregate(self, node: AggregateNode) -> Batch:
        """Hash aggregation, one key partition at a time.

        Each partition's aggregates are vector kernels over its group codes
        (:mod:`~flock.db.exec.aggregate`), whose results do not depend on
        row order; ordering the groups by the global position of their
        first row restores first-occurrence output order.
        """
        child = self._execute(node.child)
        names = [f.name for f in node.fields]
        if not node.group_exprs:
            codes = np.zeros(child.num_rows, dtype=np.int64)
            return Batch(
                names, aggregate.aggregate_columns(node.aggregates, child, codes, 1)
            )

        def aggregate_partition(part):
            sub, rows = part
            group_vectors = [e.evaluate(sub) for e in node.group_exprs]
            keyed = grouping.key_codes(group_vectors)
            return rows[keyed.first_rows], [
                v.take(keyed.first_rows) for v in group_vectors
            ] + aggregate.aggregate_columns(
                node.aggregates, sub, keyed.codes, len(keyed.first_rows)
            )

        inputs = [child]
        del child
        first_rows, parts = zip(
            *self._map_partitions(
                node, "aggregates", inputs, [node.group_exprs],
                aggregate_partition,
            )
        )
        columns = [
            concat_columns(field.dtype, [part[k] for part in parts])
            for k, field in enumerate(node.fields)
        ]
        if len(first_rows) > 1:
            order = np.argsort(np.concatenate(first_rows))
            columns = [column.take(order) for column in columns]
        return Batch(names, columns)

    # -- sort / limit / distinct -------------------------------------------
    def _sort(self, node: SortNode) -> Batch:
        child = self._execute(node.child)
        if child.num_rows <= 1 or not node.keys:
            return child
        code_arrays = grouping.sort_key_codes(node.keys, child)
        # np.lexsort treats the LAST array as the primary key.
        return child.take(np.lexsort(tuple(reversed(code_arrays))))

    def _limit(self, node: LimitNode) -> Batch:
        sort = node.child
        if isinstance(sort, SortNode) and sort.keys and node.limit is not None:
            return self._topk(node, sort)
        child = self._execute(node.child)
        start = node.offset
        stop = child.num_rows if node.limit is None else start + node.limit
        return child.slice(start, stop)

    def _topk(self, node: LimitNode, sort: SortNode) -> Batch:
        """Bounded-memory ORDER BY + LIMIT: select-then-sort the top k.

        ``np.partition`` finds the k-th smallest primary sort code without
        ordering anything; only the candidate rows at or below it (a
        superset of the serial result, since the primary key dominates the
        lexicographic order) get the full stable sort. Candidates keep
        ascending input positions, so their stable sort reproduces serial
        tie order exactly and the first k rows equal the full-sort prefix.
        """
        child = self._execute(sort.child)
        n = child.num_rows
        k = node.offset + node.limit
        if n <= 1:
            return child.slice(node.offset, k)
        code_arrays = grouping.sort_key_codes(sort.keys, child)
        if k >= n:
            ordered = child.take(np.lexsort(tuple(reversed(code_arrays))))
            return ordered.slice(node.offset, k)
        mode = "sort"
        if k == 0:
            rows = np.empty(0, dtype=np.int64)
        else:
            primary = code_arrays[0]
            kth = np.partition(primary, k - 1)[k - 1]
            candidates = np.nonzero(primary <= kth)[0]
            if len(candidates) < n:
                mode = "heap"
                order = np.lexsort(
                    tuple(reversed([c[candidates] for c in code_arrays]))
                )
                rows = candidates[order[:k]]
            else:
                order = np.lexsort(tuple(reversed(code_arrays)))
                rows = order[:k]
        if self.collect_stats:
            stats = self.node_stats.setdefault(id(node), NodeStats())
            stats.extras["topk"] = mode
            if mode == "heap":
                stats.extras["topk_candidates"] = len(candidates)
        return child.take(rows).slice(node.offset, len(rows))

    def _set_op(self, node: SetOpNode) -> Batch:
        left = self._execute(node.left)
        right = Batch(left.names, self._execute(node.right).columns)
        if node.op == "UNION":
            combined = left.concat(right)
            if node.all:
                return combined
            return combined.take(grouping.key_codes(combined.columns).first_rows)
        if node.op not in ("INTERSECT", "EXCEPT"):
            raise ExecutionError(f"unknown set operation {node.op!r}")
        # Left rows come first in the shared code space, so a code's first
        # row is a left row whenever the code occurs on the left at all.
        keyed = grouping.key_codes(left.columns, right.columns)
        n = left.num_rows
        codes = keyed.codes[:n]
        in_right = np.bincount(keyed.codes[n:], minlength=len(keyed.first_rows))
        if node.all:
            # Each right row cancels (EXCEPT) or admits (INTERSECT) one
            # left occurrence, earliest first.
            order, per_code = grouping.rows_by_code(codes, len(in_right))
            occurrence = np.empty(n, dtype=np.int64)
            occurrence[order] = np.arange(n) - np.repeat(
                np.cumsum(per_code) - per_code, per_code
            )
            keep = occurrence < in_right[codes]
            if node.op == "EXCEPT":
                keep = ~keep
        else:
            keep = np.zeros(n, dtype=bool)
            keep[keyed.first_rows[keyed.first_rows < n]] = True
            keep &= (in_right[codes] > 0) == (node.op == "INTERSECT")
        return left.filter(keep)

    # -- window functions --------------------------------------------------
    def _window(self, node: WindowNode) -> Batch:
        """Evaluate one window function, appending a column in input order.

        Rows are ordered by partition (the key kernel's codes), then by the
        window ORDER BY via the shared ``grouping.sort_codes`` encoding
        (stable, so ties keep input row order — deterministic under every
        execution tier). A *peer group* is a run of rows of one partition
        with equal ORDER BY keys (the whole partition without ORDER BY).
        SUM uses the SQL default RANGE frame: each row gets the exact sum
        (:mod:`~flock.db.exec.aggregate`) from its partition's start to the
        end of its peer group, so without ORDER BY the partition total.
        """
        child = self._execute(node.child)
        n = child.num_rows
        if node.partition_exprs:
            partition = grouping.key_codes(
                [e.evaluate(child) for e in node.partition_exprs]
            ).codes
        else:
            partition = np.zeros(n, dtype=np.int64)
        codes = grouping.sort_key_codes(node.order_keys, child)
        # np.lexsort treats the LAST array as the primary key.
        order = np.lexsort(tuple(reversed(codes)) + (partition,))
        keys = [partition[order]] + [c[order] for c in codes]
        new_partition = np.ones(n, dtype=bool)
        new_partition[1:] = keys[0][1:] != keys[0][:-1]
        new_peer = new_partition.copy()
        for key in keys[1:]:
            new_peer[1:] |= key[1:] != key[:-1]
        positions = np.arange(n, dtype=np.int64)
        part_start = np.maximum.accumulate(np.where(new_partition, positions, 0))
        if node.func_name == "ROW_NUMBER":
            sorted_out = ColumnVector.from_numpy(
                DataType.INTEGER, positions - part_start + 1
            )
        elif node.func_name == "RANK":
            peer_start = np.maximum.accumulate(np.where(new_peer, positions, 0))
            sorted_out = ColumnVector.from_numpy(
                DataType.INTEGER, peer_start - part_start + 1
            )
        else:  # SUM
            peer_stop = np.append(np.nonzero(new_peer)[0][1:], n)
            stops = peer_stop[np.cumsum(new_peer) - 1]
            arg = node.arg.evaluate(child).take(order)
            values = np.where(arg.nulls, 0, arg.values)
            if arg.dtype is DataType.FLOAT:
                sums = aggregate.range_sums(values, part_start, stops)
            else:
                sums = aggregate.int_range_sums(
                    values.astype(np.int64), part_start, stops
                )
            present = np.concatenate([[0], np.cumsum(~arg.nulls)])
            empty = present[stops] == present[part_start]
            sums[empty] = 0
            sorted_out = ColumnVector(node.dtype, sums, empty)
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = positions
        return child.with_columns([node.output_name], [sorted_out.take(inverse)])

    def _distinct(self, node: DistinctNode) -> Batch:
        child = self._execute(node.child)
        return child.take(grouping.key_codes(child.columns).first_rows)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _conjuncts(expr: BoundExpr) -> list[BoundExpr]:
    from flock.db.expr import BoundBinary

    if isinstance(expr, BoundBinary) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _split_join_condition(
    node: JoinNode, left_width: int
) -> tuple[list[BoundExpr], list[BoundExpr], BoundExpr | None]:
    """Split a join condition into equi-key expressions and a residual.

    An equi pair is a conjunct ``e_left = e_right`` where one side reads only
    left columns and the other only right columns; pairs come back as two
    parallel lists, the right-side expressions rewritten to right-local
    column positions. Everything else stays in the residual (evaluated over
    the combined row).
    """
    from flock.db.expr import BoundBinary

    left_keys: list[BoundExpr] = []
    right_keys: list[BoundExpr] = []
    residual: BoundExpr | None = None
    right_width = len(node.right.fields)
    right_mapping = {left_width + i: i for i in range(right_width)}
    for conjunct in _conjuncts(node.condition) if node.condition else []:
        if isinstance(conjunct, BoundBinary) and conjunct.op == "=":
            left_refs = conjunct.left.referenced_columns()
            right_refs = conjunct.right.referenced_columns()
            if left_refs and right_refs:
                if max(left_refs) < left_width and min(right_refs) >= left_width:
                    left_keys.append(conjunct.left)
                    right_keys.append(conjunct.right.rewrite_columns(right_mapping))
                    continue
                if max(right_refs) < left_width and min(left_refs) >= left_width:
                    left_keys.append(conjunct.right)
                    right_keys.append(conjunct.left.rewrite_columns(right_mapping))
                    continue
        residual = (
            conjunct
            if residual is None
            else BoundBinary("AND", residual, conjunct, DataType.BOOLEAN)
        )
    return left_keys, right_keys, residual


def _combine(
    left: Batch, right: Batch, left_idx: np.ndarray, right_idx: np.ndarray
) -> Batch:
    taken_left = left.take(left_idx)
    taken_right = right.take(right_idx)
    return Batch(
        taken_left.names + taken_right.names,
        taken_left.columns + taken_right.columns,
    )


def _left_padding(left: Batch, right: Batch, left_rows: np.ndarray) -> Batch:
    """Unmatched LEFT JOIN rows: left values, all-NULL right columns."""
    taken_left = left.take(left_rows)
    null_columns = [
        ColumnVector.constant(c.dtype, None, len(left_rows))
        for c in right.columns
    ]
    return Batch(taken_left.names + right.names, taken_left.columns + null_columns)
