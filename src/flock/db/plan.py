"""Logical query plans.

The binder produces these nodes; the optimizer rewrites them; the physical
planner lowers them to executable operators. The inference layer's
:class:`PredictNode` is a *first-class relational operator* (§4.1 of the
paper): scoring sits inside the plan where the optimizer can move filters and
projections across the model boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from flock.db.expr import BoundExpr
from flock.db.types import DataType


@dataclass(frozen=True)
class Field:
    """One column of a plan node's output schema."""

    name: str
    dtype: DataType

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name}:{self.dtype}"


class PlanNode:
    """Base class for logical plan nodes."""

    fields: list[Field]

    def children(self) -> list["PlanNode"]:
        return []

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def explain(self, indent: int = 0) -> str:
        """A readable plan tree (EXPLAIN output)."""
        line = "  " * indent + self.describe()
        lines = [line]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()


class ScanNode(PlanNode):
    """Full scan of a base table (optionally restricted to some columns)."""

    def __init__(
        self,
        table_name: str,
        fields: Sequence[Field],
        column_indexes: Sequence[int],
        alias: str | None = None,
        via_view: str | None = None,
    ):
        self.table_name = table_name
        self.fields = list(fields)
        self.column_indexes = list(column_indexes)  # positions in base table
        self.alias = alias or table_name
        # Set when this scan came from expanding a view: access control then
        # checks SELECT on the view, not on the base table (definer
        # semantics — views are grant boundaries).
        self.via_view = via_view
        # Zone-map pruning hints set by the optimizer's access-path pass:
        # a list of (base_column_position, op, physical_value) conjuncts the
        # executor may use to drop whole zones before scanning. Advisory —
        # the filter above this scan still evaluates the full predicate.
        self.zone_predicates: list[tuple[int, str, object]] | None = None

    def describe(self) -> str:
        cols = ", ".join(f.name for f in self.fields)
        suffix = ""
        if self.zone_predicates:
            zones = ", ".join(
                f"{op}#{pos}" for pos, op, _ in self.zone_predicates
            )
            suffix = f" zones=[{zones}]"
        return f"Scan({self.table_name} [{cols}]){suffix}"


class IndexLookupNode(ScanNode):
    """Hash-index point/IN-list access to a base table.

    A drop-in ScanNode replacement chosen by the optimizer when an equality
    or IN-list conjunct hits an indexed column with low estimated
    selectivity. The executor asks the index for the matching row positions
    (ascending, so row order matches the plain scan) and falls back to the
    full scan whenever the index cannot serve the visible snapshot — the
    filter above always re-checks the predicate, so the lookup only has to
    produce a superset of the surviving rows.
    """

    def __init__(
        self,
        table_name: str,
        fields: Sequence[Field],
        column_indexes: Sequence[int],
        alias: str | None = None,
        via_view: str | None = None,
        index_name: str = "",
        key_column: str = "",
        key_values: Sequence[object] = (),
    ):
        super().__init__(table_name, fields, column_indexes, alias, via_view)
        self.index_name = index_name
        self.key_column = key_column
        self.key_values = list(key_values)

    def describe(self) -> str:
        cols = ", ".join(f.name for f in self.fields)
        return (
            f"IndexLookup({self.table_name} [{cols}] "
            f"index={self.index_name} key={self.key_column} "
            f"keys={len(self.key_values)})"
        )


class FilterNode(PlanNode):
    def __init__(self, child: PlanNode, predicate: BoundExpr):
        self.child = child
        self.predicate = predicate
        self.fields = list(child.fields)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Filter({self.predicate!r})"


class ProjectNode(PlanNode):
    def __init__(
        self, child: PlanNode, exprs: Sequence[BoundExpr], names: Sequence[str]
    ):
        self.child = child
        self.exprs = list(exprs)
        self.fields = [Field(n, e.dtype) for n, e in zip(names, exprs)]

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        items = ", ".join(
            f"{f.name}={e!r}" for f, e in zip(self.fields, self.exprs)
        )
        return f"Project({items})"


class PredictNode(PlanNode):
    """ML inference as a plan operator.

    Consumes the child's rows, feeds ``input_indexes`` (child column
    positions, ordered as the model's input features) to the model named
    ``model_name``, and appends the prediction columns to the child schema.

    ``compiled`` caches the artifact the executor needs (a pruned /
    compressed model graph); a node the cross-optimizer inlines is replaced
    by a projection and never executes.
    """

    def __init__(
        self,
        child: PlanNode,
        model_name: str,
        input_indexes: Sequence[int],
        output_fields: Sequence[Field],
    ):
        self.child = child
        self.model_name = model_name
        self.input_indexes = list(input_indexes)
        self.output_fields = list(output_fields)
        self.compiled: Optional[object] = None
        self.fields = list(child.fields) + list(output_fields)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        outs = ", ".join(f.name for f in self.output_fields)
        return (
            f"Predict(model={self.model_name}, inputs={self.input_indexes}, "
            f"outputs=[{outs}])"
        )


class JoinNode(PlanNode):
    """INNER/LEFT/CROSS/SEMI/ANTI join.

    ``condition`` sees left fields then right. SEMI/ANTI joins (the
    decorrelated form of EXISTS / NOT EXISTS) output only the left
    schema: each left row appears at most once, in left order.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        join_type: str,
        condition: BoundExpr | None,
    ):
        self.left = left
        self.right = right
        self.join_type = join_type
        self.condition = condition
        if join_type in ("SEMI", "ANTI"):
            self.fields = list(left.fields)
        else:
            self.fields = list(left.fields) + list(right.fields)

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        cond = f" ON {self.condition!r}" if self.condition is not None else ""
        return f"Join({self.join_type}{cond})"


@dataclass
class AggregateSpec:
    """One aggregate in an AggregateNode."""

    func_name: str  # COUNT/SUM/AVG/MIN/MAX/STDDEV
    arg: BoundExpr | None  # None for COUNT(*)
    distinct: bool
    alias: str
    dtype: DataType

    def __repr__(self) -> str:
        inner = "*" if self.arg is None else repr(self.arg)
        d = "DISTINCT " if self.distinct else ""
        return f"{self.func_name}({d}{inner}) AS {self.alias}"


class AggregateNode(PlanNode):
    """Hash aggregation: group keys first, then aggregate outputs."""

    def __init__(
        self,
        child: PlanNode,
        group_exprs: Sequence[BoundExpr],
        group_names: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ):
        self.child = child
        self.group_exprs = list(group_exprs)
        self.aggregates = list(aggregates)
        self.fields = [
            Field(n, e.dtype) for n, e in zip(group_names, group_exprs)
        ] + [Field(a.alias, a.dtype) for a in aggregates]

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        groups = ", ".join(repr(e) for e in self.group_exprs)
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"Aggregate(groups=[{groups}], aggs=[{aggs}])"


class WindowNode(PlanNode):
    """One window function appended as a new column.

    Partitions the child rows by ``partition_exprs``, orders each
    partition by ``order_keys`` (BoundExpr, ascending) and computes
    ``func_name`` (ROW_NUMBER / RANK / SUM) per row. Output preserves
    the child's row order and schema with one extra column appended.
    """

    def __init__(
        self,
        child: PlanNode,
        func_name: str,
        arg: BoundExpr | None,
        partition_exprs: Sequence[BoundExpr],
        order_keys: Sequence[tuple[BoundExpr, bool]],
        output_name: str,
        dtype: DataType,
    ):
        self.child = child
        self.func_name = func_name
        self.arg = arg
        self.partition_exprs = list(partition_exprs)
        self.order_keys = list(order_keys)
        self.output_name = output_name
        self.dtype = dtype
        self.fields = list(child.fields) + [Field(output_name, dtype)]

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        arg = "" if self.arg is None else repr(self.arg)
        parts = ", ".join(repr(e) for e in self.partition_exprs)
        keys = ", ".join(
            f"{e!r} {'ASC' if asc else 'DESC'}" for e, asc in self.order_keys
        )
        return (
            f"Window({self.func_name}({arg}) OVER "
            f"(PARTITION BY [{parts}] ORDER BY [{keys}]) "
            f"AS {self.output_name})"
        )


class SortNode(PlanNode):
    """Sort by expressions over the child's output."""

    def __init__(self, child: PlanNode, keys: Sequence[tuple[BoundExpr, bool]]):
        self.child = child
        self.keys = list(keys)
        self.fields = list(child.fields)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        keys = ", ".join(
            f"{e!r} {'ASC' if asc else 'DESC'}" for e, asc in self.keys
        )
        return f"Sort({keys})"


class LimitNode(PlanNode):
    def __init__(self, child: PlanNode, limit: int | None, offset: int):
        self.child = child
        self.limit = limit
        self.offset = offset
        self.fields = list(child.fields)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Limit(limit={self.limit}, offset={self.offset})"


class DistinctNode(PlanNode):
    def __init__(self, child: PlanNode):
        self.child = child
        self.fields = list(child.fields)

    def children(self) -> list[PlanNode]:
        return [self.child]


class SetOpNode(PlanNode):
    """UNION [ALL] / EXCEPT / INTERSECT over schema-compatible inputs."""

    def __init__(self, left: PlanNode, right: PlanNode, op: str, all: bool):
        self.left = left
        self.right = right
        self.op = op
        self.all = all
        self.fields = list(left.fields)

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"SetOp({self.op}{' ALL' if self.all else ''})"
