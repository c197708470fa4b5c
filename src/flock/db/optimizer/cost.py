"""A coarse cost model over logical plans.

Cardinality estimation uses table statistics (row counts, distinct counts)
with textbook default selectivities. The estimates drive join-side selection
and the inference layer's physical operator selection ("physical operator
selection based on statistics", §4.1).
"""

from __future__ import annotations

from typing import Callable

from flock.db.expr import (
    BoundBinary,
    BoundColumn,
    BoundExpr,
    BoundInList,
    BoundLike,
)
from flock.db.plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    PredictNode,
    ProjectNode,
    ScanNode,
    SortNode,
)

DEFAULT_EQUALITY_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 0.3
DEFAULT_LIKE_SELECTIVITY = 0.25
DEFAULT_SELECTIVITY = 0.5

#: Hash-index access-path thresholds: below INDEX_MIN_ROWS a full scan is a
#: handful of vector ops and the probe machinery is pure overhead; above it,
#: the index wins whenever the estimated matching fraction stays below
#: INDEX_MAX_SELECTIVITY (gathering that many rows beats rescanning).
INDEX_MIN_ROWS = 64
INDEX_MAX_SELECTIVITY = 0.2

def index_lookup_selectivity(
    row_count: int, distinct_count: int, probe_count: int
) -> float:
    """Estimated matching fraction of a *probe_count*-key index lookup.

    With per-version distinct counts available the estimate is uniform
    (each key matches row_count/distinct rows); without them it falls back
    to the textbook equality selectivity per key.
    """
    if row_count <= 0:
        return 0.0
    if distinct_count > 0:
        per_key = 1.0 / distinct_count
    else:
        per_key = DEFAULT_EQUALITY_SELECTIVITY
    return min(1.0, max(probe_count, 0) * per_key)


def should_use_index(
    row_count: int, distinct_count: int, probe_count: int
) -> bool:
    """The index-lookup vs full-scan access-path decision."""
    if probe_count < 1 or row_count < INDEX_MIN_ROWS:
        return False
    selectivity = index_lookup_selectivity(
        row_count, distinct_count, probe_count
    )
    return selectivity <= INDEX_MAX_SELECTIVITY


def predicate_selectivity(
    predicate: BoundExpr,
    distinct_of: Callable[[int], int] | None = None,
) -> float:
    """Estimated fraction of rows satisfying *predicate*.

    ``distinct_of`` (column index → distinct count, 0 when unknown) refines
    equality and IN selectivities to ``1/distinct`` — the uniform estimate
    column statistics support; without it the textbook defaults apply.
    """
    if isinstance(predicate, BoundBinary):
        if predicate.op == "AND":
            return predicate_selectivity(
                predicate.left, distinct_of
            ) * predicate_selectivity(predicate.right, distinct_of)
        if predicate.op == "OR":
            left = predicate_selectivity(predicate.left, distinct_of)
            right = predicate_selectivity(predicate.right, distinct_of)
            return min(1.0, left + right - left * right)
        if predicate.op == "=":
            return _equality_selectivity(predicate, distinct_of)
        if predicate.op in ("<", "<=", ">", ">="):
            return DEFAULT_RANGE_SELECTIVITY
        if predicate.op == "<>":
            return 1.0 - _equality_selectivity(predicate, distinct_of)
    if isinstance(predicate, BoundInList):
        per_key = _equality_selectivity(predicate, distinct_of)
        return min(1.0, per_key * max(len(predicate.items), 1))
    if isinstance(predicate, BoundLike):
        return DEFAULT_LIKE_SELECTIVITY
    return DEFAULT_SELECTIVITY


def _equality_selectivity(
    predicate: BoundExpr, distinct_of: Callable[[int], int] | None
) -> float:
    """``1/distinct`` for a bare-column comparison when stats are known."""
    if distinct_of is not None:
        for side in (
            getattr(predicate, "left", None),
            getattr(predicate, "right", None),
            getattr(predicate, "operand", None),
        ):
            if isinstance(side, BoundColumn):
                distinct = distinct_of(side.index)
                if distinct and distinct > 0:
                    return min(1.0, 1.0 / distinct)
    return DEFAULT_EQUALITY_SELECTIVITY


def estimate_rows(
    plan: PlanNode,
    table_rows: Callable[[str], int],
    table_stats: Callable[[str], object] | None = None,
) -> float:
    """Estimated output cardinality of *plan*.

    ``table_stats`` (table name → ``TableStats`` or None) lets filters
    directly over scans use per-column distinct counts for equality
    selectivity instead of the 10% default.
    """
    if isinstance(plan, ScanNode):
        return float(table_rows(plan.table_name))
    if isinstance(plan, FilterNode):
        return estimate_rows(
            plan.child, table_rows, table_stats
        ) * predicate_selectivity(
            plan.predicate, _scan_distinct_of(plan.child, table_stats)
        )
    if isinstance(plan, (ProjectNode, SortNode, PredictNode)):
        return estimate_rows(plan.children()[0], table_rows, table_stats)
    if isinstance(plan, LimitNode):
        child = estimate_rows(plan.child, table_rows, table_stats)
        return child if plan.limit is None else min(child, float(plan.limit))
    if isinstance(plan, DistinctNode):
        return estimate_rows(plan.child, table_rows, table_stats) * 0.5
    if isinstance(plan, AggregateNode):
        child = estimate_rows(plan.child, table_rows, table_stats)
        if not plan.group_exprs:
            return 1.0
        return max(1.0, child * 0.1)
    from flock.db.plan import SetOpNode

    if isinstance(plan, SetOpNode):
        left = estimate_rows(plan.left, table_rows, table_stats)
        right = estimate_rows(plan.right, table_rows, table_stats)
        if plan.op == "UNION":
            return left + right
        if plan.op == "EXCEPT":
            return left
        return min(left, right)  # INTERSECT
    from flock.db.plan import WindowNode

    if isinstance(plan, WindowNode):
        return estimate_rows(plan.child, table_rows, table_stats)
    if isinstance(plan, JoinNode):
        left = estimate_rows(plan.left, table_rows, table_stats)
        right = estimate_rows(plan.right, table_rows, table_stats)
        if plan.join_type in ("SEMI", "ANTI"):
            # Each left row survives or not; a coin-flip default.
            return max(1.0, left * 0.5)
        if plan.join_type == "CROSS" and plan.condition is None:
            return left * right
        if plan.condition is None:
            return left * right
        return max(
            1.0, left * right * predicate_selectivity(plan.condition)
        )
    return 1000.0


def _scan_distinct_of(
    child: PlanNode, table_stats: Callable[[str], object] | None
) -> Callable[[int], int] | None:
    """Column-index → distinct-count mapping for a filter over a scan."""
    if table_stats is None or not isinstance(child, ScanNode):
        return None
    stats = table_stats(child.table_name)
    if stats is None:
        return None
    fields = child.fields

    def distinct_of(index: int) -> int:
        if 0 <= index < len(fields):
            column_stats = stats.column(fields[index].name)
            if column_stats is not None:
                return column_stats.distinct_count
        return 0

    return distinct_of


class CostModel:
    """Row-count driven cost estimates bound to a table-size source."""

    def __init__(
        self,
        table_rows: Callable[[str], int],
        table_stats: Callable[[str], object] | None = None,
    ):
        self._table_rows = table_rows
        self._table_stats = table_stats

    def rows(self, plan: PlanNode) -> float:
        return estimate_rows(plan, self._table_rows, self._table_stats)

    def cost(self, plan: PlanNode) -> float:
        """A rough total-work figure: sum of intermediate cardinalities."""
        total = self.rows(plan)
        for child in plan.children():
            total += self.cost(child)
        return total
