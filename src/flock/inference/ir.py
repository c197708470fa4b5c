"""The hybrid relational×ML intermediate representation.

The paper derives "an intermediate representation amenable to optimization"
from end-to-end prediction pipelines (§4.1). In this codebase that IR *is*
the logical plan: relational operators (:mod:`flock.db.plan`) and the
:class:`~flock.db.plan.PredictNode` ML operator live in one tree, so one
optimizer moves work across the SQL/ML boundary. This module traces plan
columns back to the stored columns whose statistics compress a model.
"""

from __future__ import annotations

from flock.db.plan import PlanNode, PredictNode, ScanNode


def column_origin(
    plan: PlanNode, column_index: int
) -> tuple[str, str] | None:
    """Trace an output column back to a base-table column, if it maps 1:1.

    Returns ``(table_name, column_name)`` or None when the column is
    computed. Used to look up stored statistics for model compression.
    """
    from flock.db.expr import BoundColumn
    from flock.db.plan import (
        FilterNode,
        JoinNode,
        LimitNode,
        ProjectNode,
        SortNode,
    )

    if isinstance(plan, ScanNode):
        if column_index < len(plan.fields):
            return plan.table_name, plan.fields[column_index].name
        return None
    if isinstance(plan, (FilterNode, SortNode, LimitNode)):
        return column_origin(plan.children()[0], column_index)
    if isinstance(plan, ProjectNode):
        expr = plan.exprs[column_index]
        if isinstance(expr, BoundColumn):
            return column_origin(plan.child, expr.index)
        return None
    if isinstance(plan, PredictNode):
        if column_index < len(plan.child.fields):
            return column_origin(plan.child, column_index)
        return None
    if isinstance(plan, JoinNode):
        left_width = len(plan.left.fields)
        if column_index < left_width:
            return column_origin(plan.left, column_index)
        return column_origin(plan.right, column_index - left_width)
    return None
