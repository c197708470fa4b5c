"""Rule-based plan rewrites.

Passes, in order:

1. constant folding (column-free subexpressions become literals);
2. join formation (filters over cross joins become join conditions);
3. predicate pushdown (filters move through projections, Predict operators
   and join sides toward scans — the relational half of the paper's
   "predicate push-up/down between SQL queries and ML models");
4. join-side selection (the smaller estimated side builds the hash table);
5. projection pruning (scans read only the columns anything above needs —
   combined with the inference layer's sparsity analysis this realizes
   "automatic pruning of unused input feature-columns");
6. extra rules registered by other layers (flock.inference contributes model
   pruning/compression/inlining).

Rules never mutate shared expression state: expressions are deep-copied when
they move across a node boundary.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Protocol

from flock.db.binder import fold_constants
from flock.db.expr import (
    BoundBinary,
    BoundColumn,
    BoundExpr,
    BoundInList,
    BoundLiteral,
)
from flock.db.optimizer.cost import CostModel, should_use_index
from flock.db.plan import (
    AggregateNode,
    DistinctNode,
    Field,
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
)
from flock.db.types import DataType

#: Column dtypes zone maps can summarize (totally ordered, fixed width).
_ZONE_DTYPES = (DataType.INTEGER, DataType.FLOAT, DataType.DATE)


class OptimizerContext(Protocol):
    """Services optimizer rules may use.

    The access-path pass additionally probes (via ``getattr``, so minimal
    contexts in tests keep working) for:

    - ``indexes_enabled() -> bool``
    - ``index_for(table_name, column_position) -> str | None``
    - ``table_stats(table_name) -> TableStats | None``
    """

    def table_row_count(self, table_name: str) -> int: ...


ExtraRule = Callable[[PlanNode, "OptimizerContext"], PlanNode]


@dataclass
class Optimizer:
    """Applies rewrite passes to a logical plan."""

    enable_predicate_pushdown: bool = True
    enable_projection_pruning: bool = True
    enable_join_rules: bool = True
    extra_rules: list[ExtraRule] = field(default_factory=list)

    def optimize(self, plan: PlanNode, context: OptimizerContext) -> PlanNode:
        plan = _fold_all(plan)
        if self.enable_join_rules:
            plan = _form_joins(plan)
        if self.enable_predicate_pushdown:
            plan = _pushdown(plan)
        if self.enable_join_rules:
            plan = _choose_join_sides(
                plan,
                CostModel(
                    context.table_row_count,
                    getattr(context, "table_stats", None),
                ),
            )
        # Extra rules (the inference cross-optimizer) run before projection
        # pruning so that model-driven input pruning can shrink the scans.
        for rule in self.extra_rules:
            plan = rule(plan, context)
        if self.enable_projection_pruning:
            plan, _ = _prune(plan, set(range(len(plan.fields))))
        # Access-path selection runs last: _prune rebuilds ScanNodes, so any
        # earlier IndexLookupNode/zone annotation would be thrown away.
        plan = _select_access_paths(plan, context)
        return plan


def apply_pushdown(plan: PlanNode) -> PlanNode:
    """Public entry point for re-running predicate pushdown.

    The inference cross-optimizer calls this after UDF inlining turns a
    PredictNode into a projection, so predicates over the (now inline)
    prediction expression can keep moving toward the scans.
    """
    return _pushdown(plan)


# ----------------------------------------------------------------------
# Pass 1: constant folding
# ----------------------------------------------------------------------
def _fold_all(plan: PlanNode) -> PlanNode:
    for node in plan.walk():
        if isinstance(node, FilterNode):
            node.predicate = fold_constants(node.predicate)
        elif isinstance(node, ProjectNode):
            node.exprs = [fold_constants(e) for e in node.exprs]
        elif isinstance(node, JoinNode) and node.condition is not None:
            node.condition = fold_constants(node.condition)
        elif isinstance(node, SortNode):
            node.keys = [(fold_constants(e), asc) for e, asc in node.keys]
        elif isinstance(node, AggregateNode):
            node.group_exprs = [fold_constants(e) for e in node.group_exprs]
            for spec in node.aggregates:
                if spec.arg is not None:
                    spec.arg = fold_constants(spec.arg)
    return _drop_trivial_filters(plan)


def _drop_trivial_filters(plan: PlanNode) -> PlanNode:
    plan = _rewrite_children(plan, _drop_trivial_filters)
    if isinstance(plan, FilterNode) and isinstance(plan.predicate, BoundLiteral):
        if plan.predicate.value is True:
            return plan.child
    return plan


def _rewrite_children(
    plan: PlanNode, fn: Callable[[PlanNode], PlanNode]
) -> PlanNode:
    if isinstance(plan, (JoinNode, SetOpNode)):
        plan.left = fn(plan.left)
        plan.right = fn(plan.right)
    elif plan.children():
        child = fn(plan.children()[0])
        plan.child = child  # type: ignore[attr-defined]
    return plan


# ----------------------------------------------------------------------
# Pass 2: join formation (Filter over CROSS join → INNER join)
# ----------------------------------------------------------------------
def _form_joins(plan: PlanNode) -> PlanNode:
    plan = _rewrite_children(plan, _form_joins)
    if not isinstance(plan, FilterNode):
        return plan
    child = plan.child
    if not isinstance(child, JoinNode) or child.join_type not in ("CROSS", "INNER"):
        return plan
    left_width = len(child.left.fields)
    total = len(child.fields)
    moved: list[BoundExpr] = []
    kept: list[BoundExpr] = []
    for conjunct in _conjuncts(plan.predicate):
        refs = conjunct.referenced_columns()
        spans_both = refs and min(refs) < left_width and max(refs) >= left_width
        if spans_both and max(refs) < total:
            moved.append(conjunct)
        else:
            kept.append(conjunct)
    if not moved:
        return plan
    all_conjuncts = ([child.condition] if child.condition is not None else []) + moved
    child.condition = _conjoin(all_conjuncts)
    child.join_type = "INNER"
    if kept:
        plan.predicate = _conjoin(kept)
        return plan
    return child


def _conjuncts(expr: BoundExpr) -> list[BoundExpr]:
    if isinstance(expr, BoundBinary) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _conjoin(conjuncts: list[BoundExpr]) -> BoundExpr | None:
    result: BoundExpr | None = None
    for conjunct in conjuncts:
        result = (
            conjunct
            if result is None
            else BoundBinary("AND", result, conjunct, DataType.BOOLEAN)
        )
    return result


# ----------------------------------------------------------------------
# Pass 3: predicate pushdown
# ----------------------------------------------------------------------
def _pushdown(plan: PlanNode) -> PlanNode:
    plan = _rewrite_children(plan, _pushdown)
    if not isinstance(plan, FilterNode):
        return plan

    child = plan.child
    conjuncts = _conjuncts(plan.predicate)

    if isinstance(child, FilterNode):
        merged = _conjoin(conjuncts + _conjuncts(child.predicate))
        assert merged is not None
        return _pushdown(FilterNode(child.child, merged))

    if isinstance(child, ProjectNode):
        pushable: list[BoundExpr] = []
        kept: list[BoundExpr] = []
        for conjunct in conjuncts:
            substituted = _substitute_through_project(conjunct, child)
            if substituted is not None:
                pushable.append(substituted)
            else:
                kept.append(conjunct)
        if pushable:
            inner = _conjoin(pushable)
            assert inner is not None
            child.child = _pushdown(FilterNode(child.child, inner))
            if kept:
                remaining = _conjoin(kept)
                assert remaining is not None
                return FilterNode(child, remaining)
            return child
        return plan

    if isinstance(child, PredictNode):
        child_width = len(child.child.fields)
        pushable = [
            c for c in conjuncts if c.referenced_columns()
            and max(c.referenced_columns()) < child_width
        ]
        kept = [c for c in conjuncts if c not in pushable]
        if pushable:
            inner = _conjoin(pushable)
            assert inner is not None
            child.child = _pushdown(FilterNode(child.child, inner))
            if kept:
                remaining = _conjoin(kept)
                assert remaining is not None
                return FilterNode(child, remaining)
            return child
        return plan

    if isinstance(child, JoinNode):
        left_width = len(child.left.fields)
        right_mapping = {
            left_width + i: i for i in range(len(child.right.fields))
        }
        to_left: list[BoundExpr] = []
        to_right: list[BoundExpr] = []
        kept = []
        for conjunct in conjuncts:
            refs = conjunct.referenced_columns()
            if refs and max(refs) < left_width:
                to_left.append(copy.deepcopy(conjunct))
            elif refs and min(refs) >= left_width and child.join_type != "LEFT":
                to_right.append(conjunct.rewrite_columns(right_mapping))
            else:
                kept.append(conjunct)
        if to_left:
            inner = _conjoin(to_left)
            assert inner is not None
            child.left = _pushdown(FilterNode(child.left, inner))
        if to_right:
            inner = _conjoin(to_right)
            assert inner is not None
            child.right = _pushdown(FilterNode(child.right, inner))
        if kept:
            remaining = _conjoin(kept)
            assert remaining is not None
            return FilterNode(child, remaining)
        return child

    if isinstance(child, (SortNode, LimitNode)):
        # Filters commute with sort but NOT with limit.
        if isinstance(child, SortNode):
            child.child = _pushdown(FilterNode(child.child, plan.predicate))
            return child
        return plan

    return plan


def _substitute_through_project(
    predicate: BoundExpr, project: ProjectNode
) -> BoundExpr | None:
    """Rewrite a predicate over project outputs into child-space, or None.

    Substitution duplicates the projected expression at each reference site,
    and the projection still computes it for surviving rows — so pushing a
    *computed* expression through would evaluate it twice per row. Only
    plain column references and literals move; everything else filters
    above the projection (which already evaluates the expression exactly
    once).
    """
    refs = list(predicate.referenced_columns())
    for r in refs:
        if not isinstance(project.exprs[r], (BoundColumn, BoundLiteral)):
            return None
    clone = copy.deepcopy(predicate)
    return _replace_columns(
        clone, {r: copy.deepcopy(project.exprs[r]) for r in refs}
    )


def _replace_columns(
    expr: BoundExpr, mapping: dict[int, BoundExpr]
) -> BoundExpr:
    if isinstance(expr, BoundColumn):
        return mapping[expr.index]
    for attr in ("operand", "left", "right"):
        if hasattr(expr, attr):
            setattr(expr, attr, _replace_columns(getattr(expr, attr), mapping))
    if hasattr(expr, "args"):
        expr.args = [_replace_columns(a, mapping) for a in expr.args]
    if hasattr(expr, "branches"):
        expr.branches = [
            (_replace_columns(c, mapping), _replace_columns(v, mapping))
            for c, v in expr.branches
        ]
        if expr.default is not None:
            expr.default = _replace_columns(expr.default, mapping)
    return expr


# ----------------------------------------------------------------------
# Pass 4: join-side selection (build hash table on the smaller side)
# ----------------------------------------------------------------------
def _choose_join_sides(plan: PlanNode, cost: CostModel) -> PlanNode:
    if isinstance(plan, SetOpNode):
        plan.left = _choose_join_sides(plan.left, cost)
        plan.right = _choose_join_sides(plan.right, cost)
    elif isinstance(plan, JoinNode):
        plan.left = _choose_join_sides(plan.left, cost)
        plan.right = _choose_join_sides(plan.right, cost)
        if plan.join_type == "INNER" and plan.condition is not None:
            left_rows = cost.rows(plan.left)
            right_rows = cost.rows(plan.right)
            if right_rows > left_rows * 2:
                plan = _swap_join(plan)
    elif plan.children():
        child = _choose_join_sides(plan.children()[0], cost)
        plan.child = child  # type: ignore[attr-defined]
    return plan


def _swap_join(join: JoinNode) -> JoinNode:
    left_width = len(join.left.fields)
    right_width = len(join.right.fields)
    mapping = {i: right_width + i for i in range(left_width)}
    mapping.update({left_width + i: i for i in range(right_width)})
    condition = (
        join.condition.rewrite_columns(mapping)
        if join.condition is not None
        else None
    )
    swapped = JoinNode(join.right, join.left, join.join_type, condition)
    # Restore the original output column order with a projection.
    exprs = []
    names = []
    for i, f in enumerate(join.fields):
        exprs.append(BoundColumn(mapping[i], f.dtype, f.name))
        names.append(f.name)
    return ProjectNode(swapped, exprs, names)  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Pass 5: projection pruning
# ----------------------------------------------------------------------
def _prune(
    plan: PlanNode, required: set[int]
) -> tuple[PlanNode, dict[int, int]]:
    """Prune unused columns bottom-up.

    Returns the new plan and a mapping from old output positions to new ones
    (defined at least for every position in *required*).
    """
    if isinstance(plan, ScanNode):
        keep = sorted(required) if required else [0] if plan.fields else []
        if not keep and plan.fields:
            keep = [0]  # keep one column so row counts survive
        mapping = {old: new for new, old in enumerate(keep)}
        node = ScanNode(
            plan.table_name,
            [plan.fields[i] for i in keep],
            [plan.column_indexes[i] for i in keep],
            alias=plan.alias,
            via_view=plan.via_view,
        )
        return node, mapping

    if isinstance(plan, FilterNode):
        child_required = set(required) | plan.predicate.referenced_columns()
        child, mapping = _prune(plan.child, child_required)
        predicate = plan.predicate.rewrite_columns(mapping)
        return FilterNode(child, predicate), mapping

    if isinstance(plan, ProjectNode):
        keep = sorted(required) if required else ([0] if plan.exprs else [])
        child_required: set[int] = set()
        for i in keep:
            child_required |= plan.exprs[i].referenced_columns()
        child, child_mapping = _prune(plan.child, child_required)
        exprs = [plan.exprs[i].rewrite_columns(child_mapping) for i in keep]
        names = [plan.fields[i].name for i in keep]
        mapping = {old: new for new, old in enumerate(keep)}
        return ProjectNode(child, exprs, names), mapping

    if isinstance(plan, PredictNode):
        child_width = len(plan.child.fields)
        needed_outputs = [r for r in required if r >= child_width]
        if not needed_outputs:
            # Dead inference: nothing above reads the predictions.
            return _prune(plan.child, {r for r in required if r < child_width})
        child_required = {r for r in required if r < child_width} | set(
            plan.input_indexes
        )
        child, child_mapping = _prune(plan.child, child_required)
        node = PredictNode(
            child,
            plan.model_name,
            [child_mapping[i] for i in plan.input_indexes],
            plan.output_fields,
        )
        node.compiled = plan.compiled
        mapping = dict(child_mapping)
        new_child_width = len(child.fields)
        for k in range(len(plan.output_fields)):
            mapping[child_width + k] = new_child_width + k
        return node, mapping

    if isinstance(plan, JoinNode) and plan.join_type in ("SEMI", "ANTI"):
        # Output is the left schema only; the condition still sees
        # left-then-right positions, so the right side keeps exactly the
        # columns the condition probes.
        left_width = len(plan.left.fields)
        refs = (
            plan.condition.referenced_columns()
            if plan.condition is not None
            else set()
        )
        left_required = set(required) | {r for r in refs if r < left_width}
        right_required = {r - left_width for r in refs if r >= left_width}
        left, left_mapping = _prune(plan.left, left_required)
        right, right_mapping = _prune(plan.right, right_required)
        new_left_width = len(left.fields)
        cond_mapping = dict(left_mapping)
        for old, new in right_mapping.items():
            cond_mapping[left_width + old] = new_left_width + new
        condition = (
            plan.condition.rewrite_columns(cond_mapping)
            if plan.condition is not None
            else None
        )
        node = JoinNode(left, right, plan.join_type, condition)
        return node, left_mapping

    if isinstance(plan, JoinNode):
        left_width = len(plan.left.fields)
        refs = (
            plan.condition.referenced_columns()
            if plan.condition is not None
            else set()
        )
        all_needed = set(required) | refs
        left_required = {r for r in all_needed if r < left_width}
        right_required = {r - left_width for r in all_needed if r >= left_width}
        left, left_mapping = _prune(plan.left, left_required)
        right, right_mapping = _prune(plan.right, right_required)
        new_left_width = len(left.fields)
        mapping = {old: new for old, new in left_mapping.items()}
        for old, new in right_mapping.items():
            mapping[left_width + old] = new_left_width + new
        condition = (
            plan.condition.rewrite_columns(mapping)
            if plan.condition is not None
            else None
        )
        return JoinNode(left, right, plan.join_type, condition), mapping

    if isinstance(plan, AggregateNode):
        group_count = len(plan.group_exprs)
        keep_aggs = [
            i
            for i in range(len(plan.aggregates))
            if (group_count + i) in required
        ] or ([0] if plan.aggregates else [])
        child_required: set[int] = set()
        for e in plan.group_exprs:
            child_required |= e.referenced_columns()
        for i in keep_aggs:
            arg = plan.aggregates[i].arg
            if arg is not None:
                child_required |= arg.referenced_columns()
        child, child_mapping = _prune(plan.child, child_required)
        group_exprs = [e.rewrite_columns(child_mapping) for e in plan.group_exprs]
        specs = []
        for i in keep_aggs:
            spec = copy.deepcopy(plan.aggregates[i])
            if spec.arg is not None:
                spec.arg = spec.arg.rewrite_columns(child_mapping)
            specs.append(spec)
        group_names = [f.name for f in plan.fields[:group_count]]
        node = AggregateNode(child, group_exprs, group_names, specs)
        mapping = {i: i for i in range(group_count)}
        for new, old in enumerate(keep_aggs):
            mapping[group_count + old] = group_count + new
        return node, mapping

    if isinstance(plan, SortNode):
        child_required = set(required)
        for key, _ in plan.keys:
            child_required |= key.referenced_columns()
        child, mapping = _prune(plan.child, child_required)
        keys = [(k.rewrite_columns(mapping), asc) for k, asc in plan.keys]
        return SortNode(child, keys), mapping

    if isinstance(plan, LimitNode):
        child, mapping = _prune(plan.child, required)
        return LimitNode(child, plan.limit, plan.offset), mapping

    if isinstance(plan, DistinctNode):
        # DISTINCT semantics depend on every column: require them all.
        child, mapping = _prune(
            plan.child, set(range(len(plan.child.fields)))
        )
        return DistinctNode(child), mapping

    if isinstance(plan, SetOpNode):
        # Set semantics compare whole rows: every column stays, both sides.
        left, _ = _prune(plan.left, set(range(len(plan.left.fields))))
        right, _ = _prune(plan.right, set(range(len(plan.right.fields))))
        node = SetOpNode(left, right, plan.op, plan.all)
        return node, {i: i for i in range(len(node.fields))}

    return plan, {i: i for i in range(len(plan.fields))}


# ----------------------------------------------------------------------
# Pass 7: access-path selection (hash index lookup / zone-map pruning)
# ----------------------------------------------------------------------
def _select_access_paths(
    plan: PlanNode, context: "OptimizerContext"
) -> PlanNode:
    """Turn Filter-over-Scan into an index lookup or a zone-pruned scan.

    Both rewrites keep the original filter in place, so they only ever have
    to produce a *superset* of the matching rows in base-table order —
    results stay bit-identical to the plain scan path, and any runtime
    fallback (stale index, staged snapshot) is silently correct.
    """
    enabled = getattr(context, "indexes_enabled", None)
    if enabled is None or not enabled():
        return plan
    return _access_paths(plan, context)


def _access_paths(plan: PlanNode, context: "OptimizerContext") -> PlanNode:
    if isinstance(plan, (JoinNode, SetOpNode)):
        plan.left = _access_paths(plan.left, context)
        plan.right = _access_paths(plan.right, context)
        return plan
    if plan.children():
        child = _access_paths(plan.children()[0], context)
        plan.child = child  # type: ignore[attr-defined]
    if not isinstance(plan, FilterNode):
        return plan
    scan = plan.child
    if type(scan) is not ScanNode:
        return plan
    conjuncts = _conjuncts(plan.predicate)

    chosen = _choose_index(scan, conjuncts, context)
    if chosen is not None:
        index_name, key_column, values = chosen
        plan.child = IndexLookupNode(
            scan.table_name,
            scan.fields,
            scan.column_indexes,
            alias=scan.alias,
            via_view=scan.via_view,
            index_name=index_name,
            key_column=key_column,
            key_values=values,
        )
        return plan

    zone_predicates = []
    for conjunct in conjuncts:
        candidate = _zone_candidate(conjunct)
        if candidate is None:
            continue
        local, op, value = candidate
        if scan.fields[local].dtype not in _ZONE_DTYPES:
            continue
        zone_predicates.append((scan.column_indexes[local], op, value))
    if zone_predicates:
        scan.zone_predicates = zone_predicates
    return plan


def _choose_index(
    scan: ScanNode, conjuncts: list[BoundExpr], context: "OptimizerContext"
) -> tuple[str, str, list] | None:
    """The cheapest applicable (index_name, key_column, probe_values)."""
    index_for = getattr(context, "index_for", None)
    if index_for is None:
        return None
    row_count = context.table_row_count(scan.table_name)
    stats_fn = getattr(context, "table_stats", None)
    stats = None
    best: tuple[int, str, str, list] | None = None
    for conjunct in conjuncts:
        candidate = _equality_candidate(conjunct)
        if candidate is None:
            continue
        local, values = candidate
        name = index_for(scan.table_name, scan.column_indexes[local])
        if name is None:
            continue
        column = scan.fields[local].name
        distinct = 0
        if stats is None and stats_fn is not None:
            stats = stats_fn(scan.table_name)
        if stats is not None:
            column_stats = stats.column(column)
            if column_stats is not None:
                distinct = column_stats.distinct_count
        if not should_use_index(row_count, distinct, len(values)):
            continue
        if best is None or len(values) < best[0]:
            best = (len(values), name, column, values)
    if best is None:
        return None
    return best[1], best[2], best[3]


def _equality_candidate(conjunct: BoundExpr) -> tuple[int, list] | None:
    """(local_column, probe_values) for ``col = lit`` / ``col IN (lits)``."""
    if isinstance(conjunct, BoundBinary) and conjunct.op == "=":
        left, right = conjunct.left, conjunct.right
        if isinstance(left, BoundColumn) and isinstance(right, BoundLiteral):
            return left.index, [right.value]
        if isinstance(right, BoundColumn) and isinstance(left, BoundLiteral):
            return right.index, [left.value]
        return None
    if (
        isinstance(conjunct, BoundInList)
        and not conjunct.negated
        and isinstance(conjunct.operand, BoundColumn)
    ):
        return conjunct.operand.index, list(conjunct.items)
    return None


_FLIPPED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def _zone_candidate(conjunct: BoundExpr) -> tuple[int, str, object] | None:
    """(local_column, op, physical_value) for a zone-prunable comparison."""
    if isinstance(conjunct, BoundBinary) and conjunct.op in _FLIPPED_OPS:
        left, right = conjunct.left, conjunct.right
        if isinstance(left, BoundColumn) and isinstance(right, BoundLiteral):
            return left.index, conjunct.op, right.value
        if isinstance(right, BoundColumn) and isinstance(left, BoundLiteral):
            return right.index, _FLIPPED_OPS[conjunct.op], left.value
        return None
    if (
        isinstance(conjunct, BoundInList)
        and not conjunct.negated
        and isinstance(conjunct.operand, BoundColumn)
    ):
        return conjunct.operand.index, "in", list(conjunct.items)
    return None
