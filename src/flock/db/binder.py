"""Name resolution and type checking: AST → logical plan.

The binder resolves table/column names against the catalog, resolves function
calls against the registry, types every expression, and lifts ``PREDICT``
expressions into :class:`~flock.db.plan.PredictNode` operators so the
optimizer can treat inference as relational algebra (§4.1 of the paper).
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Protocol, Sequence

import numpy as np

from flock.db import functions as fn
from flock.db.expr import (
    BoundBinary,
    BoundCase,
    BoundCast,
    BoundColumn,
    BoundExpr,
    BoundFunction,
    BoundInList,
    BoundIsNull,
    BoundLike,
    BoundLiteral,
    BoundUnary,
)
from flock.db.plan import (
    AggregateNode,
    AggregateSpec,
    DistinctNode,
    Field,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    PredictNode,
    ProjectNode,
    ScanNode,
    SortNode,
    WindowNode,
)
from flock.db.schema import TableSchema
from flock.db.sql import ast_nodes as ast
from flock.db.types import (
    SQL_TYPE_ALIASES,
    DataType,
    coerce_value,
    common_type,
    infer_type,
)
from flock.db.vector import Batch, ColumnVector, coerce_column
from flock.errors import BindError, TypeMismatchError


class ModelSignature(Protocol):
    """What the binder needs to know about a deployed model."""

    input_names: list[str]
    input_dtypes: list[DataType]
    output_fields: list[Field]


class BinderContext(Protocol):
    """Catalog access required during binding."""

    def resolve_table(self, name: str) -> TableSchema: ...

    def resolve_model(self, name: str) -> ModelSignature: ...

    def resolve_view(self, name: str):
        """The view's Select AST, or None when no such view exists."""
        return None


@dataclass
class ScopeEntry:
    qualifier: str | None
    name: str
    dtype: DataType


@dataclass
class Scope:
    """Visible columns at some point of the plan, in output order.

    After aggregation, ``grouped`` maps the SQL text of each group key and
    aggregate call to its position: those whole expressions are all that
    is visible, and a bare column reference is an error.
    """

    entries: list[ScopeEntry] = field(default_factory=list)
    grouped: dict[str, int] | None = None

    def extend(self, other: "Scope") -> "Scope":
        return Scope(self.entries + other.entries)

    def add(self, qualifier: str | None, name: str, dtype: DataType) -> None:
        self.entries.append(ScopeEntry(qualifier, name, dtype))

    def resolve(self, name: str, qualifier: str | None) -> tuple[int, DataType]:
        """Position and type of a column reference; raises on miss/ambiguity."""
        name_l = name.lower()
        qual_l = qualifier.lower() if qualifier else None
        matches = [
            (i, e)
            for i, e in enumerate(self.entries)
            if e.name.lower() == name_l
            and (qual_l is None or (e.qualifier or "").lower() == qual_l)
        ]
        if not matches:
            target = f"{qualifier}.{name}" if qualifier else name
            raise BindError(f"unknown column {target!r}")
        if len(matches) > 1:
            target = f"{qualifier}.{name}" if qualifier else name
            raise BindError(f"ambiguous column reference {target!r}")
        index, entry = matches[0]
        return index, entry.dtype


def fold_constants(expr: BoundExpr) -> BoundExpr:
    """Replace column-free subtrees with literals (evaluated once)."""
    if isinstance(expr, BoundLiteral):
        return expr
    if not expr.referenced_columns():
        result = expr.evaluate(_ONE_ROW)
        if len(result) >= 1:
            return BoundLiteral(expr.dtype, result[0])
        return expr
    for attr in ("operand", "left", "right"):
        if hasattr(expr, attr):
            setattr(expr, attr, fold_constants(getattr(expr, attr)))
    if hasattr(expr, "args"):
        expr.args = [fold_constants(a) for a in expr.args]
    if hasattr(expr, "branches"):
        expr.branches = [
            (fold_constants(c), fold_constants(v)) for c, v in expr.branches
        ]
        if expr.default is not None:
            expr.default = fold_constants(expr.default)
    return expr


class _OneRowBatch(Batch):
    """A columnless batch that reports one row (for constant folding)."""

    def __init__(self) -> None:
        super().__init__([], [])

    @property
    def num_rows(self) -> int:
        return 1


_ONE_ROW = _OneRowBatch()

#: Name prefix of the hidden column a scalar subquery is lifted into.
_SCALAR_PREFIX = "__sq"

#: Parameter types ``infer_type`` always accepts: a bulk load's values pass
#: the parameter check with one set lookup each.
_PLAIN_PARAMETER_TYPES = frozenset({int, float, str, bool, type(None)})


class Binder:
    """Binds SELECT statements (and standalone expressions) to plans."""

    def __init__(
        self,
        context: BinderContext,
        parameters: list[Any] | None = None,
    ):
        self.context = context
        # Positional values for '?' placeholders; None means the statement
        # must not contain any placeholders.
        self.parameters = parameters
        # WITH-clause bindings visible at the current point of the tree:
        # lowercased name → (query AST, registry snapshot to bind it under).
        # The snapshot holds only *earlier* CTEs of the same WITH clause, so
        # references resolve left-to-right and self-recursion is a plain
        # unknown-table error rather than infinite regress.
        self._ctes: dict[str, tuple[ast.Statement, dict]] = {}

    def _bind_parameter(self, param: ast.Parameter) -> BoundLiteral:
        value = self._parameter_value(param.index)
        if value is None:
            return BoundLiteral(DataType.TEXT, None)
        return BoundLiteral(infer_type(value), value)

    def _parameter_value(self, index: int) -> Any:
        """The value supplied for placeholder *index*, checked to be one
        a SQL literal can hold — the one check every ``?`` goes through."""
        if self.parameters is None:
            raise BindError(
                "statement contains '?' placeholders but no parameters "
                "were supplied"
            )
        if not 0 <= index < len(self.parameters):
            raise BindError(
                f"parameter {index + 1} is out of range: "
                f"{len(self.parameters)} value(s) supplied"
            )
        value = self.parameters[index]
        if type(value) not in _PLAIN_PARAMETER_TYPES:
            try:
                infer_type(value)
            except TypeMismatchError:
                raise TypeMismatchError(
                    f"parameter {index + 1} has unsupported type "
                    f"{type(value).__name__!r}"
                ) from None
        return value

    # ------------------------------------------------------------------
    # Query expressions (SELECT and set operations)
    # ------------------------------------------------------------------
    def bind_query(self, statement: ast.Statement) -> PlanNode:
        """Bind a SELECT or a UNION/EXCEPT/INTERSECT chain."""
        if isinstance(statement, ast.Select):
            return self.bind_select(statement)
        if isinstance(statement, ast.SetOperation):
            return self._bind_set_operation(statement)
        raise BindError(
            f"cannot bind {type(statement).__name__} as a query"
        )

    def _register_ctes(self, ctes: list[ast.CTE]) -> dict:
        """Install *ctes* into the registry; returns the registry to restore."""
        saved = self._ctes
        if ctes:
            current = dict(saved)
            for cte in ctes:
                snapshot = dict(current)
                current[cte.name.lower()] = (cte.query, snapshot)
            self._ctes = current
        return saved

    def _bind_set_operation(self, setop: ast.SetOperation) -> PlanNode:
        saved = self._register_ctes(setop.ctes)
        try:
            return self._bind_set_operation_body(setop)
        finally:
            self._ctes = saved

    def _bind_set_operation_body(self, setop: ast.SetOperation) -> PlanNode:
        from flock.db.plan import SetOpNode

        left = self.bind_query(setop.left)
        right = self.bind_query(setop.right)
        if len(left.fields) != len(right.fields):
            raise BindError(
                f"{setop.op} inputs have {len(left.fields)} vs "
                f"{len(right.fields)} columns"
            )
        # Unify types column-wise; INTEGER/FLOAT mixes cast to FLOAT.
        casts_left: list[BoundExpr] = []
        casts_right: list[BoundExpr] = []
        needs_left = needs_right = False
        for i, (lf, rf) in enumerate(zip(left.fields, right.fields)):
            try:
                unified = common_type(lf.dtype, rf.dtype)
            except TypeMismatchError:
                raise BindError(
                    f"{setop.op} column {i + 1}: incompatible types "
                    f"{lf.dtype} and {rf.dtype}"
                ) from None
            lcol: BoundExpr = BoundColumn(i, lf.dtype, lf.name)
            rcol: BoundExpr = BoundColumn(i, rf.dtype, rf.name)
            if lf.dtype is not unified:
                lcol = BoundCast(lcol, unified)
                needs_left = True
            if rf.dtype is not unified:
                rcol = BoundCast(rcol, unified)
                needs_right = True
            casts_left.append(lcol)
            casts_right.append(rcol)
        names = [f.name for f in left.fields]
        if needs_left:
            left = ProjectNode(left, casts_left, names)
        if needs_right:
            right = ProjectNode(right, casts_right, names)
        plan: PlanNode = SetOpNode(left, right, setop.op, setop.all)

        if setop.order_by:
            keys = []
            for order in setop.order_by:
                position = self._setop_order_position(order.expr, plan)
                keys.append(
                    (
                        BoundColumn(
                            position,
                            plan.fields[position].dtype,
                            plan.fields[position].name,
                        ),
                        order.ascending,
                    )
                )
            plan = SortNode(plan, keys)
        if setop.limit is not None or setop.offset is not None:
            plan = LimitNode(plan, setop.limit, setop.offset or 0)
        return plan

    def _setop_order_position(self, expr: ast.Expr, plan: PlanNode) -> int:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value - 1
            if not 0 <= position < len(plan.fields):
                raise BindError(f"ORDER BY position {expr.value} out of range")
            return position
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            lowered = expr.name.lower()
            for i, f in enumerate(plan.fields):
                if f.name.lower() == lowered:
                    return i
        raise BindError(
            "set operations support ORDER BY output column names or "
            "positions only"
        )

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def bind_select(self, select: ast.Select) -> PlanNode:
        saved = self._register_ctes(select.ctes)
        try:
            return self._bind_select_body(select)
        finally:
            self._ctes = saved

    def _bind_select_body(self, select: ast.Select) -> PlanNode:
        plan, scope = self._bind_from(select.from_clause)
        # The node types in the clauses; a lift runs only if its type does.
        present = {
            type(node) for _, expr in select.clauses() for node in expr.walk()
        }
        if not present.isdisjoint(_LIFTED):
            select = _name_lifted_items(select)

        # PREDICT lifts into PredictNode operators, so the optimizer can
        # move relational operators across the model boundary.
        if ast.Predict in present:
            plan, scope, select = self._lift(
                plan, scope, select, ast.Predict, self._append_predict
            )

        # Decorrelation into join plans: IN (SELECT ...) and EXISTS
        # conjuncts become SEMI/ANTI joins, scalar subqueries LEFT joins
        # (grouped equality joins for the correlated-aggregate form).
        if ast.InQuery in present or ast.Exists in present:
            plan, select = self._lift_semi_joins(plan, scope, select)
        if ast.ScalarSubquery in present:
            if any(
                isinstance(node, ast.ScalarSubquery)
                for expr in select.group_by
                for node in expr.walk()
            ):
                raise BindError(
                    "scalar subqueries are not supported in GROUP BY"
                )
            plan, scope, select = self._lift(
                plan, scope, select, ast.ScalarSubquery,
                self._append_scalar_subquery,
            )

        if select.where is not None:
            predicate = self._bind_boolean(select.where, scope)
            plan = FilterNode(plan, fold_constants(predicate))

        if (
            select.group_by
            or select.having is not None
            or any(self._contains_aggregate(i.expr) for i in select.items)
        ):
            if ast.WindowFunction in present:
                raise BindError(
                    "window functions cannot be combined with GROUP BY or "
                    "aggregates"
                )
            plan, scope, select = self._bind_grouping(select, plan, scope)
        elif ast.WindowFunction in present:
            plan, scope, select = self._lift(
                plan, scope, select, ast.WindowFunction, self._append_window
            )
        return self._bind_projection(select, plan, scope)

    # -- FROM ----------------------------------------------------------
    def _bind_from(
        self, from_clause: ast.TableExpr | None
    ) -> tuple[PlanNode, Scope]:
        if from_clause is None:
            raise BindError("SELECT without FROM is not supported")
        if isinstance(from_clause, ast.TableRef):
            qualifier = from_clause.alias or from_clause.name
            cte = self._ctes.get(from_clause.name.lower())
            if cte is not None:
                # Each FROM-position reference re-binds the CTE body under
                # the registry snapshot it was declared with (earlier CTEs
                # only), so one CTE may be used in several FROM positions.
                cte_query, snapshot = cte
                outer_registry = self._ctes
                self._ctes = snapshot
                try:
                    inner = self.bind_query(cte_query)
                finally:
                    self._ctes = outer_registry
                scope = Scope(
                    [
                        ScopeEntry(qualifier, f.name, f.dtype)
                        for f in inner.fields
                    ]
                )
                return inner, scope
            view_query = getattr(self.context, "resolve_view", lambda n: None)(
                from_clause.name
            )
            if view_query is not None:
                inner = self.bind_query(view_query)
                # Definer semantics: every scan under the view is governed
                # by a grant on the (outermost) view, not the base tables.
                for node in inner.walk():
                    if isinstance(node, ScanNode):
                        node.via_view = from_clause.name
                scope = Scope(
                    [
                        ScopeEntry(qualifier, f.name, f.dtype)
                        for f in inner.fields
                    ]
                )
                return inner, scope
            schema = self.context.resolve_table(from_clause.name)
            # Hidden columns (always physically last) are invisible to
            # queries: not in the scope, not in ``SELECT *``. Visible
            # positions therefore equal physical positions.
            visible = schema.visible_columns
            fields = [Field(c.name, c.dtype) for c in visible]
            plan = ScanNode(
                schema.name, fields, list(range(len(visible))), alias=qualifier
            )
            scope = Scope(
                [ScopeEntry(qualifier, c.name, c.dtype) for c in visible]
            )
            return plan, scope
        if isinstance(from_clause, ast.SubqueryRef):
            inner = self.bind_query(from_clause.query)
            scope = Scope(
                [
                    ScopeEntry(from_clause.alias, f.name, f.dtype)
                    for f in inner.fields
                ]
            )
            return inner, scope
        if isinstance(from_clause, ast.Join):
            left_plan, left_scope = self._bind_from(from_clause.left)
            right_plan, right_scope = self._bind_from(from_clause.right)
            scope = left_scope.extend(right_scope)
            condition = None
            if from_clause.condition is not None:
                condition = self._bind_boolean(from_clause.condition, scope)
            plan = JoinNode(
                left_plan, right_plan, from_clause.join_type, condition
            )
            return plan, scope
        raise BindError(f"unsupported FROM clause item {from_clause!r}")

    # -- lifting expressions into plan operators ---------------------------
    def _lift(
        self,
        plan: PlanNode,
        scope: Scope,
        select: ast.Select,
        kind: type,
        append: Callable[..., tuple[PlanNode, Scope, str]],
    ) -> tuple[PlanNode, Scope, ast.Select]:
        """Lift every *kind* node of *select*'s clauses into the plan.

        Nodes are deduplicated by SQL text and appended in walk order:
        ``append(plan, scope, node, index)`` returns the plan and scope
        extended with the hidden column holding the node's value, and that
        column's name. Each occurrence is then rewritten to a reference to
        its column.
        """
        columns: dict[str, str] = {}
        for _, expr in select.clauses():
            for node in expr.walk():
                if isinstance(node, kind):
                    key = str(node)
                    if key not in columns:
                        plan, scope, name = append(
                            plan, scope, node, len(columns)
                        )
                        columns[key] = name
        if not columns:
            return plan, scope, select
        rewritten = select.rewrite(
            lambda node: ast.ColumnRef(columns[str(node)])
            if isinstance(node, kind)
            else None
        )
        return plan, scope, rewritten

    def _append_predict(
        self, plan: PlanNode, scope: Scope, predict: ast.Predict, index: int
    ) -> tuple[PlanNode, Scope, str]:
        signature = self.context.resolve_model(predict.model_name)
        if predict.args:
            arg_exprs = [self._bind_expr(a, scope) for a in predict.args]
            if len(arg_exprs) != len(signature.input_names):
                raise BindError(
                    f"model {predict.model_name!r} expects "
                    f"{len(signature.input_names)} inputs, got {len(arg_exprs)}"
                )
        else:
            # PREDICT(model): bind the model's features by name against scope.
            arg_exprs = []
            for feature_name in signature.input_names:
                position, dtype = scope.resolve(feature_name, None)
                arg_exprs.append(BoundColumn(position, dtype, feature_name))

        input_indexes: list[int] = []
        if all(isinstance(e, BoundColumn) for e in arg_exprs):
            input_indexes = [e.index for e in arg_exprs]  # type: ignore[attr-defined]
        else:
            # Compute non-trivial arguments as extra projected columns.
            passthrough = [
                BoundColumn(i, e.dtype, e.name)
                for i, e in enumerate(scope.entries)
            ]
            names = [e.name for e in scope.entries]
            arg_names = [
                f"__predict{index}_arg{i}" for i in range(len(arg_exprs))
            ]
            plan = ProjectNode(plan, passthrough + arg_exprs, names + arg_names)
            base = len(scope.entries)
            new_scope = Scope(list(scope.entries))
            for i, (arg_name, arg) in enumerate(zip(arg_names, arg_exprs)):
                new_scope.add(None, arg_name, arg.dtype)
                input_indexes.append(base + i)
            scope = new_scope

        # Choose which model output this expression refers to.
        if predict.output is not None:
            wanted = predict.output.lower()
            chosen = [
                f for f in signature.output_fields if f.name.lower() == wanted
            ]
            if not chosen:
                raise BindError(
                    f"model {predict.model_name!r} has no output "
                    f"{predict.output!r}"
                )
            output_fields = [
                Field(f"__predict{index}_{f.name}", f.dtype) for f in chosen
            ]
            target = output_fields[0]
        else:
            first = signature.output_fields[0]
            output_fields = [
                Field(f"__predict{index}_{first.name}", first.dtype)
            ]
            target = output_fields[0]

        plan = PredictNode(plan, predict.model_name, input_indexes, output_fields)
        new_scope = Scope(list(scope.entries))
        for f in output_fields:
            new_scope.add(None, f.name, f.dtype)
        return plan, new_scope, target.name

    # -- IN (SELECT ...) and EXISTS lifting ----------------------------------
    def _lift_semi_joins(
        self, plan: PlanNode, scope: Scope, select: ast.Select
    ) -> tuple[PlanNode, ast.Select]:
        """Lift ``[NOT] IN (SELECT ...)`` and ``[NOT] EXISTS`` WHERE
        conjuncts into SEMI/ANTI joins, which keep the scope unchanged, and
        drop them from the WHERE clause."""
        semi = (ast.InQuery, ast.Exists)
        conjuncts = (
            ast.conjuncts(select.where) if select.where is not None else []
        )
        top_level = {id(conjunct) for conjunct in conjuncts}
        for clause, expr in select.clauses():
            for node in expr.walk():
                if isinstance(node, semi) and id(node) not in top_level:
                    form = (
                        "IN (SELECT ...)"
                        if isinstance(node, ast.InQuery)
                        else "EXISTS"
                    )
                    if clause == "where":
                        raise BindError(
                            f"{form} must be a top-level AND-conjunct of the "
                            "WHERE clause"
                        )
                    raise BindError(
                        f"{form} is only supported in the WHERE clause"
                    )
        remaining: list[ast.Expr] = []
        for conjunct in conjuncts:
            if isinstance(conjunct, semi):
                plan = self._append_semi_join(plan, scope, conjunct)
            else:
                remaining.append(conjunct)
        if len(remaining) == len(conjuncts):
            return plan, select
        return plan, dataclasses.replace(select, where=ast.conjoin(remaining))

    def _append_semi_join(
        self, plan: PlanNode, scope: Scope, node: ast.InQuery | ast.Exists
    ) -> PlanNode:
        """A SEMI (ANTI when negated) join keeping the rows of *plan* with
        (without) a match in the subquery. An ANTI join keeps a NOT IN row
        even when the subquery returns a NULL (documented in DESIGN.md)."""
        if isinstance(node, ast.InQuery):
            subplan = self.bind_query(node.query)
            if len(subplan.fields) != 1:
                raise BindError(
                    "IN (SELECT ...) subquery must produce exactly one column"
                )
            sub_field = subplan.fields[0]
            condition = self._make_binary(
                "=",
                self._bind_expr(node.operand, scope),
                BoundColumn(
                    len(scope.entries), sub_field.dtype, sub_field.name
                ),
            )
        else:
            sub = node.query
            subplan, sub_scope = self._bind_plain_subquery(
                sub, "EXISTS subquery"
            )
            if any(
                self._contains_aggregate(item.expr)
                for item in sub.items
                if not isinstance(item.expr, ast.Star)
            ):
                raise BindError(
                    "aggregates are not supported in an EXISTS subquery"
                )
            # Conjuncts the subquery evaluates alone filter below the join;
            # correlated ones are the join condition, over outer columns
            # then inner — exactly the JoinNode condition space.
            local, correlated = self._split_correlated(sub.where, sub_scope)
            if local:
                predicate = self._bind_boolean(ast.conjoin(local), sub_scope)
                subplan = FilterNode(subplan, fold_constants(predicate))
            condition = None
            if correlated:
                condition = self._bind_boolean(
                    ast.conjoin(correlated), scope.extend(sub_scope)
                )
        if condition is not None:
            condition = fold_constants(condition)
        join_type = "ANTI" if node.negated else "SEMI"
        return JoinNode(plan, subplan, join_type, condition)

    def _bind_plain_subquery(
        self, query: ast.Statement, what: str
    ) -> tuple[PlanNode, Scope]:
        """The FROM clause of *query* bound, once it is checked to be the
        plain SELECT that decorrelation handles."""
        if not isinstance(query, ast.Select) or (
            query.group_by
            or query.having is not None
            or query.order_by
            or query.limit is not None
            or query.offset is not None
            or query.distinct
            or query.ctes
        ):
            raise BindError(
                f"{what} must be a plain SELECT without "
                "GROUP BY/HAVING/ORDER BY/LIMIT/DISTINCT"
            )
        return self._bind_from(query.from_clause)

    def _split_correlated(
        self, where: ast.Expr | None, sub_scope: Scope
    ) -> tuple[list[ast.Expr], list[ast.Expr]]:
        """A subquery's WHERE conjuncts, split into those that bind in the
        subquery's own scope and those that reference the outer query."""
        local: list[ast.Expr] = []
        correlated: list[ast.Expr] = []
        for conjunct in ast.conjuncts(where) if where is not None else []:
            try:
                self._bind_boolean(conjunct, sub_scope)
            except BindError:
                correlated.append(conjunct)
            else:
                local.append(conjunct)
        return local, correlated

    # -- scalar subqueries ------------------------------------------------
    def _append_scalar_subquery(
        self,
        plan: PlanNode,
        scope: Scope,
        node: ast.ScalarSubquery,
        index: int,
    ) -> tuple[PlanNode, Scope, str]:
        hidden_name = f"{_SCALAR_PREFIX}{index}"
        query = node.query
        # Uncorrelated first: the subquery binds on its own.
        try:
            subplan = self.bind_query(query)
        except BindError:
            subplan = None
        if subplan is not None:
            if len(subplan.fields) != 1:
                raise BindError(
                    "scalar subquery must produce exactly one column"
                )
            if not self._scalar_shape_ok(query):
                raise BindError(
                    "scalar subquery must be an aggregate without GROUP BY "
                    "or use LIMIT 1"
                )
            dtype = subplan.fields[0].dtype
            subplan = ProjectNode(
                subplan, [BoundColumn(0, dtype, hidden_name)], [hidden_name]
            )
            # LEFT join on a literal TRUE condition: every outer row picks up
            # the single subquery row, or NULL when it produced no rows.
            condition = BoundLiteral(DataType.BOOLEAN, True)
            plan = JoinNode(plan, subplan, "LEFT", condition)
            new_scope = Scope(list(scope.entries))
            new_scope.add(None, hidden_name, dtype)
            return plan, new_scope, hidden_name
        return self._append_correlated_scalar(plan, scope, query, hidden_name)

    def _scalar_shape_ok(self, query: ast.Statement) -> bool:
        limit = getattr(query, "limit", None)
        if limit is not None and limit <= 1:
            return True
        if isinstance(query, ast.Select) and not query.group_by:
            return any(
                self._contains_aggregate(item.expr) for item in query.items
            )
        return False

    def _append_correlated_scalar(
        self,
        plan: PlanNode,
        scope: Scope,
        query: ast.Statement,
        hidden_name: str,
    ) -> tuple[PlanNode, Scope, str]:
        what = "correlated scalar subquery"
        _, sub_scope = self._bind_plain_subquery(query, what)
        if len(query.items) != 1:
            raise BindError("scalar subquery must produce exactly one column")
        if not self._contains_aggregate(query.items[0].expr):
            raise BindError(f"{what} must compute an aggregate")

        local, correlated = self._split_correlated(query.where, sub_scope)
        pairs: list[tuple[ast.Expr, ast.Expr]] = []  # (outer, inner) keys
        for conjunct in correlated:
            if not (
                isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
            ):
                raise BindError(
                    f"cannot decorrelate scalar subquery predicate "
                    f"{conjunct}: only equality correlations are supported"
                )
            for inner_ast, outer_ast in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                try:
                    self._bind_expr(inner_ast, sub_scope)
                    self._bind_expr(outer_ast, scope)
                except BindError:
                    continue
                pairs.append((outer_ast, inner_ast))
                break
            else:
                raise BindError(
                    f"cannot decorrelate scalar subquery predicate "
                    f"{conjunct}"
                )
        if not pairs:
            raise BindError(
                "scalar subquery is neither uncorrelated nor an "
                "equality-correlated aggregate"
            )

        # Decorrelate: group the subquery by its correlation keys, then
        # LEFT-join the grouped result on outer key = inner key. This is the
        # same pre-aggregated-join plan the rewritten TPC-H templates use,
        # so results (including float rounding) match bit-for-bit.
        key_names = [f"{hidden_name}k{i}" for i in range(len(pairs))]
        derived = ast.Select(
            items=[
                ast.SelectItem(inner_ast, name)
                for (_, inner_ast), name in zip(pairs, key_names)
            ]
            + [ast.SelectItem(query.items[0].expr, hidden_name)],
            from_clause=query.from_clause,
            where=ast.conjoin(local),
            group_by=[inner_ast for _, inner_ast in pairs],
        )
        subplan = self.bind_select(derived)
        new_scope = Scope(list(scope.entries))
        for f in subplan.fields:
            new_scope.add(None, f.name, f.dtype)
        condition = self._bind_boolean(
            ast.conjoin(
                [
                    ast.BinaryOp("=", outer_ast, ast.ColumnRef(name))
                    for (outer_ast, _), name in zip(pairs, key_names)
                ]
            ),
            new_scope,
        )
        plan = JoinNode(plan, subplan, "LEFT", fold_constants(condition))
        return plan, new_scope, hidden_name

    # -- window functions ------------------------------------------------
    def _append_window(
        self,
        plan: PlanNode,
        scope: Scope,
        win: ast.WindowFunction,
        index: int,
    ) -> tuple[PlanNode, Scope, str]:
        name = win.name.upper()
        output_name = f"__win{index}"
        for sub in win.children():
            for n in sub.walk():
                if isinstance(n, ast.WindowFunction):
                    raise BindError("window functions cannot be nested")
                if isinstance(n, ast.FunctionCall) and fn.is_aggregate(
                    n.name
                ):
                    raise BindError(
                        "aggregates are not allowed inside window functions"
                    )
        arg: BoundExpr | None = None
        if name in ("ROW_NUMBER", "RANK"):
            if win.args:
                raise BindError(f"{name}() takes no arguments")
            dtype = DataType.INTEGER
        elif name == "SUM":
            if len(win.args) != 1:
                raise BindError("SUM(...) OVER takes exactly one argument")
            arg = self._bind_expr(win.args[0], scope)
            if not arg.dtype.is_numeric:
                raise BindError("SUM(...) OVER requires a numeric argument")
            dtype = fn.AGGREGATE_FUNCTIONS["SUM"].return_type(arg.dtype)
        else:
            raise BindError(
                f"unsupported window function {win.name!r} "
                "(supported: ROW_NUMBER, RANK, SUM)"
            )
        partition_exprs = [
            self._bind_expr(e, scope) for e in win.partition_by
        ]
        order_keys = [
            (self._bind_expr(o.expr, scope), o.ascending)
            for o in win.order_by
        ]
        node = WindowNode(
            plan, name, arg, partition_exprs, order_keys, output_name, dtype
        )
        new_scope = Scope(list(scope.entries))
        new_scope.add(None, output_name, dtype)
        return node, new_scope, output_name

    # -- projection, DISTINCT, ORDER BY, LIMIT ----------------------------
    def _bind_projection(
        self, select: ast.Select, plan: PlanNode, scope: Scope
    ) -> PlanNode:
        exprs, names = self._bind_select_items(select.items, scope)
        output_scope = Scope(
            [ScopeEntry(None, n, e.dtype) for n, e in zip(names, exprs)]
        )

        hidden: list[tuple[BoundExpr, bool]] = []
        sort_keys: list[tuple[int, bool]] = []  # positions into projection
        for order in select.order_by:
            position = self._try_projection_position(
                order.expr, select.items, names, output_scope
            )
            if position is not None:
                sort_keys.append((position, order.ascending))
                continue
            if select.distinct:
                raise BindError(
                    "ORDER BY items must appear in the select list when "
                    "DISTINCT is used"
                )
            bound = self._bind_expr(order.expr, scope)
            hidden.append((bound, order.ascending))
            sort_keys.append((len(exprs) + len(hidden) - 1, order.ascending))

        all_exprs = exprs + [h[0] for h in hidden]
        all_names = names + [f"__sort{i}" for i in range(len(hidden))]
        plan = ProjectNode(plan, [fold_constants(e) for e in all_exprs], all_names)

        if select.distinct:
            plan = DistinctNode(plan)
        if sort_keys:
            keys = [
                (
                    BoundColumn(pos, plan.fields[pos].dtype, plan.fields[pos].name),
                    asc,
                )
                for pos, asc in sort_keys
            ]
            plan = SortNode(plan, keys)
        if hidden:
            keep = [
                BoundColumn(i, f.dtype, f.name)
                for i, f in enumerate(plan.fields[: len(exprs)])
            ]
            plan = ProjectNode(plan, keep, names)
        if select.limit is not None or select.offset is not None:
            plan = LimitNode(plan, select.limit, select.offset or 0)
        return plan

    def _try_projection_position(
        self,
        expr: ast.Expr,
        items: list[ast.SelectItem],
        names: list[str],
        output_scope: Scope,
    ) -> int | None:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value - 1
            if not 0 <= position < len(items):
                raise BindError(f"ORDER BY position {expr.value} out of range")
            return position
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            lowered = expr.name.lower()
            for i, n in enumerate(names):
                if n.lower() == lowered:
                    return i
        text = str(expr)
        for i, item in enumerate(items):
            if str(item.expr) == text:
                return i
        return None

    def _bind_select_items(
        self, items: list[ast.SelectItem], scope: Scope
    ) -> tuple[list[BoundExpr], list[str]]:
        exprs: list[BoundExpr] = []
        names: list[str] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                if scope.grouped is not None:
                    raise BindError("'*' is not valid after aggregation")
                qual = item.expr.table
                for i, entry in enumerate(scope.entries):
                    if entry.name.startswith("__"):
                        continue  # hidden predict/arg columns
                    if qual and (entry.qualifier or "").lower() != qual.lower():
                        continue
                    exprs.append(BoundColumn(i, entry.dtype, entry.name))
                    names.append(entry.name)
                continue
            bound = self._bind_expr(item.expr, scope)
            exprs.append(bound)
            names.append(item.alias or _default_name(item.expr))
        return exprs, names

    # -- GROUP BY and aggregates ------------------------------------------
    def _bind_grouping(
        self, select: ast.Select, plan: PlanNode, scope: Scope
    ) -> tuple[PlanNode, Scope, ast.Select]:
        """The aggregation and HAVING filter of *select*, the scope its
        remaining clauses bind in, and *select* as they must read it."""

        # A lifted scalar subquery is LEFT-joined on the group's
        # correlation keys, so it is constant per group: outside an
        # aggregate it is read through MIN(), which is exact.
        def per_group(node: ast.Expr) -> ast.Expr | None:
            if isinstance(node, ast.FunctionCall) and fn.is_aggregate(
                node.name
            ):
                return node
            if isinstance(node, ast.ColumnRef) and node.name.startswith(
                _SCALAR_PREFIX
            ):
                return ast.FunctionCall("MIN", [node])
            return None

        if any(e.name.startswith(_SCALAR_PREFIX) for e in scope.entries):
            select = select.rewrite(per_group)
        group_exprs = [self._bind_expr(g, scope) for g in select.group_by]
        agg_calls: dict[str, ast.FunctionCall] = {}
        for _, expr in select.clauses():
            for node in expr.walk():
                if isinstance(node, ast.FunctionCall) and fn.is_aggregate(
                    node.name
                ):
                    agg_calls.setdefault(str(node), node)
        specs = [
            self._bind_aggregate_call(call, scope, alias=f"__agg{i}")
            for i, call in enumerate(agg_calls.values())
        ]
        group_names = [_default_name(g) for g in select.group_by]
        plan = AggregateNode(plan, group_exprs, group_names, specs)

        # After aggregation only group keys and aggregate calls are
        # visible, each matched whole by its SQL text.
        post = Scope(
            [
                ScopeEntry(None, name, e.dtype)
                for name, e in zip(group_names, group_exprs)
            ]
            + [ScopeEntry(None, s.alias, s.dtype) for s in specs],
            grouped={},
        )
        for position, text in enumerate(
            [str(g) for g in select.group_by] + list(agg_calls)
        ):
            post.grouped.setdefault(text, position)

        if select.having is not None:
            predicate = self._bind_expr(select.having, post)
            if predicate.dtype is not DataType.BOOLEAN:
                raise BindError("HAVING predicate must be boolean")
            plan = FilterNode(plan, predicate)
        return plan, post, select

    def _bind_aggregate_call(
        self, call: ast.FunctionCall, scope: Scope, alias: str
    ) -> AggregateSpec:
        agg = fn.AGGREGATE_FUNCTIONS[call.name.upper()]
        if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
            if call.name.upper() != "COUNT":
                raise BindError(f"{call.name}(*) is not valid")
            return AggregateSpec("COUNT", None, False, alias, DataType.INTEGER)
        if len(call.args) != 1:
            raise BindError(
                f"aggregate {call.name} takes exactly one argument"
            )
        arg = self._bind_expr(call.args[0], scope)
        dtype = agg.return_type(arg.dtype)
        return AggregateSpec(call.name.upper(), arg, call.distinct, alias, dtype)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _bind_boolean(self, expr: ast.Expr, scope: Scope) -> BoundExpr:
        bound = self._bind_expr(expr, scope)
        if bound.dtype is not DataType.BOOLEAN:
            raise BindError(f"expected a boolean predicate, got {bound.dtype}")
        return bound

    def _bind_expr(self, expr: ast.Expr, scope: Scope) -> BoundExpr:
        if scope.grouped is not None:
            position = scope.grouped.get(str(expr))
            if position is not None:
                entry = scope.entries[position]
                return BoundColumn(position, entry.dtype, entry.name)
        if isinstance(expr, ast.Literal):
            if expr.value is None:
                return BoundLiteral(DataType.TEXT, None)
            return BoundLiteral(infer_type(expr.value), expr.value)
        if isinstance(expr, ast.Parameter):
            return self._bind_parameter(expr)
        if isinstance(expr, ast.ColumnRef):
            if scope.grouped is not None:
                raise BindError(
                    f"column {expr} must appear in GROUP BY or inside an "
                    "aggregate"
                )
            position, dtype = scope.resolve(expr.name, expr.table)
            return BoundColumn(position, dtype, expr.name)
        if isinstance(expr, ast.UnaryOp):
            inner = self._bind_expr(expr.operand, scope)
            if expr.op == "NOT" and inner.dtype is not DataType.BOOLEAN:
                raise BindError("NOT requires a boolean operand")
            if expr.op == "-" and not inner.dtype.is_numeric:
                raise BindError("unary minus requires a numeric operand")
            return BoundUnary(expr.op, inner)
        if isinstance(expr, ast.BinaryOp):
            left = self._bind_expr(expr.left, scope)
            right = self._bind_expr(expr.right, scope)
            return self._make_binary(expr.op, left, right)
        if isinstance(expr, ast.IsNull):
            return BoundIsNull(self._bind_expr(expr.operand, scope), expr.negated)
        if isinstance(expr, ast.Between):
            import copy

            operand = self._bind_expr(expr.operand, scope)
            low = self._bind_expr(expr.low, scope)
            high = self._bind_expr(expr.high, scope)
            lower = self._make_binary(">=", operand, low)
            # The upper bound gets its own copy of the operand: shared
            # subtrees would be visited twice by tree rewrites.
            upper = self._make_binary("<=", copy.deepcopy(operand), high)
            combined = BoundBinary("AND", lower, upper, DataType.BOOLEAN)
            if expr.negated:
                return BoundUnary("NOT", combined)
            return combined
        if isinstance(expr, ast.InList):
            operand = self._bind_expr(expr.operand, scope)
            literals: list[Any] = []
            all_literal = True
            bound_items = [self._bind_expr(i, scope) for i in expr.items]
            for item in bound_items:
                folded = fold_constants(item)
                if isinstance(folded, BoundLiteral) and folded.value is not None:
                    literals.append(folded.value)
                else:
                    all_literal = False
                    break
            if all_literal:
                return BoundInList(operand, literals, expr.negated)
            import copy

            chain: BoundExpr | None = None
            for i, item in enumerate(bound_items):
                # Each equality gets its own operand copy (no shared subtrees).
                this_operand = operand if i == 0 else copy.deepcopy(operand)
                eq = self._make_binary("=", this_operand, item)
                chain = (
                    eq
                    if chain is None
                    else BoundBinary("OR", chain, eq, DataType.BOOLEAN)
                )
            assert chain is not None
            return BoundUnary("NOT", chain) if expr.negated else chain
        if isinstance(expr, ast.Like):
            operand = self._bind_expr(expr.operand, scope)
            pattern = fold_constants(self._bind_expr(expr.pattern, scope))
            if not isinstance(pattern, BoundLiteral) or not isinstance(
                pattern.value, str
            ):
                raise BindError("LIKE pattern must be a string literal")
            return BoundLike(operand, pattern.value, expr.negated)
        if isinstance(expr, ast.CaseWhen):
            branches = [
                (self._bind_boolean(c, scope), self._bind_expr(v, scope))
                for c, v in expr.branches
            ]
            default = (
                self._bind_expr(expr.default, scope)
                if expr.default is not None
                else None
            )
            return self._make_case(branches, default)
        if isinstance(expr, ast.Cast):
            inner = self._bind_expr(expr.operand, scope)
            return BoundCast(inner, _resolve_type_name(expr.type_name))
        if isinstance(expr, ast.FunctionCall):
            if fn.is_aggregate(expr.name):
                raise BindError(
                    f"aggregate {expr.name} is not allowed in this context"
                )
            args = [self._bind_expr(a, scope) for a in expr.args]
            return self._make_function(expr.name, args)
        if isinstance(expr, ast.Predict):
            raise BindError(
                "PREDICT must appear within a SELECT statement (it is lifted "
                "into the plan); standalone expression binding does not "
                "support it"
            )
        if isinstance(expr, ast.InQuery):
            raise BindError(
                "IN (SELECT ...) is only supported as a top-level conjunct "
                "of a SELECT's WHERE clause"
            )
        if isinstance(expr, ast.Exists):
            raise BindError(
                "EXISTS is only supported as a top-level AND-conjunct of a "
                "SELECT's WHERE clause"
            )
        if isinstance(expr, ast.ScalarSubquery):
            raise BindError(
                "scalar subqueries are not supported in this context"
            )
        if isinstance(expr, ast.WindowFunction):
            raise BindError(
                "window functions are only allowed in the select list and "
                "ORDER BY of a non-aggregate SELECT"
            )
        if isinstance(expr, ast.Star):
            raise BindError("'*' is only valid in the select list or COUNT(*)")
        raise BindError(f"unsupported expression {expr!r}")

    def _make_binary(
        self, op: str, left: BoundExpr, right: BoundExpr
    ) -> BoundExpr:
        if op in ("AND", "OR"):
            if (
                left.dtype is not DataType.BOOLEAN
                or right.dtype is not DataType.BOOLEAN
            ):
                raise BindError(f"{op} requires boolean operands")
            return BoundBinary(op, left, right, DataType.BOOLEAN)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            self._check_comparable(left.dtype, right.dtype)
            return BoundBinary(op, left, right, DataType.BOOLEAN)
        if op == "||":
            return BoundBinary(op, left, right, DataType.TEXT)
        if op in ("+", "-"):
            # DATE arithmetic: DATE ± INTEGER → DATE; DATE - DATE → INTEGER.
            if left.dtype is DataType.DATE and right.dtype is DataType.INTEGER:
                return BoundBinary(op, left, right, DataType.DATE)
            if (
                op == "+"
                and left.dtype is DataType.INTEGER
                and right.dtype is DataType.DATE
            ):
                return BoundBinary(op, left, right, DataType.DATE)
            if (
                op == "-"
                and left.dtype is DataType.DATE
                and right.dtype is DataType.DATE
            ):
                return BoundBinary(op, left, right, DataType.INTEGER)
        if op in ("+", "-", "*", "/"):
            try:
                dtype = common_type(left.dtype, right.dtype)
            except TypeMismatchError as exc:
                raise BindError(str(exc)) from None
            if op == "/":
                dtype = DataType.FLOAT
            return BoundBinary(op, left, right, dtype)
        if op == "%":
            if (
                left.dtype is not DataType.INTEGER
                or right.dtype is not DataType.INTEGER
            ):
                raise BindError("% requires integer operands")
            return BoundBinary(op, left, right, DataType.INTEGER)
        raise BindError(f"unknown operator {op!r}")

    def _check_comparable(self, left: DataType, right: DataType) -> None:
        if left is right:
            return
        numeric = {DataType.INTEGER, DataType.FLOAT}
        if left in numeric and right in numeric:
            return
        if {left, right} == {DataType.DATE, DataType.INTEGER}:
            return  # dates are stored as day numbers
        raise BindError(f"cannot compare {left} with {right}")

    def _make_function(self, name: str, args: list[BoundExpr]) -> BoundExpr:
        scalar = fn.lookup_scalar(name)
        scalar.check_arity(len(args))
        dtype = scalar.return_type([a.dtype for a in args])
        return BoundFunction(scalar.name, args, dtype, scalar.impl)

    def _make_case(
        self,
        branches: list[tuple[BoundExpr, BoundExpr]],
        default: BoundExpr | None,
    ) -> BoundExpr:
        value_types = [v.dtype for _, v in branches]
        if default is not None:
            value_types.append(default.dtype)
        dtype = value_types[0]
        for other in value_types[1:]:
            try:
                dtype = common_type(dtype, other)
            except TypeMismatchError as exc:
                raise BindError(f"CASE branches disagree on type: {exc}") from None
        return BoundCase(branches, default, dtype)

    def _contains_aggregate(self, expr: ast.Expr) -> bool:
        return any(
            isinstance(node, ast.FunctionCall) and fn.is_aggregate(node.name)
            for node in expr.walk()
        )


def _default_name(expr: ast.Expr) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, (ast.FunctionCall, ast.WindowFunction)):
        return expr.name.lower()
    if isinstance(expr, ast.Predict):
        return "predict"
    if isinstance(expr, ast.ScalarSubquery):
        # Mirror the Postgres convention: a bare scalar subquery is named
        # after its inner output expression.
        query = expr.query
        if isinstance(query, ast.Select) and len(query.items) == 1:
            item = query.items[0]
            return item.alias or _default_name(item.expr)
        return "subquery"
    text = str(expr)
    return text if len(text) <= 40 else "expr"


_LIFTED = (ast.Predict, ast.ScalarSubquery, ast.WindowFunction)


def _name_lifted_items(select: ast.Select) -> ast.Select:
    """*select* with each unaliased item that contains a PREDICT, scalar
    subquery or window function named after its own text, not after the
    hidden columns those are lifted into."""

    def lifted(item: ast.SelectItem) -> bool:
        return item.alias is None and any(
            isinstance(node, _LIFTED) for node in item.expr.walk()
        )

    if not any(lifted(item) for item in select.items):
        return select
    items = [
        ast.SelectItem(item.expr, _default_name(item.expr))
        if lifted(item)
        else item
        for item in select.items
    ]
    return dataclasses.replace(select, items=items)


def _resolve_type_name(type_name: str) -> DataType:
    try:
        return SQL_TYPE_ALIASES[type_name.upper()]
    except KeyError:
        raise BindError(f"unknown type {type_name!r} in CAST") from None


# ----------------------------------------------------------------------
# INSERT rows
# ----------------------------------------------------------------------
def bind_insert_values(
    context: BinderContext,
    statement: ast.Insert,
    param_rows: Sequence[Sequence[Any] | None],
) -> list[ColumnVector]:
    """The columns an ``INSERT ... VALUES`` writes, for every parameter row.

    The one binder for VALUES rows: ``execute`` passes one parameter row,
    ``executemany`` N, and the shard router binds here on its coordinator
    before routing. Each template row is bound once. A slot without
    placeholders is folded to a constant column; a bare ``?`` takes its
    parameter column, coerced by one vector call when its Python types fit
    the column (:func:`~flock.db.vector.coerce_column`) and otherwise value
    by value through :meth:`Binder._parameter_value`; any other slot
    (``? + 1``) is re-bound per parameter row. Columns come back full width
    — NULL where the column list leaves a column out — with one row per
    (parameter row, template row), in that order.

    Errors are those of a row-major loop: a column bound value by value
    stops at its first failing row, and the failure earliest in
    (parameter row, template row, slot) order is raised.
    """
    schema = context.resolve_table(statement.table)
    positions = _column_positions(statement, schema)
    dtypes = [column.dtype for column in schema.columns]
    binder = Binder(context, None)
    templates = []
    for row in statement.rows:
        if len(row) != len(positions):
            raise BindError(
                f"INSERT row has {len(row)} values, expected "
                f"{len(positions)}"
            )
        constant = [None] * len(schema)
        slots = []
        for position, expr in zip(positions, row):
            if isinstance(expr, ast.Parameter):
                slots.append((position, expr.index, None))
            elif any(isinstance(node, ast.Parameter) for node in expr.walk()):
                slots.append((position, None, expr))
            else:
                constant[position] = coerce_value(
                    _fold_insert_expr(binder, expr), dtypes[position]
                )
        templates.append((constant, slots))
    n = len(param_rows)
    failures = []
    parts = []
    for t, (constant, slots) in enumerate(templates):
        bound = {}
        for slot, (position, index, expr) in enumerate(slots):
            dtype = dtypes[position]
            if expr is None:
                vector = _parameter_column(param_rows, index, dtype)
                if vector is not None:
                    bound[position] = vector
                    continue
                evaluate = functools.partial(binder._parameter_value, index)
            else:
                evaluate = functools.partial(_fold_insert_expr, binder, expr)
            vector, failure = _column_by_value(
                dtype, _per_parameter_row(binder, param_rows, evaluate)
            )
            if failure is not None:
                failures.append(((failure[0], t, slot), failure[1]))
            bound[position] = vector
        parts.append([
            bound[position] if position in bound
            else ColumnVector.constant(dtype, value, n).copy()
            for position, (dtype, value) in enumerate(zip(dtypes, constant))
        ])
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [
        _interleave(dtype, [columns[position] for columns in parts])
        for position, dtype in enumerate(dtypes)
    ]


def insert_select_columns(
    context: BinderContext, statement: ast.Insert, source: Batch
) -> list[ColumnVector]:
    """The full-width columns ``INSERT ... SELECT`` writes.

    Each SELECT column is coerced value by value to its target type; the
    first failure in row-major order is raised.
    """
    schema = context.resolve_table(statement.table)
    positions = _column_positions(statement, schema)
    if source.num_columns != len(positions):
        raise BindError(
            f"INSERT column count {len(positions)} does not match "
            f"SELECT column count {source.num_columns}"
        )
    n = source.num_rows
    columns = [
        ColumnVector.constant(column.dtype, None, n).copy()
        for column in schema.columns
    ]
    failures = []
    for slot, (position, vector) in enumerate(zip(positions, source.columns)):
        columns[position], failure = _column_by_value(
            columns[position].dtype, iter(vector.to_pylist())
        )
        if failure is not None:
            failures.append(((failure[0], slot), failure[1]))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return columns


def _parameter_column(
    param_rows: Sequence[Sequence[Any] | None], index: int, dtype: DataType
) -> ColumnVector | None:
    """Parameter *index* of every row as one vector, or None when some row
    lacks it or the column's types leave it to the per-value path."""
    try:
        items = list(map(operator.itemgetter(index), param_rows))
    except (LookupError, TypeError):
        return None
    return coerce_column(dtype, items)


def _per_parameter_row(
    binder: Binder,
    param_rows: Sequence[Sequence[Any] | None],
    evaluate: Callable[[], Any],
) -> Iterator[Any]:
    for params in param_rows:
        binder.parameters = params
        yield evaluate()


def _column_by_value(
    dtype: DataType, values: Iterator[Any]
) -> tuple[ColumnVector | None, tuple[int, Exception] | None]:
    """Coerce *values* one by one: the column, or the first failing row and
    its error. Any error counts, as it would in a row-major loop."""
    coerced = []
    try:
        for value in values:
            coerced.append(coerce_value(value, dtype))
    except Exception as exc:
        return None, (len(coerced), exc)
    return ColumnVector.from_values(dtype, coerced), None


def _interleave(dtype: DataType, parts: list[ColumnVector]) -> ColumnVector:
    """Row i of part t becomes row ``i * len(parts) + t``."""
    if len(parts) == 1:
        return parts[0]
    step = len(parts)
    n = len(parts[0]) * step
    values = np.empty(n, dtype=dtype.numpy_dtype)
    nulls = np.empty(n, dtype=bool)
    for t, part in enumerate(parts):
        values[t::step] = part.values
        nulls[t::step] = part.nulls
    return ColumnVector(dtype, values, nulls)


def _column_positions(statement: ast.Insert, schema: TableSchema) -> list[int]:
    if statement.columns:
        return [schema.index_of(c) for c in statement.columns]
    return list(range(len(schema)))


def _fold_insert_expr(binder: Binder, expr: ast.Expr) -> Any:
    bound = fold_constants(binder._bind_expr(expr, Scope()))
    if not isinstance(bound, BoundLiteral):
        raise BindError("INSERT VALUES must be constant expressions")
    return bound.value
