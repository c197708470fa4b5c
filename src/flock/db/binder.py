"""Name resolution and type checking: AST → logical plan.

The binder resolves table/column names against the catalog, resolves function
calls against the registry, types every expression, and lifts ``PREDICT``
expressions into :class:`~flock.db.plan.PredictNode` operators so the
optimizer can treat inference as relational algebra (§4.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence

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
from flock.db.vector import Batch
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
    """Visible columns at some point of the plan, in output order."""

    entries: list[ScopeEntry] = field(default_factory=list)

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

        # Lift PREDICT expressions appearing anywhere in this SELECT into
        # PredictNode operators; the rewriter replaces each Predict AST node
        # with a ColumnRef to the prediction output column.
        plan, scope, select = self._lift_predicts(plan, scope, select)

        # Lift uncorrelated IN (SELECT ...) conjuncts into semi/anti joins.
        plan, scope, select = self._lift_in_subqueries(plan, scope, select)

        # Lift scalar subqueries into LEFT joins (grouped equality joins for
        # the correlated-aggregate form) and EXISTS conjuncts into SEMI/ANTI
        # joins — the decorrelation that makes faithful TPC-H run on the same
        # join plans as the rewritten templates.
        plan, scope, select = self._lift_scalar_subqueries(plan, scope, select)
        plan, scope, select = self._lift_exists(plan, scope, select)

        if select.where is not None:
            predicate = self._bind_boolean(select.where, scope)
            plan = FilterNode(plan, fold_constants(predicate))

        has_aggregates = any(
            self._contains_aggregate(item.expr) for item in select.items
        ) or (select.having is not None) or bool(select.group_by)

        if has_aggregates:
            if self._contains_window(select):
                raise BindError(
                    "window functions cannot be combined with GROUP BY or "
                    "aggregates"
                )
            return self._bind_aggregate_select(select, plan, scope)
        plan, scope, select = self._lift_windows(plan, scope, select)
        return self._bind_plain_select(select, plan, scope)

    def _contains_window(self, select: ast.Select) -> bool:
        def has(expr: ast.Expr | None) -> bool:
            if expr is None:
                return False
            return any(isinstance(n, ast.WindowFunction) for n in expr.walk())

        return (
            any(has(item.expr) for item in select.items)
            or has(select.having)
            or any(has(g) for g in select.group_by)
            or any(has(o.expr) for o in select.order_by)
        )

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

    # -- PREDICT lifting -------------------------------------------------
    def _lift_predicts(
        self, plan: PlanNode, scope: Scope, select: ast.Select
    ) -> tuple[PlanNode, Scope, ast.Select]:
        predicts: list[ast.Predict] = []

        def collect(expr: ast.Expr | None) -> None:
            if expr is None:
                return
            for node in expr.walk():
                if isinstance(node, ast.Predict):
                    predicts.append(node)

        for item in select.items:
            collect(item.expr)
        collect(select.where)
        collect(select.having)
        for g in select.group_by:
            collect(g)
        for o in select.order_by:
            collect(o.expr)

        if not predicts:
            return plan, scope, select

        replacement: dict[int, ast.ColumnRef] = {}
        signature_to_column: dict[str, ast.ColumnRef] = {}
        for index, predict in enumerate(predicts):
            key = str(predict)
            if key in signature_to_column:
                replacement[id(predict)] = signature_to_column[key]
                continue
            plan, scope, column_ref = self._append_predict(
                plan, scope, predict, index
            )
            signature_to_column[key] = column_ref
            replacement[id(predict)] = column_ref

        rewritten = _replace_exprs(select, replacement)
        return plan, scope, rewritten

    def _append_predict(
        self, plan: PlanNode, scope: Scope, predict: ast.Predict, index: int
    ) -> tuple[PlanNode, Scope, ast.ColumnRef]:
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
        return plan, new_scope, ast.ColumnRef(target.name)

    # -- IN (SELECT ...) lifting -------------------------------------------
    def _lift_in_subqueries(
        self, plan: PlanNode, scope: Scope, select: ast.Select
    ) -> tuple[PlanNode, Scope, ast.Select]:
        def contains_in_query(expr: ast.Expr | None) -> bool:
            if expr is None:
                return False
            return any(isinstance(n, ast.InQuery) for n in expr.walk())

        for item in select.items:
            if contains_in_query(item.expr):
                raise BindError(
                    "IN (SELECT ...) is only supported in the WHERE clause"
                )
        if contains_in_query(select.having) or any(
            contains_in_query(g) for g in select.group_by
        ):
            raise BindError(
                "IN (SELECT ...) is only supported in the WHERE clause"
            )
        if select.where is None or not contains_in_query(select.where):
            return plan, scope, select

        conjuncts = _ast_conjuncts(select.where)
        remaining: list[ast.Expr] = []
        counter = 0
        for conjunct in conjuncts:
            if isinstance(conjunct, ast.InQuery):
                plan, scope, replacement = self._append_in_subquery(
                    plan, scope, conjunct, counter
                )
                counter += 1
                if replacement is not None:
                    remaining.append(replacement)
                continue
            if contains_in_query(conjunct):
                raise BindError(
                    "IN (SELECT ...) must be a top-level AND-conjunct of "
                    "the WHERE clause"
                )
            remaining.append(conjunct)

        new_where: ast.Expr | None = None
        for conjunct in remaining:
            new_where = (
                conjunct
                if new_where is None
                else ast.BinaryOp("AND", new_where, conjunct)
            )
        rewritten = ast.Select(
            items=select.items,
            from_clause=select.from_clause,
            where=new_where,
            group_by=select.group_by,
            having=select.having,
            order_by=select.order_by,
            limit=select.limit,
            offset=select.offset,
            distinct=select.distinct,
            ctes=select.ctes,
        )
        return plan, scope, rewritten

    def _append_in_subquery(
        self, plan: PlanNode, scope: Scope, in_query: ast.InQuery, index: int
    ) -> tuple[PlanNode, Scope, ast.Expr | None]:
        subplan = self.bind_query(in_query.query)
        if len(subplan.fields) != 1:
            raise BindError(
                "IN (SELECT ...) subquery must produce exactly one column"
            )
        subplan = DistinctNode(subplan)
        operand = self._bind_expr(in_query.operand, scope)
        hidden_name = f"__inq{index}"
        sub_field = subplan.fields[0]
        sub_column = BoundColumn(
            len(scope.entries), sub_field.dtype, hidden_name
        )
        condition = self._make_binary("=", operand, sub_column)
        join_type = "LEFT" if in_query.negated else "INNER"
        plan = JoinNode(plan, subplan, join_type, condition)
        new_scope = Scope(list(scope.entries))
        new_scope.add(None, hidden_name, sub_field.dtype)
        if in_query.negated:
            # Anti-join: keep left rows with no match. (Simplification vs
            # full SQL NOT IN: a NULL-containing subquery does not veto all
            # rows here; documented in DESIGN.md.)
            return plan, new_scope, ast.IsNull(ast.ColumnRef(hidden_name))
        return plan, new_scope, None

    # -- scalar subquery lifting ------------------------------------------
    def _lift_scalar_subqueries(
        self, plan: PlanNode, scope: Scope, select: ast.Select
    ) -> tuple[PlanNode, Scope, ast.Select]:
        def collect(expr: ast.Expr | None) -> list[ast.ScalarSubquery]:
            if expr is None:
                return []
            return [
                n for n in expr.walk() if isinstance(n, ast.ScalarSubquery)
            ]

        occurrences: list[tuple[ast.ScalarSubquery, str]] = []
        for item in select.items:
            occurrences += [(n, "item") for n in collect(item.expr)]
        occurrences += [(n, "where") for n in collect(select.where)]
        occurrences += [(n, "having") for n in collect(select.having)]
        for order in select.order_by:
            occurrences += [(n, "order") for n in collect(order.expr)]
        for g in select.group_by:
            if collect(g):
                raise BindError(
                    "scalar subqueries are not supported in GROUP BY"
                )
        if not occurrences:
            return plan, scope, select

        aggregate_select = any(
            self._contains_aggregate(item.expr) for item in select.items
        ) or (select.having is not None) or bool(select.group_by)

        replacement: dict[int, ast.Expr] = {}
        signature_to_name: dict[str, str] = {}
        for node, context in occurrences:
            key = str(node)
            if key not in signature_to_name:
                plan, scope, name = self._append_scalar_subquery(
                    plan, scope, node, len(signature_to_name)
                )
                signature_to_name[key] = name
            ref: ast.Expr = ast.ColumnRef(signature_to_name[key])
            if aggregate_select and context in ("item", "having", "order"):
                # Post-aggregation contexts see the subquery value through
                # MIN(): the value is constant per group (it is LEFT-joined
                # on the group's correlation keys), so MIN is exact.
                ref = ast.FunctionCall("MIN", [ref])
            replacement[id(node)] = ref
        rewritten = _replace_exprs(select, replacement)
        for old_item, new_item in zip(select.items, rewritten.items):
            if new_item.alias is None and isinstance(
                old_item.expr, ast.ScalarSubquery
            ):
                new_item.alias = _scalar_subquery_name(old_item.expr)
        return plan, scope, rewritten

    def _append_scalar_subquery(
        self,
        plan: PlanNode,
        scope: Scope,
        node: ast.ScalarSubquery,
        index: int,
    ) -> tuple[PlanNode, Scope, str]:
        hidden_name = f"__sq{index}"
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
        if not isinstance(query, ast.Select):
            raise BindError(
                "correlated scalar subquery must be a plain SELECT"
            )
        if (
            query.group_by
            or query.having is not None
            or query.order_by
            or query.limit is not None
            or query.offset is not None
            or query.distinct
            or query.ctes
        ):
            raise BindError(
                "correlated scalar subquery must be a plain aggregate "
                "SELECT without GROUP BY/HAVING/ORDER BY/LIMIT/DISTINCT"
            )
        if len(query.items) != 1:
            raise BindError("scalar subquery must produce exactly one column")
        if not self._contains_aggregate(query.items[0].expr):
            raise BindError(
                "correlated scalar subquery must compute an aggregate"
            )
        sub_plan, sub_scope = self._bind_from(query.from_clause)
        del sub_plan  # probe bind only: classifies conjuncts below

        local_asts: list[ast.Expr] = []
        pairs: list[tuple[ast.Expr, ast.Expr]] = []  # (outer, inner) keys
        conjuncts = (
            _ast_conjuncts(query.where) if query.where is not None else []
        )
        for conjunct in conjuncts:
            try:
                self._bind_boolean(conjunct, sub_scope)
                local_asts.append(conjunct)
                continue
            except BindError:
                pass
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
        key_items = [
            ast.SelectItem(inner_ast, f"{hidden_name}k{i}")
            for i, (_, inner_ast) in enumerate(pairs)
        ]
        local_where: ast.Expr | None = None
        for conjunct in local_asts:
            local_where = (
                conjunct
                if local_where is None
                else ast.BinaryOp("AND", local_where, conjunct)
            )
        derived = ast.Select(
            items=key_items + [ast.SelectItem(query.items[0].expr, hidden_name)],
            from_clause=query.from_clause,
            where=local_where,
            group_by=[inner_ast for _, inner_ast in pairs],
        )
        subplan = self.bind_select(derived)

        left_width = len(scope.entries)
        condition: BoundExpr | None = None
        for i, (outer_ast, _) in enumerate(pairs):
            outer_bound = self._bind_expr(outer_ast, scope)
            key_field = subplan.fields[i]
            right_col = BoundColumn(
                left_width + i, key_field.dtype, key_field.name
            )
            eq = self._make_binary("=", outer_bound, right_col)
            condition = (
                eq
                if condition is None
                else BoundBinary("AND", condition, eq, DataType.BOOLEAN)
            )
        plan = JoinNode(plan, subplan, "LEFT", fold_constants(condition))
        new_scope = Scope(list(scope.entries))
        for f in subplan.fields:
            new_scope.add(None, f.name, f.dtype)
        return plan, new_scope, hidden_name

    # -- EXISTS lifting ----------------------------------------------------
    def _lift_exists(
        self, plan: PlanNode, scope: Scope, select: ast.Select
    ) -> tuple[PlanNode, Scope, ast.Select]:
        def contains(expr: ast.Expr | None) -> bool:
            if expr is None:
                return False
            return any(isinstance(n, ast.Exists) for n in expr.walk())

        misplaced = (
            any(contains(item.expr) for item in select.items)
            or contains(select.having)
            or any(contains(g) for g in select.group_by)
            or any(contains(o.expr) for o in select.order_by)
        )
        if misplaced:
            raise BindError(
                "EXISTS is only supported in the WHERE clause"
            )
        if select.where is None or not contains(select.where):
            return plan, scope, select

        remaining: list[ast.Expr] = []
        for conjunct in _ast_conjuncts(select.where):
            if isinstance(conjunct, ast.Exists):
                plan = self._append_exists(plan, scope, conjunct)
                continue
            if contains(conjunct):
                raise BindError(
                    "EXISTS must be a top-level AND-conjunct of the "
                    "WHERE clause"
                )
            remaining.append(conjunct)

        new_where: ast.Expr | None = None
        for conjunct in remaining:
            new_where = (
                conjunct
                if new_where is None
                else ast.BinaryOp("AND", new_where, conjunct)
            )
        rewritten = ast.Select(
            items=select.items,
            from_clause=select.from_clause,
            where=new_where,
            group_by=select.group_by,
            having=select.having,
            order_by=select.order_by,
            limit=select.limit,
            offset=select.offset,
            distinct=select.distinct,
            ctes=select.ctes,
        )
        return plan, scope, rewritten

    def _append_exists(
        self, plan: PlanNode, scope: Scope, exists: ast.Exists
    ) -> PlanNode:
        sub = exists.query
        if not isinstance(sub, ast.Select):
            raise BindError("EXISTS subquery must be a plain SELECT")
        if (
            sub.group_by
            or sub.having is not None
            or sub.order_by
            or sub.limit is not None
            or sub.offset is not None
            or sub.distinct
            or sub.ctes
        ):
            raise BindError(
                "EXISTS subquery must be a plain SELECT without "
                "GROUP BY/HAVING/ORDER BY/LIMIT/DISTINCT"
            )
        if any(
            self._contains_aggregate(item.expr)
            for item in sub.items
            if not isinstance(item.expr, ast.Star)
        ):
            raise BindError(
                "aggregates are not supported in an EXISTS subquery"
            )
        sub_plan, sub_scope = self._bind_from(sub.from_clause)

        # Split the subquery's WHERE into conjuncts the subquery can evaluate
        # alone (filter below the join) and correlated conjuncts referencing
        # the outer scope (the SEMI/ANTI join condition; positions are outer
        # columns then inner, exactly the JoinNode condition space).
        local: list[BoundExpr] = []
        correlated: list[BoundExpr] = []
        combined = scope.extend(sub_scope)
        conjuncts = _ast_conjuncts(sub.where) if sub.where is not None else []
        for conjunct in conjuncts:
            try:
                local.append(self._bind_boolean(conjunct, sub_scope))
                continue
            except BindError:
                pass
            correlated.append(self._bind_boolean(conjunct, combined))

        if local:
            predicate = local[0]
            for extra in local[1:]:
                predicate = BoundBinary(
                    "AND", predicate, extra, DataType.BOOLEAN
                )
            sub_plan = FilterNode(sub_plan, fold_constants(predicate))
        condition: BoundExpr | None = None
        for extra in correlated:
            condition = (
                extra
                if condition is None
                else BoundBinary("AND", condition, extra, DataType.BOOLEAN)
            )
        if condition is not None:
            condition = fold_constants(condition)
        join_type = "ANTI" if exists.negated else "SEMI"
        return JoinNode(plan, sub_plan, join_type, condition)

    # -- window function lifting -------------------------------------------
    def _lift_windows(
        self, plan: PlanNode, scope: Scope, select: ast.Select
    ) -> tuple[PlanNode, Scope, ast.Select]:
        collected: list[ast.WindowFunction] = []

        def collect(expr: ast.Expr | None) -> None:
            if expr is None:
                return
            for n in expr.walk():
                if isinstance(n, ast.WindowFunction):
                    collected.append(n)

        for item in select.items:
            collect(item.expr)
        for order in select.order_by:
            collect(order.expr)
        if not collected:
            return plan, scope, select

        replacement: dict[int, ast.Expr] = {}
        signature_to_name: dict[str, str] = {}
        for node in collected:
            key = str(node)
            if key not in signature_to_name:
                plan, scope, name = self._append_window(
                    plan, scope, node, len(signature_to_name)
                )
                signature_to_name[key] = name
            replacement[id(node)] = ast.ColumnRef(signature_to_name[key])
        rewritten = _replace_exprs(select, replacement)
        for old_item, new_item in zip(select.items, rewritten.items):
            if new_item.alias is None and isinstance(
                old_item.expr, ast.WindowFunction
            ):
                new_item.alias = old_item.expr.name.lower()
        return plan, scope, rewritten

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

    # -- plain (non-aggregate) SELECT ------------------------------------
    def _bind_plain_select(
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

    # -- aggregate SELECT -------------------------------------------------
    def _bind_aggregate_select(
        self, select: ast.Select, plan: PlanNode, scope: Scope
    ) -> PlanNode:
        group_exprs = [self._bind_expr(g, scope) for g in select.group_by]
        group_names = [_default_name(g) for g in select.group_by]
        group_keys = [str(g) for g in select.group_by]

        # Collect every aggregate call in items, HAVING and ORDER BY.
        agg_calls: dict[str, ast.FunctionCall] = {}

        def collect(expr: ast.Expr | None) -> None:
            if expr is None:
                return
            for node in expr.walk():
                if isinstance(node, ast.FunctionCall) and fn.is_aggregate(
                    node.name
                ):
                    agg_calls.setdefault(str(node), node)

        for item in select.items:
            collect(item.expr)
        collect(select.having)
        for order in select.order_by:
            collect(order.expr)

        specs: list[AggregateSpec] = []
        agg_position: dict[str, int] = {}
        for i, (key, call) in enumerate(agg_calls.items()):
            spec = self._bind_aggregate_call(call, scope, alias=f"__agg{i}")
            agg_position[key] = len(group_exprs) + i
            specs.append(spec)

        plan = AggregateNode(plan, group_exprs, group_names, specs)

        # Post-aggregation scope: group keys by AST text, then aggregates.
        post = _PostAggregateScope(
            group_keys=group_keys,
            group_fields=[(n, e.dtype) for n, e in zip(group_names, group_exprs)],
            agg_position=agg_position,
            agg_fields=[(s.alias, s.dtype) for s in specs],
        )

        if select.having is not None:
            predicate = self._bind_post_aggregate(select.having, post)
            if predicate.dtype is not DataType.BOOLEAN:
                raise BindError("HAVING predicate must be boolean")
            plan = FilterNode(plan, predicate)

        exprs: list[BoundExpr] = []
        names: list[str] = []
        for item in select.items:
            bound = self._bind_post_aggregate(item.expr, post)
            exprs.append(bound)
            names.append(item.alias or _default_name(item.expr))

        output_scope = Scope(
            [ScopeEntry(None, n, e.dtype) for n, e in zip(names, exprs)]
        )
        hidden: list[tuple[BoundExpr, bool]] = []
        sort_keys: list[tuple[int, bool]] = []
        for order in select.order_by:
            position = self._try_projection_position(
                order.expr, select.items, names, output_scope
            )
            if position is not None:
                sort_keys.append((position, order.ascending))
                continue
            bound = self._bind_post_aggregate(order.expr, post)
            hidden.append((bound, order.ascending))
            sort_keys.append((len(exprs) + len(hidden) - 1, order.ascending))

        all_exprs = exprs + [h[0] for h in hidden]
        all_names = names + [f"__sort{i}" for i in range(len(hidden))]
        plan = ProjectNode(plan, all_exprs, all_names)
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

    def _bind_post_aggregate(
        self, expr: ast.Expr, post: "_PostAggregateScope"
    ) -> BoundExpr:
        position = post.position_of(expr)
        if position is not None:
            name, dtype = post.field_at(position)
            return BoundColumn(position, dtype, name)
        if isinstance(expr, ast.Literal):
            if expr.value is None:
                return BoundLiteral(DataType.TEXT, None)
            return BoundLiteral(infer_type(expr.value), expr.value)
        if isinstance(expr, ast.Parameter):
            return self._bind_parameter(expr)
        if isinstance(expr, ast.UnaryOp):
            inner = self._bind_post_aggregate(expr.operand, post)
            return BoundUnary(expr.op, inner)
        if isinstance(expr, ast.BinaryOp):
            left = self._bind_post_aggregate(expr.left, post)
            right = self._bind_post_aggregate(expr.right, post)
            return self._make_binary(expr.op, left, right)
        if isinstance(expr, ast.FunctionCall) and not fn.is_aggregate(expr.name):
            args = [self._bind_post_aggregate(a, post) for a in expr.args]
            return self._make_function(expr.name, args)
        if isinstance(expr, ast.CaseWhen):
            branches = [
                (
                    self._bind_post_aggregate(c, post),
                    self._bind_post_aggregate(v, post),
                )
                for c, v in expr.branches
            ]
            default = (
                self._bind_post_aggregate(expr.default, post)
                if expr.default is not None
                else None
            )
            return self._make_case(branches, default)
        if isinstance(expr, ast.Cast):
            inner = self._bind_post_aggregate(expr.operand, post)
            return BoundCast(inner, _resolve_type_name(expr.type_name))
        if isinstance(expr, ast.ColumnRef):
            raise BindError(
                f"column {expr} must appear in GROUP BY or inside an aggregate"
            )
        raise BindError(
            f"expression {expr} is not valid after aggregation"
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _bind_boolean(self, expr: ast.Expr, scope: Scope) -> BoundExpr:
        bound = self._bind_expr(expr, scope)
        if bound.dtype is not DataType.BOOLEAN:
            raise BindError(f"expected a boolean predicate, got {bound.dtype}")
        return bound

    def _bind_expr(self, expr: ast.Expr, scope: Scope) -> BoundExpr:
        if isinstance(expr, ast.Literal):
            if expr.value is None:
                return BoundLiteral(DataType.TEXT, None)
            return BoundLiteral(infer_type(expr.value), expr.value)
        if isinstance(expr, ast.Parameter):
            return self._bind_parameter(expr)
        if isinstance(expr, ast.ColumnRef):
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


@dataclass
class _PostAggregateScope:
    """Columns visible after aggregation: group keys then aggregates."""

    group_keys: list[str]  # AST text of each GROUP BY expression
    group_fields: list[tuple[str, DataType]]
    agg_position: dict[str, int]  # AST text of aggregate call → position
    agg_fields: list[tuple[str, DataType]]

    def position_of(self, expr: ast.Expr) -> int | None:
        text = str(expr)
        for i, key in enumerate(self.group_keys):
            if key == text:
                return i
        return self.agg_position.get(text)

    def field_at(self, position: int) -> tuple[str, DataType]:
        if position < len(self.group_fields):
            return self.group_fields[position]
        return self.agg_fields[position - len(self.group_fields)]


def _ast_conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _ast_conjuncts(expr.left) + _ast_conjuncts(expr.right)
    return [expr]


def _scalar_subquery_name(node: ast.ScalarSubquery) -> str:
    # Mirror the Postgres convention: a bare scalar subquery in the select
    # list is named after its inner output expression.
    query = node.query
    if isinstance(query, ast.Select) and len(query.items) == 1:
        item = query.items[0]
        return item.alias or _default_name(item.expr)
    return "subquery"


def _default_name(expr: ast.Expr) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        return expr.name.lower()
    text = str(expr)
    return text if len(text) <= 40 else "expr"


def _resolve_type_name(type_name: str) -> DataType:
    try:
        return SQL_TYPE_ALIASES[type_name.upper()]
    except KeyError:
        raise BindError(f"unknown type {type_name!r} in CAST") from None


def _replace_exprs(
    select: ast.Select, replacement: dict[int, ast.Expr]
) -> ast.Select:
    """A copy of *select* with the nodes in *replacement* (keyed by ``id``)
    swapped for their replacement expressions (used to lift PREDICT, scalar
    subqueries, and window functions out of the expression trees)."""

    def rewrite(expr: ast.Expr | None) -> ast.Expr | None:
        if expr is None:
            return None
        if id(expr) in replacement:
            return replacement[id(expr)]
        if isinstance(expr, ast.UnaryOp):
            return ast.UnaryOp(expr.op, rewrite(expr.operand))
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
        if isinstance(expr, ast.IsNull):
            return ast.IsNull(rewrite(expr.operand), expr.negated)
        if isinstance(expr, ast.Between):
            return ast.Between(
                rewrite(expr.operand),
                rewrite(expr.low),
                rewrite(expr.high),
                expr.negated,
            )
        if isinstance(expr, ast.InList):
            return ast.InList(
                rewrite(expr.operand),
                [rewrite(i) for i in expr.items],
                expr.negated,
            )
        if isinstance(expr, ast.Like):
            return ast.Like(
                rewrite(expr.operand), rewrite(expr.pattern), expr.negated
            )
        if isinstance(expr, ast.CaseWhen):
            return ast.CaseWhen(
                [(rewrite(c), rewrite(v)) for c, v in expr.branches],
                rewrite(expr.default),
            )
        if isinstance(expr, ast.Cast):
            return ast.Cast(rewrite(expr.operand), expr.type_name)
        if isinstance(expr, ast.FunctionCall):
            return ast.FunctionCall(
                expr.name, [rewrite(a) for a in expr.args], expr.distinct
            )
        if isinstance(expr, ast.InQuery):
            return ast.InQuery(
                rewrite(expr.operand), expr.query, expr.negated
            )
        return expr

    return ast.Select(
        items=[
            ast.SelectItem(rewrite(item.expr), item.alias)
            for item in select.items
        ],
        from_clause=select.from_clause,
        where=rewrite(select.where),
        group_by=[rewrite(g) for g in select.group_by],
        having=rewrite(select.having),
        order_by=[
            ast.OrderItem(rewrite(o.expr), o.ascending) for o in select.order_by
        ],
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
        ctes=select.ctes,
    )


# ----------------------------------------------------------------------
# INSERT rows
# ----------------------------------------------------------------------
def bind_insert_values(
    context: BinderContext,
    statement: ast.Insert,
    param_rows: Sequence[Sequence[Any] | None],
) -> list[list[Any]]:
    """The rows an ``INSERT ... VALUES`` writes, for every parameter row.

    The one binder for VALUES rows: ``execute`` passes one parameter row,
    ``executemany`` N, and the shard router binds here on its coordinator
    before routing. Each template row is bound once. A slot without
    placeholders is folded to a constant; a bare ``?`` takes its parameter
    through :meth:`Binder._parameter_value`; any other slot (``? + 1``) is
    re-bound per parameter row. Rows come back full width — NULL where
    the column list leaves a column out — and coerced to the schema.
    """
    schema = context.resolve_table(statement.table)
    positions = _column_positions(statement, schema)
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
            dtype = schema.columns[position].dtype
            if isinstance(expr, ast.Parameter):
                slots.append((position, dtype, expr.index, None))
            elif any(isinstance(node, ast.Parameter) for node in expr.walk()):
                slots.append((position, dtype, None, expr))
            else:
                constant[position] = coerce_value(
                    _fold_insert_expr(binder, expr), dtype
                )
        templates.append((constant, slots))
    rows = []
    for params in param_rows:
        binder.parameters = params
        for constant, slots in templates:
            full = constant.copy()
            for position, dtype, index, expr in slots:
                value = (
                    binder._parameter_value(index)
                    if expr is None
                    else _fold_insert_expr(binder, expr)
                )
                full[position] = coerce_value(value, dtype)
            rows.append(full)
    return rows


def insert_select_rows(
    context: BinderContext, statement: ast.Insert, source: Batch
) -> list[list[Any]]:
    """The full-width, coerced rows ``INSERT ... SELECT`` writes."""
    schema = context.resolve_table(statement.table)
    positions = _column_positions(statement, schema)
    if source.num_columns != len(positions):
        raise BindError(
            f"INSERT column count {len(positions)} does not match "
            f"SELECT column count {source.num_columns}"
        )
    dtypes = [schema.columns[p].dtype for p in positions]
    rows = []
    for values in source.rows():
        full = [None] * len(schema)
        for position, dtype, value in zip(positions, dtypes, values):
            full[position] = coerce_value(value, dtype)
        rows.append(full)
    return rows


def _column_positions(statement: ast.Insert, schema: TableSchema) -> list[int]:
    if statement.columns:
        return [schema.index_of(c) for c in statement.columns]
    return list(range(len(schema)))


def _fold_insert_expr(binder: Binder, expr: ast.Expr) -> Any:
    bound = fold_constants(binder._bind_expr(expr, Scope()))
    if not isinstance(bound, BoundLiteral):
        raise BindError("INSERT VALUES must be constant expressions")
    return bound.value
