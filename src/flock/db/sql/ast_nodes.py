"""SQL abstract syntax tree.

Plain dataclasses, produced by :mod:`flock.db.sql.parser` and consumed by the
binder (:mod:`flock.db.binder`), the shard router (:mod:`flock.shard.router`)
and the SQL provenance module (:mod:`flock.provenance.sql_capture`).
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Union


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class for expression AST nodes.

    A node's children are the expressions held in its dataclass fields, in
    field order (see :func:`_child_fields`). The ``query`` bodies of
    :class:`InQuery`, :class:`Exists` and :class:`ScalarSubquery` are
    statements, not children: each SELECT lifts its own subqueries.
    """

    #: Names of the fields that hold expressions, set per class below.
    _expr_fields: tuple[str, ...] = ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants, pre-order."""
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            yield node
            if node._expr_fields:
                stack.extend(reversed(node.children()))

    def children(self) -> list["Expr"]:
        out: list[Expr] = []
        for name in self._expr_fields:
            value = getattr(self, name)
            if isinstance(value, Expr):
                out.append(value)
            elif value is not None:
                _collect_exprs(value, out)
        return out

    def rewrite(self, fn: Callable[["Expr"], Optional["Expr"]]) -> "Expr":
        """This tree with the nodes *fn* maps to an expression replaced.

        Pre-order: where ``fn(node)`` returns an expression it takes the
        node's place and is not descended into; where it returns None the
        node's children are rewritten. Nothing is mutated, and a node with
        no replaced descendant is returned as is.
        """
        replaced = fn(self)
        if replaced is not None:
            return replaced
        return _rewrite_fields(self, self._expr_fields, fn)


def conjuncts(expr: Expr) -> list[Expr]:
    """The top-level AND-conjuncts of *expr*, left to right."""
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(exprs: list[Expr]) -> Optional[Expr]:
    """The left-deep AND of *exprs*, or None when there are none."""
    if not exprs:
        return None
    return functools.reduce(lambda a, b: BinaryOp("AND", a, b), exprs)


def _collect_exprs(value: Any, out: list[Expr]) -> None:
    if isinstance(value, Expr):
        out.append(value)
    elif isinstance(value, _ExprItem):
        out.append(value.expr)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect_exprs(item, out)


def _rewrite_value(value: Any, fn: Callable[[Expr], Optional[Expr]]) -> Any:
    """*value* — an expression, an item holding one, a list or tuple of
    those, or None — rewritten; *value* itself when nothing in it changed."""
    if isinstance(value, (list, tuple)):
        new = [_rewrite_value(item, fn) for item in value]
        if all(a is b for a, b in zip(new, value)):
            return value
        return type(value)(new)
    return value if value is None else value.rewrite(fn)


def _rewrite_fields(
    node: Any, names: tuple[str, ...], fn: Callable[[Expr], Optional[Expr]]
) -> Any:
    """*node* with the named fields rewritten; *node* itself when none
    changed, else a copy."""
    changes = {}
    for name in names:
        value = getattr(node, name)
        new = _rewrite_value(value, fn)
        if new is not value:
            changes[name] = new
    return dataclasses.replace(node, **changes) if changes else node


def _child_fields(cls: type) -> tuple[str, ...]:
    """The fields of *cls* that hold expressions, in declaration order —
    which is walk order, and so the order lifted columns are numbered in."""
    holds_exprs = {
        Expr,
        Optional[Expr],
        list[Expr],
        list[tuple[Expr, Expr]],
        list[OrderItem],
    }
    hints = typing.get_type_hints(cls)
    return tuple(
        f.name for f in dataclasses.fields(cls) if hints[f.name] in holds_exprs
    )


@dataclass
class Literal(Expr):
    value: Any  # int | float | str | bool | None

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        return str(self.value)


@dataclass
class Parameter(Expr):
    """``?`` placeholder bound positionally from ``execute(sql, params)``."""

    index: int  # zero-based position among the statement's placeholders

    def __str__(self) -> str:
        return "?"


@dataclass
class ColumnRef(Expr):
    name: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class Star(Expr):
    """``*`` or ``t.*`` in a select list or COUNT(*)."""

    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass
class UnaryOp(Expr):
    op: str  # '-', '+', 'NOT'
    operand: Expr

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass
class BinaryOp(Expr):
    op: str  # arithmetic, comparison, AND/OR, '||'
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass
class FunctionCall(Expr):
    name: str
    args: list[Expr] = field(default_factory=list)
    distinct: bool = False

    def __str__(self) -> str:
        # Special syntactic forms must render back to parseable SQL.
        if self.name == "EXTRACT" and len(self.args) == 2:
            return f"EXTRACT({self.args[0].value} FROM {self.args[1]})"
        if self.name == "DATE" and len(self.args) == 1 and isinstance(
            self.args[0], Literal
        ):
            return f"DATE {self.args[0]}"
        if self.name == "INTERVAL" and len(self.args) == 2:
            return f"INTERVAL '{self.args[0].value}' {self.args[1].value}"
        inner = ", ".join(str(a) for a in self.args)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name}({prefix}{inner})"


@dataclass
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def __str__(self) -> str:
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {op})"


@dataclass
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def __str__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"({self.operand} {neg}BETWEEN {self.low} AND {self.high})"


@dataclass
class InList(Expr):
    operand: Expr
    items: list[Expr] = field(default_factory=list)
    negated: bool = False

    def __str__(self) -> str:
        neg = "NOT " if self.negated else ""
        inner = ", ".join(str(i) for i in self.items)
        return f"({self.operand} {neg}IN ({inner}))"


@dataclass
class InQuery(Expr):
    """``x IN (SELECT ...)`` — uncorrelated subquery membership."""

    operand: Expr
    query: "Select"
    negated: bool = False

    def __str__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"({self.operand} {neg}IN ({self.query}))"


@dataclass
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)`` — possibly correlated to the outer query.

    The binder decorrelates it into a SEMI/ANTI join (the subquery is not
    walked as an expression child, mirroring :class:`InQuery`).
    """

    query: "Statement"
    negated: bool = False

    def __str__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"({neg}EXISTS ({self.query}))"


@dataclass
class ScalarSubquery(Expr):
    """``(SELECT ...)`` used as a scalar expression.

    Must produce one column and at most one row (the binder enforces an
    aggregate-without-GROUP-BY or LIMIT 1 shape, or equality-correlated
    aggregates which it decorrelates into a grouped LEFT join).
    """

    query: "Statement"

    def __str__(self) -> str:
        return f"({self.query})"


@dataclass
class WindowFunction(Expr):
    """``fn(args) OVER (PARTITION BY ... ORDER BY ...)``."""

    name: str
    args: list[Expr] = field(default_factory=list)
    partition_by: list[Expr] = field(default_factory=list)
    order_by: list[OrderItem] = field(default_factory=list)

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        over: list[str] = []
        if self.partition_by:
            over.append(
                "PARTITION BY " + ", ".join(str(p) for p in self.partition_by)
            )
        if self.order_by:
            over.append(
                "ORDER BY "
                + ", ".join(
                    f"{o.expr} {'ASC' if o.ascending else 'DESC'}"
                    for o in self.order_by
                )
            )
        return f"{self.name}({inner}) OVER ({' '.join(over)})"


@dataclass
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False

    def __str__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"({self.operand} {neg}LIKE {self.pattern})"


@dataclass
class CaseWhen(Expr):
    """``CASE WHEN c1 THEN v1 ... ELSE default END`` (searched form)."""

    branches: list[tuple[Expr, Expr]] = field(default_factory=list)
    default: Optional[Expr] = None

    def __str__(self) -> str:
        parts = ["CASE"]
        for cond, value in self.branches:
            parts.append(f"WHEN {cond} THEN {value}")
        if self.default is not None:
            parts.append(f"ELSE {self.default}")
        parts.append("END")
        return " ".join(parts)


@dataclass
class Cast(Expr):
    operand: Expr
    type_name: str

    def __str__(self) -> str:
        return f"CAST({self.operand} AS {self.type_name})"


@dataclass
class Predict(Expr):
    """``PREDICT(model_name, arg...)`` — ML inference as an expression (§4.1).

    The binder lifts this into a :class:`flock.db.plan.PredictNode` so the
    optimizer can move relational operators across the model boundary.
    """

    model_name: str
    args: list[Expr] = field(default_factory=list)
    output: Optional[str] = None  # which model output to project (default 1st)

    def __str__(self) -> str:
        parts = [self.model_name, *(str(a) for a in self.args)]
        out = f" WITH {self.output}" if self.output else ""
        return f"PREDICT({', '.join(parts)}{out})"


# ----------------------------------------------------------------------
# Table references
# ----------------------------------------------------------------------
class TableExpr:
    """Base class for FROM-clause items."""


@dataclass
class TableRef(TableExpr):
    name: str
    alias: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.name} AS {self.alias}" if self.alias else self.name


@dataclass
class SubqueryRef(TableExpr):
    query: "Select"
    alias: str

    def __str__(self) -> str:
        return f"(...) AS {self.alias}"


@dataclass
class Join(TableExpr):
    join_type: str  # 'INNER' | 'LEFT' | 'CROSS'
    left: TableExpr
    right: TableExpr
    condition: Optional[Expr] = None

    def __str__(self) -> str:
        cond = f" ON {self.condition}" if self.condition else ""
        return f"({self.left} {self.join_type} JOIN {self.right}{cond})"


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
class Statement:
    """Base class for statement AST nodes."""


@dataclass
class CTE:
    """One ``name AS (query)`` entry of a WITH clause."""

    name: str
    query: "Statement"

    def __str__(self) -> str:
        return f"{self.name} AS ({self.query})"


@dataclass
class _ExprItem:
    """An entry of a select list or ORDER BY: one expression plus options."""

    expr: Expr

    def rewrite(self, fn: Callable[[Expr], Optional[Expr]]) -> "_ExprItem":
        expr = self.expr.rewrite(fn)
        if expr is self.expr:
            return self
        return dataclasses.replace(self, expr=expr)


@dataclass
class SelectItem(_ExprItem):
    alias: Optional[str] = None


@dataclass
class OrderItem(_ExprItem):
    ascending: bool = True


#: The expression-holding clauses of a SELECT.
_CLAUSES = ("items", "where", "group_by", "having", "order_by")


@dataclass
class Select(Statement):
    items: list[SelectItem] = field(default_factory=list)
    from_clause: Optional[TableExpr] = None
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False
    ctes: list[CTE] = field(default_factory=list)

    def clauses(self) -> Iterator[tuple[str, Expr]]:
        """``(clause, expr)`` for each expression of this SELECT's own
        clauses: select list, WHERE, GROUP BY, HAVING, ORDER BY. FROM and
        subquery bodies are not included."""
        for item in self.items:
            yield "items", item.expr
        if self.where is not None:
            yield "where", self.where
        for expr in self.group_by:
            yield "group_by", expr
        if self.having is not None:
            yield "having", self.having
        for order in self.order_by:
            yield "order_by", order.expr

    def rewrite(self, fn: Callable[[Expr], Optional[Expr]]) -> "Select":
        """This SELECT with :meth:`Expr.rewrite` applied to every
        expression :meth:`clauses` yields; itself when none changed."""
        return _rewrite_fields(self, _CLAUSES, fn)

    def __str__(self) -> str:
        """Render back to parseable SQL (used to persist view definitions)."""
        parts = []
        if self.ctes:
            parts.append("WITH " + ", ".join(str(c) for c in self.ctes))
        parts.append("SELECT")
        if self.distinct:
            parts.append("DISTINCT")
        rendered_items = []
        for item in self.items:
            text = str(item.expr)
            if item.alias:
                text += f" AS {item.alias}"
            rendered_items.append(text)
        parts.append(", ".join(rendered_items))
        if self.from_clause is not None:
            parts.append(f"FROM {_table_expr_sql(self.from_clause)}")
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append(
                "GROUP BY " + ", ".join(str(g) for g in self.group_by)
            )
        if self.having is not None:
            parts.append(f"HAVING {self.having}")
        if self.order_by:
            parts.append(
                "ORDER BY "
                + ", ".join(
                    f"{o.expr} {'ASC' if o.ascending else 'DESC'}"
                    for o in self.order_by
                )
            )
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset is not None:
            parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)


def _table_expr_sql(item: "TableExpr") -> str:
    if isinstance(item, TableRef):
        return f"{item.name} AS {item.alias}" if item.alias else item.name
    if isinstance(item, SubqueryRef):
        return f"({item.query}) AS {item.alias}"
    if isinstance(item, Join):
        left = _table_expr_sql(item.left)
        right = _table_expr_sql(item.right)
        if item.join_type == "CROSS" and item.condition is None:
            return f"{left} CROSS JOIN {right}"
        keyword = "LEFT JOIN" if item.join_type == "LEFT" else "JOIN"
        condition = f" ON {item.condition}" if item.condition else ""
        return f"{left} {keyword} {right}{condition}"
    return "<table>"


@dataclass
class SetOperation(Statement):
    """``left UNION [ALL] | EXCEPT | INTERSECT right`` query expressions.

    ORDER BY / LIMIT / OFFSET apply to the combined result. ``left`` and
    ``right`` may themselves be SetOperations (left-associative chains).
    """

    op: str  # 'UNION' | 'EXCEPT' | 'INTERSECT'
    all: bool
    left: Statement = None  # type: ignore[assignment]  # Select | SetOperation
    right: Statement = None  # type: ignore[assignment]
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    ctes: list[CTE] = field(default_factory=list)

    def __str__(self) -> str:
        parts = []
        if self.ctes:
            parts.append("WITH " + ", ".join(str(c) for c in self.ctes))
        op = f"{self.op} ALL" if self.all else self.op
        parts.append(f"{self.left} {op} {self.right}")
        if self.order_by:
            parts.append(
                "ORDER BY "
                + ", ".join(
                    f"{o.expr} {'ASC' if o.ascending else 'DESC'}"
                    for o in self.order_by
                )
            )
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset is not None:
            parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)


@dataclass
class Explain(Statement):
    """``EXPLAIN [ANALYZE] <select>`` — returns the optimized plan as text
    rows; with ANALYZE the plan is also executed and each node is annotated
    with actual row counts and wall time."""

    query: Statement = None  # type: ignore[assignment]
    analyze: bool = False


@dataclass
class ColumnDef:
    name: str
    type_name: str
    nullable: bool = True
    primary_key: bool = False
    hidden: bool = False

    def __str__(self) -> str:
        pk = " PRIMARY KEY" if self.primary_key else ""
        nn = " NOT NULL" if not self.nullable and not self.primary_key else ""
        hid = " HIDDEN" if self.hidden else ""
        return f"{self.name} {self.type_name}{nn}{pk}{hid}"


@dataclass
class CreateTable(Statement):
    name: str
    columns: list[ColumnDef] = field(default_factory=list)
    if_not_exists: bool = False

    def __str__(self) -> str:
        ine = "IF NOT EXISTS " if self.if_not_exists else ""
        cols = ", ".join(str(c) for c in self.columns)
        return f"CREATE TABLE {ine}{self.name} ({cols})"


@dataclass
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass
class CreateView(Statement):
    """``CREATE VIEW name AS SELECT ...`` — views are both a reuse and an
    access-control mechanism (grants on the view, not its base tables)."""

    name: str
    query: "Select" = None  # type: ignore[assignment]


@dataclass
class DropView(Statement):
    name: str
    if_exists: bool = False


@dataclass
class CreateIndex(Statement):
    """``CREATE INDEX name ON table (column)`` — a secondary hash index."""

    name: str
    table: str
    column: str


@dataclass
class DropIndex(Statement):
    name: str
    if_exists: bool = False


@dataclass
class Insert(Statement):
    table: str
    columns: list[str] = field(default_factory=list)  # empty = all, in order
    rows: list[list[Expr]] = field(default_factory=list)
    select: Optional[Select] = None


@dataclass
class Update(Statement):
    table: str
    assignments: list[tuple[str, Expr]] = field(default_factory=list)
    where: Optional[Expr] = None

    def __str__(self) -> str:
        sets = ", ".join(f"{c} = {e}" for c, e in self.assignments)
        where = f" WHERE {self.where}" if self.where is not None else ""
        return f"UPDATE {self.table} SET {sets}{where}"


@dataclass
class Delete(Statement):
    table: str
    where: Optional[Expr] = None

    def __str__(self) -> str:
        where = f" WHERE {self.where}" if self.where is not None else ""
        return f"DELETE FROM {self.table}{where}"


@dataclass
class Begin(Statement):
    pass


@dataclass
class Commit(Statement):
    pass


@dataclass
class Rollback(Statement):
    pass


@dataclass
class CreateUser(Statement):
    name: str


@dataclass
class CreateRole(Statement):
    name: str


@dataclass
class Grant(Statement):
    """``GRANT priv ON object TO principal`` or ``GRANT role TO principal``."""

    privilege: str  # SELECT/INSERT/UPDATE/DELETE/ALL or a role name
    object_name: Optional[str]  # None for role grants
    principal: str


@dataclass
class Revoke(Statement):
    privilege: str
    object_name: Optional[str]
    principal: str


@dataclass
class SetOption(Statement):
    """``SET <dotted.name> = <int>`` — an engine-wide setting change.

    The settings are access-path selection (``flock.indexes``, 0/1),
    columnar encodings (``flock.encodings``, 0/1) and the operator memory
    budget (``flock.memory_budget``, bytes), so values are plain integers
    rather than general expressions; :mod:`flock.settings` checks them.
    """

    name: str
    value: int


SelectLike = Union[Select]

# Each expression class's traversed fields, computed once from its
# dataclass fields (they name classes defined above, so this runs last).
for _cls in Expr.__subclasses__():
    _cls._expr_fields = _child_fields(_cls)
