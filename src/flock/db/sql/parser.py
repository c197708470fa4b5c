"""Recursive-descent SQL parser.

Grammar subset: SELECT (joins, GROUP BY/HAVING, ORDER BY, LIMIT/OFFSET,
DISTINCT, subqueries in FROM), INSERT (VALUES and INSERT..SELECT), UPDATE,
DELETE, CREATE/DROP TABLE, transaction control, and the security statements
(CREATE USER/ROLE, GRANT, REVOKE). Expressions support the usual operators
plus CASE, CAST, LIKE, IN, BETWEEN, IS NULL, EXTRACT, DATE/INTERVAL literals
and the paper's ``PREDICT(model, args...)`` inference expression.
"""

from __future__ import annotations

from flock.db.sql import ast_nodes as ast
from flock.db.sql.lexer import Token, TokenType, tokenize
from flock.errors import ParseError

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_ADDITIVE_OPS = {"+", "-", "||"}
_MULTIPLICATIVE_OPS = {"*", "/", "%"}
_PRIVILEGES = {"SELECT", "INSERT", "UPDATE", "DELETE", "ALL", "PREDICT"}

# Keywords that can never start an expression. Most keywords double as
# identifiers (a column named "date" is fine), but these mark clause
# boundaries: treating them as column names turns "SELECT FROM t" into
# a nonsense statement that only fails much later, in the binder.
RESERVED_IN_EXPR = {
    "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET",
    "AND", "OR", "AS", "BY", "ON", "JOIN", "INNER", "OUTER", "CROSS",
    "UNION", "EXCEPT", "INTERSECT", "THEN", "ELSE", "END", "INTO",
    "VALUES", "SELECT",
}


class Parser:
    """Parses a token stream into statement AST nodes."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        # Number of '?' placeholders seen; each becomes ast.Parameter(index).
        self.parameter_count = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _check(self, token_type: TokenType, value: str | None = None) -> bool:
        return self.current.matches(token_type, value)

    def _check_keyword(self, *keywords: str) -> bool:
        return self.current.type is TokenType.KEYWORD and self.current.value in keywords

    def _accept(self, token_type: TokenType, value: str | None = None) -> bool:
        if self._check(token_type, value):
            self._advance()
            return True
        return False

    def _expect(self, token_type: TokenType, value: str | None = None) -> Token:
        if self._check(token_type, value):
            return self._advance()
        want = value or token_type.value
        raise ParseError(
            f"expected {want!r}, found {self.current.value!r} "
            f"at position {self.current.position}",
            self.current,
        )

    def _expect_identifier(self) -> str:
        # Unreserved keywords may appear where identifiers are expected
        # (e.g. a column named "date" parses as the DATE keyword).
        if self.current.type in (TokenType.IDENT, TokenType.KEYWORD):
            return self._advance().value
        raise ParseError(
            f"expected identifier, found {self.current.value!r} "
            f"at position {self.current.position}",
            self.current,
        )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def parse(self) -> ast.Statement:
        """Parse exactly one statement (trailing ';' allowed)."""
        stmt = self._statement()
        self._accept(TokenType.PUNCT, ";")
        if self.current.type is not TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input {self.current.value!r} "
                f"at position {self.current.position}",
                self.current,
            )
        return stmt

    def parse_script(self) -> list[ast.Statement]:
        """Parse a ';'-separated sequence of statements."""
        statements: list[ast.Statement] = []
        while self.current.type is not TokenType.EOF:
            statements.append(self._statement())
            while self._accept(TokenType.PUNCT, ";"):
                pass
        return statements

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _statement(self) -> ast.Statement:
        if self._check_keyword("SELECT", "WITH"):
            return self._query_expression()
        if self._accept(TokenType.KEYWORD, "EXPLAIN"):
            analyze = bool(self._accept(TokenType.KEYWORD, "ANALYZE"))
            return ast.Explain(self._query_expression(), analyze=analyze)
        if self._check_keyword("INSERT"):
            return self._insert()
        if self._check_keyword("UPDATE"):
            return self._update()
        if self._check_keyword("DELETE"):
            return self._delete()
        if self._check_keyword("CREATE"):
            return self._create()
        if self._check_keyword("DROP"):
            return self._drop()
        if self._check_keyword("BEGIN"):
            self._advance()
            self._accept(TokenType.KEYWORD, "TRANSACTION")
            return ast.Begin()
        if self._check_keyword("COMMIT"):
            self._advance()
            return ast.Commit()
        if self._check_keyword("ROLLBACK"):
            self._advance()
            return ast.Rollback()
        if self._check_keyword("GRANT"):
            return self._grant_or_revoke(is_grant=True)
        if self._check_keyword("REVOKE"):
            return self._grant_or_revoke(is_grant=False)
        if self._check_keyword("SET"):
            return self._set_option()
        raise ParseError(
            f"unexpected statement start {self.current.value!r} "
            f"at position {self.current.position}",
            self.current,
        )

    def _query_expression(self) -> ast.Statement:
        """A [WITH ...] SELECT possibly chained with UNION/EXCEPT/INTERSECT."""
        ctes: list[ast.CTE] = []
        if self._accept(TokenType.KEYWORD, "WITH"):
            ctes.append(self._cte())
            while self._accept(TokenType.PUNCT, ","):
                ctes.append(self._cte())
        left: ast.Statement = self._select()
        if not self._check_keyword("UNION", "EXCEPT", "INTERSECT"):
            left.ctes = ctes
            return left
        while self._check_keyword("UNION", "EXCEPT", "INTERSECT"):
            if isinstance(left, ast.Select) and (
                left.order_by or left.limit is not None
            ):
                raise ParseError(
                    "ORDER BY/LIMIT must follow the whole set operation",
                    self.current,
                )
            op = self._advance().value
            is_all = bool(self._accept(TokenType.KEYWORD, "ALL"))
            right = self._select()
            left = ast.SetOperation(op, is_all, left, right)
        # Trailing ORDER BY / LIMIT / OFFSET of the final branch belong to
        # the whole expression.
        assert isinstance(left, ast.SetOperation)
        final = left.right
        if isinstance(final, ast.Select):
            left.order_by = final.order_by
            left.limit = final.limit
            left.offset = final.offset
            final.order_by = []
            final.limit = None
            final.offset = None
        left.ctes = ctes
        return left

    def _cte(self) -> ast.CTE:
        name = self._expect_identifier()
        self._expect(TokenType.KEYWORD, "AS")
        self._expect(TokenType.PUNCT, "(")
        query = self._query_expression()
        self._expect(TokenType.PUNCT, ")")
        return ast.CTE(name, query)

    def _select(self) -> ast.Select:
        self._expect(TokenType.KEYWORD, "SELECT")
        distinct = False
        if self._accept(TokenType.KEYWORD, "DISTINCT"):
            distinct = True
        else:
            self._accept(TokenType.KEYWORD, "ALL")

        items = [self._select_item()]
        while self._accept(TokenType.PUNCT, ","):
            items.append(self._select_item())

        from_clause = None
        if self._accept(TokenType.KEYWORD, "FROM"):
            from_clause = self._table_expr()

        where = self._expr() if self._accept(TokenType.KEYWORD, "WHERE") else None

        group_by: list[ast.Expr] = []
        if self._accept(TokenType.KEYWORD, "GROUP"):
            self._expect(TokenType.KEYWORD, "BY")
            group_by.append(self._expr())
            while self._accept(TokenType.PUNCT, ","):
                group_by.append(self._expr())

        having = self._expr() if self._accept(TokenType.KEYWORD, "HAVING") else None

        order_by: list[ast.OrderItem] = []
        if self._accept(TokenType.KEYWORD, "ORDER"):
            self._expect(TokenType.KEYWORD, "BY")
            order_by.append(self._order_item())
            while self._accept(TokenType.PUNCT, ","):
                order_by.append(self._order_item())

        limit = offset = None
        if self._accept(TokenType.KEYWORD, "LIMIT"):
            limit = int(self._expect(TokenType.NUMBER).value)
        if self._accept(TokenType.KEYWORD, "OFFSET"):
            offset = int(self._expect(TokenType.NUMBER).value)

        return ast.Select(
            items=items,
            from_clause=from_clause,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _select_item(self) -> ast.SelectItem:
        expr = self._expr()
        alias = None
        if self._accept(TokenType.KEYWORD, "AS"):
            alias = self._expect_identifier()
        elif self.current.type is TokenType.IDENT:
            alias = self._advance().value
        return ast.SelectItem(expr, alias)

    def _order_item(self) -> ast.OrderItem:
        expr = self._expr()
        ascending = True
        if self._accept(TokenType.KEYWORD, "DESC"):
            ascending = False
        else:
            self._accept(TokenType.KEYWORD, "ASC")
        return ast.OrderItem(expr, ascending)

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _table_expr(self) -> ast.TableExpr:
        left = self._table_primary()
        while True:
            if self._accept(TokenType.PUNCT, ","):
                right = self._table_primary()
                left = ast.Join("CROSS", left, right)
                continue
            join_type = self._join_type()
            if join_type is None:
                return left
            right = self._table_primary()
            condition = None
            if join_type != "CROSS":
                self._expect(TokenType.KEYWORD, "ON")
                condition = self._expr()
            left = ast.Join(join_type, left, right, condition)

    def _join_type(self) -> str | None:
        if self._accept(TokenType.KEYWORD, "CROSS"):
            self._expect(TokenType.KEYWORD, "JOIN")
            return "CROSS"
        if self._accept(TokenType.KEYWORD, "INNER"):
            self._expect(TokenType.KEYWORD, "JOIN")
            return "INNER"
        if self._accept(TokenType.KEYWORD, "LEFT"):
            self._accept(TokenType.KEYWORD, "OUTER")
            self._expect(TokenType.KEYWORD, "JOIN")
            return "LEFT"
        if self._accept(TokenType.KEYWORD, "JOIN"):
            return "INNER"
        return None

    def _table_primary(self) -> ast.TableExpr:
        if self._accept(TokenType.PUNCT, "("):
            query = self._query_expression()
            self._expect(TokenType.PUNCT, ")")
            self._accept(TokenType.KEYWORD, "AS")
            alias = self._expect_identifier()
            return ast.SubqueryRef(query, alias)
        name = self._expect_identifier()
        alias = None
        if self._accept(TokenType.KEYWORD, "AS"):
            alias = self._expect_identifier()
        elif self.current.type is TokenType.IDENT:
            alias = self._advance().value
        return ast.TableRef(name, alias)

    # ------------------------------------------------------------------
    # DML / DDL
    # ------------------------------------------------------------------
    def _insert(self) -> ast.Insert:
        self._expect(TokenType.KEYWORD, "INSERT")
        self._expect(TokenType.KEYWORD, "INTO")
        table = self._expect_identifier()
        columns: list[str] = []
        if self._accept(TokenType.PUNCT, "("):
            columns.append(self._expect_identifier())
            while self._accept(TokenType.PUNCT, ","):
                columns.append(self._expect_identifier())
            self._expect(TokenType.PUNCT, ")")
        if self._check_keyword("SELECT", "WITH"):
            return ast.Insert(table, columns, select=self._query_expression())
        self._expect(TokenType.KEYWORD, "VALUES")
        rows = [self._value_row()]
        while self._accept(TokenType.PUNCT, ","):
            rows.append(self._value_row())
        return ast.Insert(table, columns, rows=rows)

    def _value_row(self) -> list[ast.Expr]:
        self._expect(TokenType.PUNCT, "(")
        row = [self._expr()]
        while self._accept(TokenType.PUNCT, ","):
            row.append(self._expr())
        self._expect(TokenType.PUNCT, ")")
        return row

    def _update(self) -> ast.Update:
        self._expect(TokenType.KEYWORD, "UPDATE")
        table = self._expect_identifier()
        self._expect(TokenType.KEYWORD, "SET")
        assignments = [self._assignment()]
        while self._accept(TokenType.PUNCT, ","):
            assignments.append(self._assignment())
        where = self._expr() if self._accept(TokenType.KEYWORD, "WHERE") else None
        return ast.Update(table, assignments, where)

    def _assignment(self) -> tuple[str, ast.Expr]:
        column = self._expect_identifier()
        self._expect(TokenType.OPERATOR, "=")
        return column, self._expr()

    def _set_option(self) -> ast.SetOption:
        """``SET flock.indexes = 0`` — engine settings, integers only.

        A bare ``SET`` can only open this statement: ``UPDATE ... SET``
        consumes its SET inside :meth:`_update`.
        """
        self._expect(TokenType.KEYWORD, "SET")
        parts = [self._expect_identifier()]
        while self._accept(TokenType.PUNCT, "."):
            parts.append(self._expect_identifier())
        self._expect(TokenType.OPERATOR, "=")
        negative = bool(self._accept(TokenType.OPERATOR, "-"))
        token = self._expect(TokenType.NUMBER)
        try:
            value = int(token.value)
        except ValueError:
            raise ParseError(
                f"SET expects an integer value, found {token.value!r}",
                token,
            ) from None
        return ast.SetOption(".".join(parts), -value if negative else value)

    def _delete(self) -> ast.Delete:
        self._expect(TokenType.KEYWORD, "DELETE")
        self._expect(TokenType.KEYWORD, "FROM")
        table = self._expect_identifier()
        where = self._expr() if self._accept(TokenType.KEYWORD, "WHERE") else None
        return ast.Delete(table, where)

    def _create(self) -> ast.Statement:
        self._expect(TokenType.KEYWORD, "CREATE")
        if self._accept(TokenType.KEYWORD, "USER"):
            return ast.CreateUser(self._expect_identifier())
        if self._accept(TokenType.KEYWORD, "ROLE"):
            return ast.CreateRole(self._expect_identifier())
        if self._accept(TokenType.KEYWORD, "VIEW"):
            name = self._expect_identifier()
            self._expect(TokenType.KEYWORD, "AS")
            return ast.CreateView(name, self._query_expression())
        if self._accept(TokenType.KEYWORD, "INDEX"):
            name = self._expect_identifier()
            self._expect(TokenType.KEYWORD, "ON")
            table = self._expect_identifier()
            self._expect(TokenType.PUNCT, "(")
            column = self._expect_identifier()
            self._expect(TokenType.PUNCT, ")")
            return ast.CreateIndex(name, table, column)
        self._expect(TokenType.KEYWORD, "TABLE")
        if_not_exists = False
        if self._accept(TokenType.KEYWORD, "IF"):
            self._expect(TokenType.KEYWORD, "NOT")
            self._expect(TokenType.KEYWORD, "EXISTS")
            if_not_exists = True
        name = self._expect_identifier()
        self._expect(TokenType.PUNCT, "(")
        columns = [self._column_def()]
        while self._accept(TokenType.PUNCT, ","):
            columns.append(self._column_def())
        self._expect(TokenType.PUNCT, ")")
        return ast.CreateTable(name, columns, if_not_exists)

    def _column_def(self) -> ast.ColumnDef:
        name = self._expect_identifier()
        type_name = self._expect_identifier().upper()
        # Swallow parenthesized type parameters, e.g. VARCHAR(25), DECIMAL(15,2)
        if self._accept(TokenType.PUNCT, "("):
            self._expect(TokenType.NUMBER)
            if self._accept(TokenType.PUNCT, ","):
                self._expect(TokenType.NUMBER)
            self._expect(TokenType.PUNCT, ")")
        nullable = True
        primary_key = False
        hidden = False
        while True:
            if self._accept(TokenType.KEYWORD, "NOT"):
                self._expect(TokenType.KEYWORD, "NULL")
                nullable = False
            elif self._accept(TokenType.KEYWORD, "PRIMARY"):
                self._expect(TokenType.KEYWORD, "KEY")
                primary_key = True
                nullable = False
            elif self._accept(TokenType.KEYWORD, "NULL"):
                nullable = True
            elif self._accept(TokenType.IDENT, "HIDDEN"):
                # Internal storage columns (e.g. the shard tier's global
                # sequence); invisible to SELECT, must come last.
                hidden = True
            else:
                break
        return ast.ColumnDef(name, type_name, nullable, primary_key, hidden)

    def _drop(self) -> ast.Statement:
        self._expect(TokenType.KEYWORD, "DROP")
        is_view = False
        if self._accept(TokenType.KEYWORD, "INDEX"):
            if_exists = False
            if self._accept(TokenType.KEYWORD, "IF"):
                self._expect(TokenType.KEYWORD, "EXISTS")
                if_exists = True
            return ast.DropIndex(self._expect_identifier(), if_exists)
        if self._accept(TokenType.KEYWORD, "VIEW"):
            is_view = True
        else:
            self._expect(TokenType.KEYWORD, "TABLE")
        if_exists = False
        if self._accept(TokenType.KEYWORD, "IF"):
            self._expect(TokenType.KEYWORD, "EXISTS")
            if_exists = True
        name = self._expect_identifier()
        if is_view:
            return ast.DropView(name, if_exists)
        return ast.DropTable(name, if_exists)

    def _grant_or_revoke(self, is_grant: bool) -> ast.Statement:
        self._advance()  # GRANT or REVOKE
        privilege = self._expect_identifier().upper()
        object_name = None
        if self._accept(TokenType.KEYWORD, "ON"):
            object_name = self._expect_identifier()
        if is_grant:
            self._expect(TokenType.KEYWORD, "TO")
            principal = self._expect_identifier()
            return ast.Grant(privilege, object_name, principal)
        self._expect(TokenType.KEYWORD, "FROM")
        principal = self._expect_identifier()
        return ast.Revoke(privilege, object_name, principal)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._accept(TokenType.KEYWORD, "OR"):
            left = ast.BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._accept(TokenType.KEYWORD, "AND"):
            left = ast.BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        if self._accept(TokenType.KEYWORD, "NOT"):
            inner = self._not_expr()
            if isinstance(inner, ast.Exists):
                return ast.Exists(inner.query, not inner.negated)
            return ast.UnaryOp("NOT", inner)
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        while True:
            if (
                self.current.type is TokenType.OPERATOR
                and self.current.value in _COMPARISON_OPS
            ):
                op = self._advance().value
                if op == "!=":
                    op = "<>"
                left = ast.BinaryOp(op, left, self._additive())
                continue
            negated = False
            if self._check_keyword("NOT"):
                nxt = self.tokens[self.pos + 1]
                if nxt.type is TokenType.KEYWORD and nxt.value in (
                    "IN",
                    "LIKE",
                    "BETWEEN",
                ):
                    self._advance()
                    negated = True
                else:
                    return left
            if self._accept(TokenType.KEYWORD, "IS"):
                neg = self._accept(TokenType.KEYWORD, "NOT")
                self._expect(TokenType.KEYWORD, "NULL")
                left = ast.IsNull(left, negated=neg)
                continue
            if self._accept(TokenType.KEYWORD, "IN"):
                self._expect(TokenType.PUNCT, "(")
                if self._check_keyword("SELECT", "WITH"):
                    subquery = self._query_expression()
                    self._expect(TokenType.PUNCT, ")")
                    left = ast.InQuery(left, subquery, negated)
                    continue
                items = [self._expr()]
                while self._accept(TokenType.PUNCT, ","):
                    items.append(self._expr())
                self._expect(TokenType.PUNCT, ")")
                left = ast.InList(left, items, negated)
                continue
            if self._accept(TokenType.KEYWORD, "LIKE"):
                left = ast.Like(left, self._additive(), negated)
                continue
            if self._accept(TokenType.KEYWORD, "BETWEEN"):
                low = self._additive()
                self._expect(TokenType.KEYWORD, "AND")
                high = self._additive()
                left = ast.Between(left, low, high, negated)
                continue
            return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while (
            self.current.type is TokenType.OPERATOR
            and self.current.value in _ADDITIVE_OPS
        ):
            op = self._advance().value
            left = ast.BinaryOp(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while (
            self.current.type is TokenType.OPERATOR
            and self.current.value in _MULTIPLICATIVE_OPS
        ):
            op = self._advance().value
            left = ast.BinaryOp(op, left, self._unary())
        return left

    def _unary(self) -> ast.Expr:
        if self._check(TokenType.OPERATOR, "-"):
            self._advance()
            return ast.UnaryOp("-", self._unary())
        if self._check(TokenType.OPERATOR, "+"):
            self._advance()
            return self._unary()
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self.current
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if self._accept(TokenType.KEYWORD, "NULL"):
            return ast.Literal(None)
        if self._accept(TokenType.KEYWORD, "TRUE"):
            return ast.Literal(True)
        if self._accept(TokenType.KEYWORD, "FALSE"):
            return ast.Literal(False)
        if self._accept(TokenType.KEYWORD, "CASE"):
            return self._case()
        if self._accept(TokenType.KEYWORD, "CAST"):
            self._expect(TokenType.PUNCT, "(")
            operand = self._expr()
            self._expect(TokenType.KEYWORD, "AS")
            type_name = self._expect_identifier().upper()
            self._expect(TokenType.PUNCT, ")")
            return ast.Cast(operand, type_name)
        if self._accept(TokenType.KEYWORD, "EXTRACT"):
            self._expect(TokenType.PUNCT, "(")
            unit = self._expect_identifier().upper()
            self._expect(TokenType.KEYWORD, "FROM")
            operand = self._expr()
            self._expect(TokenType.PUNCT, ")")
            return ast.FunctionCall("EXTRACT", [ast.Literal(unit), operand])
        if self._check_keyword("DATE") and self.tokens[self.pos + 1].type is (
            TokenType.STRING
        ):
            self._advance()
            literal = self._advance()
            return ast.FunctionCall("DATE", [ast.Literal(literal.value)])
        if self._accept(TokenType.KEYWORD, "INTERVAL"):
            amount = self._expect(TokenType.STRING).value
            unit = self._expect_identifier().upper()
            return ast.FunctionCall(
                "INTERVAL", [ast.Literal(amount), ast.Literal(unit)]
            )
        if self._accept(TokenType.KEYWORD, "PREDICT"):
            return self._predict()
        if self._accept(TokenType.KEYWORD, "EXISTS"):
            self._expect(TokenType.PUNCT, "(")
            query = self._query_expression()
            self._expect(TokenType.PUNCT, ")")
            return ast.Exists(query)
        if self._accept(TokenType.PUNCT, "?"):
            param = ast.Parameter(self.parameter_count)
            self.parameter_count += 1
            return param
        if self._check(TokenType.OPERATOR, "*"):
            self._advance()
            return ast.Star()
        if self._accept(TokenType.PUNCT, "("):
            if self._check_keyword("SELECT", "WITH"):
                query = self._query_expression()
                self._expect(TokenType.PUNCT, ")")
                return ast.ScalarSubquery(query)
            inner = self._expr()
            self._expect(TokenType.PUNCT, ")")
            return inner
        if token.type is TokenType.KEYWORD and token.value in RESERVED_IN_EXPR:
            raise ParseError(
                f"unexpected keyword {token.value!r} at position "
                f"{token.position}",
                token,
            )
        if token.type in (TokenType.IDENT, TokenType.KEYWORD):
            return self._identifier_expr()
        raise ParseError(
            f"unexpected token {token.value!r} at position {token.position}", token
        )

    def _case(self) -> ast.Expr:
        branches: list[tuple[ast.Expr, ast.Expr]] = []
        while self._accept(TokenType.KEYWORD, "WHEN"):
            cond = self._expr()
            self._expect(TokenType.KEYWORD, "THEN")
            branches.append((cond, self._expr()))
        default = self._expr() if self._accept(TokenType.KEYWORD, "ELSE") else None
        self._expect(TokenType.KEYWORD, "END")
        return ast.CaseWhen(branches, default)

    def _predict(self) -> ast.Expr:
        self._expect(TokenType.PUNCT, "(")
        if self.current.type is TokenType.STRING:
            model_name = self._advance().value
        else:
            model_name = self._dotted_name()
        args: list[ast.Expr] = []
        while self._accept(TokenType.PUNCT, ","):
            args.append(self._expr())
        self._expect(TokenType.PUNCT, ")")
        output = None
        if self._accept(TokenType.KEYWORD, "WITH"):
            output = self._expect_identifier()
        return ast.Predict(model_name, args, output)

    def _dotted_name(self) -> str:
        parts = [self._expect_identifier()]
        while self._check(TokenType.PUNCT, ".") and self.tokens[
            self.pos + 1
        ].type in (TokenType.IDENT, TokenType.KEYWORD):
            self._advance()
            parts.append(self._expect_identifier())
        return ".".join(parts)

    def _identifier_expr(self) -> ast.Expr:
        name = self._expect_identifier()
        if self._accept(TokenType.PUNCT, "("):
            return self._function_call(name)
        if self._accept(TokenType.PUNCT, "."):
            if self._check(TokenType.OPERATOR, "*"):
                self._advance()
                return ast.Star(table=name)
            column = self._expect_identifier()
            return ast.ColumnRef(column, table=name)
        return ast.ColumnRef(name)

    def _function_call(self, name: str) -> ast.Expr:
        distinct = False
        args: list[ast.Expr] = []
        if not self._check(TokenType.PUNCT, ")"):
            if self._accept(TokenType.KEYWORD, "DISTINCT"):
                distinct = True
                if self._check(TokenType.OPERATOR, "*"):
                    raise ParseError(
                        f"DISTINCT * is not valid in {name.upper()}() "
                        f"at position {self.current.position}",
                        self.current,
                    )
            args.append(self._expr())
            while self._accept(TokenType.PUNCT, ","):
                args.append(self._expr())
        self._expect(TokenType.PUNCT, ")")
        if self._check_keyword("OVER"):
            if distinct:
                raise ParseError(
                    "DISTINCT is not supported in window functions "
                    f"at position {self.current.position}",
                    self.current,
                )
            self._advance()
            return self._over_clause(name, args)
        return ast.FunctionCall(name.upper(), args, distinct)

    def _over_clause(self, name: str, args: list[ast.Expr]) -> ast.Expr:
        self._expect(TokenType.PUNCT, "(")
        partition_by: list[ast.Expr] = []
        order_by: list[ast.OrderItem] = []
        if self._accept(TokenType.KEYWORD, "PARTITION"):
            self._expect(TokenType.KEYWORD, "BY")
            partition_by.append(self._expr())
            while self._accept(TokenType.PUNCT, ","):
                partition_by.append(self._expr())
        if self._accept(TokenType.KEYWORD, "ORDER"):
            self._expect(TokenType.KEYWORD, "BY")
            order_by.append(self._order_item())
            while self._accept(TokenType.PUNCT, ","):
                order_by.append(self._order_item())
        self._expect(TokenType.PUNCT, ")")
        return ast.WindowFunction(name.upper(), args, partition_by, order_by)


def split_statements(text: str) -> list[str]:
    """Split a script into statement strings on top-level semicolons.

    Uses the lexer, so semicolons inside string literals and comments are
    handled correctly. Each returned string parses as one statement.
    """
    tokens = tokenize(text)
    statements: list[str] = []
    start: int | None = None
    for i, token in enumerate(tokens):
        if token.type is TokenType.EOF:
            if start is not None:
                statements.append(text[start : token.position].strip())
            break
        if token.type is TokenType.PUNCT and token.value == ";":
            if start is not None:
                statements.append(text[start : token.position].strip())
                start = None
            continue
        if start is None:
            start = token.position
    return [s for s in statements if s]


def parse_statement(text: str) -> ast.Statement:
    """Parse a single SQL statement."""
    return Parser(text).parse()


def parse_script(text: str) -> list[ast.Statement]:
    """Parse a ';'-separated sequence of SQL statements."""
    return Parser(text).parse_script()
