"""Unit tests for the SQL lexer and parser."""

import pytest

from flock.db.sql import ast_nodes as ast
from flock.db.sql.lexer import TokenType, tokenize
from flock.db.sql.parser import parse_script, parse_statement, split_statements
from flock.errors import LexerError, ParseError


class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("SELECT foo FROM Bar")
        kinds = [(t.type, t.value) for t in tokens[:-1]]
        assert kinds == [
            (TokenType.KEYWORD, "SELECT"),
            (TokenType.IDENT, "foo"),
            (TokenType.KEYWORD, "FROM"),
            (TokenType.IDENT, "Bar"),
        ]

    def test_string_escapes(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize("'abc")

    def test_numbers(self):
        values = [t.value for t in tokenize("1 2.5 .5 1e3 1.5E-2")[:-1]]
        assert values == ["1", "2.5", ".5", "1e3", "1.5E-2"]

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- hi\n 1 /* block */ + 2")
        values = [t.value for t in tokens[:-1]]
        assert values == ["SELECT", "1", "+", "2"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexerError):
            tokenize("/* never closed")

    def test_multichar_operators(self):
        values = [t.value for t in tokenize("a <= b <> c || d")[:-1]]
        assert values == ["a", "<=", "b", "<>", "c", "||", "d"]

    def test_quoted_identifier(self):
        tokens = tokenize('"My Column"')
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "My Column"

    def test_eof_always_last(self):
        assert tokenize("")[-1].type is TokenType.EOF


class TestParserSelect:
    def test_simple(self):
        stmt = parse_statement("SELECT a, b AS bee FROM t")
        assert isinstance(stmt, ast.Select)
        assert stmt.items[1].alias == "bee"
        assert isinstance(stmt.from_clause, ast.TableRef)

    def test_star(self):
        stmt = parse_statement("SELECT *, t.* FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)
        assert stmt.items[1].expr.table == "t"

    def test_where_precedence(self):
        stmt = parse_statement("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
        # AND binds tighter than OR.
        assert isinstance(stmt.where, ast.BinaryOp)
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_arithmetic_precedence(self):
        stmt = parse_statement("SELECT 1 + 2 * 3 FROM t")
        expr = stmt.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_group_having_order_limit(self):
        stmt = parse_statement(
            "SELECT dept, COUNT(*) FROM emp GROUP BY dept "
            "HAVING COUNT(*) > 1 ORDER BY dept DESC LIMIT 5 OFFSET 2"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False
        assert stmt.limit == 5
        assert stmt.offset == 2

    def test_joins(self):
        stmt = parse_statement(
            "SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y"
        )
        outer = stmt.from_clause
        assert isinstance(outer, ast.Join)
        assert outer.join_type == "LEFT"
        assert outer.left.join_type == "INNER"

    def test_comma_join_is_cross(self):
        stmt = parse_statement("SELECT * FROM a, b")
        assert stmt.from_clause.join_type == "CROSS"

    def test_subquery_in_from(self):
        stmt = parse_statement(
            "SELECT s.n FROM (SELECT COUNT(*) AS n FROM t) s"
        )
        assert isinstance(stmt.from_clause, ast.SubqueryRef)
        assert stmt.from_clause.alias == "s"

    def test_case_cast_between_in_like(self):
        stmt = parse_statement(
            "SELECT CASE WHEN a > 0 THEN 'p' ELSE 'n' END, "
            "CAST(a AS FLOAT) FROM t "
            "WHERE a BETWEEN 1 AND 5 AND b IN (1, 2) AND c LIKE 'x%' "
            "AND d IS NOT NULL"
        )
        assert isinstance(stmt.items[0].expr, ast.CaseWhen)
        assert isinstance(stmt.items[1].expr, ast.Cast)

    def test_not_variants(self):
        stmt = parse_statement(
            "SELECT a FROM t WHERE a NOT IN (1) AND b NOT LIKE 'x%' "
            "AND c NOT BETWEEN 1 AND 2"
        )
        conj = stmt.where
        assert conj.right.negated is True  # NOT BETWEEN

    def test_date_and_interval(self):
        stmt = parse_statement(
            "SELECT a FROM t WHERE d >= DATE '1994-01-01' + INTERVAL '3' MONTH"
        )
        text = str(stmt.where)
        assert "DATE" in text and "INTERVAL" in text

    def test_extract(self):
        stmt = parse_statement("SELECT EXTRACT(YEAR FROM d) FROM t")
        call = stmt.items[0].expr
        assert isinstance(call, ast.FunctionCall)
        assert call.name == "EXTRACT"
        assert call.args[0].value == "YEAR"

    def test_predict_expression(self):
        stmt = parse_statement(
            "SELECT PREDICT(my_model, a, b) FROM t WHERE PREDICT(my_model, a, b) > 0.5"
        )
        expr = stmt.items[0].expr
        assert isinstance(expr, ast.Predict)
        assert expr.model_name == "my_model"
        assert len(expr.args) == 2

    def test_predict_with_output(self):
        stmt = parse_statement("SELECT PREDICT(m) WITH label FROM t")
        assert stmt.items[0].expr.output == "label"

    def test_count_distinct(self):
        stmt = parse_statement("SELECT COUNT(DISTINCT a) FROM t")
        assert stmt.items[0].expr.distinct is True

    def test_keyword_as_identifier(self):
        # Unreserved positions accept keyword-looking identifiers.
        stmt = parse_statement("SELECT date FROM calendar")
        assert isinstance(stmt.items[0].expr, ast.ColumnRef)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT a FROM t extra garbage ,")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("")


class TestParserOther:
    def test_insert_values(self):
        stmt = parse_statement(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)"
        )
        assert isinstance(stmt, ast.Insert)
        assert stmt.columns == ["a", "b"]
        assert len(stmt.rows) == 2
        assert stmt.rows[1][1].value is None

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO t SELECT a FROM s")
        assert stmt.select is not None

    def test_update(self):
        stmt = parse_statement("UPDATE t SET a = a + 1, b = 'x' WHERE id = 3")
        assert isinstance(stmt, ast.Update)
        assert len(stmt.assignments) == 2

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a < 0")
        assert isinstance(stmt, ast.Delete)

    def test_create_table(self):
        stmt = parse_statement(
            "CREATE TABLE IF NOT EXISTS t ("
            "id INT PRIMARY KEY, name VARCHAR(25) NOT NULL, price DECIMAL(15,2))"
        )
        assert stmt.if_not_exists
        assert stmt.columns[0].primary_key
        assert stmt.columns[1].nullable is False
        assert stmt.columns[2].type_name == "DECIMAL"

    def test_drop_table(self):
        stmt = parse_statement("DROP TABLE IF EXISTS t")
        assert stmt.if_exists

    def test_transactions(self):
        assert isinstance(parse_statement("BEGIN"), ast.Begin)
        assert isinstance(parse_statement("BEGIN TRANSACTION"), ast.Begin)
        assert isinstance(parse_statement("COMMIT"), ast.Commit)
        assert isinstance(parse_statement("ROLLBACK"), ast.Rollback)

    def test_security_statements(self):
        assert isinstance(parse_statement("CREATE USER alice"), ast.CreateUser)
        assert isinstance(parse_statement("CREATE ROLE analyst"), ast.CreateRole)
        grant = parse_statement("GRANT SELECT ON emp TO alice")
        assert grant.privilege == "SELECT"
        assert grant.object_name == "emp"
        role_grant = parse_statement("GRANT analyst TO alice")
        assert role_grant.object_name is None
        revoke = parse_statement("REVOKE SELECT ON emp FROM alice")
        assert isinstance(revoke, ast.Revoke)

    def test_parse_script(self):
        statements = parse_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);; SELECT a FROM t"
        )
        assert len(statements) == 3

    def test_split_statements_respects_strings(self):
        parts = split_statements(
            "INSERT INTO t VALUES ('a;b'); SELECT 1 FROM t -- c;d\n; "
        )
        assert len(parts) == 2
        assert "a;b" in parts[0]


# ----------------------------------------------------------------------
# Expression tree traversal: walk() and rewrite() derive from the fields
# ----------------------------------------------------------------------
def _sample(cls):
    """An instance of *cls* with a distinct column reference in every
    expression slot, and those references in walk order."""
    c = [ast.ColumnRef(f"c{i}") for i in range(4)]
    body = parse_statement("SELECT hidden FROM s WHERE hidden > 0")
    samples = {
        ast.Literal: (ast.Literal(1), []),
        ast.Parameter: (ast.Parameter(0), []),
        ast.ColumnRef: (c[0], []),
        ast.Star: (ast.Star(), []),
        ast.UnaryOp: (ast.UnaryOp("-", c[0]), c[:1]),
        ast.BinaryOp: (ast.BinaryOp("+", c[0], c[1]), c[:2]),
        ast.FunctionCall: (ast.FunctionCall("F", [c[0], c[1]]), c[:2]),
        ast.IsNull: (ast.IsNull(c[0]), c[:1]),
        ast.Between: (ast.Between(c[0], c[1], c[2]), c[:3]),
        ast.InList: (ast.InList(c[0], [c[1], c[2]]), c[:3]),
        ast.InQuery: (ast.InQuery(c[0], body), c[:1]),
        ast.Exists: (ast.Exists(body), []),
        ast.ScalarSubquery: (ast.ScalarSubquery(body), []),
        ast.WindowFunction: (
            ast.WindowFunction("SUM", [c[0]], [c[1]], [ast.OrderItem(c[2])]),
            c[:3],
        ),
        ast.Like: (ast.Like(c[0], c[1]), c[:2]),
        ast.CaseWhen: (ast.CaseWhen([(c[0], c[1]), (c[2], c[3])]), c[:4]),
        ast.Cast: (ast.Cast(c[0], "INT"), c[:1]),
        ast.Predict: (ast.Predict("m", [c[0], c[1]]), c[:2]),
    }
    return samples[cls]


_EXPR_CLASSES = ast.Expr.__subclasses__()


@pytest.mark.parametrize(
    "cls", _EXPR_CLASSES, ids=[c.__name__ for c in _EXPR_CLASSES]
)
class TestExprTraversal:
    def test_walk_reaches_every_expression_field(self, cls):
        node, leaves = _sample(cls)
        walked = list(node.walk())
        assert walked[0] is node
        # Pre-order, field order; subquery bodies are not descended into.
        assert len(walked) == 1 + len(leaves)
        assert all(a is b for a, b in zip(walked[1:], leaves))

    def test_identity_rewrite_returns_the_same_object(self, cls):
        node, _ = _sample(cls)
        assert node.rewrite(lambda n: None) is node

    def test_rewrite_copies_and_leaves_the_input_untouched(self, cls):
        node, leaves = _sample(cls)
        before = repr(node)
        targets = {id(leaf) for leaf in leaves}
        out = node.rewrite(
            lambda n: ast.Literal(n.name) if id(n) in targets else None
        )
        assert repr(node) == before
        assert type(out) is cls
        assert (out is node) == (not leaves)
        assert [n.value for n in list(out.walk())[1:]] == [
            leaf.name for leaf in leaves
        ]


def test_select_clauses_and_rewrite():
    stmt = parse_statement(
        "SELECT a, b FROM t WHERE c > 1 GROUP BY a, b "
        "HAVING COUNT(*) > 1 ORDER BY a"
    )
    assert [(clause, str(expr)) for clause, expr in stmt.clauses()] == [
        ("items", "a"),
        ("items", "b"),
        ("where", "(c > 1)"),
        ("group_by", "a"),
        ("group_by", "b"),
        ("having", "(COUNT(*) > 1)"),
        ("order_by", "a"),
    ]
    assert stmt.rewrite(lambda n: None) is stmt
    before = repr(stmt)
    out = stmt.rewrite(
        lambda n: ast.ColumnRef("z")
        if isinstance(n, ast.ColumnRef) and n.name == "a"
        else None
    )
    assert repr(stmt) == before
    assert str(out) == (
        "SELECT z, b FROM t WHERE (c > 1) GROUP BY z, b "
        "HAVING (COUNT(*) > 1) ORDER BY z ASC"
    )
    assert out.where is stmt.where and out.items[1] is stmt.items[1]


def test_conjuncts_and_conjoin_round_trip():
    where = parse_statement(
        "SELECT a FROM t WHERE a = 1 AND (b = 2 AND c = 3)"
    ).where
    parts = ast.conjuncts(where)
    assert [str(p) for p in parts] == ["(a = 1)", "(b = 2)", "(c = 3)"]
    assert str(ast.conjoin(parts)) == "(((a = 1) AND (b = 2)) AND (c = 3))"
    assert ast.conjoin([]) is None
