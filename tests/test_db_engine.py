"""End-to-end SQL engine tests: DDL, DML, SELECT semantics."""

import datetime

import pytest

from flock.db import Database
from flock.errors import (
    BindError,
    CatalogError,
    ConstraintError,
    ExecutionError,
    ParseError,
)


class TestDDL:
    def test_create_and_drop(self, db):
        db.execute("CREATE TABLE t (a INT, b TEXT)")
        assert db.catalog.has_table("t")
        db.execute("DROP TABLE t")
        assert not db.catalog.has_table("t")

    def test_create_duplicate(self, db):
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE TABLE IF NOT EXISTS t (a INT)")  # no error

    def test_drop_missing(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE nope")
        result = db.execute("DROP TABLE IF EXISTS nope")
        assert result.affected_rows == 0

    def test_unknown_type(self, db):
        with pytest.raises(BindError):
            db.execute("CREATE TABLE t (a BLOB)")


class TestInsertSelect:
    def test_insert_reports_count(self, db):
        db.execute("CREATE TABLE t (a INT, b TEXT)")
        result = db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert result.affected_rows == 2

    def test_insert_column_subset_fills_nulls(self, db):
        db.execute("CREATE TABLE t (a INT, b TEXT, c FLOAT)")
        db.execute("INSERT INTO t (c, a) VALUES (5.5, 1)")
        assert db.execute("SELECT a, b, c FROM t").rows() == [(1, None, 5.5)]

    def test_insert_select(self, db):
        db.execute("CREATE TABLE src (a INT)")
        db.execute("CREATE TABLE dst (a INT)")
        db.execute("INSERT INTO src VALUES (1), (2), (3)")
        db.execute("INSERT INTO dst SELECT a FROM src WHERE a > 1")
        assert db.execute("SELECT COUNT(*) FROM dst").scalar() == 2

    def test_insert_expression_values(self, db):
        db.execute("CREATE TABLE t (a INT, d DATE)")
        db.execute("INSERT INTO t VALUES (1 + 2, DATE '2020-01-01')")
        row = db.execute("SELECT a, d FROM t").rows()[0]
        assert row == (3, datetime.date(2020, 1, 1))

    def test_insert_not_null_violation(self, db):
        db.execute("CREATE TABLE t (a INT NOT NULL)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (NULL)")


class TestSelect:
    def test_projection_and_alias(self, emp_db):
        result = emp_db.execute(
            "SELECT name, salary * 2 AS double_pay FROM emp WHERE id = 1"
        )
        assert result.column_names == ["name", "double_pay"]
        assert result.rows() == [("ann", 200.0)]

    def test_where_null_is_not_true(self, emp_db):
        # dee has NULL salary: excluded by any comparison.
        result = emp_db.execute("SELECT name FROM emp WHERE salary > 0")
        assert "dee" not in [r[0] for r in result.rows()]

    def test_is_null(self, emp_db):
        assert emp_db.execute(
            "SELECT name FROM emp WHERE salary IS NULL"
        ).rows() == [("dee",)]

    def test_order_by_nulls_last_asc(self, emp_db):
        names = emp_db.execute(
            "SELECT name FROM emp ORDER BY salary"
        ).column("name")
        assert names[-1] == "dee"

    def test_order_by_desc_nulls_first(self, emp_db):
        names = emp_db.execute(
            "SELECT name FROM emp ORDER BY salary DESC"
        ).column("name")
        assert names[0] == "dee"
        assert names[1] == "ann"

    def test_order_by_position_and_alias(self, emp_db):
        by_position = emp_db.execute(
            "SELECT name, salary FROM emp WHERE salary IS NOT NULL ORDER BY 2"
        ).column("name")
        by_alias = emp_db.execute(
            "SELECT name, salary AS s FROM emp WHERE salary IS NOT NULL "
            "ORDER BY s"
        ).column("name")
        assert by_position == by_alias

    def test_order_by_non_projected_column(self, emp_db):
        names = emp_db.execute(
            "SELECT name FROM emp ORDER BY hired DESC LIMIT 2"
        ).column("name")
        assert names == ["dee", "eve"]

    def test_limit_offset(self, emp_db):
        result = emp_db.execute(
            "SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 1"
        )
        assert result.column("id") == [2, 3]

    def test_distinct(self, emp_db):
        result = emp_db.execute("SELECT DISTINCT dept FROM emp ORDER BY dept")
        assert result.column("dept") == ["eng", "hr", "ops"]

    def test_group_by_having(self, emp_db):
        result = emp_db.execute(
            "SELECT dept, COUNT(*) AS n, AVG(salary) AS avg_sal FROM emp "
            "GROUP BY dept HAVING COUNT(*) >= 2 ORDER BY dept"
        )
        assert result.rows() == [("eng", 2, 95.0), ("hr", 2, 70.0)]

    def test_global_aggregate_without_group(self, emp_db):
        assert emp_db.execute("SELECT COUNT(*) FROM emp").scalar() == 5
        # AVG ignores the NULL salary.
        assert emp_db.execute("SELECT AVG(salary) FROM emp").scalar() == pytest.approx(
            (100 + 90 + 70 + 85) / 4
        )

    def test_aggregate_expression_output(self, emp_db):
        value = emp_db.execute(
            "SELECT MAX(salary) - MIN(salary) FROM emp"
        ).scalar()
        assert value == 30.0

    def test_join_inner(self, emp_db):
        emp_db.execute("CREATE TABLE dept (name TEXT, floor INT)")
        emp_db.execute(
            "INSERT INTO dept VALUES ('eng', 3), ('hr', 1)"
        )
        result = emp_db.execute(
            "SELECT e.name, d.floor FROM emp e JOIN dept d "
            "ON e.dept = d.name ORDER BY e.id"
        )
        assert result.rows() == [
            ("ann", 3), ("bob", 3), ("cyd", 1), ("dee", 1),
        ]

    def test_join_left_preserves_unmatched(self, emp_db):
        emp_db.execute("CREATE TABLE dept (name TEXT, floor INT)")
        emp_db.execute("INSERT INTO dept VALUES ('eng', 3)")
        result = emp_db.execute(
            "SELECT e.name, d.floor FROM emp e LEFT JOIN dept d "
            "ON e.dept = d.name ORDER BY e.id"
        )
        rows = dict(result.rows())
        assert rows["ann"] == 3
        assert rows["cyd"] is None

    def test_implicit_join_via_where(self, emp_db):
        emp_db.execute("CREATE TABLE dept (name TEXT, floor INT)")
        emp_db.execute("INSERT INTO dept VALUES ('eng', 3), ('hr', 1)")
        result = emp_db.execute(
            "SELECT e.name FROM emp e, dept d "
            "WHERE e.dept = d.name AND d.floor = 3 ORDER BY e.name"
        )
        assert result.column("name") == ["ann", "bob"]

    def test_subquery_in_from(self, emp_db):
        result = emp_db.execute(
            "SELECT e.name, agg.n FROM emp e JOIN "
            "(SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept) agg "
            "ON e.dept = agg.dept WHERE e.id = 1"
        )
        assert result.rows() == [("ann", 2)]

    def test_case_expression(self, emp_db):
        result = emp_db.execute(
            "SELECT name, CASE WHEN salary >= 90 THEN 'high' "
            "WHEN salary >= 80 THEN 'mid' ELSE 'low' END AS band "
            "FROM emp WHERE salary IS NOT NULL ORDER BY id"
        )
        assert result.column("band") == ["high", "high", "low", "mid"]

    def test_date_arithmetic(self, emp_db):
        result = emp_db.execute(
            "SELECT name FROM emp "
            "WHERE hired >= DATE '2021-01-01' AND "
            "hired < DATE '2021-01-01' + INTERVAL '1' YEAR ORDER BY name"
        )
        assert result.column("name") == ["bob", "eve"]

    def test_extract_year(self, emp_db):
        result = emp_db.execute(
            "SELECT EXTRACT(YEAR FROM hired) AS y, COUNT(*) AS n FROM emp "
            "GROUP BY EXTRACT(YEAR FROM hired) ORDER BY y"
        )
        assert (2021, 2) in result.rows()

    def test_unknown_column_errors(self, emp_db):
        with pytest.raises(BindError):
            emp_db.execute("SELECT nope FROM emp")

    def test_ambiguous_column_errors(self, emp_db):
        emp_db.execute("CREATE TABLE emp2 (name TEXT)")
        emp_db.execute("INSERT INTO emp2 VALUES ('x')")
        with pytest.raises(BindError, match="ambiguous"):
            emp_db.execute("SELECT name FROM emp, emp2")

    def test_non_grouped_column_rejected(self, emp_db):
        with pytest.raises(BindError):
            emp_db.execute("SELECT name, COUNT(*) FROM emp GROUP BY dept")


class TestUpdateDelete:
    def test_update_with_expression(self, emp_db):
        result = emp_db.execute(
            "UPDATE emp SET salary = salary * 1.1 WHERE dept = 'eng'"
        )
        assert result.affected_rows == 2
        assert emp_db.execute(
            "SELECT salary FROM emp WHERE id = 1"
        ).scalar() == pytest.approx(110.0)

    def test_update_to_null_and_back(self, emp_db):
        emp_db.execute("UPDATE emp SET dept = NULL WHERE id = 5")
        assert emp_db.execute(
            "SELECT dept FROM emp WHERE id = 5"
        ).scalar() is None

    def test_update_int_literal_into_float_column(self, emp_db):
        emp_db.execute("UPDATE emp SET salary = 75 WHERE id = 4")
        assert emp_db.execute(
            "SELECT salary FROM emp WHERE id = 4"
        ).scalar() == 75.0

    def test_delete(self, emp_db):
        result = emp_db.execute("DELETE FROM emp WHERE dept = 'hr'")
        assert result.affected_rows == 2
        assert emp_db.execute("SELECT COUNT(*) FROM emp").scalar() == 3

    def test_delete_all(self, emp_db):
        emp_db.execute("DELETE FROM emp")
        assert emp_db.execute("SELECT COUNT(*) FROM emp").scalar() == 0


class TestExplainAndLog:
    def test_explain_shows_plan(self, emp_db):
        text = emp_db.explain("SELECT name FROM emp WHERE salary > 80")
        assert "Scan(emp" in text
        assert "Filter" in text

    def test_explain_rejects_dml(self, emp_db):
        with pytest.raises(BindError):
            emp_db.explain("DELETE FROM emp")

    def test_query_log_records_statements(self, emp_db):
        before = len(emp_db.query_log)
        emp_db.execute("SELECT COUNT(*) FROM emp")
        assert len(emp_db.query_log) == before + 1
        entry = emp_db.query_log[-1]
        assert entry.statement_type == "SELECT"
        assert entry.success

    def test_query_log_records_failures(self, emp_db):
        before = len(emp_db.query_log)
        with pytest.raises(BindError):
            emp_db.execute("SELECT nope FROM emp")
        assert len(emp_db.query_log) == before + 1
        assert emp_db.query_log[-1].success is False


class TestResultAPI:
    def test_to_dicts(self, emp_db):
        dicts = emp_db.execute(
            "SELECT name, dept FROM emp WHERE id = 1"
        ).to_dicts()
        assert dicts == [{"name": "ann", "dept": "eng"}]

    def test_scalar_shape_enforced(self, emp_db):
        with pytest.raises(ValueError):
            emp_db.execute("SELECT name, dept FROM emp").scalar()

    def test_iteration(self, emp_db):
        rows = [r for r in emp_db.execute("SELECT id FROM emp ORDER BY id")]
        assert rows == [(1,), (2,), (3,), (4,), (5,)]


class TestSettings:
    def test_set_requires_admin(self, db):
        from flock.errors import SecurityError

        db.execute("CREATE USER bob")
        with pytest.raises(SecurityError):
            db.execute("SET flock.indexes = 0", user="bob")

    def test_set_rejects_bad_values(self, db):
        # Out-of-range values, per setting: tests/test_settings.py.
        with pytest.raises(ParseError, match="integer"):
            db.execute("SET flock.indexes = 1.5")
        with pytest.raises(BindError, match="unknown setting"):
            db.execute("SET flock.unknown_thing = 1")

    @pytest.mark.parametrize(
        "name", ["flock.morsel_rows", "flock.parallel_min_rows", "flock.workers"]
    )
    def test_morsel_settings_are_gone(self, db, name):
        """The morsel-parallel tier and its knobs were removed."""
        with pytest.raises(BindError, match="unknown setting"):
            db.execute(f"SET {name} = 2")
