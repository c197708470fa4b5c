"""Set operations (UNION/EXCEPT/INTERSECT) and EXPLAIN statement tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flock.db import Database
from flock.errors import BindError, ParseError


@pytest.fixture
def two_tables(db):
    db.execute("CREATE TABLE a (x INT, y TEXT)")
    db.execute("CREATE TABLE b (x INT, y TEXT)")
    db.execute("INSERT INTO a VALUES (1,'p'), (2,'q'), (2,'q'), (3,'s')")
    db.execute("INSERT INTO b VALUES (2,'q'), (3,'r'), (3,'r')")
    return db


class TestUnion:
    def test_union_dedupes(self, two_tables):
        rows = two_tables.execute(
            "SELECT x, y FROM a UNION SELECT x, y FROM b ORDER BY x, y"
        ).rows()
        assert rows == [(1, "p"), (2, "q"), (3, "r"), (3, "s")]

    def test_union_all_keeps_duplicates(self, two_tables):
        rows = two_tables.execute(
            "SELECT x FROM a UNION ALL SELECT x FROM b"
        ).rows()
        assert len(rows) == 7

    def test_setop_as_from_subquery(self, two_tables):
        n = two_tables.execute(
            "SELECT COUNT(*) FROM (SELECT x FROM a UNION ALL "
            "SELECT x FROM b) t"
        ).scalar()
        assert n == 7

    def test_union_column_names_from_left(self, two_tables):
        result = two_tables.execute(
            "SELECT x AS left_name FROM a UNION SELECT x FROM b"
        )
        assert result.column_names == ["left_name"]

    def test_union_type_unification(self, two_tables):
        two_tables.execute("CREATE TABLE c (v FLOAT)")
        two_tables.execute("INSERT INTO c VALUES (9.5)")
        rows = two_tables.execute(
            "SELECT x FROM a UNION SELECT v FROM c ORDER BY x DESC LIMIT 1"
        ).rows()
        assert rows == [(9.5,)]

    def test_incompatible_types_rejected(self, two_tables):
        with pytest.raises(BindError):
            two_tables.execute("SELECT x FROM a UNION SELECT y FROM b")

    def test_column_count_mismatch_rejected(self, two_tables):
        with pytest.raises(BindError):
            two_tables.execute("SELECT x, y FROM a UNION SELECT x FROM b")

    def test_order_by_must_be_trailing(self, two_tables):
        with pytest.raises(ParseError):
            two_tables.execute(
                "SELECT x FROM a ORDER BY x UNION SELECT x FROM b"
            )


class TestExceptIntersect:
    def test_except(self, two_tables):
        rows = two_tables.execute(
            "SELECT x, y FROM a EXCEPT SELECT x, y FROM b ORDER BY x"
        ).rows()
        assert rows == [(1, "p"), (3, "s")]

    def test_except_all_multiset(self, two_tables):
        rows = two_tables.execute(
            "SELECT x FROM a EXCEPT ALL SELECT x FROM b ORDER BY x"
        ).rows()
        # a has {1,2,2,3}; b has {2,3,3}: 2 cancels one 2, 3 cancels 3.
        assert rows == [(1,), (2,)]

    def test_intersect(self, two_tables):
        rows = two_tables.execute(
            "SELECT x, y FROM a INTERSECT SELECT x, y FROM b"
        ).rows()
        assert rows == [(2, "q")]

    def test_intersect_all(self, two_tables):
        rows = two_tables.execute(
            "SELECT x FROM a INTERSECT ALL SELECT x FROM b ORDER BY x"
        ).rows()
        assert rows == [(2,), (3,)]

    def test_chained_operations(self, two_tables):
        rows = two_tables.execute(
            "SELECT x FROM a UNION SELECT x FROM b "
            "EXCEPT SELECT 1 FROM a ORDER BY x"
        ).rows()
        assert rows == [(2,), (3,)]

    def test_limit_applies_to_whole(self, two_tables):
        rows = two_tables.execute(
            "SELECT x FROM a UNION SELECT x FROM b ORDER BY x LIMIT 2"
        ).rows()
        assert rows == [(1,), (2,)]


@pytest.mark.parametrize(
    "sql,expected",
    [
        # Duplicate and NULL rows (NULL equals NULL in set operations);
        # unsorted on purpose: output keeps left-input order.
        ("SELECT x, y FROM a EXCEPT ALL SELECT x, y FROM b",
         [(1, "p"), (3, "s"), (2, "q"), (None, "n")]),
        ("SELECT x, y FROM a INTERSECT ALL SELECT x, y FROM b",
         [(2, "q"), (2, "q"), (None, "n"), (None, "n"), (None, None)]),
        ("SELECT x, y FROM b EXCEPT ALL SELECT x, y FROM a",
         [(3, "r"), (3, "r"), (None, None)]),
        ("SELECT x, y FROM b INTERSECT ALL SELECT x, y FROM a",
         [(2, "q"), (None, "n"), (None, "n"), (None, None), (2, "q")]),
        ("SELECT x, y FROM a EXCEPT SELECT x, y FROM b",
         [(1, "p"), (3, "s")]),
        ("SELECT x, y FROM a INTERSECT SELECT x, y FROM b",
         [(2, "q"), (None, "n"), (None, None)]),
        ("SELECT x, y FROM a UNION SELECT x, y FROM b",
         [(1, "p"), (2, "q"), (None, "n"), (3, "s"), (None, None), (3, "r")]),
        ("SELECT DISTINCT x, y FROM a",
         [(1, "p"), (2, "q"), (None, "n"), (3, "s"), (None, None)]),
        # INT against FLOAT: the binder unifies both sides to FLOAT.
        ("SELECT x, y FROM a INTERSECT ALL SELECT x, y FROM f",
         [(2.0, "q"), (None, "n"), (3.0, "s")]),
        ("SELECT x, y FROM a EXCEPT SELECT x, y FROM f",
         [(1.0, "p"), (None, None)]),
    ],
)
def test_setops_duplicate_and_null_rows(db, sql, expected):
    db.execute("CREATE TABLE a (x INT, y TEXT)")
    db.execute("CREATE TABLE b (x INT, y TEXT)")
    db.execute("CREATE TABLE f (x FLOAT, y TEXT)")
    db.execute(
        "INSERT INTO a VALUES (1,'p'), (2,'q'), (2,'q'), (NULL,'n'), (3,'s'), "
        "(NULL,'n'), (2,'q'), (NULL,NULL), (NULL,'n')"
    )
    db.execute(
        "INSERT INTO b VALUES (2,'q'), (NULL,'n'), (3,'r'), (3,'r'), "
        "(NULL,'n'), (NULL,NULL), (2,'q'), (NULL,NULL)"
    )
    db.execute("INSERT INTO f VALUES (2.0,'q'), (1.5,'p'), (NULL,'n'), (3.0,'s')")
    assert db.execute(sql).rows() == expected


@settings(deadline=None, max_examples=20)
@given(
    st.lists(st.integers(0, 6), max_size=20),
    st.lists(st.integers(0, 6), max_size=20),
)
def test_setops_match_python_sets(left, right):
    db = Database()
    db.execute("CREATE TABLE a (x INT)")
    db.execute("CREATE TABLE b (x INT)")
    if left:
        db.execute("INSERT INTO a VALUES " + ", ".join(f"({v})" for v in left))
    if right:
        db.execute("INSERT INTO b VALUES " + ", ".join(f"({v})" for v in right))
    union = {r[0] for r in db.execute(
        "SELECT x FROM a UNION SELECT x FROM b").rows()}
    assert union == set(left) | set(right)
    except_ = {r[0] for r in db.execute(
        "SELECT x FROM a EXCEPT SELECT x FROM b").rows()}
    assert except_ == set(left) - set(right)
    intersect = {r[0] for r in db.execute(
        "SELECT x FROM a INTERSECT SELECT x FROM b").rows()}
    assert intersect == set(left) & set(right)


class TestExplainStatement:
    def test_explain_returns_plan_rows(self, two_tables):
        result = two_tables.execute("EXPLAIN SELECT x FROM a WHERE x > 1")
        assert result.column_names == ["plan"]
        text = "\n".join(result.column("plan"))
        assert "Scan(a" in text and "Filter" in text

    def test_explain_union(self, two_tables):
        text = "\n".join(
            two_tables.execute(
                "EXPLAIN SELECT x FROM a UNION SELECT x FROM b"
            ).column("plan")
        )
        assert "SetOp(UNION)" in text

    def test_explain_respects_privileges(self, two_tables):
        from flock.errors import SecurityError

        two_tables.execute("CREATE USER nosy")
        with pytest.raises(SecurityError):
            two_tables.execute("EXPLAIN SELECT x FROM a", user="nosy")
