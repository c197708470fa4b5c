"""LEFT JOIN residual-predicate and NULL-key edge cases.

The hash join splits an ON condition into equi-key pairs plus a residual
predicate evaluated over combined rows. These tests pin the tricky
interactions: an equi-match whose residual fails must *revert* to a
NULL-padded left row (not disappear), NULL join keys never match on either
side, and both behaviors hold for multi-key joins and for the vectorized
single-integer-key fast path.
"""

from __future__ import annotations

import pytest

from flock.db import Database


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE l (lk INTEGER, lv INTEGER, ls TEXT)")
    database.execute("CREATE TABLE r (rk INTEGER, rv INTEGER, rs TEXT)")
    database.execute(
        "INSERT INTO l VALUES (1, 10, 'a'), (2, 20, 'b'), "
        "(NULL, 30, 'c'), (4, NULL, 'd')"
    )
    database.execute(
        "INSERT INTO r VALUES (1, 100, 'x'), (2, 5, 'y'), "
        "(NULL, 300, 'z'), (4, 400, 'w')"
    )
    return database


class TestLeftJoinResidual:
    def test_residual_failure_reverts_to_null_padding(self, db):
        # lk=2 equi-matches rk=2 but the residual (rv > lv) fails there,
        # and lk=4 equi-matches rk=4 with an unknown residual (lv NULL):
        # both rows must come back NULL-padded, not vanish.
        rows = db.execute(
            "SELECT lk, rv FROM l LEFT JOIN r ON lk = rk AND rv > lv "
            "ORDER BY lv"
        ).rows()
        assert rows == [(1, 100), (2, None), (None, None), (4, None)]

    def test_residual_partial_failure_keeps_surviving_match(self, db):
        # Duplicate right keys: one match fails the residual, one passes —
        # the survivor must suppress the NULL padding.
        db.execute("INSERT INTO r VALUES (2, 25, 'y2')")
        rows = db.execute(
            "SELECT lk, rv FROM l LEFT JOIN r ON lk = rk AND rv > lv "
            "WHERE lk = 2"
        ).rows()
        assert rows == [(2, 25)]

    def test_residual_failing_everywhere_pads_every_left_row(self, db):
        rows = db.execute(
            "SELECT lk, rk FROM l LEFT JOIN r ON lk = rk AND rv < 0 "
            "ORDER BY lv"
        ).rows()
        assert rows == [(1, None), (2, None), (None, None), (4, None)]


class TestNullJoinKeys:
    def test_null_left_key_never_matches(self, db):
        # l.lk NULL must not match r.rk NULL (SQL equality on NULL is
        # unknown); the left row survives NULL-padded.
        rows = db.execute(
            "SELECT lv, rs FROM l LEFT JOIN r ON lk = rk ORDER BY lv"
        ).rows()
        assert (30, None) in rows
        assert all(rs != "z" for _, rs in rows)

    def test_null_right_key_never_matches_inner(self, db):
        rows = db.execute(
            "SELECT lk, rk FROM l JOIN r ON lk = rk ORDER BY lk"
        ).rows()
        assert rows == [(1, 1), (2, 2), (4, 4)]

    def test_all_null_keys_on_both_sides(self, db):
        db.execute("DELETE FROM l WHERE lk IS NOT NULL")
        db.execute("DELETE FROM r WHERE rk IS NOT NULL")
        assert db.execute(
            "SELECT * FROM l JOIN r ON lk = rk"
        ).rows() == []
        rows = db.execute(
            "SELECT lv, rv FROM l LEFT JOIN r ON lk = rk"
        ).rows()
        assert rows == [(30, None)]


class TestMultiKeyJoins:
    @pytest.fixture
    def multi(self):
        database = Database()
        database.execute("CREATE TABLE a (k1 INTEGER, k2 TEXT, av INTEGER)")
        database.execute("CREATE TABLE b (k1 INTEGER, k2 TEXT, bv INTEGER)")
        database.execute(
            "INSERT INTO a VALUES (1, 'x', 1), (1, 'y', 2), "
            "(NULL, 'x', 3), (2, NULL, 4)"
        )
        database.execute(
            "INSERT INTO b VALUES (1, 'x', 10), (1, 'z', 20), "
            "(NULL, 'x', 30), (2, NULL, 40)"
        )
        return database

    def test_multi_key_null_in_either_key_never_matches(self, multi):
        rows = multi.execute(
            "SELECT av, bv FROM a LEFT JOIN b ON a.k1 = b.k1 "
            "AND a.k2 = b.k2 ORDER BY av"
        ).rows()
        # Only (1,'x') matches; NULL components block (NULL,'x')/(2,NULL).
        assert rows == [(1, 10), (2, None), (3, None), (4, None)]

    def test_multi_key_residual_revert(self, multi):
        rows = multi.execute(
            "SELECT av, bv FROM a LEFT JOIN b ON a.k1 = b.k1 "
            "AND a.k2 = b.k2 AND bv > 10 ORDER BY av"
        ).rows()
        assert rows == [(1, None), (2, None), (3, None), (4, None)]


@pytest.fixture
def dup_keys():
    database = Database()
    database.execute("CREATE TABLE a (k1 INTEGER, k2 TEXT, av INTEGER)")
    database.execute("CREATE TABLE b (k1 INTEGER, k2 TEXT, bv INTEGER)")
    database.execute(
        "INSERT INTO a VALUES (1, 'x', 1), (1, 'y', 2), (NULL, 'x', 3), "
        "(2, NULL, 4), (1, 'x', 15), (3, 'z', 6)"
    )
    database.execute(
        "INSERT INTO b VALUES (1, 'x', 10), (1, 'z', 20), (NULL, 'x', 30), "
        "(2, NULL, 40), (1, 'x', 12), (3, 'z', 5)"
    )
    return database


@pytest.mark.parametrize(
    "sql,expected",
    [
        # Multi-column SEMI/ANTI joins, with and without a residual; row
        # order (unsorted on purpose) is left-input order.
        ("SELECT av FROM a WHERE EXISTS (SELECT * FROM b "
         "WHERE b.k1 = a.k1 AND b.k2 = a.k2)",
         [(1,), (15,), (6,)]),
        ("SELECT av FROM a WHERE NOT EXISTS (SELECT * FROM b "
         "WHERE b.k1 = a.k1 AND b.k2 = a.k2)",
         [(2,), (3,), (4,)]),
        ("SELECT av FROM a WHERE EXISTS (SELECT * FROM b "
         "WHERE b.k1 = a.k1 AND b.k2 = a.k2 AND b.bv > a.av)",
         [(1,)]),
        ("SELECT av FROM a WHERE NOT EXISTS (SELECT * FROM b "
         "WHERE b.k1 = a.k1 AND b.k2 = a.k2 AND b.bv > a.av)",
         [(2,), (3,), (4,), (15,), (6,)]),
        # Pair order with duplicate keys on both sides; padding order of a
        # LEFT join: never-matched rows first, residual-failed rows after.
        ("SELECT av, bv FROM a JOIN b ON a.k1 = b.k1 AND a.k2 = b.k2",
         [(1, 10), (1, 12), (15, 10), (15, 12), (6, 5)]),
        ("SELECT av, bv FROM a LEFT JOIN b "
         "ON a.k1 = b.k1 AND a.k2 = b.k2 AND bv > av",
         [(1, 10), (1, 12), (2, None), (3, None), (4, None), (15, None),
          (6, None)]),
        ("SELECT av, bv FROM a JOIN b ON a.k1 = b.bv - 9 AND a.k2 = b.k2",
         [(1, 10), (15, 10)]),
    ],
)
def test_multi_column_join_shapes(dup_keys, sql, expected):
    assert dup_keys.execute(sql).rows() == expected


class TestVectorizedIntKeyParity:
    """The single-integer-key fast path must agree with the generic hash
    join — including row order — on duplicates, misses and NULLs."""

    def test_duplicates_preserve_build_probe_order(self):
        database = Database()
        database.execute("CREATE TABLE l (k INTEGER, lv INTEGER)")
        database.execute("CREATE TABLE r (k INTEGER, rv INTEGER)")
        database.execute(
            "INSERT INTO l VALUES (5, 1), (3, 2), (5, 3), (NULL, 4)"
        )
        database.execute(
            "INSERT INTO r VALUES (5, 10), (5, 20), (3, 30), (NULL, 40)"
        )
        rows = database.execute(
            "SELECT lv, rv FROM l JOIN r ON l.k = r.k"
        ).rows()
        # Probe order: left row 0 against right matches in right order,
        # then left row 1, ... — the serial dict-build order.
        assert rows == [(1, 10), (1, 20), (2, 30), (3, 10), (3, 20)]

    def test_int_key_left_join_matches_text_key_twin(self):
        database = Database()
        database.execute("CREATE TABLE li (k INTEGER, v INTEGER)")
        database.execute("CREATE TABLE ri (k INTEGER, w INTEGER)")
        database.execute("CREATE TABLE lt (k TEXT, v INTEGER)")
        database.execute("CREATE TABLE rt (k TEXT, w INTEGER)")
        data_l = [(7, 1), (2, 2), (None, 3), (7, 4), (9, 5)]
        data_r = [(7, 10), (2, 20), (2, 21), (None, 30)]
        for k, v in data_l:
            database.execute(f"INSERT INTO li VALUES ({k or 'NULL'}, {v})")
            database.execute(
                "INSERT INTO lt VALUES ({}, {})".format(
                    "NULL" if k is None else f"'k{k}'", v
                )
            )
        for k, w in data_r:
            database.execute(f"INSERT INTO ri VALUES ({k or 'NULL'}, {w})")
            database.execute(
                "INSERT INTO rt VALUES ({}, {})".format(
                    "NULL" if k is None else f"'k{k}'", w
                )
            )
        int_rows = database.execute(
            "SELECT v, w FROM li LEFT JOIN ri ON li.k = ri.k"
        ).rows()
        text_rows = database.execute(
            "SELECT v, w FROM lt LEFT JOIN rt ON lt.k = rt.k"
        ).rows()
        assert int_rows == text_rows

    def test_int_key_group_by_matches_text_twin_ordering(self):
        database = Database()
        database.execute("CREATE TABLE gi (k INTEGER, v INTEGER)")
        database.execute("CREATE TABLE gt (k TEXT, v INTEGER)")
        data = [(3, 1), (1, 2), (None, 3), (3, 4), (None, 5), (2, 6)]
        for k, v in data:
            database.execute(
                f"INSERT INTO gi VALUES ({'NULL' if k is None else k}, {v})"
            )
            database.execute(
                "INSERT INTO gt VALUES ({}, {})".format(
                    "NULL" if k is None else f"'k{k}'", v
                )
            )
        int_rows = database.execute(
            "SELECT k, COUNT(*), SUM(v) FROM gi GROUP BY k"
        ).rows()
        text_rows = database.execute(
            "SELECT k, COUNT(*), SUM(v) FROM gt GROUP BY k"
        ).rows()
        # First-appearance group order: keys 3, 1, NULL, 2 in both.
        assert [r[1:] for r in int_rows] == [r[1:] for r in text_rows]
        assert [r[0] for r in int_rows] == [3, 1, None, 2]
