"""One INSERT ... VALUES, four paths, one outcome.

Every shape below runs through {embedded, sharded} x {``execute``,
``executemany``} and must leave repr-identical rows — or raise the same
error class with the same message — on all four. ``execute`` runs the
statement once per parameter row; ``executemany`` sends them all at once.
Error shapes fail in their first parameter row, so "nothing staged" is
the same outcome whether the batch commits once or once per row; a
multi-row error shape pins which error a batch raises — the one a
row-major loop meets first, whatever its slot.

The sharded side reads ``FLOCK_SHARDS`` (default 2) and follows
``FLOCK_PROC`` for its transport.
"""

from __future__ import annotations

import datetime
import os

import pytest

import flock
from flock.errors import (
    BindError,
    CatalogError,
    ConstraintError,
    FlockError,
    TypeMismatchError,
)

SHARDS = int(os.environ.get("FLOCK_SHARDS", "2"))

SCHEMA = [
    "CREATE TABLE t (k INT PRIMARY KEY, v TEXT, d DATE)",
    "CREATE TABLE u (a INT, b TEXT)",
    "CREATE TABLE w (k INT PRIMARY KEY, x FLOAT)",
]
TABLES = ("t", "u", "w")
SEED_ROW = "INSERT INTO t VALUES (0, 'seed', '2023-12-31')"
#: What ``SELECT * FROM t`` / ``FROM u`` return when an INSERT left nothing.
SEED_ONLY = (
    repr([(0, "seed", datetime.date(2023, 12, 31))]), repr([]), repr([])
)

# name -> (sql, parameter rows, affected rows or the error class)
CASES = {
    "bare_params": (
        "INSERT INTO t VALUES (?, ?, ?)",
        [[1, "a", "2024-01-01"], [2, None, None], [3, "c", "2024-02-29"]],
        3,
    ),
    "param_plus_one": (
        "INSERT INTO t VALUES (? + 1, ?, ?)",
        [[1, "a", None], [5, "b", "2024-03-01"]],
        2,
    ),
    "constants_and_params": (
        "INSERT INTO t VALUES (?, 'fixed' || 'x', '2024-06-30')",
        [[4], [9]],
        2,
    ),
    "expression_over_two_params": (
        "INSERT INTO t VALUES (? * 10 + ?, UPPER(?), ?)",
        [[1, 2, "ab", "2024-01-05"], [3, 4, "cd", None]],
        2,
    ),
    "column_subset": (
        "INSERT INTO t (k, v) VALUES (?, ?)",
        [[7, "x"], [8, "y"]],
        2,
    ),
    "reordered_subset_with_date": (
        "INSERT INTO t (d, k) VALUES (?, ?)",
        [["2024-07-04", 11], [None, 12]],
        2,
    ),
    "keyless_table": (
        "INSERT INTO u VALUES (?, ? || 'z')",
        [[1, "a"], [2, "b"], [1, "a"]],
        3,
    ),
    "multi_row_template": (
        "INSERT INTO t VALUES (?, ?, ?), (? + 100, 'second', ?)",
        [[1, "a", None, 1, "2024-05-05"], [2, "b", "2024-01-01", 2, None]],
        4,
    ),
    "wrong_arity": (
        "INSERT INTO t VALUES (?, ?)",
        [[1, "a"]],
        BindError,
    ),
    "wrong_param_count": (
        "INSERT INTO t VALUES (?, ?, ?)",
        [[1, "a"]],
        BindError,
    ),
    "bad_param_type": (
        "INSERT INTO t VALUES (?, ?, ?)",
        [[1, {"x": 1}, None]],
        TypeMismatchError,
    ),
    "bad_param_type_in_expression": (
        "INSERT INTO t VALUES (? + 1, ?, ?)",
        [[[1], "a", None]],
        TypeMismatchError,
    ),
    "text_into_integer": (
        "INSERT INTO t VALUES (?, ?, ?)",
        [["one", "a", None]],
        TypeMismatchError,
    ),
    "column_reference_in_values": (
        "INSERT INTO t VALUES (?, v, ?)",
        [[1, None]],
        BindError,
    ),
    "unknown_column": (
        "INSERT INTO t (k, nope) VALUES (?, ?)",
        [[1, "a"]],
        CatalogError,
    ),
    "null_key": (
        "INSERT INTO t VALUES (?, ?, ?)",
        [[None, "a", None]],
        ConstraintError,
    ),
    "duplicate_existing_key": (
        "INSERT INTO t VALUES (?, ?, ?)",
        [[0, "dup", None]],
        ConstraintError,
    ),
    "duplicate_within_template": (
        "INSERT INTO t VALUES (?, ?, NULL), (?, 'twin', NULL)",
        [[6, "a", 6]],
        ConstraintError,
    ),
    "integer_overflow": (
        "INSERT INTO t VALUES (?, ?, ?)",
        [[2**63, "a", None]],
        TypeMismatchError,
    ),
    "float_overflow": (
        "INSERT INTO w VALUES (?, ?)",
        [[1, 10**400]],
        TypeMismatchError,
    ),
    # Row 1 fails in slot 2, row 2 in slot 3: row 1's error.
    "first_error_in_earlier_slot": (
        "INSERT INTO t VALUES (?, ?, ?)",
        [[1, 5, None], [2, "b", 1.5]],
        TypeMismatchError,
    ),
    # Row 1 fails in slot 3, row 2 in slot 2: still row 1's error.
    "first_error_in_later_slot": (
        "INSERT INTO t VALUES (?, ?, ?)",
        [[1, "a", 1.5], [2, 5, None]],
        TypeMismatchError,
    ),
    # DATE text must be canonical YYYY-MM-DD naming a real day.
    "impossible_date_literal": (
        "INSERT INTO t VALUES (?, 'a', '2024-02-30')",
        [[1]],
        TypeMismatchError,
    ),
    "impossible_date_param": (
        "INSERT INTO t VALUES (?, ?, ?)",
        [[1, "a", "2024-02-30"]],
        TypeMismatchError,
    ),
    "compact_date_param": (
        "INSERT INTO t VALUES (?, ?, ?)",
        [[1, "a", "20240101"]],
        TypeMismatchError,
    ),
    "week_date_param": (
        "INSERT INTO t VALUES (?, ?, ?)",
        [[1, "a", "2024-W01-1"]],
        TypeMismatchError,
    ),
    # Row 1 fails in a bare slot, row 2 in an expression slot before it.
    "first_error_behind_expression_slot": (
        "INSERT INTO t VALUES (? + 1, ?, ?)",
        [[1, "a", 1.5], ["x", "b", None]],
        TypeMismatchError,
    ),
}

METHODS = ("execute", "executemany")


@pytest.fixture(scope="module")
def tiers(tmp_path_factory):
    root = tmp_path_factory.mktemp("insert_paths")
    embedded = flock.connect()
    sharded = flock.connect(root / "sharded", shards=SHARDS)
    yield {"embedded": embedded, "sharded": sharded}
    sharded.close()
    embedded.close()


def _reset(client) -> None:
    for name in TABLES:
        client.execute(f"DROP TABLE IF EXISTS {name}")
    for ddl in SCHEMA:
        client.execute(ddl)
    client.execute(SEED_ROW)


def _outcome(client, method: str, sql: str, param_rows: list) -> tuple:
    """What running *sql* over *param_rows* did: the affected-row count
    or the error, plus every row left behind."""
    _reset(client)
    try:
        if method == "execute":
            result = sum(
                client.execute(sql, params).affected_rows
                for params in param_rows
            )
        else:
            result = client.executemany(sql, param_rows).affected_rows
    except FlockError as exc:
        result = (type(exc), str(exc))
    left = tuple(
        repr(client.execute(f"SELECT * FROM {name}").rows())
        for name in TABLES
    )
    return result, left


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_path_agrees(tiers, case):
    sql, param_rows, expected = CASES[case]
    outcomes = {
        (tier, method): _outcome(client, method, sql, param_rows)
        for tier, client in tiers.items()
        for method in METHODS
    }
    reference = outcomes[("embedded", "execute")]
    assert all(o == reference for o in outcomes.values()), outcomes
    result, left = reference
    if isinstance(expected, int):
        assert result == expected
    else:
        assert result[0] is expected, result
        assert left == SEED_ONLY, "a failed INSERT left rows behind"


def test_multi_row_template_commits_once(tiers):
    """executemany over a multi-row template is one statement: one
    commit, one audit record, one query-log entry."""
    client = tiers["embedded"]
    _reset(client)
    db = client.db
    audit_before = len(list(db.audit.log.records()))
    log_before = len(db.query_log)
    sql, param_rows, expected = CASES["multi_row_template"]
    assert client.executemany(sql, param_rows).affected_rows == expected
    inserts = [
        r for r in list(db.audit.log.records())[audit_before:]
        if r.action == "INSERT"
    ]
    assert [r.detail for r in inserts] == [f"{expected} rows"]
    assert len(db.query_log) == log_before + 1


#: The exact error of the cases whose message pins the behaviour.
FIRST_ERRORS = {
    "integer_overflow": "cannot store 9223372036854775808 in INTEGER column",
    "float_overflow": f"cannot store {10**400} in FLOAT column",
    "first_error_in_earlier_slot": "cannot store 5 in TEXT column",
    "first_error_in_later_slot": "cannot store 1.5 in DATE column",
    "first_error_behind_expression_slot": "cannot store 1.5 in DATE column",
    "impossible_date_literal":
        "invalid DATE '2024-02-30': expected a real YYYY-MM-DD day",
    "compact_date_param":
        "invalid DATE '20240101': expected a real YYYY-MM-DD day",
}


@pytest.mark.parametrize("case", sorted(FIRST_ERRORS))
def test_batch_raises_its_first_rows_error(tiers, case):
    sql, param_rows, expected = CASES[case]
    result, _ = _outcome(tiers["embedded"], "executemany", sql, param_rows)
    assert result == (expected, FIRST_ERRORS[case])


# INSERT ... SELECT across column types, on both tiers. The source keeps
# one row per shape of value; each case reads a column into a target of
# another type.
SELECT_SCHEMA = (
    "CREATE TABLE src (n INT, i INT, f FLOAT, s TEXT, e DATE)",
    "CREATE TABLE dst (n INT, i INT, f FLOAT, d DATE)",
)
SELECT_SOURCE = [
    [1, 7, 2.0, "2024-01-01", "2024-03-01"],
    [2, None, None, None, None],
    [3, -4, 2.5, "x", "1969-12-31"],
]
_MAR_1 = datetime.date(2024, 3, 1)
# name -> (statement, rows left in dst, or the error class and message)
SELECT_CASES = {
    "integer_into_float_with_nulls": (
        "INSERT INTO dst (n, f) SELECT n, i FROM src",
        [(1, None, 7.0, None), (2, None, None, None), (3, None, -4.0, None)],
    ),
    "text_into_date": (
        "INSERT INTO dst (d, n) SELECT s, n FROM src WHERE n < 3",
        [(1, None, None, datetime.date(2024, 1, 1)), (2, None, None, None)],
    ),
    "integral_float_into_integer": (
        "INSERT INTO dst (n, i) SELECT n, f FROM src WHERE n < 3",
        [(1, 2, None, None), (2, None, None, None)],
    ),
    "date_into_date": (
        "INSERT INTO dst (n, d) SELECT n, e FROM src",
        [(1, None, None, _MAR_1), (2, None, None, None),
         (3, None, None, datetime.date(1969, 12, 31))],
    ),
    "integer_into_date": (
        "INSERT INTO dst (n, d) SELECT n, i FROM src",
        [(1, None, None, datetime.date(1970, 1, 8)), (2, None, None, None),
         (3, None, None, datetime.date(1969, 12, 28))],
    ),
    "non_integral_float_into_integer": (
        "INSERT INTO dst (n, i) SELECT n, f FROM src",
        (TypeMismatchError, "cannot store 2.5 in INTEGER column"),
    ),
    "date_into_integer": (
        "INSERT INTO dst (n, i) SELECT n, e FROM src",
        (TypeMismatchError,
         f"cannot store {_MAR_1!r} in INTEGER column"),
    ),
    # Slot 2 fails in row 3; slot 3 fails in row 1, which wins.
    "later_slot_fails_in_earlier_row": (
        "INSERT INTO dst (n, i, f) SELECT n, f, s FROM src",
        (TypeMismatchError, "cannot store '2024-01-01' in FLOAT column"),
    ),
}


@pytest.mark.parametrize("case", sorted(SELECT_CASES))
def test_insert_select_coerces_each_type_pair(tiers, case):
    sql, expected = SELECT_CASES[case]
    outcomes = {}
    for tier, client in tiers.items():
        for name in ("src", "dst"):
            client.execute(f"DROP TABLE IF EXISTS {name}")
        for ddl in SELECT_SCHEMA:
            client.execute(ddl)
        client.executemany(
            "INSERT INTO src VALUES (?, ?, ?, ?, ?)", SELECT_SOURCE
        )
        try:
            result = client.execute(sql).affected_rows
        except FlockError as exc:
            result = (type(exc), str(exc))
        outcomes[tier] = (
            result, client.execute("SELECT * FROM dst ORDER BY n").rows()
        )
    if isinstance(expected, tuple):
        want = (expected, [])
    else:
        want = (len(expected), expected)
    assert outcomes == {"embedded": want, "sharded": want}
