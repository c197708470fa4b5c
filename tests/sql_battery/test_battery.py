"""Parametrized runner over the statement corpus in ``statements.py``.

Three tiers of assertion:

- every POSITIVE statement parses, binds and executes, and its result has
  a sane shape (no column name containing an internal ``__``, every row as
  wide as the header);
- every RESULT_CHECKED statement returns its pinned rows exactly;
- both run each statement twice: the second run is a plan-cache hit, and
  must return repr-identical rows and leave the cached statement tree as
  it was;
- every NEGATIVE statement raises exactly the named engine error class
  (``ParseError``/``BindError``) — never a bare KeyError/IndexError.
"""

from __future__ import annotations

import pytest

from flock.errors import FlockError

from tests.sql_battery.statements import NEGATIVE, POSITIVE, RESULT_CHECKED


def _execute_twice(engine, sql):
    """Run *sql* cold, then as a plan-cache hit; both must agree.

    ``engine.db`` is the engine whose cache the statement goes through —
    the sharded tier's coordinator included.
    """
    entry = engine.db.plan_cache.lookup(sql)
    tree = repr(entry.statement)
    result = engine.execute(sql)
    again = engine.execute(sql)
    assert engine.db.plan_cache.lookup(sql) is entry
    assert repr(again.rows()) == repr(result.rows())
    assert repr(entry.statement) == tree
    return result


def _shape_check(result):
    names = result.batch.names
    assert not any("__" in name for name in names), (
        f"internal column leaked into result: {names}"
    )
    rows = result.rows()
    for row in rows:
        assert len(row) == len(names)
    return rows


@pytest.mark.parametrize(
    "sql", POSITIVE, ids=[f"p{i:03d}" for i in range(len(POSITIVE))]
)
def test_positive(battery_engine, battery_report, sql):
    try:
        result = _execute_twice(battery_engine, sql)
        _shape_check(result)
    except Exception as exc:
        battery_report.append(
            {"sql": sql, "status": f"{type(exc).__name__}: {exc}"}
        )
        raise
    battery_report.append({"sql": sql, "status": "ok"})


@pytest.mark.parametrize(
    "sql,expected",
    RESULT_CHECKED,
    ids=[f"r{i:03d}" for i in range(len(RESULT_CHECKED))],
)
def test_result_checked(battery_engine, battery_report, sql, expected):
    try:
        result = _execute_twice(battery_engine, sql)
        rows = _shape_check(result)
        assert rows == expected, f"{sql!r}: {rows!r} != {expected!r}"
    except Exception as exc:
        battery_report.append(
            {"sql": sql, "status": f"{type(exc).__name__}: {exc}"}
        )
        raise
    battery_report.append({"sql": sql, "status": "ok"})


@pytest.mark.parametrize(
    "sql,error_name",
    NEGATIVE,
    ids=[f"n{i:03d}" for i in range(len(NEGATIVE))],
)
def test_negative(battery_engine, battery_report, sql, error_name):
    try:
        with pytest.raises(FlockError) as excinfo:
            battery_engine.execute(sql)
        actual = type(excinfo.value).__name__
        assert actual == error_name, (
            f"{sql!r}: expected {error_name}, got {actual}: {excinfo.value}"
        )
        assert str(excinfo.value), f"{sql!r}: empty error message"
    except Exception as exc:
        battery_report.append(
            {"sql": sql, "status": f"{type(exc).__name__}: {exc}"}
        )
        raise
    battery_report.append({"sql": sql, "status": "ok"})


def test_battery_size():
    # The floors the issue sets; keep them pinned so the corpus never
    # silently shrinks.
    assert len(POSITIVE) + len(RESULT_CHECKED) >= 300
    assert len(NEGATIVE) >= 50
