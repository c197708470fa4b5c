"""The column binder against the per-value binder it replaced.

``binder.bind_insert_values`` builds each INSERT column with one vector
call when its Python types fit the column type, and value by value
otherwise, and ``binder.insert_select_columns`` coerces each SELECT
column value by value. The reference here is the row-major loop each
replaced: per
parameter row, per template row, per slot, ``Binder._parameter_value`` then
``coerce_value`` (for INSERT ... SELECT, per SELECT row and slot), and
the rows then stored by the per-value
``ColumnVector.from_values`` loop. Over columns of mixed Python types the
two must agree bit for bit on values and nulls, or raise the same error
(class and message) — the one the row-major loop meets first.

``FLOCK_BIND_EXAMPLES`` raises the example count (CI runs it at depth).
"""

from __future__ import annotations

import datetime
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flock.db import Database
from flock.db.binder import (
    Binder,
    _fold_insert_expr,
    bind_insert_values,
    insert_select_columns,
)
from flock.db.sql import ast_nodes as ast
from flock.db.sql.parser import parse_statement
from flock.db.types import DataType, coerce_value
from flock.db.vector import Batch, ColumnVector, _zero_of

EXAMPLES = int(os.environ.get("FLOCK_BIND_EXAMPLES", "100"))

TYPES = [DataType.INTEGER, DataType.FLOAT, DataType.TEXT, DataType.BOOLEAN,
         DataType.DATE]
DDL = "CREATE TABLE t (i INTEGER, f FLOAT, s TEXT, b BOOLEAN, d DATE)"

#: One strategy per kind of Python value; a column draws from a few kinds.
KINDS = {
    "int": st.one_of(
        st.sampled_from([
            0, 1, -1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, 2**63,
            -(2**63), -(2**63) - 1, 2**64, 10**400,
        ]),
        st.integers(-(2**64), 2**64),
    ),
    "float": st.one_of(
        st.sampled_from([0.0, -0.0, float("nan"), float("inf"),
                         float("-inf"), 1.5, 1e20, 2.0**63]),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    "bool": st.booleans(),
    "numpy": st.one_of(
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.floats(allow_nan=True).map(np.float64),
        st.booleans().map(np.bool_),
    ),
    "text": st.one_of(
        st.sampled_from(["", "a", "é", "north"]), st.text(max_size=4)
    ),
    "date_text": st.one_of(
        st.sampled_from([
            "2024-01-01", "1970-01-01", "1969-12-31", "0001-01-01",
            "9999-12-31", "20240101", "2024-W01-1", "2024-02-30",
            "0000-01-01", "2024-1-01", "2024-01-01T00:00", "2024-02-29",
        ]),
        st.dates().map(datetime.date.isoformat),
    ),
    "date": st.dates(),
    "none": st.none(),
}

#: (sql, columns) shapes: one template, a reordered subset, two templates
#: with a constant and an expression slot.
SHAPES = [
    "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
    "INSERT INTO t (d, s, i) VALUES (?, ?, ?)",
    "INSERT INTO t VALUES (?, ?, ?, ?, ?), (?, 1.5, 'k', ?, ?)",
    "INSERT INTO t (i, f, d) VALUES (? + 0, ?, ?)",
]


def _column(n):
    """A column of *n* values drawn from one to three kinds."""
    kinds = st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=3,
                     unique=True)
    return kinds.flatmap(
        lambda chosen: st.lists(
            st.one_of([KINDS[k] for k in chosen]), min_size=n, max_size=n
        )
    )


@st.composite
def parameter_rows(draw, width):
    n = draw(st.integers(1, 12))
    columns = [draw(_column(n)) for _ in range(width)]
    return [list(row) for row in zip(*columns)]


def reference_from_values(dtype, items):
    """The per-value ``ColumnVector.from_values`` loop."""
    n = len(items)
    nulls = np.zeros(n, dtype=bool)
    storage = np.empty(n, dtype=dtype.numpy_dtype)
    if dtype.numpy_dtype != np.dtype(object):
        storage[:] = _zero_of(dtype)
    for i, item in enumerate(items):
        coerced = coerce_value(item, dtype)
        if coerced is None:
            nulls[i] = True
        else:
            storage[i] = coerced
    return ColumnVector(dtype, storage, nulls)


def reference_bind(db, statement, param_rows):
    """The row-major binder: full-width rows, then per-value columns."""
    schema = db.resolve_table(statement.table)
    positions = (
        [schema.index_of(c) for c in statement.columns]
        if statement.columns else list(range(len(schema)))
    )
    binder = Binder(db, None)
    templates = []
    for row in statement.rows:
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
    return [
        reference_from_values(col.dtype, [row[i] for row in rows])
        for i, col in enumerate(schema.columns)
    ]


def _outcome(build):
    try:
        return "ok", build()
    except Exception as exc:  # the reference raises ValueError too
        return "error", (type(exc), str(exc))


def _same_vector(left: ColumnVector, right: ColumnVector) -> bool:
    if left.dtype is not right.dtype or left.values.dtype != right.values.dtype:
        return False
    if not np.array_equal(left.nulls, right.nulls):
        return False
    if left.values.dtype == np.dtype(object):
        return [(type(v), v) for v in left.values.tolist()] == [
            (type(v), v) for v in right.values.tolist()
        ]
    return left.values.tobytes() == right.values.tobytes()


def _assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    assert len(got[1]) == len(want[1])
    for left, right in zip(got[1], want[1]):
        assert _same_vector(left, right), (left, right)


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.execute(DDL)
    return database


@pytest.mark.parametrize("sql", SHAPES)
@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_column_binder_matches_row_major_reference(db, sql, data):
    statement = parse_statement(sql)
    width = sql.count("?")
    rows = data.draw(parameter_rows(width))
    got = _outcome(lambda: bind_insert_values(db, statement, rows))
    want = _outcome(lambda: reference_bind(db, statement, rows))
    _assert_same(got, want)


@pytest.mark.parametrize("dtype", TYPES)
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_from_values_matches_per_value_loop(dtype, data):
    items = data.draw(st.integers(0, 12).flatmap(_column))
    got = _outcome(lambda: [ColumnVector.from_values(dtype, items)])
    want = _outcome(lambda: [reference_from_values(dtype, items)])
    _assert_same(got, want)


def test_vector_path_is_taken_for_plain_columns(monkeypatch):
    """The column binder never falls back for columns of plain types."""
    from flock.db import binder, types, vector

    calls = []
    original = types.coerce_value

    def counting(value, dtype):
        calls.append(value)
        return original(value, dtype)

    monkeypatch.setattr(vector, "coerce_value", counting)
    monkeypatch.setattr(binder, "coerce_value", counting)
    monkeypatch.setattr(
        binder.Binder, "_parameter_value",
        lambda self, index: calls.append(index),
    )
    database = Database()
    database.execute(DDL)
    rows = [[i, i * 0.5, f"r{i}", i % 2 == 0,
             "2024-01-0" + str(1 + i % 9)] for i in range(50)]
    rows[3] = [None] * 5
    database.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", rows)
    assert calls == []
    assert database.execute("SELECT COUNT(*) FROM t").rows() == [(50,)]


@pytest.mark.parametrize("text", [
    "0000-01-01", "0001-01-01", "9999-12-31", "2024-02-29", "2023-02-29",
    "2024-02-30", "2024-13-01", "2024-00-10", "20240101", "2024-W01-1",
    "2024-1-01", "2024-01-01T00:00", "2024-01-0\x00", "２０２４-01-01",
    "2024/01/01", " 2024-01-1",
])
def test_date_text_beside_canonical_dates(text):
    """A DATE column of canonical text takes the vector path only when
    every string is one ``date.fromisoformat`` reads the same way."""
    items = ["2024-01-01", None, text]
    got = _outcome(lambda: [ColumnVector.from_values(DataType.DATE, items)])
    want = _outcome(lambda: [reference_from_values(DataType.DATE, items)])
    _assert_same(got, want)


#: Values a SELECT column of each type can hold (TEXT includes strings a
#: DATE or FLOAT target must refuse or parse).
SELECT_VALUES = {
    DataType.INTEGER: st.one_of(
        st.sampled_from([0, -1, 2**53 + 1, 2**63 - 1, -(2**63)]),
        st.integers(-(2**63), 2**63 - 1),
    ),
    DataType.FLOAT: KINDS["float"],
    DataType.TEXT: st.one_of(KINDS["text"], KINDS["date_text"]),
    DataType.BOOLEAN: st.booleans(),
    DataType.DATE: st.dates(),
}


@st.composite
def select_sources(draw):
    """An ``INSERT INTO t (...)`` column list and a SELECT batch for it."""
    targets = draw(st.permutations(["i", "f", "s", "b", "d"]))
    targets = targets[:draw(st.integers(1, 5))]
    n = draw(st.integers(0, 12))
    columns = []
    for _ in targets:
        dtype = draw(st.sampled_from(TYPES))
        values = draw(st.lists(st.one_of(st.none(), SELECT_VALUES[dtype]),
                               min_size=n, max_size=n))
        columns.append(ColumnVector.from_values(dtype, values))
    return targets, Batch([f"c{i}" for i in range(len(targets))], columns)


def reference_insert_select(db, statement, source):
    """The per-row loop: full-width rows coerced slot by slot, then
    per-value columns."""
    schema = db.resolve_table(statement.table)
    positions = [schema.index_of(c) for c in statement.columns]
    rows = []
    for values in source.rows():
        full = [None] * len(schema)
        for position, value in zip(positions, values):
            full[position] = coerce_value(value, schema.columns[position].dtype)
        rows.append(full)
    return [
        reference_from_values(col.dtype, [row[i] for row in rows])
        for i, col in enumerate(schema.columns)
    ]


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=select_sources())
def test_insert_select_matches_row_major_reference(db, source):
    targets, batch = source
    statement = parse_statement(
        f"INSERT INTO t ({', '.join(targets)}) SELECT 1"
    )
    got = _outcome(lambda: insert_select_columns(db, statement, batch))
    want = _outcome(lambda: reference_insert_select(db, statement, batch))
    _assert_same(got, want)
