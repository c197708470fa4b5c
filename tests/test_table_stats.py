"""Per-column statistics on demand, against the eager computation.

``TableVersion.stats().column(c)`` summarises one column on its first
request; a single-column primary key takes ``ColumnStats.from_vector(...,
unique=True)``, which skips the sort/hash. Every value must equal the eager
``ColumnStats.from_vector(vector)`` (no key shortcut) on every column of
every version, so no plan can change.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flock.db import Database
from flock.db.encoding import (
    BitPackedVector,
    DictionaryVector,
    encode_bitpacked,
)
from flock.db.storage import ColumnStats
from flock.db.types import DataType
from flock.db.vector import ColumnVector
from flock.observability.metrics import metrics
from flock.workloads import create_tpch_schema, generate_tpch_data


@pytest.fixture(autouse=True)
def _force_index_paths(monkeypatch):
    # The EXPLAIN check needs index access paths whatever FLOCK_INDEXES is.
    monkeypatch.delenv("FLOCK_INDEXES", raising=False)


def _computed() -> float:
    return metrics().counter("stats.columns_computed").value


def _same(a: ColumnStats, b: ColumnStats) -> bool:
    """Field equality where a NaN bound equals a NaN bound."""
    def eq(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return (math.isnan(x) and math.isnan(y)) or x == y
        return x == y and type(x) is type(y)

    return all(
        eq(getattr(a, f), getattr(b, f))
        for f in ("null_count", "distinct_count", "min_value", "max_value")
    )


def _assert_version_matches(table, version) -> None:
    stats = version.stats()
    assert stats.row_count == version.row_count
    for column, vector in zip(table.schema.columns, version.columns):
        lazy = stats.column(column.name)
        assert _same(lazy, ColumnStats.from_vector(vector)), (
            table.name, column.name, type(vector).__name__,
        )
        # Cached: the same object on every later request, any spelling.
        assert stats.column(column.name.upper()) is lazy
    assert stats.column("no_such_column") is None


# ----------------------------------------------------------------------
# TPC-H, plain and encoded
# ----------------------------------------------------------------------
@pytest.mark.parametrize("encodings", [False, True])
def test_tpch_columns_equal_eager(monkeypatch, encodings):
    monkeypatch.setenv("FLOCK_ENCODINGS", str(int(encodings)))
    database = Database()
    create_tpch_schema(database)
    generate_tpch_data(database, scale=0.001, seed=7)
    packed_keys = 0
    for name in database.catalog.table_names():
        table = database.catalog.table(name)
        for version in table.versions():
            _assert_version_matches(table, version)
        pk = table.schema.primary_key_indexes
        if len(pk) == 1 and isinstance(
            table.head_version.columns[pk[0]], BitPackedVector
        ):
            packed_keys += 1
    # The encoded run reaches the bit-packed key branch, the one a bulk
    # load leaves behind.
    assert (packed_keys > 0) == encodings


# ----------------------------------------------------------------------
# Write chains on the ingest schema
# ----------------------------------------------------------------------
def _ingest(database: Database, rows: int) -> None:
    database.execute(
        "CREATE TABLE orders (o_id INTEGER PRIMARY KEY, "
        "o_cust INTEGER NOT NULL, o_status TEXT, o_total FLOAT, "
        "o_qty INTEGER)"
    )
    database.execute("CREATE INDEX orders_cust ON orders (o_cust)")
    database.executemany(
        "INSERT INTO orders VALUES (?, ?, ?, ?, ?)",
        [
            (k, k % 97, "OFP"[k % 3], None if k % 11 == 0 else k * 1.25,
             k % 50)
            for k in range(1, rows + 1)
        ],
    )


@pytest.mark.parametrize("encodings", [False, True])
def test_write_chains_equal_eager(monkeypatch, encodings):
    monkeypatch.setenv("FLOCK_ENCODINGS", str(int(encodings)))
    database = Database()
    _ingest(database, 3000)
    table = database.catalog.table("orders")
    statements = [
        ("INSERT INTO orders VALUES (?, ?, ?, ?, ?)", (5001, 3, "O", 9.5, 1)),
        ("UPDATE orders SET o_total = ? WHERE o_id = ?", (1.5, 17)),
        ("SELECT * FROM orders WHERE o_id = ?", (17,)),
        ("DELETE FROM orders WHERE o_id = ?", (5001,)),
        ("UPDATE orders SET o_status = NULL WHERE o_cust < ?", (5,)),
        ("DELETE FROM orders WHERE o_qty = ?", (7,)),
        ("UPDATE orders SET o_id = o_id + 10000 WHERE o_id < ?", (40,)),
        (
            "SELECT o_status, COUNT(*) FROM orders WHERE o_cust < 500 "
            "GROUP BY o_status",
            None,
        ),
    ]
    for sql, params in statements:
        database.execute(sql, params)
        _assert_version_matches(table, table.head_version)
    database.executemany(
        "INSERT INTO orders VALUES (?, ?, ?, ?, ?)",
        [(6000 + i, i, "F", float(i), i) for i in range(100)],
    )
    for version in table.versions():
        _assert_version_matches(table, version)


def test_point_read_summarises_only_the_key():
    database = Database()
    _ingest(database, 2000)
    database.execute("INSERT INTO orders VALUES (9001, 1, 'O', 1.0, 1)")
    before = _computed()
    plan = database.explain(
        "SELECT * FROM orders WHERE o_id = ?", params=[9001]
    )
    assert "IndexLookup" in plan and "index=orders_pkey" in plan
    assert _computed() - before == 1
    # A range filter has no equality candidate: no column is summarised.
    database.execute("INSERT INTO orders VALUES (9002, 1, 'O', 1.0, 1)")
    before = _computed()
    database.execute(
        "SELECT o_status, COUNT(*) FROM orders WHERE o_cust < 500 "
        "GROUP BY o_status"
    )
    assert _computed() == before


def test_concurrent_column_requests_agree():
    database = Database()
    _ingest(database, 5000)
    version = database.catalog.table("orders").head_version
    names = [c.name for c in version.schema.columns]
    results: list[dict] = []
    barrier = threading.Barrier(6, timeout=30)

    def worker(order):
        barrier.wait()
        stats = version.stats()
        results.append({n: stats.column(n) for n in order})

    threads = [
        threading.Thread(target=worker, args=(names[i % 5:] + names[:i % 5],))
        for i in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 6
    for name, vector in zip(names, version.columns):
        eager = ColumnStats.from_vector(vector)
        assert all(_same(r[name], eager) for r in results), name
    # Whoever lost a race, the version now serves one cached value.
    stats = version.stats()
    assert all(stats.column(n) is stats.column(n) for n in names)


# ----------------------------------------------------------------------
# The key shortcut itself, on every branch of from_vector
# ----------------------------------------------------------------------
_UNIQUE_VALUES = {
    DataType.INTEGER: st.integers(-(1 << 40), 1 << 40),
    DataType.FLOAT: st.one_of(
        st.sampled_from([0.0, float("nan"), float("inf"), -1.5]),
        st.floats(allow_nan=True),
    ),
    DataType.TEXT: st.text(max_size=4),
    DataType.BOOLEAN: st.booleans(),
    DataType.DATE: st.integers(-30000, 60000),
}


def _as_kind(vector: ColumnVector, kind: str) -> ColumnVector:
    if kind == "dictionary":
        present = vector.values[~vector.nulls]
        dictionary = np.unique(present) if len(present) else present
        codes = np.full(len(vector), -1, dtype=np.int32)
        codes[~vector.nulls] = np.searchsorted(dictionary, present)
        return DictionaryVector(vector.dtype, codes, dictionary)
    if kind == "bitpacked":
        return encode_bitpacked(vector) or vector
    return vector


@st.composite
def unique_columns(draw):
    dtype = draw(st.sampled_from(list(_UNIQUE_VALUES)))
    kind = "plain"
    if dtype is DataType.TEXT:
        kind = draw(st.sampled_from(["plain", "dictionary"]))
    elif dtype in (DataType.INTEGER, DataType.DATE):
        kind = draw(st.sampled_from(["plain", "bitpacked"]))
    values = draw(st.lists(_UNIQUE_VALUES[dtype], max_size=25, unique=True))
    # Deleted rows leave NULL-free gaps; NULLs themselves are legal in
    # from_vector's input even if a key never holds one.
    if values and draw(st.booleans()):
        values.insert(draw(st.integers(0, len(values))), None)
    if dtype is DataType.DATE:
        vector = ColumnVector.from_values(DataType.INTEGER, values)
        vector = ColumnVector(DataType.DATE, vector.values, vector.nulls)
    else:
        vector = ColumnVector.from_values(dtype, values)
    return _as_kind(vector, kind)


@settings(deadline=None, max_examples=300)
@given(unique_columns())
def test_unique_shortcut_equals_eager(vector):
    assert _same(
        ColumnStats.from_vector(vector, unique=True),
        ColumnStats.from_vector(vector),
    )


def test_float_key_with_many_nans_counts_them_once():
    vector = ColumnVector.from_values(
        DataType.FLOAT, [float("nan"), 1.0, float("nan")]
    )
    eager = ColumnStats.from_vector(vector)
    assert eager.distinct_count == 2
    assert _same(ColumnStats.from_vector(vector, unique=True), eager)
    database = Database()
    database.execute("CREATE TABLE f (k FLOAT PRIMARY KEY)")
    database.executemany(
        "INSERT INTO f VALUES (?)", [[float("nan")], [1.0], [float("nan")]]
    )
    table = database.catalog.table("f")
    _assert_version_matches(table, table.head_version)
