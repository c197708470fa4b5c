"""The primary-key check against the row-at-a-time loop it replaced.

``Table._check_primary_key`` runs one ``grouping.key_codes`` pass over the
key columns. The reference here is the loop storage used to carry: Python
tuples of user-facing values in a set, so Python ``==`` decides (``0.0 ==
-0.0``, every NaN distinct) and the first violating row in row order —
NULL or repeat — names the error. The kernel must agree on accept/reject
and on the exact message, over every key type and encoding a table holds.

``FLOCK_PKEY_EXAMPLES`` raises the example count (CI runs it at depth).
"""

from __future__ import annotations

import datetime
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flock.db import Database
from flock.db.encoding import DictionaryVector
from flock.db.schema import Column, TableSchema
from flock.db.storage import Table
from flock.db.types import DataType
from flock.db.vector import ColumnVector
from flock.errors import ConstraintError

EXAMPLES = int(os.environ.get("FLOCK_PKEY_EXAMPLES", "200"))

#: Small pools so keys repeat, beside wide draws so unique keys occur too.
_VALUES = {
    DataType.INTEGER: st.one_of(
        st.sampled_from([0, 1, -1, 7]),
        st.integers(-(1 << 63), (1 << 63) - 1),
    ),
    DataType.FLOAT: st.one_of(
        st.sampled_from([0.0, -0.0, 1.5, float("nan"), float("inf")]),
        st.floats(allow_nan=True),
    ),
    DataType.TEXT: st.one_of(
        st.sampled_from(["", "a", "b"]), st.text(max_size=4)
    ),
    DataType.DATE: st.one_of(
        st.sampled_from(
            [datetime.date(1970, 1, 1), datetime.date(1992, 2, 29)]
        ),
        st.dates(datetime.date(1900, 1, 1), datetime.date(2100, 1, 1)),
    ),
    DataType.BOOLEAN: st.booleans(),
}

#: (dtype, dictionary-encode?) — TEXT appears both plain and encoded.
_COLUMN_KINDS = [(d, False) for d in _VALUES] + [(DataType.TEXT, True)]


def reference_check(name, columns):
    """The former ``_check_primary_key``: a set of per-row key tuples."""
    key_lists = [c.to_pylist() for c in columns]
    seen: set[tuple] = set()
    for key in zip(*key_lists):
        if None in key:
            raise ConstraintError(f"NULL in primary key of table {name!r}")
        if key in seen:
            raise ConstraintError(
                f"duplicate primary key {key!r} in table {name!r}"
            )
        seen.add(key)


def _dictionary_encode(vector: ColumnVector) -> DictionaryVector:
    present = vector.values[~vector.nulls]
    dictionary = np.unique(present) if len(present) else present
    codes = np.full(len(vector), -1, dtype=np.int32)
    codes[~vector.nulls] = np.searchsorted(dictionary, present)
    return DictionaryVector(vector.dtype, codes, dictionary)


@st.composite
def key_columns(draw):
    """Key columns of one to three types, optionally with a row copied to
    a later position (a duplicate) and a NULL placed anywhere — before or
    after that duplicate."""
    kinds = draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1,
                          max_size=3))
    n = draw(st.integers(0, 30))
    rows = [[draw(_VALUES[dtype]) for dtype, _ in kinds] for _ in range(n)]
    position = st.integers(0, n - 1)
    if n >= 2 and draw(st.booleans()):
        first, later = sorted(
            draw(st.lists(position, min_size=2, max_size=2, unique=True))
        )
        rows[later] = list(rows[first])
    if n and draw(st.booleans()):
        column = draw(st.integers(0, len(kinds) - 1))
        rows[draw(position)][column] = None
    columns = []
    for c, (dtype, encode) in enumerate(kinds):
        vector = ColumnVector.from_values(dtype, [row[c] for row in rows])
        columns.append(_dictionary_encode(vector) if encode else vector)
    return columns


def _outcome(check, *args):
    try:
        check(*args)
    except ConstraintError as exc:
        return str(exc)
    return None


@settings(deadline=None, max_examples=EXAMPLES)
@given(key_columns())
def test_check_matches_set_loop(columns):
    schema = TableSchema.of(
        "t",
        [
            Column(f"k{i}", c.dtype, primary_key=True)
            for i, c in enumerate(columns)
        ],
    )
    table = Table(schema)
    assert _outcome(table._check_primary_key, columns) == _outcome(
        reference_check, "t", columns
    )


@pytest.mark.parametrize(
    "values, message",
    [
        ([1.0, -0.0, 0.0], "duplicate primary key (0.0,) in table 't'"),
        ([float("nan"), float("nan")], None),
        ([None, 1.0, 1.0], "NULL in primary key of table 't'"),
        ([1.0, 1.0, None], "duplicate primary key (1.0,) in table 't'"),
    ],
)
def test_float_keys_and_first_violation(values, message):
    column = ColumnVector.from_values(DataType.FLOAT, values)
    table = Table(
        TableSchema.of("t", [Column("k", DataType.FLOAT, primary_key=True)])
    )
    assert _outcome(table._check_primary_key, [column]) == message


# ----------------------------------------------------------------------
# UPDATEs that write the key column, through SQL
# ----------------------------------------------------------------------
def _keyed(database: Database) -> None:
    database.execute(
        "CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT PRIMARY KEY, v INTEGER)"
    )
    database.executemany(
        "INSERT INTO t VALUES (?, ?, ?)",
        [(i, f"b{i % 3}", i) for i in range(30)],
    )


def test_key_update_creating_duplicate_is_rejected():
    database = Database()
    _keyed(database)
    before = database.execute("SELECT * FROM t ORDER BY a, b").rows()
    head = database.catalog.table("t").head_version.version_id
    duplicate = r"duplicate primary key \(3, 'b0'\)"
    with pytest.raises(ConstraintError, match=duplicate):
        database.execute("UPDATE t SET a = 3 WHERE a = 6")
    assert database.execute("SELECT * FROM t ORDER BY a, b").rows() == before
    assert database.catalog.table("t").head_version.version_id == head


def test_non_key_update_skips_check_and_key_update_runs_it(monkeypatch):
    database = Database()
    _keyed(database)
    calls = []
    table = database.catalog.table("t")
    check = table._check_primary_key
    monkeypatch.setattr(
        table,
        "_check_primary_key",
        lambda columns: calls.append(1) or check(columns),
    )
    database.execute("UPDATE t SET v = v + 1 WHERE a < 5")
    assert calls == []
    database.execute("UPDATE t SET b = 'z' WHERE a = 4")
    assert calls == [1]


def test_valid_key_update_survives_wal_replay(tmp_path):
    durable = Database.open(tmp_path / "db")
    _keyed(durable)
    durable.execute("UPDATE t SET a = a + 100 WHERE v >= 20")
    durable.execute("UPDATE t SET v = -v WHERE a = 1")
    expected = durable.execute("SELECT * FROM t ORDER BY a, b").rows()
    durable.close()
    reopened = Database.open(tmp_path / "db")
    assert reopened.wal.last_recovery.commits_replayed > 0
    rows = reopened.execute("SELECT * FROM t ORDER BY a, b").rows()
    assert rows == expected
    assert reopened.execute("SELECT v FROM t WHERE a = 125").rows() == [(25,)]
    with pytest.raises(ConstraintError):
        reopened.execute("INSERT INTO t VALUES (125, 'b1', 0)")
    reopened.close()
