"""The primary-key check against the row-at-a-time loop it replaced.

``Table._check_primary_key`` runs one ``grouping.key_codes`` pass over the
key columns. The reference here is the loop storage used to carry: Python
tuples of user-facing values in a set, so Python ``==`` decides (``0.0 ==
-0.0``, every NaN distinct) and the first violating row in row order —
NULL or repeat — names the error. The kernel must agree on accept/reject
and on the exact message, over every key type and encoding a table holds.

An INSERT first tries the delta check (``Table._fresh_keys_clear``): the
fresh keys alone against the automatic key index, when that index reflects
exactly the base version. It must agree with the same reference over base
plus fresh rows, and fall back to the full pass whenever it cannot tell.

``FLOCK_PKEY_EXAMPLES`` raises the example count (CI runs it at depth).
"""

from __future__ import annotations

import datetime
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flock.db import Database
from flock.db.encoding import DictionaryVector
from flock.db.schema import Column, TableSchema
from flock.db.storage import Table
from flock.db.types import DataType
from flock.db.vector import ColumnVector
from flock.errors import ConstraintError
from flock.observability.metrics import metrics

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


# ----------------------------------------------------------------------
# The delta check: fresh keys probed against the key index
# ----------------------------------------------------------------------
#: How the base version relates to the key index when fresh rows arrive.
#: Only "current" and "indexes_off" leave the index reflecting the base.
_BASE_MODES = (
    "current", "indexes_off", "stale_delete", "staged_base", "never_built",
)


@st.composite
def delta_cases(draw):
    """One key kind, distinct committed keys split into a base load and a
    later append, fresh keys mixing new values, repeats of committed keys,
    repeats among themselves and NULLs, and a base mode."""
    dtype, encode = draw(st.sampled_from(_COLUMN_KINDS))
    pool = draw(st.lists(_VALUES[dtype], max_size=20, unique=True))
    split = draw(st.integers(0, len(pool)))
    fresh: list = []
    for _ in range(draw(st.integers(0, 6))):
        roll = draw(st.integers(0, 9))
        if roll == 0:
            fresh.append(None)
        elif roll <= 2 and pool:
            fresh.append(draw(st.sampled_from(pool)))
        elif roll == 3 and fresh:
            fresh.append(draw(st.sampled_from(fresh)))
        else:
            fresh.append(draw(_VALUES[dtype]))
    mode = draw(st.sampled_from(_BASE_MODES))
    return dtype, encode, pool[:split], pool[split:], fresh, mode


def _key_vector(dtype, encode, values) -> ColumnVector:
    vector = ColumnVector.from_values(dtype, values)
    return _dictionary_encode(vector) if encode else vector


def _commit(database, stage) -> None:
    txn = database.transactions.begin()
    txn.stage("t", stage(txn.visible_version("t")))
    database.transactions.commit(txn)


def _checks() -> tuple[float, float]:
    registry = metrics()
    return (
        registry.counter("pkey.delta_checks").value,
        registry.counter("pkey.full_checks").value,
    )


@settings(deadline=None, max_examples=EXAMPLES)
@given(delta_cases())
def test_delta_check_matches_reference(case):
    dtype, encode, base, later, fresh, mode = case
    # Python equality decides uniqueness: the committed keys must pass.
    assume(_outcome(reference_check, "t", [
        ColumnVector.from_values(dtype, base + later)
    ]) is None)
    database = Database()
    if mode == "indexes_off":
        database.execute("SET flock.indexes = 0")
    table = database.catalog.create_table(
        TableSchema.of("t", [Column("k", dtype, primary_key=True)])
    )
    _commit(database, lambda v: table.build_append(
        [_key_vector(dtype, encode, base)], v
    ))
    index = table.index("t_pkey")
    if mode != "never_built":
        index.lookup(table.head_version, [])
    committed = base + later
    if mode == "staged_base":
        # A transaction's own staged version: never the head.
        txn = database.transactions.begin()
        target = table.build_append(
            [_key_vector(dtype, encode, later)], txn.visible_version("t")
        )
        txn.stage("t", target)
    else:
        # A real commit advances the index across the INSERT.
        _commit(database, lambda v: table.build_append(
            [_key_vector(dtype, encode, later)], v
        ))
        if mode == "stale_delete":
            keep = np.ones(len(committed), dtype=bool)
            keep[:1] = False
            _commit(database, lambda v: table.build_delete(keep, v))
            committed = committed[1:]
        target = table.head_version
    if mode in ("current", "indexes_off"):
        assert index.version_id == target.version_id
    else:
        assert index.version_id != target.version_id

    before = _checks()
    outcome = _outcome(
        table.build_append, [_key_vector(dtype, encode, fresh)], target
    )
    after = _checks()
    assert outcome == _outcome(reference_check, "t", [
        ColumnVector.from_values(dtype, committed + fresh)
    ])
    fast = mode in ("current", "indexes_off") and outcome is None
    assert (after[0] - before[0], after[1] - before[1]) == (
        (1, 0) if fast else (0, 1)
    )


def _sql_keyed(database: Database) -> None:
    database.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    database.executemany(
        "INSERT INTO t VALUES (?, ?)", [(i, f"v{i}") for i in range(200)]
    )


def test_sql_inserts_take_the_delta_check_while_the_index_is_current():
    database = Database()
    _sql_keyed(database)
    index = database.catalog.table("t").index("t_pkey")
    # The bulk load ran before any lookup built the index: full pass.
    assert index.version_id == -1
    index.lookup(database.catalog.table("t").head_version, [])
    before = _checks()
    database.execute("INSERT INTO t VALUES (?, ?)", [500, "new"])
    database.executemany(
        "INSERT INTO t VALUES (?, ?)", [(501, "a"), (502, "b")]
    )
    assert _checks() == (before[0] + 2, before[1])
    # Rejections fall through to the full pass and its exact wording.
    with pytest.raises(ConstraintError) as dup:
        database.execute("INSERT INTO t VALUES (?, ?)", [7, "again"])
    assert str(dup.value) == "duplicate primary key (7,) in table 't'"
    assert _checks() == (before[0] + 2, before[1] + 1)
    # A DELETE leaves the index stale; the INSERT after it pays the full
    # pass and does not rebuild the index.
    database.execute("DELETE FROM t WHERE k = 3")
    stale = index.version_id
    database.execute("INSERT INTO t VALUES (3, 'back')")
    assert index.version_id == stale
    assert _checks() == (before[0] + 2, before[1] + 2)
    assert database.execute("SELECT v FROM t WHERE k = 3").rows() == [
        ("back",)
    ]


def test_wal_replay_keeps_the_full_check(tmp_path):
    durable = Database.open(tmp_path / "db")
    _sql_keyed(durable)
    durable.execute("SELECT v FROM t WHERE k = 5")
    durable.execute("INSERT INTO t VALUES (900, 'x')")
    durable.close()
    before = _checks()
    reopened = Database.open(tmp_path / "db")
    delta, full = _checks()
    assert delta == before[0] and full > before[1]
    duplicate = r"duplicate primary key \(900,\)"
    with pytest.raises(ConstraintError, match=duplicate):
        reopened.execute("INSERT INTO t VALUES (900, 'y')")
    reopened.close()
