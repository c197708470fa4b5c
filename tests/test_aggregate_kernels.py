"""The aggregate kernels against the per-group reducers they replaced.

``flock.db.exec.aggregate`` computes every aggregate as one vector pass
over group codes. The reference reducers below are the engine's former
``AggregateFunction.reduce`` implementations — one Python call per group
— restated with the semantics the kernels define:

- FLOAT SUM is ``math.fsum`` (the exact sum rounded once; NaN, or both
  infinities, give NaN; an exact sum beyond float64 is an infinity), and
  AVG is that sum over the count;
- INTEGER SUM is exact and raises rather than leave int64; AVG of INTEGER
  is the exact sum over the count, rounded once;
- DISTINCT keeps one value per key-kernel class (Python ``==``: NaN equals
  nothing, ``0.0 == -0.0``) and does not change MIN or MAX;
- MIN of ``{0.0, -0.0}`` is ``-0.0``, MAX is ``0.0``; NaN wins both;
- STDDEV is ``sqrt(fsum((x - mean)**2) / (n - 1))`` with the fsum mean.

Every result must match the reference to the bit and must not change
under a permutation of the rows. ``FLOCK_AGG_EXAMPLES`` raises the example
count (CI runs it at depth).
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flock
from flock.db import functions as fn
from flock.db.encoding import DictionaryVector
from flock.db.exec.aggregate import aggregate_columns, group_sum
from flock.db.expr import BoundColumn
from flock.db.plan import AggregateSpec
from flock.db.types import DataType
from flock.db.vector import Batch, ColumnVector
from flock.errors import ExecutionError
from flock.workloads import (
    TPCH_FAITHFUL,
    create_tpch_schema,
    generate_tpch_data,
    tpch_params,
)

EXAMPLES = int(os.environ.get("FLOCK_AGG_EXAMPLES", "200"))

_INT64 = (-(1 << 63), (1 << 63) - 1)


# ----------------------------------------------------------------------
# Reference reducers (one call per group)
# ----------------------------------------------------------------------
def _present(values: list, distinct: bool) -> list:
    present = [v for v in values if v is not None]
    return list(dict.fromkeys(present)) if distinct else present


def reference_fsum(values: list[float]) -> float:
    if any(math.isnan(v) for v in values):
        return math.nan
    pos, neg = math.inf in values, -math.inf in values
    if pos and neg:
        return math.nan
    if pos or neg:
        return math.inf if pos else -math.inf
    try:
        return math.fsum(values)
    except OverflowError:  # an intermediate partial overflowed
        exact = sum(Fraction(v) for v in values)
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


def _count_reduce(values: list, dtype: DataType, distinct: bool):
    return len(_present(values, distinct))


def _sum_reduce(values: list, dtype: DataType, distinct: bool):
    present = _present(values, distinct)
    if not present:
        return None
    if dtype is DataType.FLOAT:
        return reference_fsum(present)
    total = sum(present)
    if not _INT64[0] <= total <= _INT64[1]:
        raise ExecutionError("integer SUM out of range")
    return total


def _avg_reduce(values: list, dtype: DataType, distinct: bool):
    present = _present(values, distinct)
    if not present:
        return None
    if dtype is DataType.FLOAT:
        return reference_fsum(present) / len(present)
    return sum(present) / len(present)


def _minmax_reduce(fn_name: str):
    def reduce(values: list, dtype: DataType, distinct: bool):
        present = _present(values, False)
        if not present:
            return None
        if dtype is DataType.FLOAT:
            if any(math.isnan(v) for v in present):
                return math.nan
            best = min(present) if fn_name == "min" else max(present)
            if best == 0:
                negative = any(
                    v == 0 and math.copysign(1.0, v) < 0 for v in present
                )
                positive = any(
                    v == 0 and math.copysign(1.0, v) > 0 for v in present
                )
                if fn_name == "min":
                    return -0.0 if negative else 0.0
                return 0.0 if positive else -0.0
            return best
        return min(present) if fn_name == "min" else max(present)

    return reduce


def _stddev_reduce(values: list, dtype: DataType, distinct: bool):
    present = [float(v) for v in _present(values, distinct)]
    if len(present) < 2:
        return None
    mean = reference_fsum(present) / len(present)
    squares = [(v - mean) * (v - mean) for v in present]
    return math.sqrt(reference_fsum(squares) / (len(present) - 1))


REFERENCE = {
    "COUNT": _count_reduce,
    "SUM": _sum_reduce,
    "AVG": _avg_reduce,
    "MIN": _minmax_reduce("min"),
    "MAX": _minmax_reduce("max"),
    "STDDEV": _stddev_reduce,
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, 0.1,
    0.2, 0.3, 1e16, 1.0, -1.0, math.nan, math.inf, -math.inf,
]
_EDGE_INTS = [
    0, 1, -1, 1 << 62, -(1 << 62), _INT64[0], _INT64[1], (1 << 53) + 1,
]
_VALUES = {
    "FLOAT": st.one_of(
        st.sampled_from(_EDGE_FLOATS),
        st.floats(),
        st.integers(-10**6, 10**6).map(lambda i: i / 100),
    ),
    "INTEGER": st.one_of(
        st.sampled_from(_EDGE_INTS),
        st.integers(*_INT64),
        st.integers(-1000, 1000),
    ),
    "TEXT": st.text(alphabet="abé", max_size=3),
    "DICT": st.sampled_from(["", "a", "b", "ab", "north"]),
    "DATE": st.integers(-3000, 20000),
    "BOOLEAN": st.booleans(),
}
_DTYPES = {
    "FLOAT": DataType.FLOAT,
    "INTEGER": DataType.INTEGER,
    "TEXT": DataType.TEXT,
    "DICT": DataType.TEXT,
    "DATE": DataType.DATE,
    "BOOLEAN": DataType.BOOLEAN,
}
_FUNCS = {
    "FLOAT": ["COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV"],
    "INTEGER": ["COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV"],
}


def _vector(kind: str, values: list) -> ColumnVector:
    if kind != "DICT":
        return ColumnVector.from_values(_DTYPES[kind], values)
    dictionary = sorted({v for v in values if v is not None})
    index = {v: i for i, v in enumerate(dictionary)}
    codes = np.array(
        [-1 if v is None else index[v] for v in values], dtype=np.int32
    )
    return DictionaryVector(
        DataType.TEXT, codes, np.array(dictionary, dtype=object)
    )


def _run(specs, vector: ColumnVector, codes: np.ndarray, n_groups: int):
    bound = [
        AggregateSpec(
            name,
            BoundColumn(0, vector.dtype, "x"),
            distinct,
            f"a{i}",
            fn.AGGREGATE_FUNCTIONS[name].return_type(vector.dtype),
        )
        for i, (name, distinct) in enumerate(specs)
    ]
    columns = aggregate_columns(bound, Batch(["x"], [vector]), codes, n_groups)
    return [column.to_pylist() for column in columns]


def _bits(value):
    """Compare floats by bit pattern (any NaN equals any NaN)."""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else value.hex()
    return (type(value).__name__, value)


def _same(got: list, expected: list) -> bool:
    return [_bits(v) for v in got] == [_bits(v) for v in expected]


@st.composite
def _groups(draw):
    kind = draw(st.sampled_from(sorted(_VALUES)))
    n = draw(st.integers(0, 40))
    n_groups = draw(st.integers(1, 5))
    values = draw(
        st.lists(
            st.one_of(st.none(), _VALUES[kind]), min_size=n, max_size=n
        )
    )
    codes = draw(
        st.lists(st.integers(0, n_groups - 1), min_size=n, max_size=n)
    )
    permutation = draw(st.permutations(range(n)))
    return kind, values, np.array(codes, dtype=np.int64), n_groups, permutation


@settings(max_examples=EXAMPLES, deadline=None)
@given(_groups())
def test_kernels_match_reference_reducers_and_ignore_row_order(case):
    kind, values, codes, n_groups, permutation = case
    vector = _vector(kind, values)
    dtype = vector.dtype
    funcs = _FUNCS.get(kind, ["COUNT", "MIN", "MAX"])
    specs = [(f, d) for f in funcs for d in (False, True)]
    by_group = [
        [v for v, c in zip(vector.to_pylist(), codes) if c == g]
        for g in range(n_groups)
    ]
    expected = {}
    for spec in specs:
        try:
            expected[spec] = [
                REFERENCE[spec[0]](group, dtype, spec[1]) for group in by_group
            ]
        except ExecutionError:
            with pytest.raises(ExecutionError, match="integer SUM out of range"):
                _run([spec], vector, codes, n_groups)
    specs = [s for s in specs if s in expected]
    got = _run(specs, vector, codes, n_groups)
    for spec, column in zip(specs, got):
        assert _same(column, expected[spec]), (spec, column, expected[spec])
    order = np.array(permutation, dtype=np.int64)
    shuffled = _run(specs, vector.take(order), codes[order], n_groups)
    for spec, column, again in zip(specs, got, shuffled):
        assert _same(again, column), (spec, column, again)


@settings(max_examples=max(EXAMPLES // 4, 20), deadline=None)
@given(
    st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()), max_size=300),
    st.randoms(use_true_random=False),
)
def test_group_sum_is_fsum_for_wide_inputs(values, rng):
    """Many rows spanning the whole exponent range take many slabs."""
    array = np.array(values, dtype=np.float64)
    codes = np.array([rng.randrange(3) for _ in values], dtype=np.int64)
    got = group_sum(array, codes, 3).tolist()
    expected = [
        reference_fsum([v for v, c in zip(values, codes) if c == g])
        for g in range(3)
    ]
    assert _same(got, expected)


def test_group_sum_random_prices_match_fsum():
    rng = np.random.default_rng(7)
    values = np.round(rng.uniform(-1e5, 1e5, 20_000), 2)
    codes = rng.integers(0, 50, len(values))
    got = group_sum(values, codes, 50)
    for g in range(50):
        assert got[g].hex() == math.fsum(values[codes == g]).hex()


# ----------------------------------------------------------------------
# Through SQL
# ----------------------------------------------------------------------
#: Ten FLOAT values whose pairwise, sequential and reversed float sums all
#: differ from one another and from the exact sum.
TEN = [
    1000000000000000.2, 500000000000000.75, 1000000000000000.2, 1.5,
    500000000000000.1, 1000000000000000.1, 0.125, 250000000000001.5, 0.25,
    249999999999999.75,
]


def _table(values: list[float]):
    client = flock.connect()
    client.execute("CREATE TABLE t (i INTEGER, g INTEGER, x FLOAT)")
    client.executemany(
        "INSERT INTO t VALUES (?, 1, ?)", list(enumerate(values))
    )
    return client


def test_float_sum_is_one_value_through_group_by_window_and_row_order():
    forward, backward = _table(TEN), _table(TEN[::-1])
    exact = math.fsum(TEN)
    grouped = forward.execute("SELECT SUM(x) FROM t GROUP BY g").scalar()
    window = forward.execute(
        "SELECT SUM(x) OVER (PARTITION BY g) FROM t"
    ).rows()
    running = forward.execute(
        "SELECT i, SUM(x) OVER (PARTITION BY g ORDER BY i) FROM t"
    ).rows()
    reversed_rows = backward.execute(
        "SELECT SUM(x) FROM t GROUP BY g"
    ).scalar()
    assert grouped.hex() == exact.hex()
    assert {row[0].hex() for row in window} == {exact.hex()}
    assert reversed_rows.hex() == exact.hex()
    for i, total in running:
        assert total.hex() == math.fsum(TEN[: i + 1]).hex()
    avg = forward.execute("SELECT AVG(x) FROM t").scalar()
    assert avg.hex() == (exact / len(TEN)).hex()


def test_integer_sum_overflow_raises_instead_of_wrapping():
    client = flock.connect()
    client.execute("CREATE TABLE t (g INTEGER, i INTEGER)")
    client.executemany(
        "INSERT INTO t VALUES (?, ?)",
        [(1, 1 << 62), (1, 1 << 62), (1, 1), (2, 5)],
    )
    for sql in (
        "SELECT SUM(i) FROM t",
        "SELECT g, SUM(i) FROM t GROUP BY g",
        "SELECT SUM(i) OVER (PARTITION BY g) FROM t",
    ):
        with pytest.raises(ExecutionError, match="integer SUM out of range"):
            client.execute(sql)
    assert client.execute("SELECT AVG(i) FROM t WHERE g = 1").scalar() == (
        ((1 << 63) + 1) / 3
    )
    assert client.execute(
        "SELECT SUM(i) FROM t WHERE i < 4611686018427387904"
    ).scalar() == 6
    # A sum that passes 2**63 on the way but ends in range is not an error.
    client.execute("INSERT INTO t VALUES (3, -4611686018427387904)")
    assert client.execute("SELECT SUM(i) FROM t").scalar() == (1 << 62) + 6


def test_distinct_aggregates_use_key_equality():
    client = flock.connect()
    client.execute("CREATE TABLE t (g INTEGER, x FLOAT)")
    client.executemany(
        "INSERT INTO t VALUES (?, ?)",
        [(1, math.nan), (1, math.nan), (1, 1.0), (2, 0.0), (2, -0.0),
         (2, 2.0), (2, 2.0)],
    )
    rows = client.execute(
        "SELECT g, COUNT(DISTINCT x), SUM(DISTINCT x), AVG(DISTINCT x) "
        "FROM t GROUP BY g"
    ).rows()
    distinct = client.execute("SELECT DISTINCT g, x FROM t").rows()
    assert [r[:2] for r in rows] == [(1, 3), (2, 2)]
    assert [sum(1 for d in distinct if d[0] == g) for g in (1, 2)] == [3, 2]
    assert math.isnan(rows[0][2]) and math.isnan(rows[0][3])
    assert rows[1][2:] == (2.0, 1.0)


def test_aggregates_share_only_equal_arguments():
    client = _table(TEN)
    row = client.execute(
        "SELECT SUM(CASE WHEN i < 3 THEN 1 ELSE 0 END), "
        "SUM(CASE WHEN i < 5 THEN 1 ELSE 0 END), "
        "SUM(x), AVG(x), SUM(DISTINCT x), COUNT(x), COUNT(DISTINCT x) FROM t"
    ).rows()[0]
    exact = math.fsum(TEN)
    distinct = math.fsum(dict.fromkeys(TEN))
    assert row == (3, 5, exact, exact / 10, distinct, 10, 9)


# ----------------------------------------------------------------------
# Sharded TPC-H
# ----------------------------------------------------------------------
#: lineitem keyed so that it is distributed across shards (a keyless
#: table is pinned whole to shard 0).
_KEYED_LINEITEM = (
    "CREATE TABLE lineitem (l_orderkey INTEGER PRIMARY KEY, "
    "l_partkey INTEGER NOT NULL, l_suppkey INTEGER NOT NULL, "
    "l_linenumber INTEGER PRIMARY KEY, l_quantity FLOAT, "
    "l_extendedprice FLOAT, l_discount FLOAT, l_tax FLOAT, "
    "l_returnflag TEXT, l_linestatus TEXT, l_shipdate DATE, "
    "l_commitdate DATE, l_receiptdate DATE, l_shipinstruct TEXT, "
    "l_shipmode TEXT, l_comment TEXT)"
)


def _load_tpch(client) -> None:
    create_tpch_schema(client)
    client.execute("DROP TABLE lineitem")
    client.execute(_KEYED_LINEITEM)
    generate_tpch_data(client, scale=0.002, seed=42)


def test_two_shard_tpch_is_repr_identical_to_embedded(tmp_path):
    embedded = flock.connect()
    sharded = flock.connect(tmp_path / "db", shards=2)
    try:
        _load_tpch(embedded)
        _load_tpch(sharded)
        params = tpch_params(np.random.default_rng(42))
        for q in sorted(TPCH_FAITHFUL):
            sql = TPCH_FAITHFUL[q].format(**params)
            assert repr(sharded.execute(sql).rows()) == repr(
                embedded.execute(sql).rows()
            ), f"Q{q}"
    finally:
        sharded.close()
        embedded.close()
