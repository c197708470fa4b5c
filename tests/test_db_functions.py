"""Unit tests for built-in scalar and aggregate functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flock.db import Database
from flock.db import functions as fn
from flock.db.exec.aggregate import aggregate_columns
from flock.db.expr import BoundColumn
from flock.db.plan import AggregateSpec
from flock.db.types import DataType
from flock.db.vector import Batch, ColumnVector
from flock.errors import BindError


def _vec(dtype, values):
    return ColumnVector.from_values(dtype, values)


def _call(name, *vectors, length=None):
    scalar = fn.lookup_scalar(name)
    n = length if length is not None else len(vectors[0])
    return scalar.impl(list(vectors), n)


class TestScalars:
    def test_abs(self):
        out = _call("ABS", _vec(DataType.INTEGER, [-3, 4, None]))
        assert out.to_pylist() == [3, 4, None]

    def test_round_digits(self):
        out = _call(
            "ROUND",
            _vec(DataType.FLOAT, [3.14159]),
            _vec(DataType.INTEGER, [2]),
        )
        assert out.to_pylist() == [3.14]

    def test_floor_ceil(self):
        assert _call("FLOOR", _vec(DataType.FLOAT, [2.7])).to_pylist() == [2]
        assert _call("CEIL", _vec(DataType.FLOAT, [2.1])).to_pylist() == [3]

    def test_sqrt_exp_ln_power(self):
        assert _call("SQRT", _vec(DataType.FLOAT, [9.0])).to_pylist() == [3.0]
        assert _call("EXP", _vec(DataType.FLOAT, [0.0])).to_pylist() == [1.0]
        out = _call("LN", _vec(DataType.FLOAT, [math.e]))
        assert out.to_pylist()[0] == pytest.approx(1.0)
        out = _call(
            "POWER", _vec(DataType.FLOAT, [2.0]), _vec(DataType.FLOAT, [10.0])
        )
        assert out.to_pylist() == [1024.0]

    def test_text_functions(self):
        assert _call("UPPER", _vec(DataType.TEXT, ["abc", None])).to_pylist() == [
            "ABC", None,
        ]
        assert _call("LOWER", _vec(DataType.TEXT, ["AbC"])).to_pylist() == ["abc"]
        assert _call("TRIM", _vec(DataType.TEXT, ["  x "])).to_pylist() == ["x"]
        assert _call("LENGTH", _vec(DataType.TEXT, ["abcd"])).to_pylist() == [4]

    def test_substr_one_based(self):
        out = _call(
            "SUBSTR",
            _vec(DataType.TEXT, ["telephone"]),
            _vec(DataType.INTEGER, [1]),
            _vec(DataType.INTEGER, [4]),
        )
        assert out.to_pylist() == ["tele"]

    def test_coalesce(self):
        out = _call(
            "COALESCE",
            _vec(DataType.INTEGER, [None, 1, None]),
            _vec(DataType.INTEGER, [7, 8, None]),
            _vec(DataType.INTEGER, [9, 9, 9]),
        )
        assert out.to_pylist() == [7, 1, 9]

    def test_extract_units(self):
        from flock.db.types import date_to_days

        days = _vec(DataType.DATE, [date_to_days("1995-03-17")])
        for unit, expected in (("YEAR", 1995), ("MONTH", 3), ("DAY", 17)):
            out = _call(
                "EXTRACT", _vec(DataType.TEXT, [unit]), days, length=1
            )
            assert out.to_pylist() == [expected]

    def test_interval_days(self):
        assert fn.interval_days("3", "DAY") == 3
        assert fn.interval_days("2", "MONTH") == 60
        assert fn.interval_days("1", "YEAR") == 365
        with pytest.raises(BindError):
            fn.interval_days("1", "FORTNIGHT")

    def test_arity_check(self):
        with pytest.raises(BindError):
            fn.lookup_scalar("ABS").check_arity(2)

    def test_unknown_function(self):
        with pytest.raises(BindError):
            fn.lookup_scalar("NO_SUCH_FN")


def _agg(name, vector, distinct=False):
    """One aggregate over *vector* as a single group, as a Python value."""
    spec = AggregateSpec(
        name,
        BoundColumn(0, vector.dtype, "x"),
        distinct,
        "a",
        fn.AGGREGATE_FUNCTIONS[name].return_type(vector.dtype),
    )
    codes = np.zeros(len(vector), dtype=np.int64)
    (column,) = aggregate_columns([spec], Batch(["x"], [vector]), codes, 1)
    return column.to_pylist()[0]


class TestAggregates:
    def test_count_skips_nulls(self):
        assert _agg("COUNT", _vec(DataType.INTEGER, [1, None, 3])) == 2

    def test_count_distinct(self):
        assert _agg("COUNT", _vec(DataType.INTEGER, [1, 1, 2, None]), True) == 2
        assert _agg("COUNT", _vec(DataType.TEXT, ["a", "a", "b"]), True) == 2

    def test_sum_empty_is_null(self):
        assert _agg("SUM", _vec(DataType.INTEGER, [None, None])) is None

    def test_sum_and_avg(self):
        assert _agg("SUM", _vec(DataType.FLOAT, [1.5, 2.5, None])) == 4.0
        assert _agg("AVG", _vec(DataType.INTEGER, [2, 4])) == 3.0

    def test_min_max_text(self):
        assert _agg("MIN", _vec(DataType.TEXT, ["pear", "apple"])) == "apple"
        assert _agg("MAX", _vec(DataType.TEXT, ["pear", "apple"])) == "pear"

    def test_stddev(self):
        out = _agg("STDDEV", _vec(DataType.FLOAT, [1.0, 3.0]))
        assert out == math.sqrt(2.0)
        assert _agg("STDDEV", _vec(DataType.FLOAT, [1.0])) is None

    def test_sum_rejects_text(self):
        with pytest.raises(BindError):
            fn.AGGREGATE_FUNCTIONS["SUM"].return_type(DataType.TEXT)

    def test_is_aggregate(self):
        assert fn.is_aggregate("count")
        assert fn.is_aggregate("SUM")
        assert not fn.is_aggregate("ABS")


_row = st.tuples(
    st.one_of(st.none(), st.integers(-100, 100)),
    st.one_of(
        st.none(),
        st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: round(x, 6)),
    ),
    st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_row, min_size=0, max_size=40))
def test_sql_aggregates_match_numpy(rows):
    """Global aggregates through the engine agree with a numpy/Python
    reference on random tables with NULLs, including empty ones."""
    db = Database()
    db.execute("CREATE TABLE t (i INT, f FLOAT, s TEXT)")
    if rows:
        db.execute("INSERT INTO t VALUES " + ", ".join(
            "({}, {}, {})".format(
                "NULL" if i is None else i,
                "NULL" if f is None else repr(f),
                "NULL" if s is None else f"'{s}'",
            )
            for i, f, s in rows
        ))
    got = db.execute(
        "SELECT COUNT(*), COUNT(i), COUNT(DISTINCT i), SUM(i), "
        "SUM(f), AVG(f), MIN(f), MAX(f), MIN(s), MAX(s) FROM t"
    ).rows()[0]
    db.close()
    ints = [i for i, _, _ in rows if i is not None]
    floats = [f for _, f, _ in rows if f is not None]
    texts = [s for _, _, s in rows if s is not None]
    assert got[:4] == (
        len(rows), len(ints), len(set(ints)), sum(ints) if ints else None
    )
    if floats:
        assert math.isclose(
            got[4], float(np.sum(floats)), rel_tol=1e-9, abs_tol=1e-9
        )
        assert math.isclose(
            got[5], float(np.mean(floats)), rel_tol=1e-9, abs_tol=1e-9
        )
        assert (got[6], got[7]) == (min(floats), max(floats))
    else:
        assert got[4:8] == (None, None, None, None)
    assert got[8] == (min(texts) if texts else None)
    assert got[9] == (max(texts) if texts else None)
