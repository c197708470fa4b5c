"""Built-in scalar and aggregate functions.

Scalar functions are registered in :data:`SCALAR_FUNCTIONS` with a return
type rule and a vectorized implementation over
:class:`~flock.db.vector.ColumnVector` arguments. :data:`AGGREGATE_FUNCTIONS`
holds each aggregate's return-type rule; the values come from the vector
kernels in :mod:`flock.db.exec.aggregate`, where FLOAT SUM/AVG are exact
(the correctly rounded real sum, independent of row order), INTEGER SUM
raises on int64 overflow, and DISTINCT uses the key kernel's equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from flock.db.types import DataType, date_to_days
from flock.db.vector import ColumnVector
from flock.errors import BindError, ExecutionError
from flock.mlgraph.ops.math import logistic

# ----------------------------------------------------------------------
# Scalar functions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function: return-type rule + vectorized implementation."""

    name: str
    arity: tuple[int, int]  # (min_args, max_args); max=-1 means unbounded
    return_type: Callable[[list[DataType]], DataType]
    impl: Callable[[list[ColumnVector], int], ColumnVector]

    def check_arity(self, count: int) -> None:
        low, high = self.arity
        if count < low or (high != -1 and count > high):
            raise BindError(
                f"function {self.name} expects between {low} and "
                f"{'unbounded' if high == -1 else high} arguments, got {count}"
            )


def _numeric_passthrough(arg_types: list[DataType]) -> DataType:
    if not arg_types[0].is_numeric:
        raise BindError(f"expected a numeric argument, got {arg_types[0]}")
    return arg_types[0]


def _always(dtype: DataType) -> Callable[[list[DataType]], DataType]:
    return lambda arg_types: dtype


def _unary_numpy(fn: Callable[[np.ndarray], np.ndarray], dtype: DataType | None):
    def impl(args: list[ColumnVector], length: int) -> ColumnVector:
        inner = args[0]
        out_dtype = dtype or inner.dtype
        values = fn(inner.values.astype(np.float64))
        if out_dtype is DataType.INTEGER:
            values = values.astype(np.int64)
        return ColumnVector(out_dtype, values, inner.nulls.copy())

    return impl


def _abs_impl(args: list[ColumnVector], length: int) -> ColumnVector:
    inner = args[0]
    return ColumnVector(inner.dtype, np.abs(inner.values), inner.nulls.copy())


def _round_impl(args: list[ColumnVector], length: int) -> ColumnVector:
    inner = args[0]
    digits = 0
    if len(args) > 1:
        digits = int(args[1].values[0]) if len(args[1]) else 0
    values = np.round(inner.values.astype(np.float64), digits)
    return ColumnVector(DataType.FLOAT, values, inner.nulls.copy())


def _power_impl(args: list[ColumnVector], length: int) -> ColumnVector:
    base, exponent = args
    values = np.power(
        base.values.astype(np.float64), exponent.values.astype(np.float64)
    )
    return ColumnVector(DataType.FLOAT, values, base.nulls | exponent.nulls)


def _text_map(fn: Callable[[str], Any], out_dtype: DataType):
    def impl(args: list[ColumnVector], length: int) -> ColumnVector:
        inner = args[0]
        out = np.empty(len(inner), dtype=out_dtype.numpy_dtype)
        if out_dtype.numpy_dtype != np.dtype(object):
            out[:] = 0
        for i, v in enumerate(inner.values):
            if not inner.nulls[i]:
                out[i] = fn(v)
        return ColumnVector(out_dtype, out, inner.nulls.copy())

    return impl


def _substr_impl(args: list[ColumnVector], length: int) -> ColumnVector:
    text, start = args[0], args[1]
    out = np.empty(len(text), dtype=object)
    nulls = text.nulls.copy()
    for i in range(len(text)):
        if nulls[i]:
            continue
        begin = max(int(start.values[i]) - 1, 0)  # SQL SUBSTR is 1-based
        if len(args) > 2:
            out[i] = text.values[i][begin : begin + int(args[2].values[i])]
        else:
            out[i] = text.values[i][begin:]
    return ColumnVector(DataType.TEXT, out, nulls)


def _coalesce_impl(args: list[ColumnVector], length: int) -> ColumnVector:
    first = args[0]
    values = first.values.copy()
    nulls = first.nulls.copy()
    for candidate in args[1:]:
        fill = nulls & ~candidate.nulls
        values[fill] = candidate.values[fill]
        nulls[fill] = False
    return ColumnVector(first.dtype, values, nulls)


def _extract_impl(args: list[ColumnVector], length: int) -> ColumnVector:
    unit_vec, date_vec = args
    unit = unit_vec.values[0] if len(unit_vec) else "YEAR"
    days = date_vec.values.astype("datetime64[D]")
    if unit == "YEAR":
        out = days.astype("datetime64[Y]").astype(np.int64) + 1970
    elif unit == "MONTH":
        months = days.astype("datetime64[M]").astype(np.int64)
        out = months % 12 + 1
    elif unit == "DAY":
        month_start = days.astype("datetime64[M]").astype("datetime64[D]")
        out = (days - month_start).astype(np.int64) + 1
    else:
        raise ExecutionError(f"EXTRACT does not support unit {unit!r}")
    return ColumnVector(DataType.INTEGER, out, date_vec.nulls.copy())


def _date_impl(args: list[ColumnVector], length: int) -> ColumnVector:
    inner = args[0]
    out = np.zeros(len(inner), dtype=np.int64)
    for i, v in enumerate(inner.values):
        if not inner.nulls[i]:
            out[i] = date_to_days(v)
    return ColumnVector(DataType.DATE, out, inner.nulls.copy())


_INTERVAL_DAYS = {"DAY": 1, "WEEK": 7, "MONTH": 30, "YEAR": 365}


def interval_days(amount: str, unit: str) -> int:
    """Days represented by ``INTERVAL 'amount' unit``.

    MONTH and YEAR use 30/365-day approximations; documented in DESIGN.md.
    """
    try:
        scale = _INTERVAL_DAYS[unit.upper()]
    except KeyError:
        raise BindError(f"INTERVAL does not support unit {unit!r}") from None
    return int(amount) * scale


def _interval_impl(args: list[ColumnVector], length: int) -> ColumnVector:
    amount, unit = args[0].values[0], args[1].values[0]
    return ColumnVector.constant(
        DataType.INTEGER, interval_days(amount, unit), length
    )


SCALAR_FUNCTIONS: dict[str, ScalarFunction] = {}


def _register(
    name: str,
    arity: tuple[int, int],
    return_type: Callable[[list[DataType]], DataType],
    impl: Callable[[list[ColumnVector], int], ColumnVector],
) -> None:
    SCALAR_FUNCTIONS[name] = ScalarFunction(name, arity, return_type, impl)


_register("ABS", (1, 1), _numeric_passthrough, _abs_impl)
_register("ROUND", (1, 2), _always(DataType.FLOAT), _round_impl)
_register(
    "FLOOR", (1, 1), _always(DataType.INTEGER), _unary_numpy(np.floor, DataType.INTEGER)
)
_register(
    "CEIL", (1, 1), _always(DataType.INTEGER), _unary_numpy(np.ceil, DataType.INTEGER)
)
_register(
    "SQRT", (1, 1), _always(DataType.FLOAT), _unary_numpy(np.sqrt, DataType.FLOAT)
)
_register("EXP", (1, 1), _always(DataType.FLOAT), _unary_numpy(np.exp, DataType.FLOAT))
_register("LN", (1, 1), _always(DataType.FLOAT), _unary_numpy(np.log, DataType.FLOAT))
_register(
    "SIGMOID", (1, 1), _always(DataType.FLOAT), _unary_numpy(logistic, DataType.FLOAT)
)
_register("POWER", (2, 2), _always(DataType.FLOAT), _power_impl)
_register(
    "UPPER", (1, 1), _always(DataType.TEXT), _text_map(lambda s: s.upper(), DataType.TEXT)
)
_register(
    "LOWER", (1, 1), _always(DataType.TEXT), _text_map(lambda s: s.lower(), DataType.TEXT)
)
_register(
    "TRIM", (1, 1), _always(DataType.TEXT), _text_map(lambda s: s.strip(), DataType.TEXT)
)
_register(
    "LENGTH", (1, 1), _always(DataType.INTEGER), _text_map(len, DataType.INTEGER)
)
_register("SUBSTR", (2, 3), _always(DataType.TEXT), _substr_impl)
_register("SUBSTRING", (2, 3), _always(DataType.TEXT), _substr_impl)
_register(
    "COALESCE", (1, -1), lambda arg_types: arg_types[0], _coalesce_impl
)
_register("EXTRACT", (2, 2), _always(DataType.INTEGER), _extract_impl)
_register("DATE", (1, 1), _always(DataType.DATE), _date_impl)
_register("INTERVAL", (2, 2), _always(DataType.INTEGER), _interval_impl)


# ----------------------------------------------------------------------
# Aggregate functions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AggregateFunction:
    """An aggregate's return-type rule; the executor computes it as one
    vector kernel over group codes (:mod:`flock.db.exec.aggregate`)."""

    name: str
    return_type: Callable[[DataType | None], DataType]


def _sum_type(arg: DataType | None) -> DataType:
    if arg is None or not arg.is_numeric:
        raise BindError(f"SUM/AVG require a numeric argument, got {arg}")
    return arg


AGGREGATE_FUNCTIONS: dict[str, AggregateFunction] = {
    "COUNT": AggregateFunction("COUNT", lambda arg: DataType.INTEGER),
    "SUM": AggregateFunction("SUM", _sum_type),
    "AVG": AggregateFunction("AVG", lambda arg: DataType.FLOAT),
    "MIN": AggregateFunction("MIN", lambda arg: arg or DataType.INTEGER),
    "MAX": AggregateFunction("MAX", lambda arg: arg or DataType.INTEGER),
    "STDDEV": AggregateFunction("STDDEV", lambda arg: DataType.FLOAT),
}


def is_aggregate(name: str) -> bool:
    return name.upper() in AGGREGATE_FUNCTIONS


def lookup_scalar(name: str) -> ScalarFunction:
    try:
        return SCALAR_FUNCTIONS[name.upper()]
    except KeyError:
        raise BindError(f"unknown function {name!r}") from None
