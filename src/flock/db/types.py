"""The flock.db type system.

Types are deliberately small: INTEGER, FLOAT, TEXT, BOOLEAN, DATE and MODEL.
MODEL is the paper's "models as first-class data types" (§4.1): a column may
hold serialized model graphs, which the PREDICT operator and the registry
consume.

Values are stored columnar as numpy arrays plus an explicit null mask (see
:mod:`flock.db.vector`). DATE values are stored as int64 days since the Unix
epoch; :func:`date_to_days` / :func:`days_to_date` convert at the boundary.
"""

from __future__ import annotations

import datetime
import enum
import re
from typing import Any

import numpy as np

from flock.errors import TypeMismatchError

_EPOCH = datetime.date(1970, 1, 1)
_CANONICAL_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

#: The range INTEGER and DATE storage (int64) holds.
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class DataType(enum.Enum):
    """Logical column types supported by the engine."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"
    MODEL = "MODEL"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def numpy_dtype(self) -> np.dtype:
        """The physical numpy dtype used to store values of this type."""
        return _NUMPY_DTYPES[self]

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INTEGER, DataType.FLOAT)

    @property
    def is_orderable(self) -> bool:
        return self is not DataType.MODEL


_NUMPY_DTYPES = {
    DataType.INTEGER: np.dtype(np.int64),
    DataType.FLOAT: np.dtype(np.float64),
    DataType.TEXT: np.dtype(object),
    DataType.BOOLEAN: np.dtype(np.bool_),
    DataType.DATE: np.dtype(np.int64),
    DataType.MODEL: np.dtype(object),
}

# SQL type-name spellings accepted by the parser, mapped to logical types.
SQL_TYPE_ALIASES = {
    "INT": DataType.INTEGER,
    "INTEGER": DataType.INTEGER,
    "BIGINT": DataType.INTEGER,
    "SMALLINT": DataType.INTEGER,
    "FLOAT": DataType.FLOAT,
    "REAL": DataType.FLOAT,
    "DOUBLE": DataType.FLOAT,
    "DECIMAL": DataType.FLOAT,
    "NUMERIC": DataType.FLOAT,
    "TEXT": DataType.TEXT,
    "VARCHAR": DataType.TEXT,
    "CHAR": DataType.TEXT,
    "STRING": DataType.TEXT,
    "BOOLEAN": DataType.BOOLEAN,
    "BOOL": DataType.BOOLEAN,
    "DATE": DataType.DATE,
    "MODEL": DataType.MODEL,
}


def date_to_days(value: datetime.date | str) -> int:
    """Convert a date (or ``YYYY-MM-DD`` string) to days since the epoch.

    Text must be canonical ``YYYY-MM-DD`` naming a real day; anything else
    (``'2024-02-30'``, or the other ISO 8601 spellings only some Python
    versions accept, like ``'20240101'``) raises
    :class:`TypeMismatchError`.
    """
    if isinstance(value, str):
        try:
            if not _CANONICAL_DATE.fullmatch(value):
                raise ValueError
            value = datetime.date.fromisoformat(value)
        except ValueError:
            raise TypeMismatchError(
                f"invalid DATE {value!r}: expected a real YYYY-MM-DD day"
            ) from None
    return (value - _EPOCH).days


def days_to_date(days: int) -> datetime.date:
    """Convert days since the epoch back to a :class:`datetime.date`."""
    return _EPOCH + datetime.timedelta(days=int(days))


def infer_type(value: Any) -> DataType:
    """Infer the logical type of a Python literal.

    Raises :class:`TypeMismatchError` for unsupported Python types.
    """
    if isinstance(value, bool):  # must precede int: bool is a subclass of int
        return DataType.BOOLEAN
    if isinstance(value, (int, np.integer)):
        return DataType.INTEGER
    if isinstance(value, (float, np.floating)):
        return DataType.FLOAT
    if isinstance(value, str):
        return DataType.TEXT
    if isinstance(value, datetime.date):
        return DataType.DATE
    raise TypeMismatchError(f"cannot infer SQL type for Python value {value!r}")


def coerce_value(value: Any, dtype: DataType) -> Any:
    """Coerce a Python value to the physical representation of *dtype*.

    ``None`` passes through (it is represented by the null mask, not by the
    value array). Raises :class:`TypeMismatchError` when the value cannot be
    represented in the target type without data loss surprises (e.g. TEXT
    into INTEGER).
    """
    if value is None:
        return None
    if dtype is _INTEGER:
        if type(value) is int:
            number = value
        elif isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            if isinstance(value, (float, np.floating)) and float(value).is_integer():
                number = int(value)
            else:
                raise TypeMismatchError(
                    f"cannot store {value!r} in INTEGER column"
                )
        else:
            number = int(value)
        if not INT64_MIN <= number <= INT64_MAX:
            raise TypeMismatchError(f"cannot store {value!r} in INTEGER column")
        return number
    if dtype is _FLOAT:
        if type(value) is float:
            return value
        if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)
        ):
            raise TypeMismatchError(f"cannot store {value!r} in FLOAT column")
        try:
            return float(value)
        except OverflowError:
            raise TypeMismatchError(
                f"cannot store {value!r} in FLOAT column"
            ) from None
    if dtype is _TEXT:
        if not isinstance(value, str):
            raise TypeMismatchError(f"cannot store {value!r} in TEXT column")
        return value
    if dtype is _BOOLEAN:
        if not isinstance(value, (bool, np.bool_)):
            raise TypeMismatchError(f"cannot store {value!r} in BOOLEAN column")
        return bool(value)
    if dtype is _DATE:
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            if not INT64_MIN <= value <= INT64_MAX:
                raise TypeMismatchError(f"cannot store {value!r} in DATE column")
            return int(value)
        if isinstance(value, (str, datetime.date)):
            return date_to_days(value)
        raise TypeMismatchError(f"cannot store {value!r} in DATE column")
    if dtype is _MODEL:
        return value  # opaque payload; the registry validates it
    raise TypeMismatchError(f"unknown data type {dtype}")


# Plain module names for the members: reading ``DataType.INTEGER`` goes
# through the enum metaclass, a cost coerce_value pays once per stored value.
_INTEGER = DataType.INTEGER
_FLOAT = DataType.FLOAT
_TEXT = DataType.TEXT
_BOOLEAN = DataType.BOOLEAN
_DATE = DataType.DATE
_MODEL = DataType.MODEL


def common_type(left: DataType, right: DataType) -> DataType:
    """The result type of combining *left* and *right* in an expression.

    INTEGER and FLOAT unify to FLOAT; otherwise the types must match.
    """
    if left is right:
        return left
    numeric = {DataType.INTEGER, DataType.FLOAT}
    if left in numeric and right in numeric:
        return DataType.FLOAT
    raise TypeMismatchError(f"incompatible types {left} and {right}")


def python_value(value: Any, dtype: DataType) -> Any:
    """Convert a stored physical value back to a user-facing Python value."""
    if value is None:
        return None
    if dtype is DataType.DATE:
        return days_to_date(value)
    if dtype is DataType.INTEGER:
        return int(value)
    if dtype is DataType.FLOAT:
        return float(value)
    if dtype is DataType.BOOLEAN:
        return bool(value)
    return value
