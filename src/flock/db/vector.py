"""Columnar value containers.

:class:`ColumnVector` is the unit of data flow inside the engine: a typed
numpy array of physical values plus an explicit boolean null mask. All
expression evaluation and all physical operators consume and produce
ColumnVectors, which is what makes the "vectorized batch" execution regime of
the Figure 4 experiment real rather than simulated.

:class:`Batch` bundles named ColumnVectors of equal length — the engine's
analogue of a record batch.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from flock.db.types import DataType, coerce_value, python_value
from flock.errors import ExecutionError


class ColumnVector:
    """A typed column of values with an explicit null mask.

    ``values`` holds physical values (undefined where ``nulls`` is True) and
    ``nulls`` marks NULL positions. Both arrays always have the same length.
    """

    __slots__ = ("dtype", "values", "nulls")

    def __init__(self, dtype: DataType, values: np.ndarray, nulls: np.ndarray):
        if len(values) != len(nulls):
            raise ExecutionError(
                f"values ({len(values)}) and nulls ({len(nulls)}) length mismatch"
            )
        self.dtype = dtype
        self.values = values
        self.nulls = nulls

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, dtype: DataType, items: Sequence[Any]) -> "ColumnVector":
        """Build a vector from Python values, coercing each to *dtype*.

        A column whose Python types fit *dtype* (see :func:`coerce_column`)
        is converted by one vector call; any other column is coerced value
        by value, raising the first row's error.
        """
        vector = coerce_column(dtype, items)
        if vector is not None:
            return vector
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
        return cls(dtype, storage, nulls)

    @classmethod
    def constant(cls, dtype: DataType, value: Any, length: int) -> "ColumnVector":
        """A vector repeating one (possibly NULL) value *length* times.

        Implemented as zero-copy broadcast views: literals in expressions
        cost O(1) regardless of batch size. Consumers treat vectors as
        read-only (mutating operators copy first), so the read-only views
        are safe.
        """
        coerced = coerce_value(value, dtype)
        if coerced is None:
            values = np.broadcast_to(
                np.asarray(_zero_of(dtype), dtype=dtype.numpy_dtype), (length,)
            )
            return cls(dtype, values, np.broadcast_to(True, (length,)))
        values = np.broadcast_to(
            np.asarray(coerced, dtype=dtype.numpy_dtype), (length,)
        )
        return cls(dtype, values, np.broadcast_to(False, (length,)))

    @classmethod
    def empty(cls, dtype: DataType) -> "ColumnVector":
        return cls(
            dtype,
            np.empty(0, dtype=dtype.numpy_dtype),
            np.empty(0, dtype=bool),
        )

    @classmethod
    def from_numpy(
        cls, dtype: DataType, values: np.ndarray, nulls: np.ndarray | None = None
    ) -> "ColumnVector":
        """Wrap an existing numpy array (no copy) as a ColumnVector."""
        values = np.asarray(values, dtype=dtype.numpy_dtype)
        if nulls is None:
            nulls = np.zeros(len(values), dtype=bool)
        return cls(dtype, values, np.asarray(nulls, dtype=bool))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> Any:
        """The user-facing Python value at *index* (None when NULL)."""
        if self.nulls[index]:
            return None
        return python_value(self.values[index], self.dtype)

    def to_pylist(self) -> list[Any]:
        """All values as user-facing Python objects."""
        return [self[i] for i in range(len(self))]

    def stored_values(self) -> list[Any]:
        """The physical values as Python objects, NULL as None (DATE stays
        day numbers): one ``tolist()``, NULL slots patched by position."""
        values = self.values.tolist()
        for i in np.flatnonzero(self.nulls).tolist():
            values[i] = None
        return values

    def has_nulls(self) -> bool:
        return bool(self.nulls.any())

    def map_present(
        self, kernel: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """One bool per row: *kernel* over the stored non-NULL values.

        *kernel* maps a 1-D array of physical values to one bool each; NULL
        rows come out False. Encoded layouts run it once per dictionary
        entry or run, so a kernel must be total: a dictionary may hold
        entries no row references, and an error raised there would name
        no row's value.
        """
        return map_rows(kernel, self.nulls, self.values)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "ColumnVector":
        """Gather rows by position."""
        return ColumnVector(self.dtype, self.values[indices], self.nulls[indices])

    def filter(self, mask: np.ndarray) -> "ColumnVector":
        """Keep rows where *mask* is True.

        Gathers by position: one ``flatnonzero`` and a ``take`` per array
        cost several times less than boolean-mask indexing each array.
        """
        return self.take(np.flatnonzero(mask))

    def slice(self, start: int, stop: int) -> "ColumnVector":
        return ColumnVector(self.dtype, self.values[start:stop], self.nulls[start:stop])

    def concat(self, other: "ColumnVector") -> "ColumnVector":
        if other.dtype is not self.dtype:
            raise ExecutionError(
                f"cannot concat {self.dtype} column with {other.dtype} column"
            )
        return ColumnVector(
            self.dtype,
            np.concatenate([self.values, other.values]),
            np.concatenate([self.nulls, other.nulls]),
        )

    def copy(self) -> "ColumnVector":
        return ColumnVector(self.dtype, self.values.copy(), self.nulls.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.to_pylist()[:8]
        return f"ColumnVector({self.dtype}, n={len(self)}, {preview}...)"


def map_rows(
    kernel: Callable[..., np.ndarray], nulls: np.ndarray, *arrays: np.ndarray
) -> np.ndarray:
    """``kernel(*arrays)`` at the rows where *nulls* is False, else False.

    Numeric arrays go to the kernel whole, NULL placeholders included (a
    numeric kernel is total over them), and the result is masked after.
    Object arrays with a NULL are gathered to the present rows first: the
    ``None`` placeholder can make ``<`` raise.
    """
    if not nulls.any():
        return kernel(*arrays)
    if all(a.dtype != object for a in arrays):
        return kernel(*arrays) & ~nulls
    present = ~nulls
    out = np.zeros(len(nulls), dtype=bool)
    out[present] = kernel(*(a[present] for a in arrays))
    return out


def concat_columns(
    dtype: DataType, chunks: Sequence[ColumnVector]
) -> ColumnVector:
    """Concatenate *chunks* in order (bitwise equal to one big gather)."""
    if not chunks:
        return ColumnVector.empty(dtype)
    if len(chunks) == 1:
        return chunks[0]
    from flock.db.encoding import concat_encoded

    # Slices of one encoded column (same dictionary / frame) merge on the
    # encoded payload without decoding.
    encoded = concat_encoded(chunks)
    if encoded is not None:
        return encoded
    return ColumnVector(
        dtype,
        np.concatenate([c.values for c in chunks]),
        np.concatenate([c.nulls for c in chunks]),
    )


#: Per type, the Python types a column may hold to take one vector call,
#: and the value standing in for NULL while it does (the NULL placeholder
#: itself, so the filled slots need no second pass). Exact types only:
#: ``bool`` is not ``int`` here, and numpy scalars, ``datetime.date`` and
#: subclasses go value by value through ``coerce_value``.
_VECTOR_TYPES = {
    DataType.INTEGER: ({int}, 0),
    DataType.FLOAT: ({float, int}, 0.0),
    DataType.TEXT: ({str}, None),
    DataType.BOOLEAN: ({bool}, False),
    DataType.DATE: ({int}, 0),
}
_NONE = type(None)
#: DATE text the vector path parses: ``YYYY-MM-DD`` exactly. Anything else
#: ('20240101', '2024-W01-1', '2024-02-30') is coerced value by value,
#: which refuses it with the same TypeMismatchError on every path.
#: Its code points as ranges: a digit is at most 9 above '0', a dash is '-'.
_DATE_LOW = np.array([ord(c) for c in "0000-00-00"], dtype=np.uint32)
_DATE_SPAN = np.array([0 if c == "-" else 9 for c in "0000-00-00"],
                      dtype=np.uint32)
_FIRST_DATE_DAY = -719162  # 0001-01-01; numpy would also parse year 0


def coerce_column(dtype: DataType, items: Sequence[Any]) -> "ColumnVector | None":
    """*items* coerced to *dtype* by one vector call, or None.

    None unless the column's set of Python types fits *dtype*: FLOAT takes
    ``float`` and ``int``, INTEGER ``int`` inside int64, TEXT ``str``,
    BOOLEAN ``bool``, DATE ``int`` or canonical ``YYYY-MM-DD`` strings;
    ``None`` anywhere becomes the null mask. The result is bit-identical
    to coercing each value with :func:`coerce_value`; a column it declines
    (or one that overflows) is the caller's to coerce value by value.
    """
    types = set(map(type, items))
    has_nulls = _NONE in types
    types.discard(_NONE)
    text_dates = dtype is DataType.DATE and types == {str}
    fast = _VECTOR_TYPES.get(dtype)
    if not text_dates and (fast is None or not types <= fast[0]):
        return None
    nulls = np.zeros(len(items), dtype=bool)
    if has_nulls:
        items = np.array(items, dtype=object)
        nulls = np.equal(items, None)
        # 1970-01-01 is day 0, the DATE placeholder.
        items[nulls] = "1970-01-01" if text_dates else fast[1]
    try:
        values = (
            _parse_dates(items) if text_dates
            else np.array(items, dtype=dtype.numpy_dtype)
        )
    except OverflowError:
        return None
    return None if values is None else ColumnVector(dtype, values, nulls)


def _parse_dates(items: Sequence[str]) -> np.ndarray | None:
    """Day numbers of canonical ``YYYY-MM-DD`` strings, or None."""
    text = np.array(items, dtype=str)
    if text.dtype != np.dtype("<U10"):
        return None
    chars = text.view(np.uint32).reshape(-1, 10)
    if not ((chars - _DATE_LOW) <= _DATE_SPAN).all():  # wraps below LOW
        return None
    try:
        days = text.astype("datetime64[D]").astype(np.int64)
    except ValueError:  # 2024-02-30
        return None
    if days.min() < _FIRST_DATE_DAY:
        return None
    return days


def _zero_of(dtype: DataType) -> Any:
    """A placeholder physical value for NULL slots of *dtype*."""
    if dtype.numpy_dtype == np.dtype(object):
        return None
    if dtype is DataType.BOOLEAN:
        return False
    if dtype is DataType.FLOAT:
        return 0.0
    return 0


class Batch:
    """An ordered set of equally long named columns — one execution quantum."""

    __slots__ = ("columns", "names")

    def __init__(self, names: Sequence[str], columns: Sequence[ColumnVector]):
        if len(names) != len(columns):
            raise ExecutionError("column name/vector count mismatch")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ExecutionError(f"ragged batch: column lengths {sorted(lengths)}")
        self.names = list(names)
        self.columns = list(columns)

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> ColumnVector:
        try:
            return self.columns[self.names.index(name)]
        except ValueError:
            raise ExecutionError(f"batch has no column named {name!r}") from None

    def with_columns(
        self, names: Iterable[str], columns: Iterable[ColumnVector]
    ) -> "Batch":
        """A new batch with extra columns appended."""
        return Batch(self.names + list(names), self.columns + list(columns))

    def select(self, indices: Sequence[int]) -> "Batch":
        """Project columns by position."""
        return Batch(
            [self.names[i] for i in indices], [self.columns[i] for i in indices]
        )

    def take(self, indices: np.ndarray) -> "Batch":
        return Batch(self.names, [c.take(indices) for c in self.columns])

    def filter(self, mask: np.ndarray) -> "Batch":
        return self.take(np.flatnonzero(mask))

    def slice(self, start: int, stop: int) -> "Batch":
        return Batch(self.names, [c.slice(start, stop) for c in self.columns])

    def concat(self, other: "Batch") -> "Batch":
        if other.names != self.names:
            raise ExecutionError("cannot concat batches with different schemas")
        return Batch(
            self.names,
            [a.concat(b) for a, b in zip(self.columns, other.columns)],
        )

    @staticmethod
    def concat_all(batches: Sequence["Batch"]) -> "Batch":
        """Concatenate *batches* in order with one allocation per column.

        Equivalent to repeated :meth:`concat` (bitwise — concatenation only
        moves values) but linear instead of quadratic in total rows, which
        is what the spill and shard-merge paths need.
        """
        if not batches:
            raise ExecutionError("concat_all needs at least one batch")
        first = batches[0]
        if len(batches) == 1:
            return first
        for other in batches[1:]:
            if other.names != first.names:
                raise ExecutionError(
                    "cannot concat batches with different schemas"
                )
        columns = [
            concat_columns(column.dtype, [b.columns[i] for b in batches])
            for i, column in enumerate(first.columns)
        ]
        return Batch(first.names, columns)

    def rows(self) -> Iterator[tuple]:
        """Iterate user-facing Python row tuples (slow path, for results)."""
        pylists = [c.to_pylist() for c in self.columns]
        return iter(zip(*pylists)) if pylists else iter(())

    def row(self, index: int) -> tuple:
        return tuple(c[index] for c in self.columns)

    @classmethod
    def empty(cls, names: Sequence[str], dtypes: Sequence[DataType]) -> "Batch":
        return cls(list(names), [ColumnVector.empty(d) for d in dtypes])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch({self.num_rows}x{self.num_columns}: {self.names})"
