"""Compressed column encodings with late-decode execution.

Three encodings live behind the :class:`~flock.db.vector.ColumnVector`
interface, so every operator keeps working unchanged while storage shrinks
and the hot paths skip decoding entirely:

- :class:`DictionaryVector` — low-cardinality TEXT columns as ``int32``
  codes into a sorted dictionary. GROUP BY groups by code (see
  :mod:`flock.db.exec.grouping`); PREDICT featurization scores one row
  per distinct code and gathers.
- :class:`RunLengthVector` — runs of repeated values (clustered or mostly
  constant columns).
- :class:`BitPackedVector` — frame-of-reference integers: ``value - min``
  stored in the narrowest unsigned width that fits the range (INTEGER and
  DATE columns shrink 2–8x). ``take``/``filter``/``slice``/``concat`` all
  operate on the packed array directly.

Value-wise predicates (comparison against a literal, IN, LIKE) late-decode
through one mechanism, :meth:`~flock.db.vector.ColumnVector.map_present`:
a dictionary runs the kernel once per *entry* and maps the result out
through the codes (a single matching entry is one compare of the codes),
a run-length vector once per *run* and repeats. Only total kernels
may map over a dictionary, which keeps entries no row references after a
filter; CAST from TEXT can raise, so it stays row-ordered and its error
names the first bad row's value.

Encoded execution is **bit-identical** to plain execution by construction:
decoding an encoded vector reproduces the exact physical arrays a plain
vector would hold (NULL slots hold the same placeholder), every fast path
computes the same per-row result the generic path would, and group /
sort orderings map through strictly monotone code spaces. The
encoded-vs-plain twin fuzzer (tests/test_db_fuzz.py) holds this contract
under churn; the ``encodings`` setting (:mod:`flock.settings`) is the
kill switch that forces every new table version back to plain vectors.

Encoding selection happens once per staged :class:`TableVersion` (see
:meth:`flock.db.storage.Table._staged`) from the same per-column facts
:class:`~flock.db.storage.ColumnStats` summarizes; appends re-use an
existing dictionary when the fresh values are covered by it, so steady
inserts never re-encode the whole column.
"""

from __future__ import annotations

import sys
from typing import Any, Sequence

import numpy as np

from flock.db.types import DataType, python_value
from flock.db.vector import ColumnVector, _zero_of
from flock.errors import ExecutionError

#: Columns shorter than this stay plain: the per-vector bookkeeping would
#: cost more than the bytes saved, and tiny tables are not scan-bound.
MIN_ENCODE_ROWS = 32

#: Dictionary encoding applies while the cardinality stays below both an
#: absolute cap and half the row count (codes must actually deduplicate).
DICT_MAX_CARDINALITY = 4096

#: Run-length encoding applies when the average run covers >= 4 rows.
RLE_MAX_RUN_FRACTION = 4


# ----------------------------------------------------------------------
# Encoded vector classes
# ----------------------------------------------------------------------
class EncodedVector(ColumnVector):
    """Base of all encoded vectors.

    Shadows the base class's ``values``/``nulls`` slots with decoding
    properties, so any consumer that was not taught about the encoding
    transparently sees the plain physical arrays (decoded fresh per
    access — nothing is cached, which is what keeps resident memory at
    the encoded size). Hot paths type-check for the concrete classes and
    work on the encoded payload instead.
    """

    __slots__ = ()
    encoding = "?"

    # Subclasses implement these over their payload.
    def _decode_values(self) -> np.ndarray:
        raise NotImplementedError

    def _decode_nulls(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def values(self) -> np.ndarray:  # type: ignore[override]
        return self._decode_values()

    @property
    def nulls(self) -> np.ndarray:  # type: ignore[override]
        return self._decode_nulls()

    def materialize(self) -> ColumnVector:
        """The equivalent plain vector (one decode, no caching)."""
        return ColumnVector(self.dtype, self._decode_values(), self._decode_nulls())

    def to_pylist(self) -> list[Any]:
        return self.materialize().to_pylist()

    def storage_nbytes(self) -> int:
        """Resident bytes of the encoded payload."""
        raise NotImplementedError


class DictionaryVector(EncodedVector):
    """TEXT column as int32 codes into a sorted dictionary.

    ``codes[i]`` is -1 for NULL, else an index into ``dictionary`` (an
    object array sorted ascending, so code order == value order and sort
    keys come straight from the codes). Slices/filters/takes share the
    dictionary array — only the codes move.
    """

    __slots__ = ("codes", "dictionary")
    encoding = "dict"

    def __init__(self, dtype: DataType, codes: np.ndarray, dictionary: np.ndarray):
        self.dtype = dtype
        self.codes = codes
        self.dictionary = dictionary

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index: int) -> Any:
        code = int(self.codes[index])
        if code < 0:
            return None
        return python_value(self.dictionary[code], self.dtype)

    def has_nulls(self) -> bool:
        return bool((self.codes < 0).any())

    def _decode_values(self) -> np.ndarray:
        out = np.empty(len(self.codes), dtype=object)
        present = self.codes >= 0
        out[present] = self.dictionary[self.codes[present]]
        return out

    def _decode_nulls(self) -> np.ndarray:
        return self.codes < 0

    def to_pylist(self) -> list[Any]:
        dictionary = self.dictionary
        dtype = self.dtype
        return [
            None if c < 0 else python_value(dictionary[c], dtype)
            for c in self.codes.tolist()
        ]

    def take(self, indices: np.ndarray) -> "DictionaryVector":
        return DictionaryVector(self.dtype, self.codes[indices], self.dictionary)

    def slice(self, start: int, stop: int) -> "DictionaryVector":
        return DictionaryVector(self.dtype, self.codes[start:stop], self.dictionary)

    def concat(self, other: ColumnVector) -> ColumnVector:
        if other.dtype is not self.dtype:
            raise ExecutionError(
                f"cannot concat {self.dtype} column with {other.dtype} column"
            )
        if isinstance(other, DictionaryVector) and (
            other.dictionary is self.dictionary
            or (
                len(other.dictionary) == len(self.dictionary)
                and all(
                    a == b
                    for a, b in zip(
                        other.dictionary.tolist(), self.dictionary.tolist()
                    )
                )
            )
        ):
            return DictionaryVector(
                self.dtype,
                np.concatenate([self.codes, other.codes]),
                self.dictionary,
            )
        if not isinstance(other, EncodedVector):
            fresh_codes = _codes_against(self.dictionary, other)
            if fresh_codes is not None:
                return DictionaryVector(
                    self.dtype,
                    np.concatenate([self.codes, fresh_codes]),
                    self.dictionary,
                )
        return self.materialize().concat(
            other.materialize() if isinstance(other, EncodedVector) else other
        )

    def map_present(self, kernel) -> np.ndarray:
        # Once per dictionary entry, then out through the codes: a single
        # matching entry (an equality) is one compare of the codes, else a
        # gather in which code -1 (NULL) picks the appended False.
        hits = np.flatnonzero(kernel(self.dictionary))
        if len(hits) == 1:
            return self.codes == hits[0]
        lookup = np.zeros(len(self.dictionary) + 1, dtype=bool)
        lookup[hits] = True
        return lookup.take(self.codes)

    def storage_nbytes(self) -> int:
        return self.codes.nbytes + _object_payload_bytes(self.dictionary)

    def __reduce__(self):
        return (DictionaryVector, (self.dtype, self.codes, self.dictionary))


class RunLengthVector(EncodedVector):
    """Runs of repeated values: one (value, null, length) triple per run.

    NULL runs store the dtype's placeholder value, so decoding reproduces
    the exact arrays a freshly built plain vector would hold.
    """

    __slots__ = ("run_values", "run_nulls", "run_lengths", "length")
    encoding = "rle"

    def __init__(
        self,
        dtype: DataType,
        run_values: np.ndarray,
        run_nulls: np.ndarray,
        run_lengths: np.ndarray,
    ):
        self.dtype = dtype
        self.run_values = run_values
        self.run_nulls = run_nulls
        self.run_lengths = run_lengths
        self.length = int(run_lengths.sum())

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: int) -> Any:
        run = int(np.searchsorted(self._starts(), index, side="right")) - 1
        if self.run_nulls[run]:
            return None
        return python_value(self.run_values[run], self.dtype)

    def _starts(self) -> np.ndarray:
        stops = np.cumsum(self.run_lengths)
        return stops - self.run_lengths

    def has_nulls(self) -> bool:
        return bool(self.run_nulls.any())

    def _decode_values(self) -> np.ndarray:
        return np.repeat(self.run_values, self.run_lengths)

    def _decode_nulls(self) -> np.ndarray:
        return np.repeat(self.run_nulls, self.run_lengths)

    def map_present(self, kernel) -> np.ndarray:
        # Once per run, repeated back to rows.
        runs = ColumnVector(self.dtype, self.run_values, self.run_nulls)
        return np.repeat(runs.map_present(kernel), self.run_lengths)

    def take(self, indices: np.ndarray) -> ColumnVector:
        return self.materialize().take(indices)

    def slice(self, start: int, stop: int) -> ColumnVector:
        start = max(0, start)
        stop = min(self.length, stop)
        if stop <= start:
            return ColumnVector.empty(self.dtype)
        starts = self._starts()
        first = int(np.searchsorted(starts, start, side="right")) - 1
        last = int(np.searchsorted(starts, stop, side="left"))  # exclusive
        values = self.run_values[first:last].copy()
        nulls = self.run_nulls[first:last].copy()
        lengths = self.run_lengths[first:last].copy()
        lengths[0] -= start - starts[first]
        overshoot = int(starts[last - 1] + self.run_lengths[last - 1]) - stop
        lengths[-1] -= overshoot
        return RunLengthVector(self.dtype, values, nulls, lengths)

    def concat(self, other: ColumnVector) -> ColumnVector:
        if other.dtype is not self.dtype:
            raise ExecutionError(
                f"cannot concat {self.dtype} column with {other.dtype} column"
            )
        return self.materialize().concat(
            other.materialize() if isinstance(other, EncodedVector) else other
        )

    def storage_nbytes(self) -> int:
        if self.run_values.dtype == np.dtype(object):
            payload = _object_payload_bytes(self.run_values)
        else:
            payload = self.run_values.nbytes
        return payload + self.run_nulls.nbytes + self.run_lengths.nbytes

    def __reduce__(self):
        return (
            RunLengthVector,
            (self.dtype, self.run_values, self.run_nulls, self.run_lengths),
        )


class BitPackedVector(EncodedVector):
    """Frame-of-reference integers: ``packed + offset`` in a narrow width.

    ``packed`` is uint8/uint16/uint32 holding ``value - offset`` (0 at
    NULL slots); decoding restores exact int64 values. All positional
    transforms stay packed.
    """

    __slots__ = ("packed", "offset", "null_mask")
    encoding = "bp"

    def __init__(
        self,
        dtype: DataType,
        packed: np.ndarray,
        offset: int,
        null_mask: np.ndarray,
    ):
        self.dtype = dtype
        self.packed = packed
        self.offset = offset
        self.null_mask = null_mask

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, index: int) -> Any:
        if self.null_mask[index]:
            return None
        return python_value(
            np.int64(int(self.packed[index]) + self.offset), self.dtype
        )

    def has_nulls(self) -> bool:
        return bool(self.null_mask.any())

    def _decode_values(self) -> np.ndarray:
        out = self.packed.astype(np.int64) + self.offset
        if self.null_mask.any():
            # Plain storage vectors keep 0 under NULL slots; reproduce it
            # so decode is byte-for-byte the array a plain table would hold.
            out[self.null_mask] = 0
        return out

    def _decode_nulls(self) -> np.ndarray:
        return self.null_mask.copy()

    def take(self, indices: np.ndarray) -> "BitPackedVector":
        return BitPackedVector(
            self.dtype, self.packed[indices], self.offset, self.null_mask[indices]
        )

    def slice(self, start: int, stop: int) -> "BitPackedVector":
        return BitPackedVector(
            self.dtype,
            self.packed[start:stop],
            self.offset,
            self.null_mask[start:stop],
        )

    def concat(self, other: ColumnVector) -> ColumnVector:
        if other.dtype is not self.dtype:
            raise ExecutionError(
                f"cannot concat {self.dtype} column with {other.dtype} column"
            )
        if (
            isinstance(other, BitPackedVector)
            and other.offset == self.offset
            and other.packed.dtype == self.packed.dtype
        ):
            return BitPackedVector(
                self.dtype,
                np.concatenate([self.packed, other.packed]),
                self.offset,
                np.concatenate([self.null_mask, other.null_mask]),
            )
        if not isinstance(other, EncodedVector):
            packed = _pack_against(self.offset, self.packed.dtype, other)
            if packed is not None:
                return BitPackedVector(
                    self.dtype,
                    np.concatenate([self.packed, packed]),
                    self.offset,
                    np.concatenate(
                        [self.null_mask, np.asarray(other.nulls, dtype=bool)]
                    ),
                )
        return self.materialize().concat(
            other.materialize() if isinstance(other, EncodedVector) else other
        )

    def storage_nbytes(self) -> int:
        return self.packed.nbytes + self.null_mask.nbytes

    def __reduce__(self):
        return (
            BitPackedVector,
            (self.dtype, self.packed, self.offset, self.null_mask),
        )


# ----------------------------------------------------------------------
# Encoders + selection
# ----------------------------------------------------------------------
def encode_dictionary(vector: ColumnVector) -> DictionaryVector | None:
    """Dictionary-encode a TEXT vector, or None when not worthwhile.

    The distinct values are found by hashing, so a column past the
    cardinality cap is turned down before anything is sorted; only the
    k distinct values are sorted (the same dictionary ``np.unique`` gives).
    """
    nulls = vector.nulls
    present = vector.values[~nulls].tolist()
    if not present:
        return None
    try:
        distinct = dict.fromkeys(present)
    except TypeError:  # unhashable payloads — leave plain
        return None
    k = len(distinct)
    if k > DICT_MAX_CARDINALITY or k > len(vector) // 2:
        return None
    try:
        ordered = sorted(distinct)
    except TypeError:  # unorderable payloads — leave plain
        return None
    dictionary = np.fromiter(ordered, dtype=object, count=k)
    return DictionaryVector(
        vector.dtype, _codes_of(ordered, nulls, present), dictionary
    )


def _codes_against(dictionary: np.ndarray, vector: ColumnVector) -> np.ndarray | None:
    """Codes of *vector* against an existing dictionary, or None if any
    present value is missing from it (caller re-encodes from scratch)."""
    nulls = vector.nulls
    try:
        return _codes_of(
            dictionary.tolist(), nulls, vector.values[~nulls].tolist()
        )
    except KeyError:
        return None


def _codes_of(ordered: list, nulls: np.ndarray, present: list) -> np.ndarray:
    """int32 codes into *ordered* for the *present* values, -1 at NULLs."""
    index = {v: i for i, v in enumerate(ordered)}
    codes = np.full(len(nulls), -1, dtype=np.int32)
    codes[~nulls] = np.fromiter(
        map(index.__getitem__, present), dtype=np.int32, count=len(present)
    )
    return codes


def _pack_against(
    offset: int, packed_dtype: np.dtype, vector: ColumnVector
) -> np.ndarray | None:
    """Pack a plain integer vector into an existing frame, or None when any
    present value falls outside it (caller re-encodes from scratch)."""
    values = vector.values
    nulls = vector.nulls
    present = values[~nulls]
    if len(present):
        cap = int(np.iinfo(packed_dtype).max)
        if int(present.min()) < offset or int(present.max()) - offset > cap:
            return None
    return (np.where(nulls, offset, values) - offset).astype(packed_dtype)


def encode_rle(vector: ColumnVector) -> RunLengthVector | None:
    """Run-length encode a vector, or None when runs are too short."""
    n = len(vector)
    if n == 0:
        return None
    values = vector.values
    nulls = vector.nulls
    # FLOAT runs compare bit patterns: 0.0 == -0.0, yet a run holds one
    # value, and decoding must give back the sign each row was stored with.
    same = values.view(np.int64) if vector.dtype is DataType.FLOAT else values
    change = np.empty(n, dtype=bool)
    change[0] = True
    if n > 1:
        null_flip = nulls[1:] != nulls[:-1]
        both_present = ~(nulls[1:] | nulls[:-1])
        value_change = np.asarray(same[1:] != same[:-1], dtype=bool)
        change[1:] = null_flip | (both_present & value_change)
    starts = np.nonzero(change)[0]
    if len(starts) > n // RLE_MAX_RUN_FRACTION:
        return None
    stops = np.concatenate([starts[1:], [n]])
    lengths = (stops - starts).astype(np.int64)
    run_nulls = nulls[starts].copy()
    run_values = values[starts].copy()
    if run_nulls.any():
        run_values[run_nulls] = _zero_of(vector.dtype)
    return RunLengthVector(vector.dtype, run_values, run_nulls, lengths)


_PACK_WIDTHS = (
    (np.uint8, (1 << 8) - 1),
    (np.uint16, (1 << 16) - 1),
    (np.uint32, (1 << 32) - 1),
)


def encode_bitpacked(vector: ColumnVector) -> BitPackedVector | None:
    """Frame-of-reference pack an INTEGER/DATE vector, or None."""
    values = vector.values
    nulls = vector.nulls
    present = values[~nulls]
    if len(present) == 0:
        return None
    lo = int(present.min())
    hi = int(present.max())
    span = hi - lo
    for width, cap in _PACK_WIDTHS:
        if span <= cap:
            shifted = np.where(nulls, lo, values) - lo
            return BitPackedVector(
                vector.dtype,
                shifted.astype(width),
                lo,
                np.asarray(nulls, dtype=bool).copy(),
            )
    return None


def encode_vector(vector: ColumnVector) -> ColumnVector:
    """The best encoding of *vector* per the selection rules, else itself.

    Selection mirrors what :class:`~flock.db.storage.ColumnStats` measures:
    TEXT goes dictionary while cardinality stays low; INTEGER/DATE prefer
    runs, then frame-of-reference packing; FLOAT/BOOLEAN only ever pay for
    run-length (packing floats would change bit patterns).
    """
    if isinstance(vector, EncodedVector):
        return vector
    if len(vector) < MIN_ENCODE_ROWS:
        return vector
    dtype = vector.dtype
    if dtype is DataType.TEXT:
        encoded = encode_dictionary(vector)
        return vector if encoded is None else encoded
    if dtype in (DataType.INTEGER, DataType.DATE):
        encoded = encode_rle(vector) or encode_bitpacked(vector)
        return vector if encoded is None else encoded
    if dtype in (DataType.FLOAT, DataType.BOOLEAN):
        encoded = encode_rle(vector)
        return vector if encoded is None else encoded
    return vector


def encode_columns(
    columns: Sequence[ColumnVector], enabled: bool
) -> list[ColumnVector]:
    """Per-column encoding for a staged table version.

    With encodings disabled, already-encoded inputs (a dictionary append
    over a pre-toggle base, say) are decoded so the kill switch really
    yields plain storage for every new version.
    """
    if enabled:
        return [encode_vector(c) for c in columns]
    return [
        c.materialize() if isinstance(c, EncodedVector) else c for c in columns
    ]


# ----------------------------------------------------------------------
# Concatenation + memory accounting helpers
# ----------------------------------------------------------------------
def concat_encoded(chunks: Sequence[ColumnVector]) -> ColumnVector | None:
    """One-shot concat of same-encoding chunks, or None for the plain path.

    The spill and scatter-gather paths concatenate many chunks; when those
    are slices of one dictionary/bit-packed column the merge moves codes,
    not decoded values.
    """
    first = chunks[0]
    if isinstance(first, DictionaryVector):
        dictionary = first.dictionary
        for c in chunks[1:]:
            if not isinstance(c, DictionaryVector) or c.dictionary is not dictionary:
                return None
        return DictionaryVector(
            first.dtype,
            np.concatenate([c.codes for c in chunks]),
            dictionary,
        )
    if isinstance(first, BitPackedVector):
        for c in chunks[1:]:
            if (
                not isinstance(c, BitPackedVector)
                or c.offset != first.offset
                or c.packed.dtype != first.packed.dtype
            ):
                return None
        return BitPackedVector(
            first.dtype,
            np.concatenate([c.packed for c in chunks]),
            first.offset,
            np.concatenate([c.null_mask for c in chunks]),
        )
    return None


def _object_payload_bytes(array: np.ndarray) -> int:
    """Pointer + (id-deduplicated) payload bytes of an object array."""
    total = 8 * len(array)
    seen: set[int] = set()
    for value in array.tolist():
        if value is None:
            continue
        key = id(value)
        if key in seen:
            continue
        seen.add(key)
        total += sys.getsizeof(value)
    return total


def vector_nbytes(vector: ColumnVector) -> int:
    """Resident bytes of one vector (encoded payload or plain arrays)."""
    if isinstance(vector, EncodedVector):
        return vector.storage_nbytes()
    if vector.values.dtype == np.dtype(object):
        return _object_payload_bytes(vector.values) + vector.nulls.nbytes
    return vector.values.nbytes + vector.nulls.nbytes


def batch_nbytes(batch) -> int:
    """Estimated resident bytes of a batch (drives the spill decision)."""
    return sum(vector_nbytes(c) for c in batch.columns)


def encoding_of(vector: ColumnVector) -> str | None:
    """Short encoding tag for EXPLAIN annotations (None when plain)."""
    return vector.encoding if isinstance(vector, EncodedVector) else None
