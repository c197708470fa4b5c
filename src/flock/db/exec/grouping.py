"""The key kernel: one row→code mapping behind every keyed operator.

Joins, semi-joins, GROUP BY, DISTINCT, set operations, window partitions
and spill partitioning all ask the same question — *which rows carry equal
keys?* — and :func:`key_codes` is the only place that answers it. It maps
key vectors to one dense int64 **code** per row such that two rows share a
code exactly when their key tuples are equal under Python ``==`` (the
engine's documented key semantics: NULL equals NULL, ``0.0 == -0.0``,
``1 == 1.0 == True``, NaN equals nothing — not even itself). Codes are
numbered by **first occurrence**, so ascending code order *is* the order
in which a row-at-a-time hash table would have met the keys:

- GROUP BY: the aggregate kernels reduce over the codes directly, and
  ``first_rows`` orders the groups; window PARTITION BY sorts on them.
- Index buckets: :func:`group_rows` — a stable argsort of the codes —
  yields groups in first-occurrence order, rows ascending within.
- DISTINCT / UNION: ``first_rows`` is the answer.
- INTERSECT / EXCEPT [ALL]: bincounts over a code space shared by both
  inputs (pass them as two sides).
- Equi-joins of any arity and type: :func:`equi_match` lines both sides'
  shared codes up, reproducing build-then-probe pair order.
- Spill: ``codes % partitions`` keeps equal keys together.

Per column the coding is injective on values and order-free, so the cheap
form wins: dictionary-encoded TEXT uses its codes as they are, int64-backed
columns (INTEGER, DATE, BOOLEAN — bit-packed and run-length included) are
offset from their minimum, FLOAT columns are ranked by ``np.unique``
(which keeps ``0.0 == -0.0`` and every NaN apart), and everything else
(plain TEXT, mixed types across sides) goes through one value→code dict
so Python equality decides. Column codes fuse positionally into one
int64; when the fused space would overflow it is re-densified and fusing
continues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flock.db.encoding import DictionaryVector
from flock.db.types import DataType, days_to_date
from flock.db.vector import ColumnVector

#: Key dtypes whose physical values compare exactly like their Python values.
_INT_KEY_TYPES = (DataType.INTEGER, DataType.DATE, DataType.BOOLEAN)

#: Fused codes stay below this so ``fused + codes * span`` cannot wrap.
_MAX_SPAN = 1 << 62


@dataclass
class KeyCodes:
    """Row codes over all sides concatenated in argument order."""

    codes: np.ndarray  # int64 per row, dense, numbered by first occurrence
    first_rows: np.ndarray  # first_rows[c]: first row with code c (ascending)
    null_any: np.ndarray  # True where any key column is NULL


def key_codes(*sides: list[ColumnVector]) -> KeyCodes:
    """Dense first-occurrence row codes of one or more equally wide sides.

    Each side is a list of key vectors; rows of later sides continue the
    numbering of earlier ones, so equal keys share a code across sides.
    """
    fused: np.ndarray | None = None
    span = 1
    null_any: np.ndarray | None = None
    for segments in zip(*sides):
        codes, card = _column_codes(list(segments))
        is_null = codes == 0
        null_any = is_null if null_any is None else null_any | is_null
        if fused is None:
            fused, span = codes, card
            continue
        if span * card > _MAX_SPAN:
            fused, span = _densify(fused)
            if span * card > _MAX_SPAN:
                codes, card = _densify(codes)
        fused = fused + codes * span
        span *= card
    if fused is None:
        raise ValueError("key_codes needs at least one key column")
    n = len(fused)
    if span > 4 * n + 1024:  # sparse: a first-row table would dwarf the input
        fused, span = _densify(fused)
    # first[c] = first row holding fused code c (n where c never occurs);
    # ranking the occurring codes by it is the first-occurrence numbering.
    first = np.full(span, n, dtype=np.int64)
    np.minimum.at(first, fused, np.arange(n, dtype=np.int64))
    occurring = np.nonzero(first < n)[0]
    occurring = occurring[np.argsort(first[occurring])]
    number = np.empty(span, dtype=np.int64)
    number[occurring] = np.arange(len(occurring), dtype=np.int64)
    return KeyCodes(number[fused], first[occurring], null_any)


def _densify(codes: np.ndarray) -> tuple[np.ndarray, int]:
    uniq, inverse = np.unique(codes, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64, copy=False), len(uniq)


def _column_codes(segments: list[ColumnVector]) -> tuple[np.ndarray, int]:
    """One key column's codes over its concatenated segments (0 = NULL)
    and an exclusive upper bound on them."""
    first = segments[0]
    if all(
        isinstance(s, DictionaryVector) and s.dictionary is first.dictionary
        for s in segments
    ):
        codes = np.concatenate([s.codes for s in segments]).astype(np.int64)
        return codes + 1, len(first.dictionary) + 1
    if first.dtype in _INT_KEY_TYPES and all(
        s.dtype is first.dtype for s in segments
    ):
        values = np.concatenate([s.values for s in segments]).astype(
            np.int64, copy=False
        )
        nulls = np.concatenate([s.nulls for s in segments])
        present = values[~nulls]
        if not len(present):
            return np.zeros(len(values), dtype=np.int64), 1
        low, high = int(present.min()), int(present.max())
        if high - low + 2 > _MAX_SPAN:  # offsets would wrap int64: rank
            ranks, count = _densify(present)
            codes = np.zeros(len(values), dtype=np.int64)
            codes[~nulls] = ranks + 1
            return codes, count + 1
        codes = (values - low) + 1
        codes[nulls] = 0
        return codes, high - low + 2
    if all(s.dtype is DataType.FLOAT for s in segments):
        # np.unique's sort keeps 0.0 == -0.0 and, with equal_nan=False,
        # every NaN its own value: Python == on floats, without the dict.
        values = np.concatenate([s.values for s in segments])
        nulls = np.concatenate([s.nulls for s in segments])
        uniq, inverse = np.unique(
            values[~nulls], return_inverse=True, equal_nan=False
        )
        codes = np.zeros(len(values), dtype=np.int64)
        codes[~nulls] = inverse.reshape(-1) + 1
        return codes, len(uniq) + 1
    table: dict = {}
    coded = []
    for s in segments:
        if isinstance(s, DictionaryVector):
            entries = [0] + [
                table.setdefault(v, len(table)) + 1
                for v in s.dictionary.tolist()
            ]
            coded.append(np.array(entries, dtype=np.int64)[s.codes + 1])
            continue
        present = ~s.nulls
        values = s.values[present].tolist()
        if s.dtype is DataType.DATE:  # a date never equals a number
            values = [days_to_date(v) for v in values]
        codes = np.zeros(len(present), dtype=np.int64)
        codes[present] = [table.setdefault(v, len(table)) + 1 for v in values]
        coded.append(codes)
    return np.concatenate(coded), len(table) + 1


def key_tuples(vectors: list[ColumnVector], rows: np.ndarray) -> list[tuple]:
    """The key tuples (user-facing Python values) held by *rows*."""
    return list(zip(*[v.take(rows).to_pylist() for v in vectors]))


def rows_by_code(
    codes: np.ndarray, n_codes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows sorted by code (ascending row within a code) and each code's
    row count: code *c* owns ``order[counts[:c].sum():][:counts[c]]``."""
    # numpy's stable sort is a linear radix sort for 16-bit keys only.
    narrow = codes.astype(np.uint16) if n_codes <= 1 << 16 else codes
    order = np.argsort(narrow, kind="stable")
    return order, np.bincount(codes, minlength=n_codes)


def group_rows(keyed: KeyCodes) -> list[np.ndarray]:
    """Each code's row indexes, ascending, in code order."""
    order, counts = rows_by_code(keyed.codes, len(keyed.first_rows))
    stops = np.cumsum(counts).tolist()
    return [order[a:b] for a, b in zip([0] + stops, stops)]


def equi_match(
    left_keys: list[ColumnVector], right_keys: list[ColumnVector]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equi-join pair indexes in build-then-probe order.

    Returns ``(left_idx, right_idx, match_counts)``: pairs ordered by left
    row with ascending right matches per left row, and ``match_counts[i]``
    left row *i*'s match count. A NULL in any key column never matches.
    """
    keyed = key_codes(left_keys, right_keys)
    n_left = len(left_keys[0])
    left_codes = keyed.codes[:n_left]
    right_rows = np.nonzero(~keyed.null_any[n_left:])[0]
    right_codes = keyed.codes[n_left:][right_rows]
    # Right rows ordered by code: code c's matches are the per_code[c]
    # rows from sorted_rows[starts[c]], in ascending row order.
    order, per_code = rows_by_code(right_codes, len(keyed.first_rows))
    sorted_rows = right_rows[order]
    starts = np.cumsum(per_code) - per_code
    counts = per_code[left_codes]
    counts[keyed.null_any[:n_left]] = 0
    left_idx = np.repeat(np.arange(n_left, dtype=np.int64), counts)
    within = np.arange(len(left_idx), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    right_idx = sorted_rows[np.repeat(starts[left_codes], counts) + within]
    return left_idx, right_idx, counts


def sort_codes(vector: ColumnVector, ascending: bool) -> np.ndarray:
    """Integer codes whose ascending order realizes the requested key order.

    NULLs sort last for ASC and first for DESC (the PostgreSQL default).

    Dictionary-encoded TEXT sorts on its int32 codes without decoding: the
    dictionary is sorted, so code order is value order, and lexsort only
    needs order-isomorphic codes per column. Numeric, DATE and BOOLEAN
    keys sort on an order-preserving int64 image of their values
    (:func:`_order_image`), with NULL at the int64 extreme past every
    value; ranking 200 k floats densely only to keep 20 of them was most
    of a top-k. Every other column is ranked densely by ``searchsorted``
    into its sorted distinct values, which order TEXT by Python ``<``.
    """
    if isinstance(vector, DictionaryVector):
        codes = vector.codes.astype(np.int64)
        null_mask = codes < 0
        distinct = len(vector.dictionary)
        if not ascending:
            codes = distinct - 1 - codes
            codes[null_mask] = -1  # NULL first on DESC
        else:
            codes[null_mask] = distinct  # NULL last on ASC
        return codes
    nulls = vector.nulls
    values = vector.values
    if values.dtype != object:
        codes = _order_image(values)
        # Only an INTEGER key holding INT64_MAX itself could tie with NULL
        # (DESC inverts it onto INT64_MIN); such a key ranks densely.
        if not (nulls.any() and np.any((codes == _INT64_MAX) & ~nulls)):
            if not ascending:
                np.invert(codes, out=codes)
            codes[nulls] = _INT64_MAX if ascending else _INT64_MIN
            return codes
    present_values = values[~nulls]
    if present_values.dtype == object:
        # Sort only the distinct TEXT values: np.unique would sort every
        # row through Python ``<``.
        unique = np.array(sorted(set(present_values.tolist())), dtype=object)
    else:
        unique = np.unique(present_values)
    codes = np.zeros(len(vector), dtype=np.int64)
    codes[~nulls] = np.searchsorted(unique, present_values)
    distinct = len(unique)
    if not ascending:
        codes = distinct - 1 - codes
        codes[nulls] = -1  # NULL first on DESC
    else:
        codes[nulls] = distinct  # NULL last on ASC
    return codes


_INT64_MIN = np.iinfo(np.int64).min
_INT64_MAX = np.iinfo(np.int64).max


def _order_image(values: np.ndarray) -> np.ndarray:
    """A new int64 array whose order (and equality) is that of *values*.

    Integers are their own image. A float's IEEE bits order like signed
    integers once a negative float's 63 magnitude bits are flipped; -0.0
    is folded into +0.0 first and every NaN into one positive NaN, which
    lands above +inf, as ``np.unique`` ranks them. The image of a float
    never reaches an int64 extreme.
    """
    if values.dtype.kind != "f":
        return values.astype(np.int64)
    canonical = np.where(np.isnan(values), np.nan, values + 0.0)
    bits = canonical.astype(np.float64, copy=False).view(np.int64)
    return bits ^ ((bits >> 63) & _INT64_MAX)


def sort_key_codes(keys, batch) -> list[np.ndarray]:
    """:func:`sort_codes` of each ``(expr, ascending)`` ORDER BY key over
    *batch*, primary key first (``np.lexsort`` wants them reversed)."""
    return [
        sort_codes(expr.evaluate(batch), ascending) for expr, ascending in keys
    ]
