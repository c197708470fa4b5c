"""The key kernel against the row-at-a-time hash tables it replaced.

``flock.db.exec.grouping.key_codes`` is the only place the executor forms
per-row keys. The reference implementations here are the tuple-dict
grouping loop and the build/probe hash join the executor used to carry:
Python tuples of user-facing values in a dict, so Python ``==`` decides
(NULL groups with NULL, ``0.0 == -0.0``, ``1 == 1.0 == True``, every NaN
row is its own key). The kernel must reproduce their groups, group order,
row indexes, pair order and unmatched rows exactly, whatever the mix of
types and encodings.
"""

from __future__ import annotations

import datetime

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flock.db.encoding import (
    DictionaryVector,
    encode_bitpacked,
    encode_rle,
)
from flock.db.exec import grouping
from flock.db.types import DataType
from flock.db.vector import ColumnVector

#: Small pools so keys repeat; the INTEGER pool also spans all of int64
#: (offset coding would wrap) and FLOAT holds NaN, 0.0/-0.0 and integers.
_POOLS = {
    DataType.INTEGER: [0, 1, 2, 3, -7, 4096, -(1 << 63), (1 << 63) - 1],
    DataType.DATE: [
        datetime.date(1970, 1, 1),
        datetime.date(1970, 1, 2),
        datetime.date(1998, 12, 1),
        datetime.date(1992, 2, 29),
    ],
    DataType.BOOLEAN: [True, False],
    DataType.FLOAT: [0.0, -0.0, 1.0, 2.0, 2.5, float("nan"), float("inf")],
    DataType.TEXT: ["", "a", "b", "ab", "1", "north"],
}


# ----------------------------------------------------------------------
# Reference implementations (the executor's former per-row loops)
# ----------------------------------------------------------------------
def reference_groups(vectors):
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(zip(*[v.to_pylist() for v in vectors])):
        groups.setdefault(key, []).append(i)
    return list(groups), list(groups.values())


def _key_rows(vectors):
    return [
        None if any(k is None for k in key) else key
        for key in zip(*[v.to_pylist() for v in vectors])
    ]


def reference_join(left_keys, right_keys):
    table: dict[tuple, list[int]] = {}
    for i, key in enumerate(_key_rows(right_keys)):
        if key is not None:  # NULL keys never match
            table.setdefault(key, []).append(i)
    left_out, right_out, unmatched = [], [], []
    for i, key in enumerate(_key_rows(left_keys)):
        matches = table.get(key, []) if key is not None else []
        left_out.extend([i] * len(matches))
        right_out.extend(matches)
        if not matches:
            unmatched.append(i)
    return left_out, right_out, unmatched


# ----------------------------------------------------------------------
# Strategies: runs of pooled values, in every encoding the dtype admits
# ----------------------------------------------------------------------
def _encode(vector: ColumnVector, encoding: str) -> ColumnVector:
    if encoding == "dict" and vector.dtype is DataType.TEXT:
        present = vector.values[~vector.nulls]
        dictionary = np.unique(present) if len(present) else present
        codes = np.full(len(vector), -1, dtype=np.int32)
        codes[~vector.nulls] = np.searchsorted(dictionary, present)
        return DictionaryVector(vector.dtype, codes, dictionary)
    if encoding == "rle":
        return encode_rle(vector) or vector
    if encoding == "bp" and vector.dtype in (DataType.INTEGER, DataType.DATE):
        present = vector.values[~vector.nulls]
        if len(present) and int(present.max()) - int(present.min()) < 1 << 32:
            return encode_bitpacked(vector) or vector
    return vector


@st.composite
def key_column(draw, n_rows: int, dtype: DataType | None = None):
    dtype = dtype or draw(st.sampled_from(list(_POOLS)))
    pool = _POOLS[dtype] + [None, None]
    items: list = []
    while len(items) < n_rows:
        items.extend([draw(st.sampled_from(pool))] * draw(st.integers(1, 5)))
    vector = ColumnVector.from_values(dtype, items[:n_rows])
    return _encode(vector, draw(st.sampled_from(["plain", "dict", "rle", "bp"])))


@st.composite
def key_columns(draw, max_rows: int = 40):
    n_rows = draw(st.integers(0, max_rows))
    arity = draw(st.integers(1, 6))
    return [draw(key_column(n_rows)) for _ in range(arity)]


_NUMERIC = [DataType.INTEGER, DataType.FLOAT, DataType.BOOLEAN]


@st.composite
def join_sides(draw):
    """Two sides whose key positions share a dtype, or pair number-like
    dtypes so ``1``/``1.0``/``True`` must meet across the join."""
    n_left = draw(st.integers(0, 30))
    n_right = draw(st.integers(0, 30))
    left, right = [], []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            left_type = right_type = draw(st.sampled_from(list(_POOLS)))
        else:
            left_type = draw(st.sampled_from(_NUMERIC))
            right_type = draw(st.sampled_from(_NUMERIC))
        left.append(draw(key_column(n_left, left_type)))
        right.append(draw(key_column(n_right, right_type)))
    return left, right


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
def assert_groups_match(vectors):
    keys, rows = reference_groups(vectors)
    keyed = grouping.key_codes(vectors)
    # repr: NaN keys compare unequal, and -0.0 / 1 / 1.0 / True must not blur.
    assert repr(grouping.key_tuples(vectors, keyed.first_rows)) == repr(keys)
    assert [g.tolist() for g in grouping.group_rows(keyed)] == rows
    assert keyed.first_rows.tolist() == [r[0] for r in rows]
    expected_codes = np.empty(len(vectors[0]), dtype=np.int64)
    for code, group in enumerate(rows):
        expected_codes[group] = code
    assert keyed.codes.tolist() == expected_codes.tolist()
    assert keyed.null_any.tolist() == [k is None for k in _key_rows(vectors)]


@settings(deadline=None, max_examples=300)
@given(key_columns())
def test_grouping_matches_tuple_dict(vectors):
    assert_groups_match(vectors)


@settings(deadline=None, max_examples=300)
@given(join_sides())
def test_join_matches_build_probe(sides):
    left, right = sides
    left_out, right_out, unmatched = reference_join(left, right)
    left_idx, right_idx, counts = grouping.equi_match(left, right)
    assert left_idx.tolist() == left_out
    assert right_idx.tolist() == right_out
    assert np.nonzero(counts == 0)[0].tolist() == unmatched


def test_fused_key_space_beyond_2_to_62():
    # Six INTEGER columns spread over ~10^4 values each: the positional
    # fuse would need ~10^24 > 2^62 codes, so it must re-densify midway.
    rng = np.random.default_rng(14)
    base = rng.integers(0, 10_000, size=(200, 6))
    rows = base[rng.integers(0, 200, size=1_000)]  # repeats, so real groups
    vectors = [
        ColumnVector.from_numpy(DataType.INTEGER, rows[:, k].copy())
        for k in range(6)
    ]
    assert_groups_match(vectors)
    left = [v.slice(0, 600) for v in vectors]
    right = [v.slice(400, 1_000) for v in vectors]
    left_out, right_out, unmatched = reference_join(left, right)
    left_idx, right_idx, counts = grouping.equi_match(left, right)
    assert (left_idx.tolist(), right_idx.tolist()) == (left_out, right_out)
    assert np.nonzero(counts == 0)[0].tolist() == unmatched


def test_cross_type_numbers_meet_and_dates_do_not():
    ints = ColumnVector.from_values(DataType.INTEGER, [1, 0, 2, None])
    floats = ColumnVector.from_values(DataType.FLOAT, [1.0, -0.0, 2.5, None])
    bools = ColumnVector.from_values(DataType.BOOLEAN, [True, False, True, None])
    dates = ColumnVector.from_values(DataType.DATE, [1, 0, 2, None])  # days
    for other in (floats, bools):
        left_idx, right_idx, _ = grouping.equi_match([ints], [other])
        assert (left_idx.tolist(), right_idx.tolist()) == reference_join(
            [ints], [other]
        )[:2]
        assert len(left_idx) >= 2
    # Same physical int64s, but a date never equals a number.
    assert len(grouping.equi_match([ints], [dates])[0]) == 0
    assert len(grouping.equi_match([dates], [dates])[0]) == 3
