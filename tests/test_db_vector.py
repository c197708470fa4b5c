"""Unit + property tests for ColumnVector and Batch."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flock.db.types import DataType
from flock.db.vector import Batch, ColumnVector, concat_columns
from flock.errors import ExecutionError


class TestColumnVector:
    def test_from_values_with_nulls(self):
        vec = ColumnVector.from_values(DataType.INTEGER, [1, None, 3])
        assert len(vec) == 3
        assert vec.to_pylist() == [1, None, 3]
        assert vec.has_nulls()

    def test_constant(self):
        vec = ColumnVector.constant(DataType.TEXT, "x", 4)
        assert vec.to_pylist() == ["x"] * 4

    def test_constant_null(self):
        vec = ColumnVector.constant(DataType.FLOAT, None, 3)
        assert vec.to_pylist() == [None] * 3

    def test_take_filter_slice(self):
        vec = ColumnVector.from_values(DataType.INTEGER, [10, 20, 30, 40])
        assert vec.take(np.array([3, 0])).to_pylist() == [40, 10]
        mask = np.array([True, False, True, False])
        assert vec.filter(mask).to_pylist() == [10, 30]
        assert vec.slice(1, 3).to_pylist() == [20, 30]

    def test_concat_type_mismatch(self):
        a = ColumnVector.from_values(DataType.INTEGER, [1])
        b = ColumnVector.from_values(DataType.TEXT, ["x"])
        with pytest.raises(ExecutionError):
            a.concat(b)

    def test_concat(self):
        a = ColumnVector.from_values(DataType.INTEGER, [1, None])
        b = ColumnVector.from_values(DataType.INTEGER, [3])
        assert a.concat(b).to_pylist() == [1, None, 3]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ExecutionError):
            ColumnVector(
                DataType.INTEGER,
                np.array([1, 2]),
                np.array([False]),
            )

    def test_date_roundtrip_via_getitem(self):
        vec = ColumnVector.from_values(DataType.DATE, ["2020-05-17", None])
        assert vec[0].isoformat() == "2020-05-17"
        assert vec[1] is None


@given(st.lists(st.one_of(st.integers(-1000, 1000), st.none()), max_size=50))
def test_vector_roundtrip_property(values):
    """from_values → to_pylist is the identity for INTEGER columns."""
    vec = ColumnVector.from_values(DataType.INTEGER, values)
    assert vec.to_pylist() == values


@given(
    st.lists(st.one_of(st.text(max_size=8), st.none()), max_size=40),
    st.data(),
)
def test_vector_filter_matches_python(values, data):
    """filter() agrees with a plain Python list comprehension."""
    vec = ColumnVector.from_values(DataType.TEXT, values)
    mask = np.array(
        data.draw(
            st.lists(
                st.booleans(), min_size=len(values), max_size=len(values)
            )
        ),
        dtype=bool,
    )
    expected = [v for v, keep in zip(values, mask) if keep]
    assert vec.filter(mask).to_pylist() == expected


class TestBatch:
    def _batch(self) -> Batch:
        return Batch(
            ["a", "b"],
            [
                ColumnVector.from_values(DataType.INTEGER, [1, 2, 3]),
                ColumnVector.from_values(DataType.TEXT, ["x", None, "z"]),
            ],
        )

    def test_shape(self):
        batch = self._batch()
        assert batch.num_rows == 3
        assert batch.num_columns == 2

    def test_ragged_rejected(self):
        with pytest.raises(ExecutionError):
            Batch(
                ["a", "b"],
                [
                    ColumnVector.from_values(DataType.INTEGER, [1]),
                    ColumnVector.from_values(DataType.INTEGER, [1, 2]),
                ],
            )

    def test_column_lookup(self):
        assert self._batch().column("b").to_pylist() == ["x", None, "z"]
        with pytest.raises(ExecutionError):
            self._batch().column("missing")

    def test_rows(self):
        assert list(self._batch().rows()) == [
            (1, "x"),
            (2, None),
            (3, "z"),
        ]

    def test_select_and_with_columns(self):
        batch = self._batch()
        projected = batch.select([1])
        assert projected.names == ["b"]
        extended = batch.with_columns(
            ["c"], [ColumnVector.from_values(DataType.INTEGER, [7, 8, 9])]
        )
        assert extended.names == ["a", "b", "c"]
        assert extended.num_rows == 3

    def test_concat_schema_mismatch(self):
        other = Batch(
            ["a"], [ColumnVector.from_values(DataType.INTEGER, [1])]
        )
        with pytest.raises(ExecutionError):
            self._batch().concat(other)

    def test_empty(self):
        batch = Batch.empty(["a"], [DataType.FLOAT])
        assert batch.num_rows == 0


class TestConcat:
    """One-allocation concatenation, used by the spill and shard-merge
    paths, must equal repeated pairwise :meth:`concat`."""

    def test_concat_columns_matches_pairwise(self):
        rng = np.random.default_rng(0)
        chunks = []
        for size in (0, 3, 1, 7, 0, 4):
            values = rng.normal(size=size)
            nulls = rng.random(size) < 0.3
            chunks.append(ColumnVector(DataType.FLOAT, values, nulls))
        merged = concat_columns(DataType.FLOAT, chunks)
        reference = chunks[0]
        for chunk in chunks[1:]:
            reference = reference.concat(chunk)
        assert np.array_equal(merged.values, reference.values)
        assert np.array_equal(merged.nulls, reference.nulls)

    def test_concat_columns_empty(self):
        merged = concat_columns(DataType.INTEGER, [])
        assert len(merged) == 0 and merged.dtype is DataType.INTEGER

    def test_batch_concat_all_matches_pairwise(self):
        def batch(lo, hi):
            return Batch(
                ["x"],
                [ColumnVector.from_values(
                    DataType.INTEGER, list(range(lo, hi))
                )],
            )

        pieces = [batch(0, 3), batch(3, 3), batch(3, 8), batch(8, 9)]
        merged = Batch.concat_all(pieces)
        assert list(merged.columns[0].values) == list(range(9))

    def test_slices_are_zero_copy_views(self):
        batch = Batch(
            ["x"],
            [ColumnVector.from_values(DataType.INTEGER, list(range(10)))],
        )
        pieces = [batch.slice(lo, hi) for lo, hi in ((0, 4), (4, 8), (8, 10))]
        assert [p.num_rows for p in pieces] == [4, 4, 2]
        for piece in pieces:
            column = piece.columns[0]
            assert np.shares_memory(column.values, batch.columns[0].values)
            assert np.shares_memory(column.nulls, batch.columns[0].nulls)
