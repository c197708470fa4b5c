"""Unit tests for flock.db.types."""

import datetime

import numpy as np
import pytest

from flock.db.types import (
    DataType,
    coerce_value,
    common_type,
    date_to_days,
    days_to_date,
    infer_type,
    python_value,
)
from flock.errors import TypeMismatchError


class TestInferType:
    def test_bool_before_int(self):
        # bool is a subclass of int; it must infer as BOOLEAN.
        assert infer_type(True) is DataType.BOOLEAN
        assert infer_type(False) is DataType.BOOLEAN

    def test_scalars(self):
        assert infer_type(3) is DataType.INTEGER
        assert infer_type(3.5) is DataType.FLOAT
        assert infer_type("x") is DataType.TEXT
        assert infer_type(datetime.date(2020, 1, 1)) is DataType.DATE

    def test_numpy_scalars(self):
        assert infer_type(np.int64(4)) is DataType.INTEGER
        assert infer_type(np.float64(4.5)) is DataType.FLOAT

    def test_unsupported(self):
        with pytest.raises(TypeMismatchError):
            infer_type(object())


class TestCoerce:
    def test_none_passes_through(self):
        for dtype in DataType:
            assert coerce_value(None, dtype) is None

    def test_int_coercions(self):
        assert coerce_value(5, DataType.INTEGER) == 5
        assert coerce_value(5.0, DataType.INTEGER) == 5
        with pytest.raises(TypeMismatchError):
            coerce_value(5.5, DataType.INTEGER)
        with pytest.raises(TypeMismatchError):
            coerce_value(True, DataType.INTEGER)
        with pytest.raises(TypeMismatchError):
            coerce_value("5", DataType.INTEGER)

    def test_float_coercions(self):
        assert coerce_value(5, DataType.FLOAT) == 5.0
        assert isinstance(coerce_value(5, DataType.FLOAT), float)
        with pytest.raises(TypeMismatchError):
            coerce_value("x", DataType.FLOAT)

    def test_text(self):
        assert coerce_value("hello", DataType.TEXT) == "hello"
        with pytest.raises(TypeMismatchError):
            coerce_value(5, DataType.TEXT)

    def test_boolean(self):
        assert coerce_value(True, DataType.BOOLEAN) is True
        with pytest.raises(TypeMismatchError):
            coerce_value(1, DataType.BOOLEAN)

    def test_date_from_string_and_date(self):
        days = coerce_value("1970-01-11", DataType.DATE)
        assert days == 10
        assert coerce_value(datetime.date(1970, 1, 11), DataType.DATE) == 10
        assert coerce_value(10, DataType.DATE) == 10

    def test_model_opaque(self):
        payload = {"any": "thing"}
        assert coerce_value(payload, DataType.MODEL) is payload


class TestDates:
    def test_epoch(self):
        assert date_to_days("1970-01-01") == 0
        assert days_to_date(0) == datetime.date(1970, 1, 1)

    def test_roundtrip(self):
        for iso in ("1992-02-29", "1998-12-01", "2026-07-07"):
            assert days_to_date(date_to_days(iso)).isoformat() == iso

    @pytest.mark.parametrize("text", [
        "2024-02-30", "2023-02-29", "2024-13-01", "0000-01-01",
        # ISO 8601 spellings Python 3.11+ parses and 3.10 does not.
        "20240101", "2024-W01-1", "2024-01-01T00:00",
        "2024-1-01", " 2024-01-01", "２０２４-01-01", "",
    ])
    def test_non_canonical_or_impossible_text_is_typed(self, text):
        with pytest.raises(TypeMismatchError, match="invalid DATE"):
            date_to_days(text)
        with pytest.raises(TypeMismatchError, match="invalid DATE"):
            coerce_value(text, DataType.DATE)


class TestCommonType:
    def test_same(self):
        assert common_type(DataType.TEXT, DataType.TEXT) is DataType.TEXT

    def test_numeric_unify(self):
        assert common_type(DataType.INTEGER, DataType.FLOAT) is DataType.FLOAT

    def test_incompatible(self):
        with pytest.raises(TypeMismatchError):
            common_type(DataType.TEXT, DataType.INTEGER)


class TestPythonValue:
    def test_date_back_to_date(self):
        assert python_value(10, DataType.DATE) == datetime.date(1970, 1, 11)

    def test_none(self):
        assert python_value(None, DataType.INTEGER) is None

    def test_numpy_unwrapped(self):
        assert isinstance(python_value(np.int64(3), DataType.INTEGER), int)
        assert isinstance(python_value(np.float64(3), DataType.FLOAT), float)
