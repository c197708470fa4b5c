"""Encoded-vector round trips, memory-budgeted spill and the top-k heap.

The property battery pushes every encoding x dtype x null pattern through
encode -> take/filter/slice/concat -> decode and demands bit-identical
physical arrays against the plain vector. Engine tests then hold the same
contract across WAL replay and checkpoint reopen, verify that a query
exceeding ``flock.memory_budget`` completes by spilling (metrics fired,
``spill=`` extras rendered, results unchanged), and pin the bounded-heap
ORDER BY + LIMIT path (``topk=heap``).
"""

from __future__ import annotations

import itertools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flock.db import Database
from flock.db.encoding import (
    DICT_MAX_CARDINALITY,
    BitPackedVector,
    DictionaryVector,
    EncodedVector,
    RunLengthVector,
    concat_encoded,
    encode_bitpacked,
    encode_columns,
    encode_dictionary,
    encode_vector,
    encoding_of,
    vector_nbytes,
)
from flock.db.exec.grouping import sort_codes
from flock.db.exec.spill import SpillManager
from flock.db.expr import (
    BoundBinary,
    BoundColumn,
    BoundInList,
    BoundLike,
    BoundLiteral,
)
from flock.db.types import DataType
from flock.db.vector import Batch, ColumnVector
from flock.errors import ExecutionError, FlockError
from flock.observability import metrics


@pytest.fixture(autouse=True)
def _encodings_on(monkeypatch):
    # The engine tests need encoded storage whatever FLOCK_ENCODINGS is,
    # so the kill-switch lane runs them too; plain twins SET it off.
    monkeypatch.setenv("FLOCK_ENCODINGS", "1")


def _plain_db():
    db = Database()
    db.execute("SET flock.encodings = 0")
    return db


def _budgeted(db):
    db.execute("SET flock.memory_budget = 4000")
    return db


# ----------------------------------------------------------------------
# Property battery: encode -> operate -> decode is bit-identical
# ----------------------------------------------------------------------
N = 96  # above MIN_ENCODE_ROWS, enough for interesting masks


def _text_lowcard(rng):
    return [f"cat_{rng.randrange(5)}" for _ in range(N)]


def _int_runs(rng):
    return [i // 8 for i in range(N)]


def _int_smallrange(rng):
    return [rng.randrange(0, 200) for _ in range(N)]


def _int_offset(rng):
    # Large offset, small span: frame-of-reference must carry the base.
    return [10_000_000 + rng.randrange(0, 50) for _ in range(N)]


def _date_runs(rng):
    return [19_000 + (i // 12) for i in range(N)]  # days since epoch


def _float_runs(rng):
    return [float(i // 16) * 0.5 for i in range(N)]


def _float_signed_zero_runs(rng):
    # 0.0 == -0.0, so only a bitwise run boundary keeps each row's sign.
    return [0.0 if (i // 24) % 2 == 0 else -0.0 for i in range(N)]


def _bool_runs(rng):
    return [(i // 10) % 2 == 0 for i in range(N)]


SHAPES = [
    ("text-lowcard", DataType.TEXT, _text_lowcard, DictionaryVector),
    ("int-runs", DataType.INTEGER, _int_runs, RunLengthVector),
    ("int-smallrange", DataType.INTEGER, _int_smallrange, BitPackedVector),
    ("int-offset", DataType.INTEGER, _int_offset, BitPackedVector),
    ("date-runs", DataType.DATE, _date_runs, RunLengthVector),
    ("float-runs", DataType.FLOAT, _float_runs, RunLengthVector),
    (
        "float-signed-zero", DataType.FLOAT, _float_signed_zero_runs,
        RunLengthVector,
    ),
    ("bool-runs", DataType.BOOLEAN, _bool_runs, RunLengthVector),
]

NULL_PATTERNS = {
    "none": lambda i: False,
    "sparse": lambda i: i % 7 == 0,
    "blocks": lambda i: (i // 16) % 2 == 1,
    "edges": lambda i: i < 3 or i >= N - 3,
    "all": lambda i: True,
}


def _build(shape, null_pattern):
    _, dtype, maker, _ = shape
    rng = random.Random(20260809)
    values = maker(rng)
    is_null = NULL_PATTERNS[null_pattern]
    items = [None if is_null(i) else v for i, v in enumerate(values)]
    return ColumnVector.from_values(dtype, items)


def _assert_identical(left: ColumnVector, right: ColumnVector) -> None:
    """Decoded physical arrays match exactly (values under NULLs too)."""
    assert left.dtype is right.dtype
    assert len(left) == len(right)
    assert np.array_equal(np.asarray(left.nulls), np.asarray(right.nulls))
    lv, rv = np.asarray(left.values), np.asarray(right.values)
    if lv.dtype == np.dtype(object):
        mask = ~np.asarray(left.nulls)
        assert lv[mask].tolist() == rv[mask].tolist()
    elif lv.dtype.kind == "f":
        # Bit patterns, not ==: 0.0 == -0.0 would hide a lost sign.
        assert np.array_equal(lv.view(np.int64), rv.view(np.int64)), (lv, rv)
    else:
        assert np.array_equal(lv, rv), (lv, rv)
    assert left.to_pylist() == right.to_pylist()


@pytest.mark.parametrize("null_pattern", sorted(NULL_PATTERNS))
@pytest.mark.parametrize("shape", SHAPES, ids=[s[0] for s in SHAPES])
def test_encode_roundtrip_operations(shape, null_pattern):
    plain = _build(shape, null_pattern)
    encoded = encode_vector(plain)
    if null_pattern == "none":
        # With no nulls the selection rules must pick the expected class;
        # null patterns may shift the winner (sparse nulls break runs) or
        # leave the vector plain — round-trip identity still holds below.
        assert isinstance(encoded, shape[3]), encoding_of(encoded)
    if not isinstance(encoded, EncodedVector):
        _assert_identical(encoded, plain)
        return
    assert vector_nbytes(encoded) < vector_nbytes(plain)

    _assert_identical(encoded, plain)
    _assert_identical(encoded.materialize(), plain)

    rng = np.random.default_rng(7)
    take = rng.integers(0, N, size=N + 13).astype(np.int64)
    _assert_identical(encoded.take(take), plain.take(take))

    mask = (np.arange(N) % 3 == 0) | (np.arange(N) > N - 10)
    _assert_identical(encoded.filter(mask), plain.filter(mask))

    _assert_identical(encoded.slice(5, N - 7), plain.slice(5, N - 7))
    _assert_identical(encoded.slice(0, 0), plain.slice(0, 0))

    _assert_identical(
        encoded.concat(encoded.slice(0, 11)),
        plain.concat(plain.slice(0, 11)),
    )
    # Mixed encoded/plain concat falls back to decoded arrays.
    _assert_identical(
        encoded.concat(plain.slice(0, 11)),
        plain.concat(plain.slice(0, 11)),
    )

    for i in (0, 1, N // 2, N - 1):
        assert encoded[i] == plain[i]


@pytest.mark.parametrize("shape", SHAPES, ids=[s[0] for s in SHAPES])
def test_concat_encoded_same_payload(shape):
    plain = _build(shape, "none")
    encoded = encode_vector(plain)
    if not isinstance(encoded, (DictionaryVector, BitPackedVector)):
        pytest.skip("one-shot concat covers dictionary/bit-packed only")
    chunks = [encoded.slice(0, 40), encoded.slice(40, 70), encoded.slice(70, N)]
    merged = concat_encoded(chunks)
    assert merged is not None
    assert type(merged) is type(encoded)
    _assert_identical(merged, plain)


def test_encode_columns_kill_switch_decodes():
    plain = _build(SHAPES[0], "sparse")
    encoded = encode_vector(plain)
    assert isinstance(encoded, DictionaryVector)
    out = encode_columns([encoded], enabled=False)
    assert not isinstance(out[0], EncodedVector)
    _assert_identical(out[0], plain)
    again = encode_columns([plain], enabled=True)
    assert isinstance(again[0], DictionaryVector)


def test_short_and_highcard_vectors_stay_plain():
    short = ColumnVector.from_values(DataType.TEXT, ["a", "b"] * 8)
    assert not isinstance(encode_vector(short), EncodedVector)
    unique = ColumnVector.from_values(
        DataType.TEXT, [f"v{i}" for i in range(N)]
    )
    assert not isinstance(encode_vector(unique), EncodedVector)


# ----------------------------------------------------------------------
# Dictionary encoding by hashing, against the np.unique encoder
# ----------------------------------------------------------------------
def _reference_encode_dictionary(vector):
    """The ``np.unique`` encoder hashing replaced: (dictionary, codes),
    or None where it declined (too many distinct values, unorderable)."""
    present = vector.values[~vector.nulls]
    if len(present) == 0:
        return None
    try:
        dictionary = np.unique(present)
    except TypeError:
        return None
    k = len(dictionary)
    if k > DICT_MAX_CARDINALITY or k > len(vector) // 2:
        return None
    index = {v: i for i, v in enumerate(dictionary.tolist())}
    codes = np.full(len(vector), -1, dtype=np.int32)
    codes[~vector.nulls] = [index[v] for v in present.tolist()]
    return dictionary, codes


def _assert_encodes_like_reference(vector):
    got = encode_dictionary(vector)
    want = _reference_encode_dictionary(vector)
    if want is None:
        assert got is None
        return
    dictionary, codes = want
    assert got.dictionary.dtype == dictionary.dtype
    assert got.dictionary.tolist() == dictionary.tolist()
    assert got.codes.dtype == codes.dtype
    assert np.array_equal(got.codes, codes)
    _assert_identical(got, vector)


#: Few distinct values (so the encoder accepts) beside free text.
_TEXT = st.one_of(
    st.none(),
    st.sampled_from(["", "a", "b", "é", "Z", "日本", "a\x00", "\U0001F600"]),
    st.text(max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(items=st.lists(_TEXT, min_size=1, max_size=200))
def test_encode_dictionary_matches_np_unique(items):
    _assert_encodes_like_reference(
        ColumnVector.from_values(DataType.TEXT, items)
    )


@pytest.mark.parametrize("k", [
    DICT_MAX_CARDINALITY - 1, DICT_MAX_CARDINALITY, DICT_MAX_CARDINALITY + 1,
])
def test_encode_dictionary_cardinality_boundary(k):
    items = [f"v{i:05d}" for i in range(k)] * 2 + [None]
    _assert_encodes_like_reference(
        ColumnVector.from_values(DataType.TEXT, items)
    )


@pytest.mark.parametrize("distinct", [49, 50, 51])
def test_encode_dictionary_half_length_boundary(distinct):
    items = [f"v{i}" for i in range(distinct)] + ["v0"] * (100 - distinct)
    _assert_encodes_like_reference(
        ColumnVector.from_values(DataType.TEXT, items)
    )


def test_encode_dictionary_declines_unorderable_payloads():
    values = np.array(["a", 1, "a", 1] * 20, dtype=object)
    vector = ColumnVector(DataType.TEXT, values, np.zeros(80, dtype=bool))
    assert _reference_encode_dictionary(vector) is None
    assert encode_dictionary(vector) is None


def test_codes_against_an_existing_dictionary():
    base = encode_dictionary(
        ColumnVector.from_values(DataType.TEXT, ["a", "b", None] * 20)
    )
    covered = ColumnVector.from_values(DataType.TEXT, ["b", None, "a"])
    appended = base.concat(covered)
    assert isinstance(appended, DictionaryVector)
    assert appended.dictionary is base.dictionary
    assert appended.codes[-3:].tolist() == [1, -1, 0]
    fresh = base.concat(ColumnVector.from_values(DataType.TEXT, ["c"]))
    _assert_identical(
        fresh,
        ColumnVector.from_values(DataType.TEXT, ["a", "b", None] * 20 + ["c"]),
    )


# ----------------------------------------------------------------------
# Value-wise predicates and TEXT sort keys: every layout of one column
# against a row-at-a-time reference
# ----------------------------------------------------------------------
_PY_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_EDGE_TEXT = ["", "a", "b", "é", "日本", "a\x00", "\x00", "\U0001F600"]
_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -2.0]
#: Values of each column type; INTEGER stays inside one 32-bit frame so
#: every column can be bit-packed.
_VALUES = {
    DataType.TEXT: st.one_of(st.sampled_from(_EDGE_TEXT), st.text(max_size=3)),
    DataType.INTEGER: st.one_of(
        st.integers(-3, 3), st.integers(-(2**31), 2**31 - 1)
    ),
    DataType.FLOAT: st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()),
}
_LIKE_PATTERN = st.text(alphabet="ab%_é.*\x00", max_size=4)


@st.composite
def _predicate_cases(draw):
    """(dtype, items, keep, other, literal, literal dtype, members, pattern).

    The column under test is ``items`` where ``keep`` holds; ``other`` is
    a second column of its length for column-vs-column comparisons.
    """
    dtype = draw(st.sampled_from(sorted(_VALUES, key=str)))
    cell = st.one_of(st.none(), _VALUES[dtype])
    items = draw(st.lists(cell, max_size=16))
    keep = draw(st.lists(st.booleans(), min_size=len(items),
                         max_size=len(items)))
    other = draw(st.lists(cell, min_size=sum(keep), max_size=sum(keep)))
    literal_dtype = dtype
    if dtype is DataType.INTEGER and draw(st.booleans()):
        literal_dtype = DataType.FLOAT  # mixed: both sides compare as float64
    literal = draw(st.one_of(st.none(), _VALUES[literal_dtype]))
    members = draw(st.lists(_VALUES[dtype], max_size=4))
    return (dtype, items, keep, other, literal, literal_dtype, members,
            draw(_LIKE_PATTERN))


def _like_reference(value: str, pattern: str) -> bool:
    """SQL LIKE by recursion on the pattern: ``%`` any run, ``_`` one char."""
    if not pattern:
        return value == ""
    head, rest = pattern[0], pattern[1:]
    if head == "%":
        return any(
            _like_reference(value[i:], rest) for i in range(len(value) + 1)
        )
    return (
        value != ""
        and head in ("_", value[0])
        and _like_reference(value[1:], rest)
    )


def _runs_of(dtype, items):
    """*items* run-length encoded whatever their run lengths."""
    groups = [list(g) for _, g in itertools.groupby(items, key=repr)]
    heads = ColumnVector.from_values(dtype, [g[0] for g in groups])
    lengths = np.array([len(g) for g in groups], dtype=np.int64)
    return RunLengthVector(dtype, heads.values, heads.nulls, lengths)


def _dictionary_of(items):
    """TEXT *items* dictionary-encoded whatever their cardinality."""
    ordered = sorted({v for v in items if v is not None})
    index = {v: i for i, v in enumerate(ordered)}
    codes = np.array(
        [-1 if v is None else index[v] for v in items], dtype=np.int32
    )
    dictionary = np.array(ordered, dtype=object)
    return DictionaryVector(DataType.TEXT, codes, dictionary)


def _layouts(dtype, items, keep=None):
    """The column ``items[keep]`` in every layout that can hold *dtype*.

    The dictionary is built over all of *items* and then filtered, so it
    keeps entries that no remaining row references.
    """
    keep = [True] * len(items) if keep is None else keep
    mask = np.array(keep, dtype=bool)
    kept = [v for v, k in zip(items, keep) if k]
    plain = ColumnVector.from_values(dtype, kept)
    layouts = {"plain": plain, "rle": _runs_of(dtype, kept)}
    if dtype is DataType.TEXT:
        layouts["dict"] = _dictionary_of(items).filter(mask)
    if dtype is DataType.INTEGER:
        layouts["bitpacked"] = encode_bitpacked(plain) or BitPackedVector(
            dtype, np.zeros(len(kept), dtype=np.uint8), 0, plain.nulls.copy()
        )
    return layouts


def _assert_rows(result, want, label):
    """*result* holds *want*'s (value, is NULL) pairs, False under NULL."""
    assert result.dtype is DataType.BOOLEAN, label
    assert len(result) == len(want), label
    assert np.asarray(result.nulls).tolist() == [n for _, n in want], label
    # NULL rows must hold False whatever the layout or negation.
    values = np.asarray(result.values)
    assert values.dtype == np.dtype(bool), label
    assert values.tolist() == [v for v, _ in want], label


def _compare_reference(op, left, right):
    return [
        (False, True) if a is None or b is None
        else (_PY_COMPARE[op](a, b), False)
        for a, b in zip(left, right)
    ]


def _sorted_rows(items, ascending):
    """Row order of Python ``sorted`` (stable), NULLs last on ASC and first
    on DESC."""
    present = [i for i, v in enumerate(items) if v is not None]
    nulls = [i for i, v in enumerate(items) if v is None]
    ordered = sorted(present, key=items.__getitem__, reverse=not ascending)
    return ordered + nulls if ascending else nulls + ordered


_EMPTY = (DataType.TEXT, [], [], [], "a", DataType.TEXT, ["a"], "%")
_ALL_NULL = (DataType.INTEGER, [None] * 5, [True] * 5, [None, 1, None, 2, 3],
             0, DataType.INTEGER, [0], "%")
#: Filtering leaves dictionary entries "b", "é" and "" unreferenced.
_FILTERED_DICT = (
    DataType.TEXT, ["b", "a\x00", None, "é", "a", "", "a"],
    [False, True, True, False, True, False, True], ["a", None, "a", "a\x00"],
    "a", DataType.TEXT, ["b", "a"], "a_",
)
_SIGNED_ZERO = (
    DataType.FLOAT, [0.0, -0.0, None, math.nan, math.inf, -math.inf],
    [True] * 6, [-0.0, 0.0, 1.0, math.nan, math.inf, None],
    -0.0, DataType.FLOAT, [0.0, math.nan], "%",
)

#: 2**24 + 1 and 2**24 differ in float64 but not in float32.
_MIXED = (
    DataType.INTEGER, [2**24 + 1, None, -3, 2**24], [True] * 4,
    [2**24, 2**24 + 1, None, 0], float(2**24), DataType.FLOAT, [2**24], "%",
)


@settings(max_examples=200, deadline=None)
@given(case=_predicate_cases())
@example(case=_EMPTY)
@example(case=_ALL_NULL)
@example(case=_FILTERED_DICT)
@example(case=_SIGNED_ZERO)
@example(case=_MIXED)
def test_value_predicates_match_row_reference(case):
    """Compare, IN and LIKE give the row-at-a-time answer on every layout.

    Compare covers all six operators with the literal on either side and
    column against column (every pair of layouts). IN and LIKE run plain
    and negated. NULL rows hold False in every result. TEXT sort codes
    order rows exactly as Python ``sorted`` does.
    """
    dtype, items, keep, other, literal, literal_dtype, members, pattern = case
    kept = [v for v, k in zip(items, keep) if k]
    layouts = _layouts(dtype, items, keep)
    others = _layouts(dtype, other)
    col = BoundColumn(0, dtype, "a")
    lit = BoundLiteral(literal_dtype, literal)
    constant = [literal] * len(kept)
    for name, vector in layouts.items():
        batch = Batch(["a"], [vector])
        for op in _PY_COMPARE:
            _assert_rows(
                BoundBinary(op, col, lit, DataType.BOOLEAN).evaluate(batch),
                _compare_reference(op, kept, constant), (name, op, "col-lit"),
            )
            _assert_rows(
                BoundBinary(op, lit, col, DataType.BOOLEAN).evaluate(batch),
                _compare_reference(op, constant, kept), (name, op, "lit-col"),
            )
            for other_name, other_vector in others.items():
                pair = Batch(["a", "b"], [vector, other_vector])
                right = BoundColumn(1, dtype, "b")
                _assert_rows(
                    BoundBinary(op, col, right, DataType.BOOLEAN).evaluate(pair),
                    _compare_reference(op, kept, other),
                    (name, other_name, op, "col-col"),
                )
        for negated in (False, True):
            member = [
                (False, True) if v is None
                else (any(v == m for m in members) != negated, False)
                for v in kept
            ]
            _assert_rows(
                BoundInList(col, members, negated).evaluate(batch), member,
                (name, "IN", negated),
            )
            like = [
                (False, True) if v is None
                else ((isinstance(v, str) and _like_reference(v, pattern))
                      != negated, False)
                for v in kept
            ]
            _assert_rows(
                BoundLike(col, pattern, negated).evaluate(batch), like,
                (name, "LIKE", pattern, negated),
            )
        if dtype is DataType.TEXT:
            for ascending in (True, False):
                codes = sort_codes(vector, ascending)
                order = np.argsort(codes, kind="stable").tolist()
                assert order == _sorted_rows(kept, ascending), (name, ascending)


# ----------------------------------------------------------------------
# Engine round trips: encoded tables through WAL replay and checkpoints
# ----------------------------------------------------------------------
def _fill(db, rows=400):
    db.execute(
        "CREATE TABLE enc (k INT PRIMARY KEY, cat TEXT, qty INT, "
        "price FLOAT, d DATE)"
    )
    db.executemany(
        "INSERT INTO enc VALUES (?, ?, ?, ?, ?)",
        [
            (
                i,
                None if i % 11 == 0 else f"cat_{i % 4}",
                i % 50,
                float(i % 7) * 1.25,
                f"2026-0{1 + i % 9}-1{i % 8}",
            )
            for i in range(rows)
        ],
    )


def _head_encodings(db, table):
    head = db.catalog.table(table).head_version
    return [encoding_of(c) for c in head.columns]


def test_encoded_head_version_and_kill_switch(tmp_path):
    db = Database()
    _fill(db)
    encs = _head_encodings(db, "enc")
    assert encs[1] == "dict" and encs[2] == "bp"
    rows = db.execute("SELECT * FROM enc ORDER BY k").rows()

    plain = _plain_db()
    _fill(plain)
    assert all(e is None for e in _head_encodings(plain, "enc"))
    assert plain.execute("SELECT * FROM enc ORDER BY k").rows() == rows

    # Runtime kill switch: the next staged version decodes everything.
    db.execute("SET flock.encodings = 0")
    db.execute("INSERT INTO enc VALUES (9001, 'cat_1', 1, 0.5, '2026-01-01')")
    assert all(e is None for e in _head_encodings(db, "enc"))
    # Re-enabling re-probes plain columns at the next power-of-two row
    # crossing (amortized O(log n)), so append past the next boundary.
    db.execute("SET flock.encodings = 1")
    db.executemany(
        "INSERT INTO enc VALUES (?, 'cat_2', 2, 0.5, '2026-01-02')",
        [(10_000 + i,) for i in range(200)],
    )
    assert _head_encodings(db, "enc")[1] == "dict"
    db.close()
    plain.close()


def test_signed_zero_survives_run_length_storage():
    db = Database()
    db.execute("CREATE TABLE z (x FLOAT)")
    db.executemany("INSERT INTO z VALUES (?)", [[0.0]] * 20 + [[-0.0]] * 20)
    assert _head_encodings(db, "z") == ["rle"]
    signs = [
        math.copysign(1.0, x) for (x,) in db.execute("SELECT x FROM z").rows()
    ]
    assert signs == [1.0] * 20 + [-1.0] * 20
    db.close()


def test_encoded_table_survives_wal_replay(tmp_path):
    path = tmp_path / "enc_wal"
    db = Database.open(path, checkpoint_bytes=0)
    _fill(db)
    expected = db.execute("SELECT * FROM enc ORDER BY k").rows()
    # No close(): recovery replays the whole WAL into encoded storage.
    reopened = Database.open(path, checkpoint_bytes=0)
    assert reopened.execute("SELECT * FROM enc ORDER BY k").rows() == expected
    assert _head_encodings(reopened, "enc")[1] == "dict"
    reopened.close()


def test_encoded_table_survives_checkpoint_reopen(tmp_path, monkeypatch):
    path = tmp_path / "enc_ckpt"
    db = Database.open(path)
    _fill(db)
    expected = db.execute("SELECT * FROM enc ORDER BY k").rows()
    db.checkpoint()
    db.close()
    reopened = Database.open(path)
    assert reopened.execute("SELECT * FROM enc ORDER BY k").rows() == expected
    # The checkpoint stores plain JSON; the loader re-encodes the head.
    assert _head_encodings(reopened, "enc")[1] == "dict"
    # And a kill-switch reopen of the same files yields plain storage.
    reopened.close()
    monkeypatch.setenv("FLOCK_ENCODINGS", "0")
    off = Database.open(path)
    assert off.execute("SELECT * FROM enc ORDER BY k").rows() == expected
    assert all(e is None for e in _head_encodings(off, "enc"))
    off.close()


# ----------------------------------------------------------------------
# Memory budget: blocking operators spill, results unchanged
# ----------------------------------------------------------------------
def _explain_text(db, sql):
    return "\n".join(
        " ".join(str(v) for v in row)
        for row in db.execute("EXPLAIN ANALYZE " + sql).rows()
    )


def _resident_bytes(db, *tables):
    return sum(
        vector_nbytes(c)
        for t in tables
        for c in db.catalog.table(t).head_version.columns
    )


@pytest.mark.parametrize(
    "sql,counter,tag",
    [
        (
            "SELECT cat, qty, COUNT(*), SUM(price), MIN(k) FROM enc "
            "GROUP BY cat, qty",
            "spill.aggregates",
            "spill=agg:",
        ),
        (
            "SELECT e.k, e.cat, d.label FROM enc e JOIN dims d "
            "ON e.qty = d.qty",
            "spill.joins",
            "spill=join:",
        ),
        (
            "SELECT e.k, e.cat, d.label FROM enc e LEFT JOIN dims d "
            "ON e.qty = d.qty AND e.cat = d.cat",
            "spill.joins",
            "spill=join:",
        ),
    ],
)
def test_spill_is_the_many_partition_case(sql, counter, tag):
    """One algorithm at every budget: unset, just above the input and far
    below it give repr-identical rows (unsorted: row order included), and
    only the last touches the disk."""
    db = Database()
    _fill(db, rows=1200)
    db.execute("CREATE TABLE dims (qty INT, cat TEXT, label TEXT)")
    db.executemany(
        "INSERT INTO dims VALUES (?, ?, ?)",
        [(q, f"cat_{q % 3}", f"label_{q % 6}") for q in range(40)],
    )
    just_above = _resident_bytes(db, "enc", "dims") + 1
    expected = repr(db.execute(sql).rows())
    for budget, spills in ((0, False), (just_above, False), (4000, True)):
        db.execute(f"SET flock.memory_budget = {budget}")
        before = {
            name: metrics().counter(name).value
            for name in (counter, "spill.partitions", "spill.bytes_written")
        }
        assert repr(db.execute(sql).rows()) == expected
        for name, value in before.items():
            assert (metrics().counter(name).value > value) == spills, name
        assert (tag in _explain_text(db, sql)) == spills
    db.close()


def test_residual_join_over_budget_stays_one_partition():
    db = _budgeted(Database())
    _fill(db, rows=1200)
    sql = (
        "SELECT a.k, b.k FROM enc a LEFT JOIN enc b "
        "ON a.qty = b.qty AND b.k > a.k + 1100"
    )
    before = metrics().counter("spill.partitions").value
    spilled = repr(db.execute(sql).rows())
    assert metrics().counter("spill.partitions").value == before
    assert "spill=" not in _explain_text(db, sql)
    db.execute("SET flock.memory_budget = 0")
    assert repr(db.execute(sql).rows()) == spilled
    db.close()


def _spilling_db(monkeypatch, spill_dir):
    db = _budgeted(Database())
    _fill(db, rows=1200)
    monkeypatch.setattr(db, "spill_directory", lambda: str(spill_dir))
    return db


def test_unwritable_spill_directory_is_a_typed_error(tmp_path, monkeypatch):
    # A regular file where the directory should be: open() fails with
    # ENOTDIR even for root, which a chmod would not stop.
    blocker = tmp_path / "spill"
    blocker.write_text("not a directory")
    db = _spilling_db(monkeypatch, blocker)
    with pytest.raises(ExecutionError, match="cannot write spill file .*part-"):
        db.execute("SELECT cat, qty, COUNT(*) FROM enc GROUP BY cat, qty")
    db.execute("SET flock.memory_budget = 0")
    assert db.execute("SELECT COUNT(*) FROM enc").scalar() == 1200
    db.close()


def test_truncated_spill_partition_is_a_typed_error(tmp_path, monkeypatch):
    db = _spilling_db(monkeypatch, tmp_path)
    real_load = SpillManager.load

    def truncate_then_load(self, path):
        with open(path, "r+b") as f:
            f.truncate(f.seek(0, 2) // 2)
        return real_load(self, path)

    monkeypatch.setattr(SpillManager, "load", truncate_then_load)
    with pytest.raises(ExecutionError, match="cannot read spill file .*part-"):
        db.execute("SELECT cat, qty, COUNT(*) FROM enc GROUP BY cat, qty")
    assert list(tmp_path.iterdir()) == []  # every partition file unlinked
    db.close()


def test_spill_under_budget_durable_database(tmp_path):
    # The spill directory lives under the database directory when durable.
    path = tmp_path / "spilled"
    db = _budgeted(Database.open(path))
    _fill(db, rows=1200)
    sql = "SELECT cat, COUNT(*), SUM(qty) FROM enc GROUP BY cat, qty"
    rows = db.execute(sql).rows()
    db.execute("SET flock.memory_budget = 0")
    assert db.execute(sql).rows() == rows
    # Spill files are transient: nothing survives the statement.
    spill_dir = path / "spill"
    assert not spill_dir.exists() or not list(spill_dir.iterdir())
    db.close()


def test_tpch_class_query_exceeding_budget_completes():
    """A lineitem-class aggregation far over budget completes via spill."""
    db = Database()
    db.execute(
        "CREATE TABLE lineitem (l_orderkey INT, l_quantity INT, "
        "l_extendedprice FLOAT, l_returnflag TEXT, l_linestatus TEXT)"
    )
    rng = random.Random(42)
    db.executemany(
        "INSERT INTO lineitem VALUES (?, ?, ?, ?, ?)",
        [
            (
                i // 4,
                rng.randrange(1, 51),
                round(rng.uniform(900.0, 100_000.0), 2),
                rng.choice(["A", "N", "R"]),
                rng.choice(["F", "O"]),
            )
            for i in range(3000)
        ],
    )
    sql = (
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity), "
        "SUM(l_extendedprice), COUNT(*) FROM lineitem "
        "GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus"
    )
    expected = db.execute(sql).rows()
    before = metrics().counter("spill.aggregates").value
    db.execute("SET flock.memory_budget = 2000")
    assert db.execute(sql).rows() == expected
    assert metrics().counter("spill.aggregates").value > before
    db.close()


# ----------------------------------------------------------------------
# Bounded-memory top-k heap
# ----------------------------------------------------------------------
def test_order_by_limit_uses_heap():
    db = Database()
    _fill(db, rows=1000)
    sql = "SELECT k, cat, qty FROM enc ORDER BY cat, k DESC LIMIT 10"
    text = _explain_text(db, sql)
    assert "topk=heap" in text
    # The heap prefix equals the full-sort prefix, ties and all.
    heap_rows = db.execute(sql).rows()
    all_rows = db.execute(
        "SELECT k, cat, qty FROM enc ORDER BY cat, k DESC"
    ).rows()
    assert heap_rows == all_rows[:10]
    offset = db.execute(sql + " OFFSET 5").rows()
    assert offset == all_rows[5:15]
    db.close()


def test_topk_heap_matches_plain_engine():
    encoded, plain = Database(), _plain_db()
    for db in (encoded, plain):
        _fill(db, rows=600)
    for sql in (
        "SELECT cat, qty FROM enc ORDER BY cat LIMIT 7",
        "SELECT k FROM enc ORDER BY price DESC, k LIMIT 25",
        "SELECT cat, COUNT(*) FROM enc GROUP BY cat ORDER BY cat DESC LIMIT 3",
    ):
        assert encoded.execute(sql).rows() == plain.execute(sql).rows(), sql
    encoded.close()
    plain.close()


# ----------------------------------------------------------------------
# Knobs
# ----------------------------------------------------------------------
def test_set_knob_validation():
    db = Database()
    db.execute("SET flock.memory_budget = 65536")
    db.execute("SET flock.encodings = 0")
    db.execute("SET flock.encodings = 1")
    with pytest.raises(FlockError):
        db.execute("SET flock.memory_budget = 'lots'")
    with pytest.raises(FlockError):
        db.execute("SET flock.encodings = 'maybe'")
    db.close()


@pytest.mark.parametrize(
    "raw, budget", [("", None), ("0", None), (" 4096 ", 4096)]
)
def test_env_memory_budget(monkeypatch, raw, budget):
    monkeypatch.setenv("FLOCK_MEMORY_BUDGET", raw)
    db = Database()
    assert db.memory_budget == budget
    db.close()


@pytest.mark.parametrize("raw, on", [("", True), ("1", True), ("0", False)])
def test_env_switches(monkeypatch, raw, on):
    monkeypatch.setenv("FLOCK_ENCODINGS", raw)
    monkeypatch.setenv("FLOCK_INDEXES", raw)
    db = Database()
    assert db.encodings_enabled() is on
    assert db.indexes_enabled() is on
    db.close()
