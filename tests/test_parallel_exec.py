"""Morsel-driven parallel execution: determinism, merging and plumbing.

Three layers of coverage:

- property tests (hypothesis) — random tables with arbitrary shapes, NULL
  ratios and int/float/bool/text mixes are run through a serial engine, a
  morsel-parallel twin with tiny forced morsels, and a numpy reference;
  results must be *bit-identical* between serial and parallel (repr-level:
  row order, -0.0 vs 0.0, exact mantissas), and numerically correct vs
  numpy. Aggregates and top-k run serially over a parallel pipeline, so
  each of their queries also runs over a filter that keeps every row;
- unit tests of the merge machinery — morsel bounds, column and batch
  concatenation, the worker pool's ordering and error contracts, the cost
  model's serial-vs-parallel decision;
- engine plumbing — ``SET flock.workers``, ``FLOCK_WORKERS`` and
  ``Database(workers=...)`` validation, EXPLAIN ANALYZE parallelism
  annotations, the nested-parallelism guard.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flock.db import Database
from flock.db.exec.parallel import morsel_bounds
from flock.db.exec.pool import WorkerPool, in_worker_thread
from flock.db.optimizer.cost import (
    DEFAULT_MORSEL_ROWS,
    choose_morsel_rows,
)
from flock.db.types import DataType
from flock.db.vector import Batch, ColumnVector, concat_columns
from flock.errors import BindError, ExecutionError


# ----------------------------------------------------------------------
# Twin-engine helpers
# ----------------------------------------------------------------------
def _twin():
    return Database(workers=1), Database(workers=4)


#: A predicate that keeps every row of ``t``: it puts a parallel Filter
#: pipeline under the aggregate / top-k head.
EVERY_ROW = "WHERE i IS NULL OR i IS NOT NULL"

#: The tiny_morsels fixture patches module constants once per test; that
#: holds for every example Hypothesis generates inside it.
PROPERTY_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _load(db, rows):
    db.execute("CREATE TABLE t (i INT, f FLOAT, b BOOLEAN, s TEXT)")
    if not rows:
        return
    values = ", ".join(
        "({}, {}, {}, {})".format(
            "NULL" if i is None else i,
            "NULL" if f is None else repr(f),
            "NULL" if b is None else ("TRUE" if b else "FALSE"),
            "NULL" if s is None else f"'{s}'",
        )
        for i, f, b, s in rows
    )
    db.execute(f"INSERT INTO t VALUES {values}")


def _rows(db, sql):
    return repr(db.execute(sql).rows())


def _load_ints(db, n: int = 40) -> None:
    db.execute("CREATE TABLE t (v INT)")
    db.execute(
        "INSERT INTO t VALUES " + ", ".join(f"({i})" for i in range(n))
    )


row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(-100, 100)),
    st.one_of(
        st.none(),
        st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: round(x, 6)),
    ),
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
)

# Shapes deliberately include empty (0 rows), single-row, and sizes around
# morsel boundaries (3-row morsels → 2/3/4-row tables hit the "fewer rows
# than one morsel", "exactly one morsel" and "ragged tail" cases).
table_strategy = st.lists(row_strategy, min_size=0, max_size=40)


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(table_strategy)
def test_aggregates_bit_identical_and_match_numpy(tiny_morsels, rows):
    tiny_morsels(3)
    serial, parallel = _twin()
    try:
        for db in (serial, parallel):
            _load(db, rows)
        sql = (
            "SELECT COUNT(*), COUNT(i), COUNT(DISTINCT i), SUM(i), "
            "SUM(f), AVG(f), MIN(f), MAX(f), STDDEV(f), MIN(s), MAX(s) "
            "FROM t"
        )
        for query in (sql, f"{sql} {EVERY_ROW}"):
            assert _rows(serial, query) == _rows(parallel, query), query

        got = serial.execute(sql).rows()[0]
        ints = [i for i, _, _, _ in rows if i is not None]
        floats = [f for _, f, _, _ in rows if f is not None]
        texts = [s for _, _, _, s in rows if s is not None]
        assert got[0] == len(rows)
        assert got[1] == len(ints)
        assert got[2] == len(set(ints))
        assert got[3] == (sum(ints) if ints else None)
        if floats:
            assert math.isclose(
                got[4], float(np.sum(floats)), rel_tol=1e-9, abs_tol=1e-9
            )
            assert math.isclose(
                got[5], float(np.mean(floats)), rel_tol=1e-9, abs_tol=1e-9
            )
            assert got[6] == min(floats)
            assert got[7] == max(floats)
        else:
            assert got[4] is None and got[5] is None
            assert got[6] is None and got[7] is None
        assert got[9] == (min(texts) if texts else None)
        assert got[10] == (max(texts) if texts else None)
    finally:
        serial.close()
        parallel.close()


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(table_strategy)
def test_grouped_aggregates_bit_identical(tiny_morsels, rows):
    tiny_morsels(3)
    serial, parallel = _twin()
    try:
        for db in (serial, parallel):
            _load(db, rows)
        # Group order is first-appearance order: identical output order is
        # part of the contract, so no ORDER BY here on purpose.
        for where in ("", EVERY_ROW):
            for sql in (
                "SELECT s, COUNT(*), SUM(f), AVG(i), COUNT(DISTINCT i) "
                f"FROM t {where} GROUP BY s",
                "SELECT b, s, STDDEV(f), MIN(i), MAX(f) "
                f"FROM t {where} GROUP BY b, s",
                f"SELECT i, COUNT(*) FROM t {where} "
                "GROUP BY i HAVING COUNT(*) > 1",
            ):
                assert _rows(serial, sql) == _rows(parallel, sql), sql
    finally:
        serial.close()
        parallel.close()


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(table_strategy, st.integers(1, 10), st.integers(0, 4))
def test_topk_and_pipelines_bit_identical(tiny_morsels, rows, limit, offset):
    tiny_morsels(3)
    serial, parallel = _twin()
    try:
        for db in (serial, parallel):
            _load(db, rows)
        for where in ("", EVERY_ROW):
            for sql in (
                f"SELECT i, f, s FROM t {where} ORDER BY f DESC, i "
                f"LIMIT {limit} OFFSET {offset}",
                f"SELECT i, s FROM t {where} ORDER BY s, f LIMIT {limit}",
                f"SELECT i, f FROM t {where} LIMIT {limit} OFFSET {offset}",
                f"SELECT DISTINCT s FROM t {where}",
                f"SELECT i, f FROM t {where} ORDER BY i, f, s",
            ):
                assert _rows(serial, sql) == _rows(parallel, sql), sql
        sql = "SELECT i * 2 + 1, f FROM t WHERE i > 0"
        assert _rows(serial, sql) == _rows(parallel, sql), sql
    finally:
        serial.close()
        parallel.close()


@settings(max_examples=20, **PROPERTY_SETTINGS)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=30))
def test_error_surfacing_bit_identical(tiny_morsels, values):
    """Division by zero raises the same error, parallel or not — the
    lowest-index-morsel rule makes the parallel engine surface exactly the
    failure serial execution would hit first."""
    tiny_morsels(2)
    serial, parallel = _twin()
    try:
        for db in (serial, parallel):
            db.execute("CREATE TABLE z (v INT)")
            db.execute(
                "INSERT INTO z VALUES "
                + ", ".join(f"({v})" for v in values)
            )
        outcomes = []
        for db in (serial, parallel):
            try:
                outcomes.append(("ok", repr(db.execute(
                    "SELECT 10 / v FROM z"
                ).rows())))
            except ExecutionError as exc:
                outcomes.append(("err", str(exc)))
        assert outcomes[0] == outcomes[1]
        if any(v == 0 for v in values):
            assert outcomes[0][0] == "err"
    finally:
        serial.close()
        parallel.close()


# ----------------------------------------------------------------------
# Merge machinery
# ----------------------------------------------------------------------
class TestMorselBounds:
    def test_partitions_exactly(self):
        assert morsel_bounds(10, 3) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert morsel_bounds(9, 3) == [(0, 3), (3, 6), (6, 9)]
        assert morsel_bounds(2, 3) == [(0, 2)]
        assert morsel_bounds(0, 3) == []

    def test_bounds_cover_every_row_once(self):
        for n in range(0, 50):
            for m in range(1, 9):
                bounds = morsel_bounds(n, m)
                covered = [i for lo, hi in bounds for i in range(lo, hi)]
                assert covered == list(range(n)), (n, m)


class TestConcat:
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

    def test_morsels_are_zero_copy_views(self):
        batch = Batch(
            ["x"],
            [ColumnVector.from_values(DataType.INTEGER, list(range(10)))],
        )
        # The executor cuts morsels exactly this way.
        morsels = [batch.slice(lo, hi) for lo, hi in morsel_bounds(10, 4)]
        assert [m.num_rows for m in morsels] == [4, 4, 2]
        for morsel in morsels:
            column = morsel.columns[0]
            assert np.shares_memory(column.values, batch.columns[0].values)
            assert np.shares_memory(column.nulls, batch.columns[0].nulls)


class TestWorkerPool:
    def test_results_in_submission_order(self):
        import time

        pool = WorkerPool(4)
        try:
            def make(i):
                def task():
                    time.sleep(0.01 * ((7 - i) % 4))  # finish out of order
                    return i
                return task

            assert pool.run_ordered([make(i) for i in range(8)]) == list(
                range(8)
            )
        finally:
            pool.shutdown()

    def test_lowest_index_error_wins(self):
        pool = WorkerPool(4)
        try:
            def ok():
                return 1

            def boom(tag):
                def task():
                    raise ValueError(tag)
                return task

            with pytest.raises(ValueError, match="first"):
                pool.run_ordered([ok, boom("first"), ok, boom("second")])
        finally:
            pool.shutdown()

    def test_workers_are_marked(self):
        pool = WorkerPool(2)
        try:
            assert not in_worker_thread()
            assert pool.run_ordered(
                [lambda: in_worker_thread()] * 4
            ) == [True] * 4
        finally:
            pool.shutdown()


class TestCostModel:
    def test_serial_for_small_or_single_worker(self):
        assert choose_morsel_rows(10**6, has_predict=False, workers=1) == 0
        assert choose_morsel_rows(100, has_predict=False, workers=4) == 0
        assert choose_morsel_rows(0, has_predict=False, workers=4) == 0

    def test_parallel_above_threshold(self):
        rows = 10**6
        chosen = choose_morsel_rows(rows, has_predict=False, workers=4)
        assert chosen == DEFAULT_MORSEL_ROWS
        assert len(morsel_bounds(rows, chosen)) >= 2

    def test_predict_lowers_threshold(self):
        rows = 4096
        assert choose_morsel_rows(rows, has_predict=False, workers=4) == 0
        assert choose_morsel_rows(rows, has_predict=True, workers=4) > 0

    def test_explicit_floor_and_morsel_size_win(self, tiny_morsels):
        tiny_morsels(7)
        chosen = choose_morsel_rows(40, has_predict=False, workers=4)
        assert 0 < chosen <= 7

    def test_never_a_single_morsel(self, tiny_morsels):
        tiny_morsels(300)
        for rows in range(1, 400):
            chosen = choose_morsel_rows(rows, has_predict=False, workers=4)
            if chosen:
                assert len(morsel_bounds(rows, chosen)) >= 2, rows


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
class TestEngineConfiguration:
    def test_env_configuration(self, monkeypatch):
        monkeypatch.setenv("FLOCK_WORKERS", "3")
        db = Database()
        try:
            assert db.workers == 3
        finally:
            db.close()

    def test_explicit_args_beat_env(self, monkeypatch):
        monkeypatch.setenv("FLOCK_WORKERS", "3")
        db = Database(workers=2)
        try:
            assert db.workers == 2
        finally:
            db.close()

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
    def test_bad_env_workers_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("FLOCK_WORKERS", raw)
        with pytest.raises(BindError, match="FLOCK_WORKERS must be"):
            Database()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_bad_constructor_workers_rejected(self, workers):
        with pytest.raises(BindError, match=r"Database\(workers=\.\.\.\)"):
            Database(workers=workers)

    def test_set_workers_statement(self):
        db = Database(workers=1)  # explicit: FLOCK_WORKERS may be set in CI
        try:
            assert db.workers == 1
            result = db.execute("SET flock.workers = 4")
            assert result.detail == "flock.workers = 4"
            assert db.workers == 4
        finally:
            db.close()

    @pytest.mark.parametrize(
        "name", ["flock.morsel_rows", "flock.parallel_min_rows"]
    )
    def test_morsel_settings_are_gone(self, name):
        db = Database()
        try:
            with pytest.raises(BindError, match="unknown setting"):
                db.execute(f"SET {name} = 8")
        finally:
            db.close()

    def test_set_rejects_bad_values(self):
        db = Database()
        try:
            with pytest.raises(BindError, match="flock.workers must be"):
                db.execute("SET flock.workers = 0")
            with pytest.raises(BindError):
                db.execute("SET flock.unknown_thing = 1")
        finally:
            db.close()

    def test_set_requires_admin(self):
        db = Database()
        try:
            db.execute("CREATE USER bob")
            from flock.errors import SecurityError

            with pytest.raises(SecurityError):
                db.execute("SET flock.workers = 2", user="bob")
        finally:
            db.close()

    def test_explain_analyze_reports_parallelism(self, tiny_morsels):
        tiny_morsels(5)
        db = Database(workers=4)
        try:
            _load_ints(db)
            result = db.execute(
                "EXPLAIN ANALYZE SELECT SUM(v) FROM t WHERE v >= 0"
            )
            text = "\n".join(r[0] for r in result.rows())
            assert "workers=4" in text
            assert "morsels=8" in text
        finally:
            db.close()

    def test_parallel_metrics_recorded(self, tiny_morsels):
        from flock.observability import metrics

        tiny_morsels(5)
        db = Database(workers=4)
        try:
            _load_ints(db)
            before = metrics().counter("parallel.fragments").value
            db.execute("SELECT SUM(v) FROM t WHERE v >= 0")
            after = metrics().counter("parallel.fragments").value
            assert after > before
        finally:
            db.close()

    def test_no_nested_parallelism(self, tiny_morsels):
        """A query running inside a pool worker must not fan out again."""
        tiny_morsels(5)
        db = Database(workers=4)
        try:
            _load_ints(db)
            pool = db._acquire_pool()

            def explain():
                result = db.execute(
                    "EXPLAIN ANALYZE SELECT SUM(v) FROM t WHERE v >= 0"
                )
                return "\n".join(r[0] for r in result.rows())

            assert "workers=" in explain()  # the driver thread fans out
            (text,) = pool.run_ordered([explain])
            assert "workers=" not in text
        finally:
            db.close()

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT v % 3, SUM(v), COUNT(*) FROM t WHERE v >= 0 "
            "GROUP BY v % 3",
            "SELECT v FROM t WHERE v >= 0 ORDER BY v % 7 DESC, v "
            "LIMIT 5 OFFSET 2",
        ],
    )
    def test_heads_run_serially_over_parallel_pipeline(
        self, tiny_morsels, sql
    ):
        """Aggregate and top-k heads consume the pipeline's concatenated
        morsel output: only the pipeline node carries workers=/morsels=,
        and the result is bit-identical to serial execution."""
        tiny_morsels(5)
        serial, parallel = _twin()
        try:
            for db in (serial, parallel):
                _load_ints(db)
            assert _rows(serial, sql) == _rows(parallel, sql)
            lines = [
                r[0] for r in parallel.execute(f"EXPLAIN ANALYZE {sql}").rows()
            ]
            fanned = [line for line in lines if "workers=4" in line]
            assert len(fanned) == 1 and "morsels=8" in fanned[0], lines
            assert " rows=40 " in fanned[0], lines  # counted once, merged
            assert fanned[0].lstrip().startswith(("Filter", "Project")), lines
            for line in lines:
                if line.lstrip().startswith(("Aggregate", "Limit", "Sort")):
                    assert "workers=" not in line and "morsels=" not in line
        finally:
            serial.close()
            parallel.close()

