"""Indexed point/IN-list lookups vs full scans at one million rows.

The workload is the serving layer's bread and butter: point lookups by
primary key (``WHERE id = ?``) and small IN-lists (``WHERE id IN (...)``)
against a large table. With ``flock.indexes = 1`` (the default) the
optimizer routes eligible predicates through a hash index
(:class:`flock.db.index.HashIndex`); with ``flock.indexes = 0`` the same
statements take the full-scan path.

The gated comparison runs through :meth:`Database.execute_plan` — the
prepared-statement hot path the serving plan cache uses — so both sides pay
identical fixed costs (lock, snapshot, audit) and the measured difference
is purely the access path. One-shot ``execute()`` timings (parse + bind +
optimize every call) are reported for context but not gated: per-statement
overhead is shared by both paths and dilutes the ratio. Results must match
row for row across access paths.

Acceptance gate (ISSUE.md): >=10x speedup for indexed point and IN-list
lookups vs the full scan at 1M rows. A zone-map range scan is reported for
context (not gated — pruning wins depend on clustering).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import cpu_count, write_json_report, write_report
from flock.db import Database
from flock.db.binder import Binder
from flock.db.sql.parser import parse_statement
from flock.db.types import DataType
from flock.db.vector import ColumnVector

ROWS = 1_000_000
REPEATS = 20
QUERIES = {
    "point": "SELECT id, v, x FROM points WHERE id = 123457",
    "inlist": (
        "SELECT COUNT(*) FROM points WHERE id IN "
        "(11, 222222, 333333, 444444, 987654)"
    ),
    "range": "SELECT COUNT(*) FROM points WHERE id > 990000",
}


def _build_engine() -> Database:
    """1M rows loaded by publishing pre-built vectors (benchmark setup only;
    SQL-level loading would dominate the measured section's runtime)."""
    db = Database()
    db.execute(
        "CREATE TABLE points (id INTEGER PRIMARY KEY, v INTEGER, x FLOAT)"
    )
    rng = np.random.default_rng(7)
    no_nulls = np.zeros(ROWS, dtype=bool)
    fresh = [
        ColumnVector(
            DataType.INTEGER, np.arange(1, ROWS + 1, dtype=np.int64), no_nulls
        ),
        ColumnVector(
            DataType.INTEGER, rng.integers(0, 1000, ROWS), no_nulls
        ),
        ColumnVector(DataType.FLOAT, rng.uniform(0, 1, ROWS), no_nulls),
    ]
    table = db.catalog.table("points")
    table.publish(table.build_append(fresh))
    return db


def _prepare(db: Database, sql: str, indexes: bool):
    """Bind + optimize once, with index selection forced on or off."""
    db.settings.indexes = int(indexes)
    try:
        bound = Binder(db, None).bind_query(parse_statement(sql))
        return db.optimizer.optimize(bound, db)
    finally:
        db.settings.indexes = 1


def _best_plan(db: Database, plan, sql: str) -> tuple[float, str]:
    db.execute_plan(plan, sql=sql)  # warm up (index build / stats caches)
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = db.execute_plan(plan, sql=sql)
        best = min(best, time.perf_counter() - start)
    return best, repr(result.rows())


def _best_execute(db: Database, sql: str) -> float:
    db.execute(sql)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        db.execute(sql)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def lookup_report() -> dict:
    db = _build_engine()
    report: dict = {
        "rows": ROWS,
        "repeats": REPEATS,
        "cpu_count": cpu_count(),
        # The >=10x index-vs-scan gate compares two access paths on the
        # same host, so it applies regardless of core count.
        "gate": {
            "threshold_speedup": 10.0,
            "queries": ["point", "inlist"],
            "applied": True,
            "skipped_reason": None,
        },
        "queries": {},
    }
    for name, sql in QUERIES.items():
        indexed_plan = _prepare(db, sql, indexes=True)
        scan_plan = _prepare(db, sql, indexes=False)
        indexed_s, indexed_rows = _best_plan(db, indexed_plan, sql)
        scan_s, scan_rows = _best_plan(db, scan_plan, sql)
        onehot_indexed_s = _best_execute(db, sql)
        db.execute("SET flock.indexes = 0")
        onehot_scan_s = _best_execute(db, sql)
        db.execute("SET flock.indexes = 1")
        report["queries"][name] = {
            "sql": sql,
            "indexed_s": indexed_s,
            "scan_s": scan_s,
            "speedup": scan_s / indexed_s,
            "one_shot_indexed_s": onehot_indexed_s,
            "one_shot_scan_s": onehot_scan_s,
            "one_shot_speedup": onehot_scan_s / onehot_indexed_s,
            "results_match": indexed_rows == scan_rows,
        }
    db.close()

    lines = [
        "Point/IN-list lookups: hash index vs full scan "
        "(bench_point_lookup.py)",
        f"rows: {ROWS}   best of {REPEATS}   "
        "(prepared-plan path; one-shot execute() in parentheses)",
        "",
        f"{'query':<8}{'indexed_ms':>12}{'scan_ms':>10}{'speedup':>9}"
        f"{'one-shot':>10}{'match':>7}",
    ]
    for name, q in report["queries"].items():
        lines.append(
            f"{name:<8}{q['indexed_s'] * 1000:>12.3f}"
            f"{q['scan_s'] * 1000:>10.3f}{q['speedup']:>8.1f}x"
            f"{q['one_shot_speedup']:>9.1f}x"
            f"{'yes' if q['results_match'] else 'NO':>7}"
        )
    write_report("point_lookup", lines)
    write_json_report("point_lookup", report)
    return report


class TestPointLookup:
    def test_results_identical_across_access_paths(self, lookup_report):
        for name, q in lookup_report["queries"].items():
            assert q["results_match"], name

    def test_point_lookup_speedup(self, lookup_report):
        speedup = lookup_report["queries"]["point"]["speedup"]
        assert speedup >= 10.0, f"point: {speedup:.1f}x"

    def test_inlist_lookup_speedup(self, lookup_report):
        speedup = lookup_report["queries"]["inlist"]["speedup"]
        assert speedup >= 10.0, f"inlist: {speedup:.1f}x"


def bench_point_lookup(benchmark, lookup_report):
    """Benchmark the indexed point lookup (report already written)."""
    db = _build_engine()
    try:
        sql = QUERIES["point"]
        plan = _prepare(db, sql, indexes=True)
        db.execute_plan(plan, sql=sql)  # build the index outside the loop
        benchmark(lambda: db.execute_plan(plan, sql=sql))
    finally:
        db.close()
