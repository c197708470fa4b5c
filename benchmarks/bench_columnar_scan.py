"""Compressed columnar scans vs plain storage on a lineitem-class table.

The workload is the analytical half of the paper's enterprise picture: a
TPC-H ``lineitem``-shaped fact table (low-cardinality flag/status/shipmode
TEXT columns, small-domain integers, dates, one float measure) scanned by
selective text filters and the Q1-style grouped aggregation. With
``FLOCK_ENCODINGS=1`` (the default) the staged table dictionary-encodes
the text columns and frame-of-reference packs the integers/dates, and the
executor's late-decode fast paths evaluate predicates once per dictionary
entry and group by codes; with ``FLOCK_ENCODINGS=0`` the same statements
run over plain vectors. Each side sets ``flock.encodings`` itself, so the
comparison is the same whatever ``FLOCK_ENCODINGS`` the run inherits.

Results must match row for row — the encoded engine is the same engine,
bit-identically, just smaller and faster.

Acceptance gates (ISSUE.md): >=3x speedup for the filtered scan and the
grouped aggregation, and >=2x resident-memory reduction for the table's
head version. Both compare two storage layouts on the same host, so they
apply regardless of core count, and in every lane: each engine sets its
own ``flock.encodings``, so the encoded side is encoded under
``FLOCK_ENCODINGS=0`` too.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import cpu_count, write_json_report, write_report
from flock.db import Database
from flock.db.encoding import encoding_of, vector_nbytes

ROWS = 60_000
REPEATS = 7

RETURNFLAGS = ["A", "N", "R"]
LINESTATUSES = ["F", "O"]
SHIPMODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]

QUERIES = {
    "filter_eq": (
        "SELECT COUNT(*), SUM(l_quantity) FROM lineitem "
        "WHERE l_returnflag = 'R'"
    ),
    "filter_in": (
        "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem "
        "WHERE l_shipmode IN ('AIR', 'MAIL')"
    ),
    "groupby_q1": (
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity), "
        "SUM(l_extendedprice), AVG(l_extendedprice), COUNT(*) "
        "FROM lineitem GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus"
    ),
    "topk": (
        "SELECT l_orderkey, l_shipmode FROM lineitem "
        "ORDER BY l_shipmode, l_orderkey LIMIT 25"
    ),
}

#: Gated queries: the text-predicate scan and the grouped aggregation are
#: the shapes the late-decode fast paths exist for. The IN-list and top-k
#: rows are reported for context.
GATED = ["filter_eq", "groupby_q1"]


def _build_engine(encodings: bool) -> Database:
    db = Database()
    db.execute(f"SET flock.encodings = {int(encodings)}")
    db.execute(
        "CREATE TABLE lineitem (l_orderkey INT, l_quantity INT, "
        "l_extendedprice FLOAT, l_returnflag TEXT, l_linestatus TEXT, "
        "l_shipmode TEXT, l_shipdate DATE)"
    )
    rng = random.Random(19)
    db.executemany(
        "INSERT INTO lineitem VALUES (?, ?, ?, ?, ?, ?, ?)",
        [
            (
                i // 4,
                rng.randrange(1, 51),
                round(rng.uniform(900.0, 105_000.0), 2),
                rng.choice(RETURNFLAGS),
                rng.choice(LINESTATUSES),
                rng.choice(SHIPMODES),
                f"199{rng.randrange(2, 9)}-{rng.randrange(1, 13):02d}-"
                f"{rng.randrange(1, 29):02d}",
            )
            for i in range(ROWS)
        ],
    )
    return db


def _best(db: Database, sql: str) -> tuple[float, str]:
    rows = db.execute(sql).rows()  # warm up (stats, zone maps)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        rows = db.execute(sql).rows()
        best = min(best, time.perf_counter() - start)
    return best, repr(rows)


def _head_bytes(db: Database) -> tuple[int, dict[str, str | None]]:
    head = db.catalog.table("lineitem").head_version
    total = sum(vector_nbytes(c) for c in head.columns)
    encodings = {
        field.name: encoding_of(column)
        for field, column in zip(head.schema.columns, head.columns)
    }
    return total, encodings


@pytest.fixture(scope="module")
def columnar_report() -> dict:
    report: dict = {
        "rows": ROWS,
        "repeats": REPEATS,
        "cpu_count": cpu_count(),
        "gate": {
            "threshold_speedup": 3.0,
            "threshold_memory_reduction": 2.0,
            "queries": GATED,
            "applied": True,
            "skipped_reason": None,
        },
        "queries": {},
    }
    encoded = _build_engine(encodings=True)
    plain = _build_engine(encodings=False)

    encoded_bytes, encoded_layout = _head_bytes(encoded)
    plain_bytes, _ = _head_bytes(plain)
    report["memory"] = {
        "encoded_bytes": encoded_bytes,
        "plain_bytes": plain_bytes,
        "reduction": plain_bytes / encoded_bytes,
        "encodings": encoded_layout,
    }

    for name, sql in QUERIES.items():
        encoded_s, encoded_rows = _best(encoded, sql)
        plain_s, plain_rows = _best(plain, sql)
        report["queries"][name] = {
            "sql": sql,
            "encoded_s": encoded_s,
            "plain_s": plain_s,
            "speedup": plain_s / encoded_s,
            "results_match": encoded_rows == plain_rows,
        }
    encoded.close()
    plain.close()

    memory = report["memory"]
    lines = [
        "Compressed columnar scans vs plain storage "
        "(bench_columnar_scan.py)",
        f"rows: {ROWS}   best of {REPEATS}",
        "",
        f"resident bytes: plain={memory['plain_bytes']}  "
        f"encoded={memory['encoded_bytes']}  "
        f"reduction={memory['reduction']:.1f}x",
        "encodings: " + ", ".join(
            f"{col}={enc or 'plain'}"
            for col, enc in memory["encodings"].items()
        ),
        "",
        f"{'query':<12}{'encoded_ms':>12}{'plain_ms':>10}{'speedup':>9}"
        f"{'match':>7}",
    ]
    for name, q in report["queries"].items():
        lines.append(
            f"{name:<12}{q['encoded_s'] * 1000:>12.3f}"
            f"{q['plain_s'] * 1000:>10.3f}{q['speedup']:>8.1f}x"
            f"{'yes' if q['results_match'] else 'NO':>7}"
        )
    write_report("columnar_scan", lines)
    write_json_report("columnar_scan", report)
    return report


class TestColumnarScan:
    def test_results_identical_across_layouts(self, columnar_report):
        for name, q in columnar_report["queries"].items():
            assert q["results_match"], name

    def test_text_columns_dictionary_encoded(self, columnar_report):
        layout = columnar_report["memory"]["encodings"]
        for column in ("l_returnflag", "l_linestatus", "l_shipmode"):
            assert layout[column] == "dict", layout

    def test_scan_and_groupby_speedup(self, columnar_report):
        for name in GATED:
            speedup = columnar_report["queries"][name]["speedup"]
            assert speedup >= 3.0, f"{name}: {speedup:.1f}x"

    def test_memory_reduction(self, columnar_report):
        reduction = columnar_report["memory"]["reduction"]
        assert reduction >= 2.0, f"{reduction:.2f}x"
