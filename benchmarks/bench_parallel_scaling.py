"""Morsel-parallel scaling: scan/aggregate and batch PREDICT at 1/2/4 workers.

Two workloads whose tables sit above the cost model's serial floors
(``PARALLEL_MIN_ROWS``, ``PREDICT_PARALLEL_MIN_ROWS``), so the morsel
executor fans their pipelines out at the default morsel size:

- **q6** — a TPC-H Q6-style scan-heavy aggregate (selective predicate, one
  SUM of a product expression) over a synthetic lineitem table; the filter
  and projection run per morsel;
- **predict** — a batch ``SUM(PREDICT(model))`` over a patient table with a
  deployed scaler + logistic-regression pipeline; scoring runs per morsel.

The aggregates above both pipelines run serially over the concatenated
morsel outputs.

Each workload runs at ``SET flock.workers = 1 / 2 / 4`` on the *same*
engine and data; results must be bit-identical across worker counts (the
parallel executor's determinism contract), and the report records wall
time and speedup per worker count.

The ≥2.5× speedup gate only applies on hosts with ≥4 usable cores — thread
parallelism cannot beat physics on fewer; on smaller hosts the correctness
assertions still run and the speedup rows are reported as measured.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import FULL, write_json_report, write_report
from flock.db import Database

Q6_ROWS = 600_000 if FULL else 120_000
PATIENT_ROWS = 60_000 if FULL else 24_000
WORKER_COUNTS = (1, 2, 4)
REPEATS = 3

Q6_QUERY = (
    "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
    "WHERE l_shipdate >= 8766 AND l_shipdate < 9131 "
    "AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24"
)
PREDICT_QUERY = "SELECT SUM(PREDICT(readmit)), AVG(PREDICT(readmit)) FROM patients"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _bulk_insert(db: Database, table: str, columns: np.ndarray) -> None:
    """Chunked multi-row INSERTs (the engine's fastest SQL-level load)."""
    n = len(columns[0])
    columns = [col.tolist() for col in columns]  # python literals for SQL
    chunk = 2_000
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        values = ", ".join(
            "(" + ", ".join(repr(col[i]) for col in columns) + ")"
            for i in range(start, stop)
        )
        db.execute(f"INSERT INTO {table} VALUES {values}")


def _build_q6_engine() -> Database:
    db = Database(workers=1)
    db.execute(
        "CREATE TABLE lineitem (l_quantity FLOAT, l_extendedprice FLOAT, "
        "l_discount FLOAT, l_shipdate INT)"
    )
    rng = np.random.default_rng(42)
    _bulk_insert(db, "lineitem", [
        rng.uniform(1, 50, Q6_ROWS).round(2),
        rng.uniform(900, 105_000, Q6_ROWS).round(2),
        rng.uniform(0.0, 0.10, Q6_ROWS).round(2),
        rng.integers(8_000, 10_000, Q6_ROWS),
    ])
    return db


def _build_predict_session():
    from flock.lifecycle import FlockSession
    from flock.ml import LogisticRegression, Pipeline, StandardScaler
    from flock.ml.datasets import make_patients

    session = FlockSession(eager_provenance=False, monitor_models=False)
    session.load_dataset(make_patients(PATIENT_ROWS, random_state=0))
    session.train_and_deploy(
        "readmit",
        Pipeline([
            ("s", StandardScaler()),
            ("m", LogisticRegression(max_iter=200)),
        ]),
        "patients",
        [
            "age", "prior_admissions", "length_of_stay",
            "chronic_conditions", "medication_count",
        ],
        "readmitted",
    )
    return session


def _time_at_workers(db: Database, query: str) -> dict:
    """Run *query* at each worker count: best-of-N wall time + result."""
    timings: dict[int, float] = {}
    results: dict[int, str] = {}
    for workers in WORKER_COUNTS:
        db.execute(f"SET flock.workers = {workers}")
        db.execute(query)  # warm up (pool spin-up, first-touch caches)
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = db.execute(query)
            best = min(best, time.perf_counter() - start)
        timings[workers] = best
        results[workers] = repr(result.rows())
    db.execute("SET flock.workers = 1")
    return {"timings": timings, "results": results}


@pytest.fixture(scope="module")
def scaling_report() -> dict:
    q6_db = _build_q6_engine()
    session = _build_predict_session()
    predict_db = session.database
    cores = _usable_cores()
    report = {
        "cores": cores,
        "cpu_count": cores,
        "rows": {"q6": Q6_ROWS, "patients": PATIENT_ROWS},
        "repeats": REPEATS,
        "worker_counts": list(WORKER_COUNTS),
        "q6": _time_at_workers(q6_db, Q6_QUERY),
        "predict": _time_at_workers(predict_db, PREDICT_QUERY),
    }
    q6_db.close()
    predict_db.close()
    for name in ("q6", "predict"):
        timings = report[name]["timings"]
        report[name]["speedups"] = {
            workers: timings[1] / timings[workers]
            for workers in WORKER_COUNTS
        }
    # Gate honesty: the JSON must say whether the >=2.5x check applied on
    # this host, not just leave a reader to infer it from "cores".
    report["gate"] = {
        "threshold_speedup": 2.5,
        "at_workers": 4,
        "requires_cores": 4,
        "applied": cores >= 4,
        "skipped_reason": (
            None if cores >= 4
            else f"host has {cores} usable core(s); thread speedups are "
            "hardware-bound below 4"
        ),
    }

    lines = [
        "Morsel-parallel scaling (bench_parallel_scaling.py)",
        f"usable cores: {report['cores']}"
        + ("  ** fewer than 4: speedups below are hardware-bound, not"
           " executor-bound; the >=2.5x gate needs a >=4-core host **"
           if report["cores"] < 4 else ""),
        f"q6 rows: {Q6_ROWS}   patients rows: {PATIENT_ROWS}   "
        f"best of {REPEATS}",
        "",
        f"{'workload':<10}{'workers':>8}{'wall_s':>10}{'speedup':>9}",
    ]
    for name in ("q6", "predict"):
        timings = report[name]["timings"]
        for workers in WORKER_COUNTS:
            speedup = timings[1] / timings[workers]
            lines.append(
                f"{name:<10}{workers:>8}{timings[workers]:>10.4f}"
                f"{speedup:>9.2f}"
            )
    write_report("parallel_scaling", lines)
    write_json_report("parallel_scaling", report)
    return report


class TestParallelScaling:
    def test_results_bit_identical_across_worker_counts(
        self, scaling_report
    ):
        for name in ("q6", "predict"):
            results = scaling_report[name]["results"]
            assert results[2] == results[1], name
            assert results[4] == results[1], name

    def test_speedup_at_4_workers(self, scaling_report):
        cores = scaling_report["cores"]
        if cores < 4:
            pytest.skip(
                f"host has {cores} usable core(s); the 2.5x gate "
                "requires >=4 — rerun on a multicore host"
            )
        for name in ("q6", "predict"):
            timings = scaling_report[name]["timings"]
            speedup = timings[1] / timings[4]
            assert speedup >= 2.5, (
                f"{name}: {speedup:.2f}x at 4 workers"
            )


def bench_parallel_q6(benchmark, scaling_report):
    """Benchmark the Q6 aggregate at 4 workers (report already written)."""
    db = _build_q6_engine()
    try:
        db.execute("SET flock.workers = 4")
        benchmark(lambda: db.execute(Q6_QUERY))
    finally:
        db.close()
