"""Serving-benchmark harness.

``benchmarks/bench_serving_throughput.py`` drives its workload through
this module: a loans table with a deployed logistic-regression model,
hammered with parameterized point predictions — ``SELECT applicant_id,
PREDICT(loan_model) AS p FROM loans WHERE applicant_id = ?`` — first
sequentially through the plain engine, then concurrently through
:class:`flock.serving.FlockServer`. The comparison isolates exactly what
the serving layer adds: plan caching, micro-batching, and concurrent
snapshot reads.
"""

from __future__ import annotations

import threading
import time

import numpy as np

POINT_QUERY = (
    "SELECT applicant_id, PREDICT(loan_model) AS p "
    "FROM loans WHERE applicant_id = ?"
)
FEATURES = [
    "income",
    "credit_score",
    "loan_amount",
    "debt_ratio",
    "years_employed",
]


def build_serving_fixture(n_rows: int = 5_000, random_state: int = 0):
    """A session with ``n_rows`` loans and a deployed ``loan_model``."""
    from flock import create_database
    from flock.ml import LogisticRegression, Pipeline, StandardScaler
    from flock.ml.datasets import make_loans
    from flock.mlgraph import to_graph

    base = make_loans(2_000, random_state=random_state)
    pipeline = Pipeline(
        [("s", StandardScaler()), ("m", LogisticRegression(max_iter=150))]
    ).fit(base.feature_matrix(), base.target_vector())

    session = create_database()
    database, registry = session
    database.execute(
        "CREATE TABLE loans (applicant_id INTEGER, income FLOAT, "
        "credit_score FLOAT, loan_amount FLOAT, debt_ratio FLOAT, "
        "years_employed FLOAT, region TEXT)"
    )
    rng = np.random.default_rng(random_state + 1)
    X = base.feature_matrix()
    idx = rng.integers(0, len(X), size=n_rows)
    rows = [
        (
            int(i + 1),
            float(X[j, 0]),
            float(X[j, 1]),
            float(X[j, 2]),
            float(X[j, 3]),
            float(X[j, 4]),
            "north",
        )
        for i, j in enumerate(idx)
    ]
    table = database.catalog.table("loans")
    table.publish(table.build_insert(rows))
    registry.deploy("loan_model", to_graph(pipeline, FEATURES,
                                           name="loan_model"))
    return session


def run_serving_benchmark(
    requests: int = 800,
    concurrency: int = 16,
    n_rows: int = 5_000,
    workers: int = 8,
    max_batch_size: int = 32,
    batch_wait_ms: float = 2.0,
    seed: int = 7,
) -> dict:
    """Sequential vs served point predictions; the numbers ISSUE.md gates on.

    Returns a dict with ``seq_qps``, ``served_qps``, ``speedup``,
    ``hit_rate`` (plan cache, post-warmup), batching stats and served-side
    latency percentiles (milliseconds).
    """
    from flock.serving import FlockServer

    session = build_serving_fixture(n_rows=n_rows)
    database = session.db
    rng = np.random.default_rng(seed)
    keys = [int(k) for k in rng.integers(1, n_rows + 1, size=requests)]

    # -- sequential baseline: one engine call per request ----------------
    for key in keys[:5]:  # warm scorer/statistics caches
        database.execute(POINT_QUERY, [key])
    seq_started = time.perf_counter()
    for key in keys:
        database.execute(POINT_QUERY, [key])
    seq_elapsed = time.perf_counter() - seq_started

    # -- served: `concurrency` client threads over one FlockServer -------
    server = FlockServer(
        session,
        workers=workers,
        max_batch_size=max_batch_size,
        batch_wait_ms=batch_wait_ms,
        max_pending=max(4 * concurrency, requests),
    )
    try:
        for key in keys[:5]:  # warmup: populate the plan cache
            server.execute(POINT_QUERY, [key])
        database.plan_cache.hits = 0
        database.plan_cache.misses = 0

        errors: list[Exception] = []
        per_thread = _partition(keys, concurrency)
        barrier = threading.Barrier(concurrency + 1)

        def client(chunk: list[int]) -> None:
            barrier.wait()
            for key in chunk:
                try:
                    server.execute(POINT_QUERY, [key], timeout=60.0)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(chunk,), daemon=True)
            for chunk in per_thread
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        served_started = time.perf_counter()
        for thread in threads:
            thread.join()
        served_elapsed = time.perf_counter() - served_started
        if errors:
            raise errors[0]
        stats = server.stats()
    finally:
        server.shutdown()

    seq_qps = requests / seq_elapsed
    served_qps = requests / served_elapsed
    return {
        "requests": requests,
        "concurrency": concurrency,
        "n_rows": n_rows,
        "workers": workers,
        "seq_qps": seq_qps,
        "served_qps": served_qps,
        "seq_elapsed_s": seq_elapsed,
        "served_elapsed_s": served_elapsed,
        "speedup": served_qps / seq_qps,
        "hit_rate": database.plan_cache.hit_rate,
        "batches": stats["batches"],
        "batched_requests": stats["batched_requests"],
        "mean_batch_size": stats["mean_batch_size"],
        "latency_ms": stats["latency_ms"],
    }


def render_benchmark(report: dict) -> list[str]:
    """Human-readable lines for a run_serving_benchmark() report."""
    latency = report["latency_ms"]
    return [
        "Serving throughput: sequential engine calls vs FlockServer",
        f"  workload: {report['requests']} point predictions over "
        f"{report['n_rows']} loans, concurrency {report['concurrency']}, "
        f"{report['workers']} workers",
        f"  sequential: {report['seq_qps']:8.1f} qps "
        f"({report['seq_elapsed_s'] * 1000:.0f} ms total)",
        f"  served:     {report['served_qps']:8.1f} qps "
        f"({report['served_elapsed_s'] * 1000:.0f} ms total)",
        f"  speedup:    {report['speedup']:.2f}x",
        f"  plan cache hit rate (post-warmup): "
        f"{report['hit_rate'] * 100:.1f}%",
        f"  micro-batching: {report['batched_requests']} requests coalesced "
        f"into {report['batches']} batches "
        f"(mean batch size {report['mean_batch_size']:.1f})",
        f"  served latency: p50 {latency['p50']:.1f} ms, "
        f"p95 {latency['p95']:.1f} ms, p99 {latency['p99']:.1f} ms",
    ]


def _partition(items: list, parts: int) -> list[list]:
    chunks: list[list] = [[] for _ in range(parts)]
    for i, item in enumerate(items):
        chunks[i % parts].append(item)
    return [c for c in chunks if c]
