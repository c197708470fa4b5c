"""Replica-scaling benchmark: read QPS versus follower count.

The workload is deliberately *analytic*: parameterless aggregate queries
that hit the prepared-plan fast path (plan cached, bind/optimize skipped)
and spend their time in numpy kernels, which release the GIL — so with one
serving worker per replica, the follower count is the only parallelism axis
being measured. Point-query workloads do not belong here: their per-request
cost is Python/GIL-bound and in-process replicas cannot scale them (the
micro-batching benchmark covers that axis).

Data loads through the primary in blocks and reaches every follower over
the replication stream — the loader mirrors the qdina-bench generator
shape (build rows once, load into the configured replica set, verify per
replica), with WAL shipping standing in for per-replica COPY.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time

import numpy as np

#: Rows per INSERT block when seeding the primary (qdina-bench style).
TABLE_BLOCK_SIZE = 5_000

#: Parameterless analytic read set: every statement is fully preparable
#: (a plan-cache hit skips parse, bind and optimize) and numpy-dominated.
READ_QUERIES = [
    "SELECT COUNT(*) AS n, AVG(income) AS avg_income, "
    "AVG(credit_score) AS avg_score FROM loans",
    "SELECT region, COUNT(*) AS n, AVG(loan_amount) AS avg_amount "
    "FROM loans GROUP BY region",
    "SELECT AVG(debt_ratio) AS avg_debt FROM loans "
    "WHERE income > 40000 AND credit_score > 600",
    "SELECT MIN(loan_amount) AS lo, MAX(loan_amount) AS hi, "
    "SUM(years_employed) AS years FROM loans WHERE debt_ratio < 0.6",
]


def usable_cores() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def seed_primary(path, n_rows: int = 40_000, random_state: int = 0) -> dict:
    """Seed the durable directory with loans data + a deployed model.

    Loads through a plain durable session in ``TABLE_BLOCK_SIZE`` blocks
    (executemany — one commit per block), deploys ``loan_model``, then
    checkpoints so each benchmark topology reopens from the snapshot
    instead of replaying the whole load.
    """
    import flock
    from flock.ml import LogisticRegression, Pipeline, StandardScaler
    from flock.ml.datasets import make_loans
    from flock.mlgraph import to_graph
    from flock.serving.bench import FEATURES

    base = make_loans(2_000, random_state=random_state)
    pipeline = Pipeline(
        [("s", StandardScaler()), ("m", LogisticRegression(max_iter=150))]
    ).fit(base.feature_matrix(), base.target_vector())

    regions = ["north", "south", "east", "west"]
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
            regions[int(i) % len(regions)],
        )
        for i, j in enumerate(idx)
    ]

    with flock.connect(path) as client:
        client.execute(
            "CREATE TABLE loans (applicant_id INTEGER, income FLOAT, "
            "credit_score FLOAT, loan_amount FLOAT, debt_ratio FLOAT, "
            "years_employed FLOAT, region TEXT)"
        )
        blocks = 0
        for start in range(0, len(rows), TABLE_BLOCK_SIZE):
            client.executemany(
                "INSERT INTO loans VALUES (?, ?, ?, ?, ?, ?, ?)",
                rows[start : start + TABLE_BLOCK_SIZE],
            )
            blocks += 1
        client.registry.deploy(
            "loan_model", to_graph(pipeline, FEATURES, name="loan_model")
        )
        client.db.checkpoint()
        loaded = client.execute("SELECT COUNT(*) FROM loans").scalar()
    return {"rows": int(loaded), "blocks": blocks}


def _drive_reads(execute, requests: int, concurrency: int, seed: int):
    """Fire *requests* reads from *concurrency* threads; returns (elapsed, errors)."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(READ_QUERIES), size=requests)
    chunks: list[list[str]] = [[] for _ in range(concurrency)]
    for i, q in enumerate(picks):
        chunks[i % concurrency].append(READ_QUERIES[int(q)])
    chunks = [c for c in chunks if c]
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(chunks) + 1)

    def worker(chunk):
        barrier.wait()
        for sql in chunk:
            try:
                execute(sql)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(chunk,), daemon=True)
        for chunk in chunks
    ]
    for t in threads:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    return time.perf_counter() - started, errors


def run_replica_scaling_benchmark(
    replica_counts=(1, 2, 4),
    requests: int = 240,
    concurrency: int = 8,
    n_rows: int = 40_000,
    seed: int = 7,
    data_dir: str | None = None,
    process: bool | None = None,
) -> dict:
    """Read QPS through the cluster router at each follower count.

    Each topology reopens the same seeded directory (recovery machinery
    included in the measurement setup, excluded from the measured window),
    warms the plan caches, waits for full catch-up, then drives the
    analytic read mix through the router. ``scaling`` is QPS relative to
    the single-replica topology. Honesty fields: ``cores`` records the
    host's usable CPUs — on one core the expected scaling is flat and the
    gate must skip, not pass vacuously.

    *process* selects the follower backend: ``None`` (the default) hosts
    each follower in its own worker process whenever the platform supports
    it — thread followers share one GIL with the router, so only worker
    processes can show real read scaling — and the resolved choice is
    recorded as ``backend`` in the report.
    """
    from flock.cluster import FlockCluster
    from flock.proc import proc_available

    use_process = proc_available() if process is None else bool(process)
    owned = data_dir is None
    root = data_dir or tempfile.mkdtemp(prefix="flock-replica-bench-")
    results = []
    try:
        seeded = seed_primary(root, n_rows=n_rows, random_state=seed)
        for count in replica_counts:
            cluster = FlockCluster(
                root,
                replicas=count,
                replica_workers=1,
                max_staleness=None,
                process=use_process,
            )
            try:
                cluster.wait_for_catchup(30.0)
                for sql in READ_QUERIES:  # warm every plan cache
                    cluster.execute(sql)
                    for follower in cluster.followers:
                        follower.server.execute(sql)
                elapsed, errors = _drive_reads(
                    cluster.execute, requests, concurrency, seed
                )
                if errors:
                    raise errors[0]
                stats = cluster.stats()
                results.append(
                    {
                        "replicas": count,
                        "read_qps": requests / elapsed,
                        "elapsed_s": elapsed,
                        "follower_served": stats["follower_served"],
                        "primary_served": stats["primary"]["served"],
                        "replication_lsn": stats["replication_lsn"],
                    }
                )
            finally:
                cluster.close()
    finally:
        if owned:
            shutil.rmtree(root, ignore_errors=True)

    base_qps = results[0]["read_qps"] if results else 0.0
    for entry in results:
        entry["scaling"] = (
            entry["read_qps"] / base_qps if base_qps else 0.0
        )
    return {
        "requests": requests,
        "concurrency": concurrency,
        "n_rows": seeded["rows"],
        "load_blocks": seeded["blocks"],
        "queries": len(READ_QUERIES),
        "cores": usable_cores(),
        "backend": "process" if use_process else "thread",
        "replica_counts": list(replica_counts),
        "results": results,
    }


def render_replica_benchmark(report: dict) -> list[str]:
    """Human-readable lines for a run_replica_scaling_benchmark() report."""
    lines = [
        "Replica read scaling: analytic read QPS through the cluster router",
        f"  workload: {report['requests']} reads ({report['queries']} "
        f"prepared aggregate shapes) over {report['n_rows']} loans, "
        f"concurrency {report['concurrency']}, {report['cores']} core(s), "
        f"{report.get('backend', 'thread')} follower backend",
    ]
    for entry in report["results"]:
        lines.append(
            f"  {entry['replicas']} replica(s): {entry['read_qps']:8.1f} qps "
            f"({entry['scaling']:.2f}x), follower/primary served "
            f"{entry['follower_served']}/{entry['primary_served']}"
        )
    if report["cores"] < 4:
        lines.append(
            f"  note: {report['cores']} usable core(s) — in-process replicas "
            f"cannot scale here; the >=2.5x gate skips on this host"
        )
    return lines
