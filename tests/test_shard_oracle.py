"""Shard oracle: the sharded cluster must be repr-identical to one engine.

Each round drives the *same* seeded random workload — scattered and
single-row inserts, point and broadcast updates/deletes, DDL (including a
DROP and re-CREATE of a read table), model deploys, concurrent reads,
per-shard crash-reopens — through a sharded
cluster AND through a plain single-engine twin, asserting after every
operation that both sides agreed (same result or same error class), and
after every round that the full logical state is identical *in row order*:
the hidden-sequence merge discipline promises bit-identical results, so
rows are compared unsorted. Any divergence means a row was routed,
sequenced, merged or compensated differently than a single engine would
have.

Knobs (environment variables): ``FLOCK_SHARD_ORACLE_ROUNDS`` (default 3),
``FLOCK_SHARD_ORACLE_OPS`` (default 60), ``FLOCK_SHARD_ORACLE_SEED``,
``FLOCK_SHARDS`` (shard count, default 2) and
``FLOCK_SHARD_ORACLE_ARTIFACTS`` — a directory to dump diverged state
into (CI uploads it on failure).
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from pathlib import Path

import flock
from flock.errors import FlockError
from flock.proc import proc_enabled

ROUNDS = int(os.environ.get("FLOCK_SHARD_ORACLE_ROUNDS", "3"))
OPS = int(os.environ.get("FLOCK_SHARD_ORACLE_OPS", "60"))
SEED = int(os.environ.get("FLOCK_SHARD_ORACLE_SEED", "20260809"))
SHARDS = int(os.environ.get("FLOCK_SHARDS", "2"))

READS = [
    "SELECT * FROM orac",
    "SELECT * FROM orac LIMIT 7",
    "SELECT COUNT(*), MIN(k), MAX(k) FROM orac",
    "SELECT v, COUNT(*) FROM orac GROUP BY v ORDER BY v LIMIT 5",
    "SELECT k FROM orac WHERE k > 10 ORDER BY k DESC LIMIT 6",
    # The lifted constructs must survive scatter-gather untouched: the
    # coordinator re-binds the whole statement over merged snapshots, so
    # CTEs, EXISTS, scalar subqueries and windows ride along for free.
    "WITH c AS (SELECT k, v FROM orac WHERE k > 5) "
    "SELECT x.k, y.v FROM c x JOIN c y ON x.k = y.k ORDER BY x.k",
    "SELECT o.k FROM orac o "
    "WHERE EXISTS (SELECT * FROM side s WHERE s.k = o.k) ORDER BY o.k",
    "SELECT o.k FROM orac o "
    "WHERE NOT EXISTS (SELECT * FROM side s WHERE s.k = o.k) ORDER BY o.k",
    "SELECT o.k, (SELECT COUNT(*) FROM side) FROM orac o ORDER BY o.k LIMIT 9",
    "SELECT o.k FROM orac o "
    "WHERE o.k > (SELECT SUM(s.w) FROM side s WHERE s.k = o.k) ORDER BY o.k",
    # Encoding-sensitive shapes: text equality/IN/LIKE/range predicates,
    # text grouping and text-led top-k take the dictionary late-decode
    # fast paths on each shard when FLOCK_ENCODINGS=1 and the plain paths
    # under FLOCK_ENCODINGS=0; the gathered result must be identical to
    # the single engine in both lanes.
    "SELECT k, v FROM orac WHERE v = 'v3' ORDER BY k",
    "SELECT k FROM orac WHERE v IN ('v1', 'v7', 'zz') ORDER BY k",
    "SELECT k FROM orac WHERE v LIKE 'v1%' ORDER BY k",
    "SELECT k FROM orac WHERE v >= 'v4' ORDER BY k LIMIT 9",
    "SELECT k, v FROM orac ORDER BY v DESC, k LIMIT 8",
    "SELECT k, ROW_NUMBER() OVER (ORDER BY k DESC) FROM orac ORDER BY k",
    "SELECT k, RANK() OVER (ORDER BY v), SUM(k) OVER (ORDER BY k) "
    "FROM orac ORDER BY k",
]


def _tiny_graph():
    from flock.ml import LinearRegression
    from flock.ml.datasets import make_regression
    from flock.mlgraph import to_graph

    X, y, _ = make_regression(30, 2, random_state=11)
    return to_graph(LinearRegression().fit(X, y), ["f0", "f1"])


def logical_state(client) -> dict[str, list]:
    """Every user-visible table as row reprs, *in engine row order*."""
    state: dict[str, list] = {}
    for name in sorted(client.db.catalog.table_names()):
        rows = client.execute(f"SELECT * FROM {name}").rows()
        state[name] = [repr(row) for row in rows]
    return state


def apply_both(sharded, single, sql, params=None, many=False):
    """One op on both sides: same rows/count, or the same error class.

    ``many`` sends *params* as a batch of parameter rows through
    ``executemany`` instead of one ``execute``."""
    outcomes = []
    for client in (sharded, single):
        try:
            if many:
                result = client.executemany(sql, params)
            else:
                result = client.execute(sql, params)
            outcomes.append(
                ("ok", result.affected_rows, repr(result.rows()))
            )
        except FlockError as exc:
            outcomes.append(("err", type(exc).__name__, ""))
    assert outcomes[0] == outcomes[1], (sql, outcomes)


def run_round(sharded, single, rng: random.Random, ops: int) -> None:
    graph = _tiny_graph()
    for client in (sharded, single):
        client.execute(
            "CREATE TABLE IF NOT EXISTS orac (k INT PRIMARY KEY, v TEXT)"
        )
        client.execute("CREATE TABLE IF NOT EXISTS side (k INT, w FLOAT)")

    stop = threading.Event()
    reader_errors: list[Exception] = []

    def reader() -> None:
        # Concurrent scattered reads must never error or tear: gathers
        # take the cluster lock's shared side against scatter writes.
        while not stop.is_set():
            try:
                sharded.execute("SELECT COUNT(*) FROM orac")
            except Exception as exc:  # pragma: no cover - failure path
                reader_errors.append(exc)
                return
            # Yield the GIL between reads. A loop that never blocks makes
            # the writer thread wait a full switch interval after each of
            # its I/O calls, and the read log entries that pile up in the
            # meantime ride on the coordinator's next WAL record.
            time.sleep(0)

    thread = threading.Thread(target=reader)
    thread.start()

    live: list[int] = []
    marker = 0
    tables = 0
    deploys = 0
    try:
        for _ in range(ops):
            roll = rng.random()
            if roll < 0.30:
                # Multi-row scatter; occasionally a duplicate key, which
                # must fail (and compensate) identically on both sides.
                keys = []
                for _ in range(rng.randrange(1, 6)):
                    if live and rng.random() < 0.1:
                        keys.append(rng.choice(live))
                    else:
                        marker += 1
                        keys.append(marker)
                if roll < 0.22:
                    values = ", ".join(f"({k}, 'v{k}')" for k in keys)
                    apply_both(
                        sharded, single, f"INSERT INTO orac VALUES {values}"
                    )
                elif rng.random() < 0.5:
                    # The same rows as one executemany batch (the bulk
                    # scatter path: one commit per shard, all or nothing).
                    apply_both(
                        sharded, single, "INSERT INTO orac VALUES (?, ?)",
                        [[k, f"v{k}"] for k in keys], many=True,
                    )
                else:
                    # ... with expression slots re-bound per row.
                    apply_both(
                        sharded, single,
                        "INSERT INTO orac VALUES (? + 1, 'v' || ?)",
                        [[k - 1, str(k)] for k in keys], many=True,
                    )
                if len(set(keys)) == len(keys):
                    live.extend(keys)
            elif roll < 0.45 and live:
                victim = live.pop(rng.randrange(len(live)))
                apply_both(
                    sharded, single,
                    f"DELETE FROM orac WHERE k = {victim}",
                )
            elif roll < 0.55 and live:
                target = rng.choice(live)
                apply_both(
                    sharded, single,
                    f"UPDATE orac SET v = 'u{target}' WHERE k = {target}",
                )
            elif roll < 0.65 and live:
                bound = rng.choice(live)
                apply_both(
                    sharded, single,
                    f"UPDATE orac SET v = 'lt' WHERE k < {bound}",
                )
            elif roll < 0.72:
                marker += 1
                apply_both(
                    sharded, single,
                    "INSERT INTO side VALUES (?, ?)",
                    [marker, rng.random()],
                )
            elif roll < 0.75:
                # The re-created side numbers its versions from 0 again,
                # so they collide with the dropped table's: the gather
                # must not serve the old table's cached merge.
                apply_both(sharded, single, "DROP TABLE side")
                apply_both(
                    sharded, single, "CREATE TABLE side (k INT, w FLOAT)"
                )
            elif roll < 0.80:
                tables += 1
                apply_both(
                    sharded, single,
                    f"CREATE TABLE IF NOT EXISTS orac_extra_{tables} "
                    f"(k INT PRIMARY KEY)",
                )
                apply_both(
                    sharded, single,
                    f"INSERT INTO orac_extra_{tables} VALUES (1)",
                )
            elif roll < 0.88:
                deploys += 1
                name = f"orac_m{deploys}"
                if not sharded.registry.has_model(name):
                    sharded.registry.deploy(name, graph)
                    single.registry.deploy(name, graph)
            else:
                # Per-shard crash: close and recover one shard through
                # Database.open mid-workload.
                index = rng.randrange(sharded.cluster.n_shards)
                sharded.cluster.restart_shard(index)

            if rng.random() < 0.4:
                query = rng.choice(READS)
                got = sharded.execute(query).rows()
                want = single.execute(query).rows()
                assert repr(got) == repr(want), query
    finally:
        stop.set()
        thread.join()
    assert not reader_errors, reader_errors


def dump_divergence(sharded, single) -> None:
    artifacts = os.environ.get("FLOCK_SHARD_ORACLE_ARTIFACTS")
    if not artifacts:
        return
    dest = Path(artifacts)
    dest.mkdir(parents=True, exist_ok=True)
    (dest / "single.json").write_text(
        json.dumps(logical_state(single), indent=2, sort_keys=True)
    )
    (dest / "sharded.json").write_text(
        json.dumps(logical_state(sharded), indent=2, sort_keys=True)
    )
    (dest / "status.json").write_text(
        json.dumps(
            sharded.cluster.stats(), indent=2, sort_keys=True, default=repr
        )
    )


def test_shard_oracle(tmp_path):
    rng = random.Random(SEED)
    for round_no in range(ROUNDS):
        sharded = flock.connect(
            tmp_path / f"round{round_no}" / "sharded", shards=SHARDS
        )
        single = flock.connect(tmp_path / f"round{round_no}" / "single")
        try:
            if proc_enabled(None):
                # The CI process lane runs this oracle under FLOCK_PROC=1;
                # assert the backend actually engaged so the lane can
                # never silently regress to threads and keep passing.
                assert sharded.cluster.backend == "process", (
                    "FLOCK_PROC=1 but the sharded cluster stayed on the "
                    "thread backend"
                )
                assert all(
                    s.pid != os.getpid() for s in sharded.cluster.shards
                )
            run_round(sharded, single, rng, OPS)
            # Full-state comparison, order included: the merge discipline
            # promises bit-identical row order, not just equal multisets.
            sharded_state = {
                k: v
                for k, v in logical_state(sharded).items()
                if k != "flock_models"
            }
            single_state = {
                k: v
                for k, v in logical_state(single).items()
                if k != "flock_models"
            }
            if sharded_state != single_state:
                dump_divergence(sharded, single)
            assert sharded_state == single_state, (
                f"round {round_no} ({SHARDS} shards): sharded state "
                f"diverged from the single-engine twin"
            )
            assert sorted(sharded.registry.model_names()) == sorted(
                single.registry.model_names()
            )
        finally:
            sharded.close()
            single.close()
