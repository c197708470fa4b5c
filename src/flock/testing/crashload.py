"""Randomized durable workload driver for crash-recovery stress tests.

Run as a child process (``python -m flock.testing.crashload``) against a
database directory while :mod:`flock.testing.faultpoints` — armed through
the ``FLOCK_FAULTPOINTS`` environment variable — kills it at a random WAL
or checkpoint fault point. Before attempting each operation the child
appends a ``try <op> <id>`` line to an *acknowledgement file* (fsynced), and
after the commit is acknowledged an ``ok <op> <id>`` line, so the parent
can state the durability contract precisely:

- every ``ok`` operation must be recovered (acknowledged ⇒ durable);
- every recovered operation must have a ``try`` line (nothing invented);
- operations with ``try`` but no ``ok`` may land either way (the crash hit
  between execution and acknowledgement — "presumed commit" is allowed).

The workload mixes paired-table transactions (atomicity witnesses), single
inserts/deletes, DDL, model deployments and explicit checkpoints.
"""

from __future__ import annotations

import argparse
import os
import random
import sys


class AckFile:
    """Append-only, fsync-per-line journal the crash cannot rewind."""

    def __init__(self, path: str):
        self._fh = open(path, "a", encoding="utf-8")

    def line(self, text: str) -> None:
        self._fh.write(text + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())


def _tiny_graph():
    from flock.ml import LinearRegression
    from flock.ml.datasets import make_regression
    from flock.mlgraph import to_graph

    X, y, _ = make_regression(30, 2, random_state=7)
    return to_graph(LinearRegression().fit(X, y), ["f0", "f1"])


def run(directory: str, seed: int, ops: int, ack_path: str,
        sync_mode: str = "commit", replicas: int = 0,
        shards: int = 0, process: bool | None = None) -> None:
    import flock

    rng = random.Random(seed)
    ack = AckFile(ack_path)
    graph = _tiny_graph()  # built before any WAL traffic

    if shards:
        # Sharded mode: every statement routes through the ShardedCluster
        # — scatter inserts, DDL broadcasts, model-deploy broadcasts —
        # while the fault points arm whichever shard's WAL or checkpoint
        # the routed statement lands on. Acknowledged still means durable,
        # now across N write-ahead logs; the reopen-time reconciliation
        # must absorb broadcasts the crash cut short mid-fleet.
        client = flock.connect(
            directory, shards=shards, replicas=replicas,
            sync_mode=sync_mode, group_window_ms=0.2, process=process,
        )
        run_sharded(client, rng, ops, ack, graph)
        client.close()
        return
    if replicas:
        # Cluster mode (failover tests): writes commit on the primary and
        # ship over the replication stream; routed reads exercise the
        # followers while the fault points arm the primary's WAL. The
        # ack-file contract is unchanged — acknowledged means the
        # *primary* committed durably, which is exactly what promotion
        # must preserve.
        client = flock.connect(
            directory, replicas=replicas, sync_mode=sync_mode,
            group_window_ms=0.2, process=process,
        )
        session = client.session
        db = client.db
    else:
        client = None
        session = flock.open_session(
            directory, sync_mode=sync_mode, group_window_ms=0.2
        )
        db = session.db
    db.execute("CREATE TABLE IF NOT EXISTS pair_a (m INT PRIMARY KEY)")
    db.execute("CREATE TABLE IF NOT EXISTS pair_b (m INT PRIMARY KEY)")
    db.execute(
        "CREATE TABLE IF NOT EXISTS singles "
        "(m INT PRIMARY KEY, payload TEXT)"
    )
    if client is not None:
        # Routed reads below may land on any follower: each must hold the
        # tables first.
        client.cluster.wait_for_catchup(30.0)

    marker = 0
    ok_singles: list[int] = []
    tables = 0
    deploys = 0

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.30:
            marker += 1
            ack.line(f"try pair {marker}")
            conn = db.connect()
            conn.execute("BEGIN")
            conn.execute(f"INSERT INTO pair_a VALUES ({marker})")
            conn.execute(f"INSERT INTO pair_b VALUES ({marker})")
            conn.execute("COMMIT")
            ack.line(f"ok pair {marker}")
        elif roll < 0.62:
            marker += 1
            ack.line(f"try single {marker}")
            db.execute(
                "INSERT INTO singles VALUES (?, ?)",
                [marker, f"payload-{marker}"],
            )
            ack.line(f"ok single {marker}")
            ok_singles.append(marker)
        elif roll < 0.76 and ok_singles:
            victim = ok_singles.pop(rng.randrange(len(ok_singles)))
            ack.line(f"try delete {victim}")
            db.execute(f"DELETE FROM singles WHERE m = {victim}")
            ack.line(f"ok delete {victim}")
        elif roll < 0.86:
            tables += 1
            ack.line(f"try table {tables}")
            db.execute(f"CREATE TABLE extra_{tables} (k INT)")
            db.execute(f"INSERT INTO extra_{tables} VALUES ({tables})")
            ack.line(f"ok table {tables}")
        elif roll < 0.93:
            deploys += 1
            ack.line(f"try deploy {deploys}")
            session.registry.deploy(f"stress_m{deploys}", graph)
            ack.line(f"ok deploy {deploys}")
        else:
            ack.line("try checkpoint 0")
            db.checkpoint()
            ack.line("ok checkpoint 0")
        if client is not None and ok_singles and rng.random() < 0.4:
            # Routed follower read between writes — keeps the replication
            # apply loops hot so the crash lands mid-stream, not idle.
            client.execute("SELECT COUNT(*) FROM singles")

    if client is not None:
        client.close()
        return
    db.close()


def run_sharded(client, rng: random.Random, ops: int, ack: AckFile,
                graph) -> None:
    """The sharded workload: same ack contract, router-shaped operations.

    The router rejects BEGIN/COMMIT, so the "pair" witness becomes two
    routed single-row inserts (each atomic on its shard): an ``ok pair``
    still means both rows committed durably, while a crash between the
    two leaves ``try`` without ``ok`` — a pair the parent must allow to
    be partial, the honest contract for a tier without cross-shard
    transactions. Single-row inserts route to exactly one shard, so
    their acknowledgements stay all-or-nothing.
    """
    cluster = client.cluster
    client.execute(
        "CREATE TABLE IF NOT EXISTS pair_a (m INT PRIMARY KEY)"
    )
    client.execute(
        "CREATE TABLE IF NOT EXISTS pair_b (m INT PRIMARY KEY)"
    )
    client.execute(
        "CREATE TABLE IF NOT EXISTS singles "
        "(m INT PRIMARY KEY, payload TEXT)"
    )

    marker = 0
    ok_singles: list[int] = []
    tables = 0
    deploys = 0

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.30:
            marker += 1
            ack.line(f"try pair {marker}")
            client.execute(f"INSERT INTO pair_a VALUES ({marker})")
            client.execute(f"INSERT INTO pair_b VALUES ({marker})")
            ack.line(f"ok pair {marker}")
        elif roll < 0.62:
            marker += 1
            ack.line(f"try single {marker}")
            client.execute(
                "INSERT INTO singles VALUES (?, ?)",
                [marker, f"payload-{marker}"],
            )
            ack.line(f"ok single {marker}")
            ok_singles.append(marker)
        elif roll < 0.76 and ok_singles:
            victim = ok_singles.pop(rng.randrange(len(ok_singles)))
            ack.line(f"try delete {victim}")
            client.execute(f"DELETE FROM singles WHERE m = {victim}")
            ack.line(f"ok delete {victim}")
        elif roll < 0.86:
            tables += 1
            ack.line(f"try table {tables}")
            client.execute(
                f"CREATE TABLE extra_{tables} (k INT PRIMARY KEY)"
            )
            client.execute(f"INSERT INTO extra_{tables} VALUES ({tables})")
            ack.line(f"ok table {tables}")
        elif roll < 0.93:
            deploys += 1
            ack.line(f"try deploy {deploys}")
            client.registry.deploy(f"stress_m{deploys}", graph)
            ack.line(f"ok deploy {deploys}")
        else:
            # Checkpoint every shard primary in order — the checkpoint
            # fault points then fire on whichever shard accumulates hits.
            ack.line("try checkpoint 0")
            for shard in cluster.shards:
                shard.database.checkpoint()
            ack.line("ok checkpoint 0")
        if rng.random() < 0.4:
            # Scattered read between writes keeps the gather/merge path
            # hot, so crashes land mid-traffic rather than idle.
            client.execute("SELECT COUNT(*) FROM singles")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="crash-recovery stress workload (child process)"
    )
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, default=60)
    parser.add_argument("--ack-file", required=True)
    parser.add_argument("--sync-mode", default="commit")
    parser.add_argument(
        "--replicas", type=int, default=0,
        help="drive the workload through a FlockCluster with N followers",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="drive the workload through a ShardedCluster with N shards "
        "(composes with --replicas)",
    )
    parser.add_argument(
        "--process", dest="process", action="store_true", default=None,
        help="process-backed shards/replicas (flock.proc); default "
        "follows FLOCK_PROC",
    )
    parser.add_argument(
        "--no-process", dest="process", action="store_false",
        help="force the in-process thread backend",
    )
    args = parser.parse_args(argv)
    try:
        run(args.dir, args.seed, args.ops, args.ack_file, args.sync_mode,
            replicas=args.replicas, shards=args.shards,
            process=args.process)
    except Exception as exc:
        from flock.errors import WorkerCrashError
        from flock.testing.faultpoints import CRASH_EXIT_CODE

        if isinstance(exc, WorkerCrashError) or isinstance(
            getattr(exc, "__cause__", None), WorkerCrashError
        ):
            # A faultpoint (or the parent test) killed one of *our* shard
            # or replica workers mid-operation. To the durability
            # contract that is this driver crashing: the dead worker's
            # WAL holds every acknowledged commit, the in-flight op has
            # its `try` line and no `ok`. Exit with the crash code the
            # parent already treats as "killed at a fault point".
            os._exit(CRASH_EXIT_CODE)
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
