"""Process-chaos battery: SIGKILL and crash-faultpoint worker deaths.

The process backend's durability claim is the same one the single-engine
crash tests state — *acknowledged means durable* — but the failure domain
is now a fleet of worker processes, each with its own WAL. This battery
kills workers the two ways they die in production:

- a crash faultpoint armed *inside* the worker (``set_fault`` RPC with
  ``action="crash"`` → ``os._exit(137)`` mid-WAL-write — a power loss at
  the worst instruction), and
- a raw ``SIGKILL`` from outside, including mid-DDL-broadcast and to the
  entire fleet at once,

then reconnects and asserts zero committed-transaction loss: every
acknowledged row is present, nothing un-attempted appears, every shard's
audit hash chain still verifies, and interrupted DDL/deploy broadcasts
are repaired by the reopen-time reconciliation. The replica tier gets the
same treatment: a SIGKILLed follower worker must be routed around and
must not block promotion.
"""

from __future__ import annotations

import os
import signal

import pytest

import flock
from flock.errors import FlockError
from flock.proc import proc_available

pytestmark = pytest.mark.skipif(
    not proc_available(), reason="process backend needs POSIX sockets"
)

SHARDS = 3


def shard_rows(client, table: str) -> set[int]:
    if table not in client.db.catalog.table_names():
        return set()
    return {r[0] for r in client.execute(f"SELECT k FROM {table}").rows()}


def verify_fleet(client, acked: set[int], attempted: set[int]) -> None:
    """The durability contract after any worker death + reconnect."""
    present = shard_rows(client, "chaos")
    assert acked <= present, f"acked rows lost: {sorted(acked - present)}"
    assert present <= attempted, (
        f"rows appeared from nowhere: {sorted(present - attempted)}"
    )
    for shard in client.cluster.shards:
        assert shard.database.audit.log.verify_chain(), (
            f"shard {shard.index}: audit hash chain broken"
        )
    # Still a working fleet: scattered writes, scattered reads.
    client.execute(
        "CREATE TABLE IF NOT EXISTS post_chaos (k INT PRIMARY KEY)"
    )
    client.execute("INSERT INTO post_chaos VALUES (1), (2), (3)")
    assert client.execute("SELECT COUNT(*) FROM post_chaos").scalar() == 3


def run_until_crash(client, start: int = 0):
    """Insert rows one at a time until a worker dies mid-write.

    Returns ``(acked, attempted)`` — single-row inserts route to exactly
    one shard, so each is atomic: returned ⇒ acknowledged ⇒ durable.
    """
    acked: set[int] = set()
    attempted: set[int] = set()
    for k in range(start, start + 500):
        attempted.add(k)
        try:
            client.execute(f"INSERT INTO chaos VALUES ({k})")
        except FlockError:
            return acked, attempted
        acked.add(k)
    raise AssertionError("no worker died within 500 inserts")


@pytest.mark.parametrize(
    "point",
    ["wal.pre_fsync", "wal.post_fsync_pre_apply", "wal.pre_ack"],
)
def test_crash_faultpoint_mid_write_loses_nothing_acked(tmp_path, point):
    client = flock.connect(tmp_path / "db", shards=SHARDS, process=True)
    client.execute("CREATE TABLE chaos (k INT PRIMARY KEY)")
    # Arm every worker: whichever shard's WAL accumulates the hits dies
    # first, mid-commit, at this exact point.
    for shard in client.cluster.shards:
        shard.set_fault(point, action="crash", after=4)
    acked, attempted = run_until_crash(client)
    assert any(not s.healthy for s in client.cluster.shards)
    client.close()  # close tolerates the dead worker

    reopened = flock.connect(tmp_path / "db", shards=SHARDS, process=True)
    try:
        assert reopened.cluster.backend == "process"
        verify_fleet(reopened, acked, attempted)
    finally:
        reopened.close()


def test_sigkill_whole_fleet_then_reopen(tmp_path):
    client = flock.connect(tmp_path / "db", shards=SHARDS, process=True)
    client.execute("CREATE TABLE chaos (k INT PRIMARY KEY)")
    acked = set(range(40))
    for k in sorted(acked):
        client.execute(f"INSERT INTO chaos VALUES ({k})")
    pids = [shard.pid for shard in client.cluster.shards]
    assert len(set(pids)) == SHARDS
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    # No graceful close anywhere: this is the supervisor host dying.
    client.close()

    reopened = flock.connect(tmp_path / "db", shards=SHARDS, process=True)
    try:
        verify_fleet(reopened, acked, acked)
    finally:
        reopened.close()


def test_process_tier_opens_each_directory_once(tmp_path, monkeypatch):
    """Shard directories are opened only inside their workers: the parent
    never runs recovery on one, and reopen bring-up reads catalog
    summaries, never table heads — yet sequences resume at max + 1."""
    from flock.db import wal
    from flock.proc.supervisor import WorkerHandle

    opened = []
    real_open = wal.open_database

    def spy_open(path, *args, **kwargs):
        opened.append(path)
        return real_open(path, *args, **kwargs)

    ops = []
    real_request = WorkerHandle.request

    def spy_request(self, op, **payload):
        ops.append(op)
        return real_request(self, op, **payload)

    monkeypatch.setattr(wal, "open_database", spy_open)
    monkeypatch.setattr(WorkerHandle, "request", spy_request)

    with flock.connect(tmp_path / "db", shards=SHARDS,
                       process=True) as client:
        client.execute("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
        client.executemany(
            "INSERT INTO t VALUES (?, ?)", [[k, f"v{k}"] for k in range(20)]
        )
    ops.clear()
    with flock.connect(tmp_path / "db", shards=SHARDS,
                       process=True) as reopened:
        assert "head_versions" not in ops, ops
        reopened.execute("INSERT INTO t VALUES (100, 'next')")
        # Sequences 0..19 went to the first 20 rows; the next is 20.
        assigned = []
        for shard in reopened.cluster.shards:
            head = shard.database.catalog.table("t").head_version
            keys = head.columns[0].to_pylist()
            sequences = head.columns[
                head.schema.index_of("_flock_seq")
            ].to_pylist()
            assigned += [s for k, s in zip(keys, sequences) if k == 100]
        assert assigned == [20]
    assert opened == []


def test_mid_ddl_broadcast_crash_rolls_back_atomically(tmp_path):
    client = flock.connect(tmp_path / "db", shards=SHARDS, process=True)
    client.execute("CREATE TABLE chaos (k INT PRIMARY KEY)")
    client.execute("INSERT INTO chaos VALUES (1), (2), (3)")
    # The last shard dies applying its leg of the broadcast. The router's
    # two-phase protocol must undo the applied prefix: a nacked CREATE
    # leaves the table on *no* shard, dead worker or not.
    client.cluster.shards[-1].set_fault("wal.pre_fsync", action="crash")
    with pytest.raises(FlockError):
        client.execute("CREATE TABLE bcast (k INT PRIMARY KEY, v TEXT)")
    assert "bcast" not in client.db.catalog.table_names()
    for shard in client.cluster.shards[:-1]:  # the survivors rolled back
        assert "bcast" not in shard.database.catalog.table_names()
    client.close()

    reopened = flock.connect(tmp_path / "db", shards=SHARDS, process=True)
    try:
        for shard in reopened.cluster.shards:
            assert "bcast" not in shard.database.catalog.table_names(), (
                f"shard {shard.index}: nacked CREATE resurrected"
            )
        # The nacked statement can simply be retried on the healed fleet.
        reopened.execute("CREATE TABLE bcast (k INT PRIMARY KEY, v TEXT)")
        reopened.execute("INSERT INTO bcast VALUES (1, 'a'), (2, 'b')")
        assert reopened.execute(
            "SELECT COUNT(*) FROM bcast"
        ).scalar() == 2
        verify_fleet(reopened, {1, 2, 3}, {1, 2, 3})
    finally:
        reopened.close()


def test_supervisor_death_mid_broadcast_is_reconciled_on_reopen(tmp_path):
    """When the *supervisor* dies between broadcast legs no rollback ever
    runs — the on-disk shard catalogs genuinely diverge. Reopen-time
    reconciliation must restore the invariant: shard 0's applied prefix
    wins (replayed forward), an orphan applied past shard 0 is dropped.
    """
    client = flock.connect(tmp_path / "db", shards=SHARDS, process=True)
    client.execute("CREATE TABLE chaos (k INT PRIMARY KEY)")
    # Fabricate the divergence by broadcasting normally, then surgically
    # undoing legs through the worker engines — this reproduces the disk
    # state (routed schemas included) without racing a real kill:
    # fwd_t reached only shard 0, orphan_t reached everyone *but* shard 0.
    client.execute("CREATE TABLE fwd_t (k INT PRIMARY KEY)")
    for shard in client.cluster.shards[1:]:
        shard.database.execute("DROP TABLE fwd_t")
    client.execute("CREATE TABLE orphan_t (k INT PRIMARY KEY)")
    client.cluster.shards[0].database.execute("DROP TABLE orphan_t")
    for shard in client.cluster.shards:
        os.kill(shard.pid, signal.SIGKILL)
    client.close()

    reopened = flock.connect(tmp_path / "db", shards=SHARDS, process=True)
    try:
        for shard in reopened.cluster.shards:
            names = set(shard.database.catalog.table_names())
            assert "fwd_t" in names, (
                f"shard {shard.index}: shard-0 prefix not replayed"
            )
            assert "orphan_t" not in names, (
                f"shard {shard.index}: orphan table not rolled back"
            )
        assert "orphan_t" not in reopened.db.catalog.table_names()
        # The replayed table is fully routed: scattered writes land.
        reopened.execute("INSERT INTO fwd_t VALUES (1), (2), (3)")
        assert reopened.execute(
            "SELECT COUNT(*) FROM fwd_t"
        ).scalar() == 3
    finally:
        reopened.close()


def test_mid_deploy_broadcast_crash_is_reconciled_on_reopen(tmp_path):
    from flock.ml import LinearRegression
    from flock.ml.datasets import make_regression
    from flock.mlgraph import to_graph

    X, y, _ = make_regression(30, 2, random_state=11)
    graph = to_graph(LinearRegression().fit(X, y), ["f0", "f1"])

    client = flock.connect(tmp_path / "db", shards=SHARDS, process=True)
    client.registry.deploy("pre_chaos_model", graph)
    client.cluster.shards[-1].set_fault("wal.pre_fsync", action="crash")
    with pytest.raises(FlockError):
        client.registry.deploy("chaos_model", graph)
    client.close()

    reopened = flock.connect(tmp_path / "db", shards=SHARDS, process=True)
    try:
        for shard in reopened.cluster.shards:
            names = set(shard.registry.model_names())
            assert "pre_chaos_model" in names
            assert "chaos_model" in names, (
                f"shard {shard.index}: interrupted deploy not replayed"
            )
    finally:
        reopened.close()


def test_follower_worker_sigkill_routed_around_then_promote(tmp_path):
    client = flock.connect(tmp_path / "db", replicas=2, process=True)
    cluster = client.cluster
    try:
        client.execute("CREATE TABLE f (k INT PRIMARY KEY)")
        for k in range(10):
            client.execute(f"INSERT INTO f VALUES ({k})")
        assert cluster.wait_for_catchup(10.0)

        victim = cluster.followers[0]
        assert victim.status()["backend"] == "process"
        os.kill(victim.pid, signal.SIGKILL)
        # The next shipped record makes the parent-side forwarder hit the
        # dead worker and mark the follower unhealthy — no heartbeat wait.
        client.execute("INSERT INTO f VALUES (10)")
        victim.wait_for(cluster.hub.lsn, timeout=10.0)
        assert not victim.healthy
        # Routed reads may go to any follower, so the survivor must have
        # applied the insert before they can be asserted against.
        assert cluster.wait_for_catchup(10.0)

        # Reads route around the corpse.
        for _ in range(8):
            assert client.execute(
                "SELECT COUNT(*) FROM f"
            ).scalar() == 11

        # Promotion skips the unhealthy follower and keeps every commit.
        report = cluster.promote()
        assert report["promoted"]["name"] != victim.name
        assert client.execute("SELECT COUNT(*) FROM f").scalar() == 11
        client.execute("INSERT INTO f VALUES (11)")
        # The rebuilt follower tier must catch up before a routed read
        # can be asserted against — promotion re-seeds from a snapshot.
        assert cluster.wait_for_catchup(10.0)
        assert client.execute("SELECT COUNT(*) FROM f").scalar() == 12
    finally:
        client.close()
