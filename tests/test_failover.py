"""Failover: kill the primary mid-workload, promote, lose nothing.

The workload child (``flock.testing.crashload --replicas N``) drives
random DML through a live cluster — writes on the primary, routed reads on
the followers — while ``FLOCK_FAULTPOINTS`` arms a WAL fault point to
crash the whole process (primary and in-process followers die together,
the worst case). The parent then stands the tier back up with
``FlockCluster`` over the same directory — exactly what
:meth:`FlockCluster.promote` does after selecting a candidate — and
asserts the durability contract from the acknowledgement file:

- zero committed-transaction loss: every acknowledged operation is present
  on the recovered primary *and* on every rebuilt follower;
- nothing invented: recovered rows all have a ``try`` record;
- the rebuilt access paths are correct: primary-key index lookups and
  zone-map-pruned scans agree with full scans after recovery;
- a subsequent in-process promotion keeps the same committed prefix.

Knobs: ``FLOCK_FAILOVER_ROUNDS`` (default 2), ``FLOCK_FAILOVER_OPS``
(default 50), ``FLOCK_FAILOVER_SEED``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from flock.cluster import FlockCluster
from flock.testing import faultpoints

from tests.test_crash_recovery import parse_ack, rows_of

SRC = str(Path(__file__).resolve().parent.parent / "src")

ROUNDS = int(os.environ.get("FLOCK_FAILOVER_ROUNDS", "2"))
OPS = int(os.environ.get("FLOCK_FAILOVER_OPS", "50"))
SEED = int(os.environ.get("FLOCK_FAILOVER_SEED", "20260807"))

CRASH_POINTS = [p for p in faultpoints.KNOWN_POINTS if p.startswith("wal.")]


def run_child(data_dir: Path, ack_path: Path, seed: int, point: str,
              after: int, replicas: int) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["FLOCK_FAULTPOINTS"] = f"{point}=crash:{after}"
    return subprocess.run(
        [
            sys.executable, "-m", "flock.testing.crashload",
            "--dir", str(data_dir),
            "--seed", str(seed),
            "--ops", str(OPS),
            "--ack-file", str(ack_path),
            "--replicas", str(replicas),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def assert_no_committed_loss(db, markers) -> None:
    pair_a = rows_of(db, "pair_a")
    pair_b = rows_of(db, "pair_b")
    assert pair_a == pair_b, "paired transaction replayed partially"
    pairs = markers.get("pair", {"try": set(), "ok": set()})
    assert pairs["ok"] <= pair_a, "acknowledged pair lost in failover"
    assert pair_a <= pairs["try"], "pair row appeared from nowhere"

    singles = rows_of(db, "singles")
    ins = markers.get("single", {"try": set(), "ok": set()})
    dels = markers.get("delete", {"try": set(), "ok": set()})
    assert (ins["ok"] - dels["try"]) <= singles, "acked insert lost"
    assert not (singles & dels["ok"]), "acked delete resurrected"
    assert singles <= ins["try"], "single row appeared from nowhere"


def assert_access_paths_rebuilt(db) -> None:
    """Index lookups and pruned scans must agree with the full scan."""
    singles = rows_of(db, "singles")
    plan = db.explain("SELECT payload FROM singles WHERE m = 1")
    if db.indexes_enabled():
        # Cost-based: small recovered tables may scan with zone pruning
        # instead of probing the PK hash index — either path must exist
        # and both must return the truth.
        assert "IndexLookup" in plan or "zones=" in plan, plan
    else:
        # Index paths forced off: the plan must be a plain full scan.
        assert "IndexLookup" not in plan and "zones=" not in plan, plan
    for m in sorted(singles)[:10]:
        via_index = db.execute(
            f"SELECT payload FROM singles WHERE m = {m}"
        ).rows()
        assert via_index == [(f"payload-{m}",)], (
            f"rebuilt index returned wrong row for m={m}"
        )
    if singles:
        lo = min(singles)
        via_zones = db.execute(
            f"SELECT COUNT(*) FROM singles WHERE m >= {lo}"
        ).scalar()
        assert via_zones == len(singles), "zone-pruned scan dropped rows"
    missing = (max(singles) + 1000) if singles else 1000
    assert db.execute(
        f"SELECT payload FROM singles WHERE m = {missing}"
    ).rows() == []


def test_failover_no_committed_loss(tmp_path):
    rng = random.Random(SEED)
    crashed = 0
    for round_no in range(ROUNDS):
        point = rng.choice(CRASH_POINTS)
        after = rng.randint(5, 40)
        replicas = rng.choice([1, 2])
        data_dir = tmp_path / f"round{round_no}"
        ack_path = tmp_path / f"ack{round_no}.log"
        proc = run_child(
            data_dir, ack_path, rng.randrange(1 << 30), point, after,
            replicas,
        )
        assert proc.returncode in (0, faultpoints.CRASH_EXIT_CODE), (
            f"round {round_no} ({point}=crash:{after}): child failed\n"
            f"{proc.stderr}"
        )
        if proc.returncode == faultpoints.CRASH_EXIT_CODE:
            crashed += 1
        markers = parse_ack(ack_path)

        # Stand the tier back up over the crashed directory: recovery runs
        # inside Database.open, followers bootstrap from the recovered
        # snapshot — the promotion path.
        with FlockCluster(data_dir, replicas=replicas) as cluster:
            assert_no_committed_loss(cluster.database, markers)
            assert_access_paths_rebuilt(cluster.database)

            # Every rebuilt follower carries the identical committed
            # prefix (readable through the router too).
            assert cluster.wait_for_catchup(30.0)
            for follower in cluster.followers:
                assert_no_committed_loss(follower.database, markers)

            # The recovered tier still takes writes, and an in-process
            # promotion on top preserves the same prefix.
            cluster.execute(
                "CREATE TABLE IF NOT EXISTS post_failover (x INT)"
            )
            cluster.execute("INSERT INTO post_failover VALUES (1)")
            report = cluster.promote()
            assert report["epoch"] == 2
            assert_no_committed_loss(cluster.database, markers)
            assert cluster.database.execute(
                "SELECT COUNT(*) FROM post_failover"
            ).scalar() == 1
    # The fault points must actually fire in at least one round; a suite
    # where every child finishes cleanly is not testing failover.
    assert crashed >= 1, "no round crashed — raise OPS or lower 'after'"
