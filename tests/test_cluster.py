"""flock.cluster: WAL shipping, the read router, staleness bounds,
read-only followers, registry sync and failover promotion."""

from __future__ import annotations

import threading

import pytest

import flock
from flock.cluster import (
    FlockCluster,
    ReplicationHub,
)
from flock.errors import (
    FailoverError,
    ReadOnlyReplicaError,
    ReplicationError,
)


@pytest.fixture
def cluster(tmp_path):
    with FlockCluster(tmp_path / "db", replicas=2) as c:
        yield c


def table_rows(db, table):
    return sorted(db.execute(f"SELECT * FROM {table}").rows())


# ----------------------------------------------------------------------
# The hub
# ----------------------------------------------------------------------
class TestReplicationHub:
    def test_records_arrive_in_publish_order_with_lsns(self):
        hub = ReplicationHub()
        sub = hub.subscribe("r0")
        for i in range(5):
            hub.publish({"t": "commit", "i": i})
        got = [sub.next(timeout=1.0) for _ in range(5)]
        assert [lsn for lsn, _ in got] == [1, 2, 3, 4, 5]
        assert [rec["i"] for _, rec in got] == [0, 1, 2, 3, 4]
        assert hub.lsn == 5

    def test_closed_hub_rejects_publish(self):
        hub = ReplicationHub()
        hub.close()
        with pytest.raises(ReplicationError):
            hub.publish({"t": "commit"})

    def test_subscription_drains_queued_records_after_close(self):
        hub = ReplicationHub()
        sub = hub.subscribe("r0")
        hub.publish({"t": "commit", "i": 0})
        hub.close()
        assert sub.next(timeout=1.0) is not None
        assert sub.next(timeout=0.05) is None


# ----------------------------------------------------------------------
# Replication
# ----------------------------------------------------------------------
class TestReplication:
    def test_dml_reaches_every_follower(self, cluster):
        cluster.execute("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
        for k in range(10):
            cluster.execute(f"INSERT INTO t VALUES ({k}, 'v{k}')")
        cluster.execute("DELETE FROM t WHERE k = 3")
        cluster.execute("UPDATE t SET v = 'patched' WHERE k = 7")
        assert cluster.wait_for_catchup(10.0)
        expect = table_rows(cluster.database, "t")
        assert len(expect) == 9
        for follower in cluster.followers:
            assert table_rows(follower.database, "t") == expect

    def test_ddl_after_bootstrap_replicates(self, cluster):
        cluster.execute("CREATE TABLE late (x INT)")
        cluster.execute("INSERT INTO late VALUES (1)")
        assert cluster.wait_for_catchup(10.0)
        for follower in cluster.followers:
            assert "late" in follower.database.catalog.table_names()
            assert table_rows(follower.database, "late") == [(1,)]

    def test_snapshot_state_present_before_any_streaming(self, tmp_path):
        # Data committed before the cluster opens arrives via the snapshot,
        # not the stream.
        with flock.connect(tmp_path / "db") as seed:
            seed.execute("CREATE TABLE pre (x INT)")
            seed.execute("INSERT INTO pre VALUES (42)")
        with FlockCluster(tmp_path / "db", replicas=1) as cluster:
            assert cluster.hub.lsn == 0
            for follower in cluster.followers:
                assert table_rows(follower.database, "pre") == [(42,)]

    def test_rolled_back_statement_not_shipped(self, cluster):
        cluster.execute("CREATE TABLE u (k INT PRIMARY KEY)")
        cluster.execute("INSERT INTO u VALUES (1)")
        before = cluster.hub.lsn
        with pytest.raises(Exception):
            cluster.execute("INSERT INTO u VALUES (1)")  # PK violation
        assert cluster.hub.lsn == before
        assert cluster.wait_for_catchup(10.0)
        for follower in cluster.followers:
            assert table_rows(follower.database, "u") == [(1,)]

    def test_follower_audit_log_not_polluted_by_replication(self, cluster):
        cluster.execute("CREATE TABLE a (x INT)")
        cluster.execute("INSERT INTO a VALUES (1)")
        assert cluster.wait_for_catchup(10.0)
        for follower in cluster.followers:
            assert follower.database.audit.log.verify_chain()


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
class TestRouter:
    def test_reads_fan_to_followers_writes_stay_primary(self, cluster):
        cluster.execute("CREATE TABLE r (k INT, g TEXT, x FLOAT)")
        for k in range(4):
            cluster.execute(f"INSERT INTO r VALUES ({k}, 'g{k % 2}', {k}.5)")
        assert cluster.wait_for_catchup(10.0)
        served_before = [f.server._served for f in cluster.followers]
        for _ in range(6):
            assert cluster.execute("SELECT COUNT(*) FROM r").scalar() == 4
        # Routed analytic reads answer what the primary's engine answers.
        for sql in (
            "SELECT g, COUNT(*) AS n, AVG(x) AS a FROM r GROUP BY g",
            "SELECT MIN(x), MAX(x), SUM(k) FROM r WHERE x > 1",
        ):
            assert repr(sorted(cluster.execute(sql).rows())) == repr(
                sorted(cluster.database.execute(sql).rows())
            ), sql
        served_after = [f.server._served for f in cluster.followers]
        # Round-robin: with 6 reads over 2 followers, both served some.
        assert all(b > a for a, b in zip(served_before, served_after))

    def test_unparseable_statement_routed_to_primary_raises(self, cluster):
        with pytest.raises(Exception):
            cluster.execute("THIS IS NOT SQL")

    def test_stale_follower_skipped_under_staleness_bound(self, tmp_path):
        with FlockCluster(
            tmp_path / "db", replicas=1, max_staleness=0
        ) as cluster:
            cluster.execute("CREATE TABLE s (k INT)")
            cluster.execute("INSERT INTO s VALUES (1)")
            assert cluster.wait_for_catchup(10.0)
            follower = cluster.followers[0]
            follower.pause()
            cluster.execute("INSERT INTO s VALUES (2)")  # follower now lags
            assert follower.lag > 0
            primary_served = cluster.primary.stats()["served"]
            # Read must fall back to the primary and see the fresh row.
            assert cluster.execute("SELECT COUNT(*) FROM s").scalar() == 2
            assert cluster.primary.stats()["served"] == primary_served + 1
            follower.resume()
            assert cluster.wait_for_catchup(10.0)
            # Caught up again: the follower takes reads once more.
            before = follower.server._served
            assert cluster.execute("SELECT COUNT(*) FROM s").scalar() == 2
            assert follower.server._served == before + 1

    def test_unparseable_statement_raises_parse_error_and_cluster_lives(
        self, cluster
    ):
        from flock.errors import ParseError

        cluster.execute("CREATE TABLE ok (k INT)")
        with pytest.raises(ParseError):
            cluster.execute("FROBNICATE ALL THE THINGS")
        # The router fell back to the primary for the error; the cluster
        # keeps serving afterwards. The read routes to a follower, so it
        # must have applied the insert first.
        cluster.execute("INSERT INTO ok VALUES (1)")
        assert cluster.wait_for_catchup(10.0)
        assert cluster.execute("SELECT COUNT(*) FROM ok").scalar() == 1

    def test_read_with_subquery_on_writable_table_serves_from_follower(
        self, cluster
    ):
        # A SELECT whose WHERE holds an IN (SELECT ...) over a table that
        # also takes writes is still read-only: it must classify as such
        # and fan to a follower, with post-catchup results matching.
        cluster.execute("CREATE TABLE wq (k INT, grp INT)")
        for k in range(6):
            cluster.execute(f"INSERT INTO wq VALUES ({k}, {k % 2})")
        assert cluster.wait_for_catchup(10.0)
        sql = (
            "SELECT COUNT(*) FROM wq "
            "WHERE k IN (SELECT k FROM wq WHERE grp = 0)"
        )
        served_before = sum(f.server._served for f in cluster.followers)
        assert cluster.execute(sql).scalar() == 3
        served_after = sum(f.server._served for f in cluster.followers)
        assert served_after == served_before + 1

    def test_staleness_bound_falls_back_past_dead_follower(self, tmp_path):
        with FlockCluster(
            tmp_path / "db", replicas=2, max_staleness=0
        ) as cluster:
            cluster.execute("CREATE TABLE d (k INT)")
            cluster.execute("INSERT INTO d VALUES (1)")
            assert cluster.wait_for_catchup(10.0)
            # One follower dies outright, the other lags past the bound:
            # nothing is eligible, so reads must land on the primary.
            dead, laggard = cluster.followers
            dead.error = RuntimeError("injected crash")
            laggard.pause()
            cluster.execute("INSERT INTO d VALUES (2)")
            primary_served = cluster.primary.stats()["served"]
            assert cluster.execute("SELECT COUNT(*) FROM d").scalar() == 2
            assert cluster.primary.stats()["served"] == primary_served + 1
            laggard.resume()

    def test_unhealthy_follower_routed_around(self, cluster):
        cluster.execute("CREATE TABLE h (k INT)")
        assert cluster.wait_for_catchup(10.0)
        broken = cluster.followers[0]
        broken.error = RuntimeError("injected divergence")
        for _ in range(4):
            cluster.execute("SELECT COUNT(*) FROM h")
        assert not broken.healthy
        stats = cluster.stats()
        status = [f["healthy"] for f in stats["followers"]]
        assert status.count(False) == 1
        # Every follower reports where it runs, whatever the transport.
        for follower_status in stats["followers"]:
            assert follower_status["backend"] == stats["backend"]
            assert isinstance(follower_status["pid"], int)


# ----------------------------------------------------------------------
# Read-only followers
# ----------------------------------------------------------------------
class TestReadOnlyFollower:
    def test_direct_write_to_follower_rejected(self, cluster):
        cluster.execute("CREATE TABLE w (k INT)")
        assert cluster.wait_for_catchup(10.0)
        follower = cluster.followers[0]
        with pytest.raises(ReadOnlyReplicaError):
            follower.server.execute("INSERT INTO w VALUES (1)")
        with pytest.raises(ReadOnlyReplicaError):
            follower.server.execute("CREATE TABLE nope (x INT)")
        # Reads still fine.
        assert follower.server.execute(
            "SELECT COUNT(*) FROM w"
        ).scalar() == 0


# ----------------------------------------------------------------------
# Registry sync
# ----------------------------------------------------------------------
class TestRegistrySync:
    def test_deploy_after_bootstrap_serves_predict_on_followers(
        self, cluster
    ):
        from flock.ml import LinearRegression
        from flock.ml.datasets import make_regression
        from flock.mlgraph import to_graph

        X, y, _ = make_regression(40, 2, random_state=3)
        graph = to_graph(LinearRegression().fit(X, y), ["f0", "f1"])
        cluster.execute("CREATE TABLE feats (f0 FLOAT, f1 FLOAT)")
        cluster.execute("INSERT INTO feats VALUES (0.1, 0.2), (0.3, 0.4)")
        cluster.registry.deploy("late_model", graph)
        assert cluster.wait_for_catchup(10.0)
        for follower in cluster.followers:
            assert follower.registry.has_model("late_model")
            rows = follower.server.execute(
                "SELECT PREDICT(late_model) FROM feats"
            ).rows()
            assert len(rows) == 2


# ----------------------------------------------------------------------
# Failover
# ----------------------------------------------------------------------
class TestPromotion:
    def test_promotion_preserves_committed_writes(self, cluster):
        cluster.execute("CREATE TABLE p (k INT PRIMARY KEY)")
        for k in range(20):
            cluster.execute(f"INSERT INTO p VALUES ({k})")
        report = cluster.promote()
        assert report["epoch"] == 2
        assert report["promoted"]["name"].startswith("replica-")
        assert cluster.database.execute(
            "SELECT COUNT(*) FROM p"
        ).scalar() == 20
        # The rebuilt tier keeps replicating.
        cluster.execute("INSERT INTO p VALUES (20)")
        assert cluster.wait_for_catchup(10.0)
        for follower in cluster.followers:
            assert follower.database.execute(
                "SELECT COUNT(*) FROM p"
            ).scalar() == 21

    def test_promotion_under_concurrent_reads(self, cluster):
        cluster.execute("CREATE TABLE cr (k INT)")
        cluster.execute("INSERT INTO cr VALUES (1)")
        assert cluster.wait_for_catchup(10.0)
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    cluster.execute("SELECT COUNT(*) FROM cr")
                except Exception as exc:  # draining servers may reject
                    errors.append(exc)

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            cluster.promote()
        finally:
            stop.set()
            thread.join(5.0)
        assert cluster.execute("SELECT COUNT(*) FROM cr").scalar() == 1

    def test_closed_cluster_refuses_promotion(self, tmp_path):
        cluster = FlockCluster(tmp_path / "db", replicas=1)
        cluster.close()
        with pytest.raises(FailoverError):
            cluster.promote()


# ----------------------------------------------------------------------
# Construction errors
# ----------------------------------------------------------------------
class TestConstruction:
    def test_cluster_requires_path_and_replicas(self, tmp_path):
        with pytest.raises(ReplicationError):
            FlockCluster(None, replicas=2)
        with pytest.raises(ReplicationError):
            FlockCluster(tmp_path / "db", replicas=0)
