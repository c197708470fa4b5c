"""flock.connect(): the unified client over embedded, serving and
cluster topologies, plus the create_database/open_session compat shims."""

from __future__ import annotations

import pytest

import flock
from flock.client import Client
from flock.errors import FlockError, ReplicationError
from flock.proc import proc_available


class TestEmbeddedMemory:
    def test_connect_defaults_to_embedded_memory(self):
        with flock.connect() as client:
            assert client.mode == "embedded"
            assert client.db.wal is None
            client.execute("CREATE TABLE t (x INT)")
            client.execute("INSERT INTO t VALUES (1), (2)")
            assert client.execute("SELECT SUM(x) FROM t").scalar() == 3

    def test_submit_returns_resolved_future(self):
        with flock.connect() as client:
            client.execute("CREATE TABLE t (x INT)")
            future = client.submit("INSERT INTO t VALUES (7)")
            assert future.done()
            future.result()
            assert client.execute("SELECT x FROM t").scalar() == 7

    def test_submit_surfaces_errors_through_future(self):
        with flock.connect() as client:
            future = client.submit("SELECT * FROM missing")
            assert future.done()
            with pytest.raises(FlockError):
                future.result()

    def test_executemany_bulk_path(self):
        with flock.connect() as client:
            client.execute("CREATE TABLE b (k INT, v TEXT)")
            client.executemany(
                "INSERT INTO b VALUES (?, ?)",
                [(i, f"v{i}") for i in range(50)],
            )
            assert client.execute("SELECT COUNT(*) FROM b").scalar() == 50

    def test_stats_reports_engine_counters(self):
        with flock.connect() as client:
            client.execute("CREATE TABLE t (x INT)")
            client.execute("INSERT INTO t VALUES (1)")
            stats = client.stats()
            assert stats["committed"] >= 1
            assert stats["statements"] >= 2


class TestEmbeddedDurable:
    def test_connect_path_persists_across_reopen(self, tmp_path):
        with flock.connect(tmp_path / "db") as client:
            assert client.mode == "embedded"
            assert client.db.wal is not None
            client.execute("CREATE TABLE d (x INT)")
            client.execute("INSERT INTO d VALUES (5)")
        with flock.connect(tmp_path / "db") as client:
            assert client.execute("SELECT x FROM d").scalar() == 5

    def test_registry_and_cross_optimizer_wired(self, tmp_path):
        with flock.connect(tmp_path / "db") as client:
            assert client.registry is client.session.registry
            assert client.cross_optimizer is not None
            assert client.database is client.db


class TestServingMode:
    def test_connect_serving_executes_through_server(self, tmp_path):
        with flock.connect(tmp_path / "db", serving=True, workers=2) as c:
            assert c.mode == "serving"
            c.execute("CREATE TABLE s (x INT)")
            c.execute("INSERT INTO s VALUES (1)")
            assert c.execute("SELECT COUNT(*) FROM s").scalar() == 1
            assert c.stats()["served"] >= 3

    def test_serving_submit_is_asynchronous(self, tmp_path):
        with flock.connect(tmp_path / "db", serving=True) as c:
            c.execute("CREATE TABLE s (x INT)")
            futures = [
                c.submit("INSERT INTO s VALUES (?)", [i]) for i in range(8)
            ]
            for future in futures:
                future.result(timeout=10.0)
            assert c.execute("SELECT COUNT(*) FROM s").scalar() == 8


class TestClusterMode:
    def test_connect_replicas_routes_and_replicates(self, tmp_path):
        with flock.connect(tmp_path / "db", replicas=2) as client:
            assert client.mode == "cluster"
            client.execute("CREATE TABLE c (x INT)")
            client.execute("INSERT INTO c VALUES (1), (2), (3)")
            client.cluster.wait_for_catchup(10.0)
            assert client.execute("SELECT SUM(x) FROM c").scalar() == 6
            stats = client.stats()
            assert stats["epoch"] == 1
            assert len(stats["followers"]) == 2

    def test_replicas_require_a_path(self):
        with pytest.raises(ReplicationError):
            flock.connect(replicas=2)

    @pytest.mark.parametrize("process", [
        False,
        pytest.param(True, marks=pytest.mark.skipif(
            not proc_available(),
            reason="process backend needs POSIX sockets",
        )),
    ])
    def test_engine_settings_reach_every_tier_engine(self, tmp_path,
                                                     monkeypatch, process):
        """The ``FLOCK_*`` settings reach the primary or coordinator and
        every shard and follower engine, on both transports, and a
        sharded client's ``SET`` reaches every shard."""
        monkeypatch.setenv("FLOCK_ENCODINGS", "0")
        monkeypatch.setenv("FLOCK_MEMORY_BUDGET", "1000")
        backend = "process" if process else "thread"

        def values(engines):
            return [
                (e.settings.encodings, e.settings.memory_budget)
                for e in engines
            ]

        with flock.connect(tmp_path / "sharded", shards=2,
                           process=process) as client:
            assert client.cluster.backend == backend
            engines = [client.db] + [
                shard.database for shard in client.cluster.shards
            ]
            assert values(engines) == [(0, 1000)] * 3
            client.execute("SET flock.memory_budget = 2000")
            assert values(engines) == [(0, 2000)] * 3
        with flock.connect(tmp_path / "replicated", replicas=1,
                           process=process) as client:
            assert client.cluster.backend == backend
            engines = [client.db] + [
                follower.database for follower in client.cluster.followers
            ]
            assert values(engines) == [(0, 1000)] * 2


class TestLifecycle:
    def test_closed_client_rejects_execution(self):
        client = flock.connect()
        client.close()
        assert client.closed
        with pytest.raises(FlockError):
            client.execute("SELECT 1")
        client.close()  # idempotent

    def test_for_user_shares_stack(self):
        with flock.connect() as admin:
            admin.execute("CREATE TABLE t (x INT)")
            other = admin.for_user("analyst")
            assert isinstance(other, Client)
            assert other.db is admin.db
            assert other.user == "analyst"

    def test_repr_names_mode_and_location(self, tmp_path):
        with flock.connect(tmp_path / "db") as client:
            assert "embedded" in repr(client)


class TestCompatShims:
    def test_create_database_still_unpacks(self):
        db, registry = flock.create_database()
        db.execute("CREATE TABLE t (x INT)")
        assert registry is not None

    def test_create_database_session_object(self):
        session = flock.create_database()
        assert session.db is session.database
        assert session.cross_optimizer is not None

    def test_open_session_still_durable(self, tmp_path):
        session = flock.open_session(tmp_path / "db")
        session.db.execute("CREATE TABLE t (x INT)")
        session.db.execute("INSERT INTO t VALUES (9)")
        session.db.close()
        with flock.connect(tmp_path / "db") as client:
            assert client.execute("SELECT x FROM t").scalar() == 9
