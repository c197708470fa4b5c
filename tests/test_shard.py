"""flock.shard: hash routing, scatter-gather order discipline, DDL
broadcast atomicity, compensation, crash recovery and the replicas
composition — always judged against a single-engine twin."""

from __future__ import annotations

import sys
import threading

import pytest

import flock
from flock.errors import (
    BindError,
    ConstraintError,
    FlockError,
    ParseError,
    ShardError,
)
from flock.shard import ShardedCluster, canonical_key_value, shard_of
from flock.shard.router import _Shard
from flock.db.schema import Column
from flock.db.types import DataType


@pytest.fixture
def pair(tmp_path):
    """A 3-shard cluster and its single-engine twin."""
    sharded = flock.connect(tmp_path / "sharded", shards=3)
    single = flock.connect(tmp_path / "single")
    yield sharded, single
    sharded.close()
    single.close()


def both(pair, sql, params=None):
    sharded, single = pair
    return sharded.execute(sql, params), single.execute(sql, params)


def seed(pair, n=24):
    for client in pair:
        client.execute(
            "CREATE TABLE t (k INT PRIMARY KEY, v TEXT, x FLOAT)"
        )
        client.executemany(
            "INSERT INTO t (k, v, x) VALUES (?, ?, ?)",
            [[i, f"row{i}", i * 1.5] for i in range(n)],
        )


# ----------------------------------------------------------------------
# Hashing and key canonicalization
# ----------------------------------------------------------------------
class TestShardKey:
    def test_placement_is_deterministic(self):
        assert shard_of((7,), 4) == shard_of((7,), 4)
        assert 0 <= shard_of(("abc",), 3) < 3

    def test_numeric_spellings_collapse(self):
        int_col = Column("k", DataType.INTEGER, primary_key=True)
        assert canonical_key_value(int_col, 5) == canonical_key_value(
            int_col, 5.0
        )
        float_col = Column("f", DataType.FLOAT, primary_key=True)
        assert canonical_key_value(float_col, 2) == canonical_key_value(
            float_col, 2.0
        )

    def test_date_strings_coerce_to_day_numbers(self):
        date_col = Column("d", DataType.DATE, primary_key=True)
        assert isinstance(
            canonical_key_value(date_col, "2020-01-02"), int
        )


# ----------------------------------------------------------------------
# Read parity: scatter-gather must be bit-identical to one engine
# ----------------------------------------------------------------------
class TestReadParity:
    QUERIES = [
        "SELECT * FROM t",
        "SELECT * FROM t LIMIT 5",
        "SELECT k, v FROM t WHERE x > 9 ORDER BY k DESC LIMIT 4",
        "SELECT COUNT(*), SUM(x), AVG(x), MIN(k), MAX(k) FROM t",
        "SELECT x, COUNT(*) FROM t GROUP BY x ORDER BY x LIMIT 3",
        "SELECT DISTINCT v FROM t WHERE k < 6",
        "SELECT v FROM t WHERE k = 7",
        "SELECT v FROM t WHERE k IN (1, 5, 9)",
        "SELECT * FROM t WHERE k = 3 AND x > 0",
    ]

    def test_queries_bit_identical(self, pair):
        seed(pair)
        for sql in self.QUERIES:
            got, want = both(pair, sql)
            assert repr(got.rows()) == repr(want.rows()), sql

    def test_parameterized_point_read(self, pair):
        seed(pair)
        got, want = both(pair, "SELECT v FROM t WHERE k = ?", [3])
        assert got.rows() == want.rows() == [("row3",)]

    def test_hidden_sequence_column_is_invisible(self, pair):
        seed(pair)
        sharded, _ = pair
        names = sharded.execute("SELECT * FROM t LIMIT 1").batch.names
        assert names == ["k", "v", "x"]
        with pytest.raises(BindError):
            sharded.execute("SELECT _flock_seq FROM t")

    def test_rows_actually_distributed(self, pair):
        seed(pair)
        sharded, _ = pair
        per_shard = [
            s["rows"]["t"] for s in sharded.cluster.stats()["per_shard"]
        ]
        assert sum(per_shard) == 24
        assert all(per_shard), per_shard  # hashing reaches every shard

    def test_point_reads_route_to_one_shard(self, pair):
        seed(pair)
        sharded, _ = pair
        before = sharded.cluster.stats()["routes"]["single"]
        sharded.execute("SELECT v FROM t WHERE k = 11")
        after = sharded.cluster.stats()["routes"]["single"]
        assert after == before + 1

    def test_explain_and_analyze(self, pair):
        seed(pair)
        sharded, _ = pair
        plan = sharded.execute("EXPLAIN SELECT COUNT(*) FROM t").rows()
        assert plan
        analyzed = sharded.execute(
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM t"
        ).rows()
        assert any("Execution" in row[0] for row in analyzed)

    def test_concurrent_scattered_reads(self, pair):
        seed(pair, n=60)
        sharded, single = pair
        want = repr(single.execute("SELECT * FROM t").rows())
        errors: list[Exception] = []

        def reader():
            try:
                for _ in range(5):
                    got = sharded.execute("SELECT * FROM t").rows()
                    assert repr(got) == want
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


# ----------------------------------------------------------------------
# The gather cache: a table ships only when a shard's head moved
# ----------------------------------------------------------------------
@pytest.fixture
def shipped(monkeypatch):
    """Every head-version reply a shard gives: (shard, names shipped)."""
    log: list[tuple[int, list[str]]] = []
    real = _Shard.head_versions

    def spy(self, names, known=None):
        reply = real(self, names, known)
        log.append((self.index, sorted(
            name for name, (_, version) in reply.items()
            if version is not None
        )))
        return reply

    monkeypatch.setattr(_Shard, "head_versions", spy)
    return log


def gather_counts(sharded) -> dict:
    return sharded.cluster.stats()["gather"]


def owner(sharded, key: int) -> int:
    return shard_of((key,), sharded.cluster.n_shards)


class TestGatherCache:
    def test_second_identical_scatter_ships_nothing(self, pair, shipped):
        seed(pair)
        sharded, single = pair
        want = repr(single.execute("SELECT * FROM t").rows())
        assert repr(sharded.execute("SELECT * FROM t").rows()) == want
        assert gather_counts(sharded) == {
            "tables_shipped": 1, "tables_reused": 0,
        }
        shipped.clear()
        assert repr(sharded.execute("SELECT * FROM t").rows()) == want
        assert shipped == [(0, []), (1, []), (2, [])]
        assert gather_counts(sharded) == {
            "tables_shipped": 1, "tables_reused": 1,
        }

    def test_write_to_one_shard_regathers_only_that_table(
        self, pair, shipped
    ):
        seed(pair)
        for client in pair:
            client.execute("CREATE TABLE s (k INT PRIMARY KEY, w INT)")
            client.executemany(
                "INSERT INTO s VALUES (?, ?)", [[i, i * i] for i in range(9)]
            )
        sharded, single = pair
        join = "SELECT t.k, t.v, s.w FROM t JOIN s ON t.k = s.k ORDER BY t.k"
        both(pair, join)
        shipped.clear()
        both(pair, "INSERT INTO t (k, v, x) VALUES (3000, 'new', 1.0)")
        got, want = both(pair, join)
        assert repr(got.rows()) == repr(want.rows())
        got, want = both(pair, "SELECT * FROM t")
        assert repr(got.rows()) == repr(want.rows())
        # First round: only the written shard ships t. Second round: the
        # others send their unchanged parts of t, and s never moves.
        written = owner(sharded, 3000)
        others = [i for i in range(3) if i != written]
        first, refetch = shipped[:3], shipped[3:5]
        assert first == [
            (i, ["t"] if i == written else []) for i in range(3)
        ]
        assert refetch == [(i, ["t"]) for i in others]
        assert shipped[5:] == [(0, []), (1, []), (2, [])]
        assert gather_counts(sharded) == {
            "tables_shipped": 3, "tables_reused": 2,
        }

    def test_drop_and_recreate_with_colliding_version_ids(self, pair):
        sharded, single = pair
        heads = []
        for rows in ([[1, "a", 1.0]], [[1, "b", 2.0]]):
            for client in pair:
                client.execute("DROP TABLE IF EXISTS t")
                client.execute(
                    "CREATE TABLE t (k INT PRIMARY KEY, v TEXT, x FLOAT)"
                )
                client.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
            got, want = both(pair, "SELECT * FROM t")
            assert repr(got.rows()) == repr(want.rows())
            heads.append([
                shard.database.catalog.table("t").head_version
                for shard in sharded.cluster.shards
            ])
        # Same commit count, so every shard's version_id repeats; only the
        # stamp tells the two tables apart.
        first, second = heads
        assert [v.version_id for v in first] == [
            v.version_id for v in second
        ]
        assert gather_counts(sharded)["tables_shipped"] == 2

    def test_write_around_the_router_is_still_seen(self, pair):
        """A stamp names the head itself, so a write the router never saw
        (straight into one shard's engine) still re-ships the table."""
        seed(pair)
        sharded, single = pair
        sharded.execute("SELECT * FROM t")
        victim = owner(sharded, 5)
        sharded.cluster.shards[victim].database.execute(
            "DELETE FROM t WHERE k = 5"
        )
        single.execute("DELETE FROM t WHERE k = 5")
        got, want = both(pair, "SELECT * FROM t")
        assert repr(got.rows()) == repr(want.rows())

    def test_shard_moving_between_rounds_forces_a_full_round(
        self, pair, shipped, monkeypatch
    ):
        """A stamp that changes between the first round and the refetch
        means a write slipped past the cluster lock: every head is taken
        again in one round instead of mixing two snapshots."""
        seed(pair)
        sharded, single = pair
        sharded.execute("SELECT * FROM t")
        written = owner(sharded, 2000)
        moved = next(i for i in range(3) if i != written)
        moved_key = next(k for k in range(24) if owner(sharded, k) == moved)
        both(pair, "INSERT INTO t (k, v, x) VALUES (2000, 'w', 0.5)")
        real = _Shard.head_versions
        fired = []

        def write_before_refetch(self, names, known=None):
            if self.index == moved and known is None and not fired:
                fired.append(True)
                self.database.execute(f"DELETE FROM t WHERE k = {moved_key}")
            return real(self, names, known)

        monkeypatch.setattr(_Shard, "head_versions", write_before_refetch)
        single.execute(f"DELETE FROM t WHERE k = {moved_key}")
        shipped.clear()
        got, want = both(pair, "SELECT * FROM t")
        assert fired
        assert repr(got.rows()) == repr(want.rows())
        assert shipped[-3:] == [(0, ["t"]), (1, ["t"]), (2, ["t"])]
        got, want = both(pair, "SELECT * FROM t")
        assert repr(got.rows()) == repr(want.rows())

    def test_restart_between_reads(self, pair):
        seed(pair)
        sharded, single = pair
        both(pair, "SELECT * FROM t")
        sharded.cluster.restart_shard(1)
        both(pair, "INSERT INTO t (k, v, x) VALUES (500, 'after', 5.0)")
        got, want = both(pair, "SELECT * FROM t")
        assert repr(got.rows()) == repr(want.rows())
        # The restart dropped the cache: the second read merged afresh.
        assert gather_counts(sharded) == {
            "tables_shipped": 2, "tables_reused": 0,
        }

    def test_concurrent_reads_race_scatter_writes(self, pair):
        seed(pair, n=0)
        sharded, single = pair
        batches = [
            [[b * 10 + i, f"b{b}", float(i)] for i in range(10)]
            for b in range(8)
        ]
        # Every state a reader may see: the table after each batch.
        states = {repr(single.execute("SELECT * FROM t").rows())}
        for batch in batches:
            single.executemany("INSERT INTO t VALUES (?, ?, ?)", batch)
            states.add(repr(single.execute("SELECT * FROM t").rows()))
        stop = threading.Event()
        torn: list = []
        reads: list[int] = []
        errors: list[Exception] = []

        def reader():
            try:
                while not stop.is_set():
                    got = repr(sharded.execute("SELECT * FROM t").rows())
                    reads.append(1)
                    if got not in states:
                        torn.append(got)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for batch in batches:
                sharded.executemany("INSERT INTO t VALUES (?, ?, ?)", batch)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not torn
        got, want = both(pair, "SELECT * FROM t")
        assert repr(got.rows()) == repr(want.rows())
        # One gathered table per read: a lost count update would show.
        counts = gather_counts(sharded)
        assert counts["tables_shipped"] + counts["tables_reused"] == (
            len(reads) + 1
        )

    def test_remote_head_version_is_the_full_version(self, pair):
        seed(pair)
        sharded, _ = pair
        sharded.execute("SELECT * FROM t")
        sharded.execute("SELECT * FROM t")
        rows = 0
        for shard in sharded.cluster.shards:
            table = shard.database.catalog.table("t")
            head = table.head_version
            assert head.row_count == table.row_count
            assert head.schema.column_names == ["k", "v", "x", "_flock_seq"]
            assert [len(column) for column in head.columns] == [
                head.row_count
            ] * 4
            rows += head.row_count
        assert rows == 24


# ----------------------------------------------------------------------
# Writes
# ----------------------------------------------------------------------
class TestWrites:
    def test_update_delete_parity(self, pair):
        seed(pair)
        for sql in [
            "UPDATE t SET v = 'upd' WHERE k = 5",
            "UPDATE t SET x = x + 1 WHERE x > 20",
            "DELETE FROM t WHERE k IN (1, 2)",
            "DELETE FROM t WHERE x > 30",
        ]:
            got, want = both(pair, sql)
            assert got.affected_rows == want.affected_rows, sql
        got, want = both(pair, "SELECT * FROM t")
        assert repr(got.rows()) == repr(want.rows())

    def test_executemany_scatters_in_one_pass(self, pair):
        seed(pair, n=0)
        sharded, single = pair
        rows = [[i, f"bulk{i}", float(i)] for i in range(50)]
        sharded.executemany(
            "INSERT INTO t (k, v, x) VALUES (?, ?, ?)", rows
        )
        single.executemany(
            "INSERT INTO t (k, v, x) VALUES (?, ?, ?)", rows
        )
        got, want = both(pair, "SELECT * FROM t")
        assert repr(got.rows()) == repr(want.rows())

    def test_insert_select_materializes_through_merge(self, pair):
        seed(pair)
        for client in pair:
            client.execute(
                "CREATE TABLE t2 (k INT PRIMARY KEY, x FLOAT)"
            )
            client.execute(
                "INSERT INTO t2 (k, x) SELECT k, x FROM t WHERE x < 15"
            )
        got, want = both(pair, "SELECT * FROM t2")
        assert repr(got.rows()) == repr(want.rows())

    def test_failed_scatter_compensates(self, pair):
        seed(pair)
        sharded, single = pair
        bad = (
            "INSERT INTO t (k, v, x) VALUES "
            "(900, 'a', 1.0), (1, 'dup', 2.0), (901, 'b', 3.0)"
        )
        for client in pair:
            before = client.execute("SELECT * FROM t").rows()
            with pytest.raises(ConstraintError):
                client.execute(bad)
            assert client.execute("SELECT * FROM t").rows() == before

    def test_no_pk_table_pins_to_shard_zero(self, pair):
        for client in pair:
            client.execute("CREATE TABLE log (msg TEXT)")
            client.execute("INSERT INTO log (msg) VALUES ('a'), ('b')")
        sharded, _ = pair
        got, want = both(pair, "SELECT * FROM log")
        assert repr(got.rows()) == repr(want.rows())
        assert (
            sharded.cluster.shards[1]
            .database.catalog.table("log")
            .row_count
            == 0
        )


# ----------------------------------------------------------------------
# Unsupported statements fail loudly, not wrongly
# ----------------------------------------------------------------------
class TestRejections:
    def test_explicit_transactions(self, pair):
        sharded, _ = pair
        for sql in ("BEGIN", "COMMIT", "ROLLBACK"):
            with pytest.raises(ShardError):
                sharded.execute(sql)

    def test_shard_key_update(self, pair):
        seed(pair)
        sharded, _ = pair
        with pytest.raises(ShardError):
            sharded.execute("UPDATE t SET k = 99 WHERE k = 1")

    @pytest.mark.parametrize("sql, params", [
        ("DELETE FROM t WHERE k IN (SELECT k FROM t WHERE x > 20)", None),
        ("DELETE FROM t WHERE k IN (SELECT k FROM t WHERE x > ?)", [1.0]),
        ("UPDATE t SET v = 'u' WHERE k IN (SELECT k FROM t WHERE x > 20)",
         None),
    ], ids=["delete", "parameterized", "update"])
    def test_in_subquery_dml_rejected_like_embedded(self, pair, sql, params):
        """Both tiers raise the embedded binder's error and change no row."""
        seed(pair)
        messages = []
        for client in pair:
            before = client.execute("SELECT * FROM t").rows()
            with pytest.raises(BindError) as raised:
                client.execute(sql, params)
            messages.append(str(raised.value))
            assert client.execute("SELECT * FROM t").rows() == before
        assert messages[0] == messages[1]
        assert "only supported as a top-level conjunct" in messages[0]

    def test_parameter_count_checked_before_routing(self, pair):
        seed(pair)
        sharded, _ = pair
        with pytest.raises(BindError):
            sharded.execute("SELECT v FROM t WHERE k = ?", [1, 2])

    def test_unparseable_statement(self, pair):
        sharded, _ = pair
        with pytest.raises(ParseError):
            sharded.execute("FROBNICATE ALL THE THINGS")

    def test_invalid_configs(self, tmp_path):
        with pytest.raises(ShardError):
            ShardedCluster(None)
        with pytest.raises(ShardError):
            ShardedCluster(tmp_path / "z", shards=0)
        with pytest.raises(ShardError):
            flock.connect(shards=2)


# ----------------------------------------------------------------------
# DDL broadcast
# ----------------------------------------------------------------------
class TestDDLBroadcast:
    def test_create_reaches_every_shard(self, pair):
        seed(pair)
        sharded, _ = pair
        for shard in sharded.cluster.shards:
            schema = shard.database.catalog.schema("t")
            assert [c.name for c in schema.columns] == [
                "k", "v", "x", "_flock_seq",
            ]
            assert schema.columns[-1].hidden

    def test_invalid_ddl_touches_nothing(self, pair):
        seed(pair, n=400)  # enough rows per shard to plan an IndexLookup
        sharded, _ = pair
        for bad in (
            "CREATE TABLE bad (k WIBBLE PRIMARY KEY)",
            # t_pkey is t's automatic key index, reserved on t.
            "CREATE INDEX t_pkey ON t (x)",
        ):
            with pytest.raises(FlockError):
                sharded.execute(bad)
        # The EXPLAIN below needs index paths whatever FLOCK_INDEXES is.
        sharded.execute("SET flock.indexes = 1")
        for shard in sharded.cluster.shards:
            assert not shard.database.catalog.has_table("bad")
            assert shard.database.catalog.index_defs() == []
            plan = shard.database.execute(
                "EXPLAIN SELECT * FROM t WHERE k = 5"
            ).rows()
            assert any("index=t_pkey key=k" in line for (line,) in plan)

    def test_divergent_shard_rolls_back_applied_prefix(self, pair):
        sharded, _ = pair
        # Fault injection: shard 1 grows a conflicting table behind the
        # router's back, so the broadcast fails mid-flight.
        sharded.cluster.shards[1].database.execute(
            "CREATE TABLE ghost (a INT)"
        )
        with pytest.raises(FlockError):
            sharded.execute("CREATE TABLE ghost (a INT PRIMARY KEY)")
        assert not sharded.cluster.coordinator.catalog.has_table("ghost")
        assert not sharded.cluster.shards[0].database.catalog.has_table(
            "ghost"
        )

    def test_views_and_indexes_broadcast(self, pair):
        seed(pair)
        for client in pair:
            client.execute(
                "CREATE VIEW big AS SELECT k, x FROM t WHERE x > 9"
            )
            client.execute("CREATE INDEX t_v ON t (v)")
        got, want = both(pair, "SELECT * FROM big ORDER BY x LIMIT 3")
        assert repr(got.rows()) == repr(want.rows())
        got, want = both(pair, "SELECT k FROM t WHERE v = 'row7'")
        assert repr(got.rows()) == repr(want.rows())

    def test_security_broadcast(self, pair):
        seed(pair)
        for client in pair:
            client.execute("CREATE USER bob")
            client.execute("GRANT SELECT ON t TO bob")
        sharded, single = pair
        got = sharded.for_user("bob").execute("SELECT COUNT(*) FROM t")
        want = single.for_user("bob").execute("SELECT COUNT(*) FROM t")
        assert got.rows() == want.rows()
        for client in pair:
            with pytest.raises(FlockError):
                client.for_user("bob").execute(
                    "INSERT INTO t (k, v, x) VALUES (999, 'x', 0.0)"
                )


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------
class TestModels:
    @staticmethod
    def _graph():
        from flock.ml import LinearRegression
        from flock.ml.datasets import make_regression
        from flock.mlgraph import to_graph

        X, y, _ = make_regression(30, 2, random_state=11)
        return to_graph(LinearRegression().fit(X, y), ["x", "x2"])

    def test_deploy_broadcasts_and_predict_matches(self, pair):
        for client in pair:
            client.execute(
                "CREATE TABLE f (k INT PRIMARY KEY, x FLOAT, x2 FLOAT)"
            )
            client.executemany(
                "INSERT INTO f (k, x, x2) VALUES (?, ?, ?)",
                [[i, float(i), i / 2.0] for i in range(16)],
            )
            client.registry.deploy("m", self._graph())
        got, want = both(
            pair,
            "SELECT k, PREDICT(m, x, x2) AS p FROM f ORDER BY k LIMIT 6",
        )
        assert repr(got.rows()) == repr(want.rows())
        got, want = both(
            pair, "SELECT PREDICT(m, x, x2) FROM f WHERE k = 7"
        )
        assert repr(got.rows()) == repr(want.rows())
        got, want = both(pair, "SELECT name, version FROM flock_models")
        assert repr(got.rows()) == repr(want.rows())


# ----------------------------------------------------------------------
# Durability
# ----------------------------------------------------------------------
class TestDurability:
    def test_shard_crash_reopen(self, pair):
        seed(pair)
        sharded, single = pair
        sharded.cluster.restart_shard(1)
        got, want = both(pair, "SELECT * FROM t")
        assert repr(got.rows()) == repr(want.rows())

    def test_cluster_reopen_recovers_sequences(self, tmp_path):
        with flock.connect(tmp_path / "db", shards=2) as client:
            client.execute("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
            client.executemany(
                "INSERT INTO t (k, v) VALUES (?, ?)",
                [[i, f"r{i}"] for i in range(10)],
            )
            before = client.execute("SELECT * FROM t").rows()
        with flock.connect(tmp_path / "single") as single:
            single.execute("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
            single.executemany(
                "INSERT INTO t (k, v) VALUES (?, ?)",
                [[i, f"r{i}"] for i in range(10)],
            )
            single.execute("INSERT INTO t (k, v) VALUES (100, 'after')")
            want = single.execute("SELECT * FROM t").rows()
        with flock.connect(tmp_path / "db", shards=2) as client:
            assert client.execute("SELECT * FROM t").rows() == before
            client.execute("INSERT INTO t (k, v) VALUES (100, 'after')")
            assert repr(client.execute("SELECT * FROM t").rows()) == repr(
                want
            )

    def test_reopen_with_different_shard_count_refused(self, tmp_path):
        with flock.connect(tmp_path / "db", shards=2) as client:
            client.execute("CREATE TABLE t (k INT PRIMARY KEY)")
        with pytest.raises(ShardError):
            flock.connect(tmp_path / "db", shards=3)


# ----------------------------------------------------------------------
# Composition with replicas (PR 6)
# ----------------------------------------------------------------------
class TestReplicaComposition:
    def test_shards_with_replicas(self, tmp_path):
        with flock.connect(tmp_path / "db", shards=2, replicas=1) as client:
            client.execute("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
            client.executemany(
                "INSERT INTO t (k, v) VALUES (?, ?)",
                [[i, f"r{i}"] for i in range(12)],
            )
            assert client.cluster.wait_for_catchup(10.0)
            assert len(client.execute("SELECT * FROM t").rows()) == 12
            assert client.execute(
                "SELECT v FROM t WHERE k = 3"
            ).rows() == [("r3",)]
            stats = client.cluster.stats()
            assert stats["shards"] == 2 and stats["replicas"] == 1


# ----------------------------------------------------------------------
# The client surface
# ----------------------------------------------------------------------
class TestClientSurface:
    def test_mode_and_submit(self, pair):
        sharded, _ = pair
        assert sharded.mode == "sharded"
        seed(pair)
        future = sharded.submit("SELECT COUNT(*) FROM t")
        assert future.result().rows() == [(24,)]
        failed = sharded.submit("SELECT nope FROM t")
        with pytest.raises(FlockError):
            failed.result()

    @pytest.mark.parametrize("process", [False, True])
    def test_inserts_are_counted_as_routes(self, tmp_path, process):
        client = flock.connect(tmp_path / "db", shards=2, process=process)
        try:
            zero = [k for k in range(40) if shard_of((k,), 2) == 0]
            one = [k for k in range(40) if shard_of((k,), 2) == 1]
            client.execute("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
            client.execute("INSERT INTO t VALUES (?, 'a')", [zero[0]])
            client.execute(
                "INSERT INTO t VALUES (?, 'b'), (?, 'c')", [zero[1], one[0]]
            )
            client.executemany(
                "INSERT INTO t VALUES (?, ?)", [[zero[2], "d"], [zero[3], "e"]]
            )
            assert client.stats()["routes"] == {
                "single": 2, "scatter": 1, "broadcast": 0, "ddl": 1,
            }
            # A keyless table pins every row to shard 0: one shard.
            client.execute("CREATE TABLE loose (v TEXT)")
            client.executemany("INSERT INTO loose VALUES (?)", [["x"], ["y"]])
            assert client.stats()["routes"] == {
                "single": 3, "scatter": 1, "broadcast": 0, "ddl": 2,
            }
        finally:
            client.close()

    def test_stats_shape(self, pair):
        seed(pair)
        sharded, _ = pair
        stats = sharded.stats()
        assert stats["shards"] == 3
        assert set(stats["routes"]) == {
            "single", "scatter", "broadcast", "ddl",
        }
        assert set(stats["gather"]) == {"tables_shipped", "tables_reused"}
        assert len(stats["per_shard"]) == 3
        # Every shard reports where it runs, whatever the transport.
        for shard_stats in stats["per_shard"]:
            assert shard_stats["backend"] == stats["backend"]
            assert isinstance(shard_stats["pid"], int)
