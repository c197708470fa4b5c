"""Hash indexes and zone maps: DDL, planning, MVCC, durability, faults."""

from __future__ import annotations

import numpy as np
import pytest

from flock.db import Database
from flock.db import index as index_module
from flock.db.index import ZONE_ROWS
from flock.errors import CatalogError, FaultInjected, SecurityError
from flock.observability.metrics import metrics
from flock.testing import faultpoints


@pytest.fixture(autouse=True)
def _force_index_paths(monkeypatch):
    # These tests assert index behavior directly; neutralize the
    # FLOCK_INDEXES kill switch so the no-index CI lane can run them too.
    monkeypatch.delenv("FLOCK_INDEXES", raising=False)


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, cat INTEGER, "
        "price FLOAT, name TEXT)"
    )
    database.executemany(
        "INSERT INTO items VALUES (?, ?, ?, ?)",
        [(i, i % 7, float(i) / 2, f"n{i % 5}") for i in range(1, 501)],
    )
    return database


# ----------------------------------------------------------------------
# DDL surface
# ----------------------------------------------------------------------
class TestIndexDDL:
    def test_create_and_drop_index(self, db):
        db.execute("CREATE INDEX items_cat ON items (cat)")
        assert db.catalog.has_index("items_cat")
        db.execute("DROP INDEX items_cat")
        assert not db.catalog.has_index("items_cat")

    def test_drop_index_if_exists(self, db):
        db.execute("DROP INDEX IF EXISTS nope")  # no error
        with pytest.raises(CatalogError):
            db.execute("DROP INDEX nope")

    def test_duplicate_index_name_rejected(self, db):
        db.execute("CREATE INDEX items_cat ON items (cat)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX items_cat ON items (id)")

    def test_unknown_table_and_column_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX i1 ON missing (cat)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX i2 ON items (missing)")

    def test_drop_table_drops_its_indexes(self, db):
        db.execute("CREATE INDEX items_cat ON items (cat)")
        db.execute("DROP TABLE items")
        assert not db.catalog.has_index("items_cat")

    def test_auto_primary_key_index(self, db):
        table = db.catalog.table("items")
        idx = table.index("items_pkey")
        assert idx is not None and idx.defn.auto
        # Auto indexes live on the table only, outside the DDL namespace.
        assert not db.catalog.has_index("items_pkey")

    def test_key_index_name_is_reserved(self, db):
        # A user index named items_pkey would replace the automatic key
        # index, and point reads on id would fall back to a scan.
        with pytest.raises(CatalogError, match="primary-key index"):
            db.execute("CREATE INDEX items_pkey ON items (cat)")
        db.catalog.create_index(
            "items_pkey", "items", "cat", if_not_exists=True
        )
        assert not db.catalog.has_index("items_pkey")
        plan = db.explain("SELECT * FROM items WHERE id = 5")
        assert "IndexLookup" in plan and "index=items_pkey key=id" in plan
        # The name is only reserved on its own table.
        db.execute("CREATE TABLE other (c INTEGER)")
        db.execute("CREATE INDEX items_pkey ON other (c)")
        assert db.catalog.has_index("items_pkey")
        assert db.explain("SELECT * FROM items WHERE id = 5") == plan

    def test_index_ddl_bumps_invalidation_epoch(self, db):
        before = db.invalidation_epoch
        db.execute("CREATE INDEX items_cat ON items (cat)")
        mid = db.invalidation_epoch
        db.execute("DROP INDEX items_cat")
        assert before < mid < db.invalidation_epoch

    def test_non_admin_needs_table_ownership(self, db):
        db.execute("CREATE USER bob")
        with pytest.raises(SecurityError):
            db.execute("CREATE INDEX b1 ON items (cat)", user="bob")


# ----------------------------------------------------------------------
# Planning and execution
# ----------------------------------------------------------------------
class TestIndexAccessPaths:
    def test_point_lookup_uses_pk_index(self, db):
        plan = db.explain("SELECT name FROM items WHERE id = 42")
        assert "IndexLookup" in plan and "index=items_pkey" in plan
        rows = db.execute("SELECT name FROM items WHERE id = 42").rows()
        assert rows == [("n2",)]

    def test_in_list_uses_index(self, db):
        plan = db.explain("SELECT id FROM items WHERE id IN (3, 7, 499)")
        assert "IndexLookup" in plan and "keys=3" in plan
        rows = db.execute(
            "SELECT id FROM items WHERE id IN (3, 7, 499) ORDER BY id"
        ).rows()
        assert rows == [(3,), (7,), (499,)]

    def test_secondary_index_on_non_unique_column(self, db):
        db.execute("CREATE INDEX items_cat ON items (cat)")
        with_index = db.execute(
            "SELECT id FROM items WHERE cat = 3 ORDER BY id"
        ).rows()
        db.execute("SET flock.indexes = 0")
        without = db.execute(
            "SELECT id FROM items WHERE cat = 3 ORDER BY id"
        ).rows()
        assert with_index == without and len(with_index) > 50

    def test_low_selectivity_predicate_skips_index(self, db):
        # cat has 7 distinct values over 500 rows: ~14% per key is under
        # the 20% ceiling, but two additional duplicates of every key push
        # a 3-key IN list over it.
        db.execute("CREATE INDEX items_cat ON items (cat)")
        plan = db.explain("SELECT id FROM items WHERE cat IN (1, 2, 3)")
        assert "IndexLookup" not in plan

    def test_explain_analyze_reports_index(self, db):
        text = db.explain_analyze("SELECT name FROM items WHERE id = 7")
        assert "index=items_pkey" in text

    def test_explain_analyze_reports_morsels_pruned(self):
        database = Database()
        database.execute("CREATE TABLE big (k INTEGER, v INTEGER)")
        n = ZONE_ROWS * 3
        database.executemany(
            "INSERT INTO big VALUES (?, ?)",
            [(i, i % 10) for i in range(n)],
        )
        text = database.explain_analyze(
            f"SELECT COUNT(*) FROM big WHERE k >= {ZONE_ROWS * 2}"
        )
        assert "zones=" in text
        assert "morsels_pruned=2" in text

    def test_disabled_indexes_fall_back_to_scan(self, db):
        db.execute("SET flock.indexes = 0")
        plan = db.explain("SELECT name FROM items WHERE id = 42")
        assert "IndexLookup" not in plan
        rows = db.execute("SELECT name FROM items WHERE id = 42").rows()
        assert rows == [("n2",)]
        db.execute("SET flock.indexes = 1")
        assert "IndexLookup" in db.explain(
            "SELECT name FROM items WHERE id = 42"
        )

    def test_set_flock_indexes_validates(self, db):
        from flock.errors import BindError

        with pytest.raises(BindError):
            db.execute("SET flock.indexes = 2")
        db.execute("CREATE USER eve")
        with pytest.raises(SecurityError):
            db.execute("SET flock.indexes = 0", user="eve")

    def test_index_results_match_scan_on_duplicates_and_misses(self, db):
        db.execute("CREATE INDEX items_cat ON items (cat)")
        for sql in (
            "SELECT id FROM items WHERE cat = 999 ORDER BY id",  # miss
            "SELECT id FROM items WHERE id IN (0, 1, 1, 2) ORDER BY id",
            "SELECT COUNT(*) FROM items WHERE id = 250",
        ):
            indexed = db.execute(sql).rows()
            db.execute("SET flock.indexes = 0")
            scanned = db.execute(sql).rows()
            db.execute("SET flock.indexes = 1")
            assert indexed == scanned, sql


# ----------------------------------------------------------------------
# Transactional correctness
# ----------------------------------------------------------------------
class TestIndexMVCC:
    def test_own_staged_writes_visible_inside_transaction(self, db):
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO items VALUES (1000, 1, 0.5, 'staged')")
        # The snapshot is this txn's staged version, not the head: the
        # lookup declines (index only reflects published heads) and the
        # scan fallback still sees the staged row.
        rows = conn.execute(
            "SELECT name FROM items WHERE id = 1000"
        ).rows()
        assert rows == [("staged",)]
        conn.execute("ROLLBACK")
        assert db.execute(
            "SELECT name FROM items WHERE id = 1000"
        ).rows() == []

    def test_index_advances_on_insert_commits(self, db):
        # Build the PK index, then insert: a pure-INSERT commit advances
        # it in place instead of marking it stale.
        db.execute("SELECT id FROM items WHERE id = 1")
        before = metrics().counter("index.advances").value
        db.execute("INSERT INTO items VALUES (501, 1, 1.0, 'new')")
        assert metrics().counter("index.advances").value > before
        assert db.execute(
            "SELECT name FROM items WHERE id = 501"
        ).rows() == [("new",)]

    def test_index_rebuilds_after_update_and_delete(self, db):
        db.execute("SELECT id FROM items WHERE id = 1")
        db.execute("UPDATE items SET cat = 0 WHERE id = 10")
        db.execute("DELETE FROM items WHERE id = 20")
        assert db.execute(
            "SELECT COUNT(*) FROM items WHERE id = 20"
        ).rows() == [(0,)]
        assert db.execute(
            "SELECT cat FROM items WHERE id = 10"
        ).rows() == [(0,)]

    def _lookup_matches_scan(self, db, sql):
        indexed = db.execute(sql).rows()
        db.execute("SET flock.indexes = 0")
        scanned = db.execute(sql).rows()
        db.execute("SET flock.indexes = 1")
        assert indexed == scanned, sql
        return indexed

    def test_non_key_update_advances_pk_index(self, db):
        db.execute("SELECT id FROM items WHERE id = 1")  # build _pkey
        advances = metrics().counter("index.advances").value
        rebuilds = metrics().counter("index.rebuilds").value
        db.execute("UPDATE items SET cat = 99, name = 'u' WHERE id = 10")
        assert metrics().counter("index.advances").value == advances + 1
        rows = self._lookup_matches_scan(
            db, "SELECT cat, name FROM items WHERE id = 10"
        )
        assert rows == [(99, "u")]
        assert metrics().counter("index.rebuilds").value == rebuilds
        pkey = db.catalog.table("items").index("items_pkey")
        head = db.catalog.table("items").head_version
        assert pkey.version_id == head.version_id

    def test_update_of_indexed_column_goes_stale_then_rebuilds_once(self, db):
        db.execute("CREATE INDEX items_cat ON items (cat)")
        db.execute("SELECT id FROM items WHERE cat = 3")  # build items_cat
        index = db.catalog.table("items").index("items_cat")
        db.execute("UPDATE items SET cat = 3 WHERE id IN (1, 2)")
        head = db.catalog.table("items").head_version
        assert index.version_id != head.version_id
        rebuilds = metrics().counter("index.rebuilds").value
        sql = "SELECT id FROM items WHERE cat = 3 ORDER BY id"
        assert self._lookup_matches_scan(db, sql)[:3] == [(1,), (2,), (3,)]
        assert self._lookup_matches_scan(db, sql)[:3] == [(1,), (2,), (3,)]
        assert metrics().counter("index.rebuilds").value == rebuilds + 1
        assert index.version_id == head.version_id

    def test_insert_then_update_transaction_advances(self, db):
        db.execute("SELECT id FROM items WHERE id = 1")
        index = db.catalog.table("items").index("items_pkey")
        advances = metrics().counter("index.advances").value
        rebuilds = metrics().counter("index.rebuilds").value
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO items VALUES (700, 1, 1.0, 'a')")
        conn.execute("UPDATE items SET price = 9.5 WHERE id IN (5, 700)")
        conn.execute("COMMIT")
        assert metrics().counter("index.advances").value == advances + 1
        head = db.catalog.table("items").head_version
        assert index.version_id == head.version_id
        rows = self._lookup_matches_scan(
            db, "SELECT id, price FROM items WHERE id IN (5, 700) ORDER BY id"
        )
        assert rows == [(5, 9.5), (700, 9.5)]
        assert metrics().counter("index.rebuilds").value == rebuilds

    def test_rollback_leaves_index_at_head(self, db):
        db.execute("SELECT id FROM items WHERE id = 1")
        index = db.catalog.table("items").index("items_pkey")
        head = db.catalog.table("items").head_version.version_id
        advances = metrics().counter("index.advances").value
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("UPDATE items SET cat = 5 WHERE id = 8")
        conn.execute("INSERT INTO items VALUES (800, 1, 1.0, 'a')")
        conn.execute("ROLLBACK")
        assert index.version_id == head
        assert db.catalog.table("items").head_version.version_id == head
        assert metrics().counter("index.advances").value == advances
        assert self._lookup_matches_scan(
            db, "SELECT cat FROM items WHERE id IN (8, 800)"
        ) == [(1,)]

    def test_multi_statement_transaction_commit(self, db):
        db.execute("SELECT id FROM items WHERE id = 1")  # build index
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO items VALUES (600, 1, 1.0, 'a')")
        conn.execute("INSERT INTO items VALUES (601, 2, 2.0, 'b')")
        conn.execute("COMMIT")
        rows = db.execute(
            "SELECT id FROM items WHERE id IN (600, 601) ORDER BY id"
        ).rows()
        assert rows == [(600,), (601,)]


# ----------------------------------------------------------------------
# Zone maps
# ----------------------------------------------------------------------
class TestZoneMaps:
    def _version(self, values):
        database = Database()
        database.execute("CREATE TABLE z (k INTEGER)")
        database.executemany(
            "INSERT INTO z VALUES (?)", [(v,) for v in values]
        )
        return database.catalog.table("z").head_version

    def test_prune_row_mask_drops_out_of_range_zones(self):
        values = list(range(ZONE_ROWS * 3))
        version = self._version(values)
        mask, pruned, total = index_module.prune_row_mask(
            version, [(0, ">=", ZONE_ROWS * 2)]
        )
        assert (pruned, total) == (2, 3)
        assert mask is not None and int(mask.sum()) == ZONE_ROWS

    def test_null_rows_are_prunable(self):
        # A zone of pure NULLs can never satisfy a comparison.
        values = [None] * ZONE_ROWS + list(range(ZONE_ROWS))
        version = self._version(values)
        mask, pruned, total = index_module.prune_row_mask(
            version, [(0, "<", ZONE_ROWS)]
        )
        assert (pruned, total) == (1, 2)
        database_rows = np.nonzero(mask)[0]
        assert database_rows[0] == ZONE_ROWS  # all-null zone dropped

    def test_null_literal_drops_everything(self):
        version = self._version(list(range(ZONE_ROWS)))
        mask, pruned, total = index_module.prune_row_mask(
            version, [(0, "=", None)]
        )
        assert pruned == total == 1
        assert mask is not None and int(mask.sum()) == 0

    def test_no_predicate_match_returns_none_mask(self):
        version = self._version(list(range(ZONE_ROWS * 2)))
        mask, pruned, _total = index_module.prune_row_mask(
            version, [(0, ">=", 0)]
        )
        assert mask is None and pruned == 0

    def test_append_reuses_full_zone_prefix(self):
        database = Database()
        database.execute("CREATE TABLE z (k INTEGER)")
        database.executemany(
            "INSERT INTO z VALUES (?)",
            [(v,) for v in range(ZONE_ROWS)],
        )
        v1 = database.catalog.table("z").head_version
        z1 = index_module.zones_for(v1, 0)
        database.executemany(
            "INSERT INTO z VALUES (?)",
            [(v,) for v in range(ZONE_ROWS, ZONE_ROWS * 2)],
        )
        v2 = database.catalog.table("z").head_version
        z2 = index_module.zones_for(v2, 0)
        assert z2.mins[0] == z1.mins[0] and z2.maxs[0] == z1.maxs[0]
        assert len(z2.mins) == 2

    def test_zone_pruned_results_match_scan(self):
        database = Database()
        database.execute("CREATE TABLE z (k INTEGER, v FLOAT)")
        rng = np.random.default_rng(3)
        database.executemany(
            "INSERT INTO z VALUES (?, ?)",
            [
                (int(k), float(x))
                for k, x in zip(
                    np.sort(rng.integers(0, 10_000, ZONE_ROWS * 2)),
                    rng.uniform(0, 1, ZONE_ROWS * 2),
                )
            ],
        )
        sql = "SELECT COUNT(*), SUM(v) FROM z WHERE k > 9000"
        pruned = database.execute(sql).rows()
        database.execute("SET flock.indexes = 0")
        scanned = database.execute(sql).rows()
        assert repr(pruned) == repr(scanned)


# ----------------------------------------------------------------------
# Durability: checkpoints, WAL replay, crash recovery
# ----------------------------------------------------------------------
class TestIndexDurability:
    def test_persist_round_trip_keeps_index_defs(self, db, tmp_path):
        from flock.db.persist import load_database, save_database

        db.execute("CREATE INDEX items_cat ON items (cat)")
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert restored.catalog.has_index("items_cat")
        assert "IndexLookup" in restored.explain(
            "SELECT name FROM items WHERE id = 42"
        )
        assert restored.execute(
            "SELECT name FROM items WHERE id = 42"
        ).rows() == [("n2",)]

    def test_wal_replay_restores_indexes(self, tmp_path):
        durable = Database.open(tmp_path / "db")
        durable.execute(
            "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"
        )
        durable.execute("CREATE INDEX t_v ON t (v)")
        durable.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i, i * 2) for i in range(100)]
        )
        durable.execute("DROP INDEX t_v")
        durable.execute("CREATE INDEX t_v2 ON t (v)")
        # Crash: reopen without close — recovery replays the WAL.
        reopened = Database.open(tmp_path / "db")
        assert reopened.catalog.has_index("t_v2")
        assert not reopened.catalog.has_index("t_v")
        assert reopened.execute(
            "SELECT v FROM t WHERE k = 42"
        ).rows() == [(84,)]
        assert "IndexLookup" in reopened.explain(
            "SELECT v FROM t WHERE k = 42"
        )
        reopened.close()

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_logged_key_index_shadow_is_dropped_on_open(
        self, tmp_path, checkpoint
    ):
        # Directories written before the pkey name was reserved may log
        # (or checkpoint) a user index t_pkey that replaced t's key index.
        from flock.db.index import IndexDef

        durable = Database.open(tmp_path / "db")
        durable.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        durable.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i, i * 2) for i in range(500)]
        )
        shadow = IndexDef(name="t_pkey", table="t", column="v")
        durable.catalog.table("t").create_index(shadow)
        durable.catalog._indexes["t_pkey"] = shadow
        durable._log_ddl(
            {"kind": "create_index", "name": "t_pkey", "table": "t",
             "column": "v"}
        )
        if checkpoint:
            durable.checkpoint()
        reopened = Database.open(tmp_path / "db")
        assert not reopened.catalog.has_index("t_pkey")
        assert "index=t_pkey key=k" in reopened.explain(
            "SELECT v FROM t WHERE k = 42"
        )
        assert reopened.execute(
            "SELECT v FROM t WHERE k = 42"
        ).rows() == [(84,)]
        reopened.close()

    def test_checkpoint_then_replay_is_idempotent(self, tmp_path):
        durable = Database.open(tmp_path / "db", checkpoint_bytes=0)
        durable.execute(
            "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"
        )
        durable.execute("CREATE INDEX t_v ON t (v)")
        durable.execute("INSERT INTO t VALUES (1, 10)")
        durable.checkpoint()
        durable.execute("INSERT INTO t VALUES (2, 20)")
        reopened = Database.open(tmp_path / "db", checkpoint_bytes=0)
        assert reopened.catalog.has_index("t_v")
        assert reopened.execute(
            "SELECT k FROM t WHERE v = 20"
        ).rows() == [(2,)]
        reopened.close()


# ----------------------------------------------------------------------
# Fault injection and observability
# ----------------------------------------------------------------------
class TestIndexFaultsAndMetrics:
    def test_rebuild_faultpoint_fires_and_recovers(self, db):
        faultpoints.clear()
        try:
            faultpoints.set_fault("index.pre_rebuild", action="error")
            with pytest.raises(FaultInjected):
                db.execute("SELECT name FROM items WHERE id = 42")
        finally:
            faultpoints.clear()
        # Disarmed: the next lookup rebuilds and answers correctly.
        assert db.execute(
            "SELECT name FROM items WHERE id = 42"
        ).rows() == [("n2",)]

    def test_lookup_and_rebuild_counters(self, db):
        lookups = metrics().counter("index.lookups").value
        rebuilds = metrics().counter("index.rebuilds").value
        db.execute("SELECT name FROM items WHERE id = 42")
        assert metrics().counter("index.lookups").value > lookups
        assert metrics().counter("index.rebuilds").value > rebuilds

    def test_dropped_index_in_cached_plan_falls_back(self, db):
        from flock.db.binder import Binder
        from flock.db.sql.parser import parse_statement

        sql = "SELECT name FROM items WHERE id = 42"
        bound = Binder(db, None).bind_query(parse_statement(sql))
        plan = db.optimizer.optimize(bound, db)
        # Simulate a stale serving-cache plan: drop the index under it.
        db.catalog.table("items").drop_index("items_pkey")
        fallbacks = metrics().counter("index.fallbacks").value
        result = db.execute_plan(plan, sql=sql)
        assert result.rows() == [("n2",)]
        assert metrics().counter("index.fallbacks").value > fallbacks
