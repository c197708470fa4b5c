"""Write-ahead logging, checkpointing and recovery.

These tests exercise the durability machinery through its public entry
points (``Database.open`` / ``flock.open_session``): commits must survive a
reopen byte-for-byte, checkpoints must truncate the log without losing
state, and injected append/fsync/checkpoint failures must poison the log
rather than acknowledge an undurable commit.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

import flock
from flock.db import Database
from flock.db import wal as wal_module
from flock.errors import (
    DurabilityError,
    FaultInjected,
    FlockError,
    SecurityError,
)
from flock.testing import faultpoints


@pytest.fixture(autouse=True)
def _clean_faults():
    faultpoints.clear()
    yield
    faultpoints.clear()


def reopen(db: Database, path, **kwargs) -> Database:
    db.close()
    return Database.open(path, **kwargs)


# ----------------------------------------------------------------------
# Basic durability roundtrips
# ----------------------------------------------------------------------
class TestDurabilityRoundtrip:
    def test_fresh_directory_then_reopen(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        db.execute("UPDATE t SET b = 'z' WHERE a = 2")
        db.execute("DELETE FROM t WHERE a = 1")
        expected = db.execute("SELECT * FROM t ORDER BY a").rows()

        db = reopen(db, tmp_path)
        assert db.execute("SELECT * FROM t ORDER BY a").rows() == expected
        report = db.wal.last_recovery
        assert report.commits_replayed == 3  # insert, update, delete
        assert report.ddl_replayed >= 1
        assert report.tail_status == "clean"
        db.close()

    def test_awkward_values_survive(self, tmp_path):
        """NULL, NaN, ±inf, DATE and unicode all round-trip the log."""
        db = Database.open(tmp_path)
        db.execute(
            "CREATE TABLE v (id INT PRIMARY KEY, f FLOAT, s TEXT, d DATE, "
            "ok BOOLEAN)"
        )
        db.execute(
            "INSERT INTO v VALUES (?, ?, ?, ?, ?)",
            [1, float("nan"), "naïve — ünïcode", "2024-02-29", True],
        )
        db.execute(
            "INSERT INTO v VALUES (?, ?, ?, ?, ?)",
            [2, float("inf"), None, None, False],
        )
        db.execute(
            "INSERT INTO v VALUES (?, ?, ?, ?, ?)",
            [3, float("-inf"), "", "1970-01-01", None],
        )

        db = reopen(db, tmp_path)
        rows = db.execute("SELECT * FROM v ORDER BY id").rows()
        assert math.isnan(rows[0][1])
        assert rows[0][2] == "naïve — ünïcode"
        import datetime

        assert rows[0][3:] == (datetime.date(2024, 2, 29), True)
        assert rows[1][1:] == (float("inf"), None, None, False)
        assert rows[2][1:] == (
            float("-inf"),
            "",
            datetime.date(1970, 1, 1),
            None,
        )
        db.close()

    def test_multi_statement_transaction_is_atomic(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE a (x INT)")
        db.execute("CREATE TABLE b (x INT)")
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO a VALUES (1)")
        conn.execute("INSERT INTO b VALUES (1)")
        conn.execute("COMMIT")
        # An open transaction at close time must not survive.
        conn.execute("BEGIN")
        conn.execute("INSERT INTO a VALUES (2)")

        db = reopen(db, tmp_path)
        assert db.execute("SELECT * FROM a").rows() == [(1,)]
        assert db.execute("SELECT * FROM b").rows() == [(1,)]
        db.close()

    def test_rollback_never_reaches_the_log(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (x INT)")
        before = db.wal.log_bytes
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.execute("ROLLBACK")
        assert db.wal.log_bytes == before
        db = reopen(db, tmp_path)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0
        db.close()

    def test_executemany_durable(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)")
        db.executemany(
            "INSERT INTO kv VALUES (?, ?)", [(i, f"v{i}") for i in range(40)]
        )
        db = reopen(db, tmp_path)
        assert db.execute("SELECT COUNT(*) FROM kv").scalar() == 40
        assert db.execute(
            "SELECT v FROM kv WHERE k = 17"
        ).scalar() == "v17"
        db.close()

    def test_version_history_replays_identically(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
        db.execute("DELETE FROM t WHERE x = 1")
        live = db.catalog.table("t")
        live_ids = [v.version_id for v in live.versions()]
        live_ops = [v.operation for v in live.versions()]

        db = reopen(db, tmp_path)
        recovered = db.catalog.table("t")
        assert [v.version_id for v in recovered.versions()] == live_ids
        assert [v.operation for v in recovered.versions()] == live_ops
        db.close()


# ----------------------------------------------------------------------
# DDL, security and views
# ----------------------------------------------------------------------
class TestCatalogAndSecurityReplay:
    def test_views_users_grants_survive(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE emp (id INT, dept TEXT, salary FLOAT)")
        db.execute(
            "INSERT INTO emp VALUES (1, 'eng', 100.0), (2, 'hr', 70.0)"
        )
        db.execute("CREATE VIEW eng AS SELECT * FROM emp WHERE dept = 'eng'")
        db.execute("CREATE USER analyst")
        db.execute("GRANT SELECT ON eng TO analyst")

        db = reopen(db, tmp_path)
        assert db.execute("SELECT COUNT(*) FROM eng").scalar() == 1
        # The grant line survives: analyst reads the view, not the table.
        assert db.execute(
            "SELECT COUNT(*) FROM eng", user="analyst"
        ).scalar() == 1
        with pytest.raises(SecurityError):
            db.execute("SELECT * FROM emp", user="analyst")
        db.close()

    def test_drop_table_and_view_replay(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (x INT)")
        db.execute("CREATE VIEW v AS SELECT * FROM t")
        db.execute("DROP VIEW v")
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (y TEXT)")
        db.execute("INSERT INTO t VALUES ('second life')")

        db = reopen(db, tmp_path)
        assert db.catalog.view_names() == []
        assert db.execute("SELECT y FROM t").rows() == [("second life",)]
        db.close()

    def test_revoke_replays(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (x INT)")
        db.execute("CREATE USER u")
        db.execute("GRANT SELECT ON t TO u")
        db.execute("REVOKE SELECT ON t FROM u")
        db = reopen(db, tmp_path)
        with pytest.raises(SecurityError):
            db.execute("SELECT * FROM t", user="u")
        db.close()


# ----------------------------------------------------------------------
# Model deployment durability (the paper's "models are data" claim)
# ----------------------------------------------------------------------
class TestModelDurability:
    def test_deployed_model_predicts_after_reopen(self, tmp_path):
        from flock.ml import LinearRegression
        from flock.ml.datasets import make_regression
        from flock.mlgraph import to_graph

        X, y, _ = make_regression(50, 3, random_state=0)
        graph = to_graph(LinearRegression().fit(X, y), ["a", "b", "c"])

        session = flock.open_session(tmp_path)
        session.db.execute("CREATE TABLE pts (a FLOAT, b FLOAT, c FLOAT)")
        session.db.execute("INSERT INTO pts VALUES (0.1, -0.4, 2.0)")
        session.registry.deploy("m", graph, description="durable")
        live = session.db.execute(
            "SELECT PREDICT(m, a, b, c) FROM pts"
        ).scalar()
        session.db.close()

        session = flock.open_session(tmp_path)
        recovered = session.db.execute(
            "SELECT PREDICT(m, a, b, c) FROM pts"
        ).scalar()
        assert recovered == pytest.approx(live, abs=0, rel=0)
        # Exactly one mirrored row and exactly one DEPLOY audit record.
        assert session.db.execute(
            "SELECT COUNT(*) FROM flock_models WHERE name = 'm'"
        ).scalar() == 1
        deploys = session.db.audit.log.records(action="DEPLOY_MODEL")
        assert len(deploys) == 1
        assert session.db.audit.log.verify_chain()
        session.db.close()


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_checkpoint_truncates_and_recovers(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.checkpoint()
        assert db.wal.generation == 2
        assert db.wal.log_bytes == 0
        db.execute("INSERT INTO t VALUES (2)")

        db = reopen(db, tmp_path)
        report = db.wal.last_recovery
        assert report.checkpoint_loaded
        assert report.generation == 2
        # Only the post-checkpoint commit replays from the log.
        assert report.commits_replayed == 1
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2
        db.close()

    def test_audit_chain_spans_checkpoint(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        live = [(r.sequence, r.action) for r in db.audit.log]
        db.checkpoint()
        db.execute("INSERT INTO t VALUES (2)")
        live.append(
            [(r.sequence, r.action) for r in db.audit.log][-1]
        )

        db = reopen(db, tmp_path)
        recovered = [(r.sequence, r.action) for r in db.audit.log]
        assert recovered == live
        assert db.audit.log.verify_chain()
        db.close()

    def test_auto_checkpoint_on_log_growth(self, tmp_path):
        db = Database.open(tmp_path, checkpoint_bytes=2000)
        db.execute("CREATE TABLE t (x INT, payload TEXT)")
        for i in range(30):
            db.execute(f"INSERT INTO t VALUES ({i}, '{'p' * 200}')")
        assert db.wal.generation > 1  # at least one auto-checkpoint fired
        assert db.wal.log_bytes < 2000 + 1500
        db = reopen(db, tmp_path)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 30
        db.close()

    def test_checkpoint_bytes_zero_disables(self, tmp_path):
        db = Database.open(tmp_path, checkpoint_bytes=0)
        db.execute("CREATE TABLE t (x TEXT)")
        for i in range(20):
            db.execute(f"INSERT INTO t VALUES ('{'q' * 300}')")
        assert db.wal.generation == 1
        db.close()

    def test_checkpoint_requires_durable_database(self):
        with pytest.raises(FlockError, match="durable"):
            Database().checkpoint()


# ----------------------------------------------------------------------
# Fault injection: poisoning and interrupted checkpoints
# ----------------------------------------------------------------------
class TestFaultPoisoning:
    def test_fsync_failure_poisons_until_reopen(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        faultpoints.set_fault("wal.pre_fsync", action="error")
        with pytest.raises(FaultInjected):
            db.execute("INSERT INTO t VALUES (2)")
        assert db.wal.poisoned
        # The failed commit rolled back; nothing new is acknowledged.
        with pytest.raises(DurabilityError, match="poisoned"):
            db.execute("INSERT INTO t VALUES (3)")
        faultpoints.clear()

        db = reopen(db, tmp_path)
        survivors = {r[0] for r in db.execute("SELECT x FROM t").rows()}
        assert 1 in survivors
        assert 3 not in survivors
        db.execute("INSERT INTO t VALUES (4)")  # healthy again
        db.close()

    def test_append_failure_during_ddl_poisons(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (x INT)")
        faultpoints.set_fault("wal.pre_fsync", action="error")
        with pytest.raises(FaultInjected):
            db.execute("CREATE TABLE u (y INT)")
        faultpoints.clear()
        with pytest.raises(DurabilityError):
            db.execute("INSERT INTO t VALUES (1)")
        db = reopen(db, tmp_path)
        db.execute("INSERT INTO t VALUES (1)")
        db.close()

    def test_mid_write_checkpoint_failure_is_harmless(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        faultpoints.set_fault("checkpoint.mid_write", action="error")
        with pytest.raises(FaultInjected):
            db.checkpoint()
        faultpoints.clear()
        # The failed snapshot never swapped in: the WAL is untouched and
        # the engine keeps committing.
        assert not db.wal.poisoned
        assert db.wal.generation == 1
        db.execute("INSERT INTO t VALUES (2)")
        db = reopen(db, tmp_path)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2
        assert not (tmp_path / "checkpoint.new").exists()
        db.close()

    def test_pre_swap_checkpoint_failure_is_harmless(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        faultpoints.set_fault("checkpoint.pre_swap", action="error")
        with pytest.raises(FaultInjected):
            db.checkpoint()
        faultpoints.clear()
        assert not db.wal.poisoned
        db.execute("INSERT INTO t VALUES (2)")
        db = reopen(db, tmp_path)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2
        db.close()

    def test_post_swap_checkpoint_failure_poisons(self, tmp_path):
        """Snapshot swapped in but the log still carries the old generation:
        acknowledging another commit would write into a log recovery must
        discard, so the WAL refuses everything until reopen."""
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        faultpoints.set_fault("checkpoint.post_swap", action="error")
        with pytest.raises(FaultInjected):
            db.checkpoint()
        faultpoints.clear()
        assert db.wal.poisoned
        with pytest.raises(DurabilityError):
            db.execute("INSERT INTO t VALUES (2)")

        db = reopen(db, tmp_path)
        report = db.wal.last_recovery
        assert report.tail_status == "stale_generation"
        assert report.generation == 2
        assert db.execute("SELECT x FROM t").rows() == [(1,)]
        db.execute("INSERT INTO t VALUES (2)")
        db = reopen(db, tmp_path)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2
        db.close()


# ----------------------------------------------------------------------
# Sync modes
# ----------------------------------------------------------------------
class TestSyncModes:
    @pytest.mark.parametrize("mode", ["commit", "group", "off"])
    def test_roundtrip_in_every_mode(self, tmp_path, mode):
        db = Database.open(tmp_path, sync_mode=mode, group_window_ms=0.0)
        db.execute("CREATE TABLE t (x INT)")
        for i in range(10):
            db.execute(f"INSERT INTO t VALUES ({i})")
        db = reopen(db, tmp_path)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 10
        db.close()

    def test_group_commit_concurrent_writers(self, tmp_path):
        import threading

        db = Database.open(tmp_path, sync_mode="group", group_window_ms=0.5)
        db.execute("CREATE TABLE t (x INT, worker INT)")
        errors: list[BaseException] = []

        def work(worker: int) -> None:
            try:
                for i in range(15):
                    db.execute(
                        f"INSERT INTO t VALUES ({i}, {worker})"
                    )
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        db = reopen(db, tmp_path)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 60
        db.close()

    def test_invalid_sync_mode_rejected(self, tmp_path):
        with pytest.raises(DurabilityError, match="sync mode"):
            Database.open(tmp_path, sync_mode="yolo")


# ----------------------------------------------------------------------
# Audit durability edges
# ----------------------------------------------------------------------
class TestAuditDurability:
    def test_trailing_read_audits_survive_clean_close(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("SELECT * FROM t")  # read-only: audits, no WAL commit
        db.execute("SELECT COUNT(*) FROM t")
        live = [(r.sequence, r.action) for r in db.audit.log]
        live_qlog = len(db.query_log)

        db = reopen(db, tmp_path)
        assert [(r.sequence, r.action) for r in db.audit.log] == live
        assert len(db.query_log) == live_qlog
        assert db.audit.log.verify_chain()
        db.close()


# ----------------------------------------------------------------------
# Legacy snapshots and misc
# ----------------------------------------------------------------------
class TestLegacyAndMisc:
    def test_flat_persist_snapshot_opens_durably(self, tmp_path):
        """A directory written by persist.save_database (the shell's .save)
        seeds a durable database."""
        from flock.db.persist import save_database

        mem = Database()
        mem.execute("CREATE TABLE t (x INT)")
        mem.execute("INSERT INTO t VALUES (7)")
        save_database(mem, tmp_path)

        db = Database.open(tmp_path)
        assert db.wal.last_recovery.checkpoint_loaded
        assert db.execute("SELECT x FROM t").rows() == [(7,)]
        db.execute("INSERT INTO t VALUES (8)")
        db = reopen(db, tmp_path)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2
        db.close()

    def test_open_is_idempotent_on_empty_dir(self, tmp_path):
        db = Database.open(tmp_path)
        db.close()
        db = Database.open(tmp_path)
        assert db.wal.last_recovery.tail_status in ("clean", "missing")
        db.close()

    def test_recovery_report_as_dict(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (x INT)")
        db = reopen(db, tmp_path)
        report = db.wal.last_recovery.as_dict()
        assert report["directory"] == str(tmp_path)
        assert report["tail_status"] == "clean"
        assert report["ddl_replayed"] == 1
        db.close()

    def test_double_close_is_safe(self, tmp_path):
        db = Database.open(tmp_path)
        db.execute("CREATE TABLE t (x INT)")
        db.close()
        db.close()


# ----------------------------------------------------------------------
# Column value conversion: the vector dumper against the per-value one
# ----------------------------------------------------------------------
def _reference_dump_values(vector):
    """The per-value dumper ``persist.dump_values`` replaced."""
    values = []
    physical = vector.values
    nulls = vector.nulls
    for i in range(len(vector)):
        if nulls[i]:
            values.append(None)
        else:
            value = physical[i]
            if isinstance(value, float) and not math.isfinite(value):
                values.append({"__float__": repr(float(value))})
            elif hasattr(value, "item"):
                values.append(value.item())
            else:
                values.append(value)
    return values


def _dump_cases():
    from flock.db.encoding import encode_vector
    from flock.db.types import DataType
    from flock.db.vector import ColumnVector

    floats = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), None,
              1.5, 2.0**63, 5e-324]
    cases = {
        "float": ColumnVector.from_values(DataType.FLOAT, floats * 5),
        "float_runs": ColumnVector.from_values(
            DataType.FLOAT, [-0.0] * 20 + [None] * 20 + [float("inf")] * 20
        ),
        "integer": ColumnVector.from_values(
            DataType.INTEGER, [0, -(2**63), 2**63 - 1, None, 7] * 10
        ),
        "date": ColumnVector.from_values(
            DataType.DATE, ["2024-02-29", None, "1969-12-31", "0001-01-01"]
            * 10
        ),
        "boolean": ColumnVector.from_values(
            DataType.BOOLEAN, [True, False, None] * 20
        ),
        "text": ColumnVector.from_values(
            DataType.TEXT, ["", "é", None, "north"] * 20
        ),
    }
    for name in list(cases):
        encoded = encode_vector(cases[name])
        if encoded is not cases[name]:
            cases[f"{name}_encoded"] = encoded
    # NULL slots holding garbage (as an UPDATE's vector may) dump as None.
    dirty = ColumnVector(
        DataType.FLOAT, np.array([1.0, float("nan"), 3.0]),
        np.array([False, True, True]),
    )
    cases["float_dirty_nulls"] = dirty
    return cases


@pytest.mark.parametrize("name", sorted(_dump_cases()))
def test_dump_values_matches_per_value_dumper(name):
    """Same JSON bytes: the WAL and checkpoint format is unchanged."""
    import json

    from flock.db.persist import dump_values

    vector = _dump_cases()[name]
    assert json.dumps(dump_values(vector)) == json.dumps(
        _reference_dump_values(vector)
    )


def test_dump_cases_cover_every_encoding():
    from flock.db.encoding import (
        BitPackedVector,
        DictionaryVector,
        RunLengthVector,
    )

    kinds = {type(v) for v in _dump_cases().values()}
    assert {DictionaryVector, RunLengthVector, BitPackedVector} <= kinds
