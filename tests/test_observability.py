"""Operator-level observability: metrics, spans, EXPLAIN ANALYZE, and the
parameterized execute() API."""

from __future__ import annotations

import pytest

from flock import FlockSession, create_database, observability
from flock.db import Database
from flock.errors import BindError, TypeMismatchError
from flock.inference import CrossOptimizer
from flock.observability import (
    Histogram,
    MetricsRegistry,
    get_tracer,
    metrics,
    render_metrics,
    render_span_tree,
    set_enabled,
)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2.5)
        registry.gauge("g").set(7)
        registry.gauge("g").dec(2)
        snap = registry.snapshot()
        assert snap["c"] == {"type": "counter", "value": 3.5}
        assert snap["g"] == {"type": "gauge", "value": 5.0}

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_histogram_percentiles(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["min"] == 1.0 and snap["max"] == 100.0
        assert snap["mean"] == pytest.approx(50.5)
        assert snap["p50"] == pytest.approx(50.5)
        assert snap["p95"] == pytest.approx(95.05)
        assert snap["p99"] == pytest.approx(99.01)

    def test_histogram_window_bounds_percentiles(self):
        h = Histogram("h", window=10)
        for v in range(1, 101):
            h.observe(v)
        # Lifetime totals are exact; percentiles cover the last 10 samples
        # (91..100).
        assert h.count == 100
        assert h.percentile(0.0) == 91.0
        assert h.percentile(1.0) == 100.0
        assert h.percentile(0.5) == pytest.approx(95.5)

    def test_histogram_empty_snapshot(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["p99"] == 0.0

    def test_snapshot_prefix_filter_and_names(self):
        registry = MetricsRegistry()
        registry.counter("db.statements").inc()
        registry.counter("exec.operators").inc()
        assert set(registry.snapshot("db.")) == {"db.statements"}
        assert registry.names() == ["db.statements", "exec.operators"]

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.snapshot() == {}

    def test_global_registry_is_shared(self):
        assert metrics() is metrics()

    def test_render_metrics_text(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(2)
        registry.histogram("h").observe(1.0)
        text = render_metrics(registry.snapshot())
        assert "value=2" in text
        assert "p95" in text


# ----------------------------------------------------------------------
# Trace spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting(self):
        tracer = get_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", {"k": 1}) as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None
        assert tracer.last_root is outer
        assert outer.children == [inner]
        assert inner.attributes == {"k": 1}
        assert outer.duration_ns >= inner.duration_ns

    def test_exception_safety(self):
        tracer = get_tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        root = tracer.last_root
        assert root.name == "outer"
        assert root.status == "error"
        assert root.children[0].status == "error"
        assert "ValueError: boom" in root.children[0].error
        # The contextvar unwound cleanly despite the raise.
        assert tracer.current() is None

    def test_find_and_walk(self):
        tracer = get_tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        root = tracer.last_root
        assert root.find("c").name == "c"
        assert root.find("nope") is None
        assert [s.name for s in root.walk()] == ["a", "b", "c"]

    def test_to_dict_and_render(self):
        tracer = get_tracer()
        with tracer.span("root", {"rows": 3}):
            with tracer.span("child"):
                pass
        payload = tracer.last_root.to_dict()
        assert payload["name"] == "root"
        assert payload["attributes"] == {"rows": 3}
        assert payload["children"][0]["name"] == "child"
        text = render_span_tree(tracer.last_root)
        assert "root" in text and "child" in text and "ms" in text
        assert render_span_tree(None) == "(no trace recorded)"

    def test_disabled_tracing_is_inert(self):
        tracer = get_tracer()
        with tracer.span("sentinel"):
            pass
        sentinel = tracer.last_root
        set_enabled(False)
        try:
            with tracer.span("invisible") as span:
                span.set_attribute("k", "v")
            assert span.attributes == {}
            assert tracer.last_root is sentinel  # no new root recorded
        finally:
            set_enabled(True)


# ----------------------------------------------------------------------
# Engine integration: statement spans, metrics, query log
# ----------------------------------------------------------------------
class TestEngineObservability:
    def test_statement_metrics_recorded(self, emp_db):
        before = metrics().counter("db.statements").value
        emp_db.execute("SELECT COUNT(*) FROM emp")
        after = metrics().snapshot("db.")
        assert after["db.statements"]["value"] == before + 1
        assert after["db.statement_ms"]["count"] >= 1

    def test_statement_trace_recorded(self, emp_db):
        emp_db.execute("SELECT name FROM emp WHERE salary > 80")
        trace = emp_db.last_trace
        assert trace is not None and trace.name == "db.statement"
        assert trace.attributes["statement"] == "SELECT"
        assert trace.find("exec.ScanNode") is not None
        assert trace.find("db.bind") is not None
        scan = trace.find("exec.ScanNode")
        assert scan.attributes["rows_out"] == 5

    def test_recent_traces_ring(self, emp_db):
        for _ in range(3):
            emp_db.execute("SELECT COUNT(*) FROM emp")
        assert len(emp_db.recent_traces) >= 3
        assert emp_db.recent_traces[-1] is emp_db.last_trace

    def test_query_log_has_durations(self, emp_db):
        emp_db.execute("SELECT COUNT(*) FROM emp")
        entry = emp_db.query_log[-1]
        assert entry.duration_ms > 0.0

    def test_failed_statement_still_logged_once(self, emp_db):
        log_before = len(emp_db.query_log)
        errors_before = metrics().counter("db.statement_errors").value
        with pytest.raises(BindError):
            emp_db.execute("SELECT nope FROM emp")
        assert len(emp_db.query_log) == log_before + 1
        assert not emp_db.query_log[-1].success
        assert metrics().counter("db.statement_errors").value == \
            errors_before + 1

    def test_result_stats_populated(self, emp_db):
        result = emp_db.execute("SELECT name FROM emp")
        assert result.stats is not None
        assert result.stats.statement_type == "SELECT"
        assert result.stats.rows == 5
        assert result.stats.wall_ms > 0.0
        assert "5 rows" in str(result.stats)

    def test_scoring_spans_and_metrics(self, loan_setup):
        database, *_ = loan_setup
        # Force a real Predict operator (inlining would erase it).
        database.cross_optimizer.enable_inlining = False
        batches_before = metrics().counter("predict.batches").value
        database.execute("SELECT PREDICT(loan_model) FROM loans")
        trace = database.last_trace
        assert trace.find("predict.score") is not None
        assert trace.find("mlgraph.run") is not None
        assert trace.find("xopt.apply") is not None
        assert metrics().counter("predict.batches").value > batches_before


# ----------------------------------------------------------------------
# QueryResult consumer surface
# ----------------------------------------------------------------------
class TestQueryResultSurface:
    def test_len_rows_scalar_to_dict(self, emp_db):
        result = emp_db.execute(
            "SELECT name, salary FROM emp WHERE dept = 'eng' ORDER BY name"
        )
        assert len(result) == 2
        assert result.rows() == [("ann", 100.0), ("bob", 90.0)]
        assert result.to_dict() == {
            "name": ["ann", "bob"],
            "salary": [100.0, 90.0],
        }
        assert result.to_dicts()[0] == {"name": "ann", "salary": 100.0}
        scalar = emp_db.execute("SELECT COUNT(*) FROM emp").scalar()
        assert scalar == 5

    def test_len_of_dml_result(self, emp_db):
        result = emp_db.execute("DELETE FROM emp WHERE dept = 'hr'")
        assert result.affected_rows == 2
        assert len(result) == 2  # row_count mirrors affected_rows for DML
        assert result.rows() == []  # but there is no result batch


# ----------------------------------------------------------------------
# Parameter binding
# ----------------------------------------------------------------------
class TestParameterBinding:
    def test_select_params(self, emp_db):
        result = emp_db.execute(
            "SELECT name FROM emp WHERE salary > ? AND dept = ?",
            [80, "eng"],
        )
        assert sorted(r[0] for r in result.rows()) == ["ann", "bob"]

    def test_insert_update_delete_params(self, emp_db):
        emp_db.execute(
            "INSERT INTO emp VALUES (?, ?, ?, ?, ?)",
            [6, "fred", "eng", 95.0, "2023-04-01"],
        )
        assert emp_db.execute(
            "SELECT COUNT(*) FROM emp WHERE name = ?", ["fred"]
        ).scalar() == 1
        emp_db.execute(
            "UPDATE emp SET salary = ? WHERE name = ?", [97.5, "fred"]
        )
        assert emp_db.execute(
            "SELECT salary FROM emp WHERE name = ?", ["fred"]
        ).scalar() == 97.5
        result = emp_db.execute("DELETE FROM emp WHERE name = ?", ["fred"])
        assert result.affected_rows == 1

    def test_null_parameter(self, emp_db):
        result = emp_db.execute(
            "SELECT name FROM emp WHERE salary IS NULL AND ? IS NULL",
            [None],
        )
        assert result.rows() == [("dee",)]

    def test_missing_params_rejected(self, emp_db):
        with pytest.raises(BindError, match="no parameters"):
            emp_db.execute("SELECT name FROM emp WHERE salary > ?")

    def test_count_mismatch_rejected(self, emp_db):
        with pytest.raises(BindError, match="placeholder"):
            emp_db.execute(
                "SELECT name FROM emp WHERE salary > ?", [80, "extra"]
            )
        with pytest.raises(BindError, match="placeholder"):
            emp_db.execute("SELECT name FROM emp", [1])

    def test_type_mismatch_error(self, emp_db):
        with pytest.raises(TypeMismatchError, match="parameter 1"):
            emp_db.execute(
                "SELECT name FROM emp WHERE salary > ?", [[1, 2, 3]]
            )

    def test_params_not_interpolated(self, emp_db):
        # A classic injection payload stays an inert string value.
        result = emp_db.execute(
            "SELECT name FROM emp WHERE name = ?",
            ["x' OR '1'='1"],
        )
        assert result.rows() == []


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE
# ----------------------------------------------------------------------
class TestExplainAnalyze:
    def test_plain_explain_unchanged(self, emp_db):
        text = emp_db.explain("SELECT name FROM emp WHERE salary > 80")
        assert "Scan(emp" in text
        assert "rows=" not in text

    def test_analyze_annotates_rows_and_time(self, emp_db):
        result = emp_db.execute(
            "EXPLAIN ANALYZE SELECT name FROM emp WHERE salary > ?", [80]
        )
        text = "\n".join(row[0] for row in result.rows())
        assert "rows=" in text and "time=" in text
        scan_line = next(l for l in text.splitlines() if "Scan(emp" in l)
        assert "rows=5" in scan_line
        filter_line = next(l for l in text.splitlines() if "Filter" in l)
        assert "rows=3" in filter_line and "rows_in=5" in filter_line
        assert "Execution:" in text

    def test_explain_analyze_helper(self, emp_db):
        text = emp_db.explain_analyze("SELECT COUNT(*) FROM emp")
        assert "rows=1" in text  # the aggregate output
        assert "time=" in text

    def test_analyze_on_predict_join(self, loan_setup):
        database, *_ = loan_setup
        database.cross_optimizer.enable_inlining = False
        database.execute("CREATE TABLE region_caps (region TEXT, cap FLOAT)")
        database.execute(
            "INSERT INTO region_caps VALUES (?, ?), (?, ?), (?, ?), (?, ?)",
            ["north", 1.0, "south", 2.0, "east", 3.0, "west", 4.0],
        )
        text = database.explain_analyze(
            "SELECT c.cap, PREDICT(loan_model) FROM loans l "
            "JOIN region_caps c ON l.region = c.region"
        )
        predict_line = next(
            l for l in text.splitlines() if "Predict(" in l
        )
        # Every loan matches exactly one region: 200 rows flow through the
        # Predict operator, which also reports its own time.
        assert "rows=200" in predict_line
        assert "time=" in predict_line
        join_line = next(l for l in text.splitlines() if "Join" in l)
        assert "rows=200" in join_line

    def test_analyze_leaves_audit_trail(self, emp_db):
        before = len(emp_db.audit.log.records(action="SELECT"))
        emp_db.execute("EXPLAIN ANALYZE SELECT name FROM emp")
        assert len(emp_db.audit.log.records(action="SELECT")) == before + 1

    def test_plain_explain_does_not_execute(self, emp_db):
        before = len(emp_db.audit.log.records(action="SELECT"))
        emp_db.execute("EXPLAIN SELECT name FROM emp")
        assert len(emp_db.audit.log.records(action="SELECT")) == before

    def test_explain_rejects_dml(self, emp_db):
        with pytest.raises(BindError):
            emp_db.explain("DELETE FROM emp", analyze=True)


# ----------------------------------------------------------------------
# FlockSession handles
# ----------------------------------------------------------------------
class TestFlockSessionHandles:
    def test_create_database_returns_session(self):
        session = create_database()
        assert isinstance(session, FlockSession)
        assert isinstance(session.db, Database)
        assert session.database is session.db
        assert session.cross_optimizer is session.db.cross_optimizer
        assert session.registry is session.db.model_store

    def test_tuple_unpacking_still_works(self):
        database, registry = create_database()
        assert isinstance(database, Database)
        assert registry is database.model_store

    def test_custom_cross_optimizer_carried(self):
        co = CrossOptimizer(enable_inlining=False)
        session = create_database(co)
        assert session.cross_optimizer is co


# ----------------------------------------------------------------------
# flock stats CLI
# ----------------------------------------------------------------------
class TestStatsCli:
    def test_stats_subcommand(self, capsys):
        from flock.cli import main

        code = main([
            "stats",
            "--query", "CREATE TABLE t (a INT)",
            "--query", "INSERT INTO t VALUES (1), (2), (3)",
            "--query", "SELECT COUNT(*) FROM t",
            "--prefix", "db.",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "db.statements" in out
        assert "last statement trace:" in out
        assert "db.statement" in out

    def test_stats_json(self, capsys):
        import json

        from flock.cli import main

        code = main(["stats", "--query", "CREATE TABLE t (a INT)", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" in payload
        assert payload["last_trace"]["name"] == "db.statement"

    def test_shell_stats_and_trace_commands(self):
        from flock.cli import ShellState, execute_line, make_state

        state = make_state()
        execute_line(state, "CREATE TABLE t (a INT)")
        execute_line(state, "INSERT INTO t VALUES (1)")
        assert "db.statements" in execute_line(state, ".stats db.")
        assert "db.statement" in execute_line(state, ".trace")
        assert "INSERT" in execute_line(state, ".log 5")
