"""An interactive SQL shell over a Flock deployment.

Run ``python -m flock`` for a REPL, optionally with ``--demo loans`` to
preload a dataset and a deployed model, ``--load <dir>`` to restore a
snapshot, or ``--data-dir <dir>`` to open a durable database (write-ahead
logged, crash-recovered on open). ``python -m flock stats`` runs queries
non-interactively and reports the observability counters and the last
statement's trace. ``python -m flock serve`` runs statements through the
concurrent serving layer (:mod:`flock.serving`) and reports its stats.
``python -m flock recover <dir>`` recovers a durable directory and
reports what the write-ahead log replayed. Inside the shell, SQL
statements execute directly; dot-commands manage the session:

    .help             this text
    .tables           list tables
    .views            list views
    .models           list deployed models
    .user NAME        switch the active user
    .audit [N]        show the last N audit records
    .stats [PREFIX]   show process metrics (optionally name-filtered)
    .trace            show the last statement's span tree
    .log [N]          show the last N query-log entries with timings
    .save DIR         snapshot the database to DIR
    .checkpoint       checkpoint a durable database (truncates its WAL)
    .quit             exit
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from flock.errors import FlockError


@dataclass
class ShellState:
    """Everything the REPL needs between commands."""

    database: object
    registry: object
    user: str = "admin"
    done: bool = False
    connections: dict[str, object] = field(default_factory=dict)

    def connection(self):
        if self.user not in self.connections:
            self.connections[self.user] = self.database.connect(self.user)
        return self.connections[self.user]


def format_result(result) -> str:
    """Render a QueryResult as an aligned text table."""
    if result.batch is None:
        if result.statement_type in ("INSERT", "UPDATE", "DELETE"):
            return f"{result.statement_type}: {result.affected_rows} row(s)"
        return f"{result.statement_type} ok"
    names = result.column_names
    rows = [
        tuple("NULL" if v is None else str(v) for v in row)
        for row in result.rows()
    ]
    widths = [
        max(len(n), *(len(r[i]) for r in rows)) if rows else len(n)
        for i, n in enumerate(names)
    ]
    header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
    separator = "-+-".join("-" * w for w in widths)
    body = [
        " | ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows
    ]
    footer = f"({len(rows)} row{'s' if len(rows) != 1 else ''})"
    return "\n".join([header, separator, *body, footer])


def execute_line(state: ShellState, line: str) -> str:
    """One REPL interaction: a dot-command or a SQL statement."""
    line = line.strip()
    if not line:
        return ""
    if line.startswith("."):
        return _dot_command(state, line)
    try:
        result = state.connection().execute(line)
    except FlockError as exc:
        return f"error: {exc}"
    return format_result(result)


def _dot_command(state: ShellState, line: str) -> str:
    parts = line.split()
    command, args = parts[0], parts[1:]
    if command in (".quit", ".exit"):
        state.done = True
        return "bye"
    if command == ".help":
        return (__doc__ or "").strip()
    if command == ".tables":
        return "\n".join(state.database.catalog.table_names()) or "(none)"
    if command == ".views":
        return "\n".join(state.database.catalog.view_names()) or "(none)"
    if command == ".models":
        names = state.registry.model_names()
        if not names:
            return "(none)"
        lines = []
        for name in names:
            latest = state.registry.latest(name)
            lines.append(
                f"{name} v{latest.version} "
                f"({latest.graph.node_count()} operators)"
            )
        return "\n".join(lines)
    if command == ".user":
        if not args:
            return f"current user: {state.user}"
        try:
            state.database.connect(args[0])
        except FlockError as exc:
            return f"error: {exc}"
        state.user = args[0]
        return f"now acting as {state.user}"
    if command == ".audit":
        limit = int(args[0]) if args else 10
        records = list(state.database.audit.log)[-limit:]
        return "\n".join(
            f"#{r.sequence} {r.user} {r.action} {r.object_name}"
            for r in records
        ) or "(empty)"
    if command == ".stats":
        from flock import observability

        prefix = args[0] if args else ""
        return observability.render_metrics(
            observability.metrics().snapshot(prefix)
        )
    if command == ".trace":
        from flock import observability

        return observability.render_span_tree(state.database.last_trace)
    if command == ".log":
        limit = int(args[0]) if args else 10
        entries = state.database.query_log[-limit:]
        return "\n".join(
            f"{e.statement_type:<12} {e.duration_ms:8.3f}ms "
            f"{'ok' if e.success else 'ERR'}  {e.sql[:60]}"
            for e in entries
        ) or "(empty)"
    if command == ".save":
        if not args:
            return "usage: .save DIR"
        from flock.db.persist import save_database

        save_database(state.database, args[0])
        return f"saved to {args[0]}"
    if command == ".checkpoint":
        if state.database.wal is None:
            return "error: not a durable database (start with --data-dir)"
        try:
            state.database.checkpoint()
        except FlockError as exc:
            return f"error: {exc}"
        return f"checkpointed {state.database.wal.directory}"
    return f"unknown command {command} (try .help)"


def _load_demo(state: ShellState, name: str) -> str:
    from flock.ml import LogisticRegression, Pipeline, StandardScaler
    from flock.ml.datasets import (
        load_dataset_into,
        make_bigdata_jobs,
        make_loans,
        make_patients,
    )
    from flock.mlgraph import to_graph

    makers = {
        "loans": (make_loans, "approved"),
        "patients": (make_patients, "readmitted"),
        "jobs": (make_bigdata_jobs, None),
    }
    if name not in makers:
        raise FlockError(
            f"unknown demo {name!r}; choose from {sorted(makers)}"
        )
    maker, target = makers[name]
    dataset = maker(400)
    load_dataset_into(state.database, dataset)
    message = f"loaded table {dataset.name!r} ({dataset.n_rows} rows)"
    if target is not None:
        pipeline = Pipeline(
            [("s", StandardScaler()),
             ("m", LogisticRegression(max_iter=200))]
        ).fit(dataset.feature_matrix(), dataset.target_vector())
        model_name = f"{dataset.name}_model"
        state.registry.deploy(
            model_name,
            to_graph(pipeline, dataset.feature_names, name=model_name),
        )
        message += f"; deployed model {model_name!r} — try: " \
                   f"SELECT PREDICT({model_name}) FROM {dataset.name} LIMIT 5"
    return message


def make_state(
    load: str | None = None,
    demo: str | None = None,
    data_dir: str | None = None,
) -> ShellState:
    """Build a shell state (used by main() and by tests).

    Routed through :func:`flock.connect`, the unified entry point: a bare
    state is an embedded in-memory client, ``data_dir`` an embedded
    durable one. ``load`` restores a plain snapshot directory (no WAL),
    which stays on the persist loader.
    """
    import flock

    if data_dir:
        client = flock.connect(data_dir)
        database, registry = client.db, client.registry
    elif load:
        from flock.db.persist import load_database
        from flock.inference.predict import DefaultScorer
        from flock.registry import ModelRegistry

        registry = ModelRegistry()
        database = load_database(load, model_store=registry,
                                 scorer=DefaultScorer())
        registry.bind_database(database)
        registry.load_from_database(database)
    else:
        client = flock.connect()
        database, registry = client.db, client.registry
    state = ShellState(database=database, registry=registry)
    if demo:
        print(_load_demo(state, demo))
    return state


def stats_main(argv: list[str]) -> int:
    """``flock stats``: run queries non-interactively, report observability.

    Executes each ``--query`` against a fresh (or restored/demo) database,
    then prints the process metrics snapshot and the last statement's span
    tree — the CI-friendly way to eyeball where SQL×ML time goes.
    """
    from flock import observability

    parser = argparse.ArgumentParser(
        prog="flock stats",
        description="Run queries and report flock observability metrics",
    )
    parser.add_argument("--load", help="restore a database snapshot directory")
    parser.add_argument(
        "--demo", help="preload a demo dataset+model (loans/patients/jobs)"
    )
    parser.add_argument(
        "--query", action="append", default=[],
        help="SQL to execute before reporting (repeatable)",
    )
    parser.add_argument(
        "--prefix", default="",
        help="only report metrics whose name starts with PREFIX",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of text tables",
    )
    args = parser.parse_args(argv)

    try:
        state = make_state(load=args.load, demo=args.demo)
        connection = state.connection()
        for sql in args.query:
            connection.execute(sql)
    except FlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    snapshot = observability.metrics().snapshot(args.prefix)
    trace = state.database.last_trace
    if args.json:
        import json

        print(json.dumps(
            {
                "metrics": snapshot,
                "last_trace": trace.to_dict() if trace is not None else None,
            },
            indent=2,
            default=str,
        ))
    else:
        print(observability.render_metrics(snapshot))
        if trace is not None:
            print("\nlast statement trace:")
            print(observability.render_span_tree(trace))
    return 0


def serve_main(argv: list[str]) -> int:
    """``flock serve``: a serving shell over a FlockServer.

    SQL statements read from stdin (one per line) execute through the
    concurrent serving layer — plan cache, micro-batching, admission
    control — instead of directly against the engine. ``--query`` runs
    statements non-interactively; exit reports the serving stats. With
    ``--replicas N`` (requires ``--data-dir``) the statements route
    through a :class:`~flock.cluster.FlockCluster`: reads fan out across
    N follower replicas, writes go to the primary. With ``--shards N``
    (also requires ``--data-dir``) they route through a
    :class:`~flock.shard.ShardedCluster` instead: keyed tables
    hash-partitioned across N engines, point statements pinned to one
    shard, everything else scatter-gathered. The two compose —
    ``--shards 4 --replicas 2`` gives every shard its own read tier.
    """
    import flock

    parser = argparse.ArgumentParser(
        prog="flock serve",
        description="Serve SQL/PREDICT statements through flock.serving",
    )
    parser.add_argument("--load", help="restore a database snapshot directory")
    parser.add_argument(
        "--data-dir",
        help="open a durable (WAL + checkpoint) database directory",
    )
    parser.add_argument(
        "--demo", help="preload a demo dataset+model (loans/patients/jobs)"
    )
    parser.add_argument(
        "--query", action="append", default=[],
        help="SQL to execute through the server (repeatable); skips the shell",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--batch-wait-ms", type=float, default=1.0)
    parser.add_argument("--max-pending", type=int, default=256)
    parser.add_argument("--user", default="admin")
    parser.add_argument(
        "--replicas", type=int, default=0,
        help="serve reads from N follower replicas over WAL shipping "
        "(requires --data-dir)",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="hash-partition keyed tables across N shard engines "
        "(requires --data-dir; composes with --replicas)",
    )
    parser.add_argument(
        "--max-staleness", type=int, default=None,
        help="max replicated records a follower may lag before the router "
        "skips it (default: unbounded)",
    )
    parser.add_argument(
        "--process", dest="process", action="store_true", default=None,
        help="host each shard engine / follower replica in its own worker "
        "process (flock.proc); default follows FLOCK_PROC",
    )
    parser.add_argument(
        "--no-process", dest="process", action="store_false",
        help="force the in-process thread backend",
    )
    args = parser.parse_args(argv)

    if (args.replicas or args.shards) and not args.data_dir:
        print(
            "error: --replicas/--shards need --data-dir (WAL shipping and "
            "shard partitions both start from durable directories)",
            file=sys.stderr,
        )
        return 1

    clustered = bool(args.replicas or args.shards)
    try:
        if args.shards:
            client = flock.connect(
                args.data_dir,
                shards=args.shards,
                replicas=args.replicas,
                max_staleness=args.max_staleness,
                process=args.process,
                user=args.user,
            )
            if args.demo:
                # Load through the *router*, not the coordinator engine:
                # the scatter path is what actually lands rows on shards.
                state = ShellState(
                    database=client.cluster, registry=client.registry
                )
                print(_load_demo(state, args.demo))
                if args.replicas:
                    client.cluster.wait_for_catchup()
        elif args.replicas:
            client = flock.connect(
                args.data_dir,
                replicas=args.replicas,
                max_staleness=args.max_staleness,
                workers=args.workers,
                max_batch_size=args.max_batch_size,
                batch_wait_ms=args.batch_wait_ms,
                max_pending=args.max_pending,
                process=args.process,
                user=args.user,
            )
            if args.demo:
                # Load through the primary; followers catch up over the
                # replication stream before the first routed read.
                state = ShellState(
                    database=client.db, registry=client.registry
                )
                print(_load_demo(state, args.demo))
                client.cluster.wait_for_catchup()
        else:
            state = make_state(
                load=args.load, demo=args.demo, data_dir=args.data_dir
            )
    except FlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not clustered:
        from flock.serving import FlockServer

        server = FlockServer(
            state.database,
            workers=args.workers,
            max_batch_size=args.max_batch_size,
            batch_wait_ms=args.batch_wait_ms,
            max_pending=args.max_pending,
        )
        execute = server.connect(args.user).execute
    else:
        execute = client.execute

    status = 0
    try:
        if args.query:
            for sql in args.query:
                try:
                    print(format_result(execute(sql)))
                except FlockError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    status = 1
        else:
            if args.shards:
                mode = f"{args.shards} shard(s)"
                if args.replicas:
                    mode += f" x {args.replicas} replica(s)"
            elif args.replicas:
                mode = f"{args.replicas} replica(s)"
            else:
                mode = f"{args.workers} workers"
            print(
                f"flock serving shell — {mode}, SQL per line, ^D to exit"
            )
            while True:
                try:
                    line = input(f"{args.user}(serve)> ")
                except (EOFError, KeyboardInterrupt):
                    print()
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    print(format_result(execute(line)))
                except FlockError as exc:
                    print(f"error: {exc}")
    finally:
        if clustered:
            stats = client.stats()
            client.close()
        else:
            server.shutdown()
            stats = server.stats()

    if args.shards:
        routes = stats["routes"]
        gather = stats["gather"]
        rows = sum(
            sum(shard["rows"].values()) for shard in stats["per_shard"]
        )
        print(
            f"routed {routes['single']} single-shard + "
            f"{routes['scatter']} scattered + {routes['broadcast']} "
            f"broadcast + {routes['ddl']} DDL statement(s) across "
            f"{stats['shards']} shard(s); {rows} shard row(s); scattered "
            f"reads shipped {gather['tables_shipped']} table(s) and "
            f"reused {gather['tables_reused']} cached"
        )
    elif args.replicas:
        primary = stats["primary"]
        print(
            f"served {primary['served']} primary + "
            f"{stats['follower_served']} follower statement(s) across "
            f"{len(stats['followers'])} replica(s); replication lsn "
            f"{stats['replication_lsn']}, max lag "
            f"{max((f['lag'] for f in stats['followers']), default=0)}"
        )
    else:
        print(
            f"served {stats['served']} statement(s); plan cache hit rate "
            f"{stats['plan_cache_hit_rate'] * 100:.1f}%; "
            f"{stats['batched_requests']} coalesced into "
            f"{stats['batches']} batch(es)"
        )
    return status


def recover_main(argv: list[str]) -> int:
    """``flock recover``: open a durable directory and report the recovery.

    Recovery itself happens inside :func:`flock.open_session` — this
    command exists to run it explicitly (e.g. after a crash, before
    restarting serving) and to inspect what the write-ahead log held:
    commits replayed, audit records restored, and whether a torn or
    corrupt tail was discarded.
    """
    from flock import open_session

    parser = argparse.ArgumentParser(
        prog="flock recover",
        description="Recover a durable flock database directory",
    )
    parser.add_argument("dir", help="the database directory (WAL + checkpoint)")
    parser.add_argument(
        "--checkpoint", action="store_true",
        help="write a fresh checkpoint after recovery (truncates the WAL)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the recovery report as machine-readable JSON",
    )
    args = parser.parse_args(argv)

    try:
        session = open_session(args.dir)
    except FlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    database = session.db
    report = database.wal.last_recovery
    if args.checkpoint:
        database.checkpoint()
    if args.json:
        import json

        payload = report.as_dict()
        payload["tables"] = {
            name: database.catalog.table(name).row_count
            for name in database.catalog.table_names()
        }
        payload["checkpointed"] = args.checkpoint
        print(json.dumps(payload, indent=2))
    else:
        print(f"recovered {args.dir}")
        print(
            f"  checkpoint: "
            f"{'loaded' if report.checkpoint_loaded else 'none'} "
            f"(generation {report.generation})"
        )
        print(
            f"  wal: {report.records_scanned} record(s) scanned, "
            f"{report.commits_replayed} commit(s) and "
            f"{report.ddl_replayed} DDL replayed in "
            f"{report.replay_ms:.1f} ms"
        )
        print(
            f"  tail: {report.tail_status}"
            + (
                f" ({report.discarded_bytes} byte(s) discarded)"
                if report.discarded_bytes
                else ""
            )
        )
        print(f"  audit: {report.audit_records_restored} record(s) restored")
        for name in database.catalog.table_names():
            rows = database.catalog.table(name).row_count
            print(f"  table {name}: {rows} row(s)")
        if args.checkpoint:
            print("  checkpointed; WAL truncated")
    database.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "stats":
        return stats_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "recover":
        return recover_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="flock", description="Flock interactive SQL shell"
    )
    parser.add_argument("--load", help="restore a database snapshot directory")
    parser.add_argument(
        "--data-dir",
        help="open a durable (WAL + checkpoint) database directory",
    )
    parser.add_argument(
        "--demo", help="preload a demo dataset+model (loans/patients/jobs)"
    )
    args = parser.parse_args(argv)

    try:
        state = make_state(
            load=args.load, demo=args.demo, data_dir=args.data_dir
        )
    except FlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("flock shell — .help for commands, .quit to exit")
    while not state.done:
        try:
            line = input(f"{state.user}> ")
        except (EOFError, KeyboardInterrupt):
            print()
            break
        output = execute_line(state, line)
        if output:
            print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
