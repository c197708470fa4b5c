"""The op table that hosts every shard and follower, and its worker child.

``_build(config)`` stands up one engine stack, chosen by
``config["role"]``, and ``_dispatch(state, op, msg)`` is the only place a
shard or follower operation is implemented:

- ``shard`` — a durable engine over one shard directory (or, when the
  shard composes with replicas, a full :class:`~flock.cluster.FlockCluster`),
  serving routed statements, scatter ``executemany`` batches, head-version
  snapshots (shipped only where the caller's stamp is stale) and the
  ``catalog_summary`` a sharded router's bring-up reads;
- ``replica`` — a follower stack booted from the primary's snapshot
  directory, applying the WAL records its parent-side forwarder ships as
  ``apply`` ops and serving reads through a read-only server.

Two transports reach the table (see :mod:`flock.proc.supervisor`): an
:class:`~flock.proc.supervisor.InProcessHandle` calls ``_dispatch``
directly, and a :class:`~flock.proc.supervisor.WorkerHandle` runs this
module as ``python -m flock.proc.worker --fd N --config JSON``.

The child's loop is strictly request/response over the inherited socket:
receive one framed message, execute, send one ``("ok", value)`` or
``("err", pickled-exception)`` frame. Results are scrubbed before the wire
(span traces are process-local); exceptions are pickle-round-tripped so a
non-portable one degrades to a :class:`~flock.errors.FlockError` carrying
the original type name instead of poisoning the stream.

EOF from the parent means the supervisor died or dropped us: the worker
``os._exit(0)``s immediately *without* closing the engine — a final
checkpoint racing a parent that may already be re-opening (or verifying
crash recovery on) the same directory is exactly the torn state the WAL
protocol exists to avoid. A graceful stop is always an explicit ``close``
op. Faultpoints load lazily from ``FLOCK_FAULTPOINTS`` in *this* process,
so crash tests arm points inside workers via the environment or the
``set_fault`` op — including ``action="crash"`` hard kills mid-commit.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import socket
import sys

from flock.db.wal import apply_record
from flock.observability import get_tracer
from flock.proc.framing import dump_message, recv_message, send_frame


def _scrub(result):
    """Make a QueryResult wire-safe: span traces reference process-local
    tracer state and never survive the boundary."""
    stats = getattr(result, "stats", None)
    if stats is not None:
        stats.trace = None
    return result


def _wire_exc(exc: BaseException) -> BaseException:
    """An exception safe to ship: itself if it pickle-round-trips, else a
    FlockError preserving the type name and message. Round-tripping here
    (not just dumping) catches classes whose reconstruction fails."""
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
        return exc
    except Exception:
        from flock.errors import FlockError

        return FlockError(f"{type(exc).__name__}: {exc}")


class _State:
    """What one handle hosts; any slot may be None depending on role."""

    def __init__(self, role: str, name: str):
        self.role = role
        self.name = name
        self.db = None
        self.registry = None
        self.server = None
        self.cluster = None


def _build(config: dict) -> _State:
    state = _State(config["role"], config.get("name", config["role"]))
    if state.role == "shard":
        path = config["path"]
        open_kwargs = config["open_kwargs"]
        if config.get("replicas"):
            from flock.cluster import FlockCluster

            state.cluster = FlockCluster(
                path,
                replicas=config["replicas"],
                max_staleness=config.get("max_staleness"),
                process=False,  # one process tier is enough; no nesting
                **open_kwargs,
            )
            state.db = state.cluster.database
            state.registry = state.cluster.registry
            state.server = state.cluster.primary
        else:
            from flock.client import durable_session

            session = durable_session(path, None, **open_kwargs)
            state.db = session.db
            state.registry = session.registry
    elif state.role == "replica":
        _build_follower(state, config)
    else:
        raise ValueError(f"unknown worker role {config['role']!r}")
    return state


def _build_follower(state: _State, config: dict) -> None:
    """A follower's engine + registry + read-only server from the
    primary's snapshot directory.

    ``cross_optimizer`` is a live object, so only an in-process config
    carries one; followers must plan with the same rules as the primary.
    """
    from flock.db.optimizer.rules import Optimizer
    from flock.db.persist import load_database
    from flock.inference.optimizer import CrossOptimizer
    from flock.inference.predict import DefaultScorer
    from flock.registry import ModelRegistry
    from flock.serving.server import FlockServer

    cross = config.get("cross_optimizer") or CrossOptimizer()
    registry = ModelRegistry()
    database = load_database(
        config["path"],
        model_store=registry,
        scorer=DefaultScorer(),
        optimizer=Optimizer(extra_rules=cross.rules()),
    )
    database.cross_optimizer = cross
    registry.bind_database(database)
    registry.load_from_database(database)
    state.db = database
    state.registry = registry
    state.server = FlockServer(
        database,
        workers=config.get("replica_workers", 1),
        read_only=True,
        **(config.get("server_kwargs") or {}),
    )


#: Replicated payload keys a follower must not apply: it serves reads, and
#: its *local* read audits interleaving with restored primary audits would
#: break the hash chain. On promotion the authoritative trail is recovered
#: from the durable directory, not from a follower.
_STRIPPED_KEYS = ("audit", "qlog")


def _apply_replicated(state: _State, record: dict) -> None:
    """Apply one committed primary WAL record to this follower's engine.

    Holds the follower's statement write lock for the whole record (the
    replica apply lock): point reads run under the shared side against
    their own MVCC snapshot, so a multi-table commit publishes atomically
    for them — the isolation the primary's commit path gives its readers.
    """
    # Shallow-filter instead of mutating: in process the dict instance is
    # shared with the primary's WAL and every other follower.
    stripped = {k: v for k, v in record.items() if k not in _STRIPPED_KEYS}
    database = state.db
    attributes = {"replica": state.name, "type": stripped.get("t", "?")}
    with get_tracer().span("replica.apply", attributes):
        with database.statement_lock.write_locked():
            apply_record(database, stripped)
            if stripped.get("t") == "ddl":
                database.bump_invalidation_epoch()
            elif stripped.get("t") == "commit" and any(
                effect[0] == "flock_models"
                for effect in stripped.get("effects", ())
            ):
                # A deploy committed on the primary: refresh the registry
                # from this follower's own flock_models mirror (idempotent)
                # and invalidate plans that baked in the previous version.
                state.registry.load_from_database(database)
                database.bump_invalidation_epoch()


def _catalog_summary(state: _State, model_rows: bool) -> dict:
    """Everything a sharded router's bring-up reads from one shard, in one
    reply and without shipping a table: schemas, view texts, index
    definitions, principals, deployed model versions and the next hidden
    sequence number per keyed table (with ``model_rows``, also the
    ``flock_models`` rows the coordinator's registry reloads from)."""
    from flock.db.persist import dump_principals
    from flock.shard.merge import SEQ_COLUMN

    db, registry = state.db, state.registry
    catalog = db.catalog
    with db.statement_lock.read_locked():
        schemas = {
            name: catalog.schema(name) for name in catalog.table_names()
        }
        next_sequence = {}
        for name, schema in schemas.items():
            head = catalog.table(name).head_version
            if schema.has_column(SEQ_COLUMN) and head.row_count:
                sequences = head.columns[schema.index_of(SEQ_COLUMN)].values
                next_sequence[name.lower()] = int(sequences.max()) + 1
        summary = {
            "tables": schemas,
            "views": {
                name: str(catalog.view(name))
                for name in catalog.view_names()
            },
            "indexes": catalog.index_defs(),
            "principals": dump_principals(db),
            "models": {
                name: [v.version for v in registry.versions(name)]
                for name in registry.model_names()
            },
            "next_sequence": next_sequence,
        }
        if model_rows and catalog.has_table(registry.SYSTEM_TABLE):
            summary["model_rows"] = list(
                catalog.table(registry.SYSTEM_TABLE).scan().rows()
            )
    return summary


def _head_versions(state: _State, names, known: dict) -> dict:
    """``{name: (stamp, payload)}`` for each head in *names*.

    One acquisition of the statement read lock for all names: one
    internally consistent per-shard snapshot (the merge path's gather
    contract; see :mod:`flock.shard.merge`). The payload —
    ``(version_id, schema, columns, operation)`` — is None where the head's
    stamp equals ``known[name]``: the caller already holds that version.
    """
    shipped = {}
    with state.db.statement_lock.read_locked():
        for name in names:
            head = state.db.catalog.table(name).head_version
            key = name.lower()
            payload = None
            if known.get(key) != head.stamp:
                payload = (
                    head.version_id, head.schema, head.columns,
                    head.operation,
                )
            shipped[key] = (head.stamp, payload)
    return shipped


def _close(state: _State) -> None:
    if state.cluster is not None:
        state.cluster.close()
        return
    if state.role == "replica":
        # Records arrive as ops, so there is no apply thread to stop: drain
        # the read server and close the snapshot-booted engine.
        state.server.shutdown(drain=True)
        state.db.close()
        return
    if state.db is not None:
        state.db.close()


def _resolve_call(state: _State, msg: dict):
    targets = {
        "db": state.db,
        "registry": state.registry,
        "server": state.server,
        "cluster": state.cluster,
    }
    obj = targets.get(msg["target"])
    if obj is None:
        raise ValueError(
            f"worker role {state.role!r} hosts no {msg['target']!r}"
        )
    for part in msg["path"].split("."):
        obj = getattr(obj, part)
    if msg.get("invoke", True):
        obj = obj(*msg.get("args") or [], **msg.get("kwargs") or {})
    attr = msg.get("attr")
    if attr is not None:
        obj = getattr(obj, attr)
    return obj


def _dispatch(state: _State, op: str, msg: dict):
    if op == "ping":
        return "pong"
    if op == "hello":
        return {"pid": os.getpid(), "role": state.role}
    if op == "execute":
        if state.cluster is not None:
            return _scrub(state.cluster.execute(
                msg["sql"], msg.get("params"), msg.get("user", "admin")
            ))
        return _scrub(state.db.execute(
            msg["sql"], msg.get("params"), user=msg.get("user", "admin")
        ))
    if op == "db_execute":
        return _scrub(state.db.execute(
            msg["sql"], msg.get("params"), user=msg.get("user", "admin")
        ))
    if op == "db_executemany":
        return _scrub(state.db.executemany(
            msg["sql"], msg["rows"], user=msg.get("user", "admin")
        ))
    if op == "server_execute":
        if state.server is None:
            raise ValueError(f"worker role {state.role!r} hosts no server")
        return _scrub(state.server.execute(
            msg["sql"], msg.get("params"), user=msg.get("user", "admin"),
            timeout=msg.get("timeout"),
        ))
    if op == "head_versions":
        return _head_versions(state, msg["names"], msg.get("known") or {})
    if op == "apply":
        _apply_replicated(state, msg["record"])
        return None
    if op == "catalog_summary":
        return _catalog_summary(state, msg.get("model_rows", False))
    if op == "wait_for_catchup":
        return state.cluster.wait_for_catchup(msg.get("timeout"))
    if op == "deploy_many":
        return state.registry.deploy_many(
            msg["models"], **(msg.get("kwargs") or {})
        )
    if op == "set_fault":
        from flock.testing import faultpoints

        faultpoints.set_fault(
            msg["name"], msg.get("action", "error"),
            msg.get("after", 1), msg.get("delay_ms", 1.0),
        )
        return None
    if op == "clear_faults":
        from flock.testing import faultpoints

        faultpoints.clear(msg.get("name"))
        return None
    if op == "call":
        return _resolve_call(state, msg)
    raise ValueError(f"unknown worker op {op!r}")


def _send_reply(sock: socket.socket, reply) -> None:
    try:
        payload = dump_message(reply)
    except Exception as exc:
        from flock.errors import FlockError

        payload = dump_message(("err", FlockError(
            f"worker result is not picklable: {exc!r}"
        )))
    send_frame(sock, payload)


def _serve(sock: socket.socket, state: _State) -> None:
    while True:
        msg = recv_message(sock, eof_ok=True)
        if msg is None:
            # Parent gone. Exit without closing: no checkpoint may race
            # whatever the parent (or its successor) does with our
            # directory. The WAL holds everything we acknowledged.
            os._exit(0)
        op = msg.pop("op", None) if isinstance(msg, dict) else None
        if op is None:
            from flock.errors import ProtocolError

            _send_reply(sock, ("err", ProtocolError(
                f"worker: message without an op: {type(msg).__name__}"
            )))
            continue
        if op == "close":
            _close(state)
            _send_reply(sock, ("ok", None))
            return
        try:
            value = _dispatch(state, op, msg)
        except BaseException as exc:
            _send_reply(sock, ("err", _wire_exc(exc)))
            continue
        _send_reply(sock, ("ok", value))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="flock.proc.worker")
    parser.add_argument("--fd", type=int, required=True)
    parser.add_argument("--config", required=True)
    args = parser.parse_args(argv)
    sock = socket.socket(fileno=args.fd)
    sock.settimeout(None)  # deadlines are the parent's job
    config = json.loads(args.config)
    try:
        state = _build(config)
    except BaseException as exc:
        # Fail the *open*: answer the pending hello with the bring-up
        # error so the parent re-raises it, exactly as an in-process build
        # of a directory that would not recover raises.
        try:
            sock.settimeout(30.0)
            recv_message(sock, eof_ok=True)
            _send_reply(sock, ("err", _wire_exc(exc)))
        except Exception:
            pass
        return 1
    _serve(sock, state)
    return 0


if __name__ == "__main__":
    sys.exit(main())
