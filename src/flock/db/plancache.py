"""The prepared-plan cache: one per :class:`~flock.db.Database`.

Applications re-issue the same statements against deployed models, so
plan reuse is something the engine does for every caller. Every statement
path — ``Connection.execute``, ``Database.executemany`` / ``explain``, the
serving node, the cluster router, the shard router and its scatter
coordinator — looks its SQL text up here, so a repeated statement is
parsed once. A parameterless read-only SELECT or set operation is also
bound and optimized once: the engine keeps the result on the entry as a
:class:`PreparedPlan`. A parameterless INSERT is parsed but not kept: its
rows are in its text, and bulk loads are not re-issued.

A prepared plan is stamped with the engine's ``invalidation_epoch`` (DDL,
index DDL, model deployment, optimizer-relevant ``SET`` and a new
optimizer move it) and with the ``version_id`` of every table it reads —
the versions the optimizer's row counts and statistics came from. It is
reused only while the epoch is unchanged and every stamped version is the
one the executing transaction sees; that is exactly when a fresh optimize
would choose the same plan. A transaction that staged writes to a table
sees its own version, so its reads take the cold path and see those
writes.

Cached statements and plans are never mutated after they are built —
binding, optimizing and executing only read them — which is what makes
one entry safe to share across threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from flock.db.plan import PlanNode
from flock.db.sql import ast_nodes as ast
from flock.db.sql.parser import Parser
from flock.errors import BindError
from flock.observability import metrics

#: The cache is cleared when it would grow past this many statements.
MAX_ENTRIES = 512


@dataclass(frozen=True)
class PreparedPlan:
    """A bound + optimized read-only plan and what executing it checks."""

    plan: PlanNode
    #: (table names, model names) the plan reads, for audit records.
    reads: tuple[list[str], list[str]]
    #: (action, object) privilege checks, made on every execution.
    privileges: list[tuple[str, str]]
    epoch: int = -1
    #: table name -> ``version_id`` the optimizer planned against.
    versions: dict[str, int] = field(default_factory=dict)


@dataclass(eq=False)
class CachedPlan:
    """Everything reusable about one SQL text."""

    sql: str
    statement: ast.Statement
    parameter_count: int = 0
    #: Set by the engine on first execution of a parameterless read-only
    #: SELECT / set operation; replaced whenever it is found stale.
    prepared: PreparedPlan | None = None

    @property
    def statement_type(self) -> str:
        return type(self.statement).__name__.upper()

    def check_params(self, params) -> None:
        """Raise BindError unless *params* has one value per ``?``."""
        if params is None and self.parameter_count:
            raise BindError(
                "statement contains '?' placeholders but no parameters "
                "were supplied"
            )
        if params is not None and len(params) != self.parameter_count:
            raise BindError(
                f"statement has {self.parameter_count} '?' placeholder(s) "
                f"but {len(params)} parameter value(s) were supplied"
            )

    def check_param_rows(self, rows: list) -> None:
        """:meth:`check_params` for every row of an ``executemany`` batch:
        one length pass, and the first bad row's error if any is bad."""
        if set(map(len, rows)) != {self.parameter_count}:
            for params in rows:
                self.check_params(params)

    @property
    def preparable(self) -> bool:
        return self.parameter_count == 0 and isinstance(
            self.statement, (ast.Select, ast.SetOperation)
        )


def parameter_rows(seq_of_params) -> list:
    """``executemany``'s parameter rows as a list, each row as it came when
    it is a list or tuple, else copied to a list (as ``execute`` copies
    its parameters)."""
    return [p if type(p) in (list, tuple) else list(p) for p in seq_of_params]


class PlanCache:
    """Thread-safe SQL-text-keyed statement cache (see the module doc)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, CachedPlan] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, sql: str) -> CachedPlan:
        """The entry for *sql*, parsing it on first sight.

        Raises the parse error for text that does not parse; such text is
        not cached.
        """
        registry = metrics()
        with self._lock:
            entry = self._entries.get(sql)
            if entry is not None:
                self.hits += 1
            else:
                self.misses += 1
        if entry is not None:
            registry.counter("serving.plan_cache.hits").inc()
            return entry
        registry.counter("serving.plan_cache.misses").inc()
        parser = Parser(sql)
        statement = parser.parse()
        entry = CachedPlan(sql, statement, parser.parameter_count)
        if isinstance(statement, ast.Insert) and not entry.parameter_count:
            # Its rows are literals in the text: bulk loads would fill the
            # cache with row data that is never re-issued.
            return entry
        with self._lock:
            if len(self._entries) >= MAX_ENTRIES:
                self._entries.clear()
            return self._entries.setdefault(sql, entry)

    def current(
        self, entry: CachedPlan, epoch: int, txn
    ) -> PreparedPlan | None:
        """*entry*'s prepared plan if a fresh optimize under *txn* (at
        invalidation epoch *epoch*) would choose it, else None."""
        prepared = entry.prepared
        if prepared is None:
            return None
        if prepared.epoch == epoch and all(
            txn.visible_version(name).version_id == version_id
            for name, version_id in prepared.versions.items()
        ):
            return prepared
        with self._lock:
            self.invalidations += 1
        metrics().counter("serving.plan_cache.invalidations").inc()
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
