"""Differential fuzzing: random SQL expressions vs a Python reference.

Hypothesis generates random expression trees over two nullable integer
columns; each tree renders both as SQL text and as a Python closure that
implements SQL's three-valued semantics. The engine must agree with the
reference on every row — this is the deepest correctness net over the
parser + binder + optimizer + vectorized evaluator stack.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flock.db import Database

ROWS = [
    (1, 0, 5),
    (2, -3, None),
    (3, None, 2),
    (4, 7, 7),
    (5, None, None),
    (6, 100, -100),
]


@pytest.fixture(scope="module")
def fuzz_db():
    db = Database()
    db.execute("CREATE TABLE t (id INT, a INT, b INT)")
    values = ", ".join(
        "("
        + ", ".join("NULL" if v is None else str(v) for v in row)
        + ")"
        for row in ROWS
    )
    db.execute(f"INSERT INTO t VALUES {values}")
    return db


# ----------------------------------------------------------------------
# Expression generators: (sql_text, python_fn(a, b) -> value|None)
# ----------------------------------------------------------------------
def _leaf_strategies():
    return st.one_of(
        st.just(("a", lambda a, b: a)),
        st.just(("b", lambda a, b: b)),
        st.integers(-20, 20).map(
            lambda n: (str(n), lambda a, b, n=n: n)
        ),
    )


def _numeric_node(children):
    def combine(op_pair, left, right):
        op, fn = op_pair
        sql = f"({left[0]} {op} {right[0]})"

        def evaluate(a, b, left=left, right=right, fn=fn):
            x = left[1](a, b)
            y = right[1](a, b)
            if x is None or y is None:
                return None
            return fn(x, y)

        return (sql, evaluate)

    ops = st.sampled_from(
        [
            ("+", lambda x, y: x + y),
            ("-", lambda x, y: x - y),
            ("*", lambda x, y: x * y),
        ]
    )
    return st.builds(combine, ops, children, children)


numeric_expr = st.recursive(
    _leaf_strategies(), _numeric_node, max_leaves=6
)


def _comparison(children):
    def combine(op_pair, left, right):
        op, fn = op_pair
        sql = f"({left[0]} {op} {right[0]})"

        def evaluate(a, b, left=left, right=right, fn=fn):
            x = left[1](a, b)
            y = right[1](a, b)
            if x is None or y is None:
                return None
            return fn(x, y)

        return (sql, evaluate)

    ops = st.sampled_from(
        [
            ("=", lambda x, y: x == y),
            ("<>", lambda x, y: x != y),
            ("<", lambda x, y: x < y),
            ("<=", lambda x, y: x <= y),
            (">", lambda x, y: x > y),
            (">=", lambda x, y: x >= y),
        ]
    )
    return st.builds(combine, ops, children, children)


def _is_null(children):
    def build(operand, negated):
        suffix = "IS NOT NULL" if negated else "IS NULL"
        sql = f"({operand[0]} {suffix})"

        def evaluate(a, b, operand=operand, negated=negated):
            value = operand[1](a, b)
            return (value is not None) if negated else (value is None)

        return (sql, evaluate)

    return st.builds(build, children, st.booleans())


bool_leaf = st.one_of(
    _comparison(numeric_expr), _is_null(numeric_expr)
)


def _bool_node(children):
    def combine_and(left, right):
        sql = f"({left[0]} AND {right[0]})"

        def evaluate(a, b, left=left, right=right):
            x, y = left[1](a, b), right[1](a, b)
            if x is False or y is False:
                return False
            if x is None or y is None:
                return None
            return True

        return (sql, evaluate)

    def combine_or(left, right):
        sql = f"({left[0]} OR {right[0]})"

        def evaluate(a, b, left=left, right=right):
            x, y = left[1](a, b), right[1](a, b)
            if x is True or y is True:
                return True
            if x is None or y is None:
                return None
            return False

        return (sql, evaluate)

    def negate(operand):
        sql = f"(NOT {operand[0]})"

        def evaluate(a, b, operand=operand):
            value = operand[1](a, b)
            return None if value is None else not value

        return (sql, evaluate)

    return st.one_of(
        st.builds(combine_and, children, children),
        st.builds(combine_or, children, children),
        st.builds(negate, children),
    )


bool_expr = st.recursive(bool_leaf, _bool_node, max_leaves=6)


@settings(deadline=None, max_examples=120)
@given(numeric_expr)
def test_numeric_expressions_match_reference(fuzz_db, expr):
    sql, evaluate = expr
    got = fuzz_db.execute(
        f"SELECT id, {sql} AS v FROM t ORDER BY id"
    ).rows()
    for (row_id, value), (_, a, b) in zip(got, ROWS):
        assert value == evaluate(a, b), f"{sql} on a={a}, b={b}"


@settings(deadline=None, max_examples=120)
@given(bool_expr)
def test_where_predicates_match_reference(fuzz_db, expr):
    sql, evaluate = expr
    got = [r[0] for r in fuzz_db.execute(
        f"SELECT id FROM t WHERE {sql} ORDER BY id"
    ).rows()]
    expected = [
        row_id for row_id, a, b in ROWS if evaluate(a, b) is True
    ]
    assert got == expected, f"WHERE {sql}"


@settings(deadline=None, max_examples=60)
@given(bool_expr, bool_expr)
def test_case_expression_matches_reference(fuzz_db, cond1, cond2):
    sql = (
        f"CASE WHEN {cond1[0]} THEN 1 WHEN {cond2[0]} THEN 2 ELSE 3 END"
    )
    got = [r[0] for r in fuzz_db.execute(
        f"SELECT {sql} FROM t ORDER BY id"
    ).rows()]

    def reference(a, b):
        if cond1[1](a, b) is True:
            return 1
        if cond2[1](a, b) is True:
            return 2
        return 3

    assert got == [reference(a, b) for _, a, b in ROWS]


# ----------------------------------------------------------------------
# Differential durability fuzzing: WAL-backed engine vs in-memory twin
# ----------------------------------------------------------------------
class _TwinDriver:
    """Runs one random statement stream against a durable database and an
    in-memory twin, crash-reopening the durable one between statements and
    diffing the complete catalog + table state after every recovery."""

    TABLES = ["t0", "t1", "t2"]
    VIEWS = ["v0", "v1"]

    def __init__(self, path, seed: int):
        import random as _random

        self.path = path
        self.rng = _random.Random(seed)
        self.durable = Database.open(path, checkpoint_bytes=0)
        self.memory = Database()

    def statement(self) -> str:
        rng = self.rng
        table = rng.choice(self.TABLES)
        roll = rng.random()
        if roll < 0.10:
            clause = "IF NOT EXISTS " if rng.random() < 0.5 else ""
            return (
                f"CREATE TABLE {clause}{table} "
                "(k INT PRIMARY KEY, val INT, s TEXT)"
            )
        if roll < 0.14:
            clause = "IF EXISTS " if rng.random() < 0.5 else ""
            return f"DROP TABLE {clause}{table}"
        if roll < 0.44:
            k = rng.randrange(40)  # small key space: PK collisions happen
            return (
                f"INSERT INTO {table} VALUES "
                f"({k}, {rng.randrange(-50, 50)}, 's{k}')"
            )
        if roll < 0.58:
            return (
                f"UPDATE {table} SET val = val + {rng.randrange(1, 5)} "
                f"WHERE k < {rng.randrange(40)}"
            )
        if roll < 0.68:
            return f"DELETE FROM {table} WHERE k > {rng.randrange(40)}"
        if roll < 0.74:
            view = rng.choice(self.VIEWS)
            return (
                f"CREATE VIEW {view} AS SELECT k, val FROM {table} "
                f"WHERE val > 0"
            )
        if roll < 0.78:
            view = rng.choice(self.VIEWS)
            clause = "IF EXISTS " if rng.random() < 0.5 else ""
            return f"DROP VIEW {clause}{view}"
        if roll < 0.9:
            return f"SELECT k, val, s FROM {table} ORDER BY k"
        return f"SELECT COUNT(*), SUM(val) FROM {table}"

    def step(self) -> None:
        sql = self.statement()
        outcomes = []
        for db in (self.durable, self.memory):
            try:
                outcomes.append(("ok", db.execute(sql).rows()))
            except Exception as exc:
                outcomes.append(("err", type(exc).__name__))
        assert outcomes[0] == outcomes[1], (
            f"engines diverged on {sql!r}: "
            f"durable={outcomes[0]} memory={outcomes[1]}"
        )

    def crash_reopen(self) -> None:
        # No close(): exactly what an acknowledged-commit-only crash leaves.
        self.durable = Database.open(self.path, checkpoint_bytes=0)
        assert self.durable.audit.log.verify_chain()
        self.diff()

    def diff(self) -> None:
        durable, memory = self.durable, self.memory
        assert sorted(durable.catalog.table_names()) == sorted(
            memory.catalog.table_names()
        )
        assert sorted(durable.catalog.view_names()) == sorted(
            memory.catalog.view_names()
        )
        for name in memory.catalog.table_names():
            dt, mt = durable.catalog.table(name), memory.catalog.table(name)
            assert [
                (c.name, c.dtype) for c in dt.schema.columns
            ] == [(c.name, c.dtype) for c in mt.schema.columns]
            assert dt.version_count == mt.version_count, name
            d_rows = durable.execute(
                f"SELECT * FROM {name} ORDER BY k"
            ).rows()
            m_rows = memory.execute(
                f"SELECT * FROM {name} ORDER BY k"
            ).rows()
            assert d_rows == m_rows, name


@pytest.mark.parametrize(
    "seed", [int(s) for s in __import__("os").environ.get(
        "FLOCK_FUZZ_SEEDS", "11,23"
    ).split(",")]
)
def test_differential_wal_vs_memory(tmp_path, seed):
    """The durable engine is *observationally identical* to the in-memory
    one — same results, same errors — and stays identical through crash
    recovery and checkpoints."""
    driver = _TwinDriver(tmp_path / f"fuzz{seed}", seed)
    ops = int(__import__("os").environ.get("FLOCK_FUZZ_OPS", "150"))
    for i in range(1, ops + 1):
        driver.step()
        if i % 40 == 0:
            driver.durable.checkpoint()
        if i % 15 == 0:
            driver.crash_reopen()
    driver.diff()
    driver.durable.close()


# ----------------------------------------------------------------------
# Differential index fuzzing: indexed engine vs forced-full-scan twin
# ----------------------------------------------------------------------
class _IndexTwinDriver:
    """Runs one random statement stream against a *durable* engine with
    index access paths enabled and an in-memory twin with
    ``flock.indexes = 0`` (every query full-scans — the live differential
    oracle for the whole indexing layer).

    The stream mixes DML, index/table DDL and reads that exercise point
    lookups, IN-lists and zone-map range scans. The indexed engine is
    crash-reopened periodically (WAL replay must restore index
    definitions and the first post-recovery lookup rebuilds them) and
    reads are also fired from concurrent threads, which must all agree
    with the scan twin.
    """

    TABLES = ["t0", "t1"]
    INDEXES = ["i0", "i1"]

    def __init__(self, path, seed: int):
        import random as _random

        self.path = path
        self.rng = _random.Random(seed)
        self.indexed = Database.open(path, checkpoint_bytes=0)
        self.indexed.execute("SET flock.indexes = 1")
        self.scans = Database()
        self.scans.execute("SET flock.indexes = 0")

    def statement(self) -> str:
        rng = self.rng
        table = rng.choice(self.TABLES)
        roll = rng.random()
        if roll < 0.06:
            clause = "IF NOT EXISTS " if rng.random() < 0.5 else ""
            return (
                f"CREATE TABLE {clause}{table} "
                "(k INT PRIMARY KEY, val INT, s TEXT)"
            )
        if roll < 0.09:
            clause = "IF EXISTS " if rng.random() < 0.5 else ""
            return f"DROP TABLE {clause}{table}"
        if roll < 0.15:
            name = rng.choice(self.INDEXES)
            return f"CREATE INDEX {name} ON {table} (val)"
        if roll < 0.19:
            name = rng.choice(self.INDEXES)
            clause = "IF EXISTS " if rng.random() < 0.5 else ""
            return f"DROP INDEX {clause}{name}"
        if roll < 0.40:
            rows = ", ".join(
                "({}, {}, {})".format(
                    rng.randrange(120),
                    "NULL" if rng.random() < 0.15
                    else rng.randrange(-40, 40),
                    f"'s{rng.randrange(5)}'",
                )
                for _ in range(rng.randrange(1, 8))
            )
            return f"INSERT INTO {table} VALUES {rows}"
        if roll < 0.48:
            return (
                f"UPDATE {table} SET val = val + {rng.randrange(1, 4)} "
                f"WHERE k < {rng.randrange(120)}"
            )
        if roll < 0.54:
            return f"DELETE FROM {table} WHERE k > {rng.randrange(120)}"
        # Reads: point lookups, IN-lists (index paths) and range scans
        # (zone-map pruning) interleaved with plain aggregates.
        if roll < 0.68:
            return (
                f"SELECT k, val, s FROM {table} "
                f"WHERE k = {rng.randrange(130)}"
            )
        if roll < 0.78:
            keys = ", ".join(
                str(rng.randrange(130)) for _ in range(rng.randrange(1, 6))
            )
            return (
                f"SELECT k, val FROM {table} WHERE k IN ({keys}) "
                "ORDER BY k"
            )
        if roll < 0.86:
            return (
                f"SELECT k, s FROM {table} "
                f"WHERE val = {rng.randrange(-40, 40)} ORDER BY k"
            )
        if roll < 0.94:
            return (
                f"SELECT COUNT(*), SUM(val) FROM {table} "
                f"WHERE k >= {rng.randrange(120)}"
            )
        return f"SELECT k, val, s FROM {table} ORDER BY k"

    def step(self) -> None:
        sql = self.statement()
        outcomes = []
        for db in (self.indexed, self.scans):
            try:
                outcomes.append(("ok", repr(db.execute(sql).rows())))
            except Exception as exc:
                outcomes.append(("err", type(exc).__name__))
        assert outcomes[0] == outcomes[1], (
            f"index path diverged from scan path on {sql!r}: "
            f"indexed={outcomes[0]} scans={outcomes[1]}"
        )

    def concurrent_reads(self) -> None:
        """Fire the same read from several threads against the indexed
        engine; every result must equal the scan twin's."""
        rng = self.rng
        table = rng.choice(self.TABLES)
        sql = (
            f"SELECT k, val FROM {table} "
            f"WHERE k IN (1, {rng.randrange(120)}, 77) ORDER BY k"
        )
        try:
            expected = ("ok", repr(self.scans.execute(sql).rows()))
        except Exception as exc:
            expected = ("err", type(exc).__name__)
        results: list = []

        def reader() -> None:
            try:
                results.append(
                    ("ok", repr(self.indexed.execute(sql).rows()))
                )
            except Exception as exc:
                results.append(("err", type(exc).__name__))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == expected for r in results), (
            f"concurrent indexed reads diverged on {sql!r}: "
            f"{results} != {expected}"
        )

    def crash_reopen(self) -> None:
        # No close(): recovery replays the WAL, which must restore index
        # definitions; the next lookup rebuilds their buckets.
        self.indexed = Database.open(self.path, checkpoint_bytes=0)
        self.indexed.execute("SET flock.indexes = 1")
        self.diff()

    def diff(self) -> None:
        indexed, scans = self.indexed, self.scans
        assert sorted(indexed.catalog.table_names()) == sorted(
            scans.catalog.table_names()
        )
        assert [d.name for d in indexed.catalog.index_defs()] == [
            d.name for d in scans.catalog.index_defs()
        ]
        for name in scans.catalog.table_names():
            i_rows = indexed.execute(
                f"SELECT * FROM {name} ORDER BY k"
            ).rows()
            s_rows = scans.execute(
                f"SELECT * FROM {name} ORDER BY k"
            ).rows()
            assert repr(i_rows) == repr(s_rows), name
            # A point lookup through the (possibly just-rebuilt) index.
            probe = f"SELECT val FROM {name} WHERE k = 7"
            assert repr(indexed.execute(probe).rows()) == repr(
                scans.execute(probe).rows()
            ), name


@pytest.mark.parametrize(
    "seed", [int(s) for s in os.environ.get(
        "FLOCK_INDEX_FUZZ_SEEDS", "3,17,31,43"
    ).split(",")]
)
def test_differential_indexed_vs_scan(tmp_path, seed):
    """Index access paths are observationally invisible: identical rows,
    order and errors as the forced-full-scan twin, through index DDL,
    concurrent reads, crashes and WAL-replay index rebuilds. Four seeds x
    60 ops = 240 differential rounds per run."""
    driver = _IndexTwinDriver(tmp_path / f"ifuzz{seed}", seed)
    ops = int(os.environ.get("FLOCK_INDEX_FUZZ_OPS", "60"))
    for i in range(1, ops + 1):
        driver.step()
        if i % 12 == 0:
            driver.concurrent_reads()
        if i % 25 == 0:
            driver.indexed.checkpoint()
        if i % 20 == 0:
            driver.crash_reopen()
    driver.diff()
    driver.indexed.close()


@settings(deadline=None, max_examples=60)
@given(numeric_expr)
def test_optimizer_equivalence_under_fuzz(fuzz_db, expr):
    """Optimizations never change results, on arbitrary expressions."""
    from flock.db.optimizer.rules import Optimizer

    sql = f"SELECT id, {expr[0]} AS v FROM t WHERE {expr[0]} IS NOT NULL"
    optimized = fuzz_db.execute(sql).rows()
    saved = fuzz_db.optimizer
    try:
        fuzz_db.optimizer = Optimizer(
            enable_predicate_pushdown=False,
            enable_projection_pruning=False,
            enable_join_rules=False,
        )
        naive = fuzz_db.execute(sql).rows()
    finally:
        fuzz_db.optimizer = saved
    assert sorted(optimized) == sorted(naive)


class _EncodingTwinDriver:
    """Runs one random statement stream against a *durable* engine with
    compressed column encodings — and, part of the time, a deliberately
    tiny memory budget so hash aggregates and joins spill — and an
    in-memory twin pinned to plain storage (the live differential oracle
    for the whole encoding + spill layer).

    The stream keeps TEXT cardinality low (dictionary territory), mixes
    string-filtered DML with the late-decode read shapes (equality, IN,
    LIKE and range predicates on text, GROUP BY text, ORDER BY text +
    LIMIT, date ranges, equi-joins) and periodically checkpoints and
    crash-reopens the encoded engine: encoded head versions must survive
    WAL replay and checkpoint reload bit-identically.
    """

    TABLES = ["e0", "e1"]
    CATS = [f"cat_{i}" for i in range(6)]
    DATES = [f"2026-0{m}-05" for m in range(1, 10)]

    def __init__(self, path, seed: int):
        import random as _random

        self.path = path
        self.rng = _random.Random(seed)
        self.encoded = Database.open(path, checkpoint_bytes=0)
        self.plain = Database()
        self.plain.execute("SET flock.encodings = 0")
        self.budgeted = False

    def toggle_budget(self) -> None:
        """Flip the encoded engine between unbounded and a budget small
        enough that multi-column aggregates and joins must spill; the
        plain twin never spills, so results must not depend on it."""
        self.budgeted = not self.budgeted
        self.encoded.execute(
            f"SET flock.memory_budget = {3000 if self.budgeted else 0}"
        )

    def statement(self) -> str:
        rng = self.rng
        table = rng.choice(self.TABLES)
        cat = rng.choice(self.CATS)
        roll = rng.random()
        if roll < 0.05:
            clause = "IF NOT EXISTS " if rng.random() < 0.5 else ""
            return (
                f"CREATE TABLE {clause}{table} (k INT PRIMARY KEY, "
                "cat TEXT, qty INT, price FLOAT, d DATE)"
            )
        if roll < 0.07:
            clause = "IF EXISTS " if rng.random() < 0.5 else ""
            return f"DROP TABLE {clause}{table}"
        if roll < 0.30:
            rows = ", ".join(
                "({}, {}, {}, {}, {})".format(
                    rng.randrange(400),
                    "NULL" if rng.random() < 0.15 else f"'{rng.choice(self.CATS)}'",
                    rng.randrange(60),
                    "NULL" if rng.random() < 0.2
                    else round(rng.uniform(0, 99), 2),
                    f"'{rng.choice(self.DATES)}'",
                )
                for _ in range(rng.randrange(1, 20))
            )
            return f"INSERT INTO {table} VALUES {rows}"
        if roll < 0.36:
            # String-filtered DML: the write path consumes a late-decoded
            # dictionary predicate, then re-encodes the staged version.
            return (
                f"UPDATE {table} SET qty = qty + {rng.randrange(1, 4)} "
                f"WHERE cat = '{cat}'"
            )
        if roll < 0.40:
            return f"DELETE FROM {table} WHERE k > {rng.randrange(400)}"
        other = "e1" if table == "e0" else "e0"
        if roll < 0.48:
            return (
                f"SELECT k, cat, qty FROM {table} WHERE cat = '{cat}' "
                "ORDER BY k"
            )
        if roll < 0.54:
            items = ", ".join(
                f"'{rng.choice(self.CATS)}'" for _ in range(rng.randrange(1, 4))
            )
            return f"SELECT k, qty FROM {table} WHERE cat IN ({items}) ORDER BY k"
        if roll < 0.58:
            pattern = rng.choice(["cat!_%", "%!_3", "c%5"]).replace("!_", "\\_")
            return (
                f"SELECT k FROM {table} WHERE cat LIKE '{pattern}' ORDER BY k"
            )
        if roll < 0.62:
            op = rng.choice([">=", "<", ">"])
            return (
                f"SELECT k FROM {table} WHERE cat {op} '{cat}' ORDER BY k"
            )
        if roll < 0.70:
            return (
                f"SELECT cat, COUNT(*), SUM(qty), AVG(price), "
                f"COUNT(DISTINCT qty) FROM {table} GROUP BY cat ORDER BY cat"
            )
        if roll < 0.76:
            # Wide grouped aggregate: the shape the memory budget forces
            # through partitioned spill files.
            return (
                f"SELECT cat, qty, COUNT(*), SUM(price), MIN(k) "
                f"FROM {table} GROUP BY cat, qty ORDER BY cat, qty"
            )
        if roll < 0.82:
            join = rng.choice(["JOIN", "LEFT JOIN"])
            return (
                f"SELECT a.k, a.cat, b.k FROM {table} a {join} {other} b "
                f"ON a.qty = b.qty WHERE a.k < {rng.randrange(100, 400)} "
                "ORDER BY a.k, b.k LIMIT 60"
            )
        if roll < 0.90:
            return (
                f"SELECT k, cat, qty FROM {table} "
                f"ORDER BY cat{' DESC' if rng.random() < 0.5 else ''}, k "
                f"LIMIT {rng.randrange(1, 15)} OFFSET {rng.randrange(4)}"
            )
        if roll < 0.95:
            return (
                f"SELECT d, COUNT(*) FROM {table} "
                f"WHERE d >= '{rng.choice(self.DATES)}' GROUP BY d ORDER BY d"
            )
        return f"SELECT * FROM {table} ORDER BY k"

    def step(self) -> None:
        sql = self.statement()
        outcomes = []
        for db in (self.encoded, self.plain):
            try:
                outcomes.append(("ok", repr(db.execute(sql).rows())))
            except Exception as exc:
                outcomes.append(("err", type(exc).__name__))
        assert outcomes[0] == outcomes[1], (
            f"encoded engine diverged from plain on {sql!r} "
            f"(budgeted={self.budgeted}): "
            f"encoded={outcomes[0]} plain={outcomes[1]}"
        )

    def crash_reopen(self) -> None:
        # No close(): recovery replays the WAL and the loader re-encodes
        # the recovered head versions.
        self.encoded = Database.open(self.path, checkpoint_bytes=0)
        if self.budgeted:
            self.encoded.execute("SET flock.memory_budget = 3000")
        self.diff()

    def diff(self) -> None:
        encoded, plain = self.encoded, self.plain
        assert sorted(encoded.catalog.table_names()) == sorted(
            plain.catalog.table_names()
        )
        for name in plain.catalog.table_names():
            e_rows = encoded.execute(f"SELECT * FROM {name} ORDER BY k").rows()
            p_rows = plain.execute(f"SELECT * FROM {name} ORDER BY k").rows()
            assert repr(e_rows) == repr(p_rows), name


@pytest.mark.parametrize(
    "seed", [int(s) for s in os.environ.get(
        "FLOCK_ENCODING_FUZZ_SEEDS", "5,29"
    ).split(",")]
)
def test_differential_encoded_vs_plain(tmp_path, monkeypatch, seed):
    """Compressed encodings, late-decode fast paths and memory-budgeted
    spill are observationally invisible: identical rows, order and errors
    as the plain-storage twin, through DML churn, budget flips,
    checkpoints and WAL-replay crash recovery. Two seeds x 120 ops = 240
    differential rounds per run; CI's encoded-oracle lane raises both."""
    # The encoded side stays encoded in the FLOCK_ENCODINGS=0 lane too;
    # the variable (not a SET) is what crash-reopen recovery reads.
    monkeypatch.setenv("FLOCK_ENCODINGS", "1")
    driver = _EncodingTwinDriver(tmp_path / f"efuzz{seed}", seed)
    ops = int(os.environ.get("FLOCK_ENCODING_FUZZ_OPS", "120"))
    for i in range(1, ops + 1):
        driver.step()
        if i % 15 == 0:
            driver.toggle_budget()
        if i % 30 == 0:
            driver.encoded.checkpoint()
        if i % 40 == 0:
            driver.crash_reopen()
    driver.diff()
    driver.encoded.close()
    driver.plain.close()
