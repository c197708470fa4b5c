"""Shared engine fixture for the SQL shape battery.

The battery is read-only, so one instance serves the whole module. The
execution tier is environment-selected to match the CI matrix:
``FLOCK_SHARDS > 1`` routes every statement through a hash-sharded cluster
instead of a single engine.

When ``FLOCK_BATTERY_REPORT`` names a path, a per-statement verdict report
is written there at teardown (CI uploads it as an artifact on failure).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

import flock
from flock.ml import LinearRegression
from flock.mlgraph import to_graph

SHARDS = int(os.environ.get("FLOCK_SHARDS", "1"))

_FIXTURE_SQL = [
    "CREATE TABLE t (a INT PRIMARY KEY, b INT, c FLOAT, d TEXT)",
    "CREATE TABLE u (k INT PRIMARY KEY, v TEXT, w FLOAT)",
    "CREATE TABLE e (x INT, y TEXT)",
    "INSERT INTO t VALUES (1, 10, 1.5, 'x')",
    "INSERT INTO t VALUES (2, 20, 2.5, 'y')",
    "INSERT INTO t VALUES (3, 30, NULL, 'z')",
    "INSERT INTO t VALUES (4, NULL, 4.5, 'x')",
    "INSERT INTO t VALUES (5, 50, 5.5, NULL)",
    "INSERT INTO t VALUES (6, 60, 6.5, 'y')",
    "INSERT INTO t VALUES (7, 70, 7.5, 'x')",
    "INSERT INTO t VALUES (8, 80, 8.5, 'w')",
    "INSERT INTO u VALUES (1, 'x', 0.5)",
    "INSERT INTO u VALUES (2, 'y', 1.5)",
    "INSERT INTO u VALUES (3, 'q', 2.5)",
    "INSERT INTO u VALUES (5, 'x', 3.5)",
]


def _model_m() -> LinearRegression:
    """The model ``m``: score = 2 * a + 1, exactly."""
    model = LinearRegression().fit(np.array([[0.0], [1.0]]), [1.0, 3.0])
    model.coef_ = np.array([2.0])
    model.intercept_ = 1.0
    return model


@pytest.fixture(scope="package")
def battery_engine(tmp_path_factory):
    if SHARDS > 1:
        client = flock.connect(
            tmp_path_factory.mktemp("battery_shards") / "battery", shards=SHARDS
        )
    else:
        client = flock.connect()
    for statement in _FIXTURE_SQL:
        client.execute(statement)
    client.registry.deploy("m", to_graph(_model_m(), ["a"], name="m"))
    yield client
    client.close()


@pytest.fixture(scope="package")
def battery_report():
    """Accumulates per-statement verdicts; flushed to FLOCK_BATTERY_REPORT."""
    verdicts: list[dict] = []
    yield verdicts
    path = os.environ.get("FLOCK_BATTERY_REPORT")
    if not path:
        return
    failed = [v for v in verdicts if v["status"] != "ok"]
    Path(path).write_text(
        json.dumps(
            {
                "shards": SHARDS,
                "total": len(verdicts),
                "failed": len(failed),
                "verdicts": verdicts,
            },
            indent=2,
        )
    )
