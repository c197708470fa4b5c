"""Faithful TPC-H vs engine-subset rewrites: a decorrelation oracle.

Every one of the 22 faithful templates (correlated scalar subqueries,
EXISTS/NOT EXISTS, uncorrelated scalar subqueries, CTEs) must return
*repr-identical* rows to its pre-decorrelation rewrite on the same
instance — the rewrites were hand-derived to the exact join shapes the
decorrelator emits, so any float drift or row-order divergence is a bug.

The engine tier is environment-selected, matching the CI matrix:
``FLOCK_SHARDS > 1`` routes the whole battery through a hash-sharded
cluster (scatter-gather reads over merged snapshots).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import flock
from flock.workloads import (
    TPCH_FAITHFUL,
    TPCH_REWRITTEN,
    create_tpch_schema,
    generate_tpch_data,
    tpch_params,
)

SCALE = float(os.environ.get("FLOCK_TPCH_SCALE", "0.002"))
SHARDS = int(os.environ.get("FLOCK_SHARDS", "1"))


@pytest.fixture(scope="module")
def tpch_engine(tmp_path_factory):
    if SHARDS > 1:
        client = flock.connect(
            tmp_path_factory.mktemp("tpch_shards") / "tpch", shards=SHARDS
        )
    else:
        client = flock.connect()
    create_tpch_schema(client)
    generate_tpch_data(client, scale=SCALE, seed=42)
    yield client
    client.close()


@pytest.fixture(scope="module")
def instance_params(tpch_engine):
    """One parameter draw, with data-dependent thresholds derived live.

    The rewritten Q11/Q22 take the faithful forms' scalar-subquery values
    as literal parameters; computing them through the engine and
    substituting their exact ``repr`` (floats round-trip) keeps both forms
    on the same instance bit-for-bit.
    """
    params = tpch_params(np.random.default_rng(5))
    threshold = tpch_engine.execute(
        "SELECT SUM(ps2.ps_supplycost * ps2.ps_availqty) * 0.0001 "
        "FROM partsupp ps2 "
        "JOIN supplier s2 ON ps2.ps_suppkey = s2.s_suppkey "
        "JOIN nation n2 ON s2.s_nationkey = n2.n_nationkey "
        f"WHERE n2.n_name = '{params['nation1']}'"
    ).scalar()
    params["threshold"] = repr(threshold) if threshold is not None else "0.0"
    codes = ", ".join(f"'{params[f'cc{i}']}'" for i in range(1, 8))
    balance = tpch_engine.execute(
        "SELECT AVG(c2.c_acctbal) FROM customer c2 "
        "WHERE c2.c_acctbal > 0.00 "
        f"AND SUBSTR(c2.c_phone, 1, 2) IN ({codes})"
    ).scalar()
    params["balance"] = repr(balance) if balance is not None else "0.0"
    return params


@pytest.mark.parametrize("template_id", sorted(TPCH_FAITHFUL))
def test_faithful_matches_rewrite(tpch_engine, instance_params, template_id):
    faithful = TPCH_FAITHFUL[template_id].format(**instance_params).strip()
    rewritten = TPCH_REWRITTEN[template_id].format(**instance_params).strip()
    f_result = tpch_engine.execute(faithful)
    r_result = tpch_engine.execute(rewritten)
    assert f_result.batch.num_columns == r_result.batch.num_columns
    assert repr(f_result.rows()) == repr(r_result.rows()), (
        f"Q{template_id}: faithful form diverged from its rewrite"
    )


def test_faithful_set_differs_where_it_should():
    # The templates exercising new constructs are genuinely distinct text;
    # the rest are shared objects, not near-duplicates.
    changed = {i for i in TPCH_FAITHFUL if TPCH_FAITHFUL[i]
               is not TPCH_REWRITTEN[i]}
    assert changed == {2, 4, 11, 15, 17, 20, 21, 22}
    assert "EXISTS" in TPCH_FAITHFUL[4]
    assert "WITH revenue AS" in TPCH_FAITHFUL[15]
    assert TPCH_FAITHFUL[15].count("revenue") >= 3  # CTE used twice in FROM
    assert "NOT EXISTS" in TPCH_FAITHFUL[21]
