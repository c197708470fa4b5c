"""Ablation: which cross-optimization buys what (§4.1's optimization list).

Runs the Figure 4 scoring query with each optimization enabled in isolation
and all together, for two model families — an inlinable linear pipeline and
a tree ensemble (where compression/pruning act but inlining declines).
Checks the key invariant (results identical under every configuration) and
reports the latency of each configuration. It also times the GBM's
compiled tree scorer against the dict walker it replaced (same trees, same
rows, bit-identical scores required), so the committed
``BENCH_ablation_optimizations.json`` backs the tree-scoring speed-up.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import cpu_count, write_json_report, write_report
from flock import create_database
from flock.inference import CrossOptimizer
from flock.ml import (
    GradientBoostingClassifier,
    LogisticRegression,
    Pipeline,
    StandardScaler,
)
from flock.ml.datasets import make_loans
from flock.mlgraph import to_graph
from flock.mlgraph.ops.trees import CompiledEnsemble, eval_tree_dict

N_ROWS = 30_000
#: Timed runs per configuration (after one warm-up); the median is kept.
REPEATS = 3
#: Gates. Inlining must not make the linear query slower than 1.1x the
#: unoptimized one, the full stack no model slower than 1.5x, and the
#: compiled tree scorer must beat the dict walker by 3x.
THRESHOLD_INLINING_RATIO = 1.1
THRESHOLD_FULL_STACK_RATIO = 1.5
THRESHOLD_TREE_SPEEDUP = 3.0
QUERY = (
    "SELECT applicant_id, PREDICT(m) AS p FROM loans WHERE PREDICT(m) > 0.5"
)

CONFIGS = {
    "none": dict(enable_compression=False, enable_pruning=False,
                 enable_inlining=False, enable_strategy_selection=False),
    "+compression": dict(enable_compression=True, enable_pruning=False,
                         enable_inlining=False,
                         enable_strategy_selection=False),
    "+pruning": dict(enable_compression=False, enable_pruning=True,
                     enable_inlining=False, enable_strategy_selection=False),
    "+inlining": dict(enable_compression=False, enable_pruning=False,
                      enable_inlining=True, enable_strategy_selection=False),
    "+selection": dict(enable_compression=False, enable_pruning=False,
                       enable_inlining=False, enable_strategy_selection=True),
    "all": dict(enable_compression=True, enable_pruning=True,
                enable_inlining=True, enable_strategy_selection=True),
}


def _make_estimators():
    base = make_loans(2_000, random_state=0)
    X, y = base.feature_matrix(), base.target_vector()
    linear = Pipeline(
        [("s", StandardScaler()), ("m", LogisticRegression(max_iter=150))]
    ).fit(X, y)
    # A sparse variant: two features provably unused.
    sparse = Pipeline(
        [("s", StandardScaler()), ("m", LogisticRegression(max_iter=150))]
    ).fit(X, y)
    sparse.final_estimator.coef_[3] = 0.0
    sparse.final_estimator.coef_[4] = 0.0
    gbm = GradientBoostingClassifier(n_estimators=40, random_state=0).fit(X, y)
    return base, {"linear": linear, "sparse-linear": sparse, "gbm": gbm}


def _database_with(model, config, base, n_rows=N_ROWS):
    database, registry = create_database(CrossOptimizer(**config))
    database.execute(
        "CREATE TABLE loans (applicant_id INTEGER, income FLOAT, "
        "credit_score FLOAT, loan_amount FLOAT, debt_ratio FLOAT, "
        "years_employed FLOAT, region TEXT)"
    )
    rng = np.random.default_rng(2)
    X = base.feature_matrix()
    idx = rng.integers(0, len(X), size=n_rows)
    rows = [
        (int(i + 1), *(float(v) for v in X[j]), "north")
        for i, j in enumerate(idx)
    ]
    table = database.catalog.table("loans")
    table.publish(table.build_insert(rows))
    registry.deploy("m", to_graph(model, base.feature_names, name="m"))
    return database


def _median_s(run) -> float:
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        run()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _tree_scorer(gbm, base) -> dict:
    """The GBM ensemble over N_ROWS rows: compiled scorer vs dict walker."""
    graph = to_graph(gbm, base.feature_names, name="m")
    attrs = next(n for n in graph.nodes if n.op_type == "tree_ensemble").attrs
    X = base.feature_matrix()
    matrix = X[np.random.default_rng(2).integers(0, len(X), size=N_ROWS)]
    compiled = CompiledEnsemble(attrs)

    def walker():
        stacked = np.stack([eval_tree_dict(t, matrix) for t in attrs["trees"]])
        return attrs["init"] + attrs["scale"] * stacked.sum(axis=0)[:, 0]

    return {
        "trees": len(attrs["trees"]),
        "distinct_tests": len(compiled.tests),
        "rows": N_ROWS,
        "compiled_ms": _median_s(lambda: compiled([matrix])) * 1000,
        "dict_walker_ms": _median_s(walker) * 1000,
        "bit_identical": compiled([matrix])[0].tobytes()
        == walker().tobytes(),
    }


@pytest.fixture(scope="module")
def ablation():
    base, estimators = _make_estimators()
    results: dict[str, dict[str, float]] = {}
    answers: dict[str, dict[str, list]] = {}
    for model_name, model in estimators.items():
        results[model_name] = {}
        answers[model_name] = {}
        for config_name, config in CONFIGS.items():
            database = _database_with(model, config, base)
            answers[model_name][config_name] = database.execute(QUERY).rows()
            results[model_name][config_name] = _median_s(
                lambda: database.execute(QUERY)
            )
    trees = _tree_scorer(estimators["gbm"], base)
    trees["speedup"] = trees["dict_walker_ms"] / trees["compiled_ms"]

    lines = ["Ablation: per-optimization latency of the scoring query (ms)"]
    header = f"{'model':>14} | " + " | ".join(
        f"{c:>13}" for c in CONFIGS
    )
    lines.append(header)
    for model_name, per_config in results.items():
        lines.append(
            f"{model_name:>14} | "
            + " | ".join(
                f"{per_config[c] * 1000:>11.1f}ms" for c in CONFIGS
            )
        )
    lines.append(
        f"GBM scorer, {trees['trees']} trees x {trees['rows']} rows: "
        f"compiled {trees['compiled_ms']:.1f}ms, dict walker "
        f"{trees['dict_walker_ms']:.1f}ms ({trees['speedup']:.1f}x), "
        f"bit-identical: {trees['bit_identical']}"
    )
    write_report("ablation_optimizations", lines)
    write_json_report("ablation_optimizations", {
        "cpu_count": cpu_count(),
        "rows": N_ROWS,
        "repeats": REPEATS,
        "query": QUERY,
        "latency_ms": {
            model_name: {c: t * 1000 for c, t in per_config.items()}
            for model_name, per_config in results.items()
        },
        "tree_scorer": trees,
        "gate": {
            "applied": True,
            "skipped_reason": None,
            "threshold_inlining_ratio": THRESHOLD_INLINING_RATIO,
            "threshold_full_stack_ratio": THRESHOLD_FULL_STACK_RATIO,
            "threshold_tree_speedup": THRESHOLD_TREE_SPEEDUP,
        },
    })
    return results, answers, trees


class TestAblation:
    def test_all_configs_identical_results(self, ablation):
        _, answers, _ = ablation
        for model_name, per_config in answers.items():
            baseline = per_config["none"]
            for config_name, rows in per_config.items():
                assert len(rows) == len(baseline), (model_name, config_name)
                for (id_a, p_a), (id_b, p_b) in zip(rows, baseline):
                    assert id_a == id_b
                    assert p_a == pytest.approx(p_b, abs=1e-9)

    def test_inlining_speeds_up_linear(self, ablation):
        results, _, _ = ablation
        linear = results["linear"]
        assert linear["+inlining"] < linear["none"] * THRESHOLD_INLINING_RATIO

    def test_full_stack_not_worse_than_none(self, ablation):
        results, _, _ = ablation
        for model_name, per_config in results.items():
            assert (
                per_config["all"]
                <= per_config["none"] * THRESHOLD_FULL_STACK_RATIO
            )

    def test_compiled_tree_scorer_beats_the_walker(self, ablation):
        _, _, trees = ablation
        assert trees["bit_identical"]
        assert trees["speedup"] >= THRESHOLD_TREE_SPEEDUP, trees


def bench_ablation_none(benchmark):
    base, estimators = _make_estimators()
    database = _database_with(estimators["linear"], CONFIGS["none"], base,
                              n_rows=10_000)
    database.execute(QUERY)
    benchmark(lambda: database.execute(QUERY))


def bench_ablation_all(benchmark, ablation):
    base, estimators = _make_estimators()
    database = _database_with(estimators["linear"], CONFIGS["all"], base,
                              n_rows=10_000)
    database.execute(QUERY)
    benchmark(lambda: database.execute(QUERY))
