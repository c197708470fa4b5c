"""Figure 4: in-database inference vs standalone scoring.

Left panel: total inference time vs dataset size for four regimes —
``scikit-learn`` (standalone Python library: data exfiltrated from the DBMS,
then the fitted pipeline scores it), ``ORT`` (standalone model-graph
runtime, same exfiltration), ``SONNX`` (in-DBMS PREDICT, cross-optimizer
off: vectorized scoring inside the engine, no exfiltration), ``SONNX-ext``
(in-DBMS PREDICT with the full cross-optimizer: UDF inlining + predicate
push-up + input pruning).

Right panel: speedup over the scikit-learn baseline at the largest size for
``Inline SQL`` (inlining only) and ``Optimized`` (everything). The paper
reports 1× / 17× / 24×; the *ordering and growth* are the reproduction
target (our substrate is an in-process Python engine, not SQL Server).

The series and speedups also go to ``BENCH_fig4_inference.json``. Its gate
is the paper's ordering at the largest size: SONNX faster than
scikit-learn, and SONNX-ext faster than SONNX. Each time is the median of
``REPEATS`` runs after one warm-up run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import FULL, cpu_count, write_json_report, write_report
from flock import create_database
from flock.inference import CrossOptimizer
from flock.ml import LogisticRegression, Pipeline, StandardScaler
from flock.ml.datasets import make_loans
from flock.mlgraph import GraphRuntime, to_graph

SIZES = [1_000, 10_000, 100_000] + ([1_000_000] if FULL else [])
FEATURES = ["income", "credit_score", "loan_amount", "debt_ratio",
            "years_employed"]
QUERY = (
    "SELECT applicant_id, PREDICT(loan_model) AS p FROM loans "
    "WHERE PREDICT(loan_model) > 0.5"
)
REPEATS = 3
#: The gate, as speedups at the largest size: the paper's ordering.
THRESHOLD_SONNX_OVER_SKLEARN = 1.0
THRESHOLD_EXT_OVER_SONNX = 1.0


def _make_database(n_rows: int, cross_optimizer: CrossOptimizer):
    """A database holding n_rows of loans + a deployed linear pipeline."""
    base = make_loans(2_000, random_state=0)
    pipeline = Pipeline(
        [("s", StandardScaler()), ("m", LogisticRegression(max_iter=150))]
    ).fit(base.feature_matrix(), base.target_vector())

    database, registry = create_database(cross_optimizer)
    database.execute(
        "CREATE TABLE loans (applicant_id INTEGER, income FLOAT, "
        "credit_score FLOAT, loan_amount FLOAT, debt_ratio FLOAT, "
        "years_employed FLOAT, region TEXT)"
    )
    # Bulk-load by staging directly (we are benchmarking scoring, not INSERT
    # parsing).
    rng = np.random.default_rng(1)
    X = base.feature_matrix()
    idx = rng.integers(0, len(X), size=n_rows)
    rows = [
        (
            int(i + 1),
            float(X[j, 0]), float(X[j, 1]), float(X[j, 2]),
            float(X[j, 3]), float(X[j, 4]),
            "north",
        )
        for i, j in enumerate(idx)
    ]
    table = database.catalog.table("loans")
    table.publish(table.build_insert(rows))

    graph = to_graph(pipeline, FEATURES, name="loan_model")
    registry.deploy("loan_model", graph)
    return database, pipeline, graph


def _exfiltrate(database) -> np.ndarray:
    """What a standalone scorer must do: pull the rows out of the DBMS."""
    result = database.execute(
        "SELECT income, credit_score, loan_amount, debt_ratio, "
        "years_employed FROM loans"
    )
    return np.array(result.rows(), dtype=np.float64)


def _time(fn) -> float:
    """Steady-state timing: one warm-up run (plan caches, table statistics),
    then the median of REPEATS measured runs — the paper's total
    inference time."""
    fn()
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


_OFF = dict(
    enable_compression=False,
    enable_pruning=False,
    enable_inlining=False,
    enable_strategy_selection=False,
)


@pytest.fixture(scope="module")
def figure4_series():
    """Measure all four regimes across sizes once; benches then sample."""
    series: dict[str, dict[int, float]] = {
        "scikit-learn": {}, "ORT": {}, "SONNX": {}, "SONNX-ext": {},
    }
    for n in SIZES:
        plain_db, pipeline, graph = _make_database(n, CrossOptimizer(**_OFF))
        opt_db, _, _ = _make_database(n, CrossOptimizer())

        def sklearn_regime():
            X = _exfiltrate(plain_db)
            p = pipeline.predict_proba(X)[:, 1]
            return p[p > 0.5]

        def ort_regime():
            X = _exfiltrate(plain_db)
            rt = GraphRuntime()
            out = rt.run(graph, {f: X[:, i] for i, f in enumerate(FEATURES)})
            p = out[[t for f, t in graph.output_field_names()
                     if f == "probability"][0]]
            return p[p > 0.5]

        series["scikit-learn"][n] = _time(sklearn_regime)
        series["ORT"][n] = _time(ort_regime)
        series["SONNX"][n] = _time(lambda: plain_db.execute(QUERY))
        series["SONNX-ext"][n] = _time(lambda: opt_db.execute(QUERY))

    lines = ["Figure 4 (left): total inference time (ms) vs dataset size"]
    header = f"{'rows':>10} | " + " | ".join(
        f"{k:>12}" for k in series
    )
    lines.append(header)
    for n in SIZES:
        lines.append(
            f"{n:>10} | "
            + " | ".join(f"{series[k][n] * 1000:>10.1f}ms" for k in series)
        )
    biggest = SIZES[-1]
    base = series["scikit-learn"][biggest]
    lines.append("")
    lines.append(
        f"Figure 4 (right): speedup vs scikit-learn at {biggest} rows "
        f"(paper: SONNX 17x, SONNX-ext 24x on their testbed)"
    )
    speedups = {
        regime: base / series[regime][biggest]
        for regime in ("ORT", "SONNX", "SONNX-ext")
    }
    for regime, speedup in speedups.items():
        lines.append(f"  {regime:>10}: {speedup:.1f}x")
    write_report("fig4_inference", lines)
    write_json_report("fig4_inference", {
        "cpu_count": cpu_count(),
        "sizes": SIZES,
        "repeats": REPEATS,
        "query": QUERY,
        "time_ms": {
            regime: {str(n): t * 1000 for n, t in per_size.items()}
            for regime, per_size in series.items()
        },
        "speedup_vs_sklearn_at_largest": speedups,
        "gate": {
            "applied": True,
            "skipped_reason": None,
            "threshold_sonnx_over_sklearn": THRESHOLD_SONNX_OVER_SKLEARN,
            "threshold_ext_over_sonnx": THRESHOLD_EXT_OVER_SONNX,
            "sonnx_over_sklearn": speedups["SONNX"],
            "ext_over_sonnx": speedups["SONNX-ext"] / speedups["SONNX"],
        },
    })
    return series


class TestFigure4:
    def test_shape_in_db_beats_standalone(self, figure4_series):
        """The gate, the paper's ordering at the largest size: in-DBMS
        scoring beats exfiltrate-and-score, and the cross-optimizer beats
        plain in-DBMS scoring."""
        biggest = SIZES[-1]
        sklearn, sonnx, ext = (
            figure4_series[regime][biggest]
            for regime in ("scikit-learn", "SONNX", "SONNX-ext")
        )
        assert sklearn / sonnx > THRESHOLD_SONNX_OVER_SKLEARN
        assert sonnx / ext > THRESHOLD_EXT_OVER_SONNX

    def test_shape_optimizations_add_speedup(self, figure4_series):
        biggest = SIZES[-1]
        base = figure4_series["scikit-learn"][biggest]
        sonnx_speedup = base / figure4_series["SONNX"][biggest]
        ext_speedup = base / figure4_series["SONNX-ext"][biggest]
        assert ext_speedup >= sonnx_speedup * 0.9  # ext never meaningfully worse
        assert ext_speedup > 2.0  # clear win over standalone


@pytest.fixture(scope="module")
def medium_setup():
    n = 50_000
    plain_db, pipeline, graph = _make_database(n, CrossOptimizer(**_OFF))
    opt_db, _, _ = _make_database(n, CrossOptimizer())
    return plain_db, opt_db, pipeline, graph


def bench_sklearn_standalone(benchmark, medium_setup):
    plain_db, _, pipeline, _ = medium_setup

    def run():
        X = _exfiltrate(plain_db)
        return pipeline.predict_proba(X)[:, 1]

    benchmark(run)


def bench_ort_standalone(benchmark, medium_setup):
    plain_db, _, _, graph = medium_setup
    rt = GraphRuntime()

    def run():
        X = _exfiltrate(plain_db)
        return rt.run(graph, {f: X[:, i] for i, f in enumerate(FEATURES)})

    benchmark(run)


def bench_sonnx_in_db(benchmark, medium_setup):
    plain_db, *_ = medium_setup
    benchmark(lambda: plain_db.execute(QUERY))


def bench_sonnx_ext_in_db(benchmark, medium_setup):
    _, opt_db, *_ = medium_setup
    benchmark(lambda: opt_db.execute(QUERY))


def bench_fig4_full_sweep(benchmark, figure4_series, medium_setup):
    """Runs the whole Figure 4 sweep (via the fixture, which also writes
    benchmarks/results/fig4_inference.txt) and benchmarks the headline
    regime once more for the record."""
    _, opt_db, *_ = medium_setup
    benchmark(lambda: opt_db.execute(QUERY))
