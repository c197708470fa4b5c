"""In-DBMS inference tests: PREDICT semantics and the cross-optimizer.

The golden property throughout: whatever the cross-optimizer does —
compression, input pruning, UDF inlining, strategy switching — the
predictions match the Python pipeline exactly.
"""

import numpy as np
import pytest

from flock import create_database
from flock.errors import BindError
from flock.inference import CrossOptimizer
from flock.inference.selection import choose_strategy, estimate_costs
from flock.ml import (
    GradientBoostingClassifier,
    LinearRegression,
    LogisticRegression,
    Pipeline,
    StandardScaler,
)
from flock.ml.datasets import load_dataset_into, make_loans
from flock.mlgraph import to_graph


class TestPredictSQL:
    def test_predict_matches_python(self, loan_setup):
        database, registry, dataset, pipeline = loan_setup
        rows = database.execute(
            "SELECT applicant_id, PREDICT(loan_model) AS p FROM loans "
            "ORDER BY applicant_id"
        ).rows()
        expected = pipeline.predict_proba(dataset.feature_matrix())[:, 1]
        got = np.array([p for _, p in rows])
        assert np.allclose(got, expected)

    def test_predict_with_explicit_args(self, loan_setup):
        database, *_ = loan_setup
        result = database.execute(
            "SELECT PREDICT(loan_model, income, credit_score, loan_amount, "
            "debt_ratio, years_employed) AS p FROM loans LIMIT 5"
        )
        assert result.row_count == 5

    def test_predict_with_output_selector(self, loan_setup):
        database, *_ = loan_setup
        labels = database.execute(
            "SELECT PREDICT(loan_model) WITH label AS verdict FROM loans"
        ).column("verdict")
        assert set(labels) <= {0, 1}

    def test_predict_in_where_only(self, loan_setup):
        database, registry, dataset, pipeline = loan_setup
        n = database.execute(
            "SELECT COUNT(*) FROM loans WHERE PREDICT(loan_model) > 0.8"
        ).scalar()
        expected = int(
            (pipeline.predict_proba(dataset.feature_matrix())[:, 1] > 0.8).sum()
        )
        assert n == expected

    def test_predict_wrong_arity(self, loan_setup):
        database, *_ = loan_setup
        with pytest.raises(BindError):
            database.execute("SELECT PREDICT(loan_model, income) FROM loans")

    def test_unknown_model(self, loan_setup):
        database, *_ = loan_setup
        with pytest.raises(BindError, match="unknown model"):
            database.execute("SELECT PREDICT(ghost) FROM loans")

    def test_unknown_output(self, loan_setup):
        database, *_ = loan_setup
        with pytest.raises(BindError):
            database.execute(
                "SELECT PREDICT(loan_model) WITH volume FROM loans"
            )

    def test_predict_composes_with_sql(self, loan_setup):
        database, registry, dataset, pipeline = loan_setup
        rows = database.execute(
            "SELECT region, COUNT(*) AS n, AVG(PREDICT(loan_model)) AS avg_p "
            "FROM loans GROUP BY region ORDER BY region"
        ).rows()
        assert len(rows) == 4
        assert all(0.0 <= r[2] <= 1.0 for r in rows)


class TestCrossOptimizerEquivalence:
    CONFIGS = [
        {"enable_compression": False, "enable_pruning": False,
         "enable_inlining": False, "enable_strategy_selection": False},
        {"enable_compression": True, "enable_pruning": False,
         "enable_inlining": False, "enable_strategy_selection": False},
        {"enable_compression": False, "enable_pruning": True,
         "enable_inlining": False, "enable_strategy_selection": False},
        {"enable_compression": False, "enable_pruning": False,
         "enable_inlining": True, "enable_strategy_selection": False},
        {"enable_compression": True, "enable_pruning": True,
         "enable_inlining": True, "enable_strategy_selection": True},
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_every_configuration_same_answers(self, config):
        dataset = make_loans(150, random_state=1)
        pipeline = Pipeline(
            [("s", StandardScaler()), ("m", LogisticRegression(max_iter=150))]
        ).fit(dataset.feature_matrix(), dataset.target_vector())
        database, registry = create_database(CrossOptimizer(**config))
        load_dataset_into(database, dataset)
        registry.deploy(
            "m", to_graph(pipeline, dataset.feature_names, name="m")
        )
        rows = database.execute(
            "SELECT applicant_id, PREDICT(m) AS p FROM loans "
            "WHERE PREDICT(m) > 0.3 ORDER BY applicant_id"
        ).rows()
        probs = pipeline.predict_proba(dataset.feature_matrix())[:, 1]
        expected = [
            (i + 1, p) for i, p in enumerate(probs) if p > 0.3
        ]
        assert len(rows) == len(expected)
        for (got_id, got_p), (want_id, want_p) in zip(rows, expected):
            assert got_id == want_id
            assert got_p == pytest.approx(want_p, abs=1e-9)

    def test_gbm_not_inlined_but_exact(self):
        dataset = make_loans(120, random_state=2)
        gbm = GradientBoostingClassifier(
            n_estimators=30, random_state=0
        ).fit(dataset.feature_matrix(), dataset.target_vector())
        database, registry = create_database()
        load_dataset_into(database, dataset)
        registry.deploy("gbm", to_graph(gbm, dataset.feature_names, name="gbm"))
        got = database.execute(
            "SELECT PREDICT(gbm) AS p FROM loans ORDER BY applicant_id"
        ).column("p")
        expected = gbm.predict_proba(dataset.feature_matrix())[:, 1]
        assert np.allclose(got, expected)
        # Big ensembles stay as Predict operators (not inlined).
        plan_text = database.explain("SELECT PREDICT(gbm) FROM loans")
        assert "Predict(" in plan_text

    def test_rejected_inlining_is_not_retried(self, monkeypatch):
        """A graph over the inlining budget is tried once per cached
        compressed graph, not once per statement."""
        from flock.inference import udf

        dataset = make_loans(120, random_state=2)
        gbm = GradientBoostingClassifier(
            n_estimators=30, random_state=0
        ).fit(dataset.feature_matrix(), dataset.target_vector())
        database, registry = create_database()
        load_dataset_into(database, dataset)
        registry.deploy("gbm", to_graph(gbm, dataset.feature_names, name="gbm"))
        calls = []
        inline_tree = udf._inline_tree

        def counted(*args):
            calls.append(args)
            return inline_tree(*args)

        monkeypatch.setattr(udf, "_inline_tree", counted)
        sql = "SELECT PREDICT(gbm) AS p FROM loans WHERE applicant_id < 10"
        first = database.explain(sql)
        first_report = list(database.cross_optimizer.last_report)
        assert calls
        calls.clear()
        assert database.explain(sql) == first
        assert calls == []
        assert database.cross_optimizer.last_report == first_report


class TestInliningAndPushup:
    def test_linear_model_disappears_from_plan(self, loan_setup):
        database, *_ = loan_setup
        plan_text = database.explain(
            "SELECT PREDICT(loan_model) AS p FROM loans WHERE "
            "PREDICT(loan_model) > 0.9"
        )
        assert "Predict(" not in plan_text  # fully inlined
        assert "Filter" in plan_text
        assert "EXP" in plan_text  # the sigmoid became SQL arithmetic

    def test_report_mentions_inlining(self, loan_setup):
        database, *_ = loan_setup
        database.execute("SELECT PREDICT(loan_model) FROM loans LIMIT 1")
        assert any(
            "inlined" in line for line in database.cross_optimizer.last_report
        )

    def test_pushup_evaluates_model_once(self, loan_setup):
        """After inlining, the predicate over the prediction filters the
        inlined projection: the model expression appears (and is evaluated)
        exactly once — no model runtime, no double evaluation."""
        database, *_ = loan_setup
        plan_text = database.explain(
            "SELECT applicant_id FROM loans WHERE PREDICT(loan_model) > 0.9"
        )
        assert "Predict(" not in plan_text
        # The sigmoid expression (EXP) occurs once in the whole plan.
        assert plan_text.count("EXP") == 1
        # And the filter sits over the projection that computes it.
        lines = [l.strip() for l in plan_text.splitlines()]
        filter_index = next(
            i for i, l in enumerate(lines) if l.startswith("Filter(")
        )
        assert lines[filter_index + 1].startswith("Project(")


class TestPruning:
    def test_sparse_model_narrows_scan(self):
        dataset = make_loans(150, random_state=3)
        X = dataset.feature_matrix()
        y = dataset.target_vector()
        model = LogisticRegression(max_iter=150).fit(X, y)
        # Make the model provably ignore three features.
        model.coef_[2] = 0.0
        model.coef_[3] = 0.0
        model.coef_[4] = 0.0
        database, registry = create_database(
            CrossOptimizer(enable_inlining=False)
        )
        load_dataset_into(database, dataset)
        registry.deploy(
            "sparse", to_graph(model, dataset.feature_names, name="sparse")
        )
        plan_text = database.explain("SELECT PREDICT(sparse) AS p FROM loans")
        scan_line = [l for l in plan_text.splitlines() if "Scan(" in l][0]
        assert "loan_amount" not in scan_line
        assert "debt_ratio" not in scan_line
        assert "income" in scan_line
        # And predictions still match.
        got = database.execute(
            "SELECT PREDICT(sparse) AS p FROM loans ORDER BY applicant_id"
        ).column("p")
        assert np.allclose(got, model.predict_proba(X)[:, 1])

    def test_report_mentions_pruning(self):
        dataset = make_loans(100, random_state=4)
        model = LogisticRegression(max_iter=100).fit(
            dataset.feature_matrix(), dataset.target_vector()
        )
        model.coef_[0] = 0.0
        database, registry = create_database(
            CrossOptimizer(enable_inlining=False)
        )
        load_dataset_into(database, dataset)
        registry.deploy(
            "m", to_graph(model, dataset.feature_names, name="m")
        )
        database.execute("SELECT PREDICT(m) FROM loans LIMIT 1")
        assert any(
            "pruned" in line for line in database.cross_optimizer.last_report
        )


class TestStrategySelection:
    def test_batch_for_large_row_udf_for_tiny(self):
        dataset = make_loans(60, random_state=5)
        model = LinearRegression().fit(
            dataset.feature_matrix(), dataset.target_vector().astype(float)
        )
        graph = to_graph(model, dataset.feature_names, name="m")
        assert choose_strategy(100_000, graph) == "batch"
        assert choose_strategy(1, graph) == "row_udf"

    def test_costs_monotone_in_rows(self):
        dataset = make_loans(60, random_state=6)
        model = LinearRegression().fit(
            dataset.feature_matrix(), dataset.target_vector().astype(float)
        )
        graph = to_graph(model, dataset.feature_names, name="m")
        small = estimate_costs(10, graph)
        large = estimate_costs(10_000, graph)
        assert large.batch_cost > small.batch_cost
        assert large.row_udf_cost > small.row_udf_cost

    def test_row_udf_execution_correct(self):
        dataset = make_loans(50, random_state=7)
        gbm = GradientBoostingClassifier(n_estimators=5, random_state=0).fit(
            dataset.feature_matrix(), dataset.target_vector()
        )
        database, registry = create_database(
            CrossOptimizer(
                enable_inlining=False, enable_strategy_selection=False
            )
        )
        load_dataset_into(database, dataset)
        registry.deploy("m", to_graph(gbm, dataset.feature_names, name="m"))

        # Force row_udf by planning manually.
        from flock.db.plan import PredictNode

        class ForcedRowUDF(CrossOptimizer):
            def apply(self, plan, context):
                plan = super().apply(plan, context)
                for node in plan.walk():
                    if isinstance(node, PredictNode):
                        node.strategy = "row_udf"
                return plan

        database.optimizer.extra_rules = [
            ForcedRowUDF(
                enable_inlining=False, enable_strategy_selection=False
            ).apply
        ]
        got = database.execute(
            "SELECT PREDICT(m) AS p FROM loans ORDER BY applicant_id"
        ).column("p")
        expected = gbm.predict_proba(dataset.feature_matrix())[:, 1]
        assert np.allclose(got, expected)
