"""Shared fixtures for the flock test suite."""

from __future__ import annotations

import pytest

from flock import create_database
from flock.db import Database


@pytest.fixture
def db() -> Database:
    """A plain database (no model store)."""
    return Database()


@pytest.fixture
def emp_db() -> Database:
    """A database with a small employees table."""
    database = Database()
    database.execute(
        "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT NOT NULL, "
        "dept TEXT, salary FLOAT, hired DATE)"
    )
    database.execute(
        "INSERT INTO emp VALUES "
        "(1, 'ann', 'eng', 100.0, '2020-01-05'), "
        "(2, 'bob', 'eng', 90.0, '2021-03-01'), "
        "(3, 'cyd', 'hr', 70.0, '2019-07-20'), "
        "(4, 'dee', 'hr', NULL, '2022-02-02'), "
        "(5, 'eve', 'ops', 85.0, '2021-11-11')"
    )
    return database


@pytest.fixture
def ml_db():
    """(database, registry) wired with scorer + cross-optimizer."""
    return create_database()


@pytest.fixture
def loan_setup(ml_db):
    """Database with the loans table and a deployed logistic model.

    Returns (database, registry, dataset, pipeline).
    """
    from flock.ml import LogisticRegression, Pipeline, StandardScaler
    from flock.ml.datasets import load_dataset_into, make_loans
    from flock.mlgraph import to_graph

    database, registry = ml_db
    dataset = make_loans(200, random_state=0)
    load_dataset_into(database, dataset)
    pipeline = Pipeline(
        [
            ("scale", StandardScaler()),
            ("clf", LogisticRegression(max_iter=200)),
        ]
    ).fit(dataset.feature_matrix(), dataset.target_vector())
    graph = to_graph(pipeline, dataset.feature_names, name="loan_model")
    registry.deploy("loan_model", graph)
    return database, registry, dataset, pipeline
