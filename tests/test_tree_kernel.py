"""The compiled tree-ensemble scorer against the dict walker it replaced.

``flock.mlgraph.ops.trees.CompiledEnsemble`` scores a batch by a scalar
walk (few rows), QuickScorer bitvectors (trees with ≤64 leaves) or the
reference :func:`eval_tree_dict` (bigger trees). Whichever path runs,
every tree's output must equal ``eval_tree_dict`` to the bit — NaN goes
right (``x <= t`` is false for NaN), ``-0.0 <= 0.0`` goes left, a value
equal to its threshold goes left — and the ensemble's ``sum``/``average``
must equal the tree outputs added one by one in tree order, bit for bit,
so a row scores the same alone as inside any batch.

``FLOCK_TREE_EXAMPLES`` raises the example count (CI runs it at depth).
"""

from __future__ import annotations

import math
import os
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flock.ml import GradientBoostingClassifier, RandomForestClassifier
from flock.ml.datasets import make_loans
from flock.mlgraph import GraphRuntime, to_graph
from flock.mlgraph.ops import lookup, trees
from flock.mlgraph.ops.trees import CompiledEnsemble, eval_tree_dict

EXAMPLES = int(os.environ.get("FLOCK_TREE_EXAMPLES", "100"))

CROSS = trees.SCALAR_MAX_ROWS
#: Row counts: empty, one row, either side of the scalar/bitvector
#: crossover, and a batch well past it.
ROW_COUNTS = [0, 1, CROSS - 1, CROSS, CROSS + 1, 300]

#: Special inputs every matrix draws from beside its thresholds.
SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, -1e300]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def _leaf(value: list[float]) -> dict:
    return {"value": value, "left": None, "right": None}


def _tree(rng, n_features, thresholds, width, depth, full=False) -> dict:
    """A random tree of at most *depth*; ``full`` makes it complete."""
    if depth == 0 or (not full and rng.random() < 0.3):
        return _leaf(rng.normal(size=width).tolist())
    return {
        "feature": int(rng.integers(n_features)),
        "threshold": thresholds[rng.integers(len(thresholds))],
        "left": _tree(rng, n_features, thresholds, width, depth - 1, full),
        "right": _tree(rng, n_features, thresholds, width, depth - 1, full),
    }


@st.composite
def _case(draw, shape=None):
    """(trees, matrix): an ensemble and a batch with NaN, ±inf, ±0.0 and
    exact threshold values among its inputs."""
    n_features = draw(st.integers(1, 4))
    thresholds = draw(st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.5, -2.0, math.inf, -math.inf]),
            st.floats(-5, 5, allow_nan=False),
        ),
        min_size=1, max_size=6,
    ))
    width = draw(st.sampled_from([1, 1, 3]))
    shape = shape or draw(st.sampled_from(["random", "stump", "big"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def tree(depth, full=False):
        return _tree(rng, n_features, thresholds, width, depth, full)

    if shape == "stump":  # what compression folds a tree to
        ensemble = [_leaf(rng.normal(size=width).tolist()), tree(3)]
    elif shape == "big":  # >64 leaves beside 9-64 and ≤8 leaf trees
        ensemble = [tree(7, full=True), tree(5, full=True), tree(3)]
    else:
        ensemble = [
            tree(draw(st.integers(0, 6))) for _ in range(draw(st.integers(1, 5)))
        ]
    # Duplicated tests across trees: the ensemble repeats one tree.
    if draw(st.booleans()):
        ensemble.append(ensemble[0])
    n_rows = draw(st.sampled_from(ROW_COUNTS))
    pool = np.array(SPECIALS + thresholds + draw(st.lists(
        st.floats(-6, 6, allow_nan=False), max_size=4,
    )))
    matrix = rng.choice(pool, size=(n_rows, n_features))
    return ensemble, matrix


def _stack_and_sum(ensemble, matrix, aggregation, scale=0.1, init=-0.25):
    """The reference scorer: walk each dict tree and add the outputs in
    tree order; ``average`` is that sum over the tree count."""
    total = eval_tree_dict(ensemble[0], matrix)
    for tree in ensemble[1:]:
        total = total + eval_tree_dict(tree, matrix)
    if aggregation == "sum":
        combined = init + scale * total
    else:
        combined = total / len(ensemble)
    return combined[:, 0] if combined.shape[1] == 1 else combined


@contextmanager
def _route(path: str):
    """Route by row count, force every batch down one path, or score in
    blocks of ``CROSS + 1`` rows, so a 300-row batch is three bitvector
    blocks and a scalar one."""
    saved = trees.SCALAR_MAX_ROWS, trees.BLOCK_ROWS
    trees.SCALAR_MAX_ROWS, trees.BLOCK_ROWS = {
        "routed": saved, "scalar": (10**9, saved[1]),
        "bitvector": (0, saved[1]), "blocked": (saved[0], CROSS + 1),
    }[path]
    try:
        yield
    finally:
        trees.SCALAR_MAX_ROWS, trees.BLOCK_ROWS = saved


PATHS = pytest.mark.parametrize("path", ["routed", "scalar", "bitvector"])


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@PATHS
@settings(max_examples=EXAMPLES, deadline=None)
@given(case=_case())
def test_every_tree_matches_the_walker(path, case):
    ensemble, matrix = case
    with _route(path):
        # Copy each output: the bitvector path reuses one buffer.
        outputs = [
            out.copy()
            for out in CompiledEnsemble({"trees": ensemble}).outputs(matrix)
        ]
    assert len(outputs) == len(ensemble)
    for out, tree in zip(outputs, ensemble):
        assert np.array_equal(out, eval_tree_dict(tree, matrix))


@pytest.mark.parametrize(
    "path", ["routed", "scalar", "bitvector", "blocked"]
)
@settings(max_examples=EXAMPLES, deadline=None)
@given(case=_case(), aggregation=st.sampled_from(["sum", "average"]))
def test_ensemble_is_bit_equal_to_stack_and_sum(path, case, aggregation):
    ensemble, matrix = case
    attrs = {"trees": ensemble, "aggregation": aggregation,
             "scale": 0.1, "init": -0.25}
    with _route(path):
        (got,) = lookup("tree_ensemble")(attrs, [matrix])
    expected = _stack_and_sum(ensemble, matrix, aggregation)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=max(EXAMPLES // 5, 10), deadline=None)
@given(case=_case(shape="big"))
def test_trees_past_64_leaves_use_the_walker(case):
    ensemble, _ = case
    compiled = CompiledEnsemble({"trees": ensemble})
    assert [t.mask_dtype for t in compiled.trees[:2]] == [None, np.int32]


def test_nan_goes_right_and_ties_go_left():
    stump = {"feature": 0, "threshold": 0.0,
             "left": _leaf([1.0]), "right": _leaf([2.0])}
    matrix = np.array([[math.nan], [0.0], [-0.0], [1e-300], [-math.inf]])
    expected = [2.0, 1.0, 1.0, 2.0, 1.0]
    for n in (1, CROSS + 1):  # the scalar and the bitvector path
        (got,) = CompiledEnsemble({"trees": [stump]})(
            [np.repeat(matrix, n, axis=0)]
        )
        assert got.tolist() == [v for v in expected for _ in range(n)]


def test_batch_memory_is_linear_in_rows():
    """20 000 rows through 40 trees peak at a few (n, width) float arrays
    plus one byte per row per distinct test, never at a (trees, n, width)
    stack: the trees add into a running total."""
    rng = np.random.default_rng(5)
    ensemble = [
        _tree(rng, 4, [-1.0, 0.0, 1.0], 1, 3, full=True) for _ in range(40)
    ]
    n = 20_000
    matrix = np.asfortranarray(rng.normal(size=(n, 4)))
    compiled = CompiledEnsemble({"trees": ensemble})
    assert n >= CROSS and len(compiled.tests) <= 12
    tracemalloc.start()
    try:
        compiled([matrix])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_output = n * 1 * 8
    assert peak <= 5 * one_output + len(compiled.tests) * n, peak


# ----------------------------------------------------------------------
# Fitted models through the runtime
# ----------------------------------------------------------------------
def _reference_run(graph, feeds):
    """*graph* run node by node with the former tree scorer."""
    tensors = dict(feeds)
    for node in graph.toposorted():
        inputs = [tensors[name] for name in node.inputs]
        attrs = node.attrs
        if node.op_type == "tree_ensemble":
            outputs = [_stack_and_sum(
                attrs["trees"], np.asarray(inputs[0], dtype=np.float64),
                attrs.get("aggregation", "sum"),
                float(attrs.get("scale", 1.0)), float(attrs.get("init", 0.0)),
            )]
        else:
            outputs = lookup(node.op_type)(attrs, inputs)
        tensors.update(zip(node.outputs, outputs))
    return {name: tensors[name] for name in graph.output_names}


def _forbidden(tree, matrix):
    raise AssertionError("eval_tree_dict called for a tree with ≤64 leaves")


@pytest.mark.parametrize("model", [
    GradientBoostingClassifier(n_estimators=10, random_state=0),
    RandomForestClassifier(n_estimators=4, random_state=0),
], ids=["gbm", "forest"])
def test_fitted_models_are_bit_equal_through_the_runtime(model, monkeypatch):
    data = make_loans(400, random_state=7)
    names, X = data.feature_names, data.feature_matrix()
    graph = to_graph(model.fit(X, data.target_vector()), names, name="m")
    X = X.copy()
    X[::7, 1] = np.nan  # NULL feeds
    feeds = {name: X[:, i] for i, name in enumerate(names)}
    expected = _reference_run(graph, feeds)
    node = next(n for n in graph.nodes if n.op_type == "tree_ensemble")
    if all(len(t.leaves) <= 64 for t in CompiledEnsemble(node.attrs).trees):
        monkeypatch.setattr(trees, "eval_tree_dict", _forbidden)
    runtime = GraphRuntime()
    batch = runtime.run(graph, feeds)
    for tensor, want in expected.items():
        _assert_identical(batch[tensor], want)
    per_row = _run_each_row(
        runtime, graph, {name: values[:40] for name, values in feeds.items()}
    )
    for tensor, want in expected.items():
        _assert_identical(per_row[tensor], want[:40])


@pytest.mark.parametrize("model", [
    GradientBoostingClassifier(n_estimators=40, random_state=0),
    RandomForestClassifier(n_estimators=20, random_state=0),
], ids=["gbm", "forest"])
def test_a_row_scores_the_same_alone_and_in_a_batch(model):
    """A key served alone (the scalar walk) and the same key inside a
    300-row batch (the bitvector path) get the same bits: the tree axis
    is reduced in one fixed order whatever the row count."""
    data = make_loans(300, random_state=11)
    names, X = data.feature_names, data.feature_matrix()
    graph = to_graph(model.fit(X, data.target_vector()), names, name="m")
    feeds = {name: X[:, i] for i, name in enumerate(names)}
    runtime = GraphRuntime()
    batch = runtime.run(graph, feeds)
    alone = _run_each_row(runtime, graph, feeds)
    for tensor, want in batch.items():
        _assert_identical(alone[tensor], want)


def _run_each_row(runtime, graph, feeds) -> dict[str, np.ndarray]:
    """Every row scored alone, as one-row runs, concatenated per output."""
    n_rows = len(next(iter(feeds.values())))
    runs = [
        runtime.run(graph, {name: v[i : i + 1] for name, v in feeds.items()})
        for i in range(n_rows)
    ]
    return {
        tensor: np.concatenate([run[tensor] for run in runs])
        for tensor in runs[0]
    }


def _assert_identical(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    if want.dtype.kind == "f":
        assert got.tobytes() == want.tobytes()
    else:
        assert np.array_equal(got, want)


def test_one_graph_compiles_once_under_concurrent_runs(monkeypatch):
    data = make_loans(300, random_state=3)
    names, X = data.feature_names, data.feature_matrix()
    graph = to_graph(
        GradientBoostingClassifier(n_estimators=5, random_state=0).fit(
            X, data.target_vector()
        ),
        names, name="gbm",
    )
    feeds = {name: X[:, i] for i, name in enumerate(names)}
    compiles = []
    init = CompiledEnsemble.__init__

    def slow_init(self, attrs):
        compiles.append(threading.get_ident())
        threading.Event().wait(0.05)  # hold the compile open for the race
        init(self, attrs)

    monkeypatch.setattr(CompiledEnsemble, "__init__", slow_init)
    runtime = GraphRuntime()
    start = threading.Barrier(2, timeout=30)
    results = [None, None]

    def score(slot):
        start.wait()
        results[slot] = runtime.run(graph, feeds)

    threads = [threading.Thread(target=score, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert len(compiles) == 1
    for tensor in results[0]:
        assert np.array_equal(results[0][tensor], results[1][tensor])
    runtime.run(graph, {name: values[:3] for name, values in feeds.items()})
    assert len(compiles) == 1
