"""Property-based tests for the inference layer's equivalences.

These are the invariants the whole Figure 4 result rests on: however the
cross-optimizer rewrites a model — inlined to SQL expressions, compressed
against data statistics, pruned of unused inputs — the numbers that come out
are the numbers the original graph produces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flock.db.expr import BoundColumn
from flock.db.types import DataType
from flock.db.vector import Batch, ColumnVector
from flock.inference.compression import compress_graph
from flock.inference.udf import inline_graph
from flock.mlgraph import GraphRuntime
from flock.mlgraph.analysis import used_inputs
from flock.mlgraph.graph import Graph, Node, TensorSpec

# An overflow or invalid value in these equivalences is a fault, not
# noise: an inlined sigmoid whose EXP overflows reads 0.0 where the graph
# reads a subnormal.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _linear_pipeline_graph(weights, bias, offsets, divisors) -> Graph:
    names = [f"x{i}" for i in range(len(weights))]
    return Graph(
        "g",
        inputs=[TensorSpec(n) for n in names],
        outputs=[TensorSpec("probability")],
        nodes=[
            Node("pack", names, ["m"]),
            Node(
                "scale", ["m"], ["s"],
                {"offset": list(offsets), "divisor": list(divisors)},
            ),
            Node(
                "linear", ["s"], ["z"],
                {"weights": list(weights), "bias": bias},
            ),
            Node("sigmoid", ["z"], ["probability"]),
        ],
        output_kinds={"probability": "probability"},
    )


_weights = st.lists(
    st.floats(-5, 5).filter(lambda v: abs(v) > 1e-9 or v == 0.0),
    min_size=1,
    max_size=4,
)


@settings(deadline=None, max_examples=40)
@given(
    _weights,
    st.floats(-3, 3),
    st.data(),
)
def test_inline_matches_runtime_for_linear_pipelines(weights, bias, data):
    d = len(weights)
    offsets = data.draw(
        st.lists(st.floats(-10, 10), min_size=d, max_size=d)
    )
    divisors = data.draw(
        st.lists(st.floats(0.5, 10), min_size=d, max_size=d)
    )
    graph = _linear_pipeline_graph(weights, bias, offsets, divisors)

    rows = data.draw(
        st.lists(
            st.lists(st.floats(-100, 100), min_size=d, max_size=d),
            min_size=1,
            max_size=12,
        )
    )
    X = np.array(rows)
    feeds = {f"x{i}": X[:, i] for i in range(d)}
    runtime_out = GraphRuntime().run(graph, feeds)["probability"]

    exprs = inline_graph(
        graph,
        {
            f"x{i}": BoundColumn(i, DataType.FLOAT, f"x{i}")
            for i in range(d)
        },
    )
    assert exprs is not None
    batch = Batch(
        [f"x{i}" for i in range(d)],
        [
            ColumnVector.from_values(DataType.FLOAT, X[:, i].tolist())
            for i in range(d)
        ],
    )
    inline_out = exprs["probability"].evaluate(batch).values
    assert np.allclose(inline_out, runtime_out, atol=1e-12, equal_nan=True)


@st.composite
def _random_tree(draw, depth=0, n_features=2):
    if depth >= 3 or draw(st.booleans()):
        return {
            "value": [draw(st.floats(-10, 10))],
            "left": None,
            "right": None,
        }
    return {
        "feature": draw(st.integers(0, n_features - 1)),
        "threshold": draw(st.floats(-5, 5)),
        "left": draw(_random_tree(depth=depth + 1, n_features=n_features)),
        "right": draw(_random_tree(depth=depth + 1, n_features=n_features)),
    }


def _tree_graph(trees) -> Graph:
    return Graph(
        "t",
        inputs=[TensorSpec("a"), TensorSpec("b")],
        outputs=[TensorSpec("score")],
        nodes=[
            Node("pack", ["a", "b"], ["m"]),
            Node(
                "tree_ensemble", ["m"], ["score"],
                {"trees": trees, "aggregation": "sum", "scale": 1.0,
                 "init": 0.0},
            ),
        ],
        output_kinds={"score": "score"},
    )


@settings(deadline=None, max_examples=40)
@given(st.lists(_random_tree(), min_size=1, max_size=3), st.data())
def test_compression_exact_within_observed_ranges(trees, data):
    """Folding branches outside [lo, hi] never changes in-range results."""
    graph = _tree_graph(trees)
    lo_a = data.draw(st.floats(-4, 0))
    hi_a = data.draw(st.floats(0.1, 4))
    lo_b = data.draw(st.floats(-4, 0))
    hi_b = data.draw(st.floats(0.1, 4))
    compressed, _ = compress_graph(
        graph, {"a": (lo_a, hi_a), "b": (lo_b, hi_b)}
    )

    n = 25
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    feeds = {
        "a": rng.uniform(lo_a, hi_a, size=n),
        "b": rng.uniform(lo_b, hi_b, size=n),
    }
    original = GraphRuntime().run(graph, feeds)["score"]
    folded = GraphRuntime().run(compressed, feeds)["score"]
    assert np.allclose(original, folded)


@settings(deadline=None, max_examples=40)
@given(st.lists(_random_tree(), min_size=1, max_size=3), st.data())
def test_tree_inlining_matches_runtime(trees, data):
    graph = _tree_graph(trees)
    exprs = inline_graph(
        graph,
        {
            "a": BoundColumn(0, DataType.FLOAT, "a"),
            "b": BoundColumn(1, DataType.FLOAT, "b"),
        },
    )
    assert exprs is not None
    n = 20
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    X = rng.uniform(-6, 6, size=(n, 2))
    runtime_out = GraphRuntime().run(
        graph, {"a": X[:, 0], "b": X[:, 1]}
    )["score"]
    batch = Batch(
        ["a", "b"],
        [
            ColumnVector.from_values(DataType.FLOAT, X[:, 0].tolist()),
            ColumnVector.from_values(DataType.FLOAT, X[:, 1].tolist()),
        ],
    )
    inline_out = exprs["score"].evaluate(batch).values
    assert np.allclose(inline_out, runtime_out)


@settings(deadline=None, max_examples=40)
@given(_weights)
def test_pruning_soundness_property(weights):
    """An input is reported unused iff its weight is exactly zero."""
    graph = Graph(
        "g",
        inputs=[TensorSpec(f"x{i}") for i in range(len(weights))],
        outputs=[TensorSpec("score")],
        nodes=[
            Node("pack", [f"x{i}" for i in range(len(weights))], ["m"]),
            Node("linear", ["m"], ["score"],
                 {"weights": list(weights), "bias": 0.0}),
        ],
        output_kinds={"score": "score"},
    )
    used = used_inputs(graph)
    for i, w in enumerate(weights):
        if w == 0.0:
            assert f"x{i}" not in used
        else:
            assert f"x{i}" in used


_SIGMOID_GRAPH = Graph(
    "g",
    inputs=[TensorSpec("z")],
    outputs=[TensorSpec("probability")],
    nodes=[Node("sigmoid", ["z"], ["probability"])],
    output_kinds={"probability": "probability"},
)
#: Past exp's overflow (-709.78), in the subnormal tail (-745.2), both
#: zeros, both infinities and NaN.
_SIGMOID_EDGES = [-720.0, -745.2, 0.0, -0.0, np.inf, -np.inf, np.nan]


def _inlined_sigmoid(z: np.ndarray) -> np.ndarray:
    exprs = inline_graph(
        _SIGMOID_GRAPH, {"z": BoundColumn(0, DataType.FLOAT, "z")}
    )
    assert exprs is not None
    column = ColumnVector(DataType.FLOAT, z, np.zeros(len(z), dtype=bool))
    return exprs["probability"].evaluate(Batch(["z"], [column])).values


def test_inlined_sigmoid_is_the_graph_sigmoid_at_the_edges():
    rng = np.random.default_rng(5)
    z = np.concatenate([_SIGMOID_EDGES, rng.normal(0.0, 30.0, 10_000)])
    want = GraphRuntime().run(_SIGMOID_GRAPH, {"z": z})["probability"]
    got = _inlined_sigmoid(z)
    assert got.tobytes() == want.tobytes()
    assert want[0] == pytest.approx(np.exp(-720.0), rel=1e-12)
    assert want[0] > 0.0


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_inlined_sigmoid_is_the_graph_sigmoid(zs):
    z = np.array(zs, dtype=np.float64)
    want = GraphRuntime().run(_SIGMOID_GRAPH, {"z": z})["probability"]
    assert _inlined_sigmoid(z).tobytes() == want.tobytes()


def test_inlined_predict_far_below_zero_matches_the_runtime():
    """An inlined PREDICT and a runtime-scored one of the same stored rows
    return the same bits, at z = -720 too, with no overflow warning."""
    from flock import create_database
    from flock.inference import CrossOptimizer

    graph = Graph(
        "m",
        inputs=[TensorSpec("x")],
        outputs=[TensorSpec("probability")],
        nodes=[
            Node("pack", ["x"], ["v"]),
            Node("linear", ["v"], ["z"], {"weights": [1.0], "bias": 0.0}),
            Node("sigmoid", ["z"], ["probability"]),
        ],
        output_kinds={"probability": "probability"},
    )
    results = {}
    for inline in (True, False):
        database, registry = create_database(
            CrossOptimizer(enable_inlining=inline)
        )
        database.execute("CREATE TABLE t (k INTEGER, x FLOAT)")
        database.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(1, -720.0), (2, -745.2), (3, -3.5), (4, 0.0), (5, 2.25)],
        )
        registry.deploy("m", graph)
        plan = database.explain("SELECT PREDICT(m) FROM t")
        assert ("Predict(" in plan) is not inline
        results[inline] = np.array(
            database.execute(
                "SELECT PREDICT(m) AS p FROM t ORDER BY k"
            ).column("p"),
            dtype=np.float64,
        )
    assert results[True].tobytes() == results[False].tobytes()
    assert results[True][0] > 0.0
