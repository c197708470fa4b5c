"""Tests for the model-graph IR: structure, ops, runtime, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flock.errors import GraphError
from flock.mlgraph import (
    Graph,
    GraphRuntime,
    Node,
    TensorSpec,
    graph_from_dict,
    graph_to_dict,
)
from flock.mlgraph.ops import lookup, registered_ops


def _linear_graph(weights, bias) -> Graph:
    names = [f"x{i}" for i in range(len(weights))]
    return Graph(
        name="lin",
        inputs=[TensorSpec(n) for n in names],
        outputs=[TensorSpec("score")],
        nodes=[
            Node("pack", names, ["features"]),
            Node(
                "linear",
                ["features"],
                ["score"],
                {"weights": list(weights), "bias": bias},
            ),
        ],
        output_kinds={"score": "score"},
    )


class TestGraphStructure:
    def test_validation_catches_cycles(self):
        with pytest.raises(GraphError):
            Graph(
                "bad",
                inputs=[TensorSpec("x")],
                outputs=[TensorSpec("a")],
                nodes=[
                    Node("add", ["x", "b"], ["a"]),
                    Node("add", ["a", "x"], ["b"]),
                ],
            )

    def test_duplicate_producer_rejected(self):
        with pytest.raises(GraphError):
            Graph(
                "bad",
                inputs=[TensorSpec("x")],
                outputs=[TensorSpec("y")],
                nodes=[
                    Node("sigmoid", ["x"], ["y"]),
                    Node("relu", ["x"], ["y"]),
                ],
            )

    def test_missing_output_rejected(self):
        with pytest.raises(GraphError):
            Graph("bad", [TensorSpec("x")], [TensorSpec("nope")], [])

    def test_invalid_dtype(self):
        with pytest.raises(GraphError):
            TensorSpec("x", "complex")

    def test_toposort_orders_dependencies(self):
        graph = _linear_graph([1.0, 2.0], 0.0)
        ordered = [n.op_type for n in graph.toposorted()]
        assert ordered == ["pack", "linear"]

    def test_output_field_names_prefer_kinds(self):
        graph = _linear_graph([1.0], 0.0)
        assert graph.output_field_names() == [("score", "score")]


class TestOps:
    def test_registry_contains_all_core_ops(self):
        ops = registered_ops()
        for name in (
            "pack", "linear", "sigmoid", "tree_ensemble", "onehot",
            "scale", "impute", "text_hash", "threshold", "label_map",
            "argmax", "concat", "pick_column", "slice_columns",
        ):
            assert name in ops

    def test_unknown_op(self):
        with pytest.raises(GraphError):
            lookup("flux_capacitor")

    def test_scale_op(self):
        impl = lookup("scale")
        (out,) = impl(
            {"offset": [1.0, 0.0], "divisor": [2.0, 1.0]},
            [np.array([[3.0, 5.0]])],
        )
        assert out.tolist() == [[1.0, 5.0]]

    def test_impute_op(self):
        impl = lookup("impute")
        (out,) = impl(
            {"statistics": [9.0]}, [np.array([[np.nan], [2.0]])]
        )
        assert out.tolist() == [[9.0], [2.0]]

    def test_onehot_unknowns(self):
        impl = lookup("onehot")
        (out,) = impl(
            {"categories": ["a", "b"]},
            [np.array(["b", "zzz"], dtype=object)],
        )
        assert out.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_threshold_and_label_map(self):
        (idx,) = lookup("threshold")({"cutoff": 0.5}, [np.array([0.4, 0.9])])
        assert idx.tolist() == [0, 1]
        (labels,) = lookup("label_map")(
            {"labels": ["no", "yes"]}, [idx]
        )
        assert labels.tolist() == ["no", "yes"]

    def test_tree_ensemble_sum_and_average(self):
        stump = {
            "feature": 0,
            "threshold": 0.0,
            "left": {"value": [1.0], "left": None, "right": None},
            "right": {"value": [5.0], "left": None, "right": None},
        }
        X = np.array([[-1.0], [1.0]])
        impl = lookup("tree_ensemble")
        (summed,) = impl(
            {"trees": [stump, stump], "aggregation": "sum", "scale": 0.5,
             "init": 10.0},
            [X],
        )
        assert summed.tolist() == [11.0, 15.0]
        (averaged,) = impl(
            {"trees": [stump, stump], "aggregation": "average"}, [X]
        )
        assert averaged.tolist() == [1.0, 5.0]

    def test_sigmoid_matches_the_masked_formula(self):
        """Bit for bit the two-branch formula it replaced, which scattered
        ``1/(1+exp(-z))`` and ``exp(z)/(1+exp(z))`` through a mask."""
        z = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 710.0, -710.0, 745.2,
             -745.2, 1e-300, -1e-300],
            np.random.default_rng(0).normal(scale=12.0, size=2000),
        ])
        want = np.empty_like(z)
        positive = z >= 0
        want[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
        exp_z = np.exp(z[~positive])
        want[~positive] = exp_z / (1.0 + exp_z)
        with np.errstate(over="raise", divide="raise"):  # exp never overflows
            (got,) = lookup("sigmoid")({}, [z])
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def _classifier_graph() -> Graph:
    """pack → linear → sigmoid → threshold → label_map."""
    return Graph(
        name="clf",
        inputs=[TensorSpec("x0"), TensorSpec("x1")],
        outputs=[TensorSpec("p"), TensorSpec("label", "int"),
                 TensorSpec("score")],
        nodes=[
            Node("pack", ["x0", "x1"], ["features"]),
            Node("linear", ["features"], ["score"],
                 {"weights": [1.0, -2.0], "bias": 0.25}),
            Node("sigmoid", ["score"], ["p"]),
            Node("threshold", ["p"], ["idx"]),
            Node("label_map", ["idx"], ["label"], {"labels": [0, 1]}),
        ],
        output_kinds={"p": "probability", "label": "label",
                      "score": "score"},
    )


class TestRuntime:
    def test_only_the_requested_outputs_run(self):
        graph = _classifier_graph()
        feeds = {"x0": np.array([0.0, 3.0]), "x1": np.array([1.0, 0.0])}
        rt = GraphRuntime()
        full = rt.run(graph, feeds)
        assert set(full) == {"p", "label", "score"}
        assert rt.stats.node_executions == 5
        got = rt.run(graph, feeds, outputs=["p"])
        assert list(got) == ["p"]
        assert got["p"].tobytes() == full["p"].tobytes()
        for i in range(2):
            row = {name: values[i : i + 1] for name, values in feeds.items()}
            alone = rt.run(graph, row, outputs=["p"])
            assert list(alone) == ["p"]
            assert alone["p"].tobytes() == full["p"][i : i + 1].tobytes()
        assert rt.stats.per_op.get("threshold") == 1
        assert rt.stats.per_op.get("label_map") == 1
        assert rt.run(graph, feeds, outputs=[]) == {}
        with pytest.raises(GraphError, match="not outputs"):
            rt.run(graph, feeds, outputs=["idx"])

    def test_linear_batch(self):
        graph = _linear_graph([2.0, -1.0], 0.5)
        rt = GraphRuntime()
        out = rt.run(
            graph, {"x0": np.array([1.0, 0.0]), "x1": np.array([0.0, 1.0])}
        )
        assert out["score"].tolist() == [2.5, -0.5]
        assert rt.stats.runs == 1
        assert rt.stats.rows == 2

    def test_per_row_equals_batch(self):
        graph = _linear_graph([1.5, 2.5], -1.0)
        feeds = {
            "x0": np.arange(10, dtype=float),
            "x1": np.arange(10, dtype=float)[::-1].copy(),
        }
        rt = GraphRuntime()
        batch = rt.run(graph, feeds)["score"]
        per_row = np.concatenate([
            rt.run(graph, {n: v[i : i + 1] for n, v in feeds.items()})["score"]
            for i in range(10)
        ])
        assert per_row.tobytes() == batch.tobytes()

    def test_missing_feed_rejected(self):
        graph = _linear_graph([1.0], 0.0)
        with pytest.raises(GraphError, match="missing"):
            GraphRuntime().run(graph, {})

    def test_ragged_feeds_rejected(self):
        graph = _linear_graph([1.0, 1.0], 0.0)
        with pytest.raises(GraphError, match="ragged"):
            GraphRuntime().run(
                graph, {"x0": np.zeros(2), "x1": np.zeros(3)}
            )


class TestSerialization:
    def test_roundtrip_preserves_results(self):
        graph = _linear_graph([0.25, 4.0], 2.0)
        payload = graph_to_dict(graph)
        import json

        restored = graph_from_dict(json.loads(json.dumps(payload)))
        feeds = {"x0": np.array([1.0]), "x1": np.array([2.0])}
        a = GraphRuntime().run(graph, feeds)["score"]
        b = GraphRuntime().run(restored, feeds)["score"]
        assert np.allclose(a, b)

    def test_version_checked(self):
        payload = graph_to_dict(_linear_graph([1.0], 0.0))
        payload["format_version"] = 99
        with pytest.raises(GraphError):
            graph_from_dict(payload)

    def test_file_roundtrip(self, tmp_path):
        from flock.mlgraph import load_graph, save_graph

        graph = _linear_graph([1.0], 0.0)
        path = tmp_path / "model.json"
        save_graph(graph, path)
        restored = load_graph(path)
        assert restored.name == "lin"

    @settings(deadline=None, max_examples=20)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=5),
        st.floats(-10, 10),
    )
    def test_roundtrip_property(self, weights, bias):
        graph = _linear_graph(weights, bias)
        restored = graph_from_dict(graph_to_dict(graph))
        feeds = {
            f"x{i}": np.linspace(-1, 1, 7) for i in range(len(weights))
        }
        a = GraphRuntime().run(graph, feeds)["score"]
        b = GraphRuntime().run(restored, feeds)["score"]
        assert np.allclose(a, b)
