"""Automatic pruning of unused input feature-columns (§4.1).

Model sparsity (zero linear weights, never-split-on tree features) means
some of a model's declared inputs provably cannot influence its outputs.
This pass drops those columns from the PredictNode's reads; the relational
projection-pruning pass then stops the scan from materializing them at all.
"""

from __future__ import annotations

from flock.db.plan import PredictNode
from flock.inference.predict import PreparedModel
from flock.mlgraph.analysis import used_inputs
from flock.mlgraph.graph import Graph


def prune_predict_inputs(
    node: PredictNode,
    graph: Graph,
    weight_tolerance: float = 0.0,
) -> PreparedModel:
    """A PreparedModel for *node* reading only the inputs the model uses.

    Pruned inputs are fed a constant 0.0 at scoring time — safe because the
    sparsity analysis proved the outputs do not depend on them. The node's
    ``input_indexes`` are narrowed in place.
    """
    used = used_inputs(graph, weight_tolerance)
    if not used and graph.input_names:
        # A batch with no columns has no rows: a model that reads nothing
        # (every tree folded to a leaf) keeps one input for the row count.
        used = {graph.input_names[0]}
    active_inputs: list[str] = []
    kept_indexes: list[int] = []
    constant_fill: dict[str, float] = {}
    for input_name, column_index in zip(graph.input_names, node.input_indexes):
        if input_name in used:
            active_inputs.append(input_name)
            kept_indexes.append(column_index)
        else:
            constant_fill[input_name] = 0.0
    node.input_indexes = kept_indexes
    notes = []
    if constant_fill:
        notes.append(
            f"pruned {len(constant_fill)} unused input column(s): "
            f"{sorted(constant_fill)}"
        )
    return PreparedModel(graph, active_inputs, constant_fill, notes)
