"""UDF inlining: compiling small model graphs into SQL expressions.

The Froid-style optimization the paper combines with predicate push-up
(Figure 4's "SONNX-ext"): a linear model (or small tree ensemble) becomes an
ordinary arithmetic/CASE expression over the scan's columns, so the
relational optimizer can move predicates over predictions all the way into
the scan and the executor evaluates everything in one vectorized pass with
no model-runtime dispatch at all.
"""

from __future__ import annotations

import numpy as np

from flock.db.expr import (
    BoundBinary,
    BoundCase,
    BoundColumn,
    BoundExpr,
    BoundFunction,
    BoundLiteral,
)
from flock.db.functions import lookup_scalar
from flock.db.types import DataType
from flock.mlgraph.graph import Graph

DEFAULT_MAX_EXPR_NODES = 600


class _TooBig(Exception):
    """Internal: the inlined expression would exceed the node budget."""


class _InlineBuilder:
    """Builds BoundExprs from graph operators under a size budget."""

    def __init__(self, max_nodes: int):
        self.max_nodes = max_nodes
        self.count = 0

    def _charge(self, amount: int = 1) -> None:
        self.count += amount
        if self.count > self.max_nodes:
            raise _TooBig()

    # -- primitive constructors -----------------------------------------
    def lit(self, value: float) -> BoundLiteral:
        self._charge()
        return BoundLiteral(DataType.FLOAT, float(value))

    def int_lit(self, value: int) -> BoundLiteral:
        self._charge()
        return BoundLiteral(DataType.INTEGER, int(value))

    def binary(
        self, op: str, left: BoundExpr, right: BoundExpr, dtype: DataType
    ) -> BoundExpr:
        self._charge()
        return BoundBinary(op, left, right, dtype)

    def add(self, left: BoundExpr, right: BoundExpr) -> BoundExpr:
        return self.binary("+", left, right, DataType.FLOAT)

    def sub(self, left: BoundExpr, right: BoundExpr) -> BoundExpr:
        return self.binary("-", left, right, DataType.FLOAT)

    def mul(self, left: BoundExpr, right: BoundExpr) -> BoundExpr:
        return self.binary("*", left, right, DataType.FLOAT)

    def div(self, left: BoundExpr, right: BoundExpr) -> BoundExpr:
        return self.binary("/", left, right, DataType.FLOAT)

    def compare(self, op: str, left: BoundExpr, right: BoundExpr) -> BoundExpr:
        return self.binary(op, left, right, DataType.BOOLEAN)

    def call(self, name: str, args: list[BoundExpr]) -> BoundExpr:
        self._charge()
        scalar = lookup_scalar(name)
        dtype = scalar.return_type([a.dtype for a in args])
        return BoundFunction(scalar.name, args, dtype, scalar.impl)

    def case(
        self,
        branches: list[tuple[BoundExpr, BoundExpr]],
        default: BoundExpr,
        dtype: DataType,
    ) -> BoundExpr:
        self._charge()
        return BoundCase(branches, default, dtype)


def inline_graph(
    graph: Graph,
    input_exprs: dict[str, BoundExpr],
    max_nodes: int = DEFAULT_MAX_EXPR_NODES,
) -> dict[str, BoundExpr] | None:
    """Compile *graph* into one BoundExpr per output field.

    ``input_exprs`` maps graph input names to expressions over the child
    plan's columns (usually BoundColumns; pruned inputs get literals).
    Returns ``{field_name: expr}`` keyed like
    :meth:`Graph.output_field_names`, or None when the graph contains
    non-inlinable operators or would exceed *max_nodes* expression nodes.
    """
    builder = _InlineBuilder(max_nodes)
    tensors: dict[str, list[BoundExpr]] = {}
    try:
        for spec in graph.inputs:
            expr = input_exprs[spec.name]
            tensors[spec.name] = [expr]
        for node in graph.toposorted():
            result = _inline_node(builder, node, [tensors[n] for n in node.inputs])
            if result is None:
                return None
            for name, columns in zip(node.outputs, result):
                tensors[name] = columns
        out: dict[str, BoundExpr] = {}
        for field_name, tensor in graph.output_field_names():
            columns = tensors[tensor]
            if len(columns) != 1:
                return None  # matrix-valued outputs are not inlinable
            out[field_name] = columns[0]
        return out
    except _TooBig:
        return None
    except KeyError:
        return None


def _inline_node(
    builder: _InlineBuilder, node, inputs: list[list[BoundExpr]]
) -> list[list[BoundExpr]] | None:
    op = node.op_type
    attrs = node.attrs

    if op == "pack" or op == "concat":
        return [[e for columns in inputs for e in columns]]
    if op == "slice_columns":
        (matrix,) = inputs
        return [[matrix[i] for i in attrs["indices"]]]
    if op == "pick_column":
        (matrix,) = inputs
        return [[matrix[int(attrs["index"])]]]

    if op == "scale":
        (matrix,) = inputs
        offset = np.asarray(attrs["offset"], dtype=np.float64)
        divisor = np.asarray(attrs["divisor"], dtype=np.float64)
        out = []
        for j, column in enumerate(matrix):
            shifted = builder.sub(column, builder.lit(offset[j]))
            out.append(builder.div(shifted, builder.lit(divisor[j])))
        return [out]

    if op == "impute":
        (matrix,) = inputs
        statistics = np.asarray(attrs["statistics"], dtype=np.float64)
        out = []
        for j, column in enumerate(matrix):
            out.append(
                builder.call("COALESCE", [column, builder.lit(statistics[j])])
            )
        return [out]

    if op == "onehot":
        (column_list,) = inputs
        column = column_list[0]
        categories = list(attrs["categories"])
        out = []
        for category in categories:
            builder._charge(2)
            literal = BoundLiteral(
                DataType.TEXT if isinstance(category, str) else DataType.FLOAT,
                category,
            )
            condition = BoundBinary("=", column, literal, DataType.BOOLEAN)
            out.append(
                builder.case(
                    [(condition, builder.lit(1.0))],
                    builder.lit(0.0),
                    DataType.FLOAT,
                )
            )
        return [out]

    if op == "linear":
        (matrix,) = inputs
        weights = np.asarray(attrs["weights"], dtype=np.float64)
        bias = np.asarray(attrs["bias"], dtype=np.float64)
        if weights.ndim == 1:
            weights = weights.reshape(-1, 1)
            bias = bias.reshape(-1) if bias.ndim else np.array([float(bias)])
        out = []
        for k in range(weights.shape[1]):
            expr: BoundExpr = builder.lit(float(bias[k]) if bias.ndim else float(bias))
            for j, column in enumerate(matrix):
                w = weights[j, k]
                if w == 0.0:
                    continue  # inlining skips zero weights: pruning for free
                expr = builder.add(expr, builder.mul(builder.lit(w), column))
            out.append(expr)
        return [out]

    if op == "sigmoid":
        (operand,) = inputs
        return [[builder.call("SIGMOID", [z]) for z in operand]]

    if op == "threshold":
        (operand,) = inputs
        cutoff = float(attrs.get("cutoff", 0.5))
        out = []
        for z in operand:
            condition = builder.compare(">=", z, builder.lit(cutoff))
            out.append(
                builder.case(
                    [(condition, builder.int_lit(1))],
                    builder.int_lit(0),
                    DataType.INTEGER,
                )
            )
        return [out]

    if op == "label_map":
        (operand,) = inputs
        labels = list(attrs["labels"])
        index_expr = operand[0]
        dtype = (
            DataType.INTEGER
            if all(isinstance(label, int) for label in labels)
            else DataType.TEXT
        )
        branches = []
        for i, label in enumerate(labels[:-1]):
            condition = builder.compare("=", index_expr, builder.int_lit(i))
            builder._charge()
            branches.append((condition, BoundLiteral(dtype, label)))
        builder._charge()
        default = BoundLiteral(dtype, labels[-1])
        return [[builder.case(branches, default, dtype)]]

    if op == "tree_ensemble":
        (matrix,) = inputs
        trees = attrs["trees"]
        aggregation = attrs.get("aggregation", "sum")
        tree_exprs = []
        for tree in trees:
            expr = _inline_tree(builder, tree, matrix)
            if expr is None:
                return None
            tree_exprs.append(expr)
        combined = tree_exprs[0]
        for t in tree_exprs[1:]:
            combined = builder.add(combined, t)
        if aggregation == "sum":
            scale = float(attrs.get("scale", 1.0))
            init = float(attrs.get("init", 0.0))
            combined = builder.add(
                builder.lit(init), builder.mul(builder.lit(scale), combined)
            )
        elif aggregation == "average":
            combined = builder.div(combined, builder.lit(float(len(tree_exprs))))
        else:
            return None
        return [[combined]]

    if op == "relu":
        (operand,) = inputs
        out = []
        for z in operand:
            condition = builder.compare(">", z, builder.lit(0.0))
            out.append(
                builder.case([(condition, z)], builder.lit(0.0), DataType.FLOAT)
            )
        return [out]

    if op == "add" or op == "mul":
        left, right = inputs
        width = max(len(left), len(right))
        combine = builder.add if op == "add" else builder.mul
        out = []
        for i in range(width):
            a = left[i] if i < len(left) else left[-1]
            b = right[i] if i < len(right) else right[-1]
            out.append(combine(a, b))
        return [out]

    # text_hash, softmax, argmax, clip: not inlinable.
    return None


def _inline_tree(
    builder: _InlineBuilder, tree: dict, matrix: list[BoundExpr]
) -> BoundExpr | None:
    """One serialized tree → nested CASE (single-output trees only)."""
    if tree.get("left") is None:
        value = tree["value"]
        if len(value) != 1:
            return None  # probability-vector leaves are not inlinable
        return builder.lit(float(value[0]))
    feature = int(tree["feature"])
    if feature >= len(matrix):
        return None
    left = _inline_tree(builder, tree["left"], matrix)
    right = _inline_tree(builder, tree["right"], matrix)
    if left is None or right is None:
        return None
    condition = builder.compare(
        "<=", matrix[feature], builder.lit(float(tree["threshold"]))
    )
    return builder.case([(condition, left)], right, DataType.FLOAT)
