"""Executing PredictNode operators.

:class:`DefaultScorer` is the bridge between the relational executor and the
:mod:`flock.mlgraph` runtime. Every PREDICT the cross-optimizer leaves in
the plan is scored here in one vectorized batch, with the prepared artifact
(pruned inputs, compressed graph) attached to the node. The one physical
choice made here is on the observed input: a batch whose inputs are all
dictionary-coded is scored once per distinct code combination.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from flock.db.encoding import DictionaryVector
from flock.db.plan import PredictNode
from flock.db.types import DataType
from flock.db.vector import Batch, ColumnVector
from flock.errors import InferenceError
from flock.mlgraph.graph import Graph
from flock.mlgraph.runtime import GraphRuntime
from flock.observability import get_tracer, metrics


@dataclass
class PreparedModel:
    """The scoring artifact the cross-optimizer attaches to a PredictNode.

    ``active_inputs`` are graph input names fed from DB columns, in the same
    order as the node's ``input_indexes``; ``constant_fill`` maps pruned
    graph inputs to the constant used in their place (their value provably
    cannot affect the outputs). ``inline_rejected`` holds the inlining
    budgets *graph* is known to exceed; the cross-optimizer shares one set
    per cached compressed graph.
    """

    graph: Graph
    active_inputs: list[str]
    constant_fill: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    inline_rejected: set[int] = field(default_factory=set)


class DefaultScorer:
    """Scores PredictNodes via the mlgraph runtime.

    When ``monitor_hub`` is set (see :mod:`flock.monitoring`), every scoring
    call reports its input feeds and output scores there — model monitoring
    happens inside the engine, invisible to application queries.
    """

    def __init__(self, monitor_hub=None) -> None:
        self.runtime = GraphRuntime()
        self.monitor_hub = monitor_hub
        # Concurrent serving statements score through one shared scorer;
        # monitor hubs keep windowed state that is not guaranteed
        # re-entrant, so reports are serialized.
        self._monitor_lock = threading.Lock()

    def score(
        self, node: PredictNode, inputs: Batch, store
    ) -> list[ColumnVector]:
        with get_tracer().span(
            "predict.score", {"model": node.model_name}
        ) as span:
            start_ns = time.perf_counter_ns()
            result = self._score(node, inputs, store)
            elapsed_ms = (time.perf_counter_ns() - start_ns) / 1e6
            span.set_attribute("rows", inputs.num_rows)
        registry = metrics()
        registry.counter("predict.batches").inc()
        registry.histogram("predict.batch_rows").observe(inputs.num_rows)
        registry.histogram("predict.score_ms").observe(elapsed_ms)
        return result

    def _score(
        self, node: PredictNode, inputs: Batch, store
    ) -> list[ColumnVector]:
        distinct = self._score_distinct_codes(node, inputs, store)
        if distinct is not None:
            return distinct
        prepared = node.compiled
        if not isinstance(prepared, PreparedModel):
            graph = store.scoring_artifact(node.model_name)
            prepared = PreparedModel(graph, list(graph.input_names))
        graph = prepared.graph

        if len(prepared.active_inputs) != inputs.num_columns:
            raise InferenceError(
                f"model {node.model_name!r} prepared for "
                f"{len(prepared.active_inputs)} input columns, got "
                f"{inputs.num_columns}"
            )

        n_rows = inputs.num_rows
        feeds: dict[str, np.ndarray] = {}
        dtype_by_input = {s.name: s.dtype for s in graph.inputs}
        for input_name, column in zip(prepared.active_inputs, inputs.columns):
            feeds[input_name] = _column_to_feed(
                column, dtype_by_input[input_name], node.model_name
            )
        for input_name, value in prepared.constant_fill.items():
            if dtype_by_input[input_name] == "text":
                feeds[input_name] = np.full(n_rows, str(value), dtype=object)
            else:
                feeds[input_name] = np.full(n_rows, float(value))

        tensor_by_field = dict(graph.output_field_names())
        tensors = []
        for plan_field in node.output_fields:
            field_name = _strip_prefix(plan_field.name)
            tensor = tensor_by_field.get(field_name, field_name)
            if tensor not in graph.output_names:
                raise InferenceError(
                    f"model {node.model_name!r} produced no output "
                    f"{field_name!r}"
                )
            tensors.append(tensor)
        # Only what the statement reads (and the monitor's scores) runs.
        wanted = dict.fromkeys(tensors)
        if self.monitor_hub is not None:
            score_tensor = tensor_by_field.get(
                "probability", tensor_by_field.get("score")
            )
            if score_tensor is not None:
                wanted[score_tensor] = None
        outputs = self.runtime.run(graph, feeds, outputs=list(wanted))

        if self.monitor_hub is not None:
            try:
                with self._monitor_lock:
                    self.monitor_hub.on_score(
                        node.model_name, feeds, outputs, score_tensor
                    )
            except Exception:
                # Observability must never break scoring: a broken monitor
                # loses telemetry, not queries.
                pass
        return [
            _feed_to_column(outputs[tensor], plan_field.dtype)
            for plan_field, tensor in zip(node.output_fields, tensors)
        ]

    def _score_distinct_codes(
        self, node: PredictNode, inputs: Batch, store
    ) -> list[ColumnVector] | None:
        """Late-decode PREDICT: score once per distinct code combination.

        When every input column is dictionary-encoded, the model sees only
        as many distinct feature rows as there are code combinations, so
        scoring the distinct combinations and gathering by row is a pure
        row permutation/selection of the full batch — bit-identical,
        because every mlgraph op is elementwise or row-wise over the batch
        axis. Skipped when a monitor hub is attached (it must observe the
        actual per-row feeds).
        """
        if (
            self.monitor_hub is not None
            or inputs.num_columns == 0
            or inputs.num_rows < 2
            or not all(
                isinstance(c, DictionaryVector) for c in inputs.columns
            )
        ):
            return None
        code_matrix = np.stack([c.codes for c in inputs.columns], axis=1)
        uniq, inverse = np.unique(code_matrix, axis=0, return_inverse=True)
        if len(uniq) >= inputs.num_rows:
            return None
        distinct_inputs = Batch(
            inputs.names,
            [
                DictionaryVector(
                    c.dtype,
                    np.ascontiguousarray(uniq[:, j], dtype=np.int32),
                    c.dictionary,
                )
                for j, c in enumerate(inputs.columns)
            ],
        )
        # Recursion terminates: the distinct batch has no duplicate rows,
        # so its own unique pass falls through to the real scoring body.
        distinct_outputs = self._score(node, distinct_inputs, store)
        registry = metrics()
        registry.counter("predict.code_batches").inc()
        registry.counter("predict.code_rows_saved").inc(
            inputs.num_rows - len(uniq)
        )
        gather = inverse.reshape(-1).astype(np.int64)
        return [column.take(gather) for column in distinct_outputs]


def _strip_prefix(field_name: str) -> str:
    """``__predict3_probability`` → ``probability``."""
    match = re.match(r"__predict\d+_(.+)", field_name)
    return match.group(1) if match else field_name


def _column_to_feed(
    column: ColumnVector, graph_dtype: str, model_name: str
) -> np.ndarray:
    if graph_dtype in ("float", "int"):
        if column.dtype is DataType.TEXT:
            raise InferenceError(
                f"model {model_name!r} expects a numeric input, got TEXT"
            )
        # Hoist: on encoded vectors each property access decodes the column.
        nulls = column.nulls
        if not nulls.any():
            return column.values.astype(np.float64, copy=False)
        values = column.values.astype(np.float64)  # a copy, never the store
        values[nulls] = np.nan  # imputers downstream handle NaN
        return values
    if isinstance(column, DictionaryVector):
        # Gather the feed straight from the dictionary; object slots start
        # as None, which is exactly the NULL representation feeds use.
        codes = column.codes
        out = np.empty(len(codes), dtype=object)
        present = codes >= 0
        out[present] = column.dictionary[codes[present]]
        return out
    values = column.values
    nulls = column.nulls
    out = np.empty(len(column), dtype=object)
    for i in range(len(column)):
        out[i] = None if nulls[i] else values[i]
    return out


def _feed_to_column(values: np.ndarray, dtype: DataType) -> ColumnVector:
    values = np.asarray(values)
    if values.ndim != 1:
        raise InferenceError(
            f"model output must be one column per output field, got shape "
            f"{values.shape}"
        )
    if dtype is DataType.FLOAT:
        floats = values.astype(np.float64)
        nulls = np.isnan(floats)
        safe = np.where(nulls, 0.0, floats)
        return ColumnVector(dtype, safe, nulls)
    if dtype is DataType.INTEGER:
        return ColumnVector.from_numpy(dtype, values.astype(np.int64))
    if dtype is DataType.TEXT:
        out = np.empty(len(values), dtype=object)
        nulls = np.zeros(len(values), dtype=bool)
        for i, v in enumerate(values.tolist()):
            if v is None:
                nulls[i] = True
            else:
                out[i] = str(v)
        return ColumnVector(dtype, out, nulls)
    if dtype is DataType.BOOLEAN:
        return ColumnVector.from_numpy(dtype, values.astype(bool))
    raise InferenceError(f"unsupported prediction output type {dtype}")
