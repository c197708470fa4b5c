"""Morsel-driven parallelism: segments, partial states, deterministic merges.

The executor splits the scan feeding a Filter/Project/Predict pipeline into
fixed-size row ranges ("morsels"), runs the pipeline over each morsel on the
shared :class:`~flock.db.exec.pool.WorkerPool`, and merges per-morsel partial
states here. numpy kernels release the GIL, so morsels genuinely overlap.

Every merge is **bit-identical to serial execution**, by construction rather
than by tolerance:

- *Pipelines* (filter/project/predict): expression evaluation and model
  scoring are elementwise over rows, so evaluating a slice equals slicing
  the full evaluation; concatenating morsel outputs in morsel order
  reproduces the serial batch exactly.
- *Aggregates*: a partial state gathers each group's argument **values**
  (not partial sums). Merging concatenates the per-morsel chunks in morsel
  order — rebuilding the exact array serial execution would reduce — and
  then applies the very same reduction. Summation order, DISTINCT dedup and
  NULL handling are therefore identical down to floating-point bits. Group
  output order is first-appearance order, preserved by merging morsels in
  order.
- *Top-k* (ORDER BY + LIMIT): each morsel sorts locally and keeps its first
  ``limit + offset`` rows (any row pruned locally is beaten by enough rows
  globally, so pruning is safe); the merge re-sorts the survivors with each
  row's global pre-sort position as the final tie-break key, which is
  exactly the order a serial stable sort would produce.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from flock.db import functions as fn
from flock.db.exec import grouping
from flock.db.expr import BoundExpr
from flock.db.plan import (
    AggregateNode,
    FilterNode,
    PlanNode,
    PredictNode,
    ProjectNode,
    ScanNode,
)
from flock.db.types import DataType
from flock.db.vector import Batch, ColumnVector


def _int_env(name: str) -> int | None:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else None


@dataclass
class ParallelConfig:
    """Engine-level parallel execution settings.

    ``workers`` is the pool size (1 = serial); ``morsel_rows`` the target
    morsel size; ``min_parallel_rows`` overrides the cost model's
    don't-bother floor (useful for tests that force tiny parallel runs).
    """

    workers: int = 1
    morsel_rows: int | None = None
    min_parallel_rows: int | None = None

    @classmethod
    def from_env(
        cls,
        workers: int | None = None,
        morsel_rows: int | None = None,
        min_parallel_rows: int | None = None,
    ) -> "ParallelConfig":
        """Explicit arguments win; FLOCK_* environment fills the gaps."""
        if workers is None:
            workers = _int_env("FLOCK_WORKERS") or 1
        if morsel_rows is None:
            morsel_rows = _int_env("FLOCK_MORSEL_ROWS")
        if min_parallel_rows is None:
            min_parallel_rows = _int_env("FLOCK_PARALLEL_MIN_ROWS")
        return cls(
            workers=max(1, int(workers)),
            morsel_rows=morsel_rows,
            min_parallel_rows=min_parallel_rows,
        )


# ----------------------------------------------------------------------
# Pipeline segments
# ----------------------------------------------------------------------
@dataclass
class PipelineSegment:
    """A Scan feeding a (possibly empty) chain of per-row stages."""

    scan: ScanNode
    stages: list[PlanNode]  # bottom-up: stages[0] consumes the scan
    has_predict: bool


def find_segment(node: PlanNode) -> PipelineSegment | None:
    """The parallelizable Scan→Filter/Project/Predict chain rooted at *node*.

    Returns None when the subtree contains anything that is not elementwise
    over rows (joins, nested aggregates, set operations, subplan scans).
    """
    stages: list[PlanNode] = []
    current = node
    while isinstance(current, (FilterNode, ProjectNode, PredictNode)):
        stages.append(current)
        current = current.child
    if not isinstance(current, ScanNode):
        return None
    stages.reverse()
    has_predict = any(isinstance(s, PredictNode) for s in stages)
    return PipelineSegment(current, stages, has_predict)


def morsel_bounds(n_rows: int, morsel_rows: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges covering ``n_rows``."""
    return [
        (start, min(start + morsel_rows, n_rows))
        for start in range(0, n_rows, morsel_rows)
    ]


def concat_columns(dtype: DataType, chunks: list[ColumnVector]) -> ColumnVector:
    """Concatenate chunks in order (bitwise equal to one big gather)."""
    if not chunks:
        return ColumnVector.empty(dtype)
    if len(chunks) == 1:
        return chunks[0]
    from flock.db.encoding import concat_encoded

    # Morsel chunks of one encoded column share a dictionary / frame and
    # merge on the encoded payload without decoding.
    encoded = concat_encoded(chunks)
    if encoded is not None:
        return encoded
    return ColumnVector(
        dtype,
        np.concatenate([c.values for c in chunks]),
        np.concatenate([c.nulls for c in chunks]),
    )


def concat_batches(batches: list[Batch]) -> Batch:
    """Concatenate morsel outputs in morsel order — the serial batch."""
    return Batch.concat_all(batches)


# ----------------------------------------------------------------------
# Aggregate partial states
# ----------------------------------------------------------------------
@dataclass
class GroupPartial:
    """One group's slice of one morsel: its key, row count and the gathered
    argument values of every aggregate (None for COUNT(*) slots)."""

    key: tuple
    count: int = 0
    chunks: list[ColumnVector | None] = field(default_factory=list)


def aggregate_partial(node: AggregateNode, batch: Batch) -> list[GroupPartial]:
    """Per-morsel aggregation state, in this morsel's first-appearance order."""
    arg_vectors: list[ColumnVector | None] = [
        None if spec.arg is None else spec.arg.evaluate(batch)
        for spec in node.aggregates
    ]
    if not node.group_exprs:
        return [
            GroupPartial(key=(), count=batch.num_rows, chunks=arg_vectors)
        ]
    group_vectors = [e.evaluate(batch) for e in node.group_exprs]
    keyed = grouping.key_codes(group_vectors)
    keys = grouping.key_tuples(group_vectors, keyed.first_rows)
    index_arrays = grouping.group_rows(keyed)
    partials: list[GroupPartial] = []
    for key, indexes in zip(keys, index_arrays):
        partials.append(
            GroupPartial(
                key=key,
                count=len(indexes),
                chunks=[
                    None if v is None else v.take(indexes)
                    for v in arg_vectors
                ],
            )
        )
    return partials


@dataclass
class _MergedGroup:
    key: tuple
    count: int
    chunk_lists: list[list[ColumnVector]]


def merge_aggregate_partials(
    node: AggregateNode, partials: list[list[GroupPartial]]
) -> Batch:
    """Merge morsel-order partials into the final aggregate batch.

    Group order is global first appearance (serial order, because morsels
    are merged in morsel order); each aggregate's argument chunks are
    concatenated in morsel order and reduced by the *same* reduction serial
    execution uses, so results match bit for bit.
    """
    n_specs = len(node.aggregates)
    merged: dict[tuple, _MergedGroup] = {}
    order: list[_MergedGroup] = []
    for morsel_groups in partials:
        for partial in morsel_groups:
            state = merged.get(partial.key)
            if state is None:
                # Keep the first-seen key tuple: for keys equal under
                # Python `==` but distinct as values (0.0 vs -0.0), serial
                # execution reports the first occurrence.
                state = _MergedGroup(
                    partial.key, 0, [[] for _ in range(n_specs)]
                )
                merged[partial.key] = state
                order.append(state)
            state.count += partial.count
            for j, chunk in enumerate(partial.chunks):
                if chunk is not None:
                    state.chunk_lists[j].append(chunk)
    if not node.group_exprs and not order:
        # Zero morsels (empty input): serial still emits one global group.
        order = [_MergedGroup((), 0, [[] for _ in range(n_specs)])]

    columns: list[ColumnVector] = []
    for k, expr in enumerate(node.group_exprs):
        columns.append(
            ColumnVector.from_values(
                expr.dtype, [state.key[k] for state in order]
            )
        )
    for j, spec in enumerate(node.aggregates):
        agg = fn.AGGREGATE_FUNCTIONS[spec.func_name]
        results = []
        for state in order:
            if spec.arg is None:  # COUNT(*): exact integer addition
                results.append(state.count)
            else:
                values = concat_columns(spec.arg.dtype, state.chunk_lists[j])
                results.append(agg.reduce(values, spec.distinct))
        columns.append(ColumnVector.from_values(spec.dtype, results))
    return Batch([f.name for f in node.fields], columns)


# ----------------------------------------------------------------------
# Top-k partial states (ORDER BY ... LIMIT)
# ----------------------------------------------------------------------
@dataclass
class TopKPartial:
    """A morsel's sorted survivors plus bookkeeping for the global merge."""

    batch: Batch  # first `keep` rows of the locally sorted morsel
    positions: np.ndarray  # their pre-sort positions within the morsel
    total_rows: int  # morsel output rows before pruning


def topk_partial(
    keys: list[tuple[BoundExpr, bool]], keep: int, batch: Batch
) -> TopKPartial:
    """Locally sort one morsel's output and keep its first *keep* rows."""
    total = batch.num_rows
    if total == 0:
        return TopKPartial(batch, np.empty(0, dtype=np.int64), 0)
    code_arrays = grouping.sort_key_codes(keys, batch)
    order = np.lexsort(tuple(reversed(code_arrays)))
    pruned = order[:keep].astype(np.int64)
    return TopKPartial(batch.take(pruned), pruned, total)


def merge_topk(
    keys: list[tuple[BoundExpr, bool]],
    limit: int,
    offset: int,
    partials: list[TopKPartial],
) -> Batch:
    """Merge morsel top-k survivors into the exact serial LIMIT window.

    Re-sorting the survivors with each row's *global* pre-sort position as
    the least-significant key reproduces serial stable-sort tie order: a
    serial sort keeps equal-key rows in input order, and input order is
    precisely ascending global position.
    """
    batches = []
    positions = []
    base = 0
    for partial in partials:
        batches.append(partial.batch)
        positions.append(partial.positions + base)
        base += partial.total_rows
    merged = concat_batches(batches)
    global_pos = np.concatenate(positions) if positions else np.empty(0)
    if merged.num_rows > 1:
        code_arrays = grouping.sort_key_codes(keys, merged)
        order = np.lexsort(tuple(reversed(code_arrays + [global_pos])))
        merged = merged.take(order)
    return merged.slice(offset, offset + limit)
